package sat

import (
	"slices"
	"testing"
)

// TestDecisionOrder drives the cold/hot decision order through bumps,
// decisions, assignments, backjumps and activity rescales — among them
// rescales that underflow activities to exactly 0 — and after every
// step checks it against a shadow pool: the candidates must be the
// shadow's variables, and the next pop must return the maximum of the
// shadow's unassigned variables by heapLess (activity descending, index
// ascending), found by brute force.
func TestDecisionOrder(t *testing.T) {
	const n = 150
	s := mk(n)
	pool := make([]bool, n) // the shadow: which variables are candidates
	for v := range pool {
		pool[v] = true
	}
	assigned := func(v int) bool { return s.value[Pos(v)] != lUndef }
	// best returns the shadow's next decision and the candidates a pop
	// discards before it, which are assigned and outrank it.
	best := func() (int, []int) {
		var order []int
		for v := range pool {
			if pool[v] {
				order = append(order, v)
			}
		}
		slices.SortFunc(order, func(a, b int) int {
			if s.heapLess(int32(a), int32(b)) {
				return -1
			}
			return 1
		})
		for i, v := range order {
			if !assigned(v) {
				return v, order[:i]
			}
		}
		return -1, order
	}
	// peek pops from a copy of the order, leaving the solver's intact.
	peek := func() int {
		heap, heapPos, cold, coldNext := slices.Clone(s.heap), slices.Clone(s.heapPos), slices.Clone(s.cold), s.coldNext
		v := s.popUnassigned()
		s.heap, s.heapPos, s.cold, s.coldNext = heap, heapPos, cold, coldNext
		return v
	}
	check := func(step int, what string) {
		t.Helper()
		for v := range n {
			inHeap, cold := s.heapPos[v] >= 0, s.isCold(v)
			if inHeap && cold || (inHeap || cold) != pool[v] {
				t.Fatalf("step %d (%s): var %d in heap %v, cold %v; shadow pool %v", step, what, v, inHeap, cold, pool[v])
			}
			if cold && s.activity[v] != 0 || inHeap && s.activity[v] == 0 {
				t.Fatalf("step %d (%s): var %d with activity %g in heap %v, cold %v", step, what, v, s.activity[v], inHeap, cold)
			}
		}
		if want, _ := best(); peek() != want {
			t.Fatalf("step %d (%s): next decision %d, brute force %d", step, what, peek(), want)
		}
	}
	rng := splitmix64(5)
	pick := func() int { return int(rng.next() % n) }
	demoted, dropped := 0, 0
	for step := range 4000 {
		var what string
		switch k := rng.next() % 16; {
		case k < 5:
			what = "bump"
			for range 1 + rng.next()%4 {
				s.bump(pick())
			}
			s.decayActivities()
		case k < 9:
			what = "decide"
			want, discarded := best()
			v := s.popUnassigned()
			if v != want {
				t.Fatalf("step %d: popped %d, brute force %d", step, v, want)
			}
			for _, d := range discarded {
				pool[d] = false
			}
			if v < 0 {
				break
			}
			pool[v] = false
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(Pos(v), -1)
		case k < 12:
			what = "imply"
			if v := pick(); !assigned(v) {
				s.enqueue(Neg(v), -1)
			}
		case k < 15:
			what = "backjump"
			if s.decisionLevel() == 0 {
				break
			}
			lvl := int(rng.next() % uint64(s.decisionLevel()))
			for _, l := range s.trail[s.trailLim[lvl]:] {
				pool[l.Var()] = true
			}
			s.cancelUntil(lvl)
		default:
			// A rescale that underflows some activities to exactly 0 —
			// heap candidates and assigned variables alike — and leaves
			// others tiny but positive.
			what = "rescale"
			before := slices.Clone(s.activity)
			for range 8 {
				if v := pick(); !s.isCold(v) {
					s.activity[v] = 1e-310
				}
				if v := pick(); !s.isCold(v) {
					s.activity[v] = 1e-200
				}
			}
			s.varInc = 2e100
			s.bump(pick())
			if s.varInc != 2 {
				t.Fatalf("step %d: varInc %g after the forced rescale, want 2", step, s.varInc)
			}
			for v := range n {
				if before[v] > 0 && s.activity[v] == 0 {
					if pool[v] {
						demoted++
					} else {
						dropped++ // goes back cold when a backjump unassigns it
					}
				}
			}
		}
		check(step, what)
	}
	if demoted == 0 || dropped == 0 {
		t.Fatalf("%d heap candidates and %d assigned variables underflowed to activity 0; the walk must reach both", demoted, dropped)
	}
	t.Logf("%d heap candidates demoted, %d assigned variables underflowed", demoted, dropped)
}
