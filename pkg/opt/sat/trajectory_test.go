package sat

import (
	"hash/fnv"
	"math"
	"testing"
)

// trajectorySeq is a fixed sequence of formulas that reaches the parts
// of the search TestOptTrajectory's easy formulas never do: random CNFs
// from well under to well over the satisfiability threshold (many
// learnt binary clauses), a complete pigeonhole proof, a budget-bound
// pigeonhole run long enough for reduceDB, and one Solve past the ~4 490
// conflicts after which variable activities are rescaled.
func trajectorySeq() []formula {
	rng := splitmix64(31337)
	var seq []formula
	for _, density := range []int{3, 5} {
		nvars := 60 + int(rng.next()%90)
		seq = append(seq, randomCNF(&rng, nvars, nvars*density))
	}
	for _, tenths := range []int{38, 41, 43, 45, 50} {
		for range 2 {
			nvars := 100 + int(rng.next()%60)
			seq = append(seq, random3CNF(&rng, nvars, nvars*tenths/10))
		}
	}
	seq = append(seq, pigeonholeCNF(6))
	reduce := pigeonholeCNF(8)
	reduce.budget = 4000
	rescale := pigeonholeCNF(9)
	rescale.budget = 6000
	return append(seq, reduce, rescale)
}

// random3CNF draws nclauses clauses of exactly 3 literals over nvars
// variables; around 4.26 clauses per variable they are hard.
func random3CNF(rng *splitmix64, nvars, nclauses int) formula {
	f := formula{nvars: nvars, clauses: make([][]Lit, nclauses)}
	for i := range f.clauses {
		c := make([]Lit, 3)
		for j := range c {
			c[j] = Lit(rng.next() % uint64(2*nvars))
		}
		f.clauses[i] = c
	}
	return f
}

// TestSolveTrajectory pins the solver's search over trajectorySeq: the
// status of every formula, the summed conflicts and an FNV-1a hash of
// every model. The constants were measured before the search kernel
// moved to binary implication watchers and the cold/hot decision
// order, and a kernel change that stores or finds the same thing
// differently must leave every one of them as it is: conflict counts
// follow each decision, propagation order and learnt clause, and the
// models follow the saved phases.
func TestSolveTrajectory(t *testing.T) {
	const (
		wantStatuses  = "SUSSSSUUUUUUU??"
		wantConflicts = 19529
		wantModelHash = uint64(0xb14efc174e5106f9)
	)
	h := fnv.New64a()
	statuses := make([]byte, 0, 32)
	var conflicts int64
	reduced, rescaled := false, false
	for _, f := range trajectorySeq() {
		s := load(New(), f)
		st := s.Solve(f.budget, nil)
		statuses = append(statuses, "?SU"[st])
		conflicts += s.Conflicts()
		if st == Sat {
			for v := range f.nvars {
				if s.Value(v) {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		}
		reduced = reduced || cap(s.delBuf) > 0
		// Without a rescale varInc is (1/0.95)^conflicts; each rescale
		// divides it by 1e100.
		rescaled = rescaled || s.varInc < math.Pow(1/0.95, float64(s.Conflicts()))/1e50
		t.Logf("%v after %d conflicts (%d vars, %d clauses)", st, s.Conflicts(), f.nvars, len(f.clauses))
	}
	if !reduced || !rescaled {
		t.Fatalf("reduceDB ran: %v, activities rescaled: %v; the sequence must reach both", reduced, rescaled)
	}
	if got := string(statuses); got != wantStatuses || conflicts != wantConflicts || h.Sum64() != wantModelHash {
		t.Fatalf("statuses %s, Σconflicts %d, model hash %#x; want %s, %d, %#x",
			got, conflicts, h.Sum64(), wantStatuses, wantConflicts, wantModelHash)
	}
}
