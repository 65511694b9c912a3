package sched

import (
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// MII is the minimum-initiation-interval lower bound of a loop on a
// machine, decomposed into its two components as in Rau's modulo
// scheduling framework and the MIRS paper: II can never go below the
// resource bound ResMII nor the recurrence bound RecMII.
type MII struct {
	// Res is the resource-constrained bound: over every set of the
	// operation classes the loop uses, ceil(#ops in the set / #units
	// serving any class in it), maximised (see ResMII).
	Res int
	// Rec is the recurrence-constrained bound: the smallest II for which
	// no dependence cycle demands more latency than Distance*II
	// provides, maximised over strongly connected components.
	Rec int
	// MII is max(Res, Rec).
	MII int
	// CriticalSCC is the strongly connected component (instruction IDs,
	// ascending) that determines Rec; nil when the graph is acyclic.
	CriticalSCC []int
}

// ComputeMII returns the MII decomposition for graph g on machine m. It
// fails if the loop uses an operation class no functional unit supports,
// or, with ir.ErrIntraCycle, if the graph has an intra-iteration cycle
// (total distance 0), which no well-formed loop has.
func ComputeMII(g *ir.Graph, m *machine.Machine) (MII, error) {
	res, err := ResMII(g.Loop, m)
	if err != nil {
		return MII{}, err
	}
	rec, critSCC, err := RecMII(g)
	if err != nil {
		return MII{}, err
	}
	out := MII{Res: res, Rec: rec, CriticalSCC: critSCC}
	out.MII = max(out.Res, out.Rec)
	return out, nil
}

// ResMII computes the resource-constrained lower bound of l on m: the
// least II at which every operation of the loop can have an issue slot
// of its own among the II × units slots of the units serving its class,
// dependences aside. By Hall's theorem that is the maximum, over every
// set of classes the loop uses, of ceil(ops in the set / units serving
// any class in the set) — the one-class sets give the per-class bound,
// and the larger ones catch a unit shared between classes (see
// ResTable). It fails if the loop uses a class no unit serves.
func ResMII(l *ir.Loop, m *machine.Machine) (int, error) {
	// A loop uses a handful of classes, so the table fits on the stack.
	var ops, units [1<<maxHallClasses - 1]int
	t := ResTable{ops: ops[:0], units: units[:0]}
	if err := t.Init(l, m, ""); err != nil {
		return 0, err
	}
	return t.Bound(), nil
}

// maxHallClasses is the most operation classes whose every subset a
// ResTable tracks (2^8 - 1 = 255 sets). A loop with more classes is
// bounded per class and as a whole, which is sound but may be loose;
// every canned machine has four classes.
const maxHallClasses = 8

// ResTable is the resource bound of a loop as a table a spill can
// update: the loop's operation classes, and per set of them the loop's
// operations in the set and the machine's units serving any class in
// it. With k <= maxHallClasses classes set s holds the classes whose
// bits are set in s+1, so there are 2^k - 1 sets; a loop with more
// classes tracks every class of the machine, in sets 0..k-1 one class
// each and in set k all of them. Either way the last set holds every
// tracked class. The units are fixed by Init; the operation counts
// follow Count and Add, so a scheduler that splices spill code into its
// loop keeps the bound of the loop it is scheduling by adding the spill
// code's operations.
type ResTable struct {
	m     *machine.Machine
	k     int  // classes tracked
	all   bool // the loop has more than maxHallClasses classes
	names [maxHallClasses]machine.OpClass
	ops   []int
	units []int
}

// Init sets the table up for loop l on machine m: the classes l uses,
// and extra too when some unit of m serves it (a class l does not use
// yet but may, such as the memory class of spill code; "" for none),
// the units serving each set, and l's operation counts. The count
// tables keep their storage when it is large enough. Init fails if l
// uses a class no unit of m serves.
func (t *ResTable) Init(l *ir.Loop, m *machine.Machine, extra machine.OpClass) error {
	t.collect(l, m, extra)
	n := t.sets()
	if cap(t.ops) < n || cap(t.units) < n {
		t.ops, t.units = make([]int, n), make([]int, n)
	}
	// Re-slicing in place keeps a caller's stack storage on the stack.
	t.ops, t.units = t.ops[:n], t.units[:n]
	clear(t.units)
	for ci := range m.Clusters {
		for ui := range m.Clusters[ci].Units {
			fu := &m.Clusters[ci].Units[ui]
			mask, served := 0, false
			for i := 0; i < t.k; i++ {
				if !fu.Supports(t.class(i)) {
					continue
				}
				served = true
				if t.all {
					t.units[i]++
				} else {
					mask |= 1 << i
				}
			}
			if t.all {
				if served {
					t.units[t.k]++
				}
				continue
			}
			for s := range t.units {
				if (s+1)&mask != 0 {
					t.units[s]++
				}
			}
		}
	}
	t.Count(l)
	if n == 0 || t.ops[n-1] < len(l.Instrs) { // some operation went uncounted
		for _, in := range l.Instrs {
			if t.index(in.Class) < 0 {
				return fmt.Errorf("sched: machine %q has no unit for class %q used by loop %q", m.Name, in.Class, l.Name)
			}
		}
	}
	return nil
}

// Carve takes the table's operation and unit counts from a, sized for
// loop l on machine m with extra as Init would track them (see Arena).
func (t *ResTable) Carve(a *Arena, l *ir.Loop, m *machine.Machine, extra machine.OpClass) {
	t.collect(l, m, extra)
	t.ops, t.units = a.Ints(t.sets()), a.Ints(t.sets())
}

// collect gathers the classes l uses that m serves, plus extra when m
// serves it, in order of first use.
func (t *ResTable) collect(l *ir.Loop, m *machine.Machine, extra machine.OpClass) {
	t.m, t.k, t.all = m, 0, false
	for _, in := range l.Instrs {
		t.track(in.Class)
	}
	if extra != "" {
		t.track(extra)
	}
}

// track starts tracking class c if t's machine serves it. The
// maxHallClasses+1-th class switches the table to tracking every class
// of the machine.
func (t *ResTable) track(c machine.OpClass) {
	if t.all || t.index(c) >= 0 || t.m.UnitsForClass(c) == 0 {
		return
	}
	if t.k < maxHallClasses {
		t.names[t.k] = c
		t.k++
		return
	}
	t.all, t.k = true, 0
	for t.class(t.k) != "" {
		t.k++
	}
}

// class returns the name of tracked class i; with all, the machine's
// i-th class in order of first appearance, "" past the last.
func (t *ResTable) class(i int) machine.OpClass {
	if !t.all {
		return t.names[i]
	}
	var name machine.OpClass
	forEachClass(t.m, func(k, ci, ui, j int) {
		if k == i {
			name = t.m.Clusters[ci].Units[ui].Classes[j]
		}
	})
	return name
}

// index returns the tracked index of class c, or -1.
func (t *ResTable) index(c machine.OpClass) int {
	for i := 0; i < t.k; i++ {
		if t.class(i) == c {
			return i
		}
	}
	return -1
}

// sets is the number of class sets the table tracks.
func (t *ResTable) sets() int {
	if t.all {
		return t.k + 1
	}
	return 1<<t.k - 1
}

// Count resets the operation counts to those of loop l; an operation of
// a class the table does not track is not counted.
func (t *ResTable) Count(l *ir.Loop) {
	clear(t.ops)
	if t.all {
		for _, in := range l.Instrs {
			t.Add(in.Class, 1)
		}
		return
	}
	var per [maxHallClasses]int
	for _, in := range l.Instrs {
		if i := t.index(in.Class); i >= 0 {
			per[i]++
		}
	}
	for s := range t.ops {
		for i := 0; i < t.k; i++ {
			if (s+1)>>i&1 != 0 {
				t.ops[s] += per[i]
			}
		}
	}
}

// Add counts n more operations of class c. A class the table does not
// track is not counted.
func (t *ResTable) Add(c machine.OpClass, n int) {
	i := t.index(c)
	switch {
	case i < 0:
	case t.all:
		t.ops[i] += n
		t.ops[t.k] += n
	default:
		for s := range t.ops {
			if (s+1)>>i&1 != 0 {
				t.ops[s] += n
			}
		}
	}
}

// Bound returns the resource bound of the counted operations: the
// maximum over the sets of ceil(ops / units), at least 1.
func (t *ResTable) Bound() int {
	res := 1
	for s, n := range t.ops {
		if n > 0 {
			res = max(res, (n+t.units[s]-1)/t.units[s])
		}
	}
	return res
}

// RecMII computes the recurrence-constrained lower bound of graph g and
// the critical strongly connected component that binds it. One pass of
// Tarjan's algorithm (over all edges, loop-carried included) enumerates
// the components in reverse topological order; each component with an
// internal edge is evaluated as it pops, finding by binary search the
// smallest II such that no cycle has positive slack latency -
// II*distance. The first component maximising that II is critical. An
// acyclic graph yields RecMII = 1 and a nil SCC. A graph with a
// distance-0 cycle fails first, with ir.ErrIntraCycle.
//
// All scratch — Tarjan's numbering, its two stacks, the component
// labels and the longest-path values, and before them the topological
// check's queue and in-degrees — lives in one array allocated per call.
func RecMII(g *ir.Graph) (int, []int, error) {
	n := g.NumNodes()
	scratch := make([]int, 7*n)
	if _, err := g.IntraTopoOrderInto(scratch[:0:n], scratch[n:2*n]); err != nil {
		return 0, nil, err
	}
	index, low, comp := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	stack, frames, next := scratch[3*n:3*n:4*n], scratch[4*n:4*n:5*n], scratch[5*n:6*n]
	dist := scratch[6*n:]
	for v := range index {
		index[v], comp[v] = -1, -1
	}
	rec, critical, critLen, counter, comps := 1, -1, 0, 0, 0
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		// frames is the DFS call stack; next[v] is how many of v's
		// successors v has visited.
		index[root], low[root], next[root] = counter, counter, 0
		counter++
		stack, frames = append(stack, root), append(frames, root)
		for len(frames) > 0 {
			v := frames[len(frames)-1]
			if succ := g.Succs(v); next[v] < len(succ) {
				w := succ[next[v]].To
				next[v]++
				if index[w] == -1 {
					index[w], low[w], next[w] = counter, counter, 0
					counter++
					stack, frames = append(stack, w), append(frames, w)
				} else if comp[w] == -1 && index[w] < low[v] {
					low[v] = index[w] // w is still on the stack
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1]; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v roots a component: the stack from v up.
			base := len(stack) - 1
			for stack[base] != v {
				base--
			}
			members := stack[base:]
			stack = stack[:base]
			for _, w := range members {
				comp[w] = comps
			}
			if ii, cyclic := componentMinII(g, members, comp, comps, dist); cyclic && ii > rec {
				rec, critical, critLen = ii, comps, len(members)
			}
			comps++
		}
	}
	if critical < 0 {
		return rec, nil, nil
	}
	scc := make([]int, 0, critLen)
	for v, c := range comp {
		if c == critical {
			scc = append(scc, v)
		}
	}
	return rec, scc, nil
}

// componentMinII finds the smallest II >= 1 at which component id — its
// members in stack order, comp labelling every node's component — has no
// cycle with positive slack latency - II*distance, and reports whether
// the component has an internal edge at all (a singleton has one only
// through a self edge; without one there is no recurrence and no bound).
// Feasibility is monotone in II because every cycle of a graph without
// distance-0 cycles (RecMII checks first) has total distance >= 1, so
// binary search applies. The upper bound is the sum of internal edge
// latencies: any cycle's latency is at most that sum while its distance
// is at least 1. dist is scratch indexed by node.
func componentMinII(g *ir.Graph, members, comp []int, id int, dist []int) (int, bool) {
	latSum, cyclic := 0, false
	for _, v := range members {
		for _, e := range g.Succs(v) {
			if comp[e.To] == id {
				latSum += e.Latency
				cyclic = true
			}
		}
	}
	if !cyclic {
		return 0, false
	}
	lo, hi := 1, max(latSum, 1)
	for lo < hi {
		mid := (lo + hi) / 2
		if componentFeasible(g, members, comp, id, dist, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// componentFeasible reports whether, at the given II, component id has
// no positive-weight cycle under edge weights latency - II*distance. It
// relaxes longest paths from every member at once (all values start at
// 0) in rounds over the internal edges. Without a positive cycle the
// values settle within k-1 rounds for k members; with one they never
// settle, so a k-th round that still changes a value proves the cycle.
// Each probe is O(k·E) and usually exits after a few rounds.
func componentFeasible(g *ir.Graph, members, comp []int, id int, dist []int, ii int) bool {
	for _, v := range members {
		dist[v] = 0
	}
	for range members {
		changed := false
		for _, v := range members {
			for _, e := range g.Succs(v) {
				if comp[e.To] != id {
					continue
				}
				if d := dist[v] + e.Latency - ii*e.Distance; d > dist[e.To] {
					dist[e.To] = d
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}
