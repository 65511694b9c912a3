package sched

import (
	"fmt"
	"slices"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// MII is the minimum-initiation-interval lower bound of a loop on a
// machine, decomposed into its two components as in Rau's modulo
// scheduling framework and the MIRS paper: II can never go below the
// resource bound ResMII nor the recurrence bound RecMII.
type MII struct {
	// Res is the resource-constrained bound: for each operation class,
	// ceil(#ops / #units supporting the class), maximised over classes.
	Res int
	// Rec is the recurrence-constrained bound: the smallest II for which
	// no dependence cycle demands more latency than Distance*II
	// provides, maximised over strongly connected components.
	Rec int
	// MII is max(Res, Rec).
	MII int
	// CriticalClass is the operation class that determines Res.
	CriticalClass machine.OpClass
	// CriticalSCC is the strongly connected component (instruction IDs,
	// ascending) that determines Rec; nil when the graph is acyclic.
	CriticalSCC []int
}

// ComputeMII returns the MII decomposition for graph g on machine m. It
// fails if the loop uses an operation class no functional unit supports,
// or if the graph has an intra-iteration cycle (total distance 0), which
// no II can satisfy.
func ComputeMII(g *ir.Graph, m *machine.Machine) (MII, error) {
	res, critClass, err := ResMII(g.Loop, m)
	if err != nil {
		return MII{}, err
	}
	rec, critSCC, err := RecMII(g)
	if err != nil {
		return MII{}, err
	}
	out := MII{Res: res, Rec: rec, CriticalClass: critClass, CriticalSCC: critSCC}
	out.MII = out.Res
	if out.Rec > out.MII {
		out.MII = out.Rec
	}
	return out, nil
}

// ResMII computes the resource-constrained lower bound of l on m and the
// class that binds it. It is a per-class bound: units serving several
// classes are counted once per class, so the value is a valid (if
// sometimes loose) lower bound even on machines with shared units.
// Classes are weighed in ascending order, so ties bind to the smallest.
func ResMII(l *ir.Loop, m *machine.Machine) (int, machine.OpClass, error) {
	// A loop uses a handful of classes: count them in a small sorted
	// table, which stays on the stack for the canned machines' four.
	type classCount struct {
		class machine.OpClass
		n     int
	}
	var buf [8]classCount
	counts := buf[:0]
	for _, in := range l.Instrs {
		i := 0
		for i < len(counts) && counts[i].class < in.Class {
			i++
		}
		if i < len(counts) && counts[i].class == in.Class {
			counts[i].n++
			continue
		}
		counts = slices.Insert(counts, i, classCount{in.Class, 1})
	}

	res, crit := 0, machine.OpClass("")
	for _, c := range counts {
		units := m.UnitsForClass(c.class)
		if units == 0 {
			return 0, "", fmt.Errorf("sched: machine %q has no unit for class %q used by loop %q", m.Name, c.class, l.Name)
		}
		bound := (c.n + units - 1) / units
		if bound > res {
			res, crit = bound, c.class
		}
	}
	if res < 1 {
		res = 1
	}
	return res, crit, nil
}

// RecMII computes the recurrence-constrained lower bound of graph g and
// the critical strongly connected component that binds it. One pass of
// Tarjan's algorithm (over all edges, loop-carried included) enumerates
// the components in reverse topological order; each component with an
// internal edge is evaluated as it pops, finding by binary search the
// smallest II such that no cycle has positive slack latency -
// II*distance. The first component maximising that II is critical. An
// acyclic graph yields RecMII = 1 and a nil SCC.
//
// All scratch — Tarjan's numbering, its two stacks, the component labels
// and the longest-path values — lives in one array allocated per call.
func RecMII(g *ir.Graph) (int, []int, error) {
	n := g.NumNodes()
	scratch := make([]int, 7*n)
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
			ii, cyclic, err := componentMinII(g, members, comp, comps, dist)
			if err != nil {
				return 0, nil, err
			}
			if cyclic && ii > rec {
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
// Feasibility is monotone in II because every cycle inside a component
// of a valid dependence graph has total distance >= 1, so binary search
// applies. The upper bound is the sum of internal edge latencies: any
// cycle's latency is at most that sum while its distance is at least 1.
// dist is scratch indexed by node.
func componentMinII(g *ir.Graph, members, comp []int, id int, dist []int) (int, bool, error) {
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
		return 0, false, nil
	}
	hi := max(latSum, 1)
	if !componentFeasible(g, members, comp, id, dist, hi) {
		// Name the members in the order Tarjan's algorithm pops them.
		popped := slices.Clone(members)
		slices.Reverse(popped)
		return 0, true, fmt.Errorf("sched: recurrence over %v unsatisfiable at II=%d (distance-0 cycle?)", popped, hi)
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if componentFeasible(g, members, comp, id, dist, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true, nil
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
