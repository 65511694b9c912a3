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
func ResMII(l *ir.Loop, m *machine.Machine) (int, machine.OpClass, error) {
	counts := map[machine.OpClass]int{}
	for _, in := range l.Instrs {
		counts[in.Class]++
	}
	classes := make([]machine.OpClass, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	slices.Sort(classes)

	res, crit := 0, machine.OpClass("")
	for _, c := range classes {
		units := m.UnitsForClass(c)
		if units == 0 {
			return 0, "", fmt.Errorf("sched: machine %q has no unit for class %q used by loop %q", m.Name, c, l.Name)
		}
		bound := (counts[c] + units - 1) / units
		if bound > res {
			res, crit = bound, c
		}
	}
	if res < 1 {
		res = 1
	}
	return res, crit, nil
}

// RecMII computes the recurrence-constrained lower bound of graph g and
// the critical strongly connected component that binds it. For each
// non-trivial SCC it finds, by binary search, the smallest II such that
// no cycle has positive slack latency - II*distance; the component
// maximising that II is critical. An acyclic graph yields RecMII = 1 and
// a nil SCC.
func RecMII(g *ir.Graph) (int, []int, error) {
	rec, critical := 1, []int(nil)
	for _, scc := range SCCs(g) {
		if !sccHasCycle(g, scc) {
			continue
		}
		ii, err := sccMinII(g, scc)
		if err != nil {
			return 0, nil, err
		}
		if ii > rec {
			rec = ii
			critical = append([]int(nil), scc...)
			slices.Sort(critical)
		}
	}
	return rec, critical, nil
}

// SCCs enumerates the strongly connected components of g (over all edges,
// loop-carried included) using Tarjan's algorithm. Components come out in
// reverse topological order; single nodes without self edges are returned
// as singleton components.
func SCCs(g *ir.Graph) [][]int {
	n := g.NumNodes()
	index := make([]int, n)
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack []int
		next  int
		out   [][]int
	)
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range g.Succs(v) {
			w := e.To
			if index[w] == -1 {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	return out
}

// sccHasCycle reports whether the component contains at least one edge
// internal to it (multi-node SCCs always do; singletons only via a self
// edge).
func sccHasCycle(g *ir.Graph, scc []int) bool {
	if len(scc) > 1 {
		return true
	}
	v := scc[0]
	for _, e := range g.Succs(v) {
		if e.To == v {
			return true
		}
	}
	return false
}

// sccMinII finds the smallest II >= 1 such that the component has no
// cycle with positive slack latency - II*distance. Feasibility is
// monotone in II because every cycle inside an SCC of a valid dependence
// graph has total distance >= 1, so binary search applies. The upper
// bound is the sum of internal edge latencies: any cycle's latency is at
// most that sum while its distance is at least 1. The node-position
// table and the Floyd–Warshall matrix are allocated once and reused by
// every probe of the binary search.
func sccMinII(g *ir.Graph, scc []int) (int, error) {
	pos := make([]int, g.NumNodes())
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range scc {
		pos[v] = i
	}
	latSum := 0
	for _, v := range scc {
		for _, e := range g.Succs(v) {
			if pos[e.To] >= 0 {
				latSum += e.Latency
			}
		}
	}
	k := len(scc)
	dist := make([]int64, k*k)
	hi := latSum
	if hi < 1 {
		hi = 1
	}
	if !sccFeasible(g, scc, pos, dist, hi) {
		return 0, fmt.Errorf("sched: recurrence over %v unsatisfiable at II=%d (distance-0 cycle?)", scc, hi)
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if sccFeasible(g, scc, pos, dist, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// sccFeasible reports whether, at the given II, the component has no
// positive-weight cycle under edge weights latency - II*distance. It runs
// a Floyd–Warshall longest-path pass restricted to the component over
// the caller's k×k scratch matrix (dist) and node-position table (pos,
// -1 outside the component).
func sccFeasible(g *ir.Graph, scc []int, pos []int, dist []int64, ii int) bool {
	const negInf = -1 << 40
	k := len(scc)
	for i := range dist {
		dist[i] = negInf
	}
	for _, v := range scc {
		for _, e := range g.Succs(v) {
			j := pos[e.To]
			if j < 0 {
				continue
			}
			w := int64(e.Latency - ii*e.Distance)
			if w > dist[pos[v]*k+j] {
				dist[pos[v]*k+j] = w
			}
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if dist[i*k+m] == negInf {
				continue
			}
			for j := 0; j < k; j++ {
				if dist[m*k+j] == negInf {
					continue
				}
				if d := dist[i*k+m] + dist[m*k+j]; d > dist[i*k+j] {
					dist[i*k+j] = d
				}
			}
		}
	}
	for i := 0; i < k; i++ {
		if dist[i*k+i] > 0 {
			return false
		}
	}
	return true
}
