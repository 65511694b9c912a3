package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// sameRecMII fails t unless RecMII and the reference agree on g: equal
// bound, equal critical component and the same error, if any.
func sameRecMII(t *testing.T, what string, g *ir.Graph) {
	t.Helper()
	rec, scc, err := RecMII(g)
	wantRec, wantSCC, wantErr := refRecMII(g)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: RecMII error %v, reference %v", what, err, wantErr)
	}
	if rec != wantRec || !reflect.DeepEqual(scc, wantSCC) {
		t.Fatalf("%s: RecMII = %d %v, reference %d %v", what, rec, scc, wantRec, wantSCC)
	}
}

// TestRecMIIMatchesReference: the one-pass RecMII must reproduce the
// reference's bound, critical component and error on every gate loop —
// the examples and gen.Corpus(1, 240) on the three canned machines,
// built strict and with RenameCopies 3, as built and after one spill.
func TestRecMIIMatchesReference(t *testing.T) {
	loops := append(ir.ExampleLoops(), gen.Corpus(1, 240)...)
	graphs := 0
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, copies := range []int{1, 3} {
			for _, l := range loops {
				g, err := ir.Build(l, m, &ir.BuildOptions{OutputLatency: 1, RenameCopies: copies})
				if err != nil {
					t.Fatalf("Build(%s on %s): %v", l.Name, m.Name, err)
				}
				what := fmt.Sprintf("%s on %s (%d copies)", l.Name, m.Name, copies)
				sameRecMII(t, what, g)
				graphs++
				for _, e := range g.Edges {
					if e.Kind != ir.DepTrue {
						continue
					}
					c := g.Clone()
					if _, err := c.SpliceSpill(e.From, e.Reg); err != nil {
						t.Fatalf("%s: SpliceSpill(%d, %s): %v", what, e.From, e.Reg, err)
					}
					sameRecMII(t, what+" spilled", c)
					graphs++
					break
				}
			}
		}
	}
	t.Logf("%d graphs agree", graphs)
}

// FuzzRecMII compares RecMII with the reference on random edge sets over
// up to 8 register-free instructions, distance-0 cycles included (both
// must fail them with the same error). Each edge takes three bytes:
// endpoints, distance 0–2 and latency 0–5.
func FuzzRecMII(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 1, 2, 1, 2, 0, 3})
	f.Add([]byte{4, 0, 1, 0, 1, 0, 1, 1, 2, 4, 2, 3, 2})
	f.Add([]byte{2, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{5, 0, 0, 5, 1, 2, 3, 2, 1, 1, 3, 4, 2, 4, 3, 2})
	f.Add(distanceZeroCycle)
	m := machine.Unified()
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		n := 1 + int(b[0]%8)
		l := &ir.Loop{Name: "fuzz"}
		for i := 0; i < n; i++ {
			l.Instrs = append(l.Instrs, &ir.Instruction{ID: i, Op: "nop", Class: machine.ClassALU})
		}
		g, err := ir.Build(l, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for b = b[1:]; len(b) >= 3; b = b[3:] {
			e := ir.Edge{From: int(b[0]&15) % n, To: int(b[0]>>4) % n, Kind: ir.DepMem,
				Distance: int(b[1] % 3), Latency: int(b[2] % 6)}
			if e.From == e.To && e.Distance == 0 {
				continue // AddEdge rejects it
			}
			if err := g.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		sameRecMII(t, fmt.Sprint(g.Edges), g)
	})
}

// distanceZeroCycle is FuzzRecMII input for 0 -> 1 -> 0 at distance 0
// with latency 1 per edge, beside an unrelated self loop on node 2: no
// II satisfies the first component.
var distanceZeroCycle = []byte{2, 0x10, 0, 1, 0x01, 0, 1, 0x22, 1, 3}

// TestRecMIIDistanceZeroCycle: a recurrence without an iteration
// boundary fails with the reference's error, naming the members in pop
// order and the bound the binary search started from.
func TestRecMIIDistanceZeroCycle(t *testing.T) {
	l := &ir.Loop{Name: "zero"}
	for i := 0; i < 3; i++ {
		l.Instrs = append(l.Instrs, &ir.Instruction{ID: i, Op: "nop", Class: machine.ClassALU})
	}
	g := buildGraph(t, l, machine.Unified())
	for _, e := range []ir.Edge{{From: 0, To: 1, Kind: ir.DepMem, Latency: 1}, {From: 1, To: 0, Kind: ir.DepMem, Latency: 1}} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := RecMII(g)
	if want := "sched: recurrence over [1 0] unsatisfiable at II=2 (distance-0 cycle?)"; fmt.Sprint(err) != want {
		t.Fatalf("RecMII error %v, want %s", err, want)
	}
	sameRecMII(t, "zero", g)
}

// TestSCCsPartition: the reference's components partition the nodes.
func TestSCCsPartition(t *testing.T) {
	for _, l := range ir.ExampleLoops() {
		g := buildGraph(t, l, machine.Unified())
		sccs := refSCCs(g)
		seen := map[int]int{}
		for _, comp := range sccs {
			for _, v := range comp {
				seen[v]++
			}
		}
		if len(seen) != l.NumInstrs() {
			t.Errorf("%s: SCCs cover %d nodes, want %d", l.Name, len(seen), l.NumInstrs())
		}
		for v, n := range seen {
			if n != 1 {
				t.Errorf("%s: node %d appears in %d components", l.Name, v, n)
			}
		}
	}
}

// refRecMII is the RecMII that enumerated every component first and ran
// a Floyd–Warshall longest-path pass per binary-search probe, kept
// verbatim as the reference the one-pass RecMII is tested against.
//
// It computes the recurrence-constrained lower bound of graph g and
// the critical strongly connected component that binds it. For each
// non-trivial SCC it finds, by binary search, the smallest II such that
// no cycle has positive slack latency - II*distance; the component
// maximising that II is critical. An acyclic graph yields RecMII = 1 and
// a nil SCC.
func refRecMII(g *ir.Graph) (int, []int, error) {
	rec, critical := 1, []int(nil)
	for _, scc := range refSCCs(g) {
		if !refSCCHasCycle(g, scc) {
			continue
		}
		ii, err := refSCCMinII(g, scc)
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

// refSCCs enumerates the strongly connected components of g (over all edges,
// loop-carried included) using Tarjan's algorithm. Components come out in
// reverse topological order; single nodes without self edges are returned
// as singleton components.
func refSCCs(g *ir.Graph) [][]int {
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

// refSCCHasCycle reports whether the component contains at least one edge
// internal to it (multi-node SCCs always do; singletons only via a self
// edge).
func refSCCHasCycle(g *ir.Graph, scc []int) bool {
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

// refSCCMinII finds the smallest II >= 1 such that the component has no
// cycle with positive slack latency - II*distance. Feasibility is
// monotone in II because every cycle inside an SCC of a valid dependence
// graph has total distance >= 1, so binary search applies. The upper
// bound is the sum of internal edge latencies: any cycle's latency is at
// most that sum while its distance is at least 1. The node-position
// table and the Floyd–Warshall matrix are allocated once and reused by
// every probe of the binary search.
func refSCCMinII(g *ir.Graph, scc []int) (int, error) {
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
	if !refSCCFeasible(g, scc, pos, dist, hi) {
		return 0, fmt.Errorf("sched: recurrence over %v unsatisfiable at II=%d (distance-0 cycle?)", scc, hi)
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if refSCCFeasible(g, scc, pos, dist, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// refSCCFeasible reports whether, at the given II, the component has no
// positive-weight cycle under edge weights latency - II*distance. It runs
// a Floyd–Warshall longest-path pass restricted to the component over
// the caller's k×k scratch matrix (dist) and node-position table (pos,
// -1 outside the component).
func refSCCFeasible(g *ir.Graph, scc []int, pos []int, dist []int64, ii int) bool {
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
