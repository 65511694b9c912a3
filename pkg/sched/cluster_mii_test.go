package sched

import (
	"fmt"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// refPlacement searches every placement of g's loop on m at II ii for a
// Validate-clean one, visiting at most budget partial placements. It
// returns the schedule it found, or nil, and whether the search ran to
// the end (a nil schedule then means none exists). Moving every
// instruction by the same number of cycles keeps a schedule valid, so
// instruction 0 issues at a cycle ≡ 0 (mod ii); each other instruction
// tries every (cluster, cycle mod ii) whose units can still seat every
// instruction given it, each on a unit of its own serving its class
// (found by augmenting paths). With each instruction's kernel row r
// chosen, only whole stages k remain (cycle = r + ii*k), and the
// dependences bound them by differences, k(to) - k(from) >=
// ceil((latency - ii*distance - r(to) + r(from)) / ii), latency
// including the bus on a true edge between clusters; the least solution
// comes from longest paths, and a positive cycle means none exists. That
// check prunes as the rows are chosen, and Validate, bus bandwidth
// included, judges every complete choice.
func refPlacement(g *ir.Graph, m *machine.Machine, ii, budget int) (*Schedule, bool) {
	l, n := g.Loop, g.NumNodes()
	s := &Schedule{Loop: l, Graph: g, Machine: m, II: ii, Placements: make([]Placement, n)}
	set := make([]bool, n)
	stages := make([]int, n)
	// feasible sets stages to the least whole-stage solution over the
	// placed instructions and reports whether one exists.
	feasible := func() bool {
		clear(stages)
		for range n + 1 {
			changed := false
			for i := range g.Edges {
				e := &g.Edges[i]
				if !set[e.From] || !set[e.To] {
					continue
				}
				from, to := s.Placements[e.From], s.Placements[e.To]
				lat := e.Latency
				if e.Kind == ir.DepTrue && from.Cluster != to.Cluster {
					lat += m.BusLatency()
				}
				c := lat - ii*e.Distance - to.Cycle + from.Cycle
				k := c / ii
				if c%ii > 0 {
					k++
				}
				if stages[e.From]+k > stages[e.To] {
					stages[e.To] = stages[e.From] + k
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
		return false
	}
	// seat gives the placed instructions sharing v's cluster and row a
	// unit each in their Slot fields, reporting false when they do not
	// fit.
	owner := make([]int, 0, 64) // a cluster has at most 64 units
	seat := func(v int) bool {
		ci, row := s.Placements[v].Cluster, s.Placements[v].Cycle
		units := m.Clusters[ci].Units
		owner = owner[:len(units)]
		for u := range owner {
			owner[u] = -1
		}
		var augment func(w int, seen uint64) bool
		augment = func(w int, seen uint64) bool {
			for u, fu := range units {
				if seen>>u&1 != 0 || !fu.Supports(l.Instrs[w].Class) {
					continue
				}
				seen |= 1 << u
				if owner[u] < 0 || augment(owner[u], seen) {
					owner[u] = w
					s.Placements[w].Slot = u
					return true
				}
			}
			return false
		}
		for w := range n {
			if set[w] && s.Placements[w].Cluster == ci && s.Placements[w].Cycle == row && !augment(w, 0) {
				return false
			}
		}
		return true
	}
	visited := 0
	var place func(v int) bool
	place = func(v int) bool {
		if visited++; visited > budget {
			return false
		}
		if v == n {
			out := *s
			out.Placements = make([]Placement, n)
			for u, p := range s.Placements {
				out.Placements[u] = Placement{Cycle: p.Cycle + ii*stages[u], Cluster: p.Cluster, Slot: p.Slot}
			}
			if out.Validate() == nil {
				s.Placements = out.Placements
				return true
			}
			return false
		}
		rows := ii
		if v == 0 {
			rows = 1
		}
		for ci := range m.Clusters {
			for r := range rows {
				s.Placements[v], set[v] = Placement{Cycle: r, Cluster: ci}, true
				if seat(v) && feasible() && place(v+1) {
					return true
				}
				set[v] = false
			}
		}
		return false
	}
	if place(0) {
		return s, true
	}
	return nil, visited <= budget
}

// fuzzClusterInput decodes a machine of one to three clusters of one or
// two units, each unit serving a non-empty subset of fuzzClasses (so
// units are shared between classes), with a bus of latency 0–3, and a
// loop of up to 5 register-free operations whose dependences are added
// as edges, three bytes each: the endpoints, the kind (true or memory)
// with the distance 0–2, and the latency 0–3.
func fuzzClusterInput(data []byte) (*ir.Graph, *machine.Machine, error) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	bus := next()
	b := machine.NewBuilder("fuzz").Bus("xbus", 1+int(bus>>2&1), int(bus&3))
	for _, class := range fuzzClasses {
		b.Latency(class, 1)
	}
	for ci := range 1 + int(next()%3) {
		var units []machine.FunctionalUnit
		for ui := range 1 + int(next()%2) {
			fu := machine.FunctionalUnit{Name: fmt.Sprintf("c%d.u%d", ci, ui)}
			mask := 1 + next()%15
			for c, class := range fuzzClasses {
				if mask>>c&1 != 0 {
					fu.Classes = append(fu.Classes, class)
				}
			}
			units = append(units, fu)
		}
		b.Cluster(fmt.Sprintf("c%d", ci), 8, units...)
	}
	m := b.MustBuild()
	l := &ir.Loop{Name: "fuzz"}
	for id := range 1 + int(next()%5) {
		l.Instrs = append(l.Instrs, &ir.Instruction{ID: id, Op: "op", Class: fuzzClasses[next()%4]})
	}
	g, err := ir.Build(l, m, nil)
	if err != nil {
		return nil, nil, err
	}
	n := len(l.Instrs)
	for len(data) >= 3 {
		ends, kind, lat := next(), next(), next()
		e := ir.Edge{From: int(ends&15) % n, To: int(ends>>4) % n, Kind: ir.DepMem,
			Distance: int(kind>>1) % 3, Latency: int(lat % 4)}
		if kind&1 != 0 {
			e.Kind = ir.DepTrue
		}
		if e.From == e.To && e.Distance == 0 {
			continue // AddEdge rejects it
		}
		if err := g.AddEdge(e); err != nil {
			return nil, nil, err
		}
	}
	return g, m, nil
}

// liftedInputs are FuzzClusterMII inputs that lift: two clusters of one
// unit each on a bus of latency 1, and two operations the unit serves
// in a true recurrence, 0 -> 1 at distance 0 and 1 -> 0 at distance 1,
// whose latencies leave no slack at RecMII and put both at the same
// offset. They must share a cluster, whose one unit cannot seat them
// there; one II later they fit apart. The first is two mul ops with
// latencies 2 and 0 (RecMII 2); the second two ALU ops with latencies 1
// and 0 (RecMII 1, which no component reports as critical).
var liftedInputs = []struct {
	data     []byte
	res, rec int
}{
	{[]byte{1, 1, 0, 1, 0, 1, 1, 1, 1, 0x10, 1, 2, 0x01, 3, 0}, 1, 2},
	{[]byte{1, 1, 0, 0, 0, 0, 1, 0, 0, 0x10, 1, 1, 0x01, 3, 0}, 1, 1},
}

// fuzzBudget caps the partial placements refPlacement visits for one
// fuzz input, about a second's search; an input whose search it cuts is
// skipped, not passed.
const fuzzBudget = 1 << 20

// FuzzClusterMII checks the cluster lift against exhaustive search on
// random small loops and machines: whenever ComputeMII lifts MII above
// RecMII, no Validate-clean schedule exists at RecMII. Run longer with
//
//	go test -run '^$' -fuzz FuzzClusterMII ./pkg/sched/
func FuzzClusterMII(f *testing.F) {
	for _, in := range liftedInputs {
		f.Add(in.data)
	}
	f.Add([]byte{5, 2, 0, 2, 1, 6, 4, 3, 1, 1, 0, 0x10, 1, 2, 0x21, 3, 3, 0x02, 2, 1})
	f.Add([]byte{1, 0, 1, 15, 4, 1, 1, 0, 0, 0x10, 1, 1, 0x21, 1, 1, 0x02, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m, err := fuzzClusterInput(data)
		if err != nil {
			t.Fatal(err)
		}
		mii, err := ComputeMII(g, m)
		if err != nil || mii.Lift == 0 {
			return // a distance-0 cycle, a class no unit serves, or no lift
		}
		if m.BusLatency() < 1 || mii.Rec < mii.Res || mii.MII != mii.Rec+1 || len(mii.Pinned) < 2 {
			t.Fatalf("lift %+v with bus latency %d", mii, m.BusLatency())
		}
		s, done := refPlacement(g, m, mii.Rec, fuzzBudget)
		if s != nil {
			t.Fatalf("MII %+v, but %v is a valid schedule at II=%d of %v on %+v", mii, s.Placements, mii.Rec, g.Edges, m.Clusters)
		}
		if !done {
			t.Skipf("no schedule at II=%d within %d partial placements", mii.Rec, fuzzBudget)
		}
	})
}

// TestClusterMIIExhaustive runs the enumerator on both sides of the
// lift: each of liftedInputs has no schedule at RecMII and one at MII,
// and with two buses of latency 0 it neither lifts nor lacks a schedule
// at RecMII (the two operations on different clusters, both transfers
// in one cycle). The enumerator finding nothing anywhere would pass
// FuzzClusterMII vacuously.
func TestClusterMIIExhaustive(t *testing.T) {
	for _, in := range liftedInputs {
		g, m, err := fuzzClusterInput(in.data)
		if err != nil {
			t.Fatal(err)
		}
		mii, err := ComputeMII(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if mii.Res != in.res || mii.Rec != in.rec || mii.Lift != 1 || mii.MII != in.rec+1 {
			t.Fatalf("MII %+v; want ResMII %d, RecMII %d, lifted by 1", mii, in.res, in.rec)
		}
		if s, done := refPlacement(g, m, mii.Rec, fuzzBudget); s != nil || !done {
			t.Fatalf("RecMII %d: a valid schedule, or the search ran out: %v", mii.Rec, s)
		}
		if s, _ := refPlacement(g, m, mii.MII, fuzzBudget); s == nil {
			t.Fatalf("no valid schedule at MII %d", mii.MII)
		}
		free := append([]byte{4}, in.data[1:]...)
		if g, m, err = fuzzClusterInput(free); err != nil {
			t.Fatal(err)
		}
		if mii, err = ComputeMII(g, m); err != nil || mii.Lift != 0 || mii.MII != in.rec {
			t.Fatalf("free bus: MII %+v, %v; want %d without a lift", mii, err, in.rec)
		}
		if s, _ := refPlacement(g, m, in.rec, fuzzBudget); s == nil {
			t.Fatalf("free bus: no valid schedule at II=%d", in.rec)
		}
	}
}

// TestClusterLiftMulchain: g0004-mulchain on paper-4cluster has ResMII 4
// = RecMII 4, but at II 4 its ops 1, 3 and 6 sit on a recurrence with no
// slack joined by true dependences, so they share a cluster at fixed
// offsets, and ops 1 and 6 — mul ops at the same offset — would need two
// of its one mul/mem unit: MII is 5. The trace header says so.
func TestClusterLiftMulchain(t *testing.T) {
	m := machine.Paper4Cluster()
	l := gen.CorpusLoop(1, 4)
	if l.Name != "g0004-mulchain" {
		t.Fatalf("corpus loop 4 is %s", l.Name)
	}
	mii, err := ComputeMII(buildGraph(t, l, m), m)
	if err != nil {
		t.Fatal(err)
	}
	if mii.Res != 4 || mii.Rec != 4 || mii.Lift != 1 || mii.MII != 5 {
		t.Fatalf("MII %+v; want ResMII 4, RecMII 4, lifted to 5", mii)
	}
	if fmt.Sprint(mii.Pinned, mii.PinnedAt) != "[1 3 6] [0 2 0]" {
		t.Errorf("pinned %v at %v; want [1 3 6] at [0 2 0]", mii.Pinned, mii.PinnedAt)
	}
	want := "MII 5 = RecMII 4 + 1: ops {1 3 6} must share a cluster at fixed offsets mod 4; no cluster seats them: on each, ops {1 6} (mul) at offset 0 need 2 units and find 1"
	if got := mii.Explain(l, m); got != want {
		t.Errorf("Explain:\n got %s\nwant %s", got, want)
	}
	if got := (MII{Res: 4, Rec: 4, MII: 4}).Explain(l, m); got != "" {
		t.Errorf("Explain without a lift: %q", got)
	}
	free := machine.Paper4Cluster()
	free.Buses[0].Latency = 0
	if mii, err = ComputeMII(buildGraph(t, l, free), free); err != nil || mii.Lift != 0 || mii.MII != 4 || mii.Pinned != nil {
		t.Errorf("free bus: MII %+v, %v; want 4 without a lift", mii, err)
	}
}
