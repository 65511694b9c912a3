package sched

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

func machines() []*machine.Machine {
	return []*machine.Machine{machine.Unified(), machine.Paper4Cluster()}
}

// TestListSchedulerValidOnAllExamples is the acceptance matrix: the
// baseline scheduler must produce a Validate-clean schedule for every
// example loop on both canned machine configurations, at or above MII.
func TestListSchedulerValidOnAllExamples(t *testing.T) {
	for _, m := range machines() {
		for _, l := range ir.ExampleLoops() {
			t.Run(m.Name+"/"+l.Name, func(t *testing.T) {
				g := buildGraph(t, l, m)
				mii, err := ComputeMII(g, m)
				if err != nil {
					t.Fatalf("ComputeMII: %v", err)
				}
				s, err := ListScheduler{}.Schedule(&Request{Loop: l, Machine: m, Graph: g})
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("Validate: %v\n%s", err, s)
				}
				if s.II < mii.MII {
					t.Errorf("II = %d below MII = %d", s.II, mii.MII)
				}
				if s.By != "list" {
					t.Errorf("By = %q, want list", s.By)
				}
				t.Logf("\n%s", s)
			})
		}
	}
}

// TestListSchedulerHitsMIIOnUnified pins the baseline's quality on the
// unified machine: no cluster penalties, so the greedy scheduler should
// achieve II = MII on every classic example loop. This is the number MIRS
// has to match before spilling can pay off. The high-pressure corpus
// additions (fir8, hydro) are deliberately excluded: their chains consume
// early loads more than MII cycles after the next iteration redefines the
// register, so without deadline-aware placement (or modulo variable
// expansion) a greedy scheduler provably cannot reach MII there — that
// gap is what the MIRS backend's windows close (see pkg/mirs tests).
func TestListSchedulerHitsMIIOnUnified(t *testing.T) {
	m := machine.Unified()
	for _, l := range []*ir.Loop{ir.DotProduct(), ir.FIR(), ir.Livermore(), ir.SingleInstruction()} {
		g := buildGraph(t, l, m)
		mii, err := ComputeMII(g, m)
		if err != nil {
			t.Fatalf("%s: ComputeMII: %v", l.Name, err)
		}
		s, err := ListScheduler{}.Schedule(&Request{Loop: l, Machine: m, Graph: g})
		if err != nil {
			t.Fatalf("%s: Schedule: %v", l.Name, err)
		}
		if s.II != mii.MII {
			t.Errorf("%s: II = %d, want MII = %d\n%s", l.Name, s.II, mii.MII, s)
		}
	}
}

func TestScheduleAtAndLength(t *testing.T) {
	m := machine.Unified()
	l := ir.SingleInstruction()
	s, err := ListScheduler{}.Schedule(&Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	p := s.Placements[0]
	if got := s.At(p.Cycle, p.Cluster, p.Slot); got != 0 {
		t.Errorf("At(placement) = %d, want 0", got)
	}
	if got := s.At(p.Cycle, p.Cluster, (p.Slot+1)%len(m.Clusters[0].Units)); got != -1 {
		t.Errorf("At(empty slot) = %d, want -1", got)
	}
	if s.Length() < 1 || s.StageCount() < 1 {
		t.Errorf("Length = %d, StageCount = %d; want >= 1", s.Length(), s.StageCount())
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	m := machine.Unified()
	l := ir.DotProduct()
	g := buildGraph(t, l, m)
	base, err := ListScheduler{}.Schedule(&Request{Loop: l, Machine: m, Graph: g})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}

	clone := func() *Schedule {
		s := *base
		s.Placements = append([]Placement(nil), base.Placements...)
		return &s
	}

	s := clone()
	s.II = 0
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "II") {
		t.Errorf("want II error, got %v", err)
	}

	// Two instructions of the same class on the same slot and congruent
	// cycles: modulo resource conflict.
	s = clone()
	s.Placements[4] = s.Placements[5]
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "occupy") {
		t.Errorf("want resource conflict, got %v", err)
	}

	// The multiply on a memory port: class mismatch.
	s = clone()
	bad := s.Placements[2]
	for ui, fu := range m.Clusters[0].Units {
		if fu.Supports(machine.ClassMem) && !fu.Supports(machine.ClassMul) {
			bad.Slot = ui
		}
	}
	s.Placements[2] = bad
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Errorf("want class mismatch, got %v", err)
	}

	// Consumer issued before its producer's latency elapses.
	s = clone()
	s.Placements[2].Cycle = s.Placements[0].Cycle
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "dependence") {
		t.Errorf("want dependence violation, got %v", err)
	}

	// Out-of-range cluster.
	s = clone()
	s.Placements[0].Cluster = 7
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "invalid cluster") {
		t.Errorf("want cluster error, got %v", err)
	}
}

func TestCrossClusterLatencyRespected(t *testing.T) {
	// Two clusters with one ALU each force the two-instruction chain
	// apart only if the scheduler chooses; either way Validate must
	// account for the bus latency the schedule implies.
	m := machine.NewBuilder("two").
		Latency(machine.ClassALU, 1).
		Cluster("c0", 8, machine.FU("a0", machine.ClassALU)).
		Cluster("c1", 8, machine.FU("a1", machine.ClassALU)).
		Bus("x", 1, 3).
		MustBuild()
	l := &ir.Loop{Name: "chain", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
		{ID: 2, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{0}, Uses: []ir.VReg{0}},
	}}
	g := buildGraph(t, l, m)
	s, err := ListScheduler{}.Schedule(&Request{Loop: l, Machine: m, Graph: g})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v\n%s", err, s)
	}
	// Force producer and consumer onto different clusters at a gap below
	// the bus latency: Validate must object.
	bad := *s
	bad.Placements = append([]Placement(nil), s.Placements...)
	bad.Placements[0] = Placement{Cycle: 0, Cluster: 0, Slot: 0}
	bad.Placements[1] = Placement{Cycle: 1, Cluster: 1, Slot: 0}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a cross-cluster chain tighter than the bus latency")
	}
}

func TestMRT(t *testing.T) {
	m := machine.Unified()
	mrt, err := NewMRT(m, 3)
	if err != nil {
		t.Fatalf("NewMRT: %v", err)
	}
	if mrt.II() != 3 {
		t.Errorf("II = %d, want 3", mrt.II())
	}
	if err := mrt.Reserve(0, 0, 4, 9); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	// 4 mod 3 == 1: cycle 1 (and 7, and -2) now occupied.
	if got := mrt.At(0, 0, 7); got != 9 {
		t.Errorf("At(cycle 7) = %d, want 9", got)
	}
	if got := mrt.At(0, 0, -2); got != 9 {
		t.Errorf("At(cycle -2) = %d, want 9", got)
	}
	if err := mrt.Reserve(0, 0, 1, 8); err == nil {
		t.Error("Reserve accepted a conflicting claim")
	}
	// FreeSlot must skip the busy unit but find another ALU.
	slot, ok := mrt.FreeSlot(0, 1, m.ClassID(machine.ClassALU))
	if !ok || slot == 0 {
		t.Errorf("FreeSlot = (%d, %v), want a free non-zero ALU slot", slot, ok)
	}
	if got := mrt.Release(0, 0, 1); got != 9 {
		t.Errorf("Release = %d, want 9", got)
	}
	if got := mrt.At(0, 0, 1); got != -1 {
		t.Errorf("At after Release = %d, want -1", got)
	}
	if _, err := NewMRT(m, 0); err == nil {
		t.Error("NewMRT accepted II = 0")
	}
}

// TestMRTReleaseRoundTrip: reserve → release → re-reserve at the same
// (cluster, slot, cycle mod II) must always succeed — the invariant every
// backtracking ejection relies on.
func TestMRTReleaseRoundTrip(t *testing.T) {
	m := machine.Paper4Cluster()
	mrt, err := NewMRT(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	for cluster := 0; cluster < m.NumClusters(); cluster++ {
		for slot := range m.Clusters[cluster].Units {
			for cycle := 0; cycle < 9; cycle++ {
				if err := mrt.Reserve(cluster, slot, cycle, 1); err != nil {
					t.Fatalf("Reserve(%d,%d,%d): %v", cluster, slot, cycle, err)
				}
				if got := mrt.Release(cluster, slot, cycle); got != 1 {
					t.Fatalf("Release(%d,%d,%d) = %d, want 1", cluster, slot, cycle, got)
				}
				// The slot must be free again at every congruent cycle.
				if got := mrt.At(cluster, slot, cycle+4); got != -1 {
					t.Fatalf("At after release = %d, want -1", got)
				}
				if err := mrt.Reserve(cluster, slot, cycle, 2); err != nil {
					t.Fatalf("re-Reserve(%d,%d,%d): %v", cluster, slot, cycle, err)
				}
				if got := mrt.Release(cluster, slot, cycle); got != 2 {
					t.Fatalf("second Release = %d, want 2", got)
				}
			}
		}
	}
}

// TestMRTBusTransfers covers the bus half of the reservation table:
// capacity per modulo cycle, broadcast sharing, reference counting across
// add/remove, and the all-or-nothing batch path.
func TestMRTBusTransfers(t *testing.T) {
	m := machine.NewBuilder("bus1").
		Latency(machine.ClassALU, 1).
		Cluster("c0", 8, machine.FU("a0", machine.ClassALU)).
		Cluster("c1", 8, machine.FU("a1", machine.ClassALU)).
		Cluster("c2", 8, machine.FU("a2", machine.ClassALU)).
		Bus("x", 1, 1).
		MustBuild()
	mrt, err := NewMRT(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := mrt.BusCap(); got != 1 {
		t.Fatalf("BusCap = %d, want 1", got)
	}
	tr := Transfer{From: 0, Reg: 5, Dest: 1, Cycle: 2}
	if err := mrt.AddTransfer(tr); err != nil {
		t.Fatalf("AddTransfer: %v", err)
	}
	// Same producer/register/destination: a broadcast share, not a second
	// bus — even at nominal extra refs.
	if err := mrt.AddTransfer(tr); err != nil {
		t.Fatalf("AddTransfer (shared): %v", err)
	}
	if got := mrt.BusUsed(2); got != 1 {
		t.Errorf("BusUsed = %d, want 1 (broadcast shares a bus)", got)
	}
	// A different destination at a congruent cycle needs a second bus.
	if err := mrt.AddTransfer(Transfer{From: 0, Reg: 5, Dest: 2, Cycle: 5}); !errors.Is(err, ErrBusBusy) {
		t.Errorf("AddTransfer of a second transfer on a 1-bus machine: err = %v, want ErrBusBusy", err)
	}
	// One RemoveTransfer drops one reference; the bus frees on the last.
	mrt.RemoveTransfer(0, 5, 1)
	if got := mrt.BusUsed(2); got != 1 {
		t.Errorf("BusUsed after first remove = %d, want 1", got)
	}
	mrt.RemoveTransfer(0, 5, 1)
	if got := mrt.BusUsed(2); got != 0 {
		t.Errorf("BusUsed after last remove = %d, want 0", got)
	}
	// Batch is all-or-nothing: the failing batch must leave no residue.
	batch := []Transfer{
		{From: 1, Reg: 2, Dest: 1, Cycle: 0},
		{From: 2, Reg: 3, Dest: 2, Cycle: 3}, // 3 mod 3 == 0: bus full
	}
	if fail, err := mrt.AddTransfers(batch); !errors.Is(err, ErrBusBusy) {
		t.Errorf("AddTransfers of an over-capacity batch: err = %v, want ErrBusBusy", err)
	} else if fail != batch[1] {
		t.Errorf("AddTransfers blocking transfer = %+v, want %+v", fail, batch[1])
	}
	if got := mrt.BusUsed(0); got != 0 {
		t.Errorf("BusUsed after failed batch = %d, want 0 (rollback)", got)
	}
	if err := mrt.AddTransfer(batch[0]); err != nil {
		t.Errorf("AddTransfer after rollback: %v", err)
	}
	if got := mrt.TransferProducersAt(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("TransferProducersAt(0) = %v, want [1]", got)
	}
}

// TestValidateRejectsDoubleBookedBus: two producers whose results leave
// for other clusters on the same cycle (mod II) overrun a single bus, and
// Validate must say so.
func TestValidateRejectsDoubleBookedBus(t *testing.T) {
	m := machine.NewBuilder("bus1v").
		Latency(machine.ClassALU, 1).
		Cluster("c0", 8, machine.FU("a0", machine.ClassALU), machine.FU("b0", machine.ClassALU)).
		Cluster("c1", 8, machine.FU("a1", machine.ClassALU), machine.FU("b1", machine.ClassALU)).
		Bus("x", 1, 1).
		MustBuild()
	// Two independent chains, each producer on c0 feeding a consumer on
	// c1: both transfers leave at cycle 0+1, overrunning the single bus.
	l := &ir.Loop{Name: "twochains", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{0}},
		{ID: 2, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{3}, Uses: []ir.VReg{1}},
		{ID: 3, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{4}, Uses: []ir.VReg{2}},
	}}
	g := buildGraph(t, l, m)
	s := &Schedule{
		Loop: l, Machine: m, Graph: g, II: 4, By: "hand",
		Placements: []Placement{
			{Cycle: 0, Cluster: 0, Slot: 0},
			{Cycle: 0, Cluster: 0, Slot: 1},
			{Cycle: 2, Cluster: 1, Slot: 0},
			{Cycle: 2, Cluster: 1, Slot: 1},
		},
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "bus bandwidth") {
		t.Errorf("want bus-bandwidth violation, got %v", err)
	}
	// Staggering the second producer by one cycle clears the collision.
	s.Placements[1].Cycle = 1
	s.Placements[3].Cycle = 3
	if err := s.Validate(); err != nil {
		t.Errorf("staggered transfers rejected: %v", err)
	}
	// Two consumers of the same value in one destination cluster ride a
	// single broadcast and must not double-book.
	l2 := &ir.Loop{Name: "broadcast", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
		{ID: 2, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{3}, Uses: []ir.VReg{1}},
	}}
	g2 := buildGraph(t, l2, m)
	s2 := &Schedule{
		Loop: l2, Machine: m, Graph: g2, II: 3, By: "hand",
		Placements: []Placement{
			{Cycle: 0, Cluster: 0, Slot: 0},
			{Cycle: 2, Cluster: 1, Slot: 0},
			{Cycle: 2, Cluster: 1, Slot: 1},
		},
	}
	if err := s2.Validate(); err != nil {
		t.Errorf("broadcast to one cluster double-booked the bus: %v", err)
	}
}

// TestValidateAllocs: Validate makes one allocation, its scratch array,
// however many cross-cluster transfers the schedule carries.
func TestValidateAllocs(t *testing.T) {
	m := machine.Paper4Cluster()
	crossing := 0
	for _, l := range ir.ExampleLoops() {
		g := buildGraph(t, l, m)
		s, err := ListScheduler{}.Schedule(&Request{Loop: l, Machine: m, Graph: g})
		if err != nil {
			t.Fatalf("Schedule(%s): %v", l.Name, err)
		}
		if !slices.ContainsFunc(g.Edges, func(e ir.Edge) bool {
			return e.Kind == ir.DepTrue && s.Placements[e.From].Cluster != s.Placements[e.To].Cluster
		}) {
			continue
		}
		crossing++
		allocs := testing.AllocsPerRun(10, func() {
			if err := s.Validate(); err != nil {
				t.Fatalf("Validate(%s): %v", l.Name, err)
			}
		})
		if allocs != 1 {
			t.Errorf("Validate(%s) made %v allocations, want 1", l.Name, allocs)
		}

		// The rejected case: a producer moved whole IIs later keeps its
		// kernel slot and bus cycle but breaks its edge. The check the
		// list attempter runs on kept tables allocates nothing either way.
		e := g.Edges[slices.IndexFunc(g.Edges, func(e ir.Edge) bool { return e.Distance == 0 && e.From != e.To })]
		bad := *s
		bad.Placements = slices.Clone(s.Placements)
		bad.Placements[e.From].Cycle += 10 * s.II
		_, tables := bad.check(nil)
		for _, c := range []*Schedule{s, &bad} {
			want := noViolation
			if c == &bad {
				want = dependence
			}
			allocs := testing.AllocsPerRun(10, func() {
				var v violation
				if v, tables = c.check(tables); v.kind != want {
					t.Fatalf("check(%s) found violation kind %d, want %d", l.Name, v.kind, want)
				}
			})
			if allocs != 0 {
				t.Errorf("check(%s) on kept tables made %v allocations, want 0", l.Name, allocs)
			}
		}
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "violated") {
			t.Errorf("Validate of the broken %s schedule: %v, want a dependence violation", l.Name, err)
		}
	}
	if crossing == 0 {
		t.Fatal("no example schedule crosses clusters")
	}
}

// TestWindow pins the slack computation backtracking placement relies
// on: earliest start from placed predecessors, latest start from placed
// successors, bus latency charged across clusters.
func TestWindow(t *testing.T) {
	m := machine.NewBuilder("two").
		Latency(machine.ClassALU, 1).
		Cluster("c0", 8, machine.FU("a0", machine.ClassALU)).
		Cluster("c1", 8, machine.FU("a1", machine.ClassALU)).
		Bus("x", 1, 3).
		MustBuild()
	l := &ir.Loop{Name: "chain3", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
		{ID: 2, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{3}, Uses: []ir.VReg{2}},
	}}
	g := buildGraph(t, l, m)
	ii := 5
	plc := make([]Placement, 3)
	placed := make([]bool, 3)
	plc[0] = Placement{Cycle: 0, Cluster: 0, Slot: 0}
	placed[0] = true
	plc[2] = Placement{Cycle: 9, Cluster: 0, Slot: 0}
	placed[2] = true

	// Same cluster as both neighbours. The true edge 0->1 alone would give
	// est = 1, but the wraparound anti edge 2->1 (node 2 reads v2 before
	// the next iteration redefines it) is a placed predecessor too:
	// est = 9 + 0 - 1*5 = 4. Symmetrically the anti edge 1->0 caps the
	// deadline at 0 - 0 + 1*5 = 5, below the true edge's 9 - 1 = 8.
	if est := EarliestStart(g, m, plc, placed, ii, 1, 0); est != 4 {
		t.Errorf("EarliestStart(cluster 0) = %d, want 4", est)
	}
	lst, bounded := LatestStart(g, m, plc, placed, ii, 1, 0)
	if !bounded || lst != 5 {
		t.Errorf("LatestStart(cluster 0) = (%d, %v), want (5, true)", lst, bounded)
	}
	// On the other cluster both edges cross: est = 0+1+3, lst = 9-1-3.
	if est := EarliestStart(g, m, plc, placed, ii, 1, 1); est != 4 {
		t.Errorf("EarliestStart(cluster 1) = %d, want 4", est)
	}
	if lst, _ := LatestStart(g, m, plc, placed, ii, 1, 1); lst != 5 {
		t.Errorf("LatestStart(cluster 1) = %d, want 5", lst)
	}
	// With node 2 unplaced, est relaxes to the true edge's 1; the window
	// top is min(anti deadline 5, est+II-1 = 5).
	placed[2] = false
	if est, lst := Window(g, m, plc, placed, ii, 1, 0); est != 1 || lst != 5 {
		t.Errorf("Window without placed successor = [%d, %d], want [1, 5]", est, lst)
	}
	// Nothing placed: the window is the first II cycles.
	placed[0] = false
	if est, lst := Window(g, m, plc, placed, ii, 1, 0); est != 0 || lst != ii-1 {
		t.Errorf("Window with nothing placed = [%d, %d], want [0, %d]", est, lst, ii-1)
	}
}

// TestHeights pins the priority metric: longest distance-0 latency path
// to a sink.
func TestHeights(t *testing.T) {
	m := machine.Unified()
	l := ir.DotProduct()
	g := buildGraph(t, l, m)
	h, err := Heights(g)
	if err != nil {
		t.Fatal(err)
	}
	// load (2) -> fmul (2) -> fadd: height(load0) = 2+2+height(fadd).
	if h[0] != 4+h[3] {
		t.Errorf("height(load) = %d, want %d", h[0], 4+h[3])
	}
	if h[6] != 0 {
		t.Errorf("height(br) = %d, want 0 (sink)", h[6])
	}
}

func BenchmarkListSchedulerDotProductUnified(b *testing.B) {
	m := machine.Unified()
	l := ir.DotProduct()
	g, err := ir.Build(l, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ListScheduler{}).Schedule(&Request{Loop: l, Machine: m, Graph: g}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkListSchedulerFIRClustered(b *testing.B) {
	m := machine.Paper4Cluster()
	l := ir.FIR()
	g, err := ir.Build(l, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ListScheduler{}).Schedule(&Request{Loop: l, Machine: m, Graph: g}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeMII(b *testing.B) {
	m := machine.Unified()
	l := ir.Livermore()
	g, err := ir.Build(l, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeMII(g, m); err != nil {
			b.Fatal(err)
		}
	}
}
