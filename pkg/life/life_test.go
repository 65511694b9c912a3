package life

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// twoCluster returns a minimal two-cluster machine with a 3-cycle bus,
// the configuration the cross-cluster copy cases are pinned on.
func twoCluster(t *testing.T) *machine.Machine {
	t.Helper()
	return machine.NewBuilder("two").
		Latency(machine.ClassALU, 1).
		Cluster("c0", 8, machine.FU("a0", machine.ClassALU)).
		Cluster("c1", 8, machine.FU("a1", machine.ClassALU)).
		Bus("x", 1, 3).
		MustBuild()
}

// view builds a fully-placed View over parallel cycle/cluster arrays.
func view(t *testing.T, l *ir.Loop, m *machine.Machine, ii int, cycles, clusters []int) *View {
	t.Helper()
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return &View{Loop: l, Graph: g, Machine: m, II: ii,
		At: func(id int) (int, int, bool) { return cycles[id], clusters[id], true }}
}

func TestOfDefLocalAndCarried(t *testing.T) {
	m := machine.Unified()
	// v1 = add v0; v2 = add v1; v0 = add v0 (self recurrence, dist 1).
	l := &ir.Loop{Name: "chain", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
		{ID: 2, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{0}, Uses: []ir.VReg{0}},
	}}
	v := view(t, l, m, 2, []int{0, 1, 0}, []int{0, 0, 0})

	lts := OfDef(v, 0, 1)
	if len(lts) != 1 {
		t.Fatalf("OfDef(v1) = %d lifetimes, want 1", len(lts))
	}
	if lt := lts[0]; lt.Start != 0 || lt.End != 1 || lt.Distance != 0 || lt.Cluster != 0 {
		t.Errorf("v1 lifetime = %+v, want [0,1] dist 0 cluster 0", lt)
	}
	// v0's self use one iteration later: end = start + 1*II.
	lts = OfDef(v, 2, 0)
	if len(lts) != 1 {
		t.Fatalf("OfDef(v0) = %d lifetimes, want 1", len(lts))
	}
	if lt := lts[0]; lt.End != 0+2 || lt.Distance != 1 {
		t.Errorf("v0 lifetime = %+v, want End=2 Distance=1", lt)
	}
	// Dead value: v2 has no consumers; its lifetime is one cycle long.
	lts = OfDef(v, 1, 2)
	if lt := lts[0]; lt.Start != lt.End || lt.Length() != 1 {
		t.Errorf("dead v2 lifetime = %+v, want length 1", lt)
	}
}

func TestOfDefBusDeliveredCopy(t *testing.T) {
	m := twoCluster(t)
	l := &ir.Loop{Name: "xfer", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
	}}
	v := view(t, l, m, 5, []int{0, 4}, []int{0, 1})
	lts := OfDef(v, 0, 1)
	if len(lts) != 2 {
		t.Fatalf("OfDef = %d lifetimes, want local + remote copy (%v)", len(lts), lts)
	}
	orig, cp := lts[0], lts[1]
	if orig.Cluster != 0 || orig.Start != 0 || orig.End != 4 {
		t.Errorf("original lifetime = %+v, want cluster 0 [0,4]", orig)
	}
	// Arrival = 0 + lat 1 + bus 3 = 4 = the use cycle.
	if cp.Cluster != 1 || cp.Start != 4 || cp.End != 4 {
		t.Errorf("copy lifetime = %+v, want cluster 1 [4,4]", cp)
	}
}

func TestOfDefUnplacedContributesNothing(t *testing.T) {
	m := machine.Unified()
	l := &ir.Loop{Name: "p", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
	}}
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	placed := []bool{false, true}
	v := &View{Loop: l, Graph: g, Machine: m, II: 3,
		At: func(id int) (int, int, bool) { return id, 0, placed[id] }}
	if lts := OfDef(v, 0, 1); lts != nil {
		t.Errorf("unplaced def produced lifetimes: %v", lts)
	}
	// A placed def with its consumer unplaced is a (so far) dead value.
	placed[0], placed[1] = true, false
	lts := OfDef(v, 0, 1)
	if len(lts) != 1 || lts[0].Length() != 1 {
		t.Errorf("def with unplaced consumer = %v, want one length-1 lifetime", lts)
	}
}

func TestLiveInsPerConsumingCluster(t *testing.T) {
	m := twoCluster(t)
	// v0 is live-in, consumed on both clusters; v9 live-in on cluster 1.
	l := &ir.Loop{Name: "li", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{0, 9}},
	}}
	v := view(t, l, m, 4, []int{0, 0}, []int{0, 1})
	lts := LiveIns(v)
	want := []Lifetime{
		{Reg: 0, Def: -1, Cluster: 0, Start: 0, End: 3},
		{Reg: 0, Def: -1, Cluster: 1, Start: 0, End: 3},
		{Reg: 9, Def: -1, Cluster: 1, Start: 0, End: 3},
	}
	if len(lts) != len(want) {
		t.Fatalf("LiveIns = %v, want %v", lts, want)
	}
	for i := range want {
		if lts[i] != want[i] {
			t.Errorf("LiveIns[%d] = %+v, want %+v", i, lts[i], want[i])
		}
	}
}

func TestLiveInUsesDistinctInOrder(t *testing.T) {
	l := &ir.Loop{Name: "liu", Instrs: []*ir.Instruction{
		{ID: 0, Op: "fmul", Class: machine.ClassMul, Defs: []ir.VReg{1}, Uses: []ir.VReg{5, 5, 0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{0}, Uses: []ir.VReg{0}},
	}}
	uses := LiveInUses(l)
	// v5 is live-in (duplicated read counts once); v0 is defined by
	// instruction 1 so it is not live-in anywhere.
	if len(uses[0]) != 1 || uses[0][0] != 5 {
		t.Errorf("LiveInUses[0] = %v, want [v5]", uses[0])
	}
	if len(uses[1]) != 0 {
		t.Errorf("LiveInUses[1] = %v, want none", uses[1])
	}
}

func TestLifetimesFullEnumerationOrder(t *testing.T) {
	m := machine.Unified()
	l := &ir.Loop{Name: "order", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{7}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
	}}
	v := view(t, l, m, 2, []int{0, 1}, []int{0, 0})
	lts := Lifetimes(v)
	// Defs in ID order first, then live-ins: v1, v2, then live-in v7.
	if len(lts) != 3 {
		t.Fatalf("Lifetimes = %v, want 3 entries", lts)
	}
	if lts[0].Reg != 1 || lts[0].Def != 0 {
		t.Errorf("first lifetime %+v, want def of v1", lts[0])
	}
	if lts[1].Reg != 2 || lts[1].Def != 1 {
		t.Errorf("second lifetime %+v, want def of v2", lts[1])
	}
	if lts[2].Reg != 7 || lts[2].Def != -1 {
		t.Errorf("third lifetime %+v, want live-in v7", lts[2])
	}
}
