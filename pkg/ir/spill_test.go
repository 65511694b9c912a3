package ir

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/machine"
)

func TestMaterializeSpillStructure(t *testing.T) {
	m := machine.Unified()
	l := DotProduct()
	g, err := Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Spill v5, defined by the fmul (id 2), consumed by the fadd (id 3).
	sg := g.Clone()
	sp, err := sg.SpliceSpill(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sg.Loop.NumInstrs(), l.NumInstrs()+2; got != want {
		t.Fatalf("augmented loop has %d instructions, want %d", got, want)
	}
	if err := sg.Loop.Validate(); err != nil {
		t.Fatalf("augmented loop invalid: %v", err)
	}
	// The store sits right after the (remapped) definition and reads v5.
	if sp.StoreID != sp.OldToNew[2]+1 {
		t.Errorf("store at %d, want right after definition %d", sp.StoreID, sp.OldToNew[2])
	}
	st := sg.Loop.Instrs[sp.StoreID]
	if st.Op != OpSpillStore || st.Class != machine.ClassMem || len(st.Uses) != 1 || st.Uses[0] != 5 {
		t.Errorf("store malformed: %v", st)
	}
	// One reload, right before the rewritten consumer, defining the fresh
	// register the consumer now reads instead of v5.
	if len(sp.ReloadIDs) != 1 || len(sp.ReloadRegs) != 1 {
		t.Fatalf("reloads = %v / %v, want one each", sp.ReloadIDs, sp.ReloadRegs)
	}
	rid, rreg := sp.ReloadIDs[0], sp.ReloadRegs[0]
	if rid != sp.OldToNew[3]-1 {
		t.Errorf("reload at %d, want right before consumer %d", rid, sp.OldToNew[3])
	}
	consumer := sg.Loop.Instrs[sp.OldToNew[3]]
	readsFresh, readsOld := false, false
	for _, u := range consumer.Uses {
		if u == rreg {
			readsFresh = true
		}
		if u == 5 {
			readsOld = true
		}
	}
	if !readsFresh || readsOld {
		t.Errorf("consumer uses = %v: want %s instead of v5", consumer.Uses, rreg)
	}
	// The store->reload memory edge carries the consumer's distance (0)
	// and memory latency.
	e := findEdge(sg, sp.StoreID, rid, DepMem)
	if e == nil {
		t.Fatal("missing store->reload memory edge")
	}
	if e.Distance != 0 || e.Latency != m.Latency(machine.ClassMem) {
		t.Errorf("mem edge dist=%d lat=%d, want 0/%d", e.Distance, e.Latency, m.Latency(machine.ClassMem))
	}
	// Every original instruction survives under its mapped ID.
	for old, in := range l.Instrs {
		if got := sg.Loop.Instrs[sp.OldToNew[old]].Op; got != in.Op {
			t.Errorf("OldToNew[%d]: op %q, want %q", old, got, in.Op)
		}
	}
}

func TestMaterializeSpillCarriedConsumer(t *testing.T) {
	m := machine.Unified()
	l := Livermore()
	g, err := Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// v4 is defined by the fmul (id 2) and read two iterations later by
	// the fadd (id 1, CarriedUses[v4]=2) plus same-iteration by the store.
	sg := g.Clone()
	sp, err := sg.SpliceSpill(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.Loop.Validate(); err != nil {
		t.Fatalf("augmented loop invalid: %v", err)
	}
	// The carried consumer's reload inherits distance 2 on the memory
	// edge, and the consumer itself drops its CarriedUses entry.
	fadd := sg.Loop.Instrs[sp.OldToNew[1]]
	if _, still := fadd.CarriedUses[4]; still {
		t.Error("rewritten consumer still declares a carried use of v4")
	}
	// Clones share CarriedUses maps: the splice must have replaced the
	// clone's, leaving the source still reading v4 two iterations back.
	for what, in := range map[string]*Instruction{"source graph": g.Loop.Instrs[1], "source loop": l.Instrs[1]} {
		if d, ok := in.CarriedUses[4]; !ok || d != 2 || len(in.CarriedUses) != 1 {
			t.Errorf("splicing a clone changed the %s's carried uses: %v", what, in.CarriedUses)
		}
	}
	reload := sp.OldToNew[1] - 1
	e := findEdge(sg, sp.StoreID, reload, DepMem)
	if e == nil {
		t.Fatal("missing store->reload memory edge for carried consumer")
	}
	if e.Distance != 2 {
		t.Errorf("carried consumer's mem edge distance = %d, want 2", e.Distance)
	}
}

func TestMaterializeSpillSelfRecurrence(t *testing.T) {
	m := machine.Unified()
	l := DotProduct()
	g, err := Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// v4 is the accumulator: defined by the fadd (id 3) and consumed by
	// itself one iteration later. Both the reload (before) and the store
	// (after) must materialise around the same instruction.
	sg := g.Clone()
	sp, err := sg.SpliceSpill(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.Loop.Validate(); err != nil {
		t.Fatalf("augmented loop invalid: %v", err)
	}
	newID := sp.OldToNew[3]
	if len(sp.ReloadIDs) != 1 || sp.ReloadIDs[0] != newID-1 || sp.StoreID != newID+1 {
		t.Errorf("self-recurrence spill: reloads=%v store=%d around %d", sp.ReloadIDs, sp.StoreID, newID)
	}
	if e := findEdge(sg, sp.StoreID, sp.ReloadIDs[0], DepMem); e == nil || e.Distance != 1 {
		t.Errorf("self-recurrence mem edge = %+v, want distance 1", e)
	}
}

func TestMaterializeSpillPreservesMemEdges(t *testing.T) {
	m := machine.Unified()
	l := FIR()
	g, err := Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A caller-provided store->load ordering edge must survive the
	// rewrite with remapped endpoints.
	if err := g.AddEdge(Edge{From: 11, To: 0, Kind: DepMem, Distance: 1, Latency: 1}); err != nil {
		t.Fatal(err)
	}
	sg := g.Clone()
	sp, err := sg.SpliceSpill(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e := findEdge(sg, sp.OldToNew[11], sp.OldToNew[0], DepMem); e == nil || e.Distance != 1 {
		t.Errorf("caller mem edge not carried over: %+v", e)
	}
}

func TestMaterializeSpillErrors(t *testing.T) {
	m := machine.Unified()
	l := DotProduct()
	g, err := Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.SpliceSpill(6, 0); err == nil {
		t.Error("spilling a register the instruction does not define succeeded")
	}
	if _, err := g.SpliceSpill(99, 0); err == nil {
		t.Error("spilling an out-of-range instruction succeeded")
	}
}

func TestMaterializeLiveInSpill(t *testing.T) {
	m := machine.Unified()
	l := FIR() // coefficients v1..v4 are live-in
	g, err := Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	sg := g.Clone()
	sp, err := sg.SpliceLiveInSpill(1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.StoreID != -1 {
		t.Errorf("live-in spill has a store (%d); the preheader owns the slot", sp.StoreID)
	}
	if len(sp.ReloadIDs) != 1 {
		t.Fatalf("reloads = %v, want one (v1 has one consumer)", sp.ReloadIDs)
	}
	if err := sg.Loop.Validate(); err != nil {
		t.Fatalf("augmented loop invalid: %v", err)
	}
	// v1 must no longer be read anywhere.
	for _, in := range sg.Loop.Instrs {
		for _, u := range in.Uses {
			if u == 1 {
				t.Errorf("instruction %d still reads spilled live-in v1", in.ID)
			}
		}
	}
	// Spilling a defined register through the live-in path must fail.
	if _, err := g.SpliceLiveInSpill(5); err == nil {
		t.Error("live-in spill of a defined register succeeded")
	}
	if _, err := g.SpliceLiveInSpill(99); err == nil {
		t.Error("live-in spill of an unused register succeeded")
	}
}

// TestSpilledLoopSchedules closes the loop: a spill-augmented body must
// still build, bound and schedule end to end.
func TestSpilledLoopSchedules(t *testing.T) {
	m := machine.Unified()
	l := DotProduct()
	g, err := Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	sg := g.Clone()
	if _, err := sg.SpliceSpill(2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sg.IntraTopoOrder(); err != nil {
		t.Fatalf("augmented graph has an intra-iteration cycle: %v", err)
	}
}
