package ir_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// This file retains the original rebuild-per-spill path as a reference
// implementation and differentially tests the in-place splice against
// it: both sides apply identical seeded sequences of definition and
// live-in spills — over the example loops and generated corpora, on
// every canned machine, under strict and renaming-relaxed build options
// — and after every step the loops, the edge arrays, the adjacency views
// and the spill bookkeeping must agree exactly. The splice is a pure
// change of mechanism; any divergence is a bug.

// refSpill is what the reference produces: a fresh loop and graph plus
// the bookkeeping the splice returns in ir.Spill.
type refSpill struct {
	Loop       *ir.Loop
	Graph      *ir.Graph
	StoreID    int
	ReloadIDs  []int
	ReloadRegs []ir.VReg
	OldToNew   []int
}

// refMaterializeSpill is the rebuild path the splice replaced, preserved
// verbatim: it clones the loop with the store and reloads inserted,
// rebuilds the graph with ir.Build, and re-adds the memory edges.
func refMaterializeSpill(l *ir.Loop, m *machine.Machine, g *ir.Graph, defID int, reg ir.VReg, opts *ir.BuildOptions) (*refSpill, error) {
	if g == nil || g.Loop != l {
		return nil, fmt.Errorf("ir: spill of %s in loop %q: graph does not belong to the loop", reg, l.Name)
	}
	if defID < 0 || defID >= l.NumInstrs() {
		return nil, fmt.Errorf("ir: spill of %s: no instruction %d in loop %q", reg, defID, l.Name)
	}
	defines := false
	for _, d := range l.Instrs[defID].Defs {
		if d == reg {
			defines = true
		}
	}
	if !defines {
		return nil, fmt.Errorf("ir: spill: instruction %d of loop %q does not define %s", defID, l.Name, reg)
	}

	consumerDist := map[int]int{}
	var consumers []int
	for _, e := range g.Succs(defID) {
		if e.Kind != ir.DepTrue || e.Reg != reg {
			continue
		}
		if _, dup := consumerDist[e.To]; !dup {
			consumers = append(consumers, e.To)
		}
		consumerDist[e.To] = e.Distance
	}
	if len(consumers) == 0 {
		return nil, fmt.Errorf("ir: spill: definition of %s by instruction %d has no consumers", reg, defID)
	}

	nextReg := ir.VReg(0)
	for _, v := range l.VRegs() {
		if v >= nextReg {
			nextReg = v + 1
		}
	}

	sp := &refSpill{OldToNew: make([]int, l.NumInstrs())}
	out := &ir.Loop{Name: l.Name}
	emit := func(in *ir.Instruction) int {
		in.ID = len(out.Instrs)
		out.Instrs = append(out.Instrs, in)
		return in.ID
	}
	for oldID, in := range l.Instrs {
		if _, isConsumer := consumerDist[oldID]; isConsumer {
			r := nextReg
			nextReg++
			id := emit(&ir.Instruction{Op: ir.OpSpillReload, Class: machine.ClassMem, Defs: []ir.VReg{r}, SpillOf: reg})
			sp.ReloadIDs = append(sp.ReloadIDs, id)
			sp.ReloadRegs = append(sp.ReloadRegs, r)
			clone := *in
			clone.Uses = append([]ir.VReg(nil), in.Uses...)
			for i, u := range clone.Uses {
				if u == reg {
					clone.Uses[i] = r
				}
			}
			if _, carried := in.CarriedUses[reg]; carried {
				clone.CarriedUses = map[ir.VReg]int{}
				for v, d := range in.CarriedUses {
					if v != reg {
						clone.CarriedUses[v] = d
					}
				}
				if len(clone.CarriedUses) == 0 {
					clone.CarriedUses = nil
				}
			}
			sp.OldToNew[oldID] = emit(&clone)
		} else {
			clone := *in
			sp.OldToNew[oldID] = emit(&clone)
		}
		if oldID == defID {
			sp.StoreID = emit(&ir.Instruction{Op: ir.OpSpillStore, Class: machine.ClassMem, Uses: []ir.VReg{reg}})
		}
	}

	ng, err := ir.Build(out, m, opts)
	if err != nil {
		return nil, fmt.Errorf("ir: spill of %s (def %d) in loop %q: rebuild: %w", reg, defID, l.Name, err)
	}
	memLat := m.Latency(machine.ClassMem)
	for _, oldConsumer := range consumers {
		reloadID := sp.OldToNew[oldConsumer] - 1
		if err := ng.AddEdge(ir.Edge{From: sp.StoreID, To: reloadID, Kind: ir.DepMem,
			Distance: consumerDist[oldConsumer], Latency: memLat}); err != nil {
			return nil, err
		}
	}
	if err := refCarryMemEdges(ng, g, sp.OldToNew); err != nil {
		return nil, err
	}
	sp.Loop = out
	sp.Graph = ng
	return sp, nil
}

func refCarryMemEdges(dst *ir.Graph, src *ir.Graph, oldToNew []int) error {
	for _, e := range src.Edges {
		if e.Kind != ir.DepMem {
			continue
		}
		ne := e
		ne.From = oldToNew[e.From]
		ne.To = oldToNew[e.To]
		if err := dst.AddEdge(ne); err != nil {
			return err
		}
	}
	return nil
}

// refMaterializeLiveInSpill is the reference for SpliceLiveInSpill.
func refMaterializeLiveInSpill(l *ir.Loop, m *machine.Machine, g *ir.Graph, reg ir.VReg, opts *ir.BuildOptions) (*refSpill, error) {
	if g == nil || g.Loop != l {
		return nil, fmt.Errorf("ir: live-in spill of %s in loop %q: graph does not belong to the loop", reg, l.Name)
	}
	var consumers []int
	for id, in := range l.Instrs {
		for _, d := range in.Defs {
			if d == reg {
				return nil, fmt.Errorf("ir: live-in spill: %s is defined by instruction %d of loop %q", reg, id, l.Name)
			}
		}
		for _, u := range in.Uses {
			if u == reg {
				consumers = append(consumers, id)
				break
			}
		}
	}
	if len(consumers) == 0 {
		return nil, fmt.Errorf("ir: live-in spill: loop %q does not use %s", l.Name, reg)
	}

	nextReg := ir.VReg(0)
	for _, v := range l.VRegs() {
		if v >= nextReg {
			nextReg = v + 1
		}
	}
	isConsumer := map[int]bool{}
	for _, c := range consumers {
		isConsumer[c] = true
	}

	sp := &refSpill{StoreID: -1, OldToNew: make([]int, l.NumInstrs())}
	out := &ir.Loop{Name: l.Name}
	emit := func(in *ir.Instruction) int {
		in.ID = len(out.Instrs)
		out.Instrs = append(out.Instrs, in)
		return in.ID
	}
	for oldID, in := range l.Instrs {
		if !isConsumer[oldID] {
			clone := *in
			sp.OldToNew[oldID] = emit(&clone)
			continue
		}
		r := nextReg
		nextReg++
		id := emit(&ir.Instruction{Op: ir.OpSpillReload, Class: machine.ClassMem, Defs: []ir.VReg{r}, SpillOf: reg})
		sp.ReloadIDs = append(sp.ReloadIDs, id)
		sp.ReloadRegs = append(sp.ReloadRegs, r)
		clone := *in
		clone.Uses = append([]ir.VReg(nil), in.Uses...)
		for i, u := range clone.Uses {
			if u == reg {
				clone.Uses[i] = r
			}
		}
		sp.OldToNew[oldID] = emit(&clone)
	}
	ng, err := ir.Build(out, m, opts)
	if err != nil {
		return nil, fmt.Errorf("ir: live-in spill of %s in loop %q: rebuild: %w", reg, l.Name, err)
	}
	if err := refCarryMemEdges(ng, g, sp.OldToNew); err != nil {
		return nil, err
	}
	sp.Loop = out
	sp.Graph = ng
	return sp, nil
}

// spillPick is one step of a spill sequence: a definition spill (id >= 0)
// or a live-in spill (id == -1).
type spillPick struct {
	id  int
	reg ir.VReg
}

// picks lists the spills a step may choose from: every definition with a
// true consumer, every register read but never written, and a few
// rejected ones (a register the instruction does not define, an unused
// live-in, a defined register as a live-in) so the error paths run too.
func picks(g *ir.Graph) []spillPick {
	var out []spillPick
	defined := map[ir.VReg]bool{}
	for id, in := range g.Loop.Instrs {
		for _, d := range in.Defs {
			defined[d] = true
			for _, e := range g.Succs(id) {
				if e.Kind == ir.DepTrue && e.Reg == d {
					out = append(out, spillPick{id, d})
					break
				}
			}
		}
	}
	for _, v := range g.Loop.VRegs() {
		if !defined[v] {
			out = append(out, spillPick{-1, v})
		}
	}
	out = append(out, spillPick{0, 9999}, spillPick{-1, 9999})
	if len(g.Loop.Instrs[0].Defs) > 0 {
		out = append(out, spillPick{-1, g.Loop.Instrs[0].Defs[0]})
	}
	return out
}

// splitmix is the sequence PRNG (the generator's, restated so the test
// does not depend on pkg/gen internals).
type splitmix struct{ s uint64 }

func (p *splitmix) intn(n int) int {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// sameLoop requires two loops to agree instruction by instruction.
func sameLoop(t *testing.T, ctx string, got, want *ir.Loop) {
	t.Helper()
	if got.Name != want.Name || len(got.Instrs) != len(want.Instrs) {
		t.Fatalf("%s: loop %q with %d instrs, want %q with %d", ctx, got.Name, len(got.Instrs), want.Name, len(want.Instrs))
	}
	for i, a := range got.Instrs {
		b := want.Instrs[i]
		if a.ID != b.ID || a.Op != b.Op || a.Class != b.Class || a.SpillOf != b.SpillOf ||
			!slices.Equal(a.Defs, b.Defs) || !slices.Equal(a.Uses, b.Uses) ||
			(a.CarriedUses == nil) != (b.CarriedUses == nil) || !maps.Equal(a.CarriedUses, b.CarriedUses) {
			t.Fatalf("%s: instr %d = %+v, want %+v", ctx, i, *a, *b)
		}
	}
}

// sameGraph requires two graphs to agree on their loops, their edge
// arrays in order, and every node's Succs and Preds views in order.
func sameGraph(t *testing.T, ctx string, got, want *ir.Graph) {
	t.Helper()
	sameLoop(t, ctx, got.Loop, want.Loop)
	if !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("%s: edges differ\n got %v\nwant %v", ctx, got.Edges, want.Edges)
	}
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: %d nodes, want %d", ctx, got.NumNodes(), want.NumNodes())
	}
	view := func(es []*ir.Edge) []ir.Edge {
		out := make([]ir.Edge, len(es))
		for i, e := range es {
			out[i] = *e
		}
		return out
	}
	for v := 0; v < got.NumNodes(); v++ {
		if a, b := view(got.Succs(v)), view(want.Succs(v)); !slices.Equal(a, b) {
			t.Fatalf("%s: Succs(%d) = %v, want %v", ctx, v, a, b)
		}
		if a, b := view(got.Preds(v)), view(want.Preds(v)); !slices.Equal(a, b) {
			t.Fatalf("%s: Preds(%d) = %v, want %v", ctx, v, a, b)
		}
	}
}

// checkSpliceSequence applies steps seeded spills to l on m, spliced in
// place on one side and rebuilt on the other, and compares after each.
func checkSpliceSequence(t *testing.T, l *ir.Loop, m *machine.Machine, opts *ir.BuildOptions, seed uint64, steps int) {
	t.Helper()
	want, err := ir.Build(l, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A caller-provided memory edge must ride along, and a non-memory
	// one must be dropped, on both sides.
	if n := l.NumInstrs(); n > 1 {
		if err := want.AddEdge(ir.Edge{From: n - 1, To: 0, Kind: ir.DepMem, Distance: 1, Latency: 1}); err != nil {
			t.Fatal(err)
		}
		if err := want.AddEdge(ir.Edge{From: 0, To: n - 1, Kind: ir.DepTrue, Distance: 1, Latency: 1, Reg: 9999}); err != nil {
			t.Fatal(err)
		}
	}
	got := want.Clone()
	sameGraph(t, "clone", got, want)
	rng := &splitmix{seed}
	for step := 0; step < steps; step++ {
		cands := picks(want)
		p := cands[rng.intn(len(cands))]
		ctx := fmt.Sprintf("%s on %s, step %d, spill (%d, %s)", l.Name, m.Name, step, p.id, p.reg)
		var ref *refSpill
		var sp *ir.Spill
		var rerr, serr error
		before := got.Clone()
		if p.id < 0 {
			ref, rerr = refMaterializeLiveInSpill(want.Loop, m, want, p.reg, opts)
			sp, serr = got.SpliceLiveInSpill(p.reg)
		} else {
			ref, rerr = refMaterializeSpill(want.Loop, m, want, p.id, p.reg, opts)
			sp, serr = got.SpliceSpill(p.id, p.reg)
		}
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("%s: rebuild error %v, splice error %v", ctx, rerr, serr)
		}
		if serr != nil {
			// A rejected splice leaves the graph as it was.
			sameGraph(t, ctx+" (rejected)", got, before)
			if !reflect.DeepEqual(got.Loop, before.Loop) || !reflect.DeepEqual(got.Edges, before.Edges) {
				t.Fatalf("%s: rejected splice changed the graph", ctx)
			}
			continue
		}
		if sp.StoreID != ref.StoreID || !slices.Equal(sp.ReloadIDs, ref.ReloadIDs) ||
			!slices.Equal(sp.ReloadRegs, ref.ReloadRegs) || !slices.Equal(sp.OldToNew, ref.OldToNew) {
			t.Fatalf("%s: spill %+v, want store %d reloads %v regs %v map %v",
				ctx, *sp, ref.StoreID, ref.ReloadIDs, ref.ReloadRegs, ref.OldToNew)
		}
		want = ref.Graph
		sameGraph(t, ctx, got, want)
	}
}

var (
	canned  = []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()}
	relaxed = &ir.BuildOptions{AntiLatency: 1, OutputLatency: 1, RenameCopies: 3}
)

// TestSpliceMatchesRebuild is the differential guard over ExampleLoops
// and a generated corpus on the three canned machines.
func TestSpliceMatchesRebuild(t *testing.T) {
	loops := append(ir.ExampleLoops(), gen.Corpus(1, 60)...)
	for mi, m := range canned {
		for li, l := range loops {
			for oi, opts := range []*ir.BuildOptions{nil, relaxed} {
				checkSpliceSequence(t, l, m, opts, uint64(1000*mi+10*li+oi), 8)
			}
		}
	}
}

// TestSpliceLeavesSourceIntact pins Clone's contract: splicing a clone
// never reaches the graph or loop it was cloned from.
func TestSpliceLeavesSourceIntact(t *testing.T) {
	m := machine.Tight()
	l := ir.Livermore() // has carried uses, so CarriedUses maps are shared if the clone is shallow
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := g.Clone()
	c := g.Clone()
	rng := &splitmix{7}
	for step := 0; step < 6; step++ {
		cands := picks(c)
		p := cands[rng.intn(len(cands))]
		if p.id < 0 {
			_, _ = c.SpliceLiveInSpill(p.reg)
		} else {
			_, _ = c.SpliceSpill(p.id, p.reg)
		}
	}
	sameGraph(t, "source after splicing its clone", g, snapshot)
	if !reflect.DeepEqual(g.Loop, snapshot.Loop) {
		t.Fatal("source loop changed")
	}
}

// FuzzSpliceMatchesRebuild explores the differential property beyond the
// seeded table: a generated loop (its knob corner picked by the seed),
// a canned machine, strict or relaxed options and a spill sequence.
//
//	go test -run '^$' -fuzz FuzzSpliceMatchesRebuild ./pkg/ir/
func FuzzSpliceMatchesRebuild(f *testing.F) {
	for i := uint64(0); i < 8; i++ {
		f.Add(i*7919+1, uint8(i%3), i*104729+3)
	}
	corners := gen.Corners()
	f.Fuzz(func(t *testing.T, loopSeed uint64, machineIdx uint8, spillSeed uint64) {
		l := gen.Generate(loopSeed, corners[loopSeed%uint64(len(corners))])
		var opts *ir.BuildOptions
		if spillSeed&1 == 1 {
			opts = relaxed
		}
		checkSpliceSequence(t, l, canned[int(machineIdx)%len(canned)], opts, spillSeed, 10)
	})
}
