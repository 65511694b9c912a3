package ir

import (
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/machine"
)

func mustBuild(t *testing.T, l *Loop) *Graph {
	t.Helper()
	g, err := Build(l, machine.Unified(), nil)
	if err != nil {
		t.Fatalf("Build(%s): %v", l.Name, err)
	}
	return g
}

// findEdge returns the first edge from->to of the given kind, or nil.
func findEdge(g *Graph, from, to int, kind DepKind) *Edge {
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.From == from && e.To == to && e.Kind == kind {
			return e
		}
	}
	return nil
}

func TestExampleLoopsValidate(t *testing.T) {
	for _, l := range ExampleLoops() {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

func TestDotProductEdges(t *testing.T) {
	g := mustBuild(t, DotProduct())

	// Load result feeds the multiply intra-iteration with memory latency.
	e := findEdge(g, 0, 2, DepTrue)
	if e == nil {
		t.Fatal("missing true edge load(0) -> fmul(2)")
	}
	if e.Distance != 0 || e.Latency != 2 {
		t.Errorf("load->fmul edge = dist %d lat %d, want dist 0 lat 2", e.Distance, e.Latency)
	}

	// The accumulator is a distance-1 self recurrence on the fadd.
	e = findEdge(g, 3, 3, DepTrue)
	if e == nil {
		t.Fatal("missing self true edge on accumulator fadd(3)")
	}
	if e.Distance != 1 || e.Latency != 1 {
		t.Errorf("accumulator edge = dist %d lat %d, want dist 1 lat 1", e.Distance, e.Latency)
	}

	// The address update defines v0 used by load(0) next iteration.
	e = findEdge(g, 4, 0, DepTrue)
	if e == nil {
		t.Fatal("missing loop-carried true edge add(4) -> load(0)")
	}
	if e.Distance != 1 {
		t.Errorf("add->load distance = %d, want 1", e.Distance)
	}

	// The load must read v0 before the add clobbers it: anti, same iter.
	e = findEdge(g, 0, 4, DepAnti)
	if e == nil {
		t.Fatal("missing anti edge load(0) -> add(4)")
	}
	if e.Distance != 0 || e.Latency != 0 {
		t.Errorf("anti edge = dist %d lat %d, want dist 0 lat 0", e.Distance, e.Latency)
	}

	// Single def per register still yields the wrap-around output edge.
	e = findEdge(g, 4, 4, DepOutput)
	if e == nil {
		t.Fatal("missing wrap-around output edge add(4) -> add(4)")
	}
	if e.Distance != 1 {
		t.Errorf("output edge distance = %d, want 1", e.Distance)
	}
}

func TestLivermoreCarriedDistanceTwo(t *testing.T) {
	g := mustBuild(t, Livermore())
	e := findEdge(g, 2, 1, DepTrue)
	if e == nil {
		t.Fatal("missing carried true edge fmul(2) -> fadd(1)")
	}
	if e.Distance != 2 {
		t.Errorf("carried distance = %d, want 2", e.Distance)
	}
	if e.Latency != 2 {
		t.Errorf("carried latency = %d, want mul latency 2", e.Latency)
	}
}

func TestMultipleDefsNearestSemantics(t *testing.T) {
	// v0 defined twice; the use between them reads the first def, the
	// output edge chains def(0) -> def(2), and the use after the second
	// def reads the second.
	l := &Loop{Name: "multidef", Instrs: []*Instruction{
		ins(0, "add", machine.ClassALU, []VReg{0}, nil),
		ins(1, "add", machine.ClassALU, []VReg{1}, []VReg{0}),
		ins(2, "add", machine.ClassALU, []VReg{0}, nil),
		ins(3, "add", machine.ClassALU, []VReg{2}, []VReg{0}),
	}}
	g := mustBuild(t, l)
	if e := findEdge(g, 0, 1, DepTrue); e == nil || e.Distance != 0 {
		t.Errorf("use(1) should read def(0) intra-iteration, got %+v", e)
	}
	if e := findEdge(g, 2, 3, DepTrue); e == nil || e.Distance != 0 {
		t.Errorf("use(3) should read def(2) intra-iteration, got %+v", e)
	}
	if e := findEdge(g, 0, 2, DepOutput); e == nil || e.Distance != 0 {
		t.Errorf("missing intra-iteration output edge def(0) -> def(2), got %+v", e)
	}
	if e := findEdge(g, 2, 0, DepOutput); e == nil || e.Distance != 1 {
		t.Errorf("missing wrap-around output edge def(2) -> def(0), got %+v", e)
	}
	// Anti: use(1) precedes the redefinition at 2.
	if e := findEdge(g, 1, 2, DepAnti); e == nil || e.Distance != 0 {
		t.Errorf("missing anti edge use(1) -> def(2), got %+v", e)
	}
}

func TestIntraTopoOrder(t *testing.T) {
	for _, l := range ExampleLoops() {
		g := mustBuild(t, l)
		order, err := g.IntraTopoOrder()
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if len(order) != l.NumInstrs() {
			t.Fatalf("%s: order has %d nodes, want %d", l.Name, len(order), l.NumInstrs())
		}
		pos := make(map[int]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges {
			if e.Distance == 0 && pos[e.From] > pos[e.To] {
				t.Errorf("%s: edge %d->%d violates topological order", l.Name, e.From, e.To)
			}
		}
	}
}

func TestAddEdgeRejectsBadEdges(t *testing.T) {
	g := mustBuild(t, SingleInstruction())
	for _, e := range []Edge{
		{From: -1, To: 0, Kind: DepMem},
		{From: 0, To: 5, Kind: DepMem},
		{From: 0, To: 0, Kind: DepMem, Distance: 0, Latency: 1},
		{From: 0, To: 0, Kind: DepMem, Distance: -1},
		{From: 0, To: 0, Kind: DepMem, Distance: 1, Latency: -2},
	} {
		if err := g.AddEdge(e); err == nil {
			t.Errorf("AddEdge(%+v) succeeded, want error", e)
		}
	}
	if err := g.AddEdge(Edge{From: 0, To: 0, Kind: DepMem, Distance: 1, Latency: 1}); err != nil {
		t.Errorf("AddEdge(valid mem edge): %v", err)
	}
}

func TestLoopValidateErrors(t *testing.T) {
	bad := &Loop{Name: "bad-id", Instrs: []*Instruction{
		ins(1, "add", machine.ClassALU, nil, nil),
	}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "has ID") {
		t.Errorf("want ID mismatch error, got %v", err)
	}
	noClass := &Loop{Name: "no-class", Instrs: []*Instruction{
		{ID: 0, Op: "add"},
	}}
	if err := noClass.Validate(); err == nil || !strings.Contains(err.Error(), "no op class") {
		t.Errorf("want class error, got %v", err)
	}
	carried := &Loop{Name: "bad-carry", Instrs: []*Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []VReg{0},
			Uses: []VReg{1}, CarriedUses: map[VReg]int{2: 1}},
	}}
	if err := carried.Validate(); err == nil || !strings.Contains(err.Error(), "does not use") {
		t.Errorf("want carried-use error, got %v", err)
	}
}

func TestInstructionString(t *testing.T) {
	l := Livermore()
	if got := l.Instrs[1].String(); got != "v3 = fadd v1, v4[-2]" {
		t.Errorf("String() = %q", got)
	}
	if got := l.Instrs[3].String(); got != "store v4, v5" {
		t.Errorf("String() = %q", got)
	}
}

// TestBuildRejectsNegativeRegister: registers index Build's site tables
// and every dense per-register table downstream, so a negative one is a
// named validation error, not an out-of-range panic.
func TestBuildRejectsNegativeRegister(t *testing.T) {
	for _, in := range []*Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []VReg{-1}},
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []VReg{0}, Uses: []VReg{1, -2}},
	} {
		_, err := Build(&Loop{Name: "neg", Instrs: []*Instruction{in}}, machine.Unified(), nil)
		if err == nil || !strings.Contains(err.Error(), "negative register") {
			t.Errorf("Build(%s): error %v, want a negative-register error", in, err)
		}
	}
}
