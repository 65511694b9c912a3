package sched

import (
	"sort"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// narrow returns a 1-ALU, 1-mem, 1-mul, 1-branch machine so resource
// bounds bite quickly.
func narrow() *machine.Machine {
	return machine.NewBuilder("narrow").
		Latency(machine.ClassALU, 1).
		Latency(machine.ClassMul, 2).
		Latency(machine.ClassMem, 2).
		Latency(machine.ClassBranch, 1).
		Cluster("c0", 32,
			machine.FU("alu", machine.ClassALU),
			machine.FU("mul", machine.ClassMul),
			machine.FU("mem", machine.ClassMem),
			machine.FU("br", machine.ClassBranch)).
		MustBuild()
}

func buildGraph(t *testing.T, l *ir.Loop, m *machine.Machine) *ir.Graph {
	t.Helper()
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatalf("Build(%s): %v", l.Name, err)
	}
	return g
}

func TestComputeMIITableDriven(t *testing.T) {
	cases := []struct {
		name        string
		loop        *ir.Loop
		mach        *machine.Machine
		wantRes     int
		wantRec     int
		wantMII     int
		wantCritSCC []int // nil = don't care / acyclic
	}{
		{
			// 3 ALU ops on 1 ALU: ResMII-bound at 3. (RecMII is 2: a
			// latency-2 load plus the wrap-around anti edge on its
			// address register needs II >= 2 without rotating registers.)
			name: "dotprod resource-bound on narrow",
			loop: ir.DotProduct(), mach: narrow(),
			wantRes: 3, wantRec: 2, wantMII: 3,
		},
		{
			// Wide unified machine: resources are free (ResMII = 1) and
			// the load-latency/anti cycle sets MII = RecMII = 2.
			name: "dotprod on unified",
			loop: ir.DotProduct(), mach: machine.Unified(),
			wantRes: 1, wantRec: 2, wantMII: 2,
		},
		{
			// 5 memory ops on 2 ports: ResMII = ceil(5/2) = 3 dominates
			// the latency-2 anti cycles (RecMII = 2).
			name: "fir resource-bound on unified",
			loop: ir.FIR(), mach: machine.Unified(),
			wantRes: 3, wantRec: 2, wantMII: 3,
		},
		{
			// Recurrence x[i] = z[i]*(y + x[i-2]): latency 3 over
			// distance 2 gives RecMII = ceil(3/2) = 2 > ResMII = 1. The
			// wrap-around anti edges stitch the whole body into one SCC.
			name: "livermore recurrence-bound on unified",
			loop: ir.Livermore(), mach: machine.Unified(),
			wantRes: 1, wantRec: 2, wantMII: 2, wantCritSCC: []int{0, 1, 2, 3, 4, 5, 6},
		},
		{
			// Degenerate single-instruction loop: every component is 1.
			name: "single instruction",
			loop: ir.SingleInstruction(), mach: machine.Unified(),
			wantRes: 1, wantRec: 1, wantMII: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGraph(t, tc.loop, tc.mach)
			got, err := ComputeMII(g, tc.mach)
			if err != nil {
				t.Fatalf("ComputeMII: %v", err)
			}
			if got.Res != tc.wantRes {
				t.Errorf("ResMII = %d, want %d", got.Res, tc.wantRes)
			}
			if got.Rec != tc.wantRec {
				t.Errorf("RecMII = %d, want %d", got.Rec, tc.wantRec)
			}
			if got.MII != tc.wantMII {
				t.Errorf("MII = %d, want %d", got.MII, tc.wantMII)
			}
			if got.MII != max(got.Res, got.Rec)+got.Lift {
				t.Errorf("MII = %d != max(Res=%d, Rec=%d) + Lift %d", got.MII, got.Res, got.Rec, got.Lift)
			}
			if tc.wantCritSCC != nil {
				gotSCC := append([]int(nil), got.CriticalSCC...)
				sort.Ints(gotSCC)
				if len(gotSCC) != len(tc.wantCritSCC) {
					t.Fatalf("CriticalSCC = %v, want %v", gotSCC, tc.wantCritSCC)
				}
				for i := range gotSCC {
					if gotSCC[i] != tc.wantCritSCC[i] {
						t.Fatalf("CriticalSCC = %v, want %v", gotSCC, tc.wantCritSCC)
					}
				}
			}
		})
	}
}

func TestRecMIIDeepRecurrence(t *testing.T) {
	// A hand-built distance-3 recurrence: fmul(2) -> fmul(2) -> load,
	// whose carried edge closes the cycle with the load's latency (2),
	// so total latency 6 over distance 3: RecMII = ceil(6/3) = 2.
	m := machine.Unified()
	l := &ir.Loop{Name: "deep", Instrs: []*ir.Instruction{
		{ID: 0, Op: "fmul", Class: machine.ClassMul, Defs: []ir.VReg{1}, Uses: []ir.VReg{0},
			CarriedUses: map[ir.VReg]int{0: 3}},
		{ID: 1, Op: "fmul", Class: machine.ClassMul, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
		{ID: 2, Op: "load", Class: machine.ClassMem, Defs: []ir.VReg{0}, Uses: []ir.VReg{2}},
	}}
	g := buildGraph(t, l, m)
	rec, scc, err := RecMII(g)
	if err != nil {
		t.Fatalf("RecMII: %v", err)
	}
	if rec != 2 {
		t.Errorf("RecMII = %d, want 2", rec)
	}
	sort.Ints(scc)
	if len(scc) != 3 {
		t.Errorf("critical SCC = %v, want all three nodes", scc)
	}
}

func TestResMIIUnsupportedClass(t *testing.T) {
	l := &ir.Loop{Name: "fp", Instrs: []*ir.Instruction{
		{ID: 0, Op: "sqrt", Class: machine.OpClass("fpu"), Defs: []ir.VReg{0}},
	}}
	if _, err := ResMII(l, machine.Unified()); err == nil {
		t.Error("ResMII accepted a class the machine cannot execute")
	}
}

// TestFrontEndAllocs pins the allocations of the per-loop front end as
// constants on every loop of gen.Corpus(1, 240) and every canned
// machine: ir.Build makes 6 (the graph, its site table, its edge array,
// and the adjacency rows, their backing and their degree counts) and
// ComputeMII one — RecMII's scratch; ResMII's table stays on the stack —
// plus one for the critical component when there is one. Nothing is
// allocated per register, edge or component. The list scheduler's
// placementOrder, run once per request, makes 2: Heights' one array and
// the order it returns.
func TestFrontEndAllocs(t *testing.T) {
	const buildAllocs, miiAllocs, orderAllocs = 6, 1, 2
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, l := range gen.Corpus(1, 240) {
			var g *ir.Graph
			build := testing.AllocsPerRun(10, func() {
				var err error
				if g, err = ir.Build(l, m, nil); err != nil {
					t.Fatal(err)
				}
			})
			var mii MII
			allocs := testing.AllocsPerRun(10, func() {
				var err error
				if mii, err = ComputeMII(g, m); err != nil {
					t.Fatal(err)
				}
			})
			if mii.CriticalSCC != nil {
				allocs--
			}
			order := testing.AllocsPerRun(10, func() {
				if _, err := placementOrder(g); err != nil {
					t.Fatal(err)
				}
			})
			if build != buildAllocs || allocs != miiAllocs || order != orderAllocs {
				t.Fatalf("%s on %s: Build %.0f allocs, ComputeMII %.0f without the critical component, placementOrder %.0f; want %d, %d and %d",
					l.Name, m.Name, build, allocs, order, buildAllocs, miiAllocs, orderAllocs)
			}
		}
	}
}

// BenchmarkFrontEnd times the per-loop front end every compilation runs
// before scheduling — ir.Build and ComputeMII — over gen.Corpus(1, 240)
// on each canned machine; one op is one pass over the corpus. Run with
// -benchmem: TestFrontEndAllocs pins the per-loop allocation counts.
func BenchmarkFrontEnd(b *testing.B) {
	loops := gen.Corpus(1, 240)
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, l := range loops {
					g, err := ir.Build(l, m, nil)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := ComputeMII(g, m); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
