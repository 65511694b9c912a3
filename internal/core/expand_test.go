package core

import (
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// TestCompileExpandsEveryResult: the facade always attaches a validated
// expanded kernel, and the summary reports the unroll factor.
func TestCompileExpandsEveryResult(t *testing.T) {
	for _, be := range Backends() {
		for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
			for _, l := range ir.ExampleLoops() {
				r, err := CompileWith(be, l, m)
				if err != nil {
					continue // the baseline may fail on the tight machine; covered elsewhere
				}
				if r.Expanded == nil {
					t.Fatalf("%s/%s/%s: Result.Expanded missing", be.Name(), m.Name, l.Name)
				}
				if err := r.Expanded.Validate(); err != nil {
					t.Errorf("%s/%s/%s: expanded kernel invalid: %v", be.Name(), m.Name, l.Name, err)
				}
				if s := r.Summary(); !strings.Contains(s, "unroll=") {
					t.Errorf("Summary = %q, want the unroll factor", s)
				}
			}
		}
	}
}

// TestMVEOnHighPressureLoops is the modulo-variable-expansion acceptance
// criterion: on fir8 and hydro on the unified machine, scheduling
// against a renaming-relaxed dependence graph yields a validated
// expanded kernel whose unroll factor exceeds 1 — some value provably
// outlives its own register's redefinition in the unexpanded frame
// (lifetime > II), and the expansion absorbs that overlap into renamed
// copies, so the wrap-around redefinition constraint is absent from the
// expanded form (ExpandedKernel.Validate's per-copy definition-event
// scan passes). The relaxed II must never exceed the strict one: the
// penalty was a modelling artifact, not a resource.
func TestMVEOnHighPressureLoops(t *testing.T) {
	m := machine.Unified()
	for _, l := range []*ir.Loop{ir.FIR8(), ir.Hydro()} {
		t.Run(l.Name, func(t *testing.T) {
			strict, err := CompileWith(mirs.New(), l, m)
			if err != nil {
				t.Fatalf("strict compile: %v", err)
			}
			relaxed, err := ir.Build(l, m, &ir.BuildOptions{OutputLatency: 1, RenameCopies: 3})
			if err != nil {
				t.Fatal(err)
			}
			out, err := mirs.New().Schedule(&sched.Request{Loop: l, Machine: m, Graph: relaxed})
			if err != nil {
				t.Fatalf("relaxed schedule: %v", err)
			}
			ek, err := out.Expand()
			if err != nil {
				t.Fatalf("Expand: %v", err)
			}
			if out.II > strict.Schedule.II {
				t.Errorf("relaxed II=%d worse than strict II=%d", out.II, strict.Schedule.II)
			}
			if ek.Unroll <= 1 {
				t.Fatalf("unroll = %d, want > 1 (no lifetime outlived its II window)", ek.Unroll)
			}
			// The unexpanded wrap-around constraint is genuinely broken
			// here: some register's lifetime exceeds II...
			overlap := false
			for _, c := range ek.Copies {
				if c > 1 {
					overlap = true
				}
			}
			if !overlap {
				t.Fatal("unroll > 1 but no register needs more than one copy")
			}
			// ...and the expanded form is free of it.
			if err := ek.Validate(); err != nil {
				t.Errorf("expanded kernel invalid: %v", err)
			}
		})
	}
}

// TestRelaxedGraphSurvivesSpilling: integrated spilling must keep the
// renaming relaxation the request graph was built with. On the
// register-starved machine MIRS spills heavily, and every spill rewrites
// the graph; the register edges of the returned graph must be exactly
// what the relaxed options derive for the returned loop (memory edges
// aside), and every schedule must still expand and execute clean. A
// spill that re-derived strict edges would both over-constrain the
// schedule and, at worst, fail validation mid-search.
func TestRelaxedGraphSurvivesSpilling(t *testing.T) {
	m := machine.Tight()
	relaxed := &ir.BuildOptions{OutputLatency: 1, RenameCopies: 3}
	spilled := 0
	for _, l := range append(ir.ExampleLoops(), gen.Corpus(1, 120)...) {
		g, err := ir.Build(l, m, relaxed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := mirs.New().Schedule(&sched.Request{Loop: l, Machine: m, Graph: g})
		if err != nil {
			t.Errorf("%s: %v", l.Name, err)
			continue
		}
		if out.Stats["spill_stores"]+out.Stats["spill_loads"] > 0 {
			spilled++
		}
		want, err := ir.Build(out.Loop, m, relaxed)
		if err != nil {
			t.Fatalf("%s: rebuilding the returned loop: %v", l.Name, err)
		}
		var got []ir.Edge
		for _, e := range out.Graph.Edges {
			if e.Kind != ir.DepMem {
				got = append(got, e)
			}
		}
		if !slices.Equal(got, want.Edges) {
			t.Errorf("%s: returned graph's register edges differ from the relaxed build of its loop", l.Name)
			continue
		}
		ek, err := out.Expand()
		if err != nil {
			t.Errorf("%s: Expand: %v", l.Name, err)
			continue
		}
		rep, err := vm.Verify(ek, vm.Options{})
		if err != nil {
			t.Errorf("%s: Verify: %v", l.Name, err)
			continue
		}
		if !rep.OK() {
			t.Errorf("%s: execution mismatch: %s", l.Name, rep)
		}
	}
	if spilled == 0 {
		t.Fatal("no loop spilled; the population no longer covers the spill path")
	}
}

// TestMVERemovesRecurrencePenalty pins the II win end to end through
// real machine configs: LongChain is recurrence-bound at II=3 by the
// wrap-around anti edges alone, and MIRS against the relaxed graph
// reaches the resource bound II=1 by unrolling the kernel.
func TestMVERemovesRecurrencePenalty(t *testing.T) {
	m := machine.Unified()
	l := ir.LongChain()
	strict, err := CompileWith(mirs.New(), l, m)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Schedule.II != 3 {
		t.Fatalf("strict II = %d, want 3 (wrap-around recurrence)", strict.Schedule.II)
	}
	relaxed, err := ir.Build(l, m, &ir.BuildOptions{OutputLatency: 1, RenameCopies: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mirs.New().Schedule(&sched.Request{Loop: l, Machine: m, Graph: relaxed})
	if err != nil {
		t.Fatal(err)
	}
	if out.II != 1 {
		t.Errorf("relaxed II = %d, want the resource bound 1", out.II)
	}
	ek, err := out.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if ek.Unroll < 2 {
		t.Errorf("unroll = %d, want >= 2: the II was bought with kernel size", ek.Unroll)
	}
}
