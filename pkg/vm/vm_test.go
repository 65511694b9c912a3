package vm_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

func backends() []sched.Scheduler { return []sched.Scheduler{sched.ListScheduler{}, mirs.New()} }

func machines() []*machine.Machine {
	return []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()}
}

func compile(t *testing.T, be sched.Scheduler, l *ir.Loop, m *machine.Machine) (*sched.ExpandedKernel, *emit.Program) {
	t.Helper()
	return compileOpts(t, be, l, m, nil)
}

// compileOpts is compile against the dependence graph ir.Build derives
// under opts; nil is the strict default graph.
func compileOpts(t *testing.T, be sched.Scheduler, l *ir.Loop, m *machine.Machine, opts *ir.BuildOptions) (*sched.ExpandedKernel, *emit.Program) {
	t.Helper()
	g, err := ir.Build(l, m, opts)
	if err != nil {
		t.Fatalf("Build(%s on %s): %v", l.Name, m.Name, err)
	}
	s, err := be.Schedule(&sched.Request{Loop: l, Machine: m, Graph: g})
	if err != nil {
		t.Fatalf("Schedule(%s on %s by %s): %v", l.Name, m.Name, be.Name(), err)
	}
	ek, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand(%s): %v", l.Name, err)
	}
	prog, err := emit.Emit(ek)
	if err != nil {
		t.Fatalf("Emit(%s): %v", l.Name, err)
	}
	return ek, prog
}

// TestDifferentialExamples is the oracle over the whole hand-written
// corpus: for every loop x machine x backend, the emitted MVE program
// and the predicated kernel must execute to the same final memory and
// live-out registers as the sequential reference — including the
// spill-heavy compilations on the tight machine, where correctness
// additionally covers the synthesised spill code. Each compilation also
// runs against the renaming-relaxed graph (subtests under relaxed/),
// where values outlive their register's redefinition, copy counts
// exceed 1 and a use's reaching distance decides which renamed copy it
// reads; the strict graph alone leaves that distance unexercised.
func TestDifferentialExamples(t *testing.T) {
	relaxed := &ir.BuildOptions{OutputLatency: 1, RenameCopies: 3}
	for _, graph := range []struct {
		prefix string
		opts   *ir.BuildOptions
	}{{"", nil}, {"relaxed/", relaxed}} {
		for _, be := range backends() {
			for _, m := range machines() {
				for _, l := range ir.ExampleLoops() {
					t.Run(graph.prefix+be.Name()+"/"+m.Name+"/"+l.Name, func(t *testing.T) {
						ek, prog := compileOpts(t, be, l, m, graph.opts)
						rep, err := vm.VerifyProgram(ek, prog, vm.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if !rep.OK() {
							t.Fatalf("differential mismatch:\n%s", rep.String())
						}
						if rep.MVECycles >= rep.SeqCycles && l.NumInstrs() > 1 && prog.Trip > prog.Stages {
							t.Errorf("pipelined execution (%d cyc) not faster than sequential (%d cyc)",
								rep.MVECycles, rep.SeqCycles)
						}
					})
				}
			}
		}
	}
}

// runAll executes every plan the oracle covers and returns a canonical
// byte serialisation of the results, for metamorphic comparisons.
func runAll(t *testing.T, ek *sched.ExpandedKernel, prog *emit.Program, seed uint64) []byte {
	t.Helper()
	sem, err := vm.Bind(ek, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, run := range []struct {
		mode vm.Mode
		trip int
	}{
		{vm.ModeMVE, prog.Trip},
		{vm.ModePredicated, 1},
		{vm.ModePredicated, prog.Trip + 3},
	} {
		st, err := vm.RunProgram(sem, prog, run.mode, run.trip)
		if err != nil {
			t.Fatalf("%s@%d: %v", run.mode, run.trip, err)
		}
		fmt.Fprintf(&buf, "%s@%d trip=%d\n", run.mode, run.trip, st.Trip)
		buf.Write(st.Mem)
		for _, v := range sortedRegs(st.RegFinal) {
			fmt.Fprintf(&buf, "%s=%d\n", v, st.RegFinal[v])
		}
	}
	return buf.Bytes()
}

func sortedRegs(m map[ir.VReg]uint64) []ir.VReg {
	out := make([]ir.VReg, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestMetamorphicRelabel: loop and mnemonic names are labels, not
// semantics — renaming the loop and every (non-spill) opcode mnemonic
// and recompiling must execute to byte-identical final states, because
// the oracle keys operation behaviour on class, ordinal and dataflow
// only.
func TestMetamorphicRelabel(t *testing.T) {
	for _, name := range []string{"fir8", "hydro", "copy3"} {
		l := exampleLoop(t, name)
		m := machine.Tight()
		ek, prog := compile(t, mirs.New(), l, m)
		base := runAll(t, ek, prog, vm.DefaultSeed)

		renamed := &ir.Loop{Name: "relabel-" + l.Name}
		for _, in := range l.Instrs {
			cp := *in
			cp.Op = "x_" + in.Op
			renamed.Instrs = append(renamed.Instrs, &cp)
		}
		ek2, prog2 := compile(t, mirs.New(), renamed, m)
		got := runAll(t, ek2, prog2, vm.DefaultSeed)
		if !bytes.Equal(base, got) {
			t.Errorf("%s: relabelled compilation executes differently", name)
		}
	}
}

// TestMetamorphicBundleOrder: ops within one bundle issue in the same
// cycle, so permuting their order inside each bundle must not change
// execution — operands are read at issue, writebacks are ordered by
// (issue cycle, location ownership), never by slot position.
func TestMetamorphicBundleOrder(t *testing.T) {
	for _, name := range []string{"fir8", "hydro", "copy3"} {
		l := exampleLoop(t, name)
		m := machine.Tight()
		ek, prog := compile(t, mirs.New(), l, m)
		base := runAll(t, ek, prog, vm.DefaultSeed)

		reverse := func(bs []emit.Bundle) {
			for bi := range bs {
				ops := bs[bi].Ops
				for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
					ops[i], ops[j] = ops[j], ops[i]
				}
			}
		}
		reverse(prog.Prologue)
		reverse(prog.Kernel)
		reverse(prog.Epilogue)
		got := runAll(t, ek, prog, vm.DefaultSeed)
		if !bytes.Equal(base, got) {
			t.Errorf("%s: permuting same-cycle bundle slots changed execution", name)
		}
	}
}

// TestMetamorphicClusterRotation: the paper's 4-cluster machine is
// symmetric, so rotating every placement's cluster label by one is
// still a valid schedule and must execute identically — cluster labels
// carry no semantics beyond resource partitioning.
func TestMetamorphicClusterRotation(t *testing.T) {
	m := machine.Paper4Cluster()
	nc := m.NumClusters()
	for _, name := range []string{"fir8", "dotprod", "livermore"} {
		l := exampleLoop(t, name)
		be := mirs.New()
		s, err := be.Schedule(&sched.Request{Loop: l, Machine: m})
		if err != nil {
			t.Fatalf("Schedule(%s): %v", name, err)
		}
		ek, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := emit.Emit(ek)
		if err != nil {
			t.Fatal(err)
		}
		base := runAll(t, ek, prog, vm.DefaultSeed)

		for i := range s.Placements {
			s.Placements[i].Cluster = (s.Placements[i].Cluster + 1) % nc
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: rotated schedule invalid: %v", name, err)
		}
		ek2, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		prog2, err := emit.Emit(ek2)
		if err != nil {
			t.Fatal(err)
		}
		got := runAll(t, ek2, prog2, vm.DefaultSeed)
		if !bytes.Equal(base, got) {
			t.Errorf("%s: rotating cluster labels changed execution", name)
		}
	}
}

// TestExecutionDeterminism: the oracle is a pure function of (kernel,
// seed) — same seed twice is byte-identical, a different seed is not
// (the semantics actually depend on it).
func TestExecutionDeterminism(t *testing.T) {
	l := exampleLoop(t, "hydro")
	ek, prog := compile(t, mirs.New(), l, machine.Tight())
	a := runAll(t, ek, prog, vm.DefaultSeed)
	b := runAll(t, ek, prog, vm.DefaultSeed)
	if !bytes.Equal(a, b) {
		t.Error("same seed, different execution")
	}
	c := runAll(t, ek, prog, vm.DefaultSeed+1)
	if bytes.Equal(a, c) {
		t.Error("different seed, identical execution — semantics ignore the seed")
	}
}

// TestRunRejectsNonPositiveDelay: a latency or transfer delay below 1
// would commit into a cycle whose writebacks were already applied, so
// RunProgram must refuse the program up front and name the op — under
// both plans — rather than run it. (Such a commit was once queued for a
// cycle that never drained again, and the run never ended.)
func TestRunRejectsNonPositiveDelay(t *testing.T) {
	ek, prog := compile(t, mirs.New(), exampleLoop(t, "fir8"), machine.Paper4Cluster())
	sem, err := vm.Bind(ek, vm.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var op *emit.Op
	for bi := range prog.Kernel {
		for oi := range prog.Kernel[bi].Ops {
			if o := &prog.Kernel[bi].Ops[oi]; op == nil && len(o.Xfers) > 0 {
				op = o
			}
		}
	}
	if op == nil {
		t.Fatal("fir8 on paper-4cluster has no kernel op with a bus transfer")
	}
	for _, tc := range []struct {
		name  string
		field *int
	}{
		{"latency", &op.Latency},
		{"transfer delay", &op.Xfers[0].Delay},
	} {
		saved := *tc.field
		*tc.field = 0
		want := fmt.Sprintf("vm: run: op %d has %s 0", op.ID, tc.name)
		for _, mode := range []vm.Mode{vm.ModeMVE, vm.ModePredicated} {
			done := make(chan error, 1)
			go func() {
				_, err := vm.RunProgram(sem, prog, mode, prog.Trip)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s 0, %s plan: err = %v, want %q", tc.name, mode, err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s 0, %s plan: RunProgram still running after 10s", tc.name, mode)
			}
		}
		*tc.field = saved
	}
}

// TestRunProgramAllocsIndependentOfTrip: the machine state is allocated
// before the first cycle and the writeback buckets are reused, so a
// predicated run allocates the same at trip 512 as at Trip+1 — nothing
// per cycle, nothing per operation.
func TestRunProgramAllocsIndependentOfTrip(t *testing.T) {
	for _, be := range backends() {
		for _, m := range machines() {
			for _, l := range ir.ExampleLoops() {
				ek, prog := compile(t, be, l, m)
				sem, err := vm.Bind(ek, vm.DefaultSeed)
				if err != nil {
					t.Fatal(err)
				}
				allocs := func(trip int) float64 {
					return testing.AllocsPerRun(5, func() {
						if _, err := vm.RunProgram(sem, prog, vm.ModePredicated, trip); err != nil {
							t.Fatal(err)
						}
					})
				}
				if short, long := allocs(prog.Trip+1), allocs(512); long != short {
					t.Errorf("%s on %s by %s: %v allocs at trip 512, %v at trip %d",
						l.Name, m.Name, be.Name(), long, short, prog.Trip+1)
				}
			}
		}
	}
}

// TestTripLimit: every entry point refuses a trip above vm.MaxTrip with
// ErrTripLimit, at once — a run's work grows with its trip, so 2^62
// used to run for as long as the caller waited — and MaxTrip leaves room
// for the longest trips the benchmark and the gate run (512).
func TestTripLimit(t *testing.T) {
	if vm.MaxTrip < 512 {
		t.Fatalf("MaxTrip = %d, want at least 512", vm.MaxTrip)
	}
	ek, prog := compile(t, mirs.New(), exampleLoop(t, "fir8"), machine.Paper4Cluster())
	sem, err := vm.Bind(ek, vm.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, trip := range []int{vm.MaxTrip + 1, 1 << 62} {
		runs := map[string]func() error{
			"RunSequential": func() error { _, err := vm.RunSequential(sem, trip); return err },
			"RunProgram": func() error {
				_, err := vm.RunProgram(sem, prog, vm.ModePredicated, trip)
				return err
			},
			"VerifyProgram": func() error {
				_, err := vm.VerifyProgram(ek, prog, vm.Options{PredTrips: []int{prog.Stages, trip}})
				return err
			},
		}
		for name, run := range runs {
			done := make(chan error, 1)
			go func() { done <- run() }()
			select {
			case err := <-done:
				if !errors.Is(err, vm.ErrTripLimit) {
					t.Errorf("%s at trip %d: err = %v, want ErrTripLimit", name, trip, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s at trip %d still running after 10s", name, trip)
			}
		}
	}
	if _, err := vm.RunSequential(sem, 512); err != nil {
		t.Errorf("RunSequential at trip 512: %v", err)
	}
}

func exampleLoop(t *testing.T, name string) *ir.Loop {
	t.Helper()
	for _, l := range ir.ExampleLoops() {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("no example loop %q", name)
	return nil
}
