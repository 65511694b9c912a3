package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// TestExecAllBackendsAgree: every backend — the two registered ones
// plus the exact SAT scheduler — compiles to
// code that *executes* to the same observable state as the plain
// sequential semantics of the source loop, across machines. The
// reference is bound to the unscheduled loop (BindLoop), so it knows
// nothing about spilling, clustering or renaming; the comparison is
// over the observable prefix (source loads/stores) and the source
// registers' final values, which spill traffic must not disturb.
func TestExecAllBackendsAgree(t *testing.T) {
	const trip = 40
	backends := append(Backends(), Opt(0))
	for _, l := range []*ir.Loop{ir.DotProduct(), ir.Livermore(), ir.LongChain()} {
		g, err := ir.Build(l, machine.Unified(), nil)
		if err != nil {
			t.Fatal(err)
		}
		refSem, err := vm.BindLoop(l, g, vm.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := vm.RunSequential(refSem, trip)
		if err != nil {
			t.Fatal(err)
		}
		obs := ref.ObservableLen
		for _, m := range []*machine.Machine{machine.Unified(), machine.Tight()} {
			for _, be := range backends {
				t.Run(l.Name+"/"+m.Name+"/"+be.Name(), func(t *testing.T) {
					r, err := CompileWith(be, l, m)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					sem, err := vm.Bind(r.Expanded, vm.DefaultSeed)
					if err != nil {
						t.Fatal(err)
					}
					prog, err := emit.Emit(r.Expanded)
					if err != nil {
						t.Fatal(err)
					}
					st, err := vm.RunProgram(sem, prog, vm.ModePredicated, trip)
					if err != nil {
						t.Fatal(err)
					}
					if st.ObservableLen != obs {
						t.Fatalf("observable prefix %d bytes, reference has %d", st.ObservableLen, obs)
					}
					if !bytes.Equal(st.Mem[:obs], ref.Mem[:obs]) {
						t.Errorf("observable memory differs from the sequential reference")
					}
					if !slices.Equal(st.RegFinal, ref.RegFinal) {
						t.Errorf("final registers %v, reference %v", st.RegFinal, ref.RegFinal)
					}
				})
			}
		}
	}
}

// TestCompileExecVerifies: the Opts.Exec wiring — a compile with Exec
// set attaches a clean differential report; without it Verified stays
// nil (in the facade execution is opt-in: TestCompileAllocs and the
// bench harness measure compilation alone).
func TestCompileExecVerifies(t *testing.T) {
	l, m := ir.FIR8(), machine.Tight()
	for _, be := range Backends() {
		r, err := CompileWithOpts(context.Background(), be, l, m, Opts{Exec: true})
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if r.Verified == nil {
			t.Fatalf("%s: Opts.Exec set but Result.Verified is nil", be.Name())
		}
		if !r.Verified.OK() {
			t.Errorf("%s: differential mismatch:\n%s", be.Name(), r.Verified.String())
		}
		plain, err := CompileWith(be, l, m)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Verified != nil {
			t.Errorf("%s: Verified attached without Opts.Exec", be.Name())
		}
	}
}

// TestExecSeedStable pins the per-loop seed derivation: corpus
// artifacts embed states derived from it, so it changing silently would
// invalidate every CI byte-determinism comparison across versions.
func TestExecSeedStable(t *testing.T) {
	if a, b := ExecSeed("fir8"), ExecSeed("fir8"); a != b {
		t.Fatalf("ExecSeed not deterministic: %x vs %x", a, b)
	}
	if a, b := ExecSeed("fir8"), ExecSeed("fir4"); a == b {
		t.Errorf("distinct loops share a seed: %x", a)
	}
	if got, want := ExecSeed(""), uint64(0xcbf29ce484222325)^uint64(vm.DefaultSeed); got != want {
		t.Errorf("ExecSeed(\"\") = %x, want FNV offset ^ DefaultSeed = %x", got, want)
	}
}
