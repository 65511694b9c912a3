package emit_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func machines() []*machine.Machine {
	return []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()}
}

// emitCorpus compiles, for m, the list and MIRS schedules of
// gen.Corpus(1, n) and the exact backend's schedules of
// driver.GapCorpus(1, gapN, 12) — the three backends the gate and the
// benchmark workloads emit — and returns their expanded kernels.
func emitCorpus(tb testing.TB, m *machine.Machine, n, gapN int) []*sched.ExpandedKernel {
	tb.Helper()
	var eks []*sched.ExpandedKernel
	for _, be := range []sched.Scheduler{sched.ListScheduler{}, mirs.New()} {
		for _, l := range gen.Corpus(1, n) {
			r, err := core.CompileWith(be, l, m)
			if err != nil {
				tb.Fatalf("%s on %s by %s: %v", l.Name, m.Name, be.Name(), err)
			}
			eks = append(eks, r.Expanded)
		}
	}
	for _, l := range driver.GapCorpus(1, gapN, 12) {
		r, err := core.CompileWith(core.Opt(0), l, m)
		if err != nil {
			tb.Fatalf("%s on %s by opt: %v", l.Name, m.Name, err)
		}
		eks = append(eks, r.Expanded)
	}
	return eks
}

// hashProgram folds into h everything a consumer of prog can observe:
// the full listing, the JSON encoding (which tells a nil slice from an
// empty one) and the location LocOf answers for every allocated name.
func hashProgram(h io.Writer, prog *emit.Program) error {
	io.WriteString(h, prog.Listing(0))
	js, err := json.Marshal(prog)
	if err != nil {
		return err
	}
	h.Write(js)
	loc := func(ci int, name sched.RegCopy) {
		l, ok := prog.LocOf(ci, name)
		fmt.Fprintf(h, "%d %s %v %v\n", ci, name, l, ok)
	}
	for ci, names := range prog.Names {
		for _, name := range names {
			loc(ci, name)
		}
	}
	for _, fs := range prog.Frame {
		loc(fs.Cluster, fs.Name)
	}
	return nil
}

// TestEmitGolden pins every emitted program of the gate's populations:
// list and MIRS over gen.Corpus(1, 120) and the exact backend over
// driver.GapCorpus(1, 24, 12), each on the three canned machines, folded
// into one FNV-1a hash by hashProgram. The constant was measured before
// the lowering moved from per-operation allocations to shared arrays; a
// change to how Emit stores a program that changes what it stores fails
// here.
func TestEmitGolden(t *testing.T) {
	const (
		wantPrograms = 792
		wantHash     = uint64(0x2a82687db1f31b36)
	)
	if testing.Short() {
		t.Skip("compiles 792 loops")
	}
	h := fnv.New64a()
	programs := 0
	for _, m := range machines() {
		for _, ek := range emitCorpus(t, m, 120, 24) {
			prog, err := emit.Emit(ek)
			if err != nil {
				t.Fatalf("Emit(%s on %s): %v", ek.Schedule.Loop.Name, m.Name, err)
			}
			if err := hashProgram(h, prog); err != nil {
				t.Fatal(err)
			}
			programs++
		}
	}
	if programs != wantPrograms || h.Sum64() != wantHash {
		t.Fatalf("%d programs, hash %#x; want %d, %#x", programs, h.Sum64(), wantPrograms, wantHash)
	}
}

// emitAll emits every kernel and fails on any error.
func emitAll(tb testing.TB, eks []*sched.ExpandedKernel) {
	for _, ek := range eks {
		if _, err := emit.Emit(ek); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkEmit measures lowering alone: the emitCorpus(24, 24) kernels
// are compiled once per machine outside the timed loop, and one op
// emits all 72 of them. Run with -benchmem; allocs/prog is allocs/op
// spread over the programs.
func BenchmarkEmit(b *testing.B) {
	for _, m := range machines() {
		b.Run(m.Name, func(b *testing.B) {
			eks := emitCorpus(b, m, 24, 24)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emitAll(b, eks)
			}
		})
	}
}

// TestEmitAllocs pins Emit's allocations per pass over the
// BenchmarkEmit corpus, the TestCompileAllocs way: the committed counts
// were measured with Go 1.24 and get 25% headroom. A lowering that
// allocates per operation, operand list or transfer list instead of
// per program multiplies them. It also logs the geometric mean of the
// per-program counts.
func TestEmitAllocs(t *testing.T) {
	measured := map[string]float64{"unified": 648, "paper-4cluster": 792, "tight": 808}
	for _, m := range machines() {
		eks := emitCorpus(t, m, 24, 24)
		allocs := testing.AllocsPerRun(2, func() { emitAll(t, eks) })
		logSum := 0.0
		for i := range eks {
			logSum += math.Log(testing.AllocsPerRun(2, func() { emitAll(t, eks[i:i+1]) }))
		}
		t.Logf("%s: %.0f allocs per corpus pass, %.1f per program (geomean)", m.Name, allocs, math.Exp(logSum/float64(len(eks))))
		if limit := measured[m.Name] * 1.25; allocs > limit {
			t.Errorf("%s: %.0f allocs per corpus pass, limit %.0f (measured %.0f)", m.Name, allocs, limit, measured[m.Name])
		}
	}
}
