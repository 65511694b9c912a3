package vm_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// verifyJob is one program of the oracle benchmark corpus.
type verifyJob struct {
	ek   *sched.ExpandedKernel
	prog *emit.Program
	opts vm.Options
}

// verifyCorpus compiles and emits the list-scheduled gen.Corpus(1, 24)
// for m, each program to be verified at predicated trips {Stages,
// Trip+1, 512} — list-longtrip's configuration.
func verifyCorpus(tb testing.TB, m *machine.Machine) []verifyJob {
	tb.Helper()
	var jobs []verifyJob
	for _, l := range gen.Corpus(1, 24) {
		s, err := sched.ListScheduler{}.Schedule(&sched.Request{Loop: l, Machine: m})
		if err != nil {
			tb.Fatal(err)
		}
		ek, err := s.Expand()
		if err != nil {
			tb.Fatal(err)
		}
		prog, err := emit.Emit(ek)
		if err != nil {
			tb.Fatal(err)
		}
		jobs = append(jobs, verifyJob{ek, prog, vm.Options{PredTrips: []int{prog.Stages, prog.Trip + 1, 512}}})
	}
	return jobs
}

// verifyAll runs VerifyProgram over jobs and fails on any error or
// mismatch.
func verifyAll(tb testing.TB, jobs []verifyJob) {
	for _, j := range jobs {
		rep, err := vm.VerifyProgram(j.ek, j.prog, j.opts)
		if err != nil {
			tb.Fatal(err)
		}
		if !rep.OK() {
			tb.Fatal(rep.String())
		}
	}
}

// BenchmarkVerifyProgram measures the differential oracle alone: the
// verifyCorpus programs are compiled and emitted once per machine
// outside the timed loop, and one op verifies every program — decoding
// it, one resumable sequential reference pass to trip 512, the MVE plan,
// and the predicated plan at trips {Trip, Stages, Trip+1, 512}. Run with
// -benchmem: allocs/op is what the per-program decode and any per-run
// bookkeeping show up in.
func BenchmarkVerifyProgram(b *testing.B) {
	for _, m := range machines() {
		b.Run(m.Name, func(b *testing.B) {
			jobs := verifyCorpus(b, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verifyAll(b, jobs)
			}
		})
	}
}

// TestVerifyAllocs pins the oracle's allocations and bytes per pass
// over the BenchmarkVerifyProgram corpus, the TestOptAllocs way: the
// committed counts were measured with Go 1.24 on linux/amd64 and get 25%
// headroom. It also holds every single VerifyProgram call to
// maxVerifyAllocs: the oracle allocates per program — one arena, one
// ring, the bound semantics and the report — so a table decoded per
// run, a reference state per trip or a label formatted per run shows
// up on every program, not only in the pass total.
func TestVerifyAllocs(t *testing.T) {
	const maxVerifyAllocs = 24
	measured := map[string]struct{ allocs, kib uint64 }{
		"unified":        {393, 561},
		"paper-4cluster": {394, 571},
		"tight":          {380, 543},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, m := range machines() {
		jobs := verifyCorpus(t, m)
		verifyAll(t, jobs)
		allocs, kib := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 2 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			verifyAll(t, jobs)
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			kib = min(kib, (after.TotalAlloc-before.TotalAlloc)/1024)
		}
		want := measured[m.Name]
		if limit := float64(want.allocs) * 1.25; float64(allocs) > limit {
			t.Errorf("%s: %d allocs per corpus pass, limit %.0f (measured %d)", m.Name, allocs, limit, want.allocs)
		}
		if limit := float64(want.kib) * 1.25; float64(kib) > limit {
			t.Errorf("%s: %d KiB allocated per corpus pass, limit %.0f (measured %d)", m.Name, kib, limit, want.kib)
		}
		t.Logf("%s: %d allocs, %d KiB per corpus pass", m.Name, allocs, kib)
		for _, j := range jobs {
			if n := testing.AllocsPerRun(2, func() { verifyAll(t, []verifyJob{j}) }); n > maxVerifyAllocs {
				t.Errorf("%s on %s: %.0f allocs per VerifyProgram, limit %d", j.prog.Loop.Name, m.Name, n, maxVerifyAllocs)
			}
		}
	}
}
