package vm_test

import (
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
// it, one sequential reference pass to trip 512 with snapshots at the
// smaller trips, the MVE plan, and the predicated plan at trips {Trip,
// Stages, Trip+1, 512}. Run with -benchmem: allocs/op is what the
// per-program decode and per-run bookkeeping show up in.
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

// TestVerifyAllocs pins the oracle's allocations per pass over the
// BenchmarkVerifyProgram corpus, the TestCompileAllocs way: the
// committed counts were measured with Go 1.24 and get 25% headroom. A
// program decoded per run instead of once per VerifyProgram, or a
// reference run per trip instead of one pass, multiplies them.
func TestVerifyAllocs(t *testing.T) {
	measured := map[string]float64{"unified": 1918, "paper-4cluster": 1919, "tight": 1906}
	for _, m := range machines() {
		jobs := verifyCorpus(t, m)
		allocs := testing.AllocsPerRun(2, func() { verifyAll(t, jobs) })
		if limit := measured[m.Name] * 1.25; allocs > limit {
			t.Errorf("%s: %.0f allocs per corpus pass, limit %.0f (measured %.0f)", m.Name, allocs, limit, measured[m.Name])
		}
	}
}
