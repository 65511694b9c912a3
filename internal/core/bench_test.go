package core

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/paper-repo-growth/mirs/internal/report"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// benchResultsPath is where BenchmarkCompile drops its JSON (relative
// to the package directory the benchmark runs in); override with the
// BENCH_RESULTS environment variable. CI uploads the file as an
// artifact so the perf trajectory is trackable across PRs.
func benchResultsPath() string {
	if p := os.Getenv("BENCH_RESULTS"); p != "" {
		return p
	}
	return "BENCH_results.json"
}

// benchMachines is the machine grid the benchmarks sweep.
func benchMachines() []struct {
	name string
	m    *machine.Machine
} {
	return []struct {
		name string
		m    *machine.Machine
	}{
		{"Unified", machine.Unified()},
		{"Paper4Cluster", machine.Paper4Cluster()},
	}
}

// BenchmarkCompile is the backend-quality trajectory benchmark: every
// registered backend against every reference machine over the whole
// example corpus. Besides ns/op it reports the summed II, MaxLive and
// kernel unroll factor across the corpus — so CI logs accumulate a
// quality trend alongside the usual speed numbers — plus allocations
// per full-corpus compile and the derived loops/sec, and it writes the
// same numbers to BENCH_results.json for machine consumption — through
// internal/report, whose emit order is canonical (sorted rows, never
// map iteration), so artifacts from different runs diff meaningfully.
// The gating twin of this file is BENCH_baseline.json at the repo root,
// compared by `msched compare` (which recomputes quality and allocs/op
// in-process); this benchmark's artifact adds the timing dimension. Run
// as
//
//	go test -run '^$' -bench BenchmarkCompile -benchmem ./internal/core/
func BenchmarkCompile(b *testing.B) {
	// Keyed: later (larger-N) runs of the same sub-benchmark overwrite
	// earlier ones, keeping the most settled timing. Map order cannot
	// leak into the artifact — report.File emits in canonical sorted
	// order regardless of insertion.
	rows := map[string]report.Row{}
	for _, be := range Backends() {
		for _, mc := range benchMachines() {
			key := fmt.Sprintf("%sx%s", be.Name(), mc.name)
			b.Run(key, func(b *testing.B) {
				loops := ir.ExampleLoops()
				var sumII, sumMaxLive, sumUnroll int
				b.ReportAllocs()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sumII, sumMaxLive, sumUnroll = 0, 0, 0
					for _, l := range loops {
						r, err := CompileWith(be, l, mc.m)
						if err != nil {
							b.Fatalf("%s on %s: %v", l.Name, mc.name, err)
						}
						sumII += r.Schedule.II
						sumMaxLive += r.Pressure.MaxLive
						sumUnroll += r.Expanded.Unroll
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				b.ReportMetric(float64(sumII), "II")
				b.ReportMetric(float64(sumMaxLive), "MaxLive")
				b.ReportMetric(float64(sumUnroll), "unroll")
				nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				loopsPerSec := 0.0
				if nsPerOp > 0 {
					loopsPerSec = float64(len(loops)) / (nsPerOp / 1e9)
				}
				rows[key] = report.Row{
					Backend:     be.Name(),
					Machine:     mc.m.Name,
					Corpus:      "examples",
					Loops:       len(loops),
					NsPerOp:     nsPerOp,
					AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(b.N),
					LoopsPerSec: loopsPerSec,
					SumII:       sumII,
					SumMaxLive:  sumMaxLive,
					SumUnroll:   sumUnroll,
				}
			})
		}
	}
	var results report.File
	for _, r := range rows {
		results.Rows = append(results.Rows, r)
	}
	// WriteFile emits rows in canonical sorted order; benchmarks may run
	// in read-only checkouts, where the console metrics above still
	// carry the numbers.
	if err := results.WriteFile(benchResultsPath()); err != nil {
		b.Logf("bench results not written: %v", err)
	}
}

// BenchmarkPlacement isolates the steady-state placement path: the
// dependence graph and MII are built once outside the timed loop, so
// ns/op and allocs/op measure only what Scheduler.Schedule itself costs
// — the MRT probes, window scans, pressure tracking and II retries the
// hot-path work targets. This is the benchmark the "zero allocations
// steady-state" claim is checked against; the whole-pipeline picture
// (graph build, analysis, expansion included) is BenchmarkCompile's.
func BenchmarkPlacement(b *testing.B) {
	for _, be := range Backends() {
		for _, mc := range benchMachines() {
			key := fmt.Sprintf("%sx%s", be.Name(), mc.name)
			b.Run(key, func(b *testing.B) {
				loops := ir.ExampleLoops()
				reqs := make([]*sched.Request, len(loops))
				for i, l := range loops {
					g, err := ir.Build(l, mc.m, nil)
					if err != nil {
						b.Fatal(err)
					}
					mii, err := sched.ComputeMII(g, mc.m)
					if err != nil {
						b.Fatal(err)
					}
					reqs[i] = &sched.Request{Loop: l, Machine: mc.m, Graph: g, MII: &mii}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, req := range reqs {
						if _, err := be.Schedule(req); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
