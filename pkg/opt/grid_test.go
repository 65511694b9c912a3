package opt_test

import (
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/opt"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// gapGrid is the gap gate's population at a size a unit test affords:
// the first 24 gap-corpus loops on every canned machine.
func gapGrid() ([]*ir.Loop, []*machine.Machine) {
	return driver.GapCorpus(1, 24, 12), []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()}
}

// scheduleGrid runs the exact backend over the grid and returns the
// summed conflict count and UNSAT certificates.
func scheduleGrid(tb testing.TB, s *opt.Scheduler, loops []*ir.Loop, ms []*machine.Machine) (conflicts, unsatBelow int) {
	for _, m := range ms {
		for _, l := range loops {
			sc, err := s.Schedule(&sched.Request{Loop: l, Machine: m})
			if err != nil {
				tb.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			conflicts += sc.Stats["opt_conflicts"]
			unsatBelow += sc.Stats["opt_unsat_below"]
		}
	}
	return conflicts, unsatBelow
}

// TestOptTrajectory pins the solver's trajectory over the grid. Conflict
// counts depend on variable numbering, clause order, watch order and
// decision order, so a storage change that perturbs any of them
// moves the sum even when every schedule survives. The sums also
// follow the MII the search starts from: the cluster lift took them
// from 3669 and 20.
func TestOptTrajectory(t *testing.T) {
	loops, ms := gapGrid()
	conflicts, unsatBelow := scheduleGrid(t, opt.New(), loops, ms)
	if conflicts != 800 || unsatBelow != 1 {
		t.Fatalf("Σopt_conflicts = %d, Σopt_unsat_below = %d; want 800 and 1", conflicts, unsatBelow)
	}
}

// TestClusterLiftAgreesWithOpt checks sched.ComputeMII's cluster lift
// against the exact backend on the grid. Every lifted row is one opt
// proves infeasible at the paper's MII, max(ResMII, RecMII): started
// there, its only UNSAT certificate is that II. No row's optimum lies
// below its MII. And paper-4cluster with a bus of latency 0, where the
// lift's argument does not hold, lifts no row.
func TestClusterLiftAgreesWithOpt(t *testing.T) {
	loops, ms := gapGrid()
	free := machine.Paper4Cluster()
	free.Name += "-bus0"
	free.Buses[0].Latency = 0
	s := opt.New()
	lifted := 0
	for _, m := range append(ms, free) {
		for _, l := range loops {
			g, err := ir.Build(l, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			mii, err := sched.ComputeMII(g, m)
			if err != nil {
				t.Fatal(err)
			}
			if m == free {
				if mii.Lift != 0 {
					t.Errorf("%s on %s: lifted to %d without bus latency", l.Name, m.Name, mii.MII)
				}
				continue
			}
			sc, err := s.Schedule(&sched.Request{Loop: l, Machine: m, Graph: g, MII: &mii})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			if sc.II < mii.MII {
				t.Errorf("%s on %s: opt II %d below MII %d", l.Name, m.Name, sc.II, mii.MII)
			}
			if mii.Lift == 0 {
				continue
			}
			lifted++
			paper := sched.MII{Res: mii.Res, Rec: mii.Rec, MII: mii.Rec, CriticalSCC: mii.CriticalSCC}
			sc, err = s.Schedule(&sched.Request{Loop: l, Machine: m, Graph: g, MII: &paper})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			if sc.Stats["opt_unsat_below"] != 1 || sc.II != mii.MII {
				t.Errorf("%s on %s from II %d: II %d, %d UNSAT certificate(s); want II %d after one",
					l.Name, m.Name, paper.MII, sc.II, sc.Stats["opt_unsat_below"], mii.MII)
			}
		}
	}
	if lifted != 19 {
		t.Errorf("%d rows lifted; want 19", lifted)
	}
}

// TestOptAllocs pins heap allocations and bytes allocated per pass over
// the grid, the way TestCompileAllocs pins allocations for the
// heuristic backends: the counts measured on linux/amd64 with Go 1.24
// (optAllocsMeasured, optKiBMeasured) plus 25% headroom. Each count is
// the smaller of two passes after a warm-up pass has filled the
// workspace pool, on one P so the pool keeps its per-P cache; a GC in
// the middle of a pass empties the pool and costs that pass new
// solvers. A formula builder that allocated each clause and grew each
// watch list on its own made 738 625 allocations per pass; building
// every formula on a new solver made 11 775 allocations and 45 357 KiB.
func TestOptAllocs(t *testing.T) {
	loops, ms := gapGrid()
	s := opt.New()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scheduleGrid(t, s, loops, ms)
	allocs, kib := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		scheduleGrid(t, s, loops, ms)
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		kib = min(kib, (after.TotalAlloc-before.TotalAlloc)/1024)
	}
	if limit := optAllocsMeasured * 1.25; float64(allocs) > limit {
		t.Errorf("%d allocs per grid pass, limit %.0f (measured %d)", allocs, limit, optAllocsMeasured)
	}
	if limit := optKiBMeasured * 1.25; float64(kib) > limit {
		t.Errorf("%d KiB allocated per grid pass, limit %.0f (measured %d)", kib, limit, optKiBMeasured)
	}
	t.Logf("%d allocs, %d KiB per grid pass", allocs, kib)
}

// TestOptConcurrentDeterministic shares one Scheduler, and with it the
// workspace pool, among goroutines that each compile a slice of the
// grid, starting at different loops: every II, placement and stat must
// equal the sequential run's. Under go test -race, a workspace two
// attempts used at once would also show up as a race report.
func TestOptConcurrentDeterministic(t *testing.T) {
	loops, ms := gapGrid()
	var reqs []*sched.Request
	for _, m := range ms {
		for _, l := range loops[:8] {
			reqs = append(reqs, &sched.Request{Loop: l, Machine: m})
		}
	}
	s := opt.New()
	want := make([]*sched.Schedule, len(reqs))
	for i, r := range reqs {
		sc, err := s.Schedule(r)
		if err != nil {
			t.Fatalf("%s on %s: %v", r.Loop.Name, r.Machine.Name, err)
		}
		want[i] = sc
	}
	const workers = 4
	got := make([][]*sched.Schedule, workers)
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([]*sched.Schedule, len(reqs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range reqs {
				i := (k + w*len(reqs)/workers) % len(reqs)
				sc, err := s.Schedule(reqs[i])
				if err != nil {
					t.Errorf("worker %d: %s on %s: %v", w, reqs[i].Loop.Name, reqs[i].Machine.Name, err)
					return
				}
				got[w][i] = sc
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, sc := range got[w] {
			r, ref := reqs[i], want[i]
			if sc == nil {
				continue // reported above
			}
			if sc.II != ref.II || !slices.Equal(sc.Placements, ref.Placements) || !maps.Equal(sc.Stats, ref.Stats) {
				t.Errorf("worker %d: %s on %s: II %d, stats %v; sequential II %d, stats %v (or placements differ)",
					w, r.Loop.Name, r.Machine.Name, sc.II, sc.Stats, ref.II, ref.Stats)
			}
		}
	}
}

// BenchmarkOptSchedule times one pass of the exact backend over the
// grid: formula construction and CDCL search per candidate II. Its
// ns/op is a sum that a few budget-bound compilations dominate; the
// geometric mean of the per-compilation times, reported as
// µs-geomean/compile, weighs every compilation alike, the way the
// repository benchmark's compile_ms_geomean does.
func BenchmarkOptSchedule(b *testing.B) {
	loops, ms := gapGrid()
	s := opt.New()
	var logSum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			for _, l := range loops {
				start := time.Now()
				if _, err := s.Schedule(&sched.Request{Loop: l, Machine: m}); err != nil {
					b.Fatalf("%s on %s: %v", l.Name, m.Name, err)
				}
				logSum += math.Log(float64(time.Since(start)) / float64(time.Microsecond))
			}
		}
	}
	b.ReportMetric(math.Exp(logSum/float64(b.N*len(ms)*len(loops))), "µs-geomean/compile")
}
