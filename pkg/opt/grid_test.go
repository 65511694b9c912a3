package opt_test

import (
	"testing"

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
// decision-heap order, so a storage change that perturbs any of them
// moves the sum even when every schedule survives.
func TestOptTrajectory(t *testing.T) {
	loops, ms := gapGrid()
	conflicts, unsatBelow := scheduleGrid(t, opt.New(), loops, ms)
	if conflicts != 8104 || unsatBelow != 29 {
		t.Fatalf("Σopt_conflicts = %d, Σopt_unsat_below = %d; want 8104 and 29", conflicts, unsatBelow)
	}
}

// TestOptAllocs pins heap allocations per pass over the grid, the way
// TestCompileAllocs does for the heuristic backends: the count measured
// with Go 1.24 on linux/amd64 plus 25% headroom. A formula builder
// that allocated each clause and grew each watch list on its own made
// 738 625 allocations per pass.
func TestOptAllocs(t *testing.T) {
	const measured = 11775
	loops, ms := gapGrid()
	s := opt.New()
	allocs := testing.AllocsPerRun(2, func() { scheduleGrid(t, s, loops, ms) })
	if limit := measured * 1.25; allocs > limit {
		t.Errorf("%.0f allocs per grid pass, limit %.0f (measured %d)", allocs, limit, measured)
	}
}

// BenchmarkOptSchedule times one pass of the exact backend over the
// grid: formula construction and CDCL search per candidate II.
func BenchmarkOptSchedule(b *testing.B) {
	loops, ms := gapGrid()
	s := opt.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheduleGrid(b, s, loops, ms)
	}
}
