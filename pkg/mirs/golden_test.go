package mirs

import (
	"slices"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// fnvOffset and fnvPrime are FNV-1a's 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// searchFold is a Recorder that folds the search trajectory into one
// FNV-1a hash as it happens: every placement, ejection, forced
// placement, window miss, victim, spill and compaction with all its
// scalar fields, and every attempt's start and end. The window cache's
// per-attempt hit and miss counts are bookkeeping, not decisions, and
// stay out. It counts forced placements and attempts on the side.
type searchFold struct {
	h                uint64
	forces, attempts int
}

func (f *searchFold) fold(vs ...int64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			f.h ^= uint64(byte(v >> (8 * i)))
			f.h *= fnvPrime
		}
	}
}

// Emit implements trace.Recorder.
func (f *searchFold) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindCacheHit, trace.KindCacheMiss:
		return
	case trace.KindForce:
		f.forces++
	case trace.KindIIStart:
		f.attempts++
	}
	returned := int64(0)
	if e.Returned {
		returned = 1
	}
	f.fold(int64(e.Kind), int64(e.II), int64(e.Op), int64(e.Cluster), int64(e.Cycle), int64(e.Reg), e.Arg, e.Aux, returned)
}

// TestSearchGolden pins the MIRS search over gen.Corpus(1, 240) on the
// register-starved machine, the same machine cut to 6 registers and the
// four-cluster one in two FNV-1a hashes. The outcome hash folds every
// returned schedule — its II, loop size, placements and Stats but
// ii_over_mii, which moves with the MII the search starts from — so a
// change that only prunes attempts no schedule can come from keeps it.
// The trajectory hash folds the event stream of every attempt and the
// running counts of forced placements and attempts, so any change to a
// search decision moves it.
//
// The cluster lift in sched.ComputeMII moved both: the search no longer
// attempts II = RecMII where that II has no schedule, which dropped 142
// attempts and 18 852 forced placements, and left every II, loop size
// and placement as it was. One stat moved: g0064-mulchain on tight6
// reads spill_ii_increase 2, not 3, because its attempt at II 9, which
// completed only after a spill cut the anti edges that make II 9
// infeasible for its original graph, is no longer made.
func TestSearchGolden(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("schedules 720 loops; single-threaded, so the race detector has nothing to check")
	}
	const (
		wantSchedules  = 720
		wantOutcome    = uint64(0x8a4062dcbd2a7016)
		wantTrajectory = uint64(0xcdbfb5067887857a)
	)
	f := &searchFold{h: fnvOffset}
	out := &searchFold{h: fnvOffset}
	loops := gen.Corpus(1, 240)
	schedules := 0
	for _, m := range []*machine.Machine{machine.Tight(), tight6(), machine.Paper4Cluster()} {
		for _, l := range loops {
			s, err := New().Schedule(&sched.Request{Loop: l, Machine: m, Recorder: f})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			schedules++
			out.fold(int64(s.II), int64(s.Loop.NumInstrs()))
			for _, p := range s.Placements {
				out.fold(int64(p.Cycle), int64(p.Cluster), int64(p.Slot))
			}
			keys := make([]string, 0, len(s.Stats))
			for k := range s.Stats {
				if k != "ii_over_mii" {
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			for _, k := range keys {
				for i := 0; i < len(k); i++ {
					out.fold(int64(k[i]))
				}
				out.fold(int64(s.Stats[k]))
			}
			f.fold(int64(f.forces), int64(f.attempts))
		}
	}
	t.Logf("%d schedules, outcome hash %#x; %d attempts, %d forced placements, trajectory hash %#x",
		schedules, out.h, f.attempts, f.forces, f.h)
	if schedules != wantSchedules || out.h != wantOutcome {
		t.Errorf("%d schedules, outcome hash %#x; want %d, %#x", schedules, out.h, wantSchedules, wantOutcome)
	}
	if f.h != wantTrajectory {
		t.Errorf("trajectory hash %#x; want %#x", f.h, wantTrajectory)
	}
}

// lookupFloor is a Recorder that checks each attempt's window-cache
// aggregates against a floor its other events imply: every committed
// placement first looked a window up (place's scan or force's earliest
// start), and every window miss is a lookup of its own.
type lookupFloor struct {
	t                       *testing.T
	floor, lookups, spilled int64
	attempts, withSpills    int
}

// Emit implements trace.Recorder.
func (f *lookupFloor) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindIIStart:
		f.floor, f.lookups, f.spilled = 0, 0, 0
	case trace.KindPlace, trace.KindWindowMiss:
		f.floor++
	case trace.KindSpill:
		f.spilled++
	case trace.KindCacheHit, trace.KindCacheMiss:
		f.lookups += e.Arg
	case trace.KindIIEnd:
		f.attempts++
		if f.spilled > 0 {
			f.withSpills++
		}
		if f.lookups < f.floor {
			f.t.Errorf("II %d with %d spills: %d window lookups reported, but its placements and window misses need %d",
				e.II, f.spilled, f.lookups, f.floor)
		}
	}
}

// TestCacheStatsSpanSpills: an attempt's window-cache aggregates count
// every lookup it made, those before its spills included — a spill
// rebinds the cache to the spliced graph but keeps its counters.
func TestCacheStatsSpanSpills(t *testing.T) {
	f := &lookupFloor{t: t}
	for _, l := range gen.Corpus(1, 60) {
		if _, err := New().Schedule(&sched.Request{Loop: l, Machine: machine.Tight(), Recorder: f}); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
	}
	if f.withSpills == 0 {
		t.Fatalf("none of %d attempts spilled", f.attempts)
	}
	t.Logf("%d attempts, %d with spills", f.attempts, f.withSpills)
}
