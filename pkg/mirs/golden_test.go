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
// fields, and every attempt's start and verdict. The window cache's
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
	f.fold(int64(e.Kind), int64(e.II), int64(e.Op), int64(e.Cluster), int64(e.Cycle), int64(e.Reg), e.Arg, e.Aux)
}

// TestSearchGolden pins the MIRS search trajectory — the event stream
// of every attempt, the final II and placements, and the logical
// counters (spill stores and loads, ejections, forced placements,
// attempts) — folded into one FNV-1a hash over gen.Corpus(1, 240) on the
// register-starved machine, the same machine cut to 6 registers and the
// four-cluster one. The constant was measured while a spill still
// rebuilt every table of the scheduling state from scratch; a change to
// how that state is carried across a spill that changes any decision
// fails here.
func TestSearchGolden(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("schedules 720 loops; single-threaded, so the race detector has nothing to check")
	}
	const (
		wantSchedules = 720
		wantHash      = uint64(0x73c34e33a40dd88d)
	)
	f := &searchFold{h: fnvOffset}
	loops := gen.Corpus(1, 240)
	schedules := 0
	for _, m := range []*machine.Machine{machine.Tight(), tight6(), machine.Paper4Cluster()} {
		for _, l := range loops {
			s, err := New().Schedule(&sched.Request{Loop: l, Machine: m, Recorder: f})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			schedules++
			f.fold(int64(s.II), int64(s.Loop.NumInstrs()))
			for _, p := range s.Placements {
				f.fold(int64(p.Cycle), int64(p.Cluster), int64(p.Slot))
			}
			keys := make([]string, 0, len(s.Stats))
			for k := range s.Stats {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				for i := 0; i < len(k); i++ {
					f.fold(int64(k[i]))
				}
				f.fold(int64(s.Stats[k]))
			}
			f.fold(int64(f.forces), int64(f.attempts))
		}
	}
	t.Logf("%d schedules, %d attempts, %d forced placements, hash %#x", schedules, f.attempts, f.forces, f.h)
	if schedules != wantSchedules || f.h != wantHash {
		t.Fatalf("%d schedules, hash %#x; want %d, %#x", schedules, f.h, wantSchedules, wantHash)
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
