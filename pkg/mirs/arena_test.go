package mirs

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// TestMIRSRequestAllocs pins the allocations of one Schedule call that
// settles at its first candidate II without spilling — every such
// paper-4cluster request of gen.Corpus(1, 120), graph and MII prebuilt:
// the sweep and attempter, the state and the one array per element type
// its tables are carved from, Validate's scratch, and the returned
// schedule with its placements and stats. The count must not depend on
// the loop's size; growing the tables one by one made 52 to 63.
func TestMIRSRequestAllocs(t *testing.T) {
	const limit = 25
	m := machine.Paper4Cluster()
	s := New()
	counts := map[float64][]string{}
	for _, l := range gen.Corpus(1, 120) {
		g, err := ir.Build(l, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		mii, err := sched.ComputeMII(g, m)
		if err != nil {
			t.Fatal(err)
		}
		req := &sched.Request{Loop: l, Machine: m, Graph: g, MII: &mii}
		out, err := s.Schedule(req)
		if err != nil {
			t.Fatal(err)
		}
		if out.II != mii.MII || out.Stats["spill_stores"]+out.Stats["spill_loads"] > 0 {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.Schedule(req); err != nil {
				t.Fatal(err)
			}
		})
		counts[allocs] = append(counts[allocs], l.Name)
	}
	if len(counts) == 0 {
		t.Fatal("no request settled at its first candidate II")
	}
	for allocs, loops := range counts {
		t.Logf("%v allocations per Schedule: %d loops", allocs, len(loops))
		if allocs > limit {
			t.Errorf("%v allocations per Schedule, limit %d: %v", allocs, limit, loops)
		}
	}
	if len(counts) > 1 {
		t.Errorf("the allocation count depends on the loop: %d distinct counts", len(counts))
	}
}

// TestKeptScheduleSurvivesLaterAttempts: nothing a returned schedule
// holds points into the attempter's arena. A schedule kept from one
// attempt stays deep-equal to a copy taken at once while the same
// attempter runs larger IIs (paper-4cluster) and spilling attempts
// (tight) on the tables it was carved from.
func TestKeptScheduleSurvivesLaterAttempts(t *testing.T) {
	for _, tc := range []struct {
		l       *ir.Loop
		m       *machine.Machine
		iis     func(mii int) []int // first the kept attempt, then the later ones
		spilled bool                // a later attempt must spill
	}{
		{ir.FIR8(), machine.Paper4Cluster(), func(mii int) []int { return []int{mii, mii + 1, mii + 3, mii + 8} }, false},
		{ir.FIR(), machine.Tight(), func(mii int) []int { return []int{mii + 3, mii, mii + 1} }, true},
		{ir.Hydro(), machine.Tight(), func(mii int) []int { return []int{mii + 6, mii + 8, mii + 9} }, true},
	} {
		sw, newAttempter, err := New().Probe(&sched.Request{Loop: tc.l, Machine: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		mii, _ := sw.Next()
		at := newAttempter()
		var kept []*sched.Schedule
		var want []snapshot
		spilled := false
		for _, ii := range tc.iis(mii) {
			a := at.AttemptII(nil, ii, nil)
			if a.Err != nil {
				t.Fatal(a.Err)
			}
			if a.Schedule == nil {
				continue
			}
			spilled = spilled || a.Schedule.Stats["spill_stores"]+a.Schedule.Stats["spill_loads"] > 0
			kept, want = append(kept, a.Schedule), append(want, snap(a.Schedule))
		}
		if len(kept) < 2 || spilled != tc.spilled {
			t.Fatalf("%s on %s: %d schedules kept, spilled %v; want at least 2, spilled %v", tc.l.Name, tc.m.Name, len(kept), spilled, tc.spilled)
		}
		for i, s := range kept {
			want[i].requireUnchanged(t, s)
		}
	}
}
