package core

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
)

// This file pins the shared-lifetime refactor: regpress.Analyze and
// regpress.Tracker must agree on MaxLive for every backend's schedule of
// every loop we can construct — the property the MIRS placement loop
// (which steers on the Tracker) relies on, settled authoritatively by
// Analyze. The generator decodes arbitrary bytes into small random
// loops; the fuzz target explores beyond the seeded table in CI's
// non-gating smoke run (go test -fuzz FuzzAnalyzeTrackerAgree).

// loopFromBytes decodes data into a small well-formed loop: up to 8
// instructions over 6 registers, classes drawn from alu/mul/mem, an
// occasional carried use with distance 1..3. Returns nil when data is
// too short. Construction guarantees Loop.Validate passes; whether a
// backend can schedule the loop is the backend's business.
func loopFromBytes(data []byte) *ir.Loop {
	if len(data) < 4 {
		return nil
	}
	n := 2 + int(data[0])%7
	classes := []machine.OpClass{machine.ClassALU, machine.ClassMul, machine.ClassMem}
	l := &ir.Loop{Name: "fuzz"}
	pos := 1
	next := func() byte {
		if pos >= len(data) {
			pos = 1 // wrap: short inputs still yield n instructions
		}
		b := data[pos]
		pos++
		return b
	}
	for i := 0; i < n; i++ {
		in := &ir.Instruction{ID: i, Op: "op", Class: classes[int(next())%len(classes)]}
		in.Defs = []ir.VReg{ir.VReg(int(next()) % 6)}
		nuses := 1 + int(next())%2
		for u := 0; u < nuses; u++ {
			in.Uses = append(in.Uses, ir.VReg(int(next())%6))
		}
		if next()%4 == 0 {
			// A carried use of one of the registers actually read.
			reg := in.Uses[int(next())%len(in.Uses)]
			in.CarriedUses = map[ir.VReg]int{reg: 1 + int(next())%3}
		}
		l.Instrs = append(l.Instrs, in)
	}
	if err := l.Validate(); err != nil {
		return nil
	}
	return l
}

// agreeOn checks the Analyze/Tracker agreement for one loop on one
// machine across every registered backend. The tracker side is rebuilt
// the way a scheduler builds it — one life.OfDef call per definition
// plus the live-in ranges, not by replaying Analyze's output — so the
// two sides only agree if the incremental enumeration path matches the
// whole-schedule one. Each definition's charge is also removed and
// re-added, exercising the Remove symmetry ejection depends on.
func agreeOn(t *testing.T, l *ir.Loop, m *machine.Machine) {
	t.Helper()
	for _, be := range Backends() {
		r, err := CompileWith(be, l, m)
		if err != nil {
			continue // an unschedulable loop exercises nothing here
		}
		press := r.Pressure
		tr, err := regpress.NewTracker(m, r.Schedule.II)
		if err != nil {
			t.Fatal(err)
		}
		// The scheduled loop may be a spill-augmented clone of l; the
		// incremental rebuild must walk the loop the placements refer to.
		s := r.Schedule
		view := s.LifeView()
		for id, in := range s.Loop.Instrs {
			for _, d := range in.Defs {
				lts := life.OfDef(view, id, d)
				for _, lt := range lts {
					tr.AddLifetime(lt)
				}
				for _, lt := range lts {
					tr.RemoveLifetime(lt)
				}
				for _, lt := range lts {
					tr.AddLifetime(lt)
				}
			}
		}
		for _, lt := range life.LiveIns(view) {
			tr.AddLifetime(lt)
		}
		for ci := range m.Clusters {
			if got, want := tr.MaxLive(ci), press.MaxLivePerCluster[ci]; got != want {
				t.Errorf("%s on %s by %s, cluster %d: tracker MaxLive %d, Analyze %d\nloop: %v",
					l.Name, m.Name, be.Name(), ci, got, want, l.Instrs)
			}
			for c := 0; c < r.Schedule.II; c++ {
				if got, want := tr.PressureAt(ci, c), press.PerCluster[ci][c]; got != want {
					t.Errorf("%s on %s by %s, cluster %d cycle %d: tracker %d, Analyze %d",
						l.Name, m.Name, be.Name(), ci, c, got, want)
				}
			}
		}
		excess := 0
		for ci := range m.Clusters {
			excess += tr.Excess(ci)
		}
		if (excess == 0) != press.Fits() {
			t.Errorf("%s on %s by %s: tracker excess %d, Analyze Fits %v",
				l.Name, m.Name, be.Name(), excess, press.Fits())
		}
	}
}

var fuzzSeeds = [][]byte{
	{3, 0, 1, 2, 3, 4, 5},
	{5, 2, 4, 0, 1, 3, 0, 2, 4, 1, 3, 0},
	{7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	{8, 0, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7},
	{4, 2, 0, 0, 0, 8, 0, 0, 4, 0},
	{6, 5, 5, 5, 0, 5, 5, 1, 5, 5, 2, 5, 5, 3},
}

// TestAnalyzeTrackerAgreeSeeded is the deterministic (gating) half of
// the property: the seeded random loops plus the whole example corpus,
// every backend, on the unified and register-starved machines.
func TestAnalyzeTrackerAgreeSeeded(t *testing.T) {
	machines := []*machine.Machine{machine.Unified(), machine.Tight()}
	for _, seed := range fuzzSeeds {
		l := loopFromBytes(seed)
		if l == nil {
			t.Fatalf("seed %v decodes to no loop", seed)
		}
		for _, m := range machines {
			agreeOn(t, l, m)
		}
	}
	for _, l := range ir.ExampleLoops() {
		for _, m := range machines {
			agreeOn(t, l, m)
		}
	}
}

// FuzzAnalyzeTrackerAgree explores the loop space beyond the seeds. CI
// runs it as a non-gating 10-second smoke (-fuzztime=10s); locally, any
// counterexample it finds lands in testdata/fuzz and becomes a
// permanent regression input.
func FuzzAnalyzeTrackerAgree(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	machines := []*machine.Machine{machine.Unified(), machine.Tight()}
	f.Fuzz(func(t *testing.T, data []byte) {
		l := loopFromBytes(data)
		if l == nil {
			t.Skip()
		}
		for _, m := range machines {
			agreeOn(t, l, m)
		}
	})
}
