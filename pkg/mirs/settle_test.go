package mirs

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// tight6 is the tight machine cut to 6 registers per cluster: below the
// saturation floor, so most attempts overflow, spill and settle with a
// residual excess.
func tight6() *machine.Machine {
	m := machine.Tight()
	m.Name = "tight6"
	for ci := range m.Clusters {
		m.Clusters[ci].RegFile.Size = 6
	}
	return m
}

// settles drives l's II search on m attempt by attempt and checks the
// account tryII settles each complete placement on: after every attempt
// that returns a schedule, the attempter's tracker must hold exactly
// regpress.Analyze's per-cluster, per-cycle counts of that schedule, and
// the attempt's Excess must be the overflow Analyze reports. It returns
// the number of schedules checked and how many of them overflowed.
func settles(t *testing.T, l *ir.Loop, m *machine.Machine) (checked, overflowed int) {
	t.Helper()
	sw, newAttempter, err := New().Probe(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
	}
	at := newAttempter().(*attempter)
	for {
		cand, done := sw.Next()
		if done {
			return checked, overflowed
		}
		a := at.AttemptII(nil, cand, nil)
		if a.Err != nil {
			t.Fatalf("%s on %s at II=%d: %v", l.Name, m.Name, cand, a.Err)
		}
		if a.Schedule != nil {
			checked++
			press, err := regpress.Analyze(a.Schedule)
			if err != nil {
				t.Fatalf("%s on %s at II=%d: %v", l.Name, m.Name, cand, err)
			}
			excess := 0
			for ci, cl := range m.Clusters {
				excess += max(0, press.MaxLivePerCluster[ci]-cl.RegFile.Size)
				for c := 0; c < a.Schedule.II; c++ {
					if got, want := at.st.track.PressureAt(ci, c), press.PerCluster[ci][c]; got != want {
						t.Errorf("%s on %s at II=%d, cluster %d cycle %d: tracker %d, Analyze %d",
							l.Name, m.Name, cand, ci, c, got, want)
					}
				}
			}
			if excess > 0 {
				overflowed++
			}
			if a.Excess != excess {
				t.Errorf("%s on %s at II=%d: attempt excess %d, Analyze excess %d", l.Name, m.Name, cand, a.Excess, excess)
			}
		}
		sw.Consume(cand, a)
	}
}

// TestTrackerSettles: MIRS settles every complete placement on its
// incrementally kept tracker instead of re-analysing the schedule, so
// that tracker must agree with Analyze everywhere — on machines with
// ample registers, on the register-starved one, and below its
// saturation floor, where spilling and the relaxed final relief run on
// nearly every attempt.
func TestTrackerSettles(t *testing.T) {
	loops := gen.Corpus(1, 60)
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight(), tight6()} {
		checked, overflowed := 0, 0
		for _, l := range loops {
			n, o := settles(t, l, m)
			if n == 0 {
				t.Errorf("%s on %s: no attempt returned a schedule", l.Name, m.Name)
			}
			checked, overflowed = checked+n, overflowed+o
		}
		t.Logf("%s: %d schedules checked, %d overflowing", m.Name, checked, overflowed)
		if m.Name == "tight6" && overflowed == 0 {
			t.Error("tight6: no overflowing schedule; the final relief went unchecked")
		}
	}
}

// FuzzTrackerSettles explores generated loops beyond the gating corpus
// on the 6-register machine. CI runs it as a non-gating 10-second smoke.
func FuzzTrackerSettles(f *testing.F) {
	for i := 0; i < 6; i++ {
		f.Add(uint64(i+1), uint16(i*7))
	}
	m := tight6()
	f.Fuzz(func(t *testing.T, seed uint64, i uint16) {
		settles(t, gen.CorpusLoop(seed, int(i)), m)
	})
}
