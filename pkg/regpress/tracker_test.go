package regpress

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func TestTrackerFolding(t *testing.T) {
	m := machine.Paper4Cluster()
	tr, err := NewTracker(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.II() != 4 {
		t.Errorf("II = %d, want 4", tr.II())
	}
	// A lifetime spanning 6 flat cycles at II=4 overlaps itself: cycles
	// 2..7 cover kernel cycles {2,3,0,1,2,3} -> two copies live at 2,3.
	lt := life.Lifetime{Cluster: 1, Start: 2, End: 7}
	tr.AddLifetime(lt)
	want := map[int]int{0: 1, 1: 1, 2: 2, 3: 2}
	for c, n := range want {
		if got := tr.PressureAt(1, c); got != n {
			t.Errorf("PressureAt(1, %d) = %d, want %d", c, got, n)
		}
	}
	if got := tr.MaxLive(1); got != 2 {
		t.Errorf("MaxLive = %d, want 2", got)
	}
	if got := tr.PressureAt(0, 2); got != 0 {
		t.Errorf("cluster 0 charged %d, want 0", got)
	}
	// RemoveLifetime restores the empty account exactly.
	tr.RemoveLifetime(lt)
	for c := 0; c < 4; c++ {
		if got := tr.PressureAt(1, c); got != 0 {
			t.Errorf("after RemoveLifetime: PressureAt(1, %d) = %d, want 0", c, got)
		}
	}
	// A degenerate interval (end < start) charges nothing.
	tr.AddLifetime(life.Lifetime{Cluster: 0, Start: 3, End: 2})
	if got := tr.MaxLive(0); got != 0 {
		t.Errorf("empty interval charged %d", got)
	}
	if _, err := NewTracker(m, 0); err == nil {
		t.Error("NewTracker accepted II = 0")
	}
}

func TestTrackerFitsAndExcess(t *testing.T) {
	m := machine.Tight()
	tr, err := NewTracker(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Excess(0) != 0 || tr.Excess(1) != 0 {
		t.Errorf("empty tracker: Excess = %d, %d", tr.Excess(0), tr.Excess(1))
	}
	for i := 0; i < machine.TightRegs; i++ {
		tr.AddLifetime(life.Lifetime{Cluster: 0, Start: 0, End: 1})
	}
	if tr.Excess(0) != 0 {
		t.Errorf("exactly full file: Excess=%d", tr.Excess(0))
	}
	tr.AddLifetime(life.Lifetime{Cluster: 0, Start: 0, End: 0})
	if tr.Excess(0) != 1 {
		t.Errorf("overflow by one: Excess=%d", tr.Excess(0))
	}
	if tr.Excess(1) != 0 {
		t.Errorf("cluster 1 untouched: Excess=%d", tr.Excess(1))
	}
}

// TestTrackerMatchesAnalyze rebuilds a real schedule's pressure profile
// through the incremental interface and demands exact agreement with the
// authoritative Analyze — the property the MIRS placement loop relies on.
func TestTrackerMatchesAnalyze(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster()} {
		for _, l := range ir.ExampleLoops() {
			s, err := (sched.ListScheduler{}).Schedule(&sched.Request{Loop: l, Machine: m})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			press, err := Analyze(s)
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			tr, err := NewTracker(m, s.II)
			if err != nil {
				t.Fatal(err)
			}
			for _, lt := range press.Lifetimes {
				tr.AddLifetime(lt)
			}
			for ci := range m.Clusters {
				if got, want := tr.MaxLive(ci), press.MaxLivePerCluster[ci]; got != want {
					t.Errorf("%s on %s cluster %d: tracker MaxLive %d, Analyze %d", l.Name, m.Name, ci, got, want)
				}
				for c := 0; c < s.II; c++ {
					if got, want := tr.PressureAt(ci, c), press.PerCluster[ci][c]; got != want {
						t.Errorf("%s on %s cluster %d cycle %d: tracker %d, Analyze %d", l.Name, m.Name, ci, c, got, want)
					}
				}
			}
			excess := 0
			for ci := range m.Clusters {
				excess += tr.Excess(ci)
			}
			if (excess == 0) != press.Fits() {
				t.Errorf("%s on %s: tracker excess %d, Analyze Fits %v", l.Name, m.Name, excess, press.Fits())
			}
		}
	}
}
