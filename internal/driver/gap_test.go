package driver

import (
	"testing"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/report"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/opt"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// TestGapCorpus pins the gap population's contract: requested size,
// the maxOps bound, prefix stability under growth, and determinism.
func TestGapCorpus(t *testing.T) {
	loops := GapCorpus(1, 24, 12)
	if len(loops) != 24 {
		t.Fatalf("got %d loops, want 24", len(loops))
	}
	tags := map[string]bool{}
	for _, l := range loops {
		if l.NumInstrs() > 12 {
			t.Fatalf("%s has %d instrs, above the 12-op bound", l.Name, l.NumInstrs())
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		tags[l.Name[len("gap0000-"):]] = true
	}
	if len(tags) < 5 {
		t.Fatalf("only %d knob corners represented: %v", len(tags), tags)
	}
	smaller := GapCorpus(1, 8, 12)
	for i, l := range smaller {
		if l.Name != loops[i].Name || l.NumInstrs() != loops[i].NumInstrs() {
			t.Fatalf("prefix instability at %d: %s vs %s", i, l.Name, loops[i].Name)
		}
	}
	if GapCorpus(0, 0, 12) != nil {
		t.Fatal("n=0 should yield nil")
	}
}

// gapTable sweeps loops over {opt, mirs} × ms the way `msched compare`
// sweeps its gap corpus and joins the outcomes into the gap table.
func gapTable(t *testing.T, loops []*ir.Loop, ms []*machine.Machine) *report.GapFile {
	t.Helper()
	rep := Run(Spec{
		Corpus:   "gap:test",
		Loops:    loops,
		Backends: []sched.Scheduler{core.Opt(0), mirs.New()},
		Machines: ms,
	}, Options{})
	if rep.Failures != 0 || len(rep.ExecFailures) != 0 {
		t.Fatalf("gap sweep not clean: %d failures, exec failures %v", rep.Failures, rep.ExecFailures)
	}
	return RunGap(rep, loops)
}

// TestRunGap runs the real pipeline over a small population on two
// machines and pins the joined artifact's invariants: every row joined
// from both backends, summary arithmetic consistent, the acceptance bar
// (>= 80% proved), no negative II gap (opt never worse than mirs where
// it proves optimality), and byte determinism across independent runs.
func TestRunGap(t *testing.T) {
	loops := GapCorpus(1, 8, 12)
	ms := []*machine.Machine{machine.Unified(), machine.Tight()}
	run := func() *report.GapFile { return gapTable(t, loops, ms) }
	f := run()
	if len(f.Rows) != len(loops)*len(ms) {
		t.Fatalf("got %d rows, want %d", len(f.Rows), len(loops)*len(ms))
	}
	for _, r := range f.Rows {
		if r.OptErr == "" && (r.OptII == 0 || r.MII == 0) {
			t.Fatalf("%s: opt side not joined: %+v", r.Key(), r)
		}
		if r.MirsErr == "" && r.MirsII == 0 {
			t.Fatalf("%s: mirs side not joined: %+v", r.Key(), r)
		}
		if r.Proved && r.MirsII > 0 {
			if r.IIGap != r.MirsII-r.OptII {
				t.Fatalf("%s: IIGap %d != MirsII %d - OptII %d", r.Key(), r.IIGap, r.MirsII, r.OptII)
			}
			if r.IIGap < 0 {
				t.Fatalf("%s: opt II %d worse than mirs II %d despite optimality proof", r.Key(), r.OptII, r.MirsII)
			}
		}
		if r.Proved && r.OptII < r.MII {
			t.Fatalf("%s: proved II %d below MII %d", r.Key(), r.OptII, r.MII)
		}
	}
	s := f.Summary
	if s.Rows != len(f.Rows) || s.Proved+s.Feasible+s.OptFailed != s.Rows {
		t.Fatalf("summary inconsistent: %+v", s)
	}
	if s.Proved*10 < s.Rows*8 {
		t.Fatalf("proved %d/%d below the 80%% acceptance bar", s.Proved, s.Rows)
	}
	a, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("gap artifact not byte-deterministic across runs")
	}
}

// TestRunGapBudgetRecorded pins that the artifact records the budget
// the gate's proofs run under: opt's default, the only one the gap
// sweep uses.
func TestRunGapBudgetRecorded(t *testing.T) {
	f := gapTable(t, GapCorpus(1, 2, 12), []*machine.Machine{machine.Unified()})
	if f.Budget != opt.DefaultBudget {
		t.Fatalf("budget = %d, want opt.DefaultBudget (%d)", f.Budget, opt.DefaultBudget)
	}
}
