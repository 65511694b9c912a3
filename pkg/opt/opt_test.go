package opt

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/opt/sat"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func machines(t testing.TB) []*machine.Machine {
	ms := []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatalf("machine %s invalid: %v", m.Name, err)
		}
	}
	return ms
}

// TestOptExamplesOptimalAndValid runs the exact backend over the whole
// example corpus x all canned machines: every schedule must pass
// Validate (decode is checked internally, this pins it end to end),
// sit at II >= MII, and — since the default budget decides every
// example loop — carry a complete optimality proof.
func TestOptExamplesOptimalAndValid(t *testing.T) {
	s := New()
	for _, m := range machines(t) {
		for _, l := range ir.ExampleLoops() {
			sc, err := s.Schedule(&sched.Request{Loop: l, Machine: m})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatalf("%s on %s: invalid schedule: %v", l.Name, m.Name, err)
			}
			g := sc.Graph
			mii, err := sched.ComputeMII(g, m)
			if err != nil {
				t.Fatalf("%s on %s: mii: %v", l.Name, m.Name, err)
			}
			if sc.II < mii.MII {
				t.Fatalf("%s on %s: II %d below MII %d", l.Name, m.Name, sc.II, mii.MII)
			}
			// The acceptance bar applies to small loops (the gap-corpus
			// domain); the large examples (fir8, hydro) hit genuinely hard
			// UNSAT packings on the clustered machines and may time out.
			if l.NumInstrs() <= 12 && sc.Stats["opt_proved"] != 1 {
				t.Errorf("%s on %s: optimality unproven within default budget (unknown below: %d)",
					l.Name, m.Name, sc.Stats["opt_unknown_below"])
			}
			t.Logf("%s on %s: II=%d (MII %d, unsat below %d, conflicts %d)",
				l.Name, m.Name, sc.II, mii.MII, sc.Stats["opt_unsat_below"], sc.Stats["opt_conflicts"])
		}
	}
}

// TestOptNeverWorseThanHeuristics is the pinned satellite table: on the
// example corpus, wherever opt completes with a proof, its II must be
// <= both mirs's and list's — an optimal backend that loses to a
// heuristic is by definition broken.
func TestOptNeverWorseThanHeuristics(t *testing.T) {
	o := New()
	heuristics := []sched.Scheduler{sched.ListScheduler{}, mirs.New()}
	for _, m := range machines(t) {
		for _, l := range ir.ExampleLoops() {
			sc, err := o.Schedule(&sched.Request{Loop: l, Machine: m})
			if err != nil {
				t.Fatalf("opt %s on %s: %v", l.Name, m.Name, err)
			}
			if sc.Stats["opt_proved"] != 1 {
				continue
			}
			for _, h := range heuristics {
				hs, err := h.Schedule(&sched.Request{Loop: l, Machine: m})
				if err != nil {
					continue // a heuristic may legitimately fail where opt fits
				}
				if sc.II > hs.II {
					t.Errorf("%s on %s: opt II %d > %s II %d despite optimality proof",
						l.Name, m.Name, sc.II, h.Name(), hs.II)
				}
			}
		}
	}
}

// TestOptPinnedII pins exact optimal IIs for a few loops whose optima
// are known by inspection, so an encoder regression that silently
// weakens a constraint (letting II drop below the truth) or tightens
// one (pushing II up) fails loudly.
func TestOptPinnedII(t *testing.T) {
	cases := []struct {
		loop *ir.Loop
		mach *machine.Machine
		ii   int
	}{
		{ir.SingleInstruction(), machine.Unified(), 1},
		{ir.DotProduct(), machine.Unified(), 2},
		{ir.FIR8(), machine.Unified(), 9},
		{ir.LongChain(), machine.Unified(), 3},
		{ir.Hydro(), machine.Paper4Cluster(), 5},
		{ir.CarriedCopy3(), machine.Tight(), 2},
	}
	s := New()
	for _, c := range cases {
		sc, err := s.Schedule(&sched.Request{Loop: c.loop, Machine: c.mach})
		if err != nil {
			t.Fatalf("%s on %s: %v", c.loop.Name, c.mach.Name, err)
		}
		if sc.Stats["opt_proved"] != 1 {
			t.Fatalf("%s on %s: not proved", c.loop.Name, c.mach.Name)
		}
		if sc.II != c.ii {
			t.Errorf("%s on %s: II = %d, want %d", c.loop.Name, c.mach.Name, sc.II, c.ii)
		}
	}
}

// TestOptDeterministic pins byte-level determinism of the full search:
// two independent runs agree on placements and stats.
func TestOptDeterministic(t *testing.T) {
	for _, m := range machines(t) {
		l := ir.FIR8()
		a, err := New().Schedule(&sched.Request{Loop: l, Machine: m})
		if err != nil {
			t.Fatalf("run 1 on %s: %v", m.Name, err)
		}
		b, err := New().Schedule(&sched.Request{Loop: l, Machine: m})
		if err != nil {
			t.Fatalf("run 2 on %s: %v", m.Name, err)
		}
		if a.II != b.II {
			t.Fatalf("II diverged on %s: %d vs %d", m.Name, a.II, b.II)
		}
		for id := range a.Placements {
			if a.Placements[id] != b.Placements[id] {
				t.Fatalf("placement %d diverged on %s", id, m.Name)
			}
		}
		for k, v := range a.Stats {
			if b.Stats[k] != v {
				t.Fatalf("stat %s diverged on %s: %d vs %d", k, m.Name, v, b.Stats[k])
			}
		}
	}
}

// TestOptTinyBudget pins budget semantics: a budget too small to prove
// anything still returns either a valid (unproven) schedule or a clean
// error — never a wrong answer. Three loops suffice (the property is
// per-candidate, not per-corpus) and keep the CNF-per-candidate cost of
// a budget-1 sweep out of the test's wall clock.
func TestOptTinyBudget(t *testing.T) {
	s := New(WithBudget(1))
	for _, l := range []*ir.Loop{ir.SingleInstruction(), ir.DotProduct(), ir.CarriedCopy3()} {
		sc, err := s.Schedule(&sched.Request{Loop: l, Machine: machine.Paper4Cluster()})
		if err != nil {
			continue // legitimately out of budget everywhere
		}
		if verr := sc.Validate(); verr != nil {
			t.Fatalf("%s: invalid schedule under tiny budget: %v", l.Name, verr)
		}
	}
}

// TestOptCancellation pins that a cancelled request context aborts the
// sweep with the context error instead of running to completion.
func TestOptCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New().Schedule(&sched.Request{Ctx: ctx, Loop: ir.FIR8(), Machine: machine.Unified()})
	if err == nil {
		t.Fatal("cancelled request returned a schedule")
	}
}

// TestOptGenCorpusSmall sweeps seeded generated small loops on every
// machine: every answer must validate, prove optimality within the
// default budget (the >= 80% acceptance bar, pinned here at 100% for
// this population), and beat-or-match the heuristics.
func TestOptGenCorpusSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	loops := gen.Corpus(1, 40)
	o := New()
	li := sched.ListScheduler{}
	start := time.Now()
	total, proved := 0, 0
	for _, m := range machines(t) {
		for _, l := range loops {
			if l.NumInstrs() > 12 {
				continue
			}
			total++
			sc, err := o.Schedule(&sched.Request{Loop: l, Machine: m})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			if sc.Stats["opt_proved"] == 1 {
				proved++
				if ls, err := li.Schedule(&sched.Request{Loop: l, Machine: m}); err == nil && sc.II > ls.II {
					t.Errorf("%s on %s: opt II %d > list II %d despite proof", l.Name, m.Name, sc.II, ls.II)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no small loops in corpus")
	}
	if proved*10 < total*8 {
		t.Errorf("proved %d/%d < 80%%", proved, total)
	}
	t.Logf("proved %d/%d small loops in %v", proved, total, time.Since(start))
}

// TestWorkspaceMatchesNewSolver is the differential test of workspace
// reuse on the formulas opt actually builds: every candidate formula
// from MII to MII+2 of the small example and generated loops on every
// machine, and of fir8 on tight, built one after another in one
// workspace, must reach the same verdict after the same conflicts with
// the same model as on a new solver. The loops vary in size and
// machine, so each formula lands on tables and chunks the previous one
// left dirty; the small budget cuts fir8's solves off.
func TestWorkspaceMatchesNewSolver(t *testing.T) {
	const budget = 300
	reqs := []*sched.Request{{Loop: ir.FIR8(), Machine: machine.Tight()}}
	for _, l := range append(ir.ExampleLoops(), gen.Corpus(1, 24)...) {
		if l.NumInstrs() <= 12 {
			for _, m := range machines(t) {
				reqs = append(reqs, &sched.Request{Loop: l, Machine: m})
			}
		}
	}
	reused := &encoder{s: sat.New()}
	seen := map[sat.Status]int{}
	for _, req := range reqs {
		l, m := req.Loop, req.Machine
		g, mii, maxII, err := sched.Prepare(req)
		if err != nil {
			t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
		}
		ana, err := newAnalysis(req, g, mii, maxII)
		if err != nil {
			t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
		}
		for ii := mii.MII; ii <= mii.MII+2; ii++ {
			fresh := (&encoder{s: sat.New()}).build(ana, ii)
			st := fresh.s.Solve(budget, nil)
			rst := reused.build(ana, ii).s.Solve(budget, nil)
			if rst != st || reused.s.Conflicts() != fresh.s.Conflicts() || reused.s.NumClauses() != fresh.s.NumClauses() {
				t.Fatalf("%s on %s at II=%d: workspace (%v, %d conflicts, %d clauses) vs new solver (%v, %d, %d)",
					l.Name, m.Name, ii, rst, reused.s.Conflicts(), reused.s.NumClauses(), st, fresh.s.Conflicts(), fresh.s.NumClauses())
			}
			if st == sat.Sat {
				for v := 0; v < fresh.s.NumVars(); v++ {
					if reused.s.Value(v) != fresh.s.Value(v) {
						t.Fatalf("%s on %s at II=%d: models differ at variable %d", l.Name, m.Name, ii, v)
					}
				}
			}
			seen[st]++
		}
	}
	if seen[sat.Sat] == 0 || seen[sat.Unsat] == 0 || seen[sat.Unknown] == 0 {
		t.Fatalf("verdicts %v: the formulas must cover sat, unsat and budget-exhausted solves", seen)
	}
}

// TestTransferGroupsFirstAppearance pins transferGroups against the
// obvious keyed construction: one group per (producer, register) of a
// cross-instruction true dependence, groups and consumers in
// first-appearance edge order, which variable numbering depends on.
func TestTransferGroupsFirstAppearance(t *testing.T) {
	for _, l := range append(ir.ExampleLoops(), gen.Corpus(1, 24)...) {
		g, err := ir.Build(l, machine.Paper4Cluster(), nil)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		var want []xferGroup
		idx := map[[2]int]int{}
		for _, e := range g.Edges {
			if e.Kind != ir.DepTrue || e.From == e.To {
				continue
			}
			k := [2]int{e.From, int(e.Reg)}
			gi, ok := idx[k]
			if !ok {
				gi = len(want)
				idx[k] = gi
				want = append(want, xferGroup{from: e.From, reg: e.Reg})
			}
			want[gi].cons = append(want[gi].cons, e.To)
		}
		got := transferGroups(g)
		if !slices.EqualFunc(got, want, func(a, b xferGroup) bool {
			return a.from == b.from && a.reg == b.reg && slices.Equal(a.cons, b.cons)
		}) {
			t.Fatalf("%s: transferGroups = %v, want %v", l.Name, got, want)
		}
	}
}
