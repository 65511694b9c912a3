package core

import (
	"context"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

func schedulesEqual(t *testing.T, label string, a, b *sched.Schedule) {
	t.Helper()
	if a.II != b.II || a.By != b.By {
		t.Fatalf("%s: II/By diverge: II=%d by=%q vs II=%d by=%q", label, a.II, a.By, b.II, b.By)
	}
	if len(a.Placements) != len(b.Placements) {
		t.Fatalf("%s: placement count diverges: %d vs %d", label, len(a.Placements), len(b.Placements))
	}
	for i := range a.Placements {
		if a.Placements[i] != b.Placements[i] {
			t.Fatalf("%s: placement %d diverges: %+v vs %+v", label, i, a.Placements[i], b.Placements[i])
		}
	}
	if len(a.Stats) != len(b.Stats) {
		t.Fatalf("%s: stats diverge: %v vs %v", label, a.Stats, b.Stats)
	}
	for k, v := range a.Stats {
		if b.Stats[k] != v {
			t.Fatalf("%s: stat %q diverges: %d vs %d", label, k, v, b.Stats[k])
		}
	}
}

// TestPortfolioDeterministic runs the stock portfolio twice over a
// corpus slice and pins the two passes bit-identical, trace included,
// and checks the winner attribution stat is present and in range.
func TestPortfolioDeterministic(t *testing.T) {
	p := Portfolio().(*portfolio)
	n := 40
	if testing.Short() {
		n = 12
	}
	loops := gen.Corpus(5, n)
	for _, m := range []*machine.Machine{machine.Unified(), machine.Tight()} {
		for _, l := range loops {
			var buf1, buf2 trace.Buffer
			s1, err1 := p.Schedule(&sched.Request{Loop: l, Machine: m, Recorder: &buf1})
			s2, err2 := p.Schedule(&sched.Request{Loop: l, Machine: m, Recorder: &buf2})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s/%s: error divergence: %v vs %v", l.Name, m.Name, err1, err2)
			}
			if err1 != nil {
				continue
			}
			label := l.Name + "/" + m.Name
			schedulesEqual(t, label, s1, s2)
			e1, e2 := buf1.Events(), buf2.Events()
			if len(e1) != len(e2) {
				t.Fatalf("%s: trace length diverges: %d vs %d events", label, len(e1), len(e2))
			}
			for i := range e1 {
				if e1[i] != e2[i] {
					t.Fatalf("%s: trace event %d diverges:\n%+v\n%+v", label, i, e1[i], e2[i])
				}
			}
			win, ok := s1.Stats["portfolio_winner"]
			if !ok || win < 0 || win >= len(p.strategies) {
				t.Fatalf("%s: bad portfolio_winner %d (ok=%v)", label, win, ok)
			}
		}
	}
}

// TestPortfolioNeverWorseThanMirs pins the point of the portfolio: its
// winner is at least as good as the default MIRS strategy it contains,
// under the portfolio's own quality order.
func TestPortfolioNeverWorseThanMirs(t *testing.T) {
	p := Portfolio()
	m := machine.Tight()
	for _, l := range gen.Corpus(9, 24) {
		ps, perr := p.Schedule(&sched.Request{Loop: l, Machine: m})
		ms, merr := mirs.New().Schedule(&sched.Request{Loop: l, Machine: m})
		if merr != nil {
			continue // the portfolio may still win via another strategy
		}
		if perr != nil {
			t.Fatalf("%s: portfolio failed where mirs succeeded: %v", l.Name, perr)
		}
		pk, err := qualityOf(ps)
		if err != nil {
			t.Fatal(err)
		}
		mk, err := qualityOf(ms)
		if err != nil {
			t.Fatal(err)
		}
		if mk.better(pk) {
			t.Fatalf("%s: mirs result %+v beats portfolio winner %+v", l.Name, mk, pk)
		}
	}
}

// TestConcurrentRuns is the -race regression for the batch driver's
// concurrency: many CompileWith calls running at once over one shared
// machine and the package-level caches (unit-preference tables). Any
// mutable sharing between compilations shows up as a race report here.
func TestConcurrentRuns(t *testing.T) {
	loops := gen.Corpus(11, 24)
	m := machine.Paper4Cluster()
	done := make(chan error, len(loops))
	for _, l := range loops {
		go func(l *ir.Loop) {
			_, err := CompileWith(mirs.New(), l, m)
			done <- err
		}(l)
	}
	for range loops {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// panicky is a strategy whose Schedule panics.
type panicky struct{}

func (panicky) Name() string { return "panicky" }

func (panicky) Schedule(*sched.Request) (*sched.Schedule, error) { panic("strategy bug") }

// TestPortfolioPanicIsolated pins that a panicking strategy inside a
// portfolio is an ordinary per-loop error from CompileSafeWith, not a
// crash of the whole process.
func TestPortfolioPanicIsolated(t *testing.T) {
	p := &portfolio{strategies: []sched.Scheduler{sched.ListScheduler{}, panicky{}}}
	r, err := CompileSafeWith(context.Background(), p, ir.DotProduct(), machine.Unified(), Opts{})
	if err == nil || r != nil {
		t.Fatalf("got (%v, %v), want a per-loop error", r, err)
	}
	if !strings.Contains(err.Error(), "strategy bug") {
		t.Fatalf("error %q does not carry the panic value", err)
	}
}

// TestPortfolioNilRequest pins that an incomplete request is the same
// error every other backend gives, not a nil dereference.
func TestPortfolioNilRequest(t *testing.T) {
	want := "sched: request missing loop or machine"
	for _, req := range []*sched.Request{nil, {}, {Loop: ir.DotProduct()}} {
		if _, err := Portfolio().Schedule(req); err == nil || err.Error() != want {
			t.Fatalf("Schedule(%+v) error = %v, want %q", req, err, want)
		}
	}
}
