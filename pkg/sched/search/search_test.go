package search

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// corpusSize returns the differential corpus size: the full 200-loop
// population CI pins, trimmed under -short for the edit loop.
func corpusSize() int {
	if testing.Short() {
		return 60
	}
	return 200
}

func schedulesEqual(t *testing.T, label string, a, b *sched.Schedule) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one schedule nil (seq=%v par=%v)", label, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if a.II != b.II || a.By != b.By {
		t.Fatalf("%s: II/By diverge: seq II=%d by=%q, par II=%d by=%q", label, a.II, a.By, b.II, b.By)
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

func tracesEqual(t *testing.T, label string, a, b *trace.Buffer) {
	t.Helper()
	ae, be := a.Events(), b.Events()
	if len(ae) != len(be) {
		t.Fatalf("%s: trace length diverges: %d vs %d events", label, len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: trace event %d diverges:\nseq %+v\npar %+v", label, i, ae[i], be[i])
		}
	}
}

// TestRunMatchesSequential is the differential gate of the whole layer:
// across backends × machines × the gen corpus, a speculative run at 8
// probes must reproduce the sequential sweep bit for bit — schedule,
// stats, and the complete trace-event stream.
func TestRunMatchesSequential(t *testing.T) {
	machines := []*machine.Machine{machine.Unified(), machine.Tight()}
	backends := []sched.Prober{sched.ListScheduler{}, mirs.New()}
	loops := gen.Corpus(1, corpusSize())
	for _, m := range machines {
		for _, be := range backends {
			be, m := be, m
			t.Run(fmt.Sprintf("%s/%s", be.Name(), m.Name), func(t *testing.T) {
				t.Parallel()
				for _, l := range loops {
					var seqBuf, parBuf trace.Buffer
					seq, seqErr := be.Schedule(&sched.Request{Loop: l, Machine: m, Recorder: &seqBuf})
					par, pstats, parErr := Run(&sched.Request{Loop: l, Machine: m, Recorder: &parBuf}, be, 8)
					if (seqErr == nil) != (parErr == nil) {
						t.Fatalf("%s: error divergence: seq=%v par=%v", l.Name, seqErr, parErr)
					}
					if seqErr != nil {
						if seqErr.Error() != parErr.Error() {
							t.Fatalf("%s: error text divergence: %q vs %q", l.Name, seqErr, parErr)
						}
						continue
					}
					schedulesEqual(t, l.Name, seq, par)
					tracesEqual(t, l.Name, &seqBuf, &parBuf)
					if pstats.Launched == 0 {
						t.Fatalf("%s: parallel run launched no probes", l.Name)
					}
				}
			})
		}
	}
}

// TestRunProbesOne pins that probes <= 1 is the sequential path: no
// goroutines, no stats.
func TestRunProbesOne(t *testing.T) {
	l := gen.Corpus(7, 1)[0]
	m := machine.Unified()
	be := mirs.New()
	seq, err := be.Schedule(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	par, stats, err := Run(&sched.Request{Loop: l, Machine: m}, be, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (Stats{}) {
		t.Fatalf("probes=1 reported stats %+v, want zero", stats)
	}
	schedulesEqual(t, l.Name, seq, par)
}

// fakeProber scripts a three-candidate search for the cancellation unit
// test: candidate 0 fails, candidate 1 succeeds after a short beat, and
// candidate 2 blocks until its per-probe context is cancelled — so the
// test passing at all proves a lower candidate's success cancels the
// probes above it.
type fakeProber struct {
	t *testing.T
}

func (f *fakeProber) Name() string { return "fake" }

func (f *fakeProber) Schedule(req *sched.Request) (*sched.Schedule, error) {
	return sched.Drive(req, f)
}

func (f *fakeProber) Probe(_ *sched.Request) (sched.Sweep, func() sched.Attempter, error) {
	return &fakeSweep{}, func() sched.Attempter { return &fakeAttempter{} }, nil
}

type fakeSweep struct {
	next int
	done bool
	out  *sched.Schedule
}

func (w *fakeSweep) Next() (int, bool) {
	if w.done || w.next > 2 {
		return 0, true
	}
	return w.next, false
}

func (w *fakeSweep) Speculate(dst []int, after, max int) []int {
	for c := after + 1; c <= 2 && len(dst) < max; c++ {
		dst = append(dst, c)
	}
	return dst
}

func (w *fakeSweep) Consume(cand int, a sched.Attempt) {
	if a.Success() {
		w.out, w.done = a.Schedule, true
		return
	}
	w.next++
}

func (w *fakeSweep) Result() (*sched.Schedule, error) {
	if w.out == nil {
		return nil, fmt.Errorf("fake: no schedule")
	}
	return w.out, nil
}

type fakeAttempter struct{}

func (fakeAttempter) AttemptII(ctx context.Context, cand int, _ trace.Recorder) sched.Attempt {
	switch cand {
	case 0:
		return sched.Attempt{} // infeasible, escalate
	case 1:
		time.Sleep(10 * time.Millisecond)
		return sched.Attempt{Schedule: &sched.Schedule{II: 41 + cand}, Completed: true}
	default:
		if ctx == nil {
			// Sequential drive never reaches candidate 2 (candidate 1
			// succeeds first), so a nil ctx here is an ordering bug.
			return sched.Attempt{Err: fmt.Errorf("fake: candidate 2 attempted sequentially")}
		}
		// Block until the engine cancels this probe; without
		// first-success cancellation the whole test times out here.
		<-ctx.Done()
		return sched.Attempt{Err: fmt.Errorf("fake: %w", ctx.Err())}
	}
}

// TestRunFirstSuccessCancelsAbove proves the success-at-k ⇒
// cancel-above-k rule with a scripted prober whose highest candidate
// never terminates on its own.
func TestRunFirstSuccessCancelsAbove(t *testing.T) {
	s, stats, err := Run(&sched.Request{}, &fakeProber{t: t}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || s.II != 42 {
		t.Fatalf("got schedule %+v, want the candidate-1 schedule (II=42)", s)
	}
	if stats.Cancelled < 1 {
		t.Fatalf("stats %+v: expected at least one cancelled probe (candidate 2)", stats)
	}
	if stats.Launched < 3 {
		t.Fatalf("stats %+v: expected all three candidates launched", stats)
	}
}

// TestRunRequestCancelled pins that cancelling the request's own context
// surfaces as an error from the parallel run, same as the sequential
// path.
func TestRunRequestCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := gen.Corpus(3, 1)[0]
	_, _, err := Run(&sched.Request{Ctx: ctx, Loop: l, Machine: machine.Unified()}, mirs.New(), 4)
	if err == nil {
		t.Fatal("expected an error from a pre-cancelled request")
	}
}

// TestPortfolioDeterministic runs the stock portfolio twice over a
// corpus slice and pins the two passes bit-identical — completion order
// of the racing strategies must never reach the result — and checks the
// winner attribution stat is present and in range.
func TestPortfolioDeterministic(t *testing.T) {
	p := DefaultPortfolio()
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
			schedulesEqual(t, l.Name+"/"+m.Name, s1, s2)
			tracesEqual(t, l.Name+"/"+m.Name, &buf1, &buf2)
			win, ok := s1.Stats["portfolio_winner"]
			if !ok || win < 0 || win >= len(p.Strategies()) {
				t.Fatalf("%s/%s: bad portfolio_winner %d (ok=%v)", l.Name, m.Name, win, ok)
			}
		}
	}
}

// TestPortfolioNeverWorseThanMirs pins the point of racing: the
// portfolio's winner is at least as good as the default MIRS strategy it
// contains, under the portfolio's own quality order.
func TestPortfolioNeverWorseThanMirs(t *testing.T) {
	p := DefaultPortfolio()
	m := machine.Tight()
	for _, l := range gen.Corpus(9, 24) {
		ps, perr := p.Schedule(&sched.Request{Loop: l, Machine: m})
		ms, merr := mirs.New().Schedule(&sched.Request{Loop: l, Machine: m})
		if merr != nil {
			continue // portfolio may still win via another strategy
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

// TestConcurrentRuns is the -race regression for the pooled-state
// sharing contract: many compilations, each itself probing in parallel,
// all running concurrently over shared machines and package-level
// caches (unit-preference tables). Any cross-probe mutable sharing
// shows up as a race report here.
func TestConcurrentRuns(t *testing.T) {
	loops := gen.Corpus(11, 24)
	m := machine.Paper4Cluster()
	done := make(chan error, len(loops))
	for _, l := range loops {
		go func(l *ir.Loop) {
			_, _, err := Run(&sched.Request{Loop: l, Machine: m}, mirs.New(), 4)
			done <- err
		}(l)
	}
	for range loops {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
