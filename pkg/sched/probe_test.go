package sched

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// scriptProber is a Prober whose sweep walks a fixed candidate list and
// whose attempter succeeds at one candidate, recording everything Drive
// does to it.
type scriptProber struct {
	probeErr  error
	cands     []int
	win       int // succeeding candidate; -1 for none
	onAttempt func(cand int)

	sweep     *scriptSweep
	attempted []int
	badCalls  int // attempts with a non-nil ctx or a foreign recorder
	rec       trace.Recorder
}

func (p *scriptProber) Name() string { return "script" }

func (p *scriptProber) Schedule(req *Request) (*Schedule, error) { return Drive(req, p) }

func (p *scriptProber) Probe(*Request) (Sweep, func() Attempter, error) {
	if p.probeErr != nil {
		return nil, nil, p.probeErr
	}
	p.sweep = &scriptSweep{cands: p.cands}
	return p.sweep, func() Attempter { return p }, nil
}

func (p *scriptProber) AttemptII(ctx context.Context, cand int, rec trace.Recorder) Attempt {
	p.attempted = append(p.attempted, cand)
	if ctx != nil || rec != p.rec {
		p.badCalls++
	}
	if p.onAttempt != nil {
		p.onAttempt(cand)
	}
	if cand == p.win {
		return Attempt{Schedule: &Schedule{II: cand}, Completed: true}
	}
	return Attempt{}
}

type scriptSweep struct {
	cands    []int
	i        int
	consumed []int
	out      *Schedule
}

func (w *scriptSweep) Next() (int, bool) {
	if w.out != nil || w.i >= len(w.cands) {
		return 0, true
	}
	return w.cands[w.i], false
}

func (w *scriptSweep) Consume(cand int, a Attempt) {
	w.consumed = append(w.consumed, cand)
	w.i++
	w.out = a.Schedule
}

func (w *scriptSweep) Result() (*Schedule, error) {
	if w.out == nil {
		return nil, errors.New("script: candidates exhausted")
	}
	return w.out, nil
}

// TestDriveProbeErrorPropagates pins that invalid input rejected by
// Probe reaches the caller unchanged, with no attempt run.
func TestDriveProbeErrorPropagates(t *testing.T) {
	bad := errors.New("script: bad request")
	p := &scriptProber{probeErr: bad}
	if _, err := Drive(&Request{}, p); !errors.Is(err, bad) {
		t.Fatalf("Drive error = %v, want %v", err, bad)
	}
	if len(p.attempted) != 0 {
		t.Fatalf("attempted %v after a Probe error", p.attempted)
	}
}

// TestDriveConsumesInNextOrder pins the sequential contract: each
// candidate Next returns is attempted once on the request's recorder with
// a nil ctx, then consumed, in exactly Next's order — including
// a sweep that jumps — and the sweep's Result is returned.
func TestDriveConsumesInNextOrder(t *testing.T) {
	buf := &trace.Buffer{}
	p := &scriptProber{cands: []int{0, 1, 3, 7, 8}, win: 7, rec: buf}
	s, err := Drive(&Request{Recorder: buf}, p)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || s.II != 7 {
		t.Fatalf("got schedule %+v, want the candidate-7 schedule", s)
	}
	want := []int{0, 1, 3, 7}
	if !reflect.DeepEqual(p.attempted, want) || !reflect.DeepEqual(p.sweep.consumed, want) {
		t.Fatalf("attempted %v, consumed %v, want both %v", p.attempted, p.sweep.consumed, want)
	}
	if p.badCalls != 0 {
		t.Fatalf("%d attempts ran with a non-nil ctx or a foreign recorder", p.badCalls)
	}

	p = &scriptProber{cands: []int{0, 1, 2}, win: -1}
	if _, err := Drive(&Request{}, p); err == nil || err.Error() != "script: candidates exhausted" {
		t.Fatalf("exhausted sweep: got %v, want the sweep's own Result error", err)
	}
}

// TestDriveStopsOnCancel pins the between-candidates checkpoint: a
// request cancelled during the first attempt ends the search after that
// attempt with an error wrapping context.Canceled.
func TestDriveStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &scriptProber{cands: []int{0, 1, 2, 3}, win: -1, onAttempt: func(int) { cancel() }}
	_, err := Drive(&Request{Ctx: ctx}, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err=%v, want one wrapping context.Canceled", err)
	}
	if len(p.attempted) != 1 {
		t.Fatalf("attempted %v, want exactly one attempt before the cancel landed", p.attempted)
	}
}

// TestLinearSweepAccept pins the Consume guard: an error-free attempt is
// accepted without touching the state, an attempt error ends the search
// as its outcome, and Succeed settles the sweep.
func TestLinearSweepAccept(t *testing.T) {
	w := &LinearSweep{Cursor: 1, Last: 3}
	if c, done := w.Next(); done || c != 1 {
		t.Fatalf("Next = (%d, %v), want (1, false)", c, done)
	}
	if !w.Accept(Attempt{}) {
		t.Fatal("live candidate rejected")
	}
	if w.Settled() {
		t.Fatal("an undecided sweep reports Settled")
	}

	boom := errors.New("attempt failed")
	if w.Accept(Attempt{Err: boom}) {
		t.Fatal("failed attempt accepted")
	}
	if !w.Done || !errors.Is(w.Err, boom) || !w.Settled() {
		t.Fatalf("attempt error did not end the search: %+v", w)
	}
	if _, done := w.Next(); !done {
		t.Fatal("Next after an attempt error is not done")
	}

	w = &LinearSweep{Last: 2}
	s := &Schedule{II: 4}
	w.Succeed(s)
	if _, done := w.Next(); !done || w.Out != s || !w.Settled() {
		t.Fatalf("Succeed did not settle the sweep: %+v", w)
	}
	w = &LinearSweep{Cursor: 3, Last: 2}
	if _, done := w.Next(); !done || w.Settled() {
		t.Fatal("a cursor past Last must be done without an outcome")
	}
}

// TestPrepare pins the shared prologue: request analyses are reused, not
// rebuilt; an explicit MaxII passes through even below MII; the default
// horizon is 1 + Σ(latency + bus + 1), at least MII; and incomplete
// requests are errors, not panics.
func TestPrepare(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		l := ir.FIR8()
		g, mii, horizon, err := Prepare(&Request{Loop: l, Machine: m})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		want := 1
		for _, in := range l.Instrs {
			want += m.Latency(in.Class) + m.BusLatency() + 1
		}
		if horizon != want || horizon < mii.MII {
			t.Fatalf("%s: horizon %d, want 1+Σ(lat+bus+1) = %d and >= MII %d", m.Name, horizon, want, mii.MII)
		}
		fresh, err := ComputeMII(g, m)
		if err != nil || !reflect.DeepEqual(fresh, mii) {
			t.Fatalf("%s: Prepare MII %+v, ComputeMII %+v (%v)", m.Name, mii, fresh, err)
		}

		// A deliberately wrong MII proves the request's values are used
		// as given rather than recomputed.
		sentinel := MII{MII: 999, Res: 999}
		g2, mii2, horizon2, err := Prepare(&Request{Loop: l, Machine: m, Graph: g, MII: &sentinel})
		if err != nil {
			t.Fatal(err)
		}
		if g2 != g || !reflect.DeepEqual(mii2, sentinel) || horizon2 != 999 {
			t.Fatalf("%s: reused request analyses: graph same=%v, MII %+v, horizon %d (want clamp to 999)",
				m.Name, g2 == g, mii2, horizon2)
		}

		if _, _, h, err := Prepare(&Request{Loop: l, Machine: m, MaxII: 2}); err != nil || h != 2 {
			t.Fatalf("%s: explicit MaxII 2 below MII: horizon %d, err %v; want 2 unchanged", m.Name, h, err)
		}
	}
	for name, req := range map[string]*Request{
		"nil request": nil,
		"nil loop":    {Machine: machine.Unified()},
		"nil machine": {Loop: ir.FIR8()},
	} {
		if _, _, _, err := Prepare(req); err == nil {
			t.Fatalf("%s: Prepare returned no error", name)
		}
	}
}
