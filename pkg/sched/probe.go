package sched

import (
	"context"
	"errors"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// This file defines the II-search contract: a backend's II search split
// into a deterministic state machine (Sweep) and a per-candidate attempt
// function (Attempter). Every backend's Schedule is Drive, one in-order
// loop over the pair, so the schedule (and its stats, and its trace) is
// a pure function of (loop, machine, options).
//
// The skeleton every backend shares lives here too: Prepare does the
// per-request analyses a Probe starts with, and LinearSweep is the
// cursor bookkeeping of an ascending candidate sweep, so a backend
// supplies only its escalation policy (Consume), its failure or
// fallback outcome (Result) and its Attempter.

// Attempt is the outcome of scheduling one candidate (one candidate II,
// or one phase-encoded candidate key — see Sweep). It must be a pure
// function of (request, candidate): two attempts of the same candidate
// return equivalent results and emit identical trace events.
type Attempt struct {
	// Schedule is the complete, Validate-clean schedule the attempt
	// produced, or nil when the candidate yielded none. A backend that
	// degrades gracefully (MIRS) may return a complete schedule whose
	// register pressure still overflows; Excess reports the residue.
	Schedule *Schedule
	// Completed reports whether a full placement was reached at this
	// candidate, pressure aside — the signal MIRS uses to attribute II
	// increases to spilling rather than to resources.
	Completed bool
	// Excess is the summed per-cluster register overflow of Schedule;
	// zero when every file fits.
	Excess int
	// Work is the attempt's backend-defined logical work — for the exact
	// backend, the CDCL conflicts it spent. It never decides success.
	Work int
	// Err is the attempt's failure: invalid input, an internal
	// validation error, or a cancellation of the request's context.
	Err error
}

// Success reports whether the attempt ended the search: a clean
// schedule with no residual register overflow.
func (a Attempt) Success() bool {
	return a.Err == nil && a.Schedule != nil && a.Excess == 0
}

// Sweep is one II search as a deterministic state machine. Candidates
// are integer keys, strictly increasing in the order Next returns them;
// a key encodes whatever the backend escalates over (for the list
// scheduler the single-cluster fallback phase rides in the key's upper
// range). The contract Drive follows:
//
//   - Next/Consume alternate: every candidate Next returns is consumed
//     exactly once, in order, before Next is called again. The sweep
//     never sees attempts for candidates it did not ask for.
//   - After Consume of a successful attempt (or the final candidate),
//     Next reports done and Result returns the search's outcome.
//
// Sweep implementations are not safe for concurrent use.
type Sweep interface {
	// Next returns the next candidate to attempt, or done=true when the
	// search is decided (success, error, or candidates exhausted).
	Next() (cand int, done bool)
	// Consume folds the attempt of cand — the candidate the last Next
	// returned — into the search state.
	Consume(cand int, a Attempt)
	// Result returns the finished search's schedule or error. Only
	// valid once Next has reported done.
	Result() (*Schedule, error)
}

// Attempter runs single-candidate attempts, reusing its mutable
// scheduler state (reservation table, pressure tracker, scratch pools)
// from one candidate to the next. It is not safe for concurrent use.
type Attempter interface {
	// AttemptII schedules candidate cand from a fresh per-candidate
	// state. ctx is unused: backends ignore it and poll Request.Ctx
	// instead. It stays in the signature because hand-written drivers
	// (the benchmark module's traced pipeline) call
	// AttemptII(nil, cand, rec). rec, when
	// non-nil, receives the attempt's trace events.
	AttemptII(ctx context.Context, cand int, rec trace.Recorder) Attempt
}

// Prober is a Scheduler whose II search can be driven candidate by
// candidate, by Drive or by a hand-written driver that times each
// attempt. Probe performs the per-request analyses once (graph
// construction, MII, heights, priority orders); the sweep and the
// attempters from the factory share them read-only, and all mutable
// state — MRTs, pressure trackers, window caches, placement buffers,
// spill-augmented loop clones — belongs to one attempter.
type Prober interface {
	Scheduler
	// Probe starts one search: the sweep, a factory minting
	// independent attempters, or an error for invalid input (the same
	// validation Schedule performs).
	Probe(req *Request) (Sweep, func() Attempter, error)
}

// Drive runs p's II search: one Probe, one attempter, and every
// candidate attempted and consumed strictly in Next order on the
// request's own recorder. It is every backend's Schedule. The request's
// context is polled between candidates — one attempt is bounded work —
// so a timed-out compilation stops at the next candidate instead of
// finishing a search nobody awaits.
func Drive(req *Request, p Prober) (*Schedule, error) {
	sw, mk, err := p.Probe(req)
	if err != nil {
		return nil, err
	}
	at := mk()
	for {
		cand, done := sw.Next()
		if done {
			return sw.Result()
		}
		if err := req.Cancelled(); err != nil {
			return nil, err
		}
		sw.Consume(cand, at.AttemptII(nil, cand, req.Recorder))
	}
}

// Prepare performs the per-request analyses every II search starts
// with: the dependence graph (req.Graph, or ir.Build's default), the MII
// bound (req.MII, or ComputeMII) and the II horizon. An explicit
// req.MaxII is returned unchanged, even below MII (the search then
// fails, as asked). Otherwise the horizon is the safe bound
// 1 + Σ(latency + bus latency + 1) over the loop's instructions, clamped
// to at least MII: flat start cycles never exceed the summed effective
// latencies plus one resource stall per instruction, and any II past
// that satisfies every loop-carried edge, so a search up to it
// terminates.
func Prepare(req *Request) (*ir.Graph, MII, int, error) {
	if req == nil || req.Loop == nil || req.Machine == nil {
		return nil, MII{}, 0, errors.New("sched: request missing loop or machine")
	}
	var err error
	g := req.Graph
	if g == nil {
		if g, err = ir.Build(req.Loop, req.Machine, nil); err != nil {
			return nil, MII{}, 0, err
		}
	}
	var mii MII
	if req.MII != nil {
		mii = *req.MII
	} else if mii, err = ComputeMII(g, req.Machine); err != nil {
		return nil, MII{}, 0, err
	}
	if req.MaxII > 0 {
		return g, mii, req.MaxII, nil
	}
	horizon := 1
	bus := req.Machine.BusLatency()
	for _, in := range req.Loop.Instrs {
		horizon += req.Machine.Latency(in.Class) + bus + 1
	}
	return g, mii, max(horizon, mii.MII), nil
}

// LinearSweep is the state every ascending candidate sweep shares,
// meant for embedding: the cursor (the candidate Next returns), the last
// candidate key, and the settled outcome. It implements Next; the
// embedding sweep implements Consume — opening with Accept, closing with
// Succeed or a cursor move — and Result, opening with Settled.
type LinearSweep struct {
	// Cursor is the candidate the search needs next.
	Cursor int
	// Last is the final candidate key, inclusive.
	Last int
	// Done reports that the search is decided.
	Done bool
	// Out is the winning schedule, once one was consumed.
	Out *Schedule
	// Err is the attempt error that ended the search.
	Err error
}

// Next implements Sweep.
func (w *LinearSweep) Next() (int, bool) {
	if w.Done || w.Cursor > w.Last {
		return 0, true
	}
	return w.Cursor, false
}

// Accept is the guard Consume opens with. It reports whether the attempt
// is error-free; a failed attempt records its error, ends the search and
// reports false. Drivers feed candidates in Next order, so the attempt
// is always the cursor's.
func (w *LinearSweep) Accept(a Attempt) bool {
	if a.Err != nil {
		w.Err, w.Done = a.Err, true
		return false
	}
	return true
}

// Succeed ends the search with s as its outcome.
func (w *LinearSweep) Succeed(s *Schedule) { w.Out, w.Done = s, true }

// Settled reports whether the search ended with an outcome — a schedule
// in Out or an error in Err — that Result should return as-is.
func (w *LinearSweep) Settled() bool { return w.Out != nil || w.Err != nil }
