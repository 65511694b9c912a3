package sched

import (
	"context"
	"errors"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// This file defines the speculative-search contract: a backend's II
// search split into a deterministic state machine (Sweep) and a pure
// per-candidate attempt function (Attempter). The split is what lets
// pkg/sched/search probe several candidate IIs concurrently without
// changing a single output byte: the engine may *attempt* candidates in
// any order and in parallel, but results are fed back to the sweep
// strictly in the order the sweep asks for them, so the schedule (and
// its stats, and its trace) is a pure function of (loop, machine,
// options) — never of goroutine completion order. Every backend's
// Schedule is Drive: the identical sweep/attempter pair run by one
// in-order loop, so "parallel output equals sequential output" holds by
// construction, not by a re-implementation kept in sync by hand.
//
// The skeleton every backend shares lives here too: Prepare does the
// per-request analyses a Probe starts with, and LinearSweep is the
// cursor bookkeeping of an ascending candidate sweep, so a backend
// supplies only its escalation policy (Consume), its failure or
// fallback outcome (Result) and its Attempter.

// Attempt is the outcome of scheduling one candidate (one candidate II,
// or one phase-encoded candidate key — see Sweep). It must be a pure
// function of (request, candidate): two attempts of the same candidate
// return equivalent results and emit identical trace events, whichever
// goroutine runs them.
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
	// validation error, or a cancellation (the request's context or the
	// engine's per-probe context).
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
// range). The contract the search engine relies on:
//
//   - Next/Consume alternate: every candidate Next returns is consumed
//     exactly once, in order, before Next is called again. The sweep
//     never sees attempts for candidates it did not ask for.
//   - Speculate predicts candidates the sweep *may* ask for later.
//     Wrong predictions cost wasted work, never wrong answers — the
//     engine discards results the sweep does not request.
//   - After Consume of a successful attempt (or the final candidate),
//     Next reports done and Result returns the search's outcome.
//
// Sweep implementations are not safe for concurrent use; the engine
// confines each sweep to its coordinating goroutine.
type Sweep interface {
	// Next returns the next candidate to attempt, or done=true when the
	// search is decided (success, error, or candidates exhausted).
	Next() (cand int, done bool)
	// Speculate appends up to max candidate keys strictly greater than
	// after that the sweep may request in the future, in ascending
	// order, and returns the extended slice. It must not change the
	// sweep's state.
	Speculate(dst []int, after, max int) []int
	// Consume folds the attempt of cand — the candidate the last Next
	// returned — into the search state.
	Consume(cand int, a Attempt)
	// Result returns the finished search's schedule or error. Only
	// valid once Next has reported done.
	Result() (*Schedule, error)
}

// Attempter runs single-candidate attempts. Each Attempter owns its
// mutable scheduler state (reservation table, pressure tracker, scratch
// pools) and is confined to one goroutine at a time; the immutable
// analyses behind it (graph, MII, heights) are shared read-only across
// the attempters one Probe call hands out. See the "sharing contract"
// note on Prober.
type Attempter interface {
	// AttemptII schedules candidate cand from a fresh per-candidate
	// state. ctx, when non-nil, is the engine's per-probe cancellation
	// — distinct from Request.Ctx — polled inside long backtracking
	// fights so a probe made redundant by a lower II's success stops
	// promptly; a cancelled attempt returns an Attempt whose Err wraps
	// the context error. rec, when non-nil, receives the attempt's
	// trace events; the engine hands each attempt a private buffer and
	// replays the winning candidates' buffers into the caller's
	// recorder in consume order, which is how exports stay
	// byte-identical to a sequential run.
	AttemptII(ctx context.Context, cand int, rec trace.Recorder) Attempt
}

// Prober is a Scheduler whose II search can be driven candidate by
// candidate — the hook pkg/sched/search parallelises through.
//
// Sharing contract: Probe performs the per-request analyses once (graph
// construction, MII, heights, priority orders) and the sweep plus every
// attempter from the factory share them strictly read-only. All mutable
// state — MRTs, pressure trackers, window caches, placement buffers,
// spill-augmented loop clones — is owned by exactly one attempter, and
// each attempter by one goroutine. The factory itself must be safe to
// call from multiple goroutines.
type Prober interface {
	Scheduler
	// Probe starts one search: the sweep, a factory minting
	// independent attempters, or an error for invalid input (the same
	// validation Schedule performs).
	Probe(req *Request) (Sweep, func() Attempter, error)
}

// Drive runs p's II search sequentially: one Probe, one attempter, and
// every candidate attempted and consumed strictly in Next order on the
// request's own recorder. It is every backend's Schedule and the
// probes <= 1 path of pkg/sched/search. The request's context is polled
// between candidates — one attempt is bounded work — so a timed-out
// compilation stops at the next candidate instead of finishing a search
// nobody awaits.
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
// candidate key, and the settled outcome. It implements Next and a
// linear Speculate; the embedding sweep implements Consume — opening
// with Accept, closing with Succeed or a cursor move — and Result,
// opening with Settled.
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

// Speculate implements Sweep: the candidates after `after` in ascending
// order up to Last — exact for a sweep that advances by one, and a safe
// guess for one that sometimes jumps (skipped predictions are wasted
// work the engine discards).
func (w *LinearSweep) Speculate(dst []int, after, max int) []int {
	if w.Done {
		return dst
	}
	for c := after + 1; c <= w.Last && len(dst) < max; c++ {
		dst = append(dst, c)
	}
	return dst
}

// Accept is the guard Consume opens with. It reports whether the attempt
// of cand is live and error-free: false for a stale candidate (not the
// cursor) or an already decided search, and false — after recording the
// error and ending the search — for a failed attempt.
func (w *LinearSweep) Accept(cand int, a Attempt) bool {
	if w.Done || cand != w.Cursor {
		return false
	}
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
