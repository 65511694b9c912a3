// Package mirs implements the paper's MIRS algorithm — Modulo scheduling
// with Integrated Register Spilling (Zalamea, Llosa, Ayguadé, Valero,
// MICRO 2001) — for clustered VLIW machines, behind the pluggable
// sched.Scheduler interface.
//
// MIRS decides scheduling, cluster assignment and register spilling in a
// single pass. For each candidate II starting at MII it places operations
// in height-priority order, probing the modulo reservation table across
// clusters within each operation's deadline window (earliest start from
// placed predecessors, latest start from placed successors, cross-cluster
// true dependences paying bus latency and bus bandwidth). When no
// position is free the scheduler does not give up like the baseline list
// scheduler: it *force-places* the operation and ejects whatever
// conflicts — the slot's occupant, successors whose deadlines broke, bus
// transfers in the way — via MRT.Release, spending a bounded backtracking
// budget. Whenever a cluster's register pressure exceeds its file
// (tracked incrementally per placement by the same account that settles
// each complete placement), it selects a victim lifetime — longest
// lifetime, fewest uses, per the paper — splices a store/reload pair
// into the live dependence graph as new IR instructions with memory
// dependence edges (ir.Graph.SpliceSpill), and schedules the spill code
// inside the ongoing schedule. Only when the budget is exhausted does II escalate.
//
// Some loops cannot be made to fit at any II: once every long lifetime
// has been spilled, what remains is short-lifetime congestion from the
// packing itself, which neither spilling nor II escalation relieves
// (larger IIs re-pack the same dense cycles). For those the scheduler
// degrades gracefully instead of failing: it returns the least
// overflowing complete schedule it found — still Validate-clean, like
// the baseline's behaviour on register-starved machines — with the
// residual overflow reported in Stats["pressure_excess"].
package mirs

import (
	"context"
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// Scheduler is the MIRS backend. The zero value is not useful; construct
// with New.
type Scheduler struct {
	// maxRetries scales the backtracking budget: at each candidate II the
	// scheduler may force-place (ejecting conflicting operations) at most
	// maxRetries times per instruction before escalating II.
	maxRetries int
	// maxSpills caps the spills materialised at one candidate II; past it
	// the scheduler escalates II instead of spilling further. Zero
	// disables spilling entirely; negative means 2 × the instruction
	// count.
	maxSpills int
}

// New returns the MIRS scheduler in its one configuration: up to eight
// forced placements and two spills per instruction at each candidate
// II.
func New() *Scheduler {
	return &Scheduler{maxRetries: 8, maxSpills: -1}
}

// Name returns "mirs".
func (s *Scheduler) Name() string { return "mirs" }

// stagnationLimit caps the *linear* II escalation once complete
// schedules keep coming back with the same residual overflow: after
// this many consecutive candidates without improvement the search
// switches to geometric steps. Pressure that II escalation can fix
// usually improves within a few steps, but a single long lifetime can
// hold its excess constant across a long II plateau (ceil(L/II) copies
// is flat between L/k and L/(k-1)) before fitting at a much larger II —
// so the sweep must still reach large IIs, just not one cycle at a
// time. Geometric stepping keeps pathological never-fitting loops to
// O(log maxII) extra attempts instead of sweeping hundreds of IIs.
const stagnationLimit = 10

// Schedule implements sched.Scheduler. The returned schedule's Loop and
// Graph are the (possibly spill-augmented) versions the placements refer
// to; Stats reports spill_stores, spill_loads, ejections, and the
// II increase attributable to register pressure (spill_ii_increase: final
// II minus the smallest II at which a complete placement existed before
// pressure was considered). When no II fits the register files (see the
// package comment) the least overflowing complete schedule is returned
// with its residual overflow in Stats["pressure_excess"]; the error path
// is reserved for invalid input and loops with no complete schedule at
// all.
func (s *Scheduler) Schedule(req *sched.Request) (*sched.Schedule, error) { return sched.Drive(req, s) }

// Probe implements sched.Prober: the MIRS II search as a candidate-keyed
// sweep whose keys are the candidate IIs themselves. The sweep and every
// attempter share the graph and MII read-only; each attempter owns a
// full scheduler state (MRT, pressure tracker, window cache, the
// request's heights, pick order and live-in rows, spill-augmented loop
// clones), carved from one arena at its first attempt.
func (s *Scheduler) Probe(req *sched.Request) (sched.Sweep, func() sched.Attempter, error) {
	g, mii, maxII, err := sched.Prepare(req)
	if err != nil {
		return nil, nil, err
	}
	if req.MaxII <= 0 {
		// The safe horizon doubled with headroom: spill code grows the
		// loop, and every II past the bound trivially satisfies
		// loop-carried edges, so the search always terminates. An explicit
		// cap below MII is honoured as stated (and fails).
		maxII = 2*maxII + 8
	}
	maxSpills := s.maxSpills
	if maxSpills < 0 {
		maxSpills = 2 * req.Loop.NumInstrs()
	}
	sw := &iiSweep{
		LinearSweep: sched.LinearSweep{Cursor: mii.MII, Last: maxII},
		req:         req,
		mii:         mii.MII,
		bestExcess:  -1,
	}
	at := attempter{s: s, req: req, g: g, mii: mii.MII, maxSpills: maxSpills}
	return sw, func() sched.Attempter {
		cp := at
		return &cp
	}, nil
}

// iiSweep is the MIRS II search as a state machine: linear escalation
// from MII, switching to geometric steps after stagnationLimit
// consecutive overflowing candidates without improvement, tracking the
// least overflowing complete schedule as the graceful-degradation
// fallback. Candidate keys are the candidate IIs.
type iiSweep struct {
	sched.LinearSweep // Cursor and Last are IIs; Last is the horizon
	req               *sched.Request
	mii               int
	// firstComplete is the smallest II at which a complete placement
	// existed, pressure aside — the baseline for spill_ii_increase.
	firstComplete int
	best          *sched.Schedule
	bestExcess    int
	bestII        int
	stagnant      int
}

// Consume implements sched.Sweep, folding one candidate's attempt into
// the search exactly as the pre-split sequential loop did.
func (w *iiSweep) Consume(cand int, a sched.Attempt) {
	if !w.Accept(a) {
		return
	}
	if a.Completed && w.firstComplete == 0 {
		w.firstComplete = cand
	}
	if a.Schedule != nil && a.Excess == 0 {
		a.Schedule.AddStat("ii_over_mii", cand-w.mii)
		a.Schedule.AddStat("spill_ii_increase", cand-w.firstComplete)
		w.Succeed(a.Schedule)
		return
	}
	if a.Schedule != nil {
		// Complete but overflowing: remember the least bad schedule.
		if w.bestExcess == -1 || a.Excess < w.bestExcess {
			w.best, w.bestExcess, w.bestII, w.stagnant = a.Schedule, a.Excess, cand, 0
		} else {
			w.stagnant++
		}
	}
	if w.stagnant >= stagnationLimit {
		// Overflow plateau: probe geometrically, but never skip the
		// horizon itself — Last is where lifetimes span the fewest
		// copies, so it is always worth one attempt before settling
		// for an overflowing schedule.
		next := cand + 1 + cand/2
		if next > w.Last && cand < w.Last {
			next = w.Last
		}
		w.Cursor = next
	} else {
		w.Cursor = cand + 1
	}
}

// Result implements sched.Sweep.
func (w *iiSweep) Result() (*sched.Schedule, error) {
	if w.Settled() {
		return w.Out, w.Err
	}
	if w.best != nil {
		w.best.AddStat("ii_over_mii", w.bestII-w.mii)
		w.best.AddStat("spill_ii_increase", w.bestII-w.firstComplete)
		w.best.AddStat("pressure_excess", w.bestExcess)
		return w.best, nil
	}
	return nil, fmt.Errorf("mirs: no valid schedule for loop %q on %q within II <= %d",
		w.req.Loop.Name, w.req.Machine.Name, w.Last)
}

// attempter runs one candidate II per call on its own state. The state
// is built on the first attempt, sized for that candidate, and reset for
// every later one.
type attempter struct {
	s         *Scheduler
	req       *sched.Request
	g         *ir.Graph
	mii       int
	maxSpills int
	st        *state
}

// AttemptII implements sched.Attempter: one candidate II on a freshly
// reset state. ctx is unused (see sched.Attempter); the request's own
// context is polled inside the backtracking loop (state.poll).
func (at *attempter) AttemptII(_ context.Context, ii int, rec trace.Recorder) sched.Attempt {
	if at.st == nil {
		st, err := newState(at.g, at.req.Machine, ii)
		if err != nil {
			return sched.Attempt{Err: err}
		}
		at.st = st
	}
	st := at.st
	st.rec = rec
	st.req = at.req
	st.steps = 0
	st.reset(at.req.Loop, at.g, ii, at.s.maxRetries, at.maxSpills)
	hits0, misses0 := st.wc.Stats()
	if rec != nil {
		// Arg carries the MII on the first attempt so a profile can
		// report the search's starting point without recomputing it.
		mark := int64(0)
		if ii == at.mii {
			mark = int64(at.mii)
		}
		rec.Emit(trace.Event{Kind: trace.KindIIStart, II: int32(ii), Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: mark})
	}
	out, completed, excess, err := at.s.tryII(st)
	if err != nil {
		return sched.Attempt{Err: err}
	}
	switch {
	case out == nil || out.Graph != st.own:
	case excess == 0:
		st.own = nil // a fitting schedule ends the search: it keeps own
	default:
		// An overflowing schedule gets an exact-size copy of the
		// spill-augmented loop and graph; own, grown by this attempt's
		// spills, serves the next attempt.
		out.Graph = st.own.Clone()
		out.Loop = out.Graph.Loop
	}
	if rec != nil {
		hits, misses := st.wc.Stats()
		rec.Emit(trace.Event{Kind: trace.KindCacheHit, II: int32(ii), Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: hits - hits0})
		rec.Emit(trace.Event{Kind: trace.KindCacheMiss, II: int32(ii), Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: misses - misses0})
		done := int64(0)
		if completed && excess == 0 {
			done = 1
		}
		rec.Emit(trace.Event{Kind: trace.KindIIEnd, II: int32(ii), Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: done, Aux: int64(excess)})
	}
	return sched.Attempt{Schedule: out, Completed: completed, Excess: excess}
}

// tryII attempts one candidate II on a freshly reset state. On a
// complete placement it returns the (Validate-clean) schedule with its
// residual register overflow — zero when every file fits, the summed
// per-cluster excess when the spill machinery ran out of victims or
// budget first. completed reports whether a full placement (pressure
// aside) was ever reached at this II, which the sweep uses to attribute
// II increases to spilling. A nil schedule with nil error means
// "escalate II".
func (s *Scheduler) tryII(st *state) (*sched.Schedule, bool, int, error) {
	ii := st.ii
	completed := false
	for {
		// Bounded cancellation latency inside the backtracking loop:
		// ejection fights re-enter here once per placement, so a request
		// deadline or cancel lands within a few dozen force-ejects even
		// when one pathological II would churn for milliseconds more.
		if err := st.poll(); err != nil {
			return nil, completed, 0, err
		}
		u := st.nextUnplaced()
		if u < 0 {
			completed = true
			st.compact()
			// Validate the live placement in place; only a schedule the
			// attempt returns is copied out of it.
			st.check = sched.Schedule{Loop: st.loop, Machine: st.m, Graph: st.g, II: ii, Placements: st.plc}
			if err := st.check.Validate(); err != nil {
				return nil, completed, 0, fmt.Errorf("mirs: internal: schedule failed validation at II=%d: %w", ii, err)
			}
			// The tracker now holds every lifetime of the complete
			// placement, so its account is the schedule's pressure.
			excess := 0
			for ci := range st.m.Clusters {
				excess += st.track.Excess(ci)
			}
			if excess == 0 {
				return st.schedule(s.Name()), completed, 0, nil
			}
			// Some register file overflows: spill and keep scheduling (the
			// spill code is now unplaced). When out of victims or budget —
			// relieve then leaves the placement as it was — hand the
			// complete overflowing schedule back and let the II search
			// decide.
			if !st.relieve(true) {
				return st.schedule(s.Name()), completed, excess, nil
			}
			continue
		}
		if !st.place(u) {
			return nil, completed, 0, nil
		}
		// Opportunistic relief as pressure builds.
		for st.relieve(false) {
		}
	}
}
