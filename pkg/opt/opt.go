// Package opt is the exact modulo scheduler: the third backend
// (`backend=opt`) that answers "what is the optimal II?" instead of
// approximating it. For each candidate II from MII upward it encodes
// find-schedule-at-this-II as CNF (encode.go), solves it with the
// in-tree deterministic CDCL solver (pkg/opt/sat), and decodes the first
// SAT model into a sched.Schedule that must pass Schedule.Validate. An
// UNSAT answer is a *certificate* that no schedule exists at that II, so
// when every candidate below the found II came back UNSAT the result is
// provably optimal — the measured floor the II-gap reporting
// (internal/report, msched compare) tracks MIRS against.
//
// The search is time-boxed per candidate by a conflict budget rather
// than a wall clock, which keeps the outcome — schedule, stats, proof
// status — a pure deterministic function of (loop, machine, budget). A
// budget exhaustion downgrades "optimal" to "feasible" (the schedule is
// still valid; the floor below it is just unproven), never to a wrong
// answer.
//
// opt knows nothing about register pressure: it ignores capacity and
// never spills (the deliberate deviation from the paper's MIRS —
// docs/OPTIMALITY.md §Deviations). MaxLive is measured on its schedules
// after the fact by pkg/regpress, so the MaxLive-gap column is
// informational, not an optimum.
//
// The backend implements sched.Prober, so sched.Drive runs its II search
// like every other backend's.
package opt

import (
	"context"
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/opt/sat"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// Name is the backend name ("opt").
const Name = "opt"

// DefaultBudget is the per-candidate-II conflict budget: two orders of
// magnitude above what any loop of the seeded small-loop gap corpus
// needs (those prove in well under a thousand conflicts), small enough
// that a pathologically hard packing instance — a large loop one slot
// short of its resource bound — costs seconds, not minutes, per
// candidate before the sweep moves on with an "unknown" mark.
const DefaultBudget = 10_000

// Options configures the scheduler.
type Options struct {
	// Budget caps the CDCL conflicts spent per candidate II; <= 0 means
	// DefaultBudget. The budget is the completeness/time trade: an
	// exhausted budget turns that candidate's answer into "unknown" and
	// the final schedule's optimality flag off.
	Budget int64
}

// Option mutates Options.
type Option func(*Options)

// WithBudget sets the per-candidate conflict budget.
func WithBudget(n int64) Option { return func(o *Options) { o.Budget = n } }

// Scheduler is the exact backend. The zero value is not useful; use New.
type Scheduler struct {
	opts Options
}

// New returns an opt scheduler with the given options.
func New(opts ...Option) *Scheduler {
	o := Options{Budget: DefaultBudget}
	for _, fn := range opts {
		fn(&o)
	}
	if o.Budget <= 0 {
		o.Budget = DefaultBudget
	}
	return &Scheduler{opts: o}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return Name }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(req *sched.Request) (*sched.Schedule, error) { return sched.Drive(req, s) }

// Probe implements sched.Prober: candidate key k is II = MII + k, up to
// the safe horizon past which a serial schedule always exists. The sweep
// and every attempter share the analysis (graph, MII, unit tables,
// transfer groups) read-only; each attempt builds its formula in a
// pooled workspace it holds only for that attempt, so attempters carry
// no mutable state at all.
func (s *Scheduler) Probe(req *sched.Request) (sched.Sweep, func() sched.Attempter, error) {
	g, mii, maxII, err := sched.Prepare(req)
	if err != nil {
		return nil, nil, err
	}
	ana, err := newAnalysis(req, g, mii, maxII)
	if err != nil {
		return nil, nil, err
	}
	sw := &optSweep{LinearSweep: sched.LinearSweep{Last: maxII - mii.MII}, req: req, maxII: maxII}
	at := optAttempter{ana: ana, budget: s.opts.Budget}
	return sw, func() sched.Attempter {
		cp := at
		return &cp
	}, nil
}

// optSweep is the exact backend's II search state: candidate key k is
// II = MII + k, ascending until the first SAT. Along the way it counts
// the certificates: UNSAT answers below the final II (the optimality
// proof) and budget-exhausted unknowns (the holes in it).
type optSweep struct {
	sched.LinearSweep
	req   *sched.Request
	maxII int

	unsatBelow     int
	unknownBelow   int
	conflictsBelow int
}

// Consume implements sched.Sweep. The attempt vocabulary (see
// optAttempter.AttemptII): a schedule means SAT; no schedule with
// Completed=true means a finished UNSAT proof; Completed=false means the
// conflict budget ran out first. Every attempt carries the conflicts it
// spent in Work.
func (w *optSweep) Consume(cand int, a sched.Attempt) {
	if !w.Accept(a) {
		return
	}
	if a.Schedule != nil {
		a.Schedule.AddStat("ii_over_mii", cand)
		a.Schedule.AddStat("opt_unsat_below", w.unsatBelow)
		a.Schedule.AddStat("opt_unknown_below", w.unknownBelow)
		proved := 0
		if w.unknownBelow == 0 {
			proved = 1
		}
		a.Schedule.AddStat("opt_proved", proved)
		a.Schedule.AddStat("opt_conflicts", w.conflictsBelow)
		w.Succeed(a.Schedule)
		return
	}
	if a.Completed {
		w.unsatBelow++
	} else {
		w.unknownBelow++
	}
	w.conflictsBelow += a.Work
	w.Cursor++
}

// Result implements sched.Sweep.
func (w *optSweep) Result() (*sched.Schedule, error) {
	if w.Settled() {
		return w.Out, w.Err
	}
	return nil, fmt.Errorf("opt: no schedule found for loop %q on %q within II <= %d (budget may be too small)",
		w.req.Loop.Name, w.req.Machine.Name, w.maxII)
}

// optAttempter runs one candidate II per call. It holds only the shared
// read-only analysis plus the budget; every attempt takes a workspace
// from the pool, builds and solves its formula on the reset solver, and
// returns the workspace once the model is decoded and validated. A reset
// solver behaves exactly as a new one, so attempts are pure.
type optAttempter struct {
	ana    *analysis
	budget int64
}

// AttemptII implements sched.Attempter. Outcome vocabulary:
//
//   - SAT: Attempt{Schedule, Completed: true, Work: conflicts} — the
//     decoded, validated schedule, its own conflicts also in
//     Stats["opt_conflicts"].
//   - UNSAT: Attempt{Completed: true, Work: conflicts} — a proof that
//     no schedule exists at this II.
//   - budget exhausted: Attempt{Completed: false, Work: conflicts}.
//   - request cancelled: Attempt{Err}.
//
// The first three are pure functions of (request, candidate, budget);
// only cancellation is timing-dependent. ctx is unused (see
// sched.Attempter); the solver polls the request's own context.
func (at *optAttempter) AttemptII(_ context.Context, cand int, rec trace.Recorder) sched.Attempt {
	ii := at.ana.mii.MII + cand
	if rec != nil {
		mark := int64(0)
		if cand == 0 {
			mark = int64(at.ana.mii.MII)
		}
		rec.Emit(trace.Event{Kind: trace.KindIIStart, II: int32(ii), Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: mark})
	}
	enc := newEncoder(at.ana, ii)
	defer enc.release() // after decode and Validate, which read the model
	reqCtx := at.ana.req.Ctx
	var stop func() bool
	if reqCtx != nil {
		stop = func() bool { return reqCtx.Err() != nil }
	}
	st := enc.s.Solve(at.budget, stop)
	conflicts := int(enc.s.Conflicts())
	emitEnd := func(complete int64, verdict string) {
		if rec != nil {
			e := trace.Event{Kind: trace.KindIIEnd, II: int32(ii), Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: complete}
			if verdict != "" {
				e.Aux, e.Label = int64(conflicts), verdict
			}
			rec.Emit(e)
		}
	}
	switch st {
	case sat.Sat:
		s, err := enc.decode()
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			// An invalid decode is an encoder bug: surface it loudly
			// instead of quietly escalating II past the truth.
			emitEnd(0, "")
			return sched.Attempt{Err: fmt.Errorf("opt: II=%d model failed validation: %w", ii, err)}
		}
		s.AddStat("opt_conflicts", conflicts)
		emitEnd(1, trace.VerdictSat)
		return sched.Attempt{Schedule: s, Completed: true, Work: conflicts}
	case sat.Unsat:
		emitEnd(0, trace.VerdictUnsat)
		return sched.Attempt{Completed: true, Work: conflicts}
	default:
		if reqCtx != nil && reqCtx.Err() != nil {
			return sched.Attempt{Err: fmt.Errorf("opt: request cancelled: %w", reqCtx.Err())}
		}
		emitEnd(0, trace.VerdictUnknown)
		return sched.Attempt{Completed: false, Work: conflicts}
	}
}
