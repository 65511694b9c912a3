// Package core wires the public packages into a single compilation entry
// point: dependence analysis, MII computation, modulo scheduling and
// register-pressure analysis in one call. It is the facade the batch
// driver and the msched CLI build on.
package core

import (
	"context"
	"fmt"
	"runtime/debug"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/opt"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// Result is everything one compilation produces.
type Result struct {
	// Graph is the input loop's data dependence graph. A spilling backend
	// may schedule an augmented clone instead; Schedule.Loop and
	// Schedule.Graph are the versions the placements actually refer to.
	Graph *ir.Graph
	// MII is the initiation-interval lower bound every backend starts
	// from: max(ResMII, RecMII), plus the cluster lift (MII.Lift) when a
	// recurrence no cluster can seat rules out II = RecMII.
	MII sched.MII
	// Schedule is the valid modulo schedule the backend produced.
	Schedule *sched.Schedule
	// Pressure is the register-pressure profile of Schedule.
	Pressure *regpress.Result
	// Expanded is the modulo-variable-expanded kernel of Schedule:
	// unroll factor, rotating register copies, prologue/epilogue stage
	// maps. It is always Validate-clean — CompileWith fails instead of
	// returning a kernel with a wrap-around redefinition.
	Expanded *sched.ExpandedKernel
	// Verified is the differential-execution report (pkg/vm): the
	// expanded kernel emitted to architectural bundles and executed
	// against the sequential reference on identical machine images. Nil
	// unless Opts.Exec asked for it. A semantic mismatch does NOT error
	// the compilation — it lands in Verified.Mismatches so batch drivers
	// and CLIs can report exactly which words diverged; only structural
	// failures (emission or interpretation impossible) are errors.
	Verified *vm.Report
}

// Summary renders a one-line result digest for logs and CLIs: the II
// against its lower bound (ResMII, RecMII and, when MII is above both,
// the cluster lift), steady-state pressure, and the kernel unroll
// factor expansion needs. Backends that spill
// also report their store/reload traffic and the II increase pressure
// cost them (from Schedule.Stats).
func (r *Result) Summary() string {
	lift := ""
	if r.MII.Lift > 0 {
		lift = fmt.Sprintf(" +%d cluster lift", r.MII.Lift)
	}
	s := fmt.Sprintf("%s on %s: II=%d (ResMII=%d RecMII=%d%s) stages=%d MaxLive=%d unroll=%d by %s",
		r.Schedule.Loop.Name, r.Schedule.Machine.Name, r.Schedule.II,
		r.MII.Res, r.MII.Rec, lift, r.Schedule.StageCount(), r.Pressure.MaxLive,
		r.Expanded.Unroll, r.Schedule.By)
	if st := r.Schedule.Stats; st != nil && st["spill_stores"]+st["spill_loads"] > 0 {
		s += fmt.Sprintf(" spills=%d/%d(+%dII)", st["spill_stores"], st["spill_loads"], st["spill_ii_increase"])
	}
	return s
}

// Backends returns the registered scheduler backends, baseline first:
// the greedy list scheduler and the paper's MIRS (backtracking with
// integrated register spilling). Benchmarks and corpus sweeps iterate
// this list so every new backend is exercised by CompileWith across the
// whole example corpus.
func Backends() []sched.Scheduler {
	return []sched.Scheduler{sched.ListScheduler{}, mirs.New()}
}

// Opts carries the optional knobs of a compilation. The zero value is
// the default pipeline.
type Opts struct {
	// Recorder, when non-nil, receives the backend's search trace
	// (pkg/trace): II attempts, placements, ejections, spills. A nil
	// Recorder — the default — compiles with tracing fully disabled at
	// zero cost; attaching one never changes the compilation result,
	// only observes it.
	Recorder trace.Recorder
	// Exec differentially executes every successful compilation: the
	// expanded kernel is emitted to bundles (pkg/emit) and interpreted
	// (pkg/vm) against the sequential reference, with the outcome on
	// Result.Verified. The oracle seed is derived from the loop name, so
	// every loop of a corpus exercises different addresses and operand
	// values while the whole sweep stays byte-deterministic.
	Exec bool
}

// CompileWith runs the full pipeline on loop l for machine m with
// scheduler s, no cancellation and the default Opts — the signature
// test and benchmark callers use when no deadline applies.
func CompileWith(s sched.Scheduler, l *ir.Loop, m *machine.Machine) (*Result, error) {
	return CompileWithOpts(context.Background(), s, l, m, Opts{})
}

// CompileWithOpts runs the full pipeline with an explicit scheduler
// backend under a cancellable context: it builds the dependence graph,
// computes MII, schedules, validates and analyses register pressure,
// then expands (and, with Opts.Exec, executes) the result; see Opts for
// the other knobs. The returned schedule is guaranteed Validate-clean:
// regpress.Analyze re-validates backend output. Every failure is an
// error: a backend or analysis panic is recovered into one carrying the
// recovered value and a trimmed stack, so one pathological loop costs a
// batch one outcome, not the sweep. ctx reaches the backend via
// sched.Request.Ctx; a deadline aborts the II search at its next
// checkpoint and the error wraps ctx.Err() for errors.Is.
func CompileWithOpts(ctx context.Context, s sched.Scheduler, l *ir.Loop, m *machine.Machine, opts Opts) (r *Result, err error) {
	if s == nil || l == nil || m == nil {
		return nil, fmt.Errorf("core: nil scheduler, loop or machine")
	}
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			if len(stack) > 2048 {
				stack = stack[:2048]
			}
			r, err = nil, fmt.Errorf("core: panic compiling loop %q: %v\n%s", l.Name, p, stack)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	g, err := ir.Build(l, m, nil)
	if err != nil {
		return nil, err
	}
	// The request reads the bound where the result keeps it, so the
	// bound is not allocated on its own.
	res := &Result{Graph: g}
	if res.MII, err = sched.ComputeMII(g, m); err != nil {
		return nil, err
	}
	req := &sched.Request{Ctx: ctx, Loop: l, Machine: m, Graph: g, MII: &res.MII, Recorder: opts.Recorder}
	out, err := s.Schedule(req)
	if err != nil {
		return nil, fmt.Errorf("core: backend %q: %w", s.Name(), err)
	}
	// Analyze validates the schedule, so backend bugs surface here with
	// the backend's name attached — no separate Validate pass needed.
	press, err := regpress.Analyze(out)
	if err != nil {
		return nil, fmt.Errorf("core: backend %q: %w", s.Name(), err)
	}
	// Expansion is self-checked: a kernel with a renamed register
	// redefined before its last use never leaves this boundary. Analyze
	// already validated the schedule and enumerated its lifetimes, so
	// expansion reuses both instead of recomputing.
	ek, err := out.ExpandWith(press.Lifetimes)
	if err != nil {
		return nil, fmt.Errorf("core: backend %q: %w", s.Name(), err)
	}
	res.Schedule, res.Pressure, res.Expanded = out, press, ek
	if opts.Exec {
		res.Verified, err = vm.Verify(ek, vm.Options{Seed: ExecSeed(l.Name)})
		if err != nil {
			return nil, fmt.Errorf("core: backend %q: exec: %w", s.Name(), err)
		}
	}
	return res, nil
}

// ExecSeed derives the differential-execution oracle seed for a loop: an
// FNV-1a fold of the name mixed into the oracle's default seed. Keyed on
// the name so a corpus sweep exercises a different address/operand
// pattern per loop, a pure function so artifacts stay byte-identical.
func ExecSeed(loopName string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(loopName); i++ {
		h = (h ^ uint64(loopName[i])) * 0x100000001b3
	}
	return h ^ vm.DefaultSeed
}

// Opt returns the exact SAT-based backend (pkg/opt) with the given
// per-candidate-II conflict budget; budget <= 0 means opt.DefaultBudget.
// It resolves by name in the CLI ("-backend opt") but is deliberately
// not part of Backends(): the quality gates sweep heuristic backends
// over large corpora, while opt's role is the optimality-gap table
// (`msched compare`), where its per-loop proofs are the yardstick the
// heuristics are measured against.
func Opt(budget int64) sched.Scheduler {
	return opt.New(opt.WithBudget(budget))
}
