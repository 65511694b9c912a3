package vm

import (
	"fmt"
	"slices"
	"strings"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// DefaultSeed seeds the oracle when Options.Seed is zero. Any seed
// works; fixing one keeps corpus artifacts byte-identical across runs.
const DefaultSeed = 0x6d697273 // "mirs"

// Options configures a differential verification.
type Options struct {
	// Seed drives the operation semantics; 0 means DefaultSeed.
	Seed uint64
	// PredTrips are extra trip counts to run the predicated plan at (the
	// MVE plan's trip is always covered). Default: one shorter than the
	// pipeline fill and one straddling an extra kernel pass, which
	// exercises squashing at both ends.
	PredTrips []int
}

// Report is the outcome of differentially executing one compilation.
type Report struct {
	// Loop and Machine identify the compilation.
	Loop, Machine string
	// II, Unroll, Stages and Trip echo the emitted program's shape.
	II, Unroll, Stages, Trip int
	// MVEBundles and PredBundles are the code sizes of the two plans;
	// FrameSlots counts register-allocation overflow slots.
	MVEBundles, PredBundles, FrameSlots int
	// SeqCycles is the naive single-issue sequential cost of Trip
	// iterations; MVECycles the pipelined issue span. Their ratio is the
	// realised speedup the schedule delivers.
	SeqCycles, MVECycles int
	// Trips lists every trip count executed (MVE once, predicated all).
	Trips []int
	// Mismatches are the deterministic differences found; empty means
	// every pipelined execution matched the sequential reference bit for
	// bit (final memory, live-out registers, iteration counts).
	Mismatches []string
}

// OK reports whether every execution matched the reference.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

// String renders a one-line digest, with mismatch lines appended when
// verification failed.
func (r *Report) String() string {
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d mismatches)", len(r.Mismatches))
	}
	s := fmt.Sprintf("exec %s on %s: II=%d unroll=%d stages=%d trip=%d seq=%d cyc mve=%d cyc (%.2fx) %s",
		r.Loop, r.Machine, r.II, r.Unroll, r.Stages, r.Trip,
		r.SeqCycles, r.MVECycles, float64(r.SeqCycles)/float64(max(1, r.MVECycles)), status)
	if !r.OK() {
		s += "\n  " + strings.Join(r.Mismatches, "\n  ")
	}
	return s
}

// Verify closes the loop on one compilation: it emits the expanded
// kernel to architectural bundles, binds the seeded operation semantics,
// and executes the sequential reference against the pipelined program —
// the MVE plan at its fixed trip, and the predicated plan at that trip
// plus the option's extra trips. Structural failures (emission, binding,
// interpretation) return an error; semantic differences return a Report
// whose Mismatches list them deterministically.
func Verify(ek *sched.ExpandedKernel, opts Options) (*Report, error) {
	prog, err := emit.Emit(ek)
	if err != nil {
		return nil, err
	}
	return VerifyProgram(ek, prog, opts)
}

// VerifyProgram is Verify for callers that already emitted the program
// (the exec explainer, which also wants the listing). Every trip must be
// at most MaxTrip.
//
// It works per program, not per run: a counting pass sizes one arena
// for the decoded program, the decoded sequential reference and the run
// state, and the runs then allocate nothing. The reference is one
// resumable pass: the runs go in ascending trip order, the reference is
// advanced to each trip, and each pipelined run at that trip is
// compared against it in place. Report.Trips and Report.Mismatches keep
// the documented run order — MVE first, then the predicated trips — and
// an error is the one the first failing run in that order returns.
func VerifyProgram(ek *sched.ExpandedKernel, prog *emit.Program, opts Options) (*Report, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	sem, err := Bind(ek, seed)
	if err != nil {
		return nil, err
	}
	if err := checkProgram(sem, prog); err != nil {
		return nil, err
	}
	rep := &Report{
		Loop: prog.Loop.Name, Machine: prog.Machine.Name,
		II: prog.II, Unroll: prog.Unroll, Stages: prog.Stages, Trip: prog.Trip,
		MVEBundles: prog.MVEBundles(), PredBundles: prog.PredBundles(),
		FrameSlots: len(prog.Frame),
	}

	if prog.Trip < 1 {
		return nil, fmt.Errorf("vm: sequential run needs trip >= 1, got %d", prog.Trip)
	}
	trips := opts.PredTrips
	if trips == nil {
		// Shorter than the pipeline fill (every op squashes at least
		// once) and one extra iteration past a pass boundary.
		trips = []int{prog.Stages, prog.Trip + 1}
	}
	// The predicated plan's trips in run order: the MVE trip first,
	// then each requested trip >= 1 once.
	rep.Trips = make([]int, 1, len(trips)+1)
	rep.Trips[0] = prog.Trip
	for _, trip := range trips {
		if trip >= 1 && !slices.Contains(rep.Trips, trip) {
			rep.Trips = append(rep.Trips, trip)
		}
	}
	for _, trip := range rep.Trips {
		if err := checkTrip("verify", trip); err != nil {
			return nil, err
		}
	}
	if err := sem.checkMemLen(); err != nil {
		return nil, err
	}

	var sz sizes
	sz.countPlan(sem, prog)
	sz.countSeq(sem)
	sz.ints += len(rep.Trips)
	a := sz.alloc()
	var p plan
	var h history
	if err := p.decode(sem, prog, a); err != nil {
		return nil, err
	}
	if err := h.decode(sem, a); err != nil {
		return nil, err
	}
	m := p.newRunState(a)
	rep.SeqCycles = prog.Trip * len(h.ops)

	// Run k is the MVE plan for k = 0, else the predicated plan at
	// rep.Trips[k-1]; found[k] holds its mismatch lines, and the first
	// failing run in that order decides the error.
	var found [][]string
	errRun, runErr := len(rep.Trips)+1, error(nil)
	check := func(k int, got *State, err error, want *State, rt runTag) {
		if err != nil {
			if k < errRun {
				errRun, runErr = k, err
			}
			return
		}
		if diffs := diffStates(rt, got, want, len(want.Mem)); len(diffs) > 0 {
			if found == nil {
				found = make([][]string, len(rep.Trips)+1)
			}
			found[k] = diffs
		}
	}
	order := buf.Carve(&a.ints, len(rep.Trips))
	copy(order, rep.Trips)
	slices.Sort(order)
	for _, trip := range order {
		want := h.advance(trip)
		if trip == prog.Trip {
			got, err := p.run(m, ModeMVE, trip)
			check(0, got, err, want, runTag{mode: "mve", trip: -1})
			if err == nil {
				rep.MVECycles = got.Cycles
			}
		}
		k := 1 + slices.Index(rep.Trips, trip)
		if k > errRun {
			continue
		}
		got, err := p.run(m, ModePredicated, trip)
		check(k, got, err, want, runTag{mode: "pred", trip: trip})
	}
	if runErr != nil {
		return nil, runErr
	}
	for _, diffs := range found {
		rep.Mismatches = append(rep.Mismatches, diffs...)
	}
	return rep, nil
}
