package vm

import (
	"fmt"
	"slices"
	"strings"

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
// (the exec explainer, which also wants the listing). It decodes the
// program once for all its runs, and runs the sequential reference once,
// up to the largest trip, taking each trip's reference as the run
// passes it. Every trip must be at most MaxTrip.
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
	pred := make([]int, 0, len(trips)+1)
	for _, trip := range append([]int{prog.Trip}, trips...) {
		if trip >= 1 && !slices.Contains(pred, trip) {
			pred = append(pred, trip)
		}
	}
	for _, trip := range pred {
		if err := checkTrip("verify", trip); err != nil {
			return nil, err
		}
	}

	p, err := decodeProgram(sem, prog)
	if err != nil {
		return nil, err
	}
	h, err := decodeSeq(sem)
	if err != nil {
		return nil, err
	}
	sorted := slices.Clone(pred)
	slices.Sort(sorted)
	refs := h.run(slices.Clone(p.mem), sorted)
	ref := func(trip int) *State {
		i, _ := slices.BinarySearch(sorted, trip)
		return refs[i]
	}
	want := ref(prog.Trip)
	rep.SeqCycles = want.Cycles

	m := p.newRunState()
	mve, err := p.run(m, ModeMVE, prog.Trip)
	if err != nil {
		return nil, err
	}
	rep.MVECycles = mve.Cycles
	rep.Mismatches = append(rep.Mismatches, DiffStates("mve", mve, want, len(want.Mem))...)

	for _, trip := range pred {
		got, err := p.run(m, ModePredicated, trip)
		if err != nil {
			return nil, err
		}
		rep.Trips = append(rep.Trips, trip)
		want = ref(trip)
		rep.Mismatches = append(rep.Mismatches,
			DiffStates(fmt.Sprintf("pred@%d", trip), got, want, len(want.Mem))...)
	}
	return rep, nil
}
