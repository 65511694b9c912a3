// Package gen synthesises loop bodies for the ir layer: a deterministic,
// seed-keyed random generator with shape knobs, so scheduler backends can
// be exercised over thousands of structurally diverse loops instead of
// the handful of hand-written examples in pkg/ir.
//
// Determinism is a hard contract: the same (seed, Knobs) pair produces a
// byte-identical loop on every run, platform and Go release. CI gates on
// it — the bench-trajectory comparison and the determinism smoke both
// replay generated corpora by seed. The package therefore ships its own
// tiny PRNG (splitmix64) rather than depending on math/rand, whose
// stream is not part of any compatibility promise.
//
// Every generated loop is valid by construction: it passes ir.Validate,
// ir.Build derives an acyclic intra-iteration dependence graph from it
// (uses only reference earlier definitions or live-ins, carried uses have
// distance >= 1), and it ends with the loop-closing branch the canned
// machines reserve a slot class for. The property tests in this package
// pin all of that, plus "both backends schedule it Validate-clean", over
// a fuzzed seed corpus.
package gen

import (
	"fmt"
	"math"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// Knobs are the shape controls of one generated loop. Each knob corner
// stresses a different scheduler path: op count scales the search space,
// the memory ratio loads the scarce memory ports (ResMII), recurrence
// density/depth moves loops into the RecMII-bound regime, the latency
// mix (multiply ratio) stretches dependence chains, and the pressure
// bias stretches lifetimes until register files overflow and integrated
// spilling has to act.
//
// The zero value of every fractional knob means "use the documented
// default"; pass a negative value to force an actual zero (e.g.
// MemRatio: -1 for a loop with no memory ops at all).
type Knobs struct {
	// Tag labels the knob preset in generated loop names and reports.
	Tag string
	// Ops is the number of generated body operations, excluding the
	// loop-control tail (pointer updates + branch). Minimum 1; default 12.
	Ops int
	// MemRatio is the fraction of body ops that touch memory (loads and
	// stores), in [0,1]. Default 0.3.
	MemRatio float64
	// StoreRatio is the fraction of memory ops that are stores rather
	// than loads, in [0,1]. Default 0.25.
	StoreRatio float64
	// MulRatio is the fraction of compute (non-memory) ops that are
	// multiplies — the long-latency class — in [0,1]. Default 0.4.
	MulRatio float64
	// RecurrenceDensity is the probability that a compute op closes a
	// loop-carried self-recurrence (it reads its own previous-iteration
	// value), in [0,1]. Default 0.1.
	RecurrenceDensity float64
	// MaxRecurrenceDepth bounds the carried distance of generated
	// recurrences; each draws uniformly from 1..MaxRecurrenceDepth.
	// Clamped to 1..6 (default 2): a distance-k carried value stays live
	// across k initiation intervals and costs k rotating copies at
	// expansion, and the kernel unroll is the lcm of all copy counts —
	// deeper distances quickly exceed sched.MaxUnroll and make loops
	// uncompilable by construction rather than interestingly hard.
	MaxRecurrenceDepth int
	// PressureBias steers operand selection, in [0,1]. At 0 ops consume
	// the most recently produced values, keeping lifetimes short; at 1
	// they draw uniformly from everything ever produced, keeping old
	// values live across the whole body — the high-MaxLive regime.
	PressureBias float64
	// MultiDefRatio is the probability that a compute op redefines an
	// existing value register instead of a fresh one, in [0,1]. Multiple
	// definition sites exercise the DDG builder's nearest-def, anti- and
	// output-chain paths that SSA-shaped bodies never touch. Default 0.05.
	MultiDefRatio float64
	// LiveIns is the number of live-in scalar registers (loop-invariant
	// operands, like FIR coefficients) ops may read. Zero means the
	// default 2; negative forces an actual zero (operands then fall back
	// to pointer registers until generated values exist).
	LiveIns int
	// Pointers is the number of address registers; each gets a tail
	// update (the induction pattern) and loads/stores draw from them.
	// Minimum 1; default 2.
	Pointers int
}

// normalized returns k with unset fields defaulted and out-of-range
// fields clamped, so every Knobs value — including the zero value —
// generates a valid loop.
func (k Knobs) normalized() Knobs {
	if k.Tag == "" {
		k.Tag = "custom"
	}
	if k.Ops < 1 {
		if k.Ops == 0 {
			k.Ops = 12
		} else {
			k.Ops = 1
		}
	}
	clamp := func(f *float64, def float64) {
		if *f == 0 {
			*f = def
		}
		*f = math.Max(0, math.Min(1, *f))
	}
	clamp(&k.MemRatio, 0.3)
	clamp(&k.StoreRatio, 0.25)
	clamp(&k.MulRatio, 0.4)
	clamp(&k.PressureBias, 0)
	clamp(&k.MultiDefRatio, 0.05)
	// A zero recurrence density is a meaningful, common request (purely
	// resource-bound loops), so it defaults to zero rather than to some
	// small positive value: only clamp.
	k.RecurrenceDensity = math.Max(0, math.Min(1, k.RecurrenceDensity))
	if k.MaxRecurrenceDepth < 1 {
		k.MaxRecurrenceDepth = 2
	}
	if k.MaxRecurrenceDepth > 6 {
		k.MaxRecurrenceDepth = 6
	}
	switch {
	case k.LiveIns == 0:
		k.LiveIns = 2
	case k.LiveIns < 0:
		k.LiveIns = 0
	}
	if k.Pointers < 1 {
		k.Pointers = 2
	}
	return k
}

// prng is a splitmix64 generator: tiny, fast, and — unlike math/rand —
// its stream is defined by this package alone, so generated corpora are
// reproducible across Go releases. (Sebastiano Vigna's public-domain
// reference constants.)
type prng struct{ state uint64 }

func newPRNG(seed uint64) *prng { return &prng{state: seed} }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n); n must be positive.
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// float returns a uniform float64 in [0, 1).
func (p *prng) float() float64 { return float64(p.next()>>11) / (1 << 53) }

// chance reports true with probability pr.
func (p *prng) chance(pr float64) bool { return p.float() < pr }

// Mix derives a child seed from a parent seed and an index, so corpus
// loop i is independent of how many loops precede it. It is exported so
// drivers sharding a corpus across workers can re-derive per-loop seeds.
func Mix(seed uint64, i int) uint64 {
	p := newPRNG(seed ^ (0x1d8e4e27c47d124f * (uint64(i) + 1)))
	return p.next()
}

// Generate synthesises one loop from a seed and shape knobs. The result
// is deterministic in (seed, k) and always valid: see the package
// comment for the exact guarantees.
//
// Register layout: v0..v(P-1) are pointers (P = Knobs.Pointers),
// v(P)..v(P+L-1) are live-in scalars, and fresh value registers follow.
// The body is Knobs.Ops generated operations, then one pointer-update
// add per pointer, then the loop-closing branch.
func Generate(seed uint64, k Knobs) *ir.Loop {
	k = k.normalized()
	rng := newPRNG(seed)
	l := &ir.Loop{Name: fmt.Sprintf("g%s-%016x", k.Tag, seed)}

	ptrs := make([]ir.VReg, k.Pointers)
	for i := range ptrs {
		ptrs[i] = ir.VReg(i)
	}
	liveIns := make([]ir.VReg, k.LiveIns)
	for i := range liveIns {
		liveIns[i] = ir.VReg(k.Pointers + i)
	}
	nextReg := ir.VReg(k.Pointers + k.LiveIns)
	fresh := func() ir.VReg {
		v := nextReg
		nextReg++
		return v
	}

	// pool is every value register produced so far, in definition order;
	// operand selection walks it under the pressure bias.
	var pool []ir.VReg
	// scalar returns an operand: a generated value when one exists
	// (biased young or uniform per PressureBias), else a live-in, else —
	// with live-ins forced to zero — a pointer register.
	scalar := func() ir.VReg {
		if len(pool) == 0 || (len(liveIns) > 0 && rng.chance(0.15)) {
			if len(liveIns) == 0 {
				return ptrs[rng.intn(len(ptrs))]
			}
			return liveIns[rng.intn(len(liveIns))]
		}
		if rng.chance(k.PressureBias) {
			return pool[rng.intn(len(pool))] // anywhere: old values stay live
		}
		recent := 3
		if len(pool) < recent {
			recent = len(pool)
		}
		return pool[len(pool)-1-rng.intn(recent)]
	}

	id := 0
	emit := func(op string, class machine.OpClass, defs, uses []ir.VReg, carried map[ir.VReg]int) {
		l.Instrs = append(l.Instrs, &ir.Instruction{
			ID: id, Op: op, Class: class, Defs: defs, Uses: uses, CarriedUses: carried,
		})
		id++
	}

	for n := 0; n < k.Ops; n++ {
		switch {
		case rng.chance(k.MemRatio):
			ptr := ptrs[rng.intn(len(ptrs))]
			if rng.chance(k.StoreRatio) {
				emit("store", machine.ClassMem, nil, []ir.VReg{scalar(), ptr}, nil)
			} else {
				d := fresh()
				emit("load", machine.ClassMem, []ir.VReg{d}, []ir.VReg{ptr}, nil)
				pool = append(pool, d)
			}
		default:
			op, class := "add", machine.ClassALU
			if rng.chance(k.MulRatio) {
				op, class = "fmul", machine.ClassMul
			}
			var d ir.VReg
			redef := len(pool) > 0 && rng.chance(k.MultiDefRatio)
			if redef {
				d = pool[rng.intn(len(pool))]
			} else {
				d = fresh()
			}
			uses := []ir.VReg{scalar()}
			if rng.chance(0.7) {
				uses = append(uses, scalar())
			}
			var carried map[ir.VReg]int
			// A carried self-use closes a recurrence: the op reads its own
			// previous definition from 1..MaxRecurrenceDepth iterations
			// back. Redefined registers are skipped — their definition
			// sites share a rotating-copy name, so the DDG builder keeps
			// strict edges for them and a deep carried read could not be
			// renamed apart.
			if !redef && rng.chance(k.RecurrenceDensity) {
				dist := 1 + rng.intn(k.MaxRecurrenceDepth)
				uses[0] = d
				carried = map[ir.VReg]int{d: dist}
			}
			emit(op, class, []ir.VReg{d}, uses, carried)
			if !redef {
				pool = append(pool, d)
			}
		}
	}

	// Loop-control tail: one induction update per pointer, then the
	// loop-closing branch — the same shape as the hand-written corpus.
	for _, p := range ptrs {
		emit("add", machine.ClassALU, []ir.VReg{p}, []ir.VReg{p}, nil)
	}
	emit("br", machine.ClassBranch, nil, []ir.VReg{ptrs[0]}, nil)
	return l
}

// Corners returns the knob presets the generated corpus cycles through:
// one per scheduler regime the hand-written examples cover, plus the
// corners they do not — every preset stresses a different path through
// MII computation, placement, spilling and expansion.
func Corners() []Knobs {
	return []Knobs{
		{Tag: "balanced", Ops: 12},
		{Tag: "tiny", Ops: 3, MemRatio: 0.2},
		{Tag: "wide", Ops: 28, MemRatio: 0.25, PressureBias: 0.9},
		{Tag: "membound", Ops: 14, MemRatio: 0.6, StoreRatio: 0.35},
		{Tag: "mulchain", Ops: 16, MulRatio: 0.85, PressureBias: 0.2},
		{Tag: "recurrent", Ops: 10, RecurrenceDensity: 0.5, MaxRecurrenceDepth: 3},
		{Tag: "deeprec", Ops: 18, RecurrenceDensity: 0.3, MaxRecurrenceDepth: 4, PressureBias: 0.7},
		{Tag: "pressure", Ops: 36, MemRatio: 0.35, PressureBias: 1, LiveIns: 4},
		{Tag: "multidef", Ops: 15, MultiDefRatio: 0.35},
		{Tag: "storm", Ops: 45, MemRatio: 0.4, StoreRatio: 0.3, MulRatio: 0.6, RecurrenceDensity: 0.15, MaxRecurrenceDepth: 3, PressureBias: 0.8, MultiDefRatio: 0.1, LiveIns: 3, Pointers: 3},
	}
}

// cornerLoop generates corpus member i under knobs k: seed derivation
// and the "g%04d-tag" naming shared by Corpus and CornerCorpus, so a
// loop named in a driver report can always be re-derived from (seed, i,
// knobs).
func cornerLoop(seed uint64, i int, k Knobs) *ir.Loop {
	l := Generate(Mix(seed, i), k)
	l.Name = fmt.Sprintf("g%04d-%s", i, k.normalized().Tag)
	return l
}

// CorpusLoop generates member i of Corpus(seed, n) for any n > i without
// generating the members before it.
func CorpusLoop(seed uint64, i int) *ir.Loop {
	corners := Corners()
	return cornerLoop(seed, i, corners[i%len(corners)])
}

// Corpus generates n loops from a master seed, cycling the knob corners
// so consecutive loops stress different regimes. Loop i is derived with
// Mix(seed, i) and is independent of n — growing a corpus keeps its
// prefix stable, which is what lets CI compare populations by (seed, n).
func Corpus(seed uint64, n int) []*ir.Loop {
	corners := Corners()
	loops := make([]*ir.Loop, 0, n)
	for i := 0; i < n; i++ {
		loops = append(loops, cornerLoop(seed, i, corners[i%len(corners)]))
	}
	return loops
}

// CornerCorpus is Corpus restricted to a single knob preset: loop i is
// the same loop Corpus would generate at index i were k its corner —
// same seed derivation, same naming — which is what lets a driver
// finding from a mixed corpus be reduced to a single-corner repro.
func CornerCorpus(seed uint64, n int, k Knobs) []*ir.Loop {
	loops := make([]*ir.Loop, 0, n)
	for i := 0; i < n; i++ {
		loops = append(loops, cornerLoop(seed, i, k))
	}
	return loops
}
