package gen

import (
	"reflect"
	"testing"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// checkLoop asserts the full generated-loop contract: the loop validates,
// its DDG builds with an acyclic intra-iteration subgraph, ComputeMII
// terminates with a sane bound, and every registered backend compiles it
// to a Validate-clean schedule (core.CompileWith re-validates and
// expands) on every reference machine.
func checkLoop(t *testing.T, l *ir.Loop) {
	t.Helper()
	if err := l.Validate(); err != nil {
		t.Fatalf("%s: invalid loop: %v", l.Name, err)
	}
	machines := []*machine.Machine{machine.Unified(), machine.Paper4Cluster()}
	for _, m := range machines {
		g, err := ir.Build(l, m, nil)
		if err != nil {
			t.Fatalf("%s on %s: build: %v", l.Name, m.Name, err)
		}
		if _, err := g.IntraTopoOrder(); err != nil {
			t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
		}
		mii, err := sched.ComputeMII(g, m)
		if err != nil {
			t.Fatalf("%s on %s: mii: %v", l.Name, m.Name, err)
		}
		if mii.MII < 1 {
			t.Fatalf("%s on %s: MII %d < 1", l.Name, m.Name, mii.MII)
		}
		for _, be := range core.Backends() {
			r, err := core.CompileWith(be, l, m)
			if err != nil {
				t.Fatalf("%s on %s by %s: %v", l.Name, m.Name, be.Name(), err)
			}
			if r.Schedule.II < mii.MII {
				t.Fatalf("%s on %s by %s: II %d below MII %d", l.Name, m.Name, be.Name(), r.Schedule.II, mii.MII)
			}
		}
	}
}

// TestGeneratedLoopsCompileClean is the core property over every knob
// corner: a spread of seeds per corner, all compiling Validate-clean on
// both backends and both reference machines.
func TestGeneratedLoopsCompileClean(t *testing.T) {
	for _, k := range Corners() {
		k := k
		t.Run(k.Tag, func(t *testing.T) {
			t.Parallel()
			for s := uint64(0); s < 6; s++ {
				checkLoop(t, Generate(Mix(40+s, int(s)), k))
			}
		})
	}
}

// TestZeroAndExtremeKnobs pins that normalization makes any Knobs value
// generate a valid loop: the zero value, forced-zero ratios, and
// out-of-range values.
func TestZeroAndExtremeKnobs(t *testing.T) {
	cases := []Knobs{
		{},
		{Ops: 1},
		{Ops: -5, MemRatio: -1, StoreRatio: -1, MulRatio: -1, RecurrenceDensity: -1, MaxRecurrenceDepth: -3, PressureBias: -1, MultiDefRatio: -1, LiveIns: -2, Pointers: -2},
		{Ops: 80, MemRatio: 9, StoreRatio: 9, MulRatio: 9, RecurrenceDensity: 9, MaxRecurrenceDepth: 6, PressureBias: 9, MultiDefRatio: 9, LiveIns: 5, Pointers: 4},
		{MemRatio: 1, StoreRatio: 1},
	}
	for i, k := range cases {
		checkLoop(t, Generate(uint64(i)*977+3, k))
	}
}

// TestDeterminism asserts the byte-level reproducibility contract:
// the same (seed, knobs) yields deeply equal loops, and a golden
// rendering pins the PRNG stream itself so an accidental change to the
// generator or its splitmix64 constants fails loudly rather than
// silently invalidating every seed-keyed baseline.
func TestDeterminism(t *testing.T) {
	for _, k := range Corners() {
		a, b := Generate(1234, k), Generate(1234, k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("corner %s: two generations of seed 1234 differ", k.Tag)
		}
	}
	l := Generate(7, Knobs{Tag: "golden", Ops: 4})
	got := ""
	for _, in := range l.Instrs {
		got += in.String() + "; "
	}
	const want = "v4 = fmul v2, v2; v5 = fmul v4; v6 = add v5, v3; v7 = add v4; v0 = add v0; v1 = add v1; br v0; "
	if got != want {
		t.Fatalf("golden stream changed:\n got  %q\n want %q\n(if intentional, every seed-keyed baseline must be refreshed)", got, want)
	}
}

// TestCorpusPrefixStable asserts loop i depends only on (seed, i), so a
// grown corpus keeps its prefix — the property CI relies on when it
// compares populations by (seed, n).
func TestCorpusPrefixStable(t *testing.T) {
	long := Corpus(99, 25)
	short := Corpus(99, 10)
	if !reflect.DeepEqual(long[:10], short) {
		t.Fatal("corpus prefix changed when n grew")
	}
	names := map[string]bool{}
	for _, l := range long {
		if names[l.Name] {
			t.Fatalf("duplicate generated loop name %q", l.Name)
		}
		names[l.Name] = true
	}
	// CornerCorpus shares Corpus's derivation: fixing loop i's corner
	// reproduces it exactly, name included — the repro-reduction path.
	corners := Corners()
	single := CornerCorpus(99, 13, corners[12%len(corners)])
	if !reflect.DeepEqual(single[12], long[12]) {
		t.Fatalf("CornerCorpus did not reproduce corpus loop 12:\n%+v\nvs\n%+v", single[12], long[12])
	}
}

// TestCorpusLoopMatchesCorpus pins that the per-index generator the
// single-loop commands (msched trace/exec -i N) use builds exactly the
// loop Corpus places at that index.
func TestCorpusLoopMatchesCorpus(t *testing.T) {
	const n = 25
	corpus := Corpus(7, n)
	for i := 0; i < n; i++ {
		if got := CorpusLoop(7, i); !reflect.DeepEqual(got, corpus[i]) {
			t.Fatalf("CorpusLoop(7, %d) differs from Corpus(7, %d)[%d]:\n%+v\nvs\n%+v", i, n, i, got, corpus[i])
		}
	}
}
