package sched

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

func expand(t *testing.T, l *ir.Loop, m *machine.Machine, g *ir.Graph) (*Schedule, *ExpandedKernel) {
	t.Helper()
	s, err := ListScheduler{}.Schedule(&Request{Loop: l, Machine: m, Graph: g})
	if err != nil {
		t.Fatalf("Schedule(%s on %s): %v", l.Name, m.Name, err)
	}
	ek, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand(%s on %s): %v", l.Name, m.Name, err)
	}
	return s, ek
}

// TestExpandAllExamples: every corpus loop's baseline schedule must
// expand into a Validate-clean kernel on both reference machines, with
// the structural invariants holding: every defined register has a copy
// count dividing the unroll, every instruction's stage lies within the
// schedule's StageCount, and every unrolled iteration defines the copy
// its unroll slot names. (Post-expansion MaxLive
// equalling the steady-state MaxLive is pinned against regpress.Analyze
// in internal/core's TestCompileExpandsEveryResult.)
func TestExpandAllExamples(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster()} {
		for _, l := range ir.ExampleLoops() {
			t.Run(m.Name+"/"+l.Name, func(t *testing.T) {
				s, ek := expand(t, l, m, nil)
				if err := ek.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				if ek.Unroll < 1 {
					t.Fatalf("Unroll = %d", ek.Unroll)
				}
				for id, in := range l.Instrs {
					if st := ek.Stage[id]; st < 0 || st >= s.StageCount() {
						t.Errorf("instruction %d in stage %d, want [0, %d)", id, st, s.StageCount())
					}
					for j, d := range in.Defs {
						c := ek.Copies[d]
						if c < 1 || ek.Unroll%c != 0 {
							t.Errorf("copy count %d of %s does not divide unroll %d", c, d, ek.Unroll)
						}
						for u := range ek.Unroll {
							if got := ek.Def(id, j, u); got != (RegCopy{Reg: d, Copy: u % c}) {
								t.Errorf("instruction %d iteration %d defines %s, want %s.%d", id, u, got, d, u%c)
							}
						}
					}
				}
			})
		}
	}
}

// TestExpandSingleInstruction: the degenerate loop needs no rotation —
// unroll 1, a single-stage kernel with empty prologue and epilogue.
func TestExpandSingleInstruction(t *testing.T) {
	s, ek := expand(t, ir.SingleInstruction(), machine.Unified(), nil)
	if ek.Unroll != 1 {
		t.Errorf("Unroll = %d, want 1", ek.Unroll)
	}
	if sc := s.StageCount(); sc != 1 || ek.Stage[0] != 0 {
		t.Errorf("%d stages, instruction 0 in stage %d; want one stage, so no prologue or epilogue", sc, ek.Stage[0])
	}
}

// TestExpandCarriedCopy3 pins deep rotation: the distance-3 carried use
// keeps v4 live across three full IIs, so v4 needs at least 3 rotating
// copies, the kernel unrolls by a multiple of that, and each unrolled
// iteration reads the copy defined three iterations earlier.
func TestExpandCarriedCopy3(t *testing.T) {
	l := ir.CarriedCopy3()
	_, ek := expand(t, l, machine.Unified(), nil)
	c := ek.Copies[ir.VReg(4)]
	if c < 3 {
		t.Fatalf("copies(v4) = %d, want >= 3 (distance-3 self use)", c)
	}
	if ek.Unroll%c != 0 || ek.Unroll < 3 {
		t.Errorf("unroll %d not a multiple >= copies %d", ek.Unroll, c)
	}
	// The fmul of iteration u defines v4.(u mod c) and reads
	// v4.((u-3) mod c) — the value three iterations old. (When c == 3
	// the read lands on the name being redefined this very cycle; that
	// is legal, operands are read at issue.)
	for u := range ek.Unroll {
		def, use := ek.Def(0, 0, u), ek.Use(0, 0, u)
		if wantDef := u % c; def.Copy != wantDef {
			t.Errorf("iter %d defines %s, want copy %d", u, def, wantDef)
		}
		if wantUse := ((u-3)%c + c) % c; use.Copy != wantUse {
			t.Errorf("iter %d reads %s, want copy %d", u, use, wantUse)
		}
	}
}

// TestExpandRemovesWrapPenalty is the modelling-artifact acceptance
// test: LongChain's multiply latency forces II >= 2 under the default
// wrap-around anti edges, but scheduling against a RenameCopies-relaxed
// graph reaches the resource bound II=1 — and the expansion of that
// schedule validates, i.e. the unexpanded form's wrap-around
// redefinition constraint is absent from the expanded form because the
// overlapping instances live in distinct renamed copies.
func TestExpandRemovesWrapPenalty(t *testing.T) {
	m := machine.Unified()
	l := ir.LongChain()

	strict, err := ListScheduler{}.Schedule(&Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("default schedule: %v", err)
	}
	if strict.II < 2 {
		t.Fatalf("default graph allowed II=%d; wrap-around anti edges should force >= the multiply latency", strict.II)
	}

	relaxed, err := ir.Build(l, m, &ir.BuildOptions{OutputLatency: 1, RenameCopies: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, ek := expand(t, l, m, relaxed)
	if s.II >= strict.II {
		t.Fatalf("relaxed graph II=%d did not beat strict II=%d; kernel-size-for-II trade missing", s.II, strict.II)
	}
	if ek.Unroll < 2 {
		t.Errorf("unroll = %d; lifetimes stretched past II must force rotation", ek.Unroll)
	}
	// The trade is explicit: a register now lives past its own
	// redefinition cycle in the unexpanded frame...
	overlapped := false
	for _, c := range ek.Copies {
		if c > 1 {
			overlapped = true
		}
	}
	if !overlapped {
		t.Error("no register needs more than one copy, yet II dropped — inconsistent")
	}
	// Every use reads the copy its reaching definition wrote, the
	// edge's distance earlier (the highest-indexed true edge wins).
	type site struct{ from, dist int }
	reach := map[[2]int]site{}
	for _, e := range relaxed.Edges {
		if e.Kind != ir.DepTrue {
			continue
		}
		for j, uv := range l.Instrs[e.To].Uses {
			if uv == e.Reg {
				reach[[2]int{e.To, j}] = site{e.From, e.Distance}
			}
		}
	}
	for key, r := range reach {
		jd := slices.Index(l.Instrs[r.from].Defs, l.Instrs[key[0]].Uses[key[1]])
		for u := range 2 * ek.Unroll {
			if got, want := ek.Use(key[0], key[1], u), ek.Def(r.from, jd, u-r.dist); got != want {
				t.Errorf("instruction %d iteration %d reads %s, but instruction %d wrote %s in iteration %d",
					key[0], u, got, r.from, want, u-r.dist)
			}
		}
	}
	// ...and the expanded form provably has no such redefinition
	// (Validate's per-copy def-event scan).
	if err := ek.Validate(); err != nil {
		t.Errorf("expanded kernel invalid: %v", err)
	}
}

// TestExpandedKernelValidateCatchesClobber: corrupting the copy counts
// must be caught by the redefinition scan — the check is live, not
// vacuously true by construction.
func TestExpandedKernelValidateCatchesClobber(t *testing.T) {
	m := machine.Unified()
	l := ir.CarriedCopy3()
	_, ek := expand(t, l, m, nil)
	// Collapse v4's rotation: every iteration now writes the same name
	// while the distance-3 reader still needs the old value.
	ek.Copies[ir.VReg(4)] = 1
	err := ek.Validate()
	if err == nil || !strings.Contains(err.Error(), "redefined") {
		t.Errorf("want redefinition error after collapsing copies, got %v", err)
	}
}

// TestExpandedKernelValidateRejectsNonDividingCopies: names are
// computed as iteration mod copy count, so the prologue, kernel and
// epilogue agree only when every copy count divides the unroll —
// Validate must reject a kernel where one does not.
func TestExpandedKernelValidateRejectsNonDividingCopies(t *testing.T) {
	_, ek := expand(t, ir.CarriedCopy3(), machine.Unified(), nil)
	ek.Copies[ir.VReg(4)] = ek.Unroll + 1
	err := ek.Validate()
	if err == nil || !strings.Contains(err.Error(), "does not divide") {
		t.Errorf("want a does-not-divide error for copy count %d at unroll %d, got %v", ek.Unroll+1, ek.Unroll, err)
	}
}

// TestExpandCopyCounts pins ExpandWith's rotating copy count at the
// reuse boundary on a two-instruction loop: v1 is defined at cycle def
// and last read at cycle use, so it lives use-def cycles past its
// definition and needs ceil((use-def)/II) names, at least one. Reuse
// exactly at the last-use cycle is legal: operands are read at issue.
func TestExpandCopyCounts(t *testing.T) {
	cases := []struct {
		name               string
		def, use, ii, want int
	}{
		{"dead value", 0, 0, 1, 1},
		{"fits inside one II", 0, 3, 4, 1},
		{"reuse at the last-use cycle", 0, 4, 4, 1},
		{"one cycle past the boundary", 0, 5, 4, 2},
		{"late definition", 2, 7, 4, 2},
		{"II=1: a new copy every cycle", 0, 6, 1, 6},
		{"three IIs", 5, 11, 2, 3},
	}
	m := machine.Unified()
	l := &ir.Loop{Name: "pair", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{9}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
	}}
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &Schedule{Loop: l, Machine: m, Graph: g, II: c.ii,
				Placements: []Placement{{Cycle: c.def}, {Cycle: c.use}}}
			ek, err := s.ExpandWith(life.Lifetimes(s.LifeView()))
			if err != nil {
				t.Fatal(err)
			}
			if got := ek.Copies[1]; got != c.want {
				t.Errorf("copies(v1) live [%d,%d] at II=%d = %d, want %d", c.def, c.use, c.ii, got, c.want)
			}
			if ek.Unroll != c.want {
				t.Errorf("unroll = %d, want %d", ek.Unroll, c.want)
			}
		})
	}
}

// TestExpandAllocs pins ExpandWith's allocations to one small constant
// (7, measured with Go 1.24): the kernel stores its renaming rule, not
// one renamed operand list per unrolled instance, so neither the unroll
// factor nor the instruction count may show in the count. The kernels
// span unroll 1 to 6 and 1 to 36 instructions.
func TestExpandAllocs(t *testing.T) {
	const limit = 7
	var scheds []*Schedule
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, l := range ir.ExampleLoops() {
			s, _ := expand(t, l, m, nil)
			scheds = append(scheds, s)
		}
	}
	relaxed, err := ir.Build(ir.LongChain(), machine.Unified(), &ir.BuildOptions{OutputLatency: 1, RenameCopies: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := expand(t, ir.LongChain(), machine.Unified(), relaxed)
	scheds = append(scheds, s)
	maxUnroll, maxInstrs, lo, hi := 0, 0, math.Inf(1), 0.0
	for _, s := range scheds {
		lts := life.Lifetimes(s.LifeView())
		var ek *ExpandedKernel
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if ek, err = s.ExpandWith(lts); err != nil {
				t.Fatal(err)
			}
		})
		maxUnroll, maxInstrs = max(maxUnroll, ek.Unroll), max(maxInstrs, s.Loop.NumInstrs())
		lo, hi = min(lo, allocs), max(hi, allocs)
		if allocs > limit {
			t.Errorf("%s on %s (unroll %d, %d instructions): %.0f allocs per ExpandWith, want <= %d",
				s.Loop.Name, s.Machine.Name, ek.Unroll, s.Loop.NumInstrs(), allocs, limit)
		}
	}
	t.Logf("%d kernels, unroll up to %d, up to %d instructions: %.0f-%.0f allocs per ExpandWith", len(scheds), maxUnroll, maxInstrs, lo, hi)
	if hi != lo {
		t.Errorf("allocs per ExpandWith range over %.0f-%.0f, want one constant", lo, hi)
	}
	if maxUnroll < 2 {
		t.Errorf("largest unroll %d: the corpus must include rotating kernels", maxUnroll)
	}
}

// TestExpandedKernelValidateCatchesLiveInAlias: a use that no true edge
// reaches is renamed to the live-in name (copy 0) — which is only sound
// if the loop never defines that register. Simulate the unsound case by
// flipping the reaching true edge to a memory edge after expansion: the
// use's register is still defined in the loop, so Validate must reject
// the kernel rather than let an emitter alias the live-in name with the
// rotating copy-0 definitions.
func TestExpandedKernelValidateCatchesLiveInAlias(t *testing.T) {
	m := machine.Unified()
	l := ir.DotProduct()
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ek := expand(t, l, m, g)
	if err := ek.Validate(); err != nil {
		t.Fatalf("untampered kernel: %v", err)
	}
	// Flip one reaching DepTrue edge in place (indices unchanged, so the
	// graph's adjacency stays consistent). Pick an edge whose (To, Reg)
	// pair has no other true edge, so the use really loses its reaching
	// definition.
	tampered := false
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind != ir.DepTrue {
			continue
		}
		alone := true
		for j := range g.Edges {
			if j != i && g.Edges[j].Kind == ir.DepTrue && g.Edges[j].To == e.To && g.Edges[j].Reg == e.Reg {
				alone = false
				break
			}
		}
		if alone {
			e.Kind = ir.DepMem
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no solely-reaching DepTrue edge found to tamper with")
	}
	err = ek.Validate()
	if err == nil || !strings.Contains(err.Error(), "as a live-in") {
		t.Errorf("want live-in aliasing rejection after the flip, got %v", err)
	}
}

// TestExpandRejectsInvalidSchedule: expansion refuses schedules that
// fail Validate.
func TestExpandRejectsInvalidSchedule(t *testing.T) {
	s, _ := expand(t, ir.DotProduct(), machine.Unified(), nil)
	s.II = 0
	if _, err := s.Expand(); err == nil {
		t.Error("Expand accepted an invalid schedule")
	}
}

// TestAddStat: the lazy Stats helper both backends report through.
func TestAddStat(t *testing.T) {
	s := &Schedule{}
	s.AddStat("x", 0)
	if n, ok := s.Stats["x"]; !ok || n != 0 {
		t.Errorf("AddStat(x, 0): Stats = %v, want the key materialised at 0", s.Stats)
	}
	s.AddStat("x", 2)
	s.AddStat("x", 3)
	if s.Stats["x"] != 5 {
		t.Errorf("Stats[x] = %d, want 5", s.Stats["x"])
	}
}
