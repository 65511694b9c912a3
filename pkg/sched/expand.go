package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/life"
)

// MaxUnroll bounds the expanded kernel's unroll factor. The lcm of the
// rotating copy counts grows combinatorially — a loop carrying values
// across many iterations (deep CarriedUses distances) can demand an
// astronomically large unroll whose expansion would exhaust memory (and,
// first, overflow the lcm arithmetic). Expansion is only worth kernel
// sizes a code generator would actually emit; past this bound Expand
// fails fast with ErrUnrollBound instead, and batch drivers record the
// loop as uncompilable-with-MVE rather than hanging a worker on it.
const MaxUnroll = 4096

// ErrUnrollBound marks the Expand failure for kernels whose unroll
// factor would exceed MaxUnroll; match it with errors.Is.
var ErrUnrollBound = errors.New("unroll factor exceeds bound")

// This file implements modulo variable expansion (MVE): turning a valid
// modulo schedule into an emittable kernel for a machine without
// rotating registers. A value whose lifetime exceeds II cycles has
// several instances simultaneously live in the steady state; since every
// iteration writes the same virtual register, the kernel must be
// unrolled and each unrolled iteration's definitions renamed onto
// rotating copies so no instance is clobbered before its last use. The
// copy counts come from pkg/life — the same lifetime intervals register
// pressure is measured on — and the kernel unroll factor is the lcm of
// the per-register counts, so every copy sequence realigns at the
// kernel's end.

// RegCopy names one rotating copy of a virtual register in the expanded
// kernel: copy c of register v holds the values produced by iterations
// i with i mod Copies[v] == c. Live-in registers never rotate and always
// appear as copy 0.
type RegCopy struct {
	// Reg is the original virtual register.
	Reg ir.VReg
	// Copy is the rotating copy index in [0, Copies[Reg]).
	Copy int
}

// String formats a renamed register as "v3.1".
func (rc RegCopy) String() string { return fmt.Sprintf("%s.%d", rc.Reg, rc.Copy) }

// ExpandedKernel is the modulo-variable-expanded form of a schedule:
// the steady-state kernel unrolled Unroll times, with every unrolled
// iteration's operands renamed onto rotating register copies. It stores
// the renaming rule, not its instances: Name, Def and Use compute the
// copy any instance reads or writes, for kernel, prologue and epilogue
// iterations alike. The prologue fills the pipeline stage by stage —
// fill stage p runs every instruction with Stage <= p, for iteration
// p - Stage — and the epilogue drains it — drain stage e runs every
// instruction with Stage >= e+1, for iteration Stage-(e+1) counted back
// from the final one.
type ExpandedKernel struct {
	// Schedule is the schedule the kernel was expanded from.
	Schedule *Schedule
	// Unroll is the kernel unroll factor: the lcm of the per-register
	// copy counts, so that after Unroll iterations every rotation
	// realigns and the kernel can branch back to its own top.
	Unroll int
	// Copies is indexed by register: Copies[v] is v's rotating copy
	// count — the maximum number of simultaneously live instances any
	// of its definitions sustains (1 = no rotation needed) — and 0 for
	// a register the loop does not define. Registers past the end of
	// the slice are not defined either.
	Copies []int
	// Stage is each instruction's kernel stage, flat cycle / II.
	Stage []int

	// dists parallels Loop.Instrs[id].Uses: the dependence distance of
	// each use's reaching definition, -1 where no true edge reaches it.
	dists [][]int32
}

// Name returns the copy of register v that iteration iter writes:
// copy iter mod Copies[v], or copy 0 for a register the loop does not
// define (a live-in never rotates). Any iteration works, negative ones
// included — the prologue and epilogue use the same names as the kernel
// because every copy count divides Unroll.
func (ek *ExpandedKernel) Name(v ir.VReg, iter int) RegCopy {
	c := ek.copies(v)
	if c < 1 {
		return RegCopy{Reg: v}
	}
	return RegCopy{Reg: v, Copy: ((iter % c) + c) % c}
}

// Def returns the copy instruction id's j-th definition writes in
// iteration iter.
func (ek *ExpandedKernel) Def(id, j, iter int) RegCopy {
	return ek.Name(ek.Schedule.Loop.Instrs[id].Defs[j], iter)
}

// Use returns the copy instruction id's j-th use reads in iteration
// iter: the name its reaching definition wrote, iter minus the edge
// distance, or the live-in name (copy 0) when no true edge reaches it.
func (ek *ExpandedKernel) Use(id, j, iter int) RegCopy {
	v := ek.Schedule.Loop.Instrs[id].Uses[j]
	d := ek.dists[id][j]
	if d < 0 {
		return RegCopy{Reg: v}
	}
	return ek.Name(v, iter-int(d))
}

func (ek *ExpandedKernel) copies(v ir.VReg) int {
	if v < 0 || int(v) >= len(ek.Copies) {
		return 0
	}
	return ek.Copies[v]
}

// Expand performs modulo variable expansion on a valid schedule. It
// enumerates the schedule's lifetimes (pkg/life), derives each defined
// register's rotating copy count from its longest instance — a value
// live L cycles past its definition needs ceil(L/II) register names,
// reuse exactly at the last-use cycle being legal because operands are
// read at issue — and unrolls the kernel by the lcm of those counts.
// The result is self-checked: Expand returns an error if the expanded
// kernel fails Validate, so a returned kernel is guaranteed free of
// wrap-around redefinitions.
func (s *Schedule) Expand() (*ExpandedKernel, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sched: expand: %w", err)
	}
	return s.ExpandWith(life.Lifetimes(s.LifeView()))
}

// ExpandWith is Expand for callers that have already validated the
// schedule and hold its lifetime enumeration — typically the Lifetimes
// of a regpress analysis, which Analyze computed from the same
// life.View. It skips the redundant re-validation and re-enumeration;
// passing lifetimes that do not belong to this schedule yields a
// kernel-validation error at best and a nonsense kernel at worst.
func (s *Schedule) ExpandWith(lts []life.Lifetime) (*ExpandedKernel, error) {
	n := s.Loop.NumInstrs()

	// Rotating copy counts. With several definition sites of one
	// register in the body, all sites of one iteration share a copy
	// name, and the name recurs Copies[v] iterations later at the
	// *earliest* defining site — so the count is measured against the
	// register's earliest definition cycle, not each site's own.
	nregs := 0
	for _, in := range s.Loop.Instrs {
		for _, d := range in.Defs {
			nregs = max(nregs, int(d)+1)
		}
	}
	// Every defined register starts at one copy, which also marks its
	// minStart as set.
	copies := make([]int, nregs)
	minStart := make([]int, nregs)
	for id, in := range s.Loop.Instrs {
		for _, d := range in.Defs {
			if copies[d] == 0 || s.Start(id) < minStart[d] {
				copies[d], minStart[d] = 1, s.Start(id)
			}
		}
	}
	for _, lt := range lts {
		if lt.Def < 0 || lt.Cluster != s.Placements[lt.Def].Cluster {
			continue // live-ins don't rotate; remote ends never exceed local
		}
		copies[lt.Reg] = max(copies[lt.Reg], (lt.End-minStart[lt.Reg]+s.II-1)/s.II)
	}
	unroll := 1
	for _, c := range copies {
		if c > 0 {
			unroll = lcm(unroll, c)
		}
		if unroll > MaxUnroll {
			return nil, fmt.Errorf("sched: expand: kernel unroll (lcm of rotating copy counts, >%d) %w", MaxUnroll, ErrUnrollBound)
		}
	}

	ek := &ExpandedKernel{
		Schedule: s,
		Unroll:   unroll,
		Copies:   copies,
		Stage:    make([]int, n),
		dists:    useDists(s),
	}
	for id := range ek.Stage {
		ek.Stage[id] = s.Start(id) / s.II
	}

	if err := ek.validate(lts, ek.dists); err != nil {
		return nil, fmt.Errorf("sched: expand: internal: %w", err)
	}
	return ek, nil
}

// Validate checks the expanded kernel: the underlying schedule is valid,
// the unroll factor is within MaxUnroll and a multiple of every copy
// count, and — the property expansion exists to establish — no renamed
// register copy is redefined before the last use of the value it holds,
// i.e. the wrap-around redefinition constraint of the unexpanded form
// is absent. It re-derives the reaching definitions from the schedule's
// graph, so a use that lost its reaching edge is rejected rather than
// silently read as a live-in.
func (ek *ExpandedKernel) Validate() error {
	if ek.Schedule == nil {
		return fmt.Errorf("sched: expanded kernel without schedule")
	}
	if err := ek.Schedule.Validate(); err != nil {
		return err
	}
	return ek.validate(life.Lifetimes(ek.Schedule.LifeView()), useDists(ek.Schedule))
}

// validate is Validate with the schedule check, lifetime enumeration and
// reaching-definition derivation hoisted out, so Expand — which has just
// validated the schedule and already holds all three — does not pay for
// them twice.
func (ek *ExpandedKernel) validate(lts []life.Lifetime, dists [][]int32) error {
	s := ek.Schedule
	if ek.Unroll < 1 {
		return fmt.Errorf("sched: expanded kernel with unroll %d < 1", ek.Unroll)
	}
	if ek.Unroll > MaxUnroll {
		return fmt.Errorf("sched: expanded kernel unroll %d: %w (%d)", ek.Unroll, ErrUnrollBound, MaxUnroll)
	}
	for v, c := range ek.Copies {
		if c > 0 && ek.Unroll%c != 0 {
			return fmt.Errorf("sched: copy count %d of %s does not divide unroll %d", c, ir.VReg(v), ek.Unroll)
		}
	}
	period := ek.Unroll * s.II

	// No copy redefined before its value's last use. Collect, per
	// renamed copy, every definition event over one expanded period
	// (def time, value end time, both in the flat frame), then check
	// each value dies before the next definition of the same name —
	// the wrap to the following period included. A redefinition *at*
	// the last-use cycle is legal: operands are read at issue. Events
	// live in one sorted slice, grouped by (register, copy).
	type defEvent struct {
		name   RegCopy
		t, end int
	}
	nLocal := 0
	for _, lt := range lts {
		if lt.Def >= 0 && lt.Cluster == s.Placements[lt.Def].Cluster {
			nLocal++
		}
	}
	events := make([]defEvent, 0, nLocal*ek.Unroll)
	for _, lt := range lts {
		if lt.Def < 0 || lt.Cluster != s.Placements[lt.Def].Cluster {
			continue // live-ins are never redefined; remote copies mirror the local range
		}
		if ek.copies(lt.Reg) < 1 {
			return fmt.Errorf("sched: expanded kernel has no copy count for defined register %s", lt.Reg)
		}
		for u := 0; u < ek.Unroll; u++ {
			events = append(events, defEvent{name: ek.Name(lt.Reg, u), t: lt.Start + u*s.II, end: lt.End + u*s.II})
		}
	}
	slices.SortFunc(events, func(a, b defEvent) int {
		return cmp.Or(cmp.Compare(a.name.Reg, b.name.Reg), cmp.Compare(a.name.Copy, b.name.Copy), cmp.Compare(a.t, b.t))
	})
	for lo := 0; lo < len(events); {
		hi := lo
		for hi < len(events) && events[hi].name == events[lo].name {
			hi++
		}
		for i := lo; i < hi; i++ {
			ev := events[i]
			next := events[lo].t + period
			if i+1 < hi {
				next = events[i+1].t
			}
			if ev.end > next {
				return fmt.Errorf("sched: renamed register %s defined at cycle %d is redefined at %d before its last use at %d (unroll %d, II %d)",
					ev.name, ev.t, next, ev.end, ek.Unroll, s.II)
			}
		}
		lo = hi
	}

	// A use no true edge reaches is read as the live-in name, copy 0 —
	// sound only if the loop never defines the register, since the
	// iterations with i mod Copies == 0 write that very name. An
	// emitter's allocator would silently alias the two; reject the
	// kernel instead.
	for id, in := range s.Loop.Instrs {
		for j, uv := range in.Uses {
			if dists[id][j] < 0 && ek.copies(uv) > 0 {
				return fmt.Errorf("sched: instruction %d reads %s as a live-in, but %s is defined in the loop — the live-in name %s would be clobbered by the renamed copy 0 definitions",
					id, uv, uv, RegCopy{Reg: uv})
			}
		}
	}
	return nil
}

// String renders the expanded kernel header and per-iteration renamings,
// for debugging.
func (ek *ExpandedKernel) String() string {
	s := ek.Schedule
	var b strings.Builder
	fmt.Fprintf(&b, "%s expanded: II=%d unroll=%d kernel=%d cycles\n",
		s.Loop.Name, s.II, ek.Unroll, ek.Unroll*s.II)
	for u := 0; u < ek.Unroll; u++ {
		for id, in := range s.Loop.Instrs {
			fmt.Fprintf(&b, "  [i%%%d=%d c%d] %s", ek.Unroll, u, (u*s.II+s.Start(id))%(ek.Unroll*s.II), in.Op)
			for j := range in.Defs {
				fmt.Fprintf(&b, "%s %s", sep(j, ""), ek.Def(id, j, u))
			}
			for j := range in.Uses {
				fmt.Fprintf(&b, "%s %s", sep(j, " <-"), ek.Use(id, j, u))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// sep is the operand separator: first before the first operand, a comma
// before the others.
func sep(j int, first string) string {
	if j == 0 {
		return first
	}
	return ","
}

// useDists derives, from the schedule's graph, the dependence distance
// of each use's reaching definition — dists[id][j] parallels
// Instrs[id].Uses, with -1 marking a use no true edge reaches. When
// several true edges target the same (consumer, register) pair the
// highest-indexed edge wins, matching the map-overwrite semantics the
// derivation originally had.
func useDists(s *Schedule) [][]int32 {
	n := s.Loop.NumInstrs()
	total := 0
	for _, in := range s.Loop.Instrs {
		total += len(in.Uses)
	}
	back := make([]int32, total)
	for i := range back {
		back[i] = -1
	}
	dists := make([][]int32, n)
	off := 0
	for id, in := range s.Loop.Instrs {
		dists[id] = back[off : off+len(in.Uses)]
		off += len(in.Uses)
	}
	for i := range s.Graph.Edges {
		e := &s.Graph.Edges[i]
		if e.Kind != ir.DepTrue {
			continue
		}
		for j, uv := range s.Loop.Instrs[e.To].Uses {
			if uv == e.Reg {
				dists[e.To][j] = int32(e.Distance)
			}
		}
	}
	return dists
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}
