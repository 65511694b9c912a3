// Package life is the single authoritative lifetime model of the
// system: it enumerates the register live ranges a (possibly partial)
// modulo schedule implies — one interval per produced value, plus
// bus-delivered copies in consuming clusters and whole-kernel live-in
// ranges — from a (Loop, Graph, placement) triple.
//
// Every layer that reasons about registers consumes this enumeration
// instead of rolling its own: pkg/regpress folds the intervals into
// per-kernel-cycle pressure counts through one fold (Analyze whole
// schedules, Tracker incrementally — the account pkg/mirs steers and
// settles on), pkg/mirs selects spill victims from them, and
// sched.Schedule.Expand derives modulo-variable-expansion copy counts
// from them. Keeping one enumeration is what makes those layers agree
// by construction: the MaxLive the scheduler steering sees, the MaxLive
// the authoritative analysis reports, and the unroll factor expansion
// needs are all views of the same intervals.
//
// The model follows the paper's MaxLive definition. A value lives from
// the issue cycle of its defining instruction to the issue cycle of its
// last consumer — for a consumer at dependence distance d, that is
// start(consumer) + d·II in the defining iteration's time frame.
// Because iterations overlap every II cycles, an interval of length L
// represents ceil(L/II) simultaneously live copies of the value in the
// steady state; folding the flat interval modulo II (as regpress does)
// or counting the copies directly (as Expand does) are two readings of
// the same object.
package life

import (
	"slices"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// Lifetime is the live range of one value, in the flat (non-modulo)
// time frame of its defining iteration.
type Lifetime struct {
	// Reg is the virtual register holding the value.
	Reg ir.VReg
	// Def is the defining instruction's ID, or -1 for a live-in value
	// (used by the loop but defined outside it), which occupies a
	// register on every kernel cycle.
	Def int
	// Cluster is the cluster whose register file holds the value: the
	// defining instruction's cluster for the original, or a consuming
	// cluster for a bus-delivered copy.
	Cluster int
	// Start is the issue cycle of the definition — or, for a
	// bus-delivered copy, the earlier of its arrival in the consuming
	// cluster and its last use there.
	Start int
	// End is the issue cycle of the last consumer charged to this
	// interval, in the defining iteration's time frame (>= Start; equal
	// when the value is dead or consumed at issue).
	End int
	// Distance is the largest dependence distance among the consumers
	// this interval covers: 0 for a dead value or intra-iteration uses
	// only, >= 1 when a loop-carried read stretches the range.
	Distance int
}

// Length returns the number of cycles the value occupies a register,
// counting the definition cycle itself.
func (lt Lifetime) Length() int { return lt.End - lt.Start + 1 }

// PlacementFunc reports where instruction id currently sits: its flat
// issue cycle and cluster. ok is false while the instruction is
// unplaced, in which case it contributes no lifetimes.
type PlacementFunc func(id int) (cycle, cluster int, ok bool)

// View bundles the inputs of a lifetime enumeration: the loop, its
// dependence graph, the target machine, the candidate II, and a
// placement accessor. The accessor form lets both complete schedules
// (sched.Schedule) and in-flight partial placements (the MIRS state)
// share the enumeration without copying their internal representation.
type View struct {
	// Loop is the loop body whose lifetimes are enumerated.
	Loop *ir.Loop
	// Graph is the loop's dependence graph; true edges define consumers.
	Graph *ir.Graph
	// Machine supplies latencies, bus latency and the cluster count.
	Machine *machine.Machine
	// II is the candidate initiation interval of the placement.
	II int
	// At is the placement accessor; unplaced instructions contribute no
	// lifetimes.
	At PlacementFunc
}

// Lifetimes enumerates every live range the view's placement implies:
// for each placed defining instruction, in ID order, the local lifetime
// followed by its bus-delivered copies in ascending cluster order; then
// the live-in ranges of LiveIns. Unplaced instructions contribute
// nothing — on a complete schedule this is the full pressure picture.
func Lifetimes(v *View) []Lifetime {
	in := liveInTable(v)
	n := 0
	for _, c := range in.consuming {
		if c {
			n++
		}
	}
	for id, ins := range v.Loop.Instrs {
		for _, d := range ins.Defs {
			n += countOfDef(v, id, d)
		}
	}
	var out []Lifetime
	if n > 0 {
		out = make([]Lifetime, 0, n)
	}
	for id, ins := range v.Loop.Instrs {
		for _, d := range ins.Defs {
			out = AppendOfDef(out, v, id, d)
		}
	}
	return in.appendTo(out, v.II)
}

// countOfDef is len(OfDef(v, id, reg)) without enumerating: one local
// lifetime plus one per distinct remote cluster a placed consumer of
// the definition sits on, none while id is unplaced.
func countOfDef(v *View, id int, reg ir.VReg) int {
	_, home, ok := v.At(id)
	if !ok {
		return 0
	}
	n := 1
	succs := v.Graph.Succs(id)
	for i, e := range succs {
		cl, ok := remoteUse(v, e, reg, home)
		if !ok {
			continue
		}
		seen := false
		for _, f := range succs[:i] {
			if c, ok := remoteUse(v, f, reg, home); ok && c == cl {
				seen = true
				break
			}
		}
		if !seen {
			n++
		}
	}
	return n
}

// remoteUse reports the cluster of e's consumer when e is a true edge
// reading reg whose consumer is placed off the home cluster.
func remoteUse(v *View, e *ir.Edge, reg ir.VReg, home int) (int, bool) {
	if e.Kind != ir.DepTrue || e.Reg != reg {
		return 0, false
	}
	_, cl, ok := v.At(e.To)
	return cl, ok && cl != home
}

// OfDef enumerates the live ranges created by instruction id's
// definition of reg: the local lifetime on the defining cluster,
// stretched to the latest placed consumer over the true-dependence
// edges that read this definition (a consumer at distance d reads at
// start(consumer) + d·II), followed by one bus-delivered copy per
// consuming remote cluster, live from arrival (definition + producer
// latency + bus latency, clamped to the last use) to the last local
// use there. It returns nil while id is unplaced.
func OfDef(v *View, id int, reg ir.VReg) []Lifetime {
	return AppendOfDef(nil, v, id, reg)
}

// AppendOfDef is OfDef appending into dst (which may be a truncated
// scratch slice, dst[:0]); it allocates nothing beyond what dst needs to
// grow, so incremental pressure trackers can refresh a definition's
// charged lifetimes in place on every placement change.
func AppendOfDef(dst []Lifetime, v *View, id int, reg ir.VReg) []Lifetime {
	start, home, ok := v.At(id)
	if !ok {
		return dst
	}
	end, dist := start, 0
	// Per-cluster last-use tracking on the stack: issue cycles are
	// non-negative, so -1 marks "no remote consumer on this cluster".
	nc := v.Machine.NumClusters()
	var endBuf, distBuf [16]int
	rEnd, rDist := endBuf[:], distBuf[:]
	if nc > len(endBuf) {
		rEnd, rDist = make([]int, nc), make([]int, nc)
	}
	for c := 0; c < nc; c++ {
		rEnd[c], rDist[c] = -1, 0
	}
	remotes := false
	for _, e := range v.Graph.Succs(id) {
		if e.Kind != ir.DepTrue || e.Reg != reg {
			continue
		}
		ucyc, ucl, placed := v.At(e.To)
		if !placed {
			continue
		}
		use := ucyc + e.Distance*v.II
		if use > end {
			end = use
		}
		if e.Distance > dist {
			dist = e.Distance
		}
		if ucl != home {
			remotes = true
			if use > rEnd[ucl] {
				rEnd[ucl] = use
			}
			if e.Distance > rDist[ucl] {
				rDist[ucl] = e.Distance
			}
		}
	}
	dst = append(dst, Lifetime{Reg: reg, Def: id, Cluster: home, Start: start, End: end, Distance: dist})
	if remotes {
		arrival := start + v.Machine.Latency(v.Loop.Instrs[id].Class) + v.Machine.BusLatency()
		for uc := 0; uc < nc; uc++ {
			if rEnd[uc] < 0 {
				continue
			}
			s0 := arrival
			if s0 > rEnd[uc] {
				s0 = rEnd[uc]
			}
			dst = append(dst, Lifetime{Reg: reg, Def: id, Cluster: uc, Start: s0, End: rEnd[uc], Distance: rDist[uc]})
		}
	}
	return dst
}

// LiveIns enumerates the whole-kernel live ranges of the loop's live-in
// registers (used but never defined in the body — loop invariants, base
// addresses, coefficients): one Lifetime{Def: -1, Start: 0, End: II-1}
// per (register, consuming cluster) pair, registers in ascending order,
// clusters ascending within a register. Only placed consumers charge a
// cluster.
func LiveIns(v *View) []Lifetime {
	return liveInTable(v).appendTo(nil, v.II)
}

// liveIns is the (register, cluster) consumption matrix of a view's
// live-in registers: consuming[reg*nc+ci] says a placed instruction on
// cluster ci reads live-in reg.
type liveIns struct {
	nc        int
	consuming []bool
}

// liveInTable fills the matrix in one allocation, which also holds the
// per-register flags of what the loop defines; a loop reading no
// register allocates nothing.
func liveInTable(v *View) liveIns {
	nc := v.Machine.NumClusters()
	nregs := 0
	for _, in := range v.Loop.Instrs {
		for _, d := range in.Defs {
			nregs = max(nregs, int(d)+1)
		}
		for _, u := range in.Uses {
			nregs = max(nregs, int(u)+1)
		}
	}
	if nregs == 0 {
		return liveIns{nc: nc}
	}
	back := make([]bool, nregs*(1+nc))
	defined, consuming := back[:nregs], back[nregs:]
	for _, in := range v.Loop.Instrs {
		for _, d := range in.Defs {
			defined[d] = true
		}
	}
	for id, in := range v.Loop.Instrs {
		_, cl, ok := v.At(id)
		if !ok {
			continue
		}
		for _, u := range in.Uses {
			if !defined[u] {
				consuming[int(u)*nc+cl] = true
			}
		}
	}
	return liveIns{nc: nc, consuming: consuming}
}

// appendTo appends the whole-kernel lifetime at II ii of every consumed
// (register, cluster) pair, registers ascending, clusters ascending
// within a register.
func (t liveIns) appendTo(dst []Lifetime, ii int) []Lifetime {
	for i, c := range t.consuming {
		if c {
			dst = append(dst, Lifetime{Reg: ir.VReg(i / t.nc), Def: -1, Cluster: i % t.nc, Start: 0, End: ii - 1})
		}
	}
	return dst
}

// LiveInUses returns, per instruction, the distinct live-in registers
// the instruction reads (registers no instruction of the loop defines),
// in first-use order. Schedulers use it to reference-count live-in
// pressure as consumers are placed and ejected.
func LiveInUses(l *ir.Loop) [][]ir.VReg {
	maxDef, nuses := ir.VReg(-1), 0
	for _, in := range l.Instrs {
		for _, d := range in.Defs {
			maxDef = max(maxDef, d)
		}
		nuses += len(in.Uses)
	}
	return LiveInUsesInto(make([][]ir.VReg, len(l.Instrs)), make([]ir.VReg, 0, nuses), make([]bool, maxDef+1), l)
}

// LiveInUsesInto is LiveInUses on supplied storage: rows, one per
// instruction, are capacity-capped slices of regs' spare capacity (the
// loop's operand count always suffices), and defined, at least one
// longer than the largest register the loop defines, is scratch.
func LiveInUsesInto(rows [][]ir.VReg, regs []ir.VReg, defined []bool, l *ir.Loop) [][]ir.VReg {
	clear(defined)
	for _, in := range l.Instrs {
		for _, d := range in.Defs {
			defined[d] = true
		}
	}
	// An instruction reads a handful of registers, so a linear scan of
	// its row so far finds repeats.
	regs = regs[:0]
	rows = rows[:len(l.Instrs)]
	for id, in := range l.Instrs {
		lo := len(regs)
		for _, u := range in.Uses {
			if (int(u) < len(defined) && defined[u]) || slices.Contains(regs[lo:], u) {
				continue
			}
			regs = append(regs, u)
		}
		rows[id] = nil
		if len(regs) > lo {
			rows[id] = regs[lo:len(regs):len(regs)]
		}
	}
	return rows
}
