package mirs

import (
	"fmt"
	"slices"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// This file is the integrated-spilling half of MIRS: picking the victim
// lifetime when a cluster's register file overflows, splicing the
// store/reload pair into the live graph (ir.Graph.SpliceSpill), and
// carrying the in-flight schedule across the renumbering so only the new
// spill code needs placing.

// victim selects the lifetime to spill from an over-pressure cluster.
// It follows the paper: prefer the longest lifetime, break ties toward
// fewest uses (cheapest reload traffic), then toward the lowest
// definition id. Live-in values consumed
// on the cluster are candidates too — they hold a register on every
// kernel cycle, making them the longest lifetimes of all, and they spill
// for reloads only (id -1 in the result marks one). Lifetimes with only
// loop-carried consumers are deprioritised — spilling them threads memory
// latency into a recurrence and can raise RecMII — and spill-generated
// values are never victims. bar selects the length filter, minLens[bar]:
// bar 0 skips lifetimes too short for a store/reload round trip to
// shorten, bar 1 only those within a single memory access. The
// eligibility counts answer at once when nothing passes the filter.
func (st *state) victim(cluster, bar int) (int, ir.VReg, bool) {
	minLen := st.minLens[bar]
	if st.eligible[bar*st.m.NumClusters()+cluster] == 0 && (st.ii < minLen || st.liveIns[cluster] == 0) {
		return 0, 0, false
	}
	type cand struct {
		id      int
		reg     ir.VReg
		length  int
		uses    int
		carried bool
	}
	var best cand
	found := false
	better := func(a, b *cand) bool { // is a better than b
		if a.carried != b.carried {
			return !a.carried
		}
		if a.length != b.length {
			return a.length > b.length
		}
		if a.uses != b.uses {
			return a.uses < b.uses
		}
		return a.id < b.id
	}
	// The dense charged table iterates definitions in (id, reg) order by
	// construction (defRegs ascends within an instruction); an empty slot
	// is a currently-uncharged (unplaced or dead) definition.
	for id := 0; id < st.loop.NumInstrs(); id++ {
		if st.noSpill[id] {
			continue
		}
		for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
			if len(st.charged[fi]) == 0 {
				continue
			}
			reg := st.defRegs[fi]
			length := 0
			for _, lt := range st.charged[fi] {
				if lt.Cluster != cluster {
					continue
				}
				if l := lt.Length(); l > length {
					length = l
				}
			}
			if length < minLen {
				continue
			}
			uses := int(st.defUses[fi])
			if uses == 0 {
				continue // dead value; spilling it frees nothing
			}
			c := cand{id: id, reg: reg, length: length, uses: uses, carried: st.defCarried[fi]}
			if !found || better(&c, &best) {
				best, found = c, true
			}
		}
	}
	// Live-ins consumed on this cluster: whole-kernel lifetimes, reload
	// traffic equal to their number of consuming instructions.
	if st.ii >= minLen {
		for r := 0; r < st.nregs; r++ {
			if st.liveIn[cluster*st.nregs+r] <= 0 {
				continue
			}
			c := cand{id: -1, reg: ir.VReg(r), length: st.ii, uses: int(st.readers[r])}
			if !found || better(&c, &best) {
				best, found = c, true
			}
		}
	}
	if !found {
		return 0, 0, false
	}
	if st.rec != nil {
		label := "live-in"
		if best.id >= 0 {
			label = st.loop.Instrs[best.id].Op
		}
		st.rec.Emit(trace.Event{Kind: trace.KindVictim, II: int32(st.ii), Op: int32(best.id),
			Cluster: int32(cluster), Cycle: -1, Reg: int32(best.reg),
			Arg: int64(best.length), Aux: int64(best.uses), Label: label})
	}
	return best.id, best.reg, true
}

// relieve spills one victim from the cluster the tracker reports worst
// over budget. Mid-placement pressure is an underestimate (consumers
// still unplaced will stretch lifetimes), so only victims long enough to
// clearly profit from a store/reload round trip are taken there. On a
// complete placement (final) lifetimes are fully known, so relief then
// relaxes to anything longer than a single memory access before giving
// up. It returns false when there is nothing (more) it can do: no
// overflow, no victim, or spill budget exhausted.
func (st *state) relieve(final bool) bool {
	worst, excess := -1, 0
	for ci := range st.m.Clusters {
		if e := st.track.Excess(ci); e > excess {
			worst, excess = ci, e
		}
	}
	if worst == -1 || st.spills >= st.maxSpill {
		return false
	}
	id, reg, ok := st.victim(worst, 0)
	if !ok && final {
		id, reg, ok = st.victim(worst, 1)
	}
	if !ok {
		return false
	}
	return st.applySpill(id, reg)
}

// applySpill splices spill code for (id, reg) into the loop — a
// store/reload pair for a definition, reloads only for a live-in (id ==
// -1) — and migrates every piece of scheduling state to the new
// instruction numbering. Placed instructions keep their placements — the
// spliced spill code is exactly the unplaced remainder, so the spill is
// scheduled *inside* the ongoing schedule rather than restarting it.
// The first spill of an attempt moves it onto state-owned copies of the
// request's loop and graph (see state.own); later spills splice in place.
func (st *state) applySpill(id int, reg ir.VReg) bool {
	if st.g != st.own {
		st.own = st.g.CloneInto(st.own)
		st.g, st.loop = st.own, st.own.Loop
		st.ownLiveInUses()
	}
	var sp *ir.Spill
	var err error
	if id < 0 {
		sp, err = st.g.SpliceLiveInSpill(reg)
	} else {
		sp, err = st.g.SpliceSpill(id, reg)
	}
	if err != nil {
		return false
	}
	st.spills++
	if sp.StoreID >= 0 {
		st.spillStores++
	}
	st.spillLoads += len(sp.ReloadIDs)
	if st.rec != nil {
		stores := int64(0)
		if sp.StoreID >= 0 {
			stores = 1
		}
		st.rec.Emit(trace.Event{Kind: trace.KindSpill, II: int32(st.ii), Op: int32(id),
			Cluster: -1, Cycle: -1, Reg: int32(reg), Arg: stores, Aux: int64(len(sp.ReloadIDs))})
	}

	n := st.loop.NumInstrs()
	// The force budget is a per-instruction allowance (maxRetries × n);
	// spill code grows n, so it earns budget at the same rate. Without
	// this, heavy spilling starves the budget that was sized for the
	// original body and placement dies half-done at every II.
	st.budget += st.maxRetries * (n - len(sp.OldToNew))
	st.plc = spread(st.plc, sp.OldToNew, n)
	st.placed = spread(st.placed, sp.OldToNew, n)
	st.noSpill = spread(st.noSpill, sp.OldToNew, n)
	st.forcedAt = spread(st.forcedAt, sp.OldToNew, n)
	if id >= 0 {
		st.noSpill[sp.OldToNew[id]] = true // a spilled value is not spilled twice
	}
	if sp.StoreID >= 0 {
		st.noSpill[sp.StoreID] = true
	}
	for _, rid := range sp.ReloadIDs {
		st.noSpill[rid] = true
	}
	// Only a live-in spill changes live-in uses: its consumers read their
	// reloads instead.
	st.liveInUses = spread(st.liveInUses, sp.OldToNew, n)
	st.ownRows = st.liveInUses
	if id < 0 {
		for _, rid := range sp.ReloadIDs {
			c := rid + 1
			st.liveInUses[c] = slices.DeleteFunc(st.liveInUses[c], func(v ir.VReg) bool { return v == reg })
		}
	}
	// Failures below this point would leave the state half-migrated, and
	// none can occur for a well-formed spill (the spliced graph is acyclic
	// intra-iteration, II is unchanged, and the re-seated reservations are
	// the surviving subset of what was reserved before), so they panic as
	// internal bugs rather than corrupting the in-flight schedule.
	height, err := st.hb.Heights(st.g)
	if err != nil {
		panic(fmt.Sprintf("mirs: spill of %s (def %d): %v", reg, id, err))
	}
	st.height = height

	st.mrt.Reset(st.ii)
	st.track.Reset(st.ii)
	st.wc.Reset(st.g, st.m, st.ii)
	st.rebindLoop()
	st.settleOrder(sp.OldToNew)

	// Re-seat the surviving placements in the fresh MRT: unit slots,
	// then bus transfers (one per cross-cluster true edge with both ends
	// placed — the same set that was reserved before the renumbering, so
	// neither step can conflict), then the pressure account and the
	// placed-neighbour counts.
	for nid := 0; nid < n; nid++ {
		if !st.placed[nid] {
			continue
		}
		p := st.plc[nid]
		if err := st.mrt.Reserve(p.Cluster, p.Slot, p.Cycle, nid); err != nil {
			panic(fmt.Sprintf("mirs: re-seating instruction %d after spill: %v", nid, err))
		}
	}
	for i := range st.g.Edges {
		e := &st.g.Edges[i]
		if e.Kind != ir.DepTrue || e.From == e.To || !st.placed[e.From] || !st.placed[e.To] {
			continue
		}
		if st.plc[e.From].Cluster == st.plc[e.To].Cluster {
			continue
		}
		tr := sched.Transfer{From: e.From, Reg: e.Reg, Dest: st.plc[e.To].Cluster,
			Cycle: sched.TransferCycle(st.m, st.loop, st.plc, e.From)}
		if err := st.mrt.AddTransfer(tr); err != nil {
			panic(fmt.Sprintf("mirs: re-seating transfer of %s from %d to cluster %d at cycle %d after spill: %v",
				tr.Reg, e.From, tr.Dest, tr.Cycle, err))
		}
	}
	st.nbr = resizeInt32s(st.nbr, n)
	for nid := 0; nid < n; nid++ {
		if !st.placed[nid] {
			continue
		}
		for _, d := range st.loop.Instrs[nid].Defs {
			st.refreshDef(nid, d)
		}
		st.liveInAdjust(nid, 1)
		st.neighboursPlaced(nid, 1)
	}
	if st.audit != nil {
		st.audit("spill")
	}
	// Eject the rewritten consumers so they reschedule after their
	// reloads. A consumer kept in place would leave each reload an
	// (often empty) window squeezed between the store and the consumer's
	// old slot, and every empty window costs a forced placement; ejecting
	// up front lets the reload seat itself and the consumer follow it.
	// The splice puts each reload immediately before its consumer, so the
	// consumer is always the next instruction.
	for _, rid := range sp.ReloadIDs {
		if c := rid + 1; st.placed[c] {
			st.unplace(c)
		}
	}
	return true
}
