package mirs

import (
	"slices"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
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
	if nc := st.m.NumClusters(); st.ii >= minLen {
		for r := 0; r < st.nregs; r++ {
			if st.liveIn[r*nc+cluster] <= 0 {
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
// overflow, no victim, spill budget exhausted, or an attempt a spill
// has already doomed.
func (st *state) relieve(final bool) bool {
	worst, excess := -1, 0
	for ci := range st.m.Clusters {
		if e := st.track.Excess(ci); e > excess {
			worst, excess = ci, e
		}
	}
	if worst == -1 || st.spills >= st.maxSpill || st.doomed > 0 {
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
// -1) — and migrates the scheduling state to the new instruction
// numbering (migrateSpill). Placed instructions keep their placements —
// the spliced spill code is exactly the unplaced remainder, so the spill
// is scheduled *inside* the ongoing schedule rather than restarting it.
// The first spill of an attempt moves it onto state-owned copies of the
// request's loop, graph and heights (see state.own); later spills splice
// in place.
func (st *state) applySpill(id int, reg ir.VReg) bool {
	if st.g != st.own {
		st.own = st.g.CloneInto(st.own)
		st.g, st.loop = st.own, st.own.Loop
		st.lview.Loop, st.lview.Graph = st.loop, st.g
		st.ownLiveInUses()
		st.ownHeight = append(st.ownHeight[:0], st.height...)
		st.height = st.ownHeight
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
	added := len(sp.ReloadIDs)
	if sp.StoreID >= 0 {
		st.spillStores++
		added++
	}
	st.spillLoads += len(sp.ReloadIDs)
	// Spill code is memory operations (ir.SpliceSpill): the loop now
	// needs that many more memory-port slots.
	st.res.Add(machine.ClassMem, added)
	if b := st.res.Bound(); b > st.ii {
		st.doomed = b
	}
	if st.rec != nil {
		stores := int64(0)
		if sp.StoreID >= 0 {
			stores = 1
		}
		st.rec.Emit(trace.Event{Kind: trace.KindSpill, II: int32(st.ii), Op: int32(id),
			Cluster: -1, Cycle: -1, Reg: int32(reg), Arg: stores, Aux: int64(len(sp.ReloadIDs))})
	}
	st.migrateSpill(sp, id, reg)
	if st.audit != nil {
		st.audit("spill")
	}
	// Eject the rewritten consumers so they reschedule after their
	// reloads. A consumer kept in place would leave each reload an
	// (often empty) window squeezed between the store and the consumer's
	// old slot, and every empty window costs a forced placement; ejecting
	// up front lets the reload seat itself and the consumer follow it.
	// The splice puts each reload immediately before its consumer, so the
	// consumer is always the next instruction. Each ejection re-charges
	// the consumer's producers.
	for _, rid := range sp.ReloadIDs {
		if c := rid + 1; st.placed[c] {
			st.unplace(c)
		}
	}
	return true
}

// migrateSpill carries the scheduling state across the splice sp of
// (id, reg) — id and every table still in the numbering from before it
// — patching only what the splice changed: every placement keeps its
// cycle, so the per-instruction and per-slot tables move through
// OldToNew and the reservation table is renumbered in place. What the
// splice rewired is re-derived: the transfers of the removed true edges
// id → consumer, the spilled definition's lifetime (it now reaches only
// its store), a live-in's refcounts on its rewired consumers, the use
// counts of the spilled and reload slots, and the heights and
// placed-neighbour counts of the instructions whose edges changed.
func (st *state) migrateSpill(sp *ir.Spill, id int, reg ir.VReg) {
	n, nc := st.loop.NumInstrs(), st.m.NumClusters()
	// The spilled definition stops being a victim: withdraw its
	// eligibility while its slot still counts it.
	if id >= 0 {
		st.countEligible(id, st.defSlot(id, reg), -1)
	}
	// The force budget is a per-instruction allowance (maxRetries × n);
	// spill code grows n, so it earns budget at the same rate. Without
	// this, heavy spilling starves the budget that was sized for the
	// original body and placement dies half-done at every II.
	st.budget += st.maxRetries * (n - len(sp.OldToNew))
	st.plc = spread(st.plc, sp.OldToNew, n)
	st.placed = spread(st.placed, sp.OldToNew, n)
	st.noSpill = spread(st.noSpill, sp.OldToNew, n)
	st.forcedAt = spread(st.forcedAt, sp.OldToNew, n)
	st.nbr = spread(st.nbr, sp.OldToNew, n)
	st.height = spread(st.height, sp.OldToNew, n)
	st.ownHeight = st.height
	st.liveInUses = spread(st.liveInUses, sp.OldToNew, n)
	st.ownRows = st.liveInUses
	st.spreadSlots(sp.OldToNew, len(sp.ReloadIDs))
	st.mrt.Renumber(sp.OldToNew)
	if id >= 0 {
		id = sp.OldToNew[id]
		st.noSpill[id] = true // a spilled value is not spilled twice
		st.noSpill[sp.StoreID] = true
	}
	for _, rid := range sp.ReloadIDs {
		st.noSpill[rid] = true
	}

	// Registers: the reloads define fresh ones, read once each, and every
	// rewired consumer stopped reading reg, which the store now reads.
	oldRegs := st.nregs
	for _, r := range sp.ReloadRegs {
		st.nregs = max(st.nregs, int(r)+1)
	}
	st.liveIn = buf.Grow(st.liveIn, st.nregs*nc)
	clear(st.liveIn[oldRegs*nc:])
	st.readers = buf.Grow(st.readers, st.nregs)
	clear(st.readers[oldRegs:])
	for _, r := range sp.ReloadRegs {
		st.readers[r] = 1
	}
	st.readers[reg] -= int32(len(sp.ReloadIDs))
	if id >= 0 {
		st.readers[reg]++
	}

	// The instructions whose dependence edges the splice rewrote: the
	// definition and use sites of reg, the consumers and the spill code.
	st.touched = st.touched[:0]
	for x, in := range st.loop.Instrs {
		if slices.Contains(in.Defs, reg) || slices.Contains(in.Uses, reg) {
			st.touched = append(st.touched, x)
		}
	}
	for _, rid := range sp.ReloadIDs {
		st.touched = append(st.touched, rid, rid+1)
	}

	for _, rid := range sp.ReloadIDs {
		c := rid + 1
		ci := st.plc[c].Cluster
		if id < 0 {
			// The consumer reads its reload instead of the live-in.
			st.liveInUses[c] = slices.DeleteFunc(st.liveInUses[c], func(v ir.VReg) bool { return v == reg })
			if i := int(reg)*nc + ci; st.placed[c] {
				if st.liveIn[i]--; st.liveIn[i] == 0 {
					st.track.RemoveLifetime(life.Lifetime{Reg: reg, Def: -1, Cluster: ci, Start: 0, End: st.ii - 1})
					st.liveIns[ci]--
				}
			}
			continue
		}
		// The true edge id → c is gone, and with it its transfer.
		if c != id && st.placed[c] && st.placed[id] && st.plc[id].Cluster != ci {
			st.mrt.RemoveTransfer(id, reg, ci)
		}
	}
	for _, rid := range sp.ReloadIDs {
		st.countUses(rid)
	}
	if id >= 0 {
		st.countUses(id)
		st.refreshDef(id, reg)
	}
	for _, x := range st.touched {
		st.countNeighbours(x)
	}
	st.settleHeights()
	st.settleOrder(sp.OldToNew)
	st.wc.Reset(st.g, st.m, st.ii)
}

// spreadSlots carries the definition-slot tables (defBase, defRegs,
// charged, defUses, defCarried) across a splice that added added
// definitions: every old instruction's slots move with it back to front,
// their lifetimes renamed to its new ID, and the spill code gets fresh
// empty slots (their use counts are the caller's to set).
func (st *state) spreadSlots(oldToNew []int, added int) {
	n, nOld := st.loop.NumInstrs(), len(oldToNew)
	oldEnd := st.defBase[nOld]
	total := oldEnd + added
	st.defBase = buf.Grow(st.defBase, n+1)
	st.defRegs = buf.Grow(st.defRegs, total)
	st.charged = buf.Grow(st.charged, total)
	st.defUses = buf.Grow(st.defUses, total)
	st.defCarried = buf.Grow(st.defCarried, total)
	st.defBase[n] = total
	next, nid := total, n-1
	for old := nOld - 1; old >= -1; old-- {
		stop := -1
		if old >= 0 {
			stop = oldToNew[old]
		}
		for ; nid > stop; nid-- { // spill code
			defs := st.loop.Instrs[nid].Defs
			next -= len(defs)
			st.defBase[nid] = next
			for j, r := range defs {
				st.defRegs[next+j], st.charged[next+j] = r, st.block(1) // a reload has one consumer
			}
		}
		if old < 0 || oldToNew[old] == old {
			break // nothing was inserted below: the rest stays put
		}
		start := st.defBase[old]
		next -= oldEnd - start
		copy(st.defRegs[next:], st.defRegs[start:oldEnd])
		copy(st.charged[next:], st.charged[start:oldEnd])
		copy(st.defUses[next:], st.defUses[start:oldEnd])
		copy(st.defCarried[next:], st.defCarried[start:oldEnd])
		if nid != old {
			for _, lts := range st.charged[next : next+oldEnd-start] {
				for i := range lts {
					lts[i].Def = nid
				}
			}
		}
		st.defBase[nid] = next
		oldEnd, nid = start, nid-1
	}
}

// countNeighbours recounts x's placed-neighbour count from its edges.
func (st *state) countNeighbours(x int) {
	k := int32(0)
	for _, e := range st.g.Succs(x) {
		if e.To != x && st.placed[e.To] {
			k++
		}
	}
	for _, e := range st.g.Preds(x) {
		if e.From != x && st.placed[e.From] {
			k++
		}
	}
	st.nbr[x] = k
}

// settleHeights brings the heights up to date after a splice from the
// instructions in touched — the only ones whose outgoing edges changed —
// up through their distance-0 predecessors, in sweeps down the body: a
// recomputed height that changed dirties the predecessors, and a sweep
// repeats only for a predecessor it has already passed.
func (st *state) settleHeights() {
	dirty := buf.Zeroed(st.dirty, st.loop.NumInstrs())
	st.dirty = dirty
	for _, x := range st.touched {
		dirty[x] = true
	}
	for again := true; again; {
		again = false
		for x := len(dirty) - 1; x >= 0; x-- {
			if !dirty[x] {
				continue
			}
			dirty[x] = false
			h := 0
			for _, e := range st.g.Succs(x) {
				if e.Distance == 0 {
					h = max(h, e.Latency+st.height[e.To])
				}
			}
			if h == st.height[x] {
				continue
			}
			st.height[x] = h
			for _, e := range st.g.Preds(x) {
				if e.Distance == 0 {
					dirty[e.From] = true
					again = again || e.From > x
				}
			}
		}
	}
}
