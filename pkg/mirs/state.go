package mirs

import (
	"fmt"
	"slices"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// state is the mutable scheduling state for one candidate II: the
// (possibly spill-augmented) loop and graph, the partial placement, the
// modulo reservation table (units and buses), and an incremental
// register-pressure account kept lifetime by lifetime, which the
// placement loop consults cheaply and which settles each complete
// placement (it then holds exactly regpress.Analyze's counts).
//
// One state value serves a whole Schedule call. newState sizes every
// table for the request's loop at its first candidate II in one counting
// pass and carves them all — the MRT, the pressure tracker, the window
// cache, the request's heights, pick order and live-in rows, the dense
// bookkeeping tables below and the placement loop's scratch — from one
// arena, a dozen allocations whatever the loop's size. reset retargets
// the state to the next candidate II while reusing every table; only a
// table that a spill or a larger II outgrows grows (buf.Grow), so the
// steady-state placement path allocates nothing.
type state struct {
	m      *machine.Machine
	ii     int
	loop   *ir.Loop
	g      *ir.Graph
	mrt    sched.MRT
	track  regpress.Tracker
	plc    []sched.Placement
	placed []bool
	height []int
	// wc memoises deadline-window scans; every placement mutation goes
	// through commit/unplace, which invalidate the affected entries.
	wc sched.WindowCache
	// noSpill marks instructions whose definitions must not be selected
	// as spill victims: spill stores/reloads themselves and definitions
	// already spilled once, which keeps spilling from feeding on its own
	// output.
	noSpill []bool
	// forcedAt[i] is the next cycle a forced placement of i will target,
	// sliding forward on repeated failures so ejection fights converge.
	forcedAt   []int
	budget     int // remaining force-placements at this II
	maxRetries int // per-instruction budget rate; spill growth adds at this rate
	spills     int
	maxSpill   int
	// res is the resource bound of the attempt's own loop, kept as spill
	// code joins it; doomed is that bound once a spill has raised it past
	// the II (0 until then). No spill is undone within an attempt, so a
	// doomed attempt can never complete, and tryII escalates at once.
	res    sched.ResTable
	doomed int
	// Backend counters, materialised as Schedule.Stats by schedule().
	ejections, spillStores, spillLoads int

	// lview is the life.View of the in-flight partial placement: the
	// shared lifetime enumeration reads placements through it, so the
	// pressure the placement loop steers on and settles with is, by
	// construction, the same model regpress.Analyze reports. The
	// accessor closure is bound to the state and reads the *current*
	// plc/placed/loop fields, so II retries and spill swaps need no
	// re-closure.
	lview life.View
	// liveInUses[i] are the distinct live-in registers instruction i
	// reads (life.LiveInUses), the refcount basis of liveInAdjust.
	liveInUses [][]ir.VReg
	// The request's analyses of its own loop and graph, computed once
	// by newState and read by every reset: the heights, the pick order
	// (every instruction by descending height, ties by ascending ID)
	// and the live-in rows. A spill edits the state's copies, never
	// these.
	reqHeight, reqOrder []int
	reqLiveInUses       [][]ir.VReg
	// own is the storage of the spill-augmented graph (and own.Loop of
	// the loop), ownRows/ownRegs of its live-in rows and ownHeight of its
	// heights; the request's are shared by every attempt and never
	// written. An overflowing schedule returned from an attempt gets a
	// copy of own (see AttemptII), so every attempt of the request reuses
	// it; a fitting one, which ends the search, keeps it.
	own       *ir.Graph
	ownRows   [][]ir.VReg
	ownRegs   []ir.VReg
	ownHeight []int
	// liveIn holds the live-in refcounts densely: liveIn[reg*nc+ci]
	// counts cluster ci's placed consumers of live-in register reg, so
	// the table grows at its end as spills add registers.
	liveIn []int32
	nregs  int
	// The charged lifetimes per definition, densely indexed: definition
	// (id, reg) lives at the flat slot defBase[id] <= fi < defBase[id+1]
	// with defRegs[fi] == reg; registers ascend within an instruction so
	// victim scans reproduce the sorted-map iteration order. A slot's
	// slice is a block carved from ltFree, the unused end of the newest
	// slab ltSlab, and is truncated and refilled in place on every
	// refresh; a reset rewinds the slab (see block).
	defBase        []int
	defRegs        []ir.VReg
	charged        [][]life.Lifetime
	ltSlab, ltFree []life.Lifetime

	// What victim reads per definition slot and register, derived from
	// the loop and graph by rebindLoop and patched by each spill:
	// defUses[fi] counts the true edges reading slot fi (0 marks a dead
	// value), defCarried[fi] is whether all of them are loop-carried,
	// and readers[r] counts the instructions reading register r.
	defUses    []int32
	defCarried []bool
	readers    []int32
	// Victim eligibility per cluster, kept by refreshDef and
	// liveInAdjust: eligible[k*nc+ci] counts the definitions victim may
	// pick whose lifetime on cluster ci is at least minLens[k] long, and
	// liveIns[ci] the live-in registers charged on ci. victim returns at
	// once when neither can produce a candidate. minLens are victim's
	// two length bars: a store/reload round trip, then (on a complete
	// placement, see relieve) a single memory access.
	minLens  [2]int
	eligible []int32
	liveIns  []int32

	// The pick bookkeeping of nextUnplaced: nbr[i] counts the dependence
	// edges joining i to a placed other instruction (kept by commit and
	// release), and order lists every instruction in pick order (copied
	// from reqOrder at reset, re-settled after each spill).
	nbr   []int32
	order []int

	check    sched.Schedule   // the complete placement tryII validates
	seenDefs []int            // refreshAround dedup scratch: definition slots
	trs      []sched.Transfer // transfer enumeration scratch
	touched  []int            // instructions a splice rewired (migrateSpill)
	dirty    []bool           // height update worklist (settleHeights)

	memLat, busLat int

	// rec is the flight recorder (sched.Request.Recorder); nil — the
	// default — disables tracing, and every emission below is guarded
	// by a nil check so the disabled path constructs no events and
	// allocates nothing.
	rec trace.Recorder

	// Cancellation plumbing for poll: req carries the request's own
	// deadline/cancel, and steps counts placement-loop iterations so the
	// check runs every 64th step instead of every step. Both are rebound
	// per attempt.
	req   *sched.Request
	steps int

	// audit, when set, runs after every commit, release and spill; the
	// tests check the incremental bookkeeping against recounts there.
	audit func(event string)
}

// poll is the bounded-latency cancellation check inside the backtracking
// loop. The fast path is one increment and one branch — no allocation,
// no atomic — so the uncancellable batch path pays nothing measurable;
// every 64th call it consults the request context, so a cancel lands
// within 64 placement steps even when a single pathological II would
// otherwise churn through a long ejection fight.
func (st *state) poll() error {
	st.steps++
	if st.steps&63 != 0 {
		return nil
	}
	return st.req.Cancelled()
}

// arena is the storage of one request's scheduling state: the element
// types the sched and regpress tables share, and the lifetime and
// register tables of the state itself (see sched.Arena).
type arena struct {
	sched.Arena
	lts     buf.Slab[life.Lifetime]
	charged buf.Slab[[]life.Lifetime]
	regs    buf.Slab[ir.VReg]
	rows    buf.Slab[[]ir.VReg]
}

func (a *arena) alloc() {
	a.Arena.Alloc()
	a.lts.Alloc()
	a.charged.Alloc()
	a.regs.Alloc()
	a.rows.Alloc()
}

// analysisScratch is what newState computes the request's analyses in
// and then drops: the heights' topological scratch, the live-in rows'
// registers and the defined-register flags.
type analysisScratch struct {
	hb      sched.HeightBuf
	regs    []ir.VReg
	defined []bool
}

// newState builds the scheduling state of one Schedule call for graph g
// (and its loop) on machine m, first at candidate II ii: one counting
// pass sizes the arena, one allocation per element type backs every
// table, and the request's heights, pick order and live-in rows are
// computed into it. It does not ready the state for scheduling —
// callers must reset before use (and once per subsequent candidate II).
// It fails on an intra-iteration dependence cycle.
func newState(g *ir.Graph, m *machine.Machine, ii int) (*state, error) {
	if ii < 1 {
		return nil, fmt.Errorf("mirs: candidate II %d < 1", ii)
	}
	st := &state{
		m:      m,
		memLat: m.Latency(machine.ClassMem),
		busLat: m.BusLatency(),
	}
	st.minLens = [2]int{2*st.memLat + 1, st.memLat}
	var a arena
	st.carve(&a, g, ii)
	a.alloc()
	sc := st.carve(&a, g, ii)
	height, err := sc.hb.Heights(g)
	if err != nil {
		return nil, err
	}
	st.reqHeight = height
	for i := range st.reqOrder {
		st.reqOrder[i] = i
	}
	settle(st.reqOrder, height)
	st.reqLiveInUses = life.LiveInUsesInto(st.reqLiveInUses, sc.regs, sc.defined, g.Loop)
	// Spill code is memory operations, so the bound tracks the memory
	// class even before the loop has any.
	if err := st.res.Init(g.Loop, m, machine.ClassMem); err != nil {
		return nil, err
	}
	st.lview.At = func(id int) (int, int, bool) {
		if !st.placed[id] {
			return 0, 0, false
		}
		p := st.plc[id]
		return p.Cycle, p.Cluster, true
	}
	return st, nil
}

// carve takes every table of the state from a, each sized for g's loop
// at II ii as reset and the placement loop use it, and returns the
// scratch the request's analyses are computed in. Before a.alloc it
// only counts (see buf.Slab).
func (st *state) carve(a *arena, g *ir.Graph, ii int) analysisScratch {
	n, nc := g.Loop.NumInstrs(), st.m.NumClusters()
	// nregs, defs and uses count registers and operands; lts is the
	// charged-lifetime slab rebindLoop lays out; preds and trs are the
	// most true-dependence producers, and true edges, of one
	// instruction: the dedup and transfer scratch bounds.
	nregs, defs, uses, lts, preds, trs := 0, 0, 0, 0, 0, 0
	for id, in := range g.Loop.Instrs {
		defs += len(in.Defs)
		uses += len(in.Uses)
		for _, v := range in.Uses {
			nregs = max(nregs, int(v)+1)
		}
		for _, v := range in.Defs {
			nregs = max(nregs, int(v)+1)
			k := int32(0)
			for _, e := range g.Succs(id) {
				if e.Kind == ir.DepTrue && e.Reg == v {
					k++
				}
			}
			lts += st.blockLen(k)
		}
		p, s := 0, 0
		for _, e := range g.Preds(id) {
			if e.Kind == ir.DepTrue {
				p++
			}
		}
		for _, e := range g.Succs(id) {
			if e.Kind == ir.DepTrue {
				s++
			}
		}
		preds, trs = max(preds, p), max(trs, p+s)
	}

	st.mrt.Carve(&a.Arena, st.m, ii)
	st.track.Carve(&a.Arena, st.m, ii)
	st.wc.Carve(&a.Arena, n, st.m)
	st.plc = a.Placements(n)
	st.placed, st.noSpill = a.Bools(n), a.Bools(n)
	st.forcedAt = a.Ints(n)
	st.nbr = a.Int32s(n)
	st.order, st.reqOrder = a.Ints(n), a.Ints(n)
	st.reqLiveInUses = a.rows.Take(n)
	st.liveIn = a.Int32s(nregs * nc)
	st.defBase = a.Ints(n + 1)
	st.defRegs = a.regs.Take(defs)
	st.defUses, st.defCarried = a.Int32s(defs), a.Bools(defs)
	st.charged = a.charged.Take(defs)
	st.ltSlab = a.lts.Take(lts)
	st.readers = a.Int32s(nregs)
	st.eligible, st.liveIns = a.Int32s(len(st.minLens)*nc), a.Int32s(nc)
	st.seenDefs = a.Ints(preds)
	st.trs = a.Transfers(trs)
	st.res.Carve(&a.Arena, g.Loop, st.m, machine.ClassMem)

	var sc analysisScratch
	sc.hb.Carve(&a.Arena, n)
	sc.regs, sc.defined = a.regs.Take(uses), a.Bools(nregs)
	return sc
}

// reset retargets the state to candidate II ii over the request's loop
// and graph g, reusing every table.
func (st *state) reset(loop *ir.Loop, g *ir.Graph, ii, maxRetries, maxSpills int) {
	n := loop.NumInstrs()
	st.ii = ii
	st.loop, st.g = loop, g
	st.height = st.reqHeight
	st.liveInUses = st.reqLiveInUses
	st.mrt.Reset(ii)
	st.track.Reset(ii)
	st.wc.Reset(g, st.m, ii)
	st.plc = buf.Zeroed(st.plc, n)
	st.placed = buf.Zeroed(st.placed, n)
	st.noSpill = buf.Zeroed(st.noSpill, n)
	st.forcedAt = buf.Zeroed(st.forcedAt, n)
	st.nbr = buf.Zeroed(st.nbr, n)
	st.order = append(st.order[:0], st.reqOrder...)
	st.budget = maxRetries * n
	st.maxRetries = maxRetries
	st.spills = 0
	st.maxSpill = maxSpills
	st.res.Count(loop)
	st.doomed = 0
	st.ejections, st.spillStores, st.spillLoads = 0, 0, 0
	st.rebindLoop()
}

// rebindLoop derives every table that depends on the loop/graph pair
// from scratch: the life view binding, the dense live-in refcounts, the
// charged-lifetime slots and victim's per-slot and per-register counts.
// reset calls it; a spill patches the tables instead (migrateSpill).
func (st *state) rebindLoop() {
	st.lview.Loop, st.lview.Graph, st.lview.Machine, st.lview.II = st.loop, st.g, st.m, st.ii

	st.nregs = 0
	for _, in := range st.loop.Instrs {
		for _, v := range in.Defs {
			st.nregs = max(st.nregs, int(v)+1)
		}
		for _, v := range in.Uses {
			st.nregs = max(st.nregs, int(v)+1)
		}
	}
	nc := st.m.NumClusters()
	st.liveIn = buf.Zeroed(st.liveIn, st.nregs*nc)

	n := st.loop.NumInstrs()
	st.defBase = buf.Grow(st.defBase, n+1)
	st.defRegs = st.defRegs[:0]
	for i, in := range st.loop.Instrs {
		st.defBase[i] = len(st.defRegs)
		st.defRegs = append(st.defRegs, in.Defs...)
		// Registers ascend within an instruction so the victim scan's
		// (id, reg) order matches the old sorted-key iteration.
		slices.Sort(st.defRegs[st.defBase[i]:])
	}
	st.defBase[n] = len(st.defRegs)
	st.defUses = buf.Grow(st.defUses, len(st.defRegs))
	st.defCarried = buf.Grow(st.defCarried, len(st.defRegs))
	for id := 0; id < n; id++ {
		st.countUses(id)
	}
	// Blocks from the previous attempt are dead: rewind the newest slab,
	// which newState sized for the request's loop (a spill only ever
	// replaces it with a larger one).
	st.ltFree = st.ltSlab
	st.charged = buf.Grow(st.charged, len(st.defRegs))
	for fi := range st.charged {
		st.charged[fi] = st.block(st.defUses[fi])
	}

	// Nothing is charged yet, so nothing is eligible.
	st.eligible = buf.Zeroed(st.eligible, len(st.minLens)*nc)
	st.liveIns = buf.Zeroed(st.liveIns, nc)
	st.readers = buf.Zeroed(st.readers, st.nregs)
	for _, in := range st.loop.Instrs {
		for j, u := range in.Uses {
			if !slices.Contains(in.Uses[:j], u) {
				st.readers[u]++
			}
		}
	}
}

// countUses derives defUses and defCarried for the definition slots of
// instruction id from its outgoing true edges.
func (st *state) countUses(id int) {
	for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
		st.defUses[fi], st.defCarried[fi] = 0, true
	}
	for _, e := range st.g.Succs(id) {
		if e.Kind != ir.DepTrue {
			continue
		}
		fi := st.defSlot(id, e.Reg)
		st.defUses[fi]++
		if e.Distance == 0 {
			st.defCarried[fi] = false
		}
	}
}

// blockLen is the most lifetimes a definition with the given number of
// consumers charges: the local one and one bus-delivered copy per other
// cluster a consumer sits on.
func (st *state) blockLen(uses int32) int { return min(st.m.NumClusters(), 1+int(uses)) }

// block carves an empty charged slot for a definition with the given
// number of consumers, blockLen long, so the slot never has to grow. A
// full slab is replaced, not grown: the charged slots point into it.
func (st *state) block(uses int32) []life.Lifetime {
	k := st.blockLen(uses)
	if len(st.ltFree) < k {
		st.ltSlab = make([]life.Lifetime, max(2*len(st.ltSlab), k))
		st.ltFree = st.ltSlab
	}
	b := st.ltFree[:0:k]
	st.ltFree = st.ltFree[k:]
	return b
}

// settleOrder restores the pick order after a spill renumbered the
// instructions and changed their heights: every ID is mapped through
// oldToNew, the spill code's IDs are appended, and settle moves the few
// that are out of place.
func (st *state) settleOrder(oldToNew []int) {
	n := st.loop.NumInstrs()
	for i, id := range st.order {
		st.order[i] = oldToNew[id]
	}
	for id, next := 0, 0; id < n; id++ {
		if next < len(oldToNew) && oldToNew[next] == id {
			next++
			continue
		}
		st.order = append(st.order, id)
	}
	settle(st.order, st.height)
}

// settle sorts order into the pick order by insertion, which costs little
// on the nearly sorted lists it gets: heights mostly fall along the body,
// and a splice displaces only its spill code and a few ancestors.
func settle(order, height []int) {
	for i := 1; i < len(order); i++ {
		id, j := order[i], i
		for ; j > 0; j-- {
			prev := order[j-1]
			if height[prev] > height[id] || height[prev] == height[id] && prev < id {
				break
			}
			order[j] = prev
		}
		order[j] = id
	}
}

// neighboursPlaced adds delta to the counts of x's neighbours as x is
// placed (+1) or released (-1).
func (st *state) neighboursPlaced(x int, delta int32) {
	for _, e := range st.g.Succs(x) {
		if e.To != x {
			st.nbr[e.To] += delta
		}
	}
	for _, e := range st.g.Preds(x) {
		if e.From != x {
			st.nbr[e.From] += delta
		}
	}
}

// ownLiveInUses copies the shared live-in rows into state storage that
// spills may edit. A row stays valid if a later append moves ownRegs.
func (st *state) ownLiveInUses() {
	st.ownRegs, st.ownRows = st.ownRegs[:0], st.ownRows[:0]
	for _, row := range st.liveInUses {
		i := len(st.ownRegs)
		st.ownRegs = append(st.ownRegs, row...)
		st.ownRows = append(st.ownRows, st.ownRegs[i:len(st.ownRegs):len(st.ownRegs)])
	}
	st.liveInUses = st.ownRows
}

// spread carries a per-instruction table across a spill in place: grown
// to n, each s[old] moves to s[oldToNew[old]] back to front (oldToNew
// increases) and the inserted instructions' slots are zeroed.
func spread[T any](s []T, oldToNew []int, n int) []T {
	s = buf.Grow(s, n)
	next := n
	for old := len(oldToNew) - 1; old >= 0; old-- {
		now := oldToNew[old]
		clear(s[now+1 : next])
		if now == old {
			return s // nothing was inserted below: the rest stays put
		}
		s[now] = s[old]
		next = now
	}
	clear(s[:next])
	return s
}

// defSlot returns the flat charged index of definition (id, reg).
func (st *state) defSlot(id int, reg ir.VReg) int {
	for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
		if st.defRegs[fi] == reg {
			return fi
		}
	}
	panic(fmt.Sprintf("mirs: instruction %d does not define %s", id, reg))
}

// nextUnplaced picks the next instruction to place: among the unplaced
// ops that touch the already-placed region (any dependence edge, either
// direction), the one with the greatest dependence height, ties to the
// lowest ID. Growing the schedule along dependence edges is the HRMS
// property MIRS inherits — each new op lands next to a placed neighbour,
// so values are produced close to their consumers and lifetimes stay
// short, instead of whole dependence layers issuing together and keeping
// a layer's worth of values alive at once. When nothing placed borders an
// unplaced op (the first pick, or a disconnected component), the globally
// highest op seeds a new region. Returns -1 when everything is placed.
//
// The scan follows the pick order (height descending, ties by ID), so
// the first unplaced op with a placed neighbour wins, and the first
// unplaced op seeds when none borders the region.
func (st *state) nextUnplaced() int {
	seed := -1
	for _, id := range st.order {
		if st.placed[id] {
			continue
		}
		if st.nbr[id] > 0 {
			return id
		}
		if seed == -1 {
			seed = id
		}
	}
	return seed
}

// clusterSupports reports whether any unit of cluster ci executes class.
func (st *state) clusterSupports(ci int, class machine.OpClass) bool {
	for ui := range st.m.Clusters[ci].Units {
		if st.m.Clusters[ci].Units[ui].Supports(class) {
			return true
		}
	}
	return false
}

// transfersFor lists the bus transfers that placing u on (cluster, cycle)
// creates against already-placed neighbours. The returned slice is the
// state's scratch buffer, invalidated by the next call.
func (st *state) transfersFor(u, cluster, cycle int) []sched.Transfer {
	st.trs = sched.AppendPlacementTransfers(st.trs[:0], st.g, st.m, st.loop, st.plc, st.placed, u, cluster, cycle)
	return st.trs
}

func (st *state) removeTransfers(trs []sched.Transfer) {
	for _, tr := range trs {
		st.mrt.RemoveTransfer(tr.From, tr.Reg, tr.Dest)
	}
}

// scanLate reports whether u should be placed as late as possible inside
// its window rather than as early as possible. Following the placement
// direction rule of swing-style modulo schedulers: an instruction whose
// already-placed register neighbours are all *consumers* (no placed
// true-dependence producer feeds it) only stretches its own value's
// lifetime by issuing early, so it hugs its deadline. Spill reloads are
// the canonical case — their input arrives through memory, so placing
// them just before their consumer is what makes the spill shorten the
// victim lifetime at all.
func (st *state) scanLate(u int) bool {
	hasConsumer := false
	for _, e := range st.g.Succs(u) {
		if e.Kind == ir.DepTrue && e.To != u && st.placed[e.To] {
			hasConsumer = true
			break
		}
	}
	if !hasConsumer {
		return false
	}
	for _, e := range st.g.Preds(u) {
		if e.Kind == ir.DepTrue && e.From != u && st.placed[e.From] {
			return false
		}
	}
	return true
}

// place tries to put u at the best conflict-free position inside its
// deadline window on some cluster; when no such position exists it falls
// back to a forced placement that ejects the conflicts.
func (st *state) place(u int) bool {
	class := st.loop.Instrs[u].Class
	late := st.scanLate(u)
	type cand struct {
		ci, t, slot, ntrs int
	}
	best, haveBest := cand{}, false
	better := func(a, b cand) bool { // is a better than b
		if a.t != b.t {
			if late {
				return a.t > b.t
			}
			return a.t < b.t
		}
		if a.ntrs != b.ntrs {
			return a.ntrs < b.ntrs
		}
		am, bm := st.track.MaxLive(a.ci), st.track.MaxLive(b.ci)
		if am != bm {
			return am < bm
		}
		return a.ci < b.ci
	}
	for ci := 0; ci < st.m.NumClusters(); ci++ {
		if !st.clusterSupports(ci, class) {
			continue
		}
		est, lst := st.wc.Window(st.plc, st.placed, u, ci)
		if lst < est {
			// Empty window: only a forced placement can resolve it.
			if st.rec != nil {
				st.rec.Emit(trace.Event{Kind: trace.KindWindowMiss, II: int32(st.ii), Op: int32(u),
					Cluster: int32(ci), Cycle: int32(est), Reg: -1, Arg: int64(lst), Label: st.loop.Instrs[u].Op})
			}
			continue
		}
		from, to, step := est, lst+1, 1
		if late {
			from, to, step = lst, est-1, -1
		}
		for t := from; t != to; t += step {
			slot, ok := st.mrt.FreeSlot(ci, t, class)
			if !ok {
				continue
			}
			trs := st.transfersFor(u, ci, t)
			if _, err := st.mrt.AddTransfers(trs); err != nil {
				continue
			}
			st.removeTransfers(trs) // probe only; winner re-adds below
			c := cand{ci: ci, t: t, slot: slot, ntrs: len(trs)}
			if !haveBest || better(c, best) {
				best, haveBest = c, true
			}
			break // first feasible cycle in scan order is this cluster's best
		}
	}
	if haveBest {
		trs := st.transfersFor(u, best.ci, best.t)
		if _, err := st.mrt.AddTransfers(trs); err != nil {
			return st.force(u) // cannot happen: state unchanged since probe
		}
		st.commit(u, best.ci, best.t, best.slot)
		return true
	}
	return st.force(u)
}

// emit forwards one event to the recorder when one is attached. Call
// sites on the placement fast path inline the nil check instead so the
// Event is never constructed when tracing is off; this helper is for
// the colder sites where an extra call is immaterial.
func (st *state) emit(e trace.Event) {
	if st.rec != nil {
		st.rec.Emit(e)
	}
}

// compact runs a post-placement retiming sweep: every op that now wants
// ALAP placement (scanLate — typically spill reloads placed before their
// consumer existed, or producers whose consumers were ejected and re-seated
// far away) is lifted and re-placed inside its final window, without
// forcing. A value's lifetime only shrinks: the op moves toward its
// consumer or stays put, so the sweep monotonically lowers pressure and
// cannot invalidate the schedule.
func (st *state) compact() {
	st.emit(trace.Event{Kind: trace.KindCompact, II: int32(st.ii), Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 1})
	defer st.emit(trace.Event{Kind: trace.KindCompact, II: int32(st.ii), Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 0})
	for u := range st.placed {
		if !st.placed[u] || !st.scanLate(u) {
			continue
		}
		old := st.plc[u]
		st.ejectQuietly(u)
		if !st.placeNoForce(u) {
			// Put it back exactly where it was; the slot and transfers
			// were just released, so this cannot fail.
			trs := st.transfersFor(u, old.Cluster, old.Cycle)
			if _, err := st.mrt.AddTransfers(trs); err != nil {
				panic("mirs: compact: could not restore transfers")
			}
			st.commit(u, old.Cluster, old.Cycle, old.Slot)
		}
	}
}

// ejectQuietly is unplace without charging the ejection statistic — used
// by compact, which always re-places the op it lifts.
func (st *state) ejectQuietly(u int) {
	st.release(u)
}

// placeNoForce is the probe half of place: it commits u at the best
// conflict-free position if one exists and reports failure otherwise,
// never ejecting anything.
func (st *state) placeNoForce(u int) bool {
	saved := st.budget
	st.budget = 0
	ok := st.place(u)
	st.budget = saved
	return ok
}

// force places u even though every position conflicts, ejecting the
// conflicts: the chosen slot's occupant, placed successors whose
// deadlines the new cycle violates, and bus transfers blocking the
// placement's own. Each call burns one unit of the backtracking budget;
// repeated forcing of the same instruction slides its target cycle
// forward so the same fight is not replayed verbatim.
func (st *state) force(u int) bool {
	if st.budget <= 0 {
		return false
	}
	st.budget--
	class := st.loop.Instrs[u].Class

	// Target the cluster with the smallest earliest start.
	ci, est := -1, 0
	for c := 0; c < st.m.NumClusters(); c++ {
		if !st.clusterSupports(c, class) {
			continue
		}
		e := st.wc.EarliestStart(st.plc, st.placed, u, c)
		if ci == -1 || e < est {
			ci, est = c, e
		}
	}
	if ci == -1 {
		return false
	}
	t := est
	if f := st.forcedAt[u]; f > t {
		t = f
	}
	st.forcedAt[u] = t + 1

	// Free a compatible slot, ejecting the lowest-height occupant if none
	// is free.
	slot, ok := st.mrt.FreeSlot(ci, t, class)
	if !ok {
		victim, vslot := -1, -1
		for ui := range st.m.Clusters[ci].Units {
			if !st.m.Clusters[ci].Units[ui].Supports(class) {
				continue
			}
			occ := st.mrt.At(ci, ui, t)
			if occ < 0 {
				continue
			}
			if victim == -1 || st.height[occ] < st.height[victim] {
				victim, vslot = occ, ui
			}
		}
		if victim == -1 {
			return false
		}
		st.unplace(victim)
		slot = vslot
	}

	// Eject placed successors whose deadline the forced cycle violates.
	for _, e := range st.g.Succs(u) {
		if e.To == u || !st.placed[e.To] {
			continue
		}
		lat := e.Latency
		if e.Kind == ir.DepTrue && st.plc[e.To].Cluster != ci {
			lat += st.busLat
		}
		if st.plc[e.To].Cycle < t+lat-e.Distance*st.ii {
			st.unplace(e.To)
		}
	}

	// Claim bus bandwidth, ejecting blocking producers (bounded: each
	// eviction frees at least one transfer on the contended cycle).
	for attempt := 0; ; attempt++ {
		fail, err := st.mrt.AddTransfers(st.transfersFor(u, ci, t))
		if err == nil {
			break
		}
		if attempt > 2*st.mrt.BusCap()+2 {
			return false
		}
		evicted := false
		for _, p := range st.mrt.TransferProducersAt(fail.Cycle) {
			if p != u {
				st.unplace(p)
				evicted = true
				break
			}
		}
		if !evicted {
			return false
		}
	}
	if st.rec != nil {
		st.rec.Emit(trace.Event{Kind: trace.KindForce, II: int32(st.ii), Op: int32(u),
			Cluster: int32(ci), Cycle: int32(t), Reg: -1, Label: st.loop.Instrs[u].Op})
	}
	st.commit(u, ci, t, slot)
	return true
}

// commit finalises u's placement at (ci, t, slot). Transfers must already
// be reserved by the caller.
func (st *state) commit(u, ci, t, slot int) {
	if err := st.mrt.Reserve(ci, slot, t, u); err != nil {
		// The caller verified the slot is free; a failure here is a bug.
		panic(fmt.Sprintf("mirs: commit of instruction %d: %v", u, err))
	}
	st.plc[u] = sched.Placement{Cycle: t, Cluster: ci, Slot: slot}
	st.placed[u] = true
	if st.rec != nil {
		st.rec.Emit(trace.Event{Kind: trace.KindPlace, II: int32(st.ii), Op: int32(u),
			Cluster: int32(ci), Cycle: int32(t), Reg: -1})
	}
	st.wc.Invalidate(u)
	st.neighboursPlaced(u, 1)
	st.refreshAround(u)
	st.liveInAdjust(u, 1)
	if st.audit != nil {
		st.audit("commit")
	}
}

// unplace ejects x from the schedule: frees its unit slot, drops the bus
// transfers its placement implied, and rolls its pressure contributions
// back. x returns to the pending pool via nextUnplaced.
func (st *state) unplace(x int) {
	st.ejections++
	if st.rec != nil {
		st.rec.Emit(trace.Event{Kind: trace.KindEject, II: int32(st.ii), Op: int32(x),
			Cluster: int32(st.plc[x].Cluster), Cycle: int32(st.plc[x].Cycle), Reg: -1,
			Label: st.loop.Instrs[x].Op})
	}
	st.release(x)
}

// release is the mechanics of unplace without the ejection statistic or
// trace event — compact lifts ops through it because every lift is
// re-seated, which is movement, not backtracking.
func (st *state) release(x int) {
	p := st.plc[x]
	st.mrt.Release(p.Cluster, p.Slot, p.Cycle)
	for _, e := range st.g.Preds(x) {
		if e.Kind != ir.DepTrue || e.From == x || !st.placed[e.From] || st.plc[e.From].Cluster == p.Cluster {
			continue
		}
		st.mrt.RemoveTransfer(e.From, e.Reg, p.Cluster)
	}
	for _, e := range st.g.Succs(x) {
		if e.Kind != ir.DepTrue || e.To == x || !st.placed[e.To] || st.plc[e.To].Cluster == p.Cluster {
			continue
		}
		st.mrt.RemoveTransfer(x, e.Reg, st.plc[e.To].Cluster)
	}
	st.liveInAdjust(x, -1)
	st.placed[x] = false
	st.wc.Invalidate(x)
	st.neighboursPlaced(x, -1)
	st.refreshAround(x)
	if st.audit != nil {
		st.audit("release")
	}
}

// refreshAround recomputes the charged lifetimes x's placement change
// affects: the values x defines and the values x consumes (their
// producers' lifetimes stretch or shrink with x).
func (st *state) refreshAround(x int) {
	for _, d := range st.loop.Instrs[x].Defs {
		st.refreshDef(x, d)
	}
	st.seenDefs = st.seenDefs[:0]
	for _, e := range st.g.Preds(x) {
		if e.Kind != ir.DepTrue {
			continue
		}
		if fi := st.defSlot(e.From, e.Reg); !slices.Contains(st.seenDefs, fi) {
			st.seenDefs = append(st.seenDefs, fi)
			st.refreshDef(e.From, e.Reg)
		}
	}
}

// refreshDef recomputes the pressure intervals of the value instruction
// id writes to reg through the shared lifetime enumeration (life.OfDef):
// the local lifetime to its last placed consumer plus one bus-delivered
// copy per consuming remote cluster — the identical model
// regpress.Analyze reports for the finished schedule. The charged slot's
// slice is refilled in place, so steady-state refreshes allocate nothing.
func (st *state) refreshDef(id int, reg ir.VReg) {
	fi := st.defSlot(id, reg)
	st.countEligible(id, fi, -1)
	for _, lt := range st.charged[fi] {
		st.track.RemoveLifetime(lt)
	}
	lts := life.AppendOfDef(st.charged[fi][:0], &st.lview, id, reg)
	for _, lt := range lts {
		st.track.AddLifetime(lt)
	}
	st.charged[fi] = lts
	st.countEligible(id, fi, 1)
}

// countEligible adds delta to the eligibility counts of the lifetimes
// charged to slot fi (definition id), if victim may pick the definition
// at all. AppendOfDef yields at most one lifetime per cluster, so each
// lifetime is its cluster's length for the slot.
func (st *state) countEligible(id, fi int, delta int32) {
	if st.noSpill[id] || st.defUses[fi] == 0 {
		return
	}
	nc := st.m.NumClusters()
	for _, lt := range st.charged[fi] {
		for k, minLen := range st.minLens {
			if lt.Length() >= minLen {
				st.eligible[k*nc+lt.Cluster] += delta
			}
		}
	}
}

// liveInAdjust charges (delta=+1) or releases (delta=-1) whole-kernel
// lifetimes for the live-in registers x consumes, one per consuming
// cluster, reference-counted across that cluster's consumers.
func (st *state) liveInAdjust(x, delta int) {
	ci, nc := st.plc[x].Cluster, st.m.NumClusters()
	for _, u := range st.liveInUses[x] {
		i := int(u)*nc + ci
		st.liveIn[i] += int32(delta)
		lt := life.Lifetime{Reg: u, Def: -1, Cluster: ci, Start: 0, End: st.ii - 1}
		if delta > 0 && st.liveIn[i] == 1 {
			st.track.AddLifetime(lt)
			st.liveIns[ci]++
		}
		if delta < 0 && st.liveIn[i] == 0 {
			st.track.RemoveLifetime(lt)
			st.liveIns[ci]--
		}
	}
}

// schedule snapshots the current (complete) placement as a
// sched.Schedule.
func (st *state) schedule(by string) *sched.Schedule {
	return &sched.Schedule{
		Loop:       st.loop,
		Machine:    st.m,
		Graph:      st.g,
		II:         st.ii,
		Placements: append([]sched.Placement(nil), st.plc...),
		By:         by,
		Stats: map[string]int{
			"ejections":    st.ejections,
			"spill_stores": st.spillStores,
			"spill_loads":  st.spillLoads,
		},
	}
}
