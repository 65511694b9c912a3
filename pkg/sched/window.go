package sched

import (
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// This file exposes the slack/window computation backtracking schedulers
// need: given a partial placement, the earliest and latest flat cycles an
// instruction may issue at on a particular cluster. The list scheduler
// uses the earliest-start half; MIRS uses the full window to bound its
// placement probe and to decide which already-placed successors a forced
// placement must eject.

// EarliestStart returns the earliest flat cycle at which instruction id
// can issue on the given cluster without violating a dependence from an
// already-placed predecessor. Cross-cluster true dependences pay the
// machine's bus latency. Unplaced predecessors impose no constraint; the
// result is never negative.
func EarliestStart(g *ir.Graph, m *machine.Machine, plc []Placement, placed []bool, ii, id, cluster int) int {
	est := 0
	bus := m.BusLatency()
	for _, e := range g.Preds(id) {
		if !placed[e.From] {
			continue
		}
		lat := e.Latency
		if e.Kind == ir.DepTrue && plc[e.From].Cluster != cluster {
			lat += bus
		}
		if t := plc[e.From].Cycle + lat - e.Distance*ii; t > est {
			est = t
		}
	}
	return est
}

// LatestStart returns the latest flat cycle at which instruction id can
// issue on the given cluster without violating a dependence *to* an
// already-placed successor (its deadline), and whether any placed
// successor bounds it at all. With bounded == false the instruction has
// no deadline and the returned cycle is meaningless.
func LatestStart(g *ir.Graph, m *machine.Machine, plc []Placement, placed []bool, ii, id, cluster int) (lst int, bounded bool) {
	bus := m.BusLatency()
	for _, e := range g.Succs(id) {
		if !placed[e.To] || e.To == id {
			continue
		}
		lat := e.Latency
		if e.Kind == ir.DepTrue && plc[e.To].Cluster != cluster {
			lat += bus
		}
		t := plc[e.To].Cycle - lat + e.Distance*ii
		if !bounded || t < lst {
			lst, bounded = t, true
		}
	}
	return lst, bounded
}

// Window combines EarliestStart and LatestStart: the inclusive flat-cycle
// interval [est, lst] instruction id may legally occupy on cluster given
// the current partial placement. When no placed successor bounds the
// instruction, lst is est+ii-1 (one full modulo period — probing more
// cycles than that revisits the same MRT rows). The window may be empty
// (lst < est): that is exactly the conflict a backtracking scheduler
// resolves by ejecting placed neighbours.
func Window(g *ir.Graph, m *machine.Machine, plc []Placement, placed []bool, ii, id, cluster int) (est, lst int) {
	est = EarliestStart(g, m, plc, placed, ii, id, cluster)
	l, bounded := LatestStart(g, m, plc, placed, ii, id, cluster)
	if !bounded || l > est+ii-1 {
		l = est + ii - 1
	}
	return est, l
}

// TransferCycle returns the cycle at which a value produced by placed
// instruction from occupies a bus: its issue cycle plus its result
// latency, the moment the value leaves the producer's cluster. Every
// piece of bus accounting — MRT reservations and Schedule.Validate —
// must use this one definition.
func TransferCycle(m *machine.Machine, loop *ir.Loop, plc []Placement, from int) int {
	return plc[from].Cycle + m.Latency(loop.Instrs[from].Class)
}

// PlacementTransfers lists the bus transfers that placing instruction id
// on (cluster, cycle) creates against already-placed neighbours: inbound
// from placed true-dependence producers on other clusters (at their
// fixed availability cycles) and outbound to placed consumers elsewhere
// (leaving at cycle plus id's latency). Loop-carried edges mean
// consumers can be placed before their producer, so both directions
// matter.
func PlacementTransfers(g *ir.Graph, m *machine.Machine, loop *ir.Loop, plc []Placement, placed []bool, id, cluster, cycle int) []Transfer {
	return AppendPlacementTransfers(nil, g, m, loop, plc, placed, id, cluster, cycle)
}

// AppendPlacementTransfers is PlacementTransfers appending into dst
// (which may be a truncated scratch buffer, dst[:0]) so placement loops
// probing many candidate positions reuse one allocation instead of
// allocating per probe.
func AppendPlacementTransfers(dst []Transfer, g *ir.Graph, m *machine.Machine, loop *ir.Loop, plc []Placement, placed []bool, id, cluster, cycle int) []Transfer {
	for _, e := range g.Preds(id) {
		if e.Kind != ir.DepTrue || e.From == id || !placed[e.From] || plc[e.From].Cluster == cluster {
			continue
		}
		dst = append(dst, Transfer{From: e.From, Reg: e.Reg, Dest: cluster,
			Cycle: TransferCycle(m, loop, plc, e.From)})
	}
	for _, e := range g.Succs(id) {
		if e.Kind != ir.DepTrue || e.To == id || !placed[e.To] || plc[e.To].Cluster == cluster {
			continue
		}
		dst = append(dst, Transfer{From: id, Reg: e.Reg, Dest: plc[e.To].Cluster,
			Cycle: cycle + m.Latency(loop.Instrs[id].Class)})
	}
	return dst
}

// WindowCache memoises EarliestStart/LatestStart scans per (instruction,
// cluster) for a backtracking scheduler. The scans are pure functions of
// the placements of the instruction's direct dependence neighbours, so
// instead of recomputing them on every probe the cache keeps the last
// result and invalidates only what a placement change can affect:
// Invalidate(x) clears the cached windows of every neighbour of x (an
// instruction's own window does not depend on its own placement, but x
// is cleared too, which is merely a spare recomputation).
//
// The contract, which the differential and scheduler tests pin: any
// sequence of Invalidate calls covering every placement mutation (place,
// eject, force) yields bit-identical EarliestStart/Window results to the
// uncached functions. Mutating a placement without Invalidate is a bug.
type WindowCache struct {
	g  *ir.Graph
	m  *machine.Machine
	ii int
	nc int
	// est/lst/bounded are indexed id*nc+cluster; estOK/lstOK say whether
	// the entry is current.
	est, lst     []int32
	bounded      []bool
	estOK, lstOK []bool
	// hits/misses count memoised lookups served from cache vs
	// recomputed, reset with the cache. Plain int64 increments: the
	// counters exist so a tracing backend can emit per-II cache
	// aggregates (trace.KindCacheHit/Miss) without paying a per-lookup
	// event.
	hits, misses int64
}

// NewWindowCache returns an empty cache for graph g on machine m at the
// given II. Reset retargets it; Invalidate keeps it current.
func NewWindowCache(g *ir.Graph, m *machine.Machine, ii int) *WindowCache {
	wc := &WindowCache{}
	wc.Reset(g, m, ii)
	return wc
}

// Reset rebinds the cache to a (possibly new) graph and II and clears
// every entry, reusing the backing arrays when the shape allows. Call it
// at the start of each candidate II and whenever the graph is swapped
// (e.g. after spill materialisation renumbers instructions).
func (wc *WindowCache) Reset(g *ir.Graph, m *machine.Machine, ii int) {
	wc.g, wc.m, wc.ii, wc.nc = g, m, ii, m.NumClusters()
	need := g.NumNodes() * wc.nc
	if cap(wc.est) < need {
		wc.est = make([]int32, need)
		wc.lst = make([]int32, need)
		wc.bounded = make([]bool, need)
		wc.estOK = make([]bool, need)
		wc.lstOK = make([]bool, need)
	} else {
		wc.est = wc.est[:need]
		wc.lst = wc.lst[:need]
		wc.bounded = wc.bounded[:need]
		wc.estOK = wc.estOK[:need]
		wc.lstOK = wc.lstOK[:need]
		for i := range wc.estOK {
			wc.estOK[i] = false
			wc.lstOK[i] = false
		}
	}
	wc.hits, wc.misses = 0, 0
}

// Stats returns the lookup counters since the last Reset: lookups
// served from the cache and lookups that recomputed a scan.
func (wc *WindowCache) Stats() (hits, misses int64) { return wc.hits, wc.misses }

// Invalidate clears the cached windows affected by a change to x's
// placement: every dependence neighbour of x, and x itself.
func (wc *WindowCache) Invalidate(x int) {
	wc.invalidateOne(x)
	for _, e := range wc.g.Succs(x) {
		wc.invalidateOne(e.To)
	}
	for _, e := range wc.g.Preds(x) {
		wc.invalidateOne(e.From)
	}
}

func (wc *WindowCache) invalidateOne(id int) {
	base := id * wc.nc
	for c := 0; c < wc.nc; c++ {
		wc.estOK[base+c] = false
		wc.lstOK[base+c] = false
	}
}

// EarliestStart is the memoised EarliestStart scan.
func (wc *WindowCache) EarliestStart(plc []Placement, placed []bool, id, cluster int) int {
	i := id*wc.nc + cluster
	if !wc.estOK[i] {
		wc.est[i] = int32(EarliestStart(wc.g, wc.m, plc, placed, wc.ii, id, cluster))
		wc.estOK[i] = true
		wc.misses++
	} else {
		wc.hits++
	}
	return int(wc.est[i])
}

// Window is the memoised Window scan: the inclusive [est, lst] interval
// instruction id may occupy on cluster, lst capped at est+II-1 when no
// placed successor bounds it.
func (wc *WindowCache) Window(plc []Placement, placed []bool, id, cluster int) (est, lst int) {
	est = wc.EarliestStart(plc, placed, id, cluster)
	i := id*wc.nc + cluster
	if !wc.lstOK[i] {
		l, bounded := LatestStart(wc.g, wc.m, plc, placed, wc.ii, id, cluster)
		wc.lst[i], wc.bounded[i] = int32(l), bounded
		wc.lstOK[i] = true
		wc.misses++
	} else {
		wc.hits++
	}
	lst = int(wc.lst[i])
	if !wc.bounded[i] || lst > est+wc.ii-1 {
		lst = est + wc.ii - 1
	}
	return est, lst
}

// Heights returns, per instruction, the classic list-scheduling priority:
// the longest latency path to a sink through intra-iteration (distance-0)
// edges. It fails if the intra-iteration subgraph has a cycle.
func Heights(g *ir.Graph) ([]int, error) {
	var b HeightBuf
	return b.Heights(g)
}

// HeightBuf is the reusable storage of Heights, the result and the
// topological-order scratch. The zero value is ready to use.
type HeightBuf struct{ height, topo, indeg []int }

// Heights is Heights computed into b, allocation-free once b has grown
// to the graph. The result stays valid until the next call.
func (b *HeightBuf) Heights(g *ir.Graph) ([]int, error) {
	n := g.NumNodes()
	if cap(b.indeg) < n { // with headroom: spills grow the graph a few nodes at a time
		b.height, b.topo, b.indeg = make([]int, n, 2*n), make([]int, 0, 2*n), make([]int, n, 2*n)
	}
	var err error
	if b.topo, err = g.IntraTopoOrderInto(b.topo, b.indeg[:n]); err != nil {
		return nil, err
	}
	topo := b.topo
	height := b.height[:n]
	clear(height)
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		for _, e := range g.Succs(v) {
			if e.Distance != 0 {
				continue
			}
			if h := e.Latency + height[e.To]; h > height[v] {
				height[v] = h
			}
		}
	}
	return height, nil
}
