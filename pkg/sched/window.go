package sched

import (
	"github.com/paper-repo-growth/mirs/internal/buf"
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

// AppendPlacementTransfers appends to dst the bus transfers that
// placing instruction id on (cluster, cycle) creates against
// already-placed neighbours: inbound from placed true-dependence
// producers on other clusters (at their fixed availability cycles) and
// outbound to placed consumers elsewhere (leaving at cycle plus id's
// latency). Loop-carried edges mean consumers can be placed before
// their producer, so both directions matter. dst may be a truncated
// scratch buffer (dst[:0]), so placement loops probing many candidate
// positions reuse one allocation instead of allocating per probe.
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
	// win is indexed id*nc+cluster.
	win []window
	// hits/misses count memoised lookups served from cache vs
	// recomputed, reset with the cache. Plain int64 increments: the
	// counters exist so a tracing backend can emit per-II cache
	// aggregates (trace.KindCacheHit/Miss) without paying a per-lookup
	// event.
	hits, misses int64
}

// window is one cached (instruction, cluster) entry: the earliest
// start, the latest start and whether a placed successor bounds it, with
// estOK/lstOK saying whether each half is current.
type window struct {
	est, lst              int32
	bounded, estOK, lstOK bool
}

// NewWindowCache returns an empty cache for graph g on machine m at the
// given II. Reset retargets it; Invalidate keeps it current.
func NewWindowCache(g *ir.Graph, m *machine.Machine, ii int) *WindowCache {
	wc := &WindowCache{}
	wc.Reset(g, m, ii)
	return wc
}

// Reset rebinds the cache to a (possibly new) graph and II and clears
// every entry, reusing the backing array, which grows with amortised
// capacity. Call it at the start of each candidate II and whenever the
// graph changes (e.g. after a spill splice renumbers instructions).
func (wc *WindowCache) Reset(g *ir.Graph, m *machine.Machine, ii int) {
	wc.g, wc.m, wc.ii, wc.nc = g, m, ii, m.NumClusters()
	wc.win = buf.Zeroed(wc.win, g.NumNodes()*wc.nc)
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
	clear(wc.win[id*wc.nc : (id+1)*wc.nc])
}

// EarliestStart is the memoised EarliestStart scan.
func (wc *WindowCache) EarliestStart(plc []Placement, placed []bool, id, cluster int) int {
	w := &wc.win[id*wc.nc+cluster]
	if !w.estOK {
		w.est = int32(EarliestStart(wc.g, wc.m, plc, placed, wc.ii, id, cluster))
		w.estOK = true
		wc.misses++
	} else {
		wc.hits++
	}
	return int(w.est)
}

// Window is the memoised Window scan: the inclusive [est, lst] interval
// instruction id may occupy on cluster, lst capped at est+II-1 when no
// placed successor bounds it.
func (wc *WindowCache) Window(plc []Placement, placed []bool, id, cluster int) (est, lst int) {
	est = wc.EarliestStart(plc, placed, id, cluster)
	w := &wc.win[id*wc.nc+cluster]
	if !w.lstOK {
		l, bounded := LatestStart(wc.g, wc.m, plc, placed, wc.ii, id, cluster)
		w.lst, w.bounded = int32(l), bounded
		w.lstOK = true
		wc.misses++
	} else {
		wc.hits++
	}
	lst = int(w.lst)
	if !w.bounded || lst > est+wc.ii-1 {
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

// HeightBuf is the reusable storage of Heights: the result, the
// intra-iteration topological order it walks and that order's scratch,
// carved from one array. The zero value is ready to use.
type HeightBuf struct{ height, topo, indeg []int }

// Heights is Heights computed into b, allocation-free once b has grown
// to the graph. The result stays valid until the next call.
func (b *HeightBuf) Heights(g *ir.Graph) ([]int, error) {
	n := g.NumNodes()
	if cap(b.indeg) < n {
		back := make([]int, 3*n)
		b.height, b.topo, b.indeg = back[:n:n], back[n:n:2*n], back[2*n:]
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
