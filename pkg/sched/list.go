package sched

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// ListScheduler is the reference baseline backend: a non-backtracking
// modulo list scheduler. It starts at II = MII, places instructions in
// intra-iteration topological order (highest dependence height first),
// greedily picking the cluster and earliest cycle with a free compatible
// slot in the modulo reservation table — clusters tying on cycle compete
// on fewer implied bus transfers — and bumps II and retries whenever
// placement fails or a loop-carried dependence from a later-placed
// instruction ends up violated. It makes no attempt at register-pressure
// control — it is the baseline the paper's MIRS (with integrated
// spilling) is measured against.
type ListScheduler struct{}

// Name returns "list".
func (ListScheduler) Name() string { return "list" }

// Schedule implements Scheduler. The produced schedule always passes
// Schedule.Validate; it returns an error only for invalid input (bad
// loop/graph, unsupported op class, intra-iteration cycle) or when the
// II search exceeds Request.MaxII.
func (ls ListScheduler) Schedule(req *Request) (*Schedule, error) { return Drive(req, ls) }

// Probe implements Prober: the list scheduler's II search as a
// candidate-keyed sweep. Keys [0, span] are the normal multi-cluster
// phase (II = MII + key); keys (span, 2*span+1] are the single-cluster
// fallback phase at the same II range, present only when a sole cluster
// covers the loop. The sweep and every attempter share the graph and
// the placement order read-only; each attempter owns its reservation
// table and placement scratch, sized on its first attempt.
func (ls ListScheduler) Probe(req *Request) (Sweep, func() Attempter, error) {
	g, mii, maxII, err := Prepare(req)
	if err != nil {
		return nil, nil, err
	}
	order, err := placementOrder(g)
	if err != nil {
		return nil, nil, err
	}
	keys := listKeys{mii: mii.MII, span: maxII - mii.MII, fallback: soleClusterFor(req)}
	sw := &listSweep{listKeys: keys, req: req, maxII: maxII}
	sw.Last = keys.span
	if keys.fallback >= 0 {
		sw.Last = 2*keys.span + 1
	}
	at := listAttempter{listKeys: keys, ls: ls, req: req, g: g, order: order}
	return sw, func() Attempter {
		cp := at
		return &cp
	}, nil
}

// listSweep is the list scheduler's II search state: candidate keys
// ascend through the normal phase and then — when a fallback cluster
// exists — the single-cluster phase. Greedy cross-cluster placement can
// wedge itself on bus bandwidth at *every* II: a consumer's transfer
// must ride a bus at the cycle its already-placed producer's value
// leaves, and once ASAP packing has saturated that cycle no cluster
// choice helps — escalating II repacks the same early cycles and
// saturates them again. The fallback phase retries on a single cluster
// that supports every class the loop uses: with no cross-cluster
// dependences the bus constraint is vacuous, so a serial schedule
// always exists at some II within the horizon.
type listSweep struct {
	LinearSweep // Last is span, or 2*span+1 with a fallback phase
	listKeys
	req   *Request
	maxII int
}

// listKeys is the list search's candidate-key encoding, shared by the
// sweep and its attempters.
type listKeys struct {
	mii      int
	span     int // maxII - mii: candidate keys per phase, minus one
	fallback int // sole covering cluster for phase two, or -1
}

// decode maps a candidate key to its (II, restricted-cluster) pair;
// onlyCluster is -1 in the normal phase.
func (k listKeys) decode(cand int) (ii, onlyCluster int) {
	if cand <= k.span {
		return k.mii + cand, -1
	}
	return k.mii + cand - k.span - 1, k.fallback
}

// Consume implements Sweep: the first schedule wins, anything else
// advances one key.
func (w *listSweep) Consume(cand int, a Attempt) {
	if !w.Accept(a) {
		return
	}
	if a.Schedule != nil {
		ii, only := w.decode(cand)
		a.Schedule.AddStat("ii_over_mii", ii-w.mii)
		if only >= 0 {
			a.Schedule.AddStat("single_cluster_fallback", 1)
		}
		w.Succeed(a.Schedule)
		return
	}
	w.Cursor++
}

// Result implements Sweep.
func (w *listSweep) Result() (*Schedule, error) {
	if w.Settled() {
		return w.Out, w.Err
	}
	return nil, fmt.Errorf("sched: list: no valid schedule for loop %q on %q within II <= %d",
		w.req.Loop.Name, w.req.Machine.Name, w.maxII)
}

// listAttempter runs one candidate key per call on its own scratch
// (reservation table, placement buffers), reused across candidates.
type listAttempter struct {
	listKeys
	ls    ListScheduler
	req   *Request
	g     *ir.Graph
	order []int
	sc    *listScratch
}

// AttemptII implements Attempter; ctx is unused (see Attempter). List
// attempts carry no backtracking, so they are short and Drive's poll of
// the request context between candidates bounds cancellation latency.
func (at *listAttempter) AttemptII(_ context.Context, cand int, rec trace.Recorder) Attempt {
	if at.sc == nil {
		sc, err := newListScratch(at.req.Machine, at.g, at.mii)
		if err != nil {
			return Attempt{Err: err}
		}
		at.sc = sc
	}
	ii, onlyCluster := at.decode(cand)
	if rec != nil {
		if onlyCluster < 0 {
			mark := int64(0)
			if ii == at.mii {
				// Arg carries the MII on the first attempt so a profile can
				// report the search's starting point without recomputing it.
				mark = int64(at.mii)
			}
			rec.Emit(trace.Event{Kind: trace.KindIIStart, II: int32(ii), Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: mark})
		} else {
			rec.Emit(trace.Event{Kind: trace.KindIIStart, II: int32(ii), Op: -1, Cluster: int32(onlyCluster), Cycle: -1, Reg: -1})
		}
	}
	valid := at.ls.tryII(at.req, at.g, at.order, ii, onlyCluster, at.sc, rec) && at.sc.valid(at.req, at.g, ii)
	if rec != nil {
		completed := int64(0)
		if valid {
			completed = 1
		}
		rec.Emit(trace.Event{Kind: trace.KindIIEnd, Returned: valid, II: int32(ii), Op: -1, Cluster: int32(onlyCluster), Cycle: -1, Reg: -1, Arg: completed})
	}
	if !valid {
		return Attempt{}
	}
	s := at.sc.check
	s.Placements = append([]Placement(nil), s.Placements...)
	s.By = at.ls.Name()
	return Attempt{Schedule: &s, Completed: true}
}

// soleClusterFor returns the index of the cluster with the most
// functional units among those supporting every op class the loop uses,
// or -1 when no single cluster covers the loop — then the single-cluster
// fallback cannot apply.
func soleClusterFor(req *Request) int {
	m := req.Machine
	var classes uint64 // the loop's class IDs
	for _, in := range req.Loop.Instrs {
		k := m.ClassID(in.Class)
		if k < 0 {
			return -1
		}
		classes |= 1 << k
	}
	best, bestUnits := -1, 0
	for ci := range m.Clusters {
		covers := true
		for b := classes; b != 0 && covers; b &= b - 1 {
			covers = m.UnitMask(ci, bits.TrailingZeros64(b)) != 0
		}
		if covers && len(m.Clusters[ci].Units) > bestUnits {
			best, bestUnits = ci, len(m.Clusters[ci].Units)
		}
	}
	return best
}

// placementOrder returns the intra-iteration topological order, with ties
// broken by descending dependence height (longest latency path to a sink
// through distance-0 edges), the classic list-scheduling priority. The
// topological order is the one Heights walks; it is sorted in place, and
// Heights' scratch holds first each node's topological position and then
// which nodes are emitted.
func placementOrder(g *ir.Graph) ([]int, error) {
	var hb HeightBuf
	height, err := hb.Heights(g)
	if err != nil {
		return nil, err
	}
	order, pos := hb.topo, hb.indeg
	for i, v := range order {
		pos[v] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(height[b], height[a]), cmp.Compare(pos[a], pos[b]))
	})
	// Sorting by height alone can break topological validity when a low
	// node has high height; re-impose topology with a stable insertion
	// pass: process sorted candidates, emitting each only once all its
	// distance-0 predecessors are emitted.
	emitted := pos
	clear(emitted)
	ready := func(v int) bool {
		for _, e := range g.Preds(v) {
			if e.Distance == 0 && emitted[e.From] == 0 {
				return false
			}
		}
		return true
	}
	final := make([]int, 0, len(order))
	for len(final) < len(order) {
		progress := false
		for _, v := range order {
			if emitted[v] != 0 || !ready(v) {
				continue
			}
			emitted[v] = 1
			final = append(final, v)
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("sched: list: priority order stuck on loop %q", g.Loop.Name)
		}
	}
	return final, nil
}

// listScratch is the state one attempter reuses across its attempts:
// the reservation table, the placement buffers, a transfer scratch
// slice, and the schedule and tables a complete placement is checked
// with. Nothing in the per-candidate placement loop allocates, and
// neither does rejecting a placement that breaks a loop-carried edge.
type listScratch struct {
	mrt    *MRT
	placed []bool
	plc    []Placement
	trs    []Transfer
	check  Schedule
	tables []int32
}

// valid checks the complete placement in plc at II ii in place. The
// greedy pass honours only the edges from already-placed producers, so
// a loop-carried edge into an earlier-placed consumer can break; only a
// placement that passes is copied out.
func (sc *listScratch) valid(req *Request, g *ir.Graph, ii int) bool {
	sc.check = Schedule{Loop: req.Loop, Machine: req.Machine, Graph: g, II: ii, Placements: sc.plc}
	var v violation
	v, sc.tables = sc.check.check(sc.tables)
	return v.kind == noViolation
}

func newListScratch(m *machine.Machine, g *ir.Graph, ii int) (*listScratch, error) {
	mrt, err := NewMRT(m, ii)
	if err != nil {
		return nil, err
	}
	return &listScratch{
		mrt:    mrt,
		placed: make([]bool, g.NumNodes()),
		plc:    make([]Placement, g.NumNodes()),
	}, nil
}

// tryII attempts one greedy placement pass at a fixed II into sc.plc. A
// non-negative onlyCluster restricts every placement to that cluster
// (the bus-free fallback mode). It reports false when some instruction
// found no free slot within its II-cycle window. rec is the attempt's
// recorder.
func (ls ListScheduler) tryII(req *Request, g *ir.Graph, order []int, ii, onlyCluster int, sc *listScratch, rec trace.Recorder) bool {
	m := req.Machine
	sc.mrt.Reset(ii)
	mrt := sc.mrt
	placed, plc := sc.placed, sc.plc
	for i := range placed {
		placed[i] = false
		plc[i] = Placement{}
	}

	for _, id := range order {
		in := req.Loop.Instrs[id]
		class := m.ClassID(in.Class)
		type cand struct{ cycle, cluster, slot, ntr int }
		best := cand{cycle: -1}
		for ci := 0; ci < m.NumClusters(); ci++ {
			if onlyCluster >= 0 && ci != onlyCluster {
				continue
			}
			// Earliest start on this cluster given already-placed
			// predecessors (cross-cluster true deps pay the bus).
			est := EarliestStart(g, m, plc, placed, ii, id, ci)
			// The II consecutive cycles from est cover every modulo
			// class; if none has a free compatible slot with bus
			// bandwidth left for the transfers the placement implies,
			// this cluster cannot take the instruction at this II.
			for t := est; t < est+ii; t++ {
				slot, ok := mrt.FreeSlot(ci, t, class)
				if !ok {
					continue
				}
				sc.trs = AppendPlacementTransfers(sc.trs[:0], g, m, req.Loop, plc, placed, id, ci, t)
				if _, err := mrt.AddTransfers(sc.trs); err != nil {
					continue
				}
				// Probe only: the winning candidate re-adds below.
				for _, tr := range sc.trs {
					mrt.RemoveTransfer(tr.From, tr.Reg, tr.Dest)
				}
				// Earliest cycle wins; ties go to the cluster needing
				// fewer bus transfers, which both saves bandwidth for
				// later placements and keeps dependence chains local.
				if best.cycle == -1 || t < best.cycle || (t == best.cycle && len(sc.trs) < best.ntr) {
					best = cand{cycle: t, cluster: ci, slot: slot, ntr: len(sc.trs)}
				}
				break
			}
		}
		if best.cycle == -1 {
			// No cluster had a free compatible slot inside the II-cycle
			// probe window: the greedy equivalent of an empty deadline
			// window, and where the attempt dies.
			if rec != nil {
				rec.Emit(trace.Event{Kind: trace.KindWindowMiss, II: int32(ii), Op: int32(id),
					Cluster: -1, Cycle: -1, Reg: -1, Label: in.Op})
			}
			return false
		}
		if err := mrt.Reserve(best.cluster, best.slot, best.cycle, id); err != nil {
			return false
		}
		sc.trs = AppendPlacementTransfers(sc.trs[:0], g, m, req.Loop, plc, placed, id, best.cluster, best.cycle)
		if _, err := mrt.AddTransfers(sc.trs); err != nil {
			return false
		}
		plc[id] = Placement{Cycle: best.cycle, Cluster: best.cluster, Slot: best.slot}
		placed[id] = true
		if rec != nil {
			rec.Emit(trace.Event{Kind: trace.KindPlace, II: int32(ii), Op: int32(id),
				Cluster: int32(best.cluster), Cycle: int32(best.cycle), Reg: -1})
		}
	}
	return true
}
