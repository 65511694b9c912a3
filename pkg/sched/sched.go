// Package sched defines the modulo-scheduling layer: the pluggable
// Scheduler interface, the Schedule result type keyed by (cycle, slot,
// cluster), the modulo reservation table, and the MII lower bound
// MII = max(ResMII, RecMII).
//
// The package deliberately separates the *contract* (Scheduler, Schedule,
// Schedule.Validate) from any particular algorithm so alternative
// backends — the paper's MIRS with integrated spilling, SAT/SMT-based
// optimal schedulers, heuristic variants — can be slotted in behind the
// same interface. ListScheduler is the reference baseline implementation.
package sched

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// Request bundles the inputs of a scheduling run.
type Request struct {
	// Ctx, when non-nil, carries the caller's cancellation signal into
	// the II search: Drive polls Request.Cancelled at every candidate II
	// (the natural checkpoint — one II attempt is bounded work) and
	// abandons the search with the context's error once it fires. A nil
	// Ctx means "never cancelled" and costs nothing to poll, so batch
	// and test callers that want no deadline simply leave it unset.
	Ctx context.Context
	// Loop is the loop body to schedule.
	Loop *ir.Loop
	// Machine is the target machine description.
	Machine *machine.Machine
	// Graph is the loop's dependence graph. If nil the scheduler builds
	// it with ir.Build's defaults; pass an explicit graph to add memory
	// dependences or tune edge latencies.
	Graph *ir.Graph
	// MaxII caps the initiation-interval search. Zero means the
	// scheduler picks a safe upper bound.
	MaxII int
	// MII optionally carries a precomputed ComputeMII result for Graph,
	// so callers that already ran the analysis (e.g. the core facade)
	// don't pay for Tarjan + the RecMII search twice. Leave nil to let
	// the scheduler compute it.
	MII *MII
	// Recorder, when non-nil, receives the backend's search events (II
	// attempts, placements, window misses, ejections, spills — see
	// pkg/trace). Recorders observe, never steer: the schedule produced
	// is bit-identical with or without one. Nil — the default — is the
	// disabled state; every emission site is guarded by a nil check, so
	// it costs one predicted branch and zero allocations.
	Recorder trace.Recorder
}

// Cancelled reports the request's cancellation state: nil while the
// request has no context or its context is still live, and the context
// error (wrapped, so errors.Is sees context.Canceled or
// context.DeadlineExceeded) once it fires. Backends call it between
// candidate IIs so a timed-out compilation returns promptly instead of
// finishing a search nobody is waiting for.
func (r *Request) Cancelled() error {
	if r.Ctx == nil {
		return nil
	}
	if err := r.Ctx.Err(); err != nil {
		return fmt.Errorf("sched: request cancelled: %w", err)
	}
	return nil
}

// Scheduler is the pluggable modulo-scheduler interface. Implementations
// must return a schedule that passes Schedule.Validate, or an error.
type Scheduler interface {
	// Name identifies the backend ("list", "mirs", ...).
	Name() string
	// Schedule produces a modulo schedule for the request.
	Schedule(req *Request) (*Schedule, error)
}

// Placement is where one instruction landed: issue cycle (flat, i.e. not
// reduced modulo II), cluster index, and slot index within the cluster's
// functional units.
type Placement struct {
	// Cycle is the issue cycle in the flat (non-modulo) schedule of one
	// iteration; the steady-state kernel issues it at Cycle mod II.
	Cycle int
	// Cluster indexes Machine.Clusters.
	Cluster int
	// Slot indexes Machine.Clusters[Cluster].Units.
	Slot int
}

// Schedule is the result of modulo-scheduling one loop: an initiation
// interval and a placement — keyed by (cycle, slot, cluster) — for every
// instruction.
type Schedule struct {
	// Loop and Machine are the scheduled loop and target.
	Loop    *ir.Loop
	Machine *machine.Machine
	// Graph is the dependence graph the schedule was checked against.
	Graph *ir.Graph
	// II is the initiation interval: a new iteration starts every II
	// cycles.
	II int
	// Placements is indexed by instruction ID.
	Placements []Placement
	// By is the name of the scheduler that produced the schedule.
	By string
	// Stats carries optional backend-reported counters — spill stores and
	// loads, ejections, spill-induced II increase, and the like. Keys are
	// backend-defined; nil for backends that report nothing.
	Stats map[string]int
}

// Start returns the flat issue cycle of instruction id.
func (s *Schedule) Start(id int) int { return s.Placements[id].Cycle }

// AddStat bumps a backend statistic by n, lazily allocating the Stats
// map. Backends must use it (rather than writing the map directly) so a
// schedule that never reported anything can still take late stats — and
// an n of zero still materialises the key, which is how backends declare
// a counter they track even when it stayed at zero.
func (s *Schedule) AddStat(key string, n int) {
	if s.Stats == nil {
		s.Stats = map[string]int{}
	}
	s.Stats[key] += n
}

// LifeView returns the life.View of this (complete) schedule: the input
// the shared lifetime enumeration (pkg/life), the pressure analysis
// built on it (regpress.Analyze) and modulo variable expansion (Expand)
// all read placements through.
func (s *Schedule) LifeView() *life.View {
	return &life.View{Loop: s.Loop, Graph: s.Graph, Machine: s.Machine, II: s.II,
		At: func(id int) (int, int, bool) {
			p := s.Placements[id]
			return p.Cycle, p.Cluster, true
		}}
}

// At returns the ID of the instruction occupying (cycle mod II, cluster,
// slot) in the steady-state kernel, or -1 if the slot is empty.
func (s *Schedule) At(cycle, cluster, slot int) int {
	mod := ((cycle % s.II) + s.II) % s.II
	for id, p := range s.Placements {
		if p.Cluster == cluster && p.Slot == slot && p.Cycle%s.II == mod {
			return id
		}
	}
	return -1
}

// Length returns the flat schedule length in cycles (last issue cycle +
// 1), i.e. the single-iteration span before modulo wrapping.
func (s *Schedule) Length() int {
	max := 0
	for _, p := range s.Placements {
		if p.Cycle+1 > max {
			max = p.Cycle + 1
		}
	}
	return max
}

// StageCount returns the number of kernel stages, ceil(Length/II): how
// many iterations overlap in the steady state.
func (s *Schedule) StageCount() int {
	return (s.Length() + s.II - 1) / s.II
}

// EdgeLatency returns the effective latency of dependence e under this
// schedule's cluster assignment: the edge latency, plus the inter-cluster
// bus latency when a true dependence crosses clusters.
func (s *Schedule) EdgeLatency(e *ir.Edge) int {
	lat := e.Latency
	if e.Kind == ir.DepTrue && s.Placements[e.From].Cluster != s.Placements[e.To].Cluster {
		lat += s.Machine.BusLatency()
	}
	return lat
}

// Validate checks that the schedule is well formed and respects every
// machine and dependence constraint:
//
//   - II >= 1, the machine was constructed (machine.ErrNotBuilt
//     otherwise), and every instruction has a placement inside the
//     machine (valid cluster, valid slot, non-negative cycle);
//   - the slot's functional unit supports the instruction's class;
//   - no two instructions occupy the same (cluster, slot, cycle mod II)
//     — the modulo resource constraint;
//   - for every dependence edge, start(To) >= start(From) +
//     EdgeLatency(e) - Distance*II;
//   - bus bandwidth: each distinct cross-cluster transfer — one per
//     (producer, register, destination cluster), consumers in the same
//     cluster share a broadcast — occupies a bus at the cycle the value
//     leaves the producer (issue + result latency, mod II), and no cycle
//     carries more transfers than Machine.BusCount().
//
// It returns nil for a valid schedule and a descriptive error for the
// first violation found.
func (s *Schedule) Validate() error {
	v, _ := s.check(nil)
	return v.err(s)
}

// violation is the first constraint check finds broken, with what
// Validate's message names: kind says which check failed, id and other
// are instructions, e the offending edge, cycle a kernel cycle and
// count a transfer count. The zero value is no violation.
type violation struct {
	kind      violationKind
	id, other int
	e         *ir.Edge
	cycle     int
	count     int
}

type violationKind uint8

const (
	noViolation violationKind = iota
	badII
	missingParts
	unbuiltMachine
	placementCount
	unscheduled
	badCluster
	badSlot
	unsupported
	slotConflict
	dependence
	busBandwidth
)

// check is Validate without the formatting: the first violation, found
// with scratch (grown to (units+1)*II and returned) as its occupancy and
// bus tables, so a caller that keeps the scratch checks placements
// without allocating. A dense occupancy array instead of a map matters:
// MIRS validates every complete placement it reaches and the list
// scheduler every greedy pass.
func (s *Schedule) check(scratch []int32) (violation, []int32) {
	if s.II < 1 {
		return violation{kind: badII}, scratch
	}
	if s.Loop == nil || s.Machine == nil || s.Graph == nil {
		return violation{kind: missingParts}, scratch
	}
	m := s.Machine
	if m.CheckBuilt() != nil {
		return violation{kind: unbuiltMachine}, scratch
	}
	if len(s.Placements) != s.Loop.NumInstrs() {
		return violation{kind: placementCount}, scratch
	}
	totalUnits := m.NumUnits()
	scratch = buf.Zeroed(scratch, (totalUnits+1)*s.II)
	occupied, busAt := scratch[:totalUnits*s.II], scratch[totalUnits*s.II:]
	for i := range occupied {
		occupied[i] = -1
	}
	for id, p := range s.Placements {
		in := s.Loop.Instrs[id]
		switch {
		case p.Cycle < 0:
			return violation{kind: unscheduled, id: id}, scratch
		case p.Cluster < 0 || p.Cluster >= m.NumClusters():
			return violation{kind: badCluster, id: id}, scratch
		case p.Slot < 0 || p.Slot >= len(m.Clusters[p.Cluster].Units):
			return violation{kind: badSlot, id: id}, scratch
		case m.UnitMask(p.Cluster, m.ClassID(in.Class))>>p.Slot&1 == 0:
			return violation{kind: unsupported, id: id}, scratch
		}
		key := (m.UnitBase(p.Cluster)+p.Slot)*s.II + p.Cycle%s.II
		if other := occupied[key]; other != -1 {
			return violation{kind: slotConflict, id: id, other: int(other)}, scratch
		}
		occupied[key] = int32(id)
	}
	for i := range s.Graph.Edges {
		e := &s.Graph.Edges[i]
		if s.Start(e.To) < s.Start(e.From)+s.EdgeLatency(e)-e.Distance*s.II {
			return violation{kind: dependence, e: e}, scratch
		}
	}
	// Bus bandwidth: distinct transfers per (producer, register,
	// destination cluster), each claiming a bus at the cycle the value
	// leaves the producer. A transfer is counted at its first edge in
	// the producer's successors, which is also its first in Edges.
	for i := range s.Graph.Edges {
		e := &s.Graph.Edges[i]
		dest := s.Placements[e.To].Cluster
		if e.Kind != ir.DepTrue || s.Placements[e.From].Cluster == dest || s.firstTransferEdge(e.From, e.Reg, dest) != e {
			continue
		}
		cyc := TransferCycle(s.Machine, s.Loop, s.Placements, e.From) % s.II
		busAt[cyc]++
		if int(busAt[cyc]) > s.Machine.BusCount() {
			return violation{kind: busBandwidth, e: e, cycle: cyc, count: int(busAt[cyc])}, scratch
		}
	}
	return violation{}, scratch
}

// err formats v as Validate reports it, nil for no violation.
func (v violation) err(s *Schedule) error {
	var in *ir.Instruction
	var p Placement
	if v.kind >= unscheduled && v.kind <= slotConflict {
		in, p = s.Loop.Instrs[v.id], s.Placements[v.id]
	}
	switch v.kind {
	case badII:
		return fmt.Errorf("sched: II %d < 1", s.II)
	case missingParts:
		return fmt.Errorf("sched: schedule missing loop, machine or graph")
	case unbuiltMachine:
		return s.Machine.CheckBuilt()
	case placementCount:
		return fmt.Errorf("sched: %d placements for %d instructions", len(s.Placements), s.Loop.NumInstrs())
	case unscheduled:
		return fmt.Errorf("sched: instruction %d (%s) unscheduled (cycle %d)", v.id, in.Op, p.Cycle)
	case badCluster:
		return fmt.Errorf("sched: instruction %d on invalid cluster %d", v.id, p.Cluster)
	case badSlot:
		return fmt.Errorf("sched: instruction %d on invalid slot %d of cluster %q", v.id, p.Slot, s.Machine.Clusters[p.Cluster].Name)
	case unsupported:
		cl := &s.Machine.Clusters[p.Cluster]
		return fmt.Errorf("sched: instruction %d (%s, class %q) on unit %q.%q which does not support it",
			v.id, in.Op, in.Class, cl.Name, cl.Units[p.Slot].Name)
	case slotConflict:
		return fmt.Errorf("sched: instructions %d and %d both occupy cluster %d slot %d cycle %d (mod II=%d)",
			v.other, v.id, p.Cluster, p.Slot, p.Cycle%s.II, s.II)
	case dependence:
		e := v.e
		return fmt.Errorf("sched: %s dependence %d->%d (dist %d, lat %d) violated: start(%d)=%d < %d under II=%d",
			e.Kind, e.From, e.To, e.Distance, s.EdgeLatency(e), e.To, s.Start(e.To),
			s.Start(e.From)+s.EdgeLatency(e)-e.Distance*s.II, s.II)
	case busBandwidth:
		e := v.e
		return fmt.Errorf("sched: bus bandwidth exceeded at cycle %d (mod II=%d): %d transfers, %d buses (last: %s from instruction %d to cluster %d)",
			v.cycle, s.II, v.count, s.Machine.BusCount(), e.Reg, e.From, s.Placements[e.To].Cluster)
	}
	return nil
}

// firstTransferEdge returns the first true edge out of from that carries
// reg to an instruction on cluster dest.
func (s *Schedule) firstTransferEdge(from int, reg ir.VReg, dest int) *ir.Edge {
	for _, e := range s.Graph.Succs(from) {
		if e.Kind == ir.DepTrue && e.Reg == reg && s.Placements[e.To].Cluster == dest {
			return e
		}
	}
	return nil
}

// String renders the steady-state kernel as an II-row table, one column
// per (cluster, slot), for debugging and golden tests.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s by %s: II=%d stages=%d\n", s.Loop.Name, s.Machine.Name, s.By, s.II, s.StageCount())
	type col struct{ cluster, slot int }
	var cols []col
	for ci := range s.Machine.Clusters {
		for ui := range s.Machine.Clusters[ci].Units {
			cols = append(cols, col{ci, ui})
		}
	}
	byKey := map[[3]int][]int{}
	for id, p := range s.Placements {
		k := [3]int{p.Cluster, p.Slot, p.Cycle % s.II}
		byKey[k] = append(byKey[k], id)
	}
	for cyc := 0; cyc < s.II; cyc++ {
		fmt.Fprintf(&b, "%3d |", cyc)
		for _, c := range cols {
			ids := byKey[[3]int{c.cluster, c.slot, cyc}]
			sort.Ints(ids)
			cell := "."
			if len(ids) > 0 {
				parts := make([]string, len(ids))
				for i, id := range ids {
					parts[i] = fmt.Sprintf("%s%d", s.Loop.Instrs[id].Op, id)
				}
				cell = strings.Join(parts, "/")
			}
			fmt.Fprintf(&b, " %-8s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
