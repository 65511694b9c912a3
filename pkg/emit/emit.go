// Package emit lowers a modulo-variable-expanded kernel
// (sched.ExpandedKernel) to architectural code: it maps every renamed
// rotating copy and live-in onto the per-cluster register files of the
// machine (names beyond machine.RegsPerCluster overflow onto stack-frame
// slots), and emits the schedule bundle by bundle — one VLIW bundle per
// cycle with explicit unit/cluster slots and per-producer bus-transfer
// slots — as three segments: prologue bundles that fill the pipeline
// stage by stage, the steady-state kernel of Unroll×II bundles, and
// epilogue bundles that drain it. Alongside the MVE form the program
// carries a predicated execution plan: the kernel bundles alone, run for
// extra leading/trailing passes with a per-stage-instance predicate
// index on every operation, which collapses prologue and epilogue at the
// cost of predicate registers (our addition over the paper; the paper
// generates MVE code). The deterministic interpreter in pkg/vm executes
// both plans and checks them against the sequential loop.
package emit

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// Loc is an architectural storage location: a register of one cluster's
// file, or — when the file overflowed — a stack-frame slot.
type Loc struct {
	// Cluster indexes Machine.Clusters; for a frame slot it records which
	// cluster's overflow produced the slot (diagnostics only).
	Cluster int
	// Index is the architectural register number within the cluster's
	// file, or the frame slot number when Frame is set.
	Index int
	// Frame marks a stack-frame slot: the name did not fit in the
	// cluster's register file.
	Frame bool
}

// String renders "c0:r3" or "fp[2]".
func (l Loc) String() string {
	if l.Frame {
		return fmt.Sprintf("fp[%d]", l.Index)
	}
	return fmt.Sprintf("c%d:r%d", l.Cluster, l.Index)
}

// Xfer is one bus-transfer slot attached to its producing operation: the
// value of def DefIdx departs on a bus when the result is ready and lands
// in Dst — the consumer cluster's copy of the same renamed register —
// Delay cycles after the producer issued (result latency + bus latency).
type Xfer struct {
	DefIdx int
	Dst    Loc
	Delay  int
}

// Op is one operation slot of a bundle.
type Op struct {
	// ID is the source instruction in Program.Loop — the key the
	// interpreter binds semantics by.
	ID int
	// Cluster and Slot are the issue coordinates (the functional unit).
	Cluster, Slot int
	// Latency is the result latency: defs commit that many cycles after
	// issue.
	Latency int
	// Iter identifies which loop iteration the operation instance
	// executes. In prologue and epilogue bundles it is the absolute
	// iteration. In kernel bundles it is the iteration at kernel pass 0;
	// pass k executes iteration Iter + k*Unroll. Under the predicated
	// plan Iter doubles as the predicate-register index: the op's
	// predicate is true iff 0 <= Iter + k*Unroll < trip.
	Iter int
	// Defs and Srcs are the architectural locations of the renamed
	// operands, parallel to the source instruction's Defs and Uses.
	Defs, Srcs []Loc
	// Xfers are the bus transfers this instance's results make to
	// consumer clusters.
	Xfers []Xfer
}

// Bundle is one VLIW issue cycle: the operations leaving in that cycle.
type Bundle struct {
	Ops []Op
}

// FrameSlot records which renamed register a stack-frame slot backs.
type FrameSlot struct {
	Cluster int
	Name    sched.RegCopy
}

// Program is the emitted architectural form of one expanded kernel.
type Program struct {
	// Machine and Loop are the target and the (possibly spill-augmented)
	// scheduled loop the bundles execute.
	Machine *machine.Machine
	Loop    *ir.Loop
	// II, Unroll and Stages mirror the schedule; Period = Unroll*II is
	// the kernel length in bundles.
	II, Unroll, Stages, Period int
	// Trip is the MVE plan's iteration count: Stages-1 + Passes*Unroll,
	// chosen so the kernel's last pass ends exactly where the epilogue
	// begins. The predicated plan accepts any trip count.
	Trip int
	// Passes is how many times the MVE plan runs the kernel.
	Passes int
	// Prologue, Kernel and Epilogue are the bundle segments:
	// (Stages-1)*II fill bundles, Period steady-state bundles and
	// (Stages-1)*II drain bundles.
	Prologue, Kernel, Epilogue []Bundle
	// KStart is the first (possibly negative) kernel pass of the
	// predicated plan at trip Trip; PredPasses the number of passes. A
	// different trip recomputes both (see PredWindow).
	KStart, PredPasses int
	// Names is the register allocation: Names[cluster][i] is the renamed
	// register architectural register i of that cluster holds. Frame
	// lists the overflow slots in allocation order.
	Names [][]sched.RegCopy
	Frame []FrameSlot

	regs []clusterRegs
}

// clusterRegs is one cluster's allocation: names lists every renamed
// register read or written on the cluster, sorted; names[i] sits in
// register i for i < nregs and in frame slot frame+i-nregs beyond.
type clusterRegs struct {
	names        []sched.RegCopy
	nregs, frame int
}

func cmpRegCopy(a, b sched.RegCopy) int {
	return cmp.Or(cmp.Compare(a.Reg, b.Reg), cmp.Compare(a.Copy, b.Copy))
}

// LocOf returns the location allocated to renamed register name on
// cluster — where consumers on that cluster read it.
func (p *Program) LocOf(cluster int, name sched.RegCopy) (Loc, bool) {
	if cluster < 0 || cluster >= len(p.regs) {
		return Loc{}, false
	}
	cr := &p.regs[cluster]
	i, ok := slices.BinarySearchFunc(cr.names, name, cmpRegCopy)
	switch {
	case !ok:
		return Loc{}, false
	case i < cr.nregs:
		return Loc{Cluster: cluster, Index: i}, true
	}
	return Loc{Cluster: cluster, Index: cr.frame + i - cr.nregs, Frame: true}, true
}

// PredWindow returns the kernel-pass window [kstart, kstart+passes) the
// predicated plan needs to cover every iteration in [0, trip): enough
// leading passes that every op slot reaches iteration >= 0 and enough
// trailing ones that it reaches trip-1.
func (p *Program) PredWindow(trip int) (kstart, passes int) {
	kend := 0
	first := true
	for _, b := range p.Kernel {
		for i := range b.Ops {
			op := &b.Ops[i]
			ks := -(op.Iter / p.Unroll)
			ke := floorDiv(trip-1-op.Iter, p.Unroll)
			if first {
				kstart, kend, first = ks, ke, false
				continue
			}
			if ks < kstart {
				kstart = ks
			}
			if ke > kend {
				kend = ke
			}
		}
	}
	if first || kend < kstart {
		return 0, 0
	}
	return kstart, kend - kstart + 1
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Emit lowers ek to an architectural program. The expanded kernel must
// come from the normal pipeline (Expand/ExpandWith), i.e. be
// Validate-clean; Emit checks only what lowering itself can get wrong.
//
// The program is carved out of a few arrays sized by a counting pass:
// one []Op backs the bundles of all three segments, one []Loc every
// Defs and Srcs, one []Xfer every Xfers, and one []sched.RegCopy the
// register allocation. Every slice handed out is capacity-capped and
// no two overlap, so editing one op in place leaves the others alone
// and appending to any slice copies it.
func Emit(ek *sched.ExpandedKernel) (*Program, error) {
	if ek == nil || ek.Schedule == nil {
		return nil, fmt.Errorf("emit: nil expanded kernel")
	}
	s := ek.Schedule
	m := s.Machine
	n := s.Loop.NumInstrs()
	sc := s.StageCount()
	ii := s.II
	u := ek.Unroll
	period := u * ii
	t0 := (sc - 1) * ii

	p := &Program{
		Machine: m, Loop: s.Loop,
		II: ii, Unroll: u, Stages: sc, Period: period,
	}

	// Iteration count of the MVE plan: enough kernel passes that the
	// pipeline reaches a steady state (~24 iterations), rounded so the
	// kernel's pass boundary lands exactly on the epilogue: trip =
	// (sc-1) + passes*u makes the last kernel bundle issue at cycle
	// trip*II - 1.
	passes := (24 + u - 1) / u
	if passes < 1 {
		passes = 1
	}
	p.Passes = passes
	p.Trip = sc - 1 + passes*u

	// Register allocation. Collect, per cluster, every renamed name read
	// or written there — an operand read on a cluster remote from its
	// producer names that cluster's bus-delivered copy, so collecting
	// both defs and uses per issuing cluster covers transfer
	// destinations too. One expanded period spans all unroll slots, and
	// every copy count divides Unroll, so the kernel's unroll slots name
	// every copy the prologue and epilogue will ever touch. The clusters'
	// names share one array: each cluster's are sorted and compacted in
	// place, and the next cluster's start behind them.
	total := 0
	for _, in := range s.Loop.Instrs {
		total += len(in.Defs) + len(in.Uses)
	}
	free := make([]sched.RegCopy, u*total)
	p.regs = make([]clusterRegs, m.NumClusters())
	p.Names = make([][]sched.RegCopy, len(p.regs))
	nframe := 0
	for ci := range p.regs {
		names := free[:0]
		for iter := range u {
			for id, in := range s.Loop.Instrs {
				if s.Placements[id].Cluster != ci {
					continue
				}
				for j := range in.Defs {
					names = append(names, ek.Def(id, j, iter))
				}
				for j := range in.Uses {
					names = append(names, ek.Use(id, j, iter))
				}
			}
		}
		slices.SortFunc(names, cmpRegCopy)
		names = slices.Compact(names)
		free = free[len(names):]
		cr := &p.regs[ci]
		cr.names = names[:len(names):len(names)]
		cr.nregs = min(len(names), m.RegsPerCluster(ci))
		cr.frame = nframe
		nframe += len(names) - cr.nregs
		if cr.nregs > 0 {
			p.Names[ci] = names[:cr.nregs:cr.nregs]
		}
	}
	if nframe > 0 {
		p.Frame = make([]FrameSlot, 0, nframe)
		for ci := range p.regs {
			cr := &p.regs[ci]
			for _, name := range cr.names[cr.nregs:] {
				p.Frame = append(p.Frame, FrameSlot{Cluster: ci, Name: name})
			}
		}
	}

	// Distinct bus transfers per producer: (register, destination
	// cluster) pairs, destinations sorted for determinism. Consumers on
	// one remote cluster share a broadcast, exactly as Schedule.Validate
	// accounts buses. All producers' routes share one array sorted by
	// producer; producer id's are routes[routeAt[id]:routeAt[id+1]].
	type route struct{ from, defIdx, dest int }
	crosses := func(e *ir.Edge) bool {
		return e.Kind == ir.DepTrue && s.Placements[e.From].Cluster != s.Placements[e.To].Cluster
	}
	nroutes := 0
	for i := range s.Graph.Edges {
		if crosses(&s.Graph.Edges[i]) {
			nroutes++
		}
	}
	routes := make([]route, 0, nroutes)
	for i := range s.Graph.Edges {
		e := &s.Graph.Edges[i]
		if !crosses(e) {
			continue
		}
		defIdx := slices.Index(s.Loop.Instrs[e.From].Defs, e.Reg)
		if defIdx < 0 {
			return nil, fmt.Errorf("emit: true edge %d->%d for %s, but instruction %d does not define it", e.From, e.To, e.Reg, e.From)
		}
		routes = append(routes, route{from: e.From, defIdx: defIdx, dest: s.Placements[e.To].Cluster})
	}
	slices.SortFunc(routes, func(a, b route) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.defIdx, b.defIdx), cmp.Compare(a.dest, b.dest))
	})
	routes = slices.Compact(routes)
	routeAt := make([]int, n+1)
	for _, r := range routes {
		routeAt[r.from+1]++
	}
	for id := range n {
		routeAt[id+1] += routeAt[id]
	}

	// Count every instance's op, operands and transfers per bundle, then
	// turn the counts into each bundle's first slot in ops.
	next := make([]int, 2*t0+period)
	nops, nlocs, nxfers := 0, 0, 0
	instances(ek, p.Trip, func(id, iter, b int) {
		in := s.Loop.Instrs[id]
		next[b]++
		nlocs += len(in.Defs) + len(in.Uses)
		nxfers += routeAt[id+1] - routeAt[id]
	})
	for b := range next {
		nops, next[b] = nops+next[b], nops
	}

	// Lower every instance into its bundle's next slot, naming its
	// operands by its absolute iteration.
	ops := make([]Op, nops)
	locs := make([]Loc, nlocs)
	xfers := make([]Xfer, nxfers)
	busLat := m.BusLatency()
	var err error
	instances(ek, p.Trip, func(id, iter, b int) {
		if err != nil {
			return
		}
		pl := s.Placements[id]
		in := s.Loop.Instrs[id]
		op := &ops[next[b]]
		next[b]++
		*op = Op{
			ID: id, Cluster: pl.Cluster, Slot: pl.Slot,
			Latency: m.Latency(in.Class), Iter: iter,
			Defs:  buf.Carve(&locs, len(in.Defs)),
			Srcs:  buf.Carve(&locs, len(in.Uses)),
			Xfers: buf.Carve(&xfers, routeAt[id+1]-routeAt[id]),
		}
		for j := range op.Defs {
			if op.Defs[j], err = p.locate(pl.Cluster, ek.Def(id, j, iter)); err != nil {
				return
			}
		}
		for j := range op.Srcs {
			if op.Srcs[j], err = p.locate(pl.Cluster, ek.Use(id, j, iter)); err != nil {
				return
			}
		}
		for i, r := range routes[routeAt[id]:routeAt[id+1]] {
			var dst Loc
			if dst, err = p.locate(r.dest, ek.Def(id, r.defIdx, iter)); err != nil {
				return
			}
			op.Xfers[i] = Xfer{DefIdx: r.defIdx, Dst: dst, Delay: op.Latency + busLat}
		}
	})
	if err != nil {
		return nil, err
	}

	// Bundle b's ops end where next[b] stopped; deterministic slot order
	// within each bundle.
	bundles := make([]Bundle, len(next))
	for b, lo := 0, 0; b < len(next); b++ {
		if hi := next[b]; hi > lo {
			bundles[b].Ops = ops[lo:hi:hi]
			slices.SortFunc(bundles[b].Ops, func(x, y Op) int {
				return cmp.Or(cmp.Compare(x.Cluster, y.Cluster), cmp.Compare(x.Slot, y.Slot), cmp.Compare(x.ID, y.ID))
			})
			lo = hi
		}
	}
	p.Prologue = bundles[:t0:t0]
	p.Kernel = bundles[t0 : t0+period : t0+period]
	p.Epilogue = bundles[t0+period:]

	p.KStart, p.PredPasses = p.PredWindow(p.Trip)
	return p, nil
}

// instances calls f for every operation instance of the MVE plan, in
// prologue, kernel, epilogue order, with its instruction, iteration and
// bundle index b into the concatenation Prologue ++ Kernel ++ Epilogue.
func instances(ek *sched.ExpandedKernel, trip int, f func(id, iter, b int)) {
	s := ek.Schedule
	ii := s.II
	period := ek.Unroll * ii
	t0 := (s.StageCount() - 1) * ii
	n := s.Loop.NumInstrs()

	// Prologue: fill stage p spans bundles [p*II, (p+1)*II) and runs
	// every instruction of kernel stage <= p for iteration p - stage,
	// which issues at cycle p*II + start(id) mod II.
	for p := range t0 / ii {
		for id := range n {
			if ek.Stage[id] <= p {
				f(id, p-ek.Stage[id], p*ii+s.Start(id)%ii)
			}
		}
	}

	// Kernel: bundle j of pass k issues at absolute cycle (sc-1)*II +
	// k*Period + j, so unroll slot u's instance, at expanded-kernel
	// cycle c = (u*II + start) mod Period, lands in bundle (c -
	// (sc-1)*II) mod Period, executing iteration Iter + k*Unroll with
	// Iter = ((sc-1)*II + j - start)/II — the smallest iteration of its
	// unroll slot issuing at or after the prologue/kernel boundary.
	for u := range ek.Unroll {
		for id := range n {
			j := ((u*ii+s.Start(id)-t0)%period + period) % period
			f(id, (t0+j-s.Start(id))/ii, t0+j)
		}
	}

	// Epilogue: drain stage e spans bundles [e*II, (e+1)*II) after the
	// kernel and runs every instruction of kernel stage >= e+1 for the
	// iteration stage-(e+1) before the final one.
	for e := range t0 / ii {
		for id := range n {
			if ek.Stage[id] >= e+1 {
				f(id, trip-1-(ek.Stage[id]-(e+1)), t0+period+e*ii+s.Start(id)%ii)
			}
		}
	}
}

// locate is LocOf with a missing location as an error.
func (p *Program) locate(ci int, name sched.RegCopy) (Loc, error) {
	l, ok := p.LocOf(ci, name)
	if !ok {
		return Loc{}, fmt.Errorf("emit: no location for %s on cluster %d", name, ci)
	}
	return l, nil
}

// MVEBundles returns the total bundle count of the MVE plan — its code
// size: prologue + kernel + epilogue.
func (p *Program) MVEBundles() int {
	return len(p.Prologue) + len(p.Kernel) + len(p.Epilogue)
}

// PredBundles returns the bundle count of the predicated plan: the
// kernel alone.
func (p *Program) PredBundles() int { return len(p.Kernel) }

// Listing renders the program for humans: the allocation summary and the
// bundles of every segment (prologue / kernel / epilogue), one line per
// bundle with unit and transfer slots. maxBundles bounds the listing per
// segment (<= 0 lists everything); elided bundles are summarised.
func (p *Program) Listing(maxBundles int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: II=%d unroll=%d stages=%d trip=%d\n",
		p.Loop.Name, p.Machine.Name, p.II, p.Unroll, p.Stages, p.Trip)
	fmt.Fprintf(&b, "code size: mve %d bundles (%d prologue + %d kernel x %d passes + %d epilogue), predicated %d bundles x %d passes (k from %d)\n",
		p.MVEBundles(), len(p.Prologue), len(p.Kernel), p.Passes, len(p.Epilogue),
		p.PredBundles(), p.PredPasses, p.KStart)
	for ci, ns := range p.Names {
		fmt.Fprintf(&b, "cluster %d (%s): %d/%d registers", ci, p.Machine.Clusters[ci].Name, len(ns), p.Machine.RegsPerCluster(ci))
		if len(ns) > 0 {
			fmt.Fprintf(&b, " [r0=%s .. r%d=%s]", ns[0], len(ns)-1, ns[len(ns)-1])
		}
		fmt.Fprintln(&b)
	}
	if len(p.Frame) > 0 {
		fmt.Fprintf(&b, "frame: %d spill slots", len(p.Frame))
		for i, fs := range p.Frame {
			if i >= 8 {
				fmt.Fprintf(&b, " ...")
				break
			}
			fmt.Fprintf(&b, " fp[%d]=%s(c%d)", i, fs.Name, fs.Cluster)
		}
		fmt.Fprintln(&b)
	}
	seg := func(title string, bundles []Bundle) {
		fmt.Fprintf(&b, "%s (%d bundles):\n", title, len(bundles))
		for j, bun := range bundles {
			if maxBundles > 0 && j >= maxBundles {
				fmt.Fprintf(&b, "  ... %d more bundles\n", len(bundles)-j)
				return
			}
			fmt.Fprintf(&b, "  %4d:", j)
			if len(bun.Ops) == 0 {
				fmt.Fprintf(&b, " (empty)")
			}
			for i := range bun.Ops {
				op := &bun.Ops[i]
				in := p.Loop.Instrs[op.ID]
				fmt.Fprintf(&b, "  [c%d.u%d] %s#%d@%d", op.Cluster, op.Slot, in.Op, op.ID, op.Iter)
				for _, d := range op.Defs {
					fmt.Fprintf(&b, " %s", d)
				}
				if len(op.Srcs) > 0 {
					fmt.Fprintf(&b, " <-")
					for _, s := range op.Srcs {
						fmt.Fprintf(&b, " %s", s)
					}
				}
				for _, x := range op.Xfers {
					fmt.Fprintf(&b, " bus->%s(+%d)", x.Dst, x.Delay)
				}
			}
			fmt.Fprintln(&b)
		}
	}
	seg("prologue", p.Prologue)
	seg("kernel", p.Kernel)
	seg("epilogue", p.Epilogue)
	return b.String()
}
