package vm

import (
	"encoding/binary"
	"fmt"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/emit"
)

// Mode selects which of the emitted program's execution plans the
// interpreter runs.
type Mode int

const (
	// ModeMVE runs prologue bundles, Passes kernel passes and epilogue
	// bundles — the paper's modulo-variable-expanded code shape. The trip
	// count is fixed by the plan (Program.Trip).
	ModeMVE Mode = iota
	// ModePredicated runs only the kernel bundles, for enough leading and
	// trailing passes to cover any trip count, squashing every operation
	// whose iteration falls outside [0, trip).
	ModePredicated
)

func (m Mode) String() string {
	if m == ModePredicated {
		return "predicated"
	}
	return "mve"
}

// regCommit is one in-flight register write: the value lands in flat
// location loc at a fixed cycle. issue orders same-location commits: a
// later-issued write architecturally wins and makes any slower earlier
// write stale.
type regCommit struct {
	loc   int32
	val   uint64
	issue int
}

type memCommit struct {
	addr int
	val  uint64
}

// RunProgram interprets the emitted program on machine state derived
// from sem: per-cluster register files plus frame slots initialised to
// every renamed register's pre-loop value, and the same initial memory
// image the sequential executor starts from. Each cycle first applies
// the register and memory writebacks due (results commit their latency
// after issue, bus transfers their extra bus latency later), then issues
// the cycle's bundle — operands are read at issue, which is exactly the
// contract Schedule.Validate enforced with its latency checks. Every op
// latency and transfer delay in the plan must be at least 1, and trip at
// most MaxTrip; RunProgram checks that before running and names the
// offending op otherwise. The semantics must have been bound with Bind
// (the final-state extraction needs the kernel's renaming and
// placements). Each call decodes the program; VerifyProgram decodes
// once for all its runs.
func RunProgram(sem *Semantics, prog *emit.Program, mode Mode, trip int) (*State, error) {
	if err := checkProgram(sem, prog); err != nil {
		return nil, err
	}
	if mode == ModeMVE && trip != prog.Trip {
		return nil, fmt.Errorf("vm: run: the mve plan executes exactly %d iterations, got trip %d", prog.Trip, trip)
	}
	if trip < 1 {
		return nil, fmt.Errorf("vm: run needs trip >= 1, got %d", trip)
	}
	if err := checkTrip("run", trip); err != nil {
		return nil, err
	}
	if err := sem.checkMemLen(); err != nil {
		return nil, err
	}
	var sz sizes
	sz.countPlan(sem, prog)
	a := sz.alloc()
	p := new(plan)
	if err := p.decode(sem, prog, a); err != nil {
		return nil, err
	}
	return p.run(p.newRunState(a), mode, trip)
}

// checkProgram rejects a semantics/program pair no plan can run.
func checkProgram(sem *Semantics, prog *emit.Program) error {
	if sem.ek == nil {
		return fmt.Errorf("vm: run: semantics not bound to a schedule (use Bind, not BindLoop)")
	}
	if prog == nil {
		return fmt.Errorf("vm: run: nil program")
	}
	if sem.Loop != prog.Loop {
		return fmt.Errorf("vm: run: program and semantics are for different loops")
	}
	return nil
}

// runState is the mutable state of pipelined runs: the flat register
// image, its last-writer table, memory, the live-outs and the writeback
// ring. A run resets it, so one serves every run of a VerifyProgram.
type runState struct {
	vals []uint64
	// last holds the issue cycle of the write that owns each location,
	// -1 before the first.
	last []int
	mem  []byte
	// The writeback ring: bucket c&mask holds the commits landing at
	// cycle c, and is truncated, keeping its backing arrays, once
	// applied. Every delay is in [1, longest] and the ring has more than
	// longest buckets, so a commit issued at c lands in a later bucket,
	// never in c's own, and bucket c&mask is drained at c before the
	// first commit for the ring's next lap can be queued (at c+1 at the
	// earliest). Cycles issue in order, so each bucket fills in (issue
	// cycle, slot) order — the order later-issue-wins needs — and is
	// applied front to back without sorting.
	ring []bucket
	mask int
	// st is the last run's State; its RegFinal lists the live-outs in
	// sem.outs order, which is register order.
	st State
}

// bucket is one ring slot: the register and memory commits landing in
// one cycle.
type bucket struct {
	r []regCommit
	w []memCommit
}

// newRunState carves a run state for p from a (sized by countPlan) and
// allocates its writeback ring.
func (p *plan) newRunState(a *arena) *runState {
	depth := 1
	for depth <= p.longest {
		depth <<= 1
	}
	m := &runState{
		vals: buf.Carve(&a.u64, len(p.init)),
		last: buf.Carve(&a.ints, len(p.init)),
		mem:  buf.Carve(&a.mem, len(p.mem)),
		ring: make([]bucket, depth),
		mask: depth - 1,
		st:   State{RegFinal: buf.Carve(&a.outs, len(p.sem.outs)), ObservableLen: p.sem.ObservableLen()},
	}
	for k, o := range p.sem.outs {
		m.st.RegFinal[k].Reg = o.reg
	}
	// Each bucket starts with room for one bundle's writes, cut from one
	// array with full slice expressions, so a bucket that outgrows it
	// moves to its own array instead of spilling into its neighbour.
	r, w := make([]regCommit, depth*p.regWrites), make([]memCommit, depth*p.memWrites)
	for b := range m.ring {
		m.ring[b] = bucket{r: buf.Carve(&r, p.regWrites)[:0], w: buf.Carve(&w, p.memWrites)[:0]}
	}
	return m
}

// writeback applies the commits of ring bucket b — register writes
// first, skipping any a later-issued write already owns, then stores —
// empties the bucket and returns how many commits it held.
func (m *runState) writeback(b int) int {
	bk := &m.ring[b]
	for _, rc := range bk.r {
		if rc.issue < m.last[rc.loc] {
			continue // stale: a later-issued write already owns the location
		}
		m.last[rc.loc] = rc.issue
		m.vals[rc.loc] = rc.val
	}
	for _, wc := range bk.w {
		binary.LittleEndian.PutUint64(m.mem[wc.addr:], wc.val)
	}
	n := len(bk.r) + len(bk.w)
	bk.r, bk.w = bk.r[:0], bk.w[:0]
	return n
}

// commit queues the writes of op's instance issued at cycle c — its
// store, its defs at the op's latency, its transfers at their delays —
// and returns how many it queued.
func (m *runState) commit(op *dop, args []int32, c int, out uint64, wAddr int, wVal uint64) int {
	n := int(op.nDef) + int(op.nXfer)
	wb := &m.ring[(c+int(op.lat))&m.mask]
	if wAddr >= 0 {
		wb.w = append(wb.w, memCommit{addr: wAddr, val: wVal})
		n++
	}
	at := op.off + int32(op.nSrc)
	for _, d := range args[at : at+int32(op.nDef)] {
		wb.r = append(wb.r, regCommit{loc: d, val: out, issue: c})
	}
	at += int32(op.nDef)
	xs := args[at : at+2*int32(op.nXfer)]
	for x := 0; x < len(xs); x += 2 {
		xb := &m.ring[(c+int(xs[x+1]))&m.mask]
		xb.r = append(xb.r, regCommit{loc: xs[x], val: out, issue: c})
	}
	return n
}

// run executes one plan of p at trip on m, which it first resets to the
// initial image. The returned state is m's own: it is valid until m
// runs again.
func (p *plan) run(m *runState, mode Mode, trip int) (*State, error) {
	if mode == ModeMVE && p.mveErr != nil {
		return nil, p.mveErr
	}
	prog := p.prog
	copy(m.vals, p.init)
	for i := range m.last {
		m.last[i] = -1
	}
	copy(m.mem, p.mem)
	for b := range m.ring {
		m.ring[b].r, m.ring[b].w = m.ring[b].r[:0], m.ring[b].w[:0]
	}
	vals, mem, rmask := m.vals, m.mem, m.mask
	ops, args, bundles := p.ops, p.args, p.bundles

	// The timeline is tracked incrementally: bi is the bundle issuing
	// next (prologue, kernel and epilogue bundles are consecutive in
	// p.bundles), pass the kernel pass it belongs to, and iterOff what
	// that pass adds to a kernel op's base iteration.
	t0, period := len(prog.Prologue), prog.Period
	kend := t0 + period
	bi, pass, iterOff, passes := 0, 0, 0, prog.Passes
	issueSpan := t0 + passes*period + len(prog.Epilogue)
	if mode == ModePredicated {
		var kstart int
		kstart, passes = prog.PredWindow(trip)
		if passes == 0 {
			return nil, fmt.Errorf("vm: run: predicated plan has no passes for trip %d", trip)
		}
		bi, iterOff, issueSpan = t0, kstart*prog.Unroll, passes*period
	}

	inflight := 0
	for c := 0; c < issueSpan || inflight > 0; c++ {
		// Writeback first: a result with latency L committed at cycle c is
		// readable by an op issuing at c — the = in the scheduler's
		// issue(consumer) >= issue(producer) + L contract.
		inflight -= m.writeback(c & rmask)
		if c >= issueSpan {
			continue
		}
		if bi == t0 && pass >= passes {
			bi = kend // an MVE plan without kernel passes
		}
		off := 0
		if bi >= t0 && bi < kend {
			off = iterOff
		}
		for k := bundles[bi]; k < bundles[bi+1]; k++ {
			op := &ops[k]
			i := int(op.iter) + off
			if i < 0 || i >= trip {
				if mode == ModePredicated {
					continue // predicate false: squash the instance
				}
				return nil, fmt.Errorf("vm: run: mve op %d at cycle %d executes iteration %d outside [0, %d)", op.id, c, i, trip)
			}
			out, wAddr, wVal := p.apply(op, i, mem, vals, 0, -1)
			inflight += m.commit(op, args, c, out, wAddr, wVal)
		}
		if bi++; bi == kend {
			if pass++; pass < passes {
				bi, iterOff = t0, iterOff+prog.Unroll
			}
		}
	}

	st := &m.st
	st.Mem, st.Trip, st.Cycles = mem, trip, issueSpan
	// Live-outs: each observable register's final value sits in the
	// renamed copy iteration trip-1 wrote, on the last defining site's
	// cluster.
	ek := p.sem.ek
	for k, o := range p.sem.outs {
		name := ek.Name(o.reg, trip-1)
		loc, ok := prog.LocOf(ek.Schedule.Placements[o.site].Cluster, name)
		if !ok {
			return nil, fmt.Errorf("vm: run: no location for live-out %s (site %d)", name, o.site)
		}
		i, _ := p.flat(loc)
		st.RegFinal[k].Val = vals[i]
	}
	return st, nil
}
