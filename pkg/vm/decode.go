package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/emit"
)

// MaxTrip is the largest trip count either executor runs. It bounds the
// work of one run — an unchecked trip of 2^62 used to run for as long as
// the caller waited — and keeps every cycle and iteration count far from
// int overflow.
const MaxTrip = 1 << 20

// ErrTripLimit is wrapped by every run asked for more than MaxTrip
// iterations.
var ErrTripLimit = fmt.Errorf("trip count above vm.MaxTrip (%d)", MaxTrip)

func checkTrip(what string, trip int) error {
	if trip > MaxTrip {
		return fmt.Errorf("vm: %s: trip %d: %w", what, trip, ErrTripLimit)
	}
	return nil
}

// dop is one decoded operation: everything evaluating an instance needs,
// resolved once. Its operands live in the owning code's args table.
type dop struct {
	// token is the fold seed of an ALU, load or store op, and the
	// constant result of an opLiveInReload.
	token uint64
	// base is the byte address of the op's memory region: its load or
	// store region, or slot 0 of its spill group.
	base int32
	// stride is the odd word stride of a load's or store's address walk,
	// and the store→reload distance of an opSpillReload.
	stride int32
	// iter is the emitted op's iteration (kernel ops: at pass 0); lat is
	// its result latency. Both are 0 in sequential code.
	iter, lat int32
	// id is the source instruction.
	id int32
	// off is where the op's operands start in args: nSrc sources, then
	// nDef defs, then nXfer (destination, delay) pairs.
	off               int32
	nSrc, nDef, nXfer uint16
	kind              opKind
}

// code is a decoded op table, the form both executors run: operand
// slots are indexes into one flat value array, so evaluating an op is
// table lookups and folds.
type code struct {
	ops  []dop
	args []int32
	// k is Semantics.K, the spill-slot rotation.
	k int
}

// apply evaluates the instance of op at iteration i and returns its
// result and the memory write it performs (wAddr >= 0), which the caller
// applies with its own timing. Source j is vals[(cur+args[off+j])&mask]:
// the pipelined executor passes cur 0 and mask -1, so an operand slot is
// a plain location index; the sequential one passes its history row and
// the history's size mask, so a slot is an offset back through the rows.
func (c *code) apply(op *dop, i int, mem []byte, vals []uint64, cur, mask int) (out uint64, wAddr int, wVal uint64) {
	srcs := c.args[op.off : op.off+int32(op.nSrc)]
	wAddr = -1
	switch op.kind {
	case opALU, opStore:
		out = fold(op.token, uint64(i))
		for _, s := range srcs {
			out = fold(out, vals[(cur+int(s))&mask])
		}
		if op.kind == opStore {
			wAddr, wVal = int(op.base)+((i*int(op.stride))&63)*8, out
		}
	case opLoad:
		w := binary.LittleEndian.Uint64(mem[int(op.base)+((i*int(op.stride))&63)*8:])
		out = fold(fold(op.token, uint64(i)), w)
		for _, s := range srcs {
			out = fold(out, vals[(cur+int(s))&mask])
		}
	case opSpillStore:
		out = vals[(cur+int(srcs[0]))&mask]
		wAddr, wVal = int(op.base)+(i%c.k)*8, out
	case opSpillReload:
		s := ((i-int(op.stride))%c.k + c.k) % c.k
		out = binary.LittleEndian.Uint64(mem[int(op.base)+s*8:])
	case opLiveInReload:
		out = op.token
	}
	return out, wAddr, wVal
}

// decodeOp resolves instruction id's semantics into a dop (operands
// still to be appended by the caller).
func (sem *Semantics) decodeOp(id int) (dop, error) {
	o := &sem.ops[id]
	if len(o.srcs) > math.MaxUint16 {
		return dop{}, fmt.Errorf("vm: decode: instruction %d has %d operands", id, len(o.srcs))
	}
	d := dop{kind: o.kind, token: o.token, stride: int32(o.stride), id: int32(id), nSrc: uint16(len(o.srcs))}
	switch o.kind {
	case opLoad:
		d.base = int32(o.memIdx * regionSize)
	case opStore:
		d.base = int32((sem.NLoads + o.memIdx) * regionSize)
	case opSpillStore:
		d.base = int32(sem.slotAddr(o.memIdx, 0))
	case opSpillReload:
		d.base = int32(sem.slotAddr(o.memIdx, 0))
		d.stride = int32(o.pairDist)
	case opLiveInReload:
		d.token = sem.initReg(o.spillOf)
	}
	return d, nil
}

// checkMemLen keeps every address of the image representable in a dop.
func (sem *Semantics) checkMemLen() error {
	if sem.MemLen() > math.MaxInt32 {
		return fmt.Errorf("vm: decode: memory image of %d bytes is too large", sem.MemLen())
	}
	return nil
}

// arena backs one call's decoded tables and machine state: one array
// per element type, sized by a counting pass (sizes) and carved into
// capacity-capped slices, so decoding and running a program allocate a
// fixed handful of times whatever its size, trip counts or run count.
type arena struct {
	dops []dop
	i32  []int32
	ints []int
	u64  []uint64
	mem  []byte
	outs []LiveOut
}

// sizes is the counting pass's result: how many elements of each type
// an arena must hold.
type sizes struct{ dops, i32, ints, u64, mem, outs int }

// alloc makes the arena: one allocation per element type.
func (sz *sizes) alloc() *arena {
	return &arena{
		dops: make([]dop, sz.dops),
		i32:  make([]int32, sz.i32),
		ints: make([]int, sz.ints),
		u64:  make([]uint64, sz.u64),
		mem:  make([]byte, sz.mem),
		outs: make([]LiveOut, sz.outs),
	}
}

// plan is an emitted program decoded for the pipelined executor. Its
// locations are flat: the register files of all clusters back to back,
// then the frame slots, so a location is one index into a value array.
// Its bundles run prologue, kernel, epilogue in timeline order.
type plan struct {
	code
	sem  *Semantics
	prog *emit.Program
	// bundles[b] is where timeline bundle b's ops start in ops (prologue
	// bundles first, then the kernel's, then the epilogue's); one extra
	// entry closes the last.
	bundles []int32
	// init is the flat register image before cycle 0; mem the initial
	// memory image.
	init []uint64
	mem  []byte
	// clusterBase[ci] is where cluster ci's file starts in the flat
	// image; the frame slots start at frameBase.
	clusterBase []int
	frameBase   int
	// longest is the longest latency or transfer delay of any op, which
	// sizes the writeback rings.
	longest int
	// regWrites and memWrites are the most register commits (defs and
	// transfers) and stores one bundle issues: a writeback bucket's
	// usual high-water mark.
	regWrites, memWrites int
	// mveErr is a prologue or epilogue op's bad latency or delay: an
	// error for the MVE plan only, which is the only one issuing them.
	mveErr error
}

// flat returns l's index in the flat value array; ok is false for a
// location outside the machine's files and frame.
func (p *plan) flat(l emit.Loc) (i int, ok bool) {
	if l.Index < 0 {
		return 0, false
	}
	if l.Frame {
		i = p.frameBase + l.Index
		return i, i < len(p.init)
	}
	if l.Cluster < 0 || l.Cluster >= len(p.clusterBase) {
		return 0, false
	}
	end := p.frameBase
	if l.Cluster+1 < len(p.clusterBase) {
		end = p.clusterBase[l.Cluster+1]
	}
	i = p.clusterBase[l.Cluster] + l.Index
	return i, i < end
}

// segments are an emitted program's bundles in timeline order.
func segments(prog *emit.Program) [3][]emit.Bundle {
	return [3][]emit.Bundle{prog.Prologue, prog.Kernel, prog.Epilogue}
}

// planShape counts prog's bundle index entries (one per bundle plus
// the closing one), ops and operand slots.
func planShape(prog *emit.Program) (nb, nops, nargs int) {
	nb = 1
	for _, seg := range segments(prog) {
		nb += len(seg)
		for bi := range seg {
			nops += len(seg[bi].Ops)
			for oi := range seg[bi].Ops {
				op := &seg[bi].Ops[oi]
				nargs += len(op.Srcs) + len(op.Defs) + 2*len(op.Xfers)
			}
		}
	}
	return nb, nops, nargs
}

// countPlan adds what plan.decode and one run state carve for prog
// against sem: the op and operand tables, the bundle index, the cluster
// bases, the initial and working register images, the last-writer
// table, the initial and working memory images and the live-outs.
func (sz *sizes) countPlan(sem *Semantics, prog *emit.Program) {
	m := prog.Machine
	image := len(prog.Frame)
	for ci := range m.NumClusters() {
		image += m.RegsPerCluster(ci)
	}
	nb, nops, nargs := planShape(prog)
	sz.dops += nops
	sz.i32 += nb + nargs
	sz.ints += m.NumClusters() + image
	sz.u64 += 2 * image
	sz.mem += 2 * sem.MemLen()
	sz.outs += len(sem.outs)
}

// decode decodes prog for execution against sem into p, carving its
// tables from a (sized by countPlan). A latency or transfer delay below
// 1 is an error — such a commit would land in a cycle whose writebacks
// were already applied — reported for the first offending kernel op,
// else recorded in mveErr for the first offending prologue or epilogue
// op. The caller has checked sem.checkMemLen.
func (p *plan) decode(sem *Semantics, prog *emit.Program, a *arena) error {
	m := prog.Machine
	*p = plan{sem: sem, prog: prog, code: code{k: sem.K}, longest: 1}
	p.clusterBase = buf.Carve(&a.ints, m.NumClusters())
	for ci := range p.clusterBase {
		p.clusterBase[ci] = p.frameBase
		p.frameBase += m.RegsPerCluster(ci)
	}
	p.init = buf.Carve(&a.u64, p.frameBase+len(prog.Frame))
	for ci, names := range prog.Names {
		for idx, name := range names {
			p.init[p.clusterBase[ci]+idx] = sem.initReg(name.Reg)
		}
	}
	for idx, fs := range prog.Frame {
		p.init[p.frameBase+idx] = sem.initReg(fs.Name.Reg)
	}

	nb, nops, nargs := planShape(prog)
	segs := segments(prog)
	p.bundles = buf.Carve(&a.i32, nb)[:0]
	p.ops = buf.Carve(&a.dops, nops)[:0]
	p.args = buf.Carve(&a.i32, nargs)[:0]
	var timing [3]error
	for si, seg := range segs {
		for bi := range seg {
			p.bundles = append(p.bundles, int32(len(p.ops)))
			regs, stores := 0, 0
			for oi := range seg[bi].Ops {
				bad, err := p.decodeOp(&seg[bi].Ops[oi])
				if err != nil {
					return err
				}
				if timing[si] == nil {
					timing[si] = bad
				}
				d := &p.ops[len(p.ops)-1]
				regs += int(d.nDef) + int(d.nXfer)
				if d.kind == opStore || d.kind == opSpillStore {
					stores++
				}
			}
			p.regWrites, p.memWrites = max(p.regWrites, regs), max(p.memWrites, stores)
		}
	}
	p.bundles = append(p.bundles, int32(len(p.ops)))
	if timing[1] != nil {
		return timing[1]
	}
	p.mveErr = timing[0]
	if p.mveErr == nil {
		p.mveErr = timing[2]
	}

	p.mem = buf.Carve(&a.mem, sem.MemLen())
	sem.fillMemImage(p.mem)
	return nil
}

// decodeOp appends one emitted op. A latency or transfer delay below 1
// comes back as timing, for the caller to attribute to its segment; err
// is a structural error (an op the loop lacks, fewer source locations
// than the instruction reads, a location off the machine).
func (p *plan) decodeOp(op *emit.Op) (timing, err error) {
	if op.ID < 0 || op.ID >= len(p.sem.ops) {
		return nil, fmt.Errorf("vm: run: op %d is not an instruction of loop %q", op.ID, p.sem.Loop.Name)
	}
	d, err := p.sem.decodeOp(op.ID)
	if err != nil {
		return nil, err
	}
	if len(op.Srcs) < int(d.nSrc) {
		return nil, fmt.Errorf("vm: run: op %d has %d source locations, its instruction reads %d", op.ID, len(op.Srcs), d.nSrc)
	}
	if len(op.Defs) > math.MaxUint16 || len(op.Xfers) > math.MaxUint16 {
		return nil, fmt.Errorf("vm: run: op %d has %d defs and %d transfers", op.ID, len(op.Defs), len(op.Xfers))
	}
	d.iter, d.lat, d.off = int32(op.Iter), int32(op.Latency), int32(len(p.args))
	d.nDef, d.nXfer = uint16(len(op.Defs)), uint16(len(op.Xfers))
	p.ops = append(p.ops, d)
	loc := func(l emit.Loc) int32 {
		i, ok := p.flat(l)
		if !ok && err == nil {
			err = fmt.Errorf("vm: run: op %d names location %s outside the machine", op.ID, l)
		}
		return int32(i)
	}
	for _, s := range op.Srcs[:d.nSrc] {
		p.args = append(p.args, loc(s))
	}
	for _, l := range op.Defs {
		p.args = append(p.args, loc(l))
	}
	for _, x := range op.Xfers {
		p.args = append(p.args, loc(x.Dst), int32(x.Delay))
	}
	if err != nil {
		return nil, err
	}
	if op.Latency < 1 {
		return fmt.Errorf("vm: run: op %d has latency %d", op.ID, op.Latency), nil
	}
	p.longest = max(p.longest, op.Latency)
	for _, x := range op.Xfers {
		if x.Delay < 1 {
			return fmt.Errorf("vm: run: op %d has transfer delay %d", op.ID, x.Delay), nil
		}
		p.longest = max(p.longest, x.Delay)
	}
	return nil, nil
}
