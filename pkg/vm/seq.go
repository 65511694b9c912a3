package vm

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/ir"
)

// RunSequential executes trip iterations of the loop the way the
// dependence graph defines dataflow, with no overlap: instructions in
// program order, one iteration after the next, each use reading the
// value its reaching definition produced dist iterations earlier (the
// register's initial value when that reaches before iteration 0). It is
// the reference semantics every pipelined execution is checked against.
// trip must be in [1, MaxTrip].
func RunSequential(sem *Semantics, trip int) (*State, error) {
	if trip < 1 {
		return nil, fmt.Errorf("vm: sequential run needs trip >= 1, got %d", trip)
	}
	if err := checkTrip("sequential run", trip); err != nil {
		return nil, err
	}
	if err := sem.checkMemLen(); err != nil {
		return nil, err
	}
	var sz sizes
	sz.countSeq(sem)
	h := new(history)
	if err := h.decode(sem, sz.alloc()); err != nil {
		return nil, err
	}
	return h.advance(trip), nil
}

// history is the sequential executor, decoded and resumable: advance
// runs it on from the iterations it has executed. Its value array is a
// ring of rows, one per iteration, holding each value a later use can
// read: a column per (instruction, defined register) and a column per
// use of a live-in register. A row's width and the row count are powers
// of two, so an operand slot is a fixed offset from the current row —
// column - dist*width — and the ring wraps with one mask. The row count
// exceeds every dependence distance, so a reaching value is still in
// the ring when its consumer reads it; every row starts as the columns'
// initial register values, which is what a use reaching before
// iteration 0 observes.
type history struct {
	code
	sem   *Semantics
	shift int
	// hist is the ring of rows; mem the memory image the run writes.
	hist []uint64
	mem  []byte
	// outCols are the live-outs' columns, parallel to sem.outs.
	outCols []int32
	// done counts the iterations executed; st is the state after them,
	// as of the last advance.
	done int
	st   State
}

// seqShape counts the sequential executor's columns — one per defined
// register of each instruction, then one per live-in use — its operand
// slots, and its rows.
func seqShape(sem *Semantics) (cols, nargs, rows int) {
	for id, in := range sem.Loop.Instrs {
		cols += len(in.Defs)
		for _, r := range sem.ops[id].srcs {
			if r.site < 0 {
				cols++
			}
		}
		nargs += len(in.Defs) + len(in.Uses)
	}
	return cols, nargs, 1 << bits.Len(uint(sem.histLen-1))
}

// countSeq adds what history.decode carves for sem: one op per
// instruction, the operand slots, each instruction's first column, the
// live-out columns and values, the row ring and the memory image.
func (sz *sizes) countSeq(sem *Semantics) {
	n := sem.Loop.NumInstrs()
	cols, nargs, rows := seqShape(sem)
	sz.dops += n
	sz.i32 += nargs + n + 1 + len(sem.outs)
	sz.u64 += rows << bits.Len(uint(max(cols, 1)-1))
	sz.mem += sem.MemLen()
	sz.outs += len(sem.outs)
}

// decode decodes sem for the sequential executor into h, carving its
// tables from a (sized by countSeq): one dop per instruction, its
// sources as row offsets, its defs as columns. The caller has checked
// sem.checkMemLen.
func (h *history) decode(sem *Semantics, a *arena) error {
	l := sem.Loop
	n := l.NumInstrs()
	cols, nargs, rows := seqShape(sem)
	*h = history{sem: sem, code: code{k: sem.K, ops: buf.Carve(&a.dops, n)}}
	h.shift = bits.Len(uint(max(cols, 1) - 1))
	h.hist = buf.Carve(&a.u64, rows<<h.shift)
	row := h.hist[:1<<h.shift]

	// Columns: each instruction's defined registers, then each live-in
	// use. first[id] is instruction id's first def column.
	first := buf.Carve(&a.i32, n+1)
	c := int32(0)
	for id, in := range l.Instrs {
		first[id] = c
		for _, d := range in.Defs {
			row[c] = sem.initReg(d)
			c++
		}
	}
	first[n] = c
	defCol := func(site int, v ir.VReg) int32 {
		for j, d := range l.Instrs[site].Defs {
			if d == v {
				return first[site] + int32(j)
			}
		}
		return -1
	}
	h.args = buf.Carve(&a.i32, nargs)[:0]
	for id, in := range l.Instrs {
		d, err := sem.decodeOp(id)
		if err != nil {
			return err
		}
		d.off = int32(len(h.args))
		for j, r := range sem.ops[id].srcs {
			v := in.Uses[j]
			if r.site < 0 {
				row[c] = sem.initReg(v)
				h.args = append(h.args, c)
				c++
				continue
			}
			col := defCol(int(r.site), v)
			if col < 0 {
				return fmt.Errorf("vm: decode: instruction %d reads %s from instruction %d, which does not define it", id, v, r.site)
			}
			h.args = append(h.args, col-r.dist<<h.shift)
		}
		d.nDef = uint16(len(in.Defs))
		for k := range in.Defs {
			h.args = append(h.args, first[id]+int32(k))
		}
		h.ops[id] = d
	}
	for r := len(row); r < len(h.hist); r += len(row) {
		copy(h.hist[r:], row)
	}

	h.outCols = buf.Carve(&a.i32, len(sem.outs))
	h.st = State{RegFinal: buf.Carve(&a.outs, len(sem.outs)), ObservableLen: sem.ObservableLen()}
	for k, o := range sem.outs {
		h.outCols[k] = defCol(o.site, o.reg)
		h.st.RegFinal[k].Reg = o.reg
	}
	h.mem = buf.Carve(&a.mem, sem.MemLen())
	sem.fillMemImage(h.mem)
	h.st.Mem = h.mem
	return nil
}

// advance runs the reference on to trip iterations, which must be at
// least 1 and no fewer than it has run, and returns the state after
// them. The reference is prefix-stable — iteration i never depends on a
// later one — so the state after t iterations of one long run is
// exactly an independent run of t: advancing through ascending trips
// yields each trip's reference in turn. The state is h's own: its
// memory and live-outs move on with the next advance.
func (h *history) advance(trip int) *State {
	mask := len(h.hist) - 1
	for ; h.done < trip; h.done++ {
		i := h.done
		cur := (i << h.shift) & mask
		for k := range h.ops {
			op := &h.ops[k]
			out, wAddr, wVal := h.apply(op, i, h.mem, h.hist, cur, mask)
			if wAddr >= 0 {
				binary.LittleEndian.PutUint64(h.mem[wAddr:], wVal)
			}
			at := op.off + int32(op.nSrc)
			for _, c := range h.args[at : at+int32(op.nDef)] {
				h.hist[cur+int(c)] = out
			}
		}
	}
	cur := ((trip - 1) << h.shift) & mask
	for k, c := range h.outCols {
		h.st.RegFinal[k].Val = h.hist[cur+int(c)]
	}
	h.st.Trip, h.st.Cycles = trip, trip*len(h.ops)
	return &h.st
}
