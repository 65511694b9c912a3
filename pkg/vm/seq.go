package vm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

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
	h, err := decodeSeq(sem)
	if err != nil {
		return nil, err
	}
	return h.run(sem.NewMemImage(), []int{trip})[0], nil
}

// history is the sequential executor's decoded form. Its value array is
// a ring of rows, one per iteration, holding each value a later use can
// read: a column per (instruction, defined register), and a column per
// live-in register read. A row's width and the row count are powers of
// two, so an operand slot is a fixed offset from the current row —
// column - dist*width — and the ring wraps with one mask. The row count
// exceeds every dependence distance, so a reaching value is still in
// the ring when its consumer reads it; every row starts as the columns'
// initial register values, which is what a use reaching before
// iteration 0 observes.
type history struct {
	code
	sem   *Semantics
	shift int
	rows  int
	// row is the initial content of every row.
	row []uint64
	// outCols are the live-outs' columns, parallel to sem.outs.
	outCols []int32
}

// decodeSeq decodes sem for the sequential executor: one dop per
// instruction, its sources as row offsets, its defs as columns.
func decodeSeq(sem *Semantics) (*history, error) {
	if err := sem.checkMemLen(); err != nil {
		return nil, err
	}
	l := sem.Loop
	n := l.NumInstrs()
	h := &history{sem: sem, code: code{k: sem.K, ops: make([]dop, n)}}

	// Columns: each instruction's distinct defined registers, then each
	// distinct live-in register a use reads.
	first := make([]int32, n+1)
	nuses, ndefs := 0, 0
	for _, in := range l.Instrs {
		nuses, ndefs = nuses+len(in.Uses), ndefs+len(in.Defs)
	}
	regs := make([]ir.VReg, 0, ndefs+nuses)
	for id, in := range l.Instrs {
		first[id] = int32(len(regs))
		for _, d := range in.Defs {
			if !slices.Contains(regs[first[id]:], d) {
				regs = append(regs, d)
			}
		}
	}
	first[n] = int32(len(regs))
	defCol := func(site int, v ir.VReg) int32 {
		for c := first[site]; c < first[site+1]; c++ {
			if regs[c] == v {
				return c
			}
		}
		return -1
	}
	nargs := int(first[n]) + nuses
	h.args = make([]int32, 0, nargs)
	h.rows = 1 << bits.Len(uint(sem.histLen-1))
	liveIn := first[n]
	// The sources are placed once the row width is known; collect them
	// as (column, dist) first.
	type slot struct{ col, dist int32 }
	slots := make([]slot, 0, nargs-int(first[n]))
	for id, in := range l.Instrs {
		for j, r := range sem.ops[id].srcs {
			v := in.Uses[j]
			if r.site < 0 {
				c := int32(slices.Index(regs[liveIn:], v))
				if c < 0 {
					c = int32(len(regs)) - liveIn
					regs = append(regs, v)
				}
				slots = append(slots, slot{liveIn + c, 0})
				continue
			}
			c := defCol(int(r.site), v)
			if c < 0 {
				return nil, fmt.Errorf("vm: decode: instruction %d reads %s from instruction %d, which does not define it", id, v, r.site)
			}
			slots = append(slots, slot{c, r.dist})
		}
	}
	h.shift = bits.Len(uint(max(len(regs), 1) - 1))
	h.row = make([]uint64, 1<<h.shift)
	for c, v := range regs {
		h.row[c] = sem.initReg(v)
	}

	si := 0
	for id := range l.Instrs {
		d, err := sem.decodeOp(id)
		if err != nil {
			return nil, err
		}
		d.off = int32(len(h.args))
		for range d.nSrc {
			s := slots[si]
			si++
			h.args = append(h.args, s.col-s.dist<<h.shift)
		}
		d.nDef = uint16(first[id+1] - first[id])
		for c := first[id]; c < first[id+1]; c++ {
			h.args = append(h.args, c)
		}
		h.ops[id] = d
	}

	h.outCols = make([]int32, len(sem.outs))
	for k, o := range sem.outs {
		h.outCols[k] = defCol(o.site, o.reg)
	}
	return h, nil
}

// run executes iterations up to the largest of trips on mem, which must
// hold the initial image, and returns one state per trip. trips must be
// ascending and distinct. The reference is prefix-stable — iteration i
// never depends on a later one — so the state after t iterations of one
// long run is exactly an independent run of t: each trip's state is a
// snapshot taken as the run passes it, and the last takes mem itself.
func (h *history) run(mem []byte, trips []int) []*State {
	n := len(h.ops)
	rowLen := 1 << h.shift
	mask := h.rows*rowLen - 1
	hist := make([]uint64, h.rows*rowLen)
	for r := 0; r < len(hist); r += rowLen {
		copy(hist[r:], h.row)
	}
	states := make([]*State, len(trips))
	next := 0
	for i := 0; next < len(trips); i++ {
		cur := (i << h.shift) & mask
		for k := range h.ops {
			op := &h.ops[k]
			out, wAddr, wVal := h.apply(op, i, mem, hist, cur, mask)
			if wAddr >= 0 {
				binary.LittleEndian.PutUint64(mem[wAddr:], wVal)
			}
			at := op.off + int32(op.nSrc)
			for _, c := range h.args[at : at+int32(op.nDef)] {
				hist[cur+int(c)] = out
			}
		}
		if trip := trips[next]; i+1 == trip {
			st := &State{
				Mem: mem, RegFinal: make(map[ir.VReg]uint64, len(h.outCols)), Trip: trip,
				Cycles:        trip * n,
				ObservableLen: h.sem.ObservableLen(),
			}
			if next+1 < len(trips) {
				st.Mem = slices.Clone(mem)
			}
			for k, o := range h.sem.outs {
				st.RegFinal[o.reg] = hist[cur+int(h.outCols[k])]
			}
			states[next] = st
			next++
		}
	}
	return states
}
