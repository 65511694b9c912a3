package sched

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// MRT is the modulo reservation table: for a fixed initiation interval II
// it records which instruction occupies each (cluster, slot, cycle mod II)
// resource. Schedulers use it to find free compatible slots and to keep
// the modulo resource constraint by construction; Release exists so
// backtracking schedulers (the paper's MIRS ejects and reschedules
// operations) can undo reservations.
//
// The table is dense: occupancy lives in one flat array indexed by
// (unit, cycle mod II) with a per-(cluster, cycle) bitset of busy slots,
// and the machine's own class tables (machine.Machine.UnitTiers) give
// the units FreeSlot may take, so a probe is a few mask operations.
// Probe, place and release are O(1) in allocations — nothing on the
// steady-state placement path touches the heap — and Reset lets a
// scheduler reuse one table across an entire II search. Every array is
// carved from an Arena (Carve), so a table is ready in one allocation
// per element type, bounded transfer list included.
//
// Buses are MRT resources too: every cross-cluster true dependence needs
// one bus at the cycle the value leaves the producer, and at most
// Machine.BusCount() transfers fit per cycle. A producer broadcasting one
// value to several consumers in the same destination cluster uses one
// bus, which is why transfers are keyed by (producer, register,
// destination cluster) and reference-counted per dependence edge.
type MRT struct {
	mach *machine.Machine
	ii   int

	// occ is the flat occupancy array: occ[(mach.UnitBase(cluster)+slot)*ii
	// + cycle] holds the occupying instruction ID, or -1 when free.
	occ []int32
	// busy[cluster*ii+cycle] is the bitset of occupied slots (bit i =
	// slot i; machine.Validate caps a cluster at 64 units).
	busy []uint64

	busCap  int
	busUsed []int      // transfers per cycle mod ii
	busRefs []busEntry // live transfers; linear scan (at most busCap*ii)
	prods   []int      // scratch for TransferProducersAt (at most busCap)
}

// busEntry is one reference-counted transfer occupying a bus.
type busEntry struct {
	from  int32
	reg   int32
	dest  int32
	cycle int32 // mod ii
	refs  int32 // dependence edges sharing this transfer
}

// Transfer names one inter-cluster value movement: producer instruction
// From sends register Reg to cluster Dest, occupying a bus at Cycle (the
// cycle the value is available, i.e. the producer's issue cycle plus its
// result latency).
type Transfer struct {
	// From is the producing instruction's ID.
	From int
	// Reg is the register carrying the transferred value.
	Reg ir.VReg
	// Dest is the destination cluster index.
	Dest int
	// Cycle is the flat cycle the value occupies a bus (folded mod II).
	Cycle int
}

// NewMRT returns an empty reservation table for machine m at the given
// II. It fails with machine.ErrNotBuilt for a machine that skipped
// construction.
func NewMRT(m *machine.Machine, ii int) (*MRT, error) {
	if ii < 1 {
		return nil, fmt.Errorf("sched: MRT with II %d < 1", ii)
	}
	if err := m.CheckBuilt(); err != nil {
		return nil, err
	}
	t := new(MRT)
	var a Arena
	t.Carve(&a, m, ii)
	a.Alloc()
	t.Carve(&a, m, ii)
	t.Reset(ii)
	return t, nil
}

// Carve binds t to machine m and takes its arrays from a, sized for II
// ii (>= 1): the occupancy and busy rows, the per-cycle bus counts, and
// the transfer list and producer scratch at the most a kernel can hold,
// busCap per cycle. Reset readies the table for use.
func (t *MRT) Carve(a *Arena, m *machine.Machine, ii int) {
	busCap := m.BusCount()
	*t = MRT{
		mach:    m,
		busCap:  busCap,
		occ:     a.Int32s(m.NumUnits() * ii),
		busy:    a.u64.Take(m.NumClusters() * ii),
		busUsed: a.Ints(ii),
		busRefs: a.bus.Take(busCap * ii),
		prods:   a.Ints(busCap),
	}
}

// Reset empties the table and retargets it to a (possibly different) II,
// reusing the backing arrays, which grow with amortised capacity. It is
// how II-search loops keep the steady-state placement path allocation
// free: one NewMRT or Carve per schedule request, one Reset per
// candidate II.
func (t *MRT) Reset(ii int) {
	if ii < 1 {
		panic(fmt.Sprintf("sched: MRT reset to II %d < 1", ii))
	}
	t.ii = ii
	t.occ = buf.Grow(t.occ[:0], t.mach.NumUnits()*ii)
	for i := range t.occ {
		t.occ[i] = -1
	}
	t.busy = buf.Zeroed(t.busy, t.mach.NumClusters()*ii)
	t.busUsed = buf.Zeroed(t.busUsed, ii)
	t.busRefs = t.busRefs[:0]
}

// Renumber carries the table across a renumbering of the instructions
// that keeps every reservation where it is: each occupant and each
// transfer producer id becomes oldToNew[id]. A scheduler that inserts
// instructions into the loop it is scheduling (a spill splice) renumbers
// its table instead of re-reserving every placement.
func (t *MRT) Renumber(oldToNew []int) {
	for i, id := range t.occ {
		if id >= 0 {
			t.occ[i] = int32(oldToNew[id])
		}
	}
	for i := range t.busRefs {
		t.busRefs[i].from = int32(oldToNew[t.busRefs[i].from])
	}
}

// II returns the table's initiation interval.
func (t *MRT) II() int { return t.ii }

func (t *MRT) mod(cycle int) int { return ((cycle % t.ii) + t.ii) % t.ii }

// At returns the instruction occupying (cluster, slot, cycle mod II), or
// -1 when the slot is free.
func (t *MRT) At(cluster, slot, cycle int) int {
	return int(t.occ[(t.mach.UnitBase(cluster)+slot)*t.ii+t.mod(cycle)])
}

// Reserve claims (cluster, slot, cycle mod II) for instruction id. It
// fails if the slot is already taken.
func (t *MRT) Reserve(cluster, slot, cycle, id int) error {
	c := t.mod(cycle)
	i := (t.mach.UnitBase(cluster)+slot)*t.ii + c
	if cur := t.occ[i]; cur != -1 {
		return fmt.Errorf("sched: cluster %d slot %d cycle %d already holds instruction %d", cluster, slot, c, cur)
	}
	t.occ[i] = int32(id)
	t.busy[cluster*t.ii+c] |= 1 << slot
	return nil
}

// Release frees (cluster, slot, cycle mod II), returning the evicted
// instruction ID or -1 if the slot was already free.
func (t *MRT) Release(cluster, slot, cycle int) int {
	c := t.mod(cycle)
	i := (t.mach.UnitBase(cluster)+slot)*t.ii + c
	id := t.occ[i]
	t.occ[i] = -1
	t.busy[cluster*t.ii+c] &^= 1 << slot
	return int(id)
}

// FreeSlot returns a free slot on the given cluster at the given cycle
// whose functional unit serves class (a machine.Machine.ClassID), or
// ok=false when the cycle row is full for that class. Among free
// candidates it picks the least flexible unit (fewest supported
// classes, ties by index), so that multi-class units stay available for
// the operations that have no alternative — e.g. plain ALU ops avoid
// the one ALU slot that can also issue the branch: the first of the
// class's preference tiers with a free unit, and its lowest free unit.
func (t *MRT) FreeSlot(cluster, cycle, class int) (slot int, ok bool) {
	free := ^t.busy[cluster*t.ii+t.mod(cycle)]
	for _, tier := range t.mach.UnitTiers(cluster, class) {
		if f := free & tier; f != 0 {
			return bits.TrailingZeros64(f), true
		}
	}
	return 0, false
}

// findTransfer returns the index of the live transfer with the given key,
// or -1. Linear scan: a kernel carries at most busCap*II transfers.
func (t *MRT) findTransfer(from int, reg ir.VReg, dest int) int {
	for i := range t.busRefs {
		e := &t.busRefs[i]
		if int(e.from) == from && ir.VReg(e.reg) == reg && int(e.dest) == dest {
			return i
		}
	}
	return -1
}

// ErrBusBusy is AddTransfer's failure: the transfer's cycle row has no
// bus left. It is a fixed value, not a formatted message, because the
// backends probe candidate placements with add-then-remove and hit it in
// their inner loop; AddTransfers returns the blocking Transfer alongside
// it for callers that need the cycle.
var ErrBusBusy = errors.New("sched: all buses busy")

// AddTransfer reserves bus bandwidth for one cross-cluster dependence
// edge. Edges sharing the same (producer, register, destination cluster)
// ride the same physical transfer, so only the first of them claims a
// bus; subsequent calls just bump its reference count. It returns
// ErrBusBusy when the transfer's cycle row has no bus left.
func (t *MRT) AddTransfer(tr Transfer) error {
	if i := t.findTransfer(tr.From, tr.Reg, tr.Dest); i >= 0 {
		t.busRefs[i].refs++
		return nil
	}
	c := t.mod(tr.Cycle)
	if t.busUsed[c] >= t.busCap {
		return ErrBusBusy
	}
	t.busUsed[c]++
	t.busRefs = append(t.busRefs, busEntry{from: int32(tr.From), reg: int32(tr.Reg), dest: int32(tr.Dest), cycle: int32(c), refs: 1})
	return nil
}

// AddTransfers reserves a batch of transfers all-or-nothing: on the
// first failure every transfer already added by this call is removed
// again and the blocking transfer is returned with ErrBusBusy, so a
// backtracking scheduler knows which bus cycle to fight for.
func (t *MRT) AddTransfers(trs []Transfer) (Transfer, error) {
	for i, tr := range trs {
		if err := t.AddTransfer(tr); err != nil {
			for _, done := range trs[:i] {
				t.RemoveTransfer(done.From, done.Reg, done.Dest)
			}
			return tr, err
		}
	}
	return Transfer{}, nil
}

// RemoveTransfer drops one dependence edge's claim on the transfer
// (producer from, register reg, destination cluster dest); when the last
// edge lets go the bus slot is freed. Removing an unknown transfer is a
// no-op so ejection paths can be written symmetrically to placement.
func (t *MRT) RemoveTransfer(from int, reg ir.VReg, dest int) {
	i := t.findTransfer(from, reg, dest)
	if i < 0 {
		return
	}
	t.busRefs[i].refs--
	if t.busRefs[i].refs == 0 {
		t.busUsed[t.busRefs[i].cycle]--
		last := len(t.busRefs) - 1
		t.busRefs[i] = t.busRefs[last]
		t.busRefs = t.busRefs[:last]
	}
}

// TransferRefs returns how many dependence edges share the transfer
// (producer from, register reg, destination cluster dest), or 0 when no
// such transfer holds a bus.
func (t *MRT) TransferRefs(from int, reg ir.VReg, dest int) int {
	if i := t.findTransfer(from, reg, dest); i >= 0 {
		return int(t.busRefs[i].refs)
	}
	return 0
}

// BusUsed returns the number of distinct transfers occupying buses at the
// given cycle (mod II).
func (t *MRT) BusUsed(cycle int) int { return t.busUsed[t.mod(cycle)] }

// BusCap returns the machine's total bus count.
func (t *MRT) BusCap() int { return t.busCap }

// TransferProducersAt returns the producer instruction IDs of the
// transfers occupying buses at the given cycle (mod II), in ascending
// order. Backtracking schedulers eject one of these to free bandwidth.
// The returned slice is a scratch buffer owned by the table; it is
// invalidated by the next call.
func (t *MRT) TransferProducersAt(cycle int) []int {
	c := t.mod(cycle)
	out := t.prods[:0]
	for i := range t.busRefs {
		if int(t.busRefs[i].cycle) == c {
			out = append(out, int(t.busRefs[i].from))
		}
	}
	sort.Ints(out)
	// Compact duplicates (several transfers can share a producer).
	n := 0
	for i, p := range out {
		if i == 0 || p != out[n-1] {
			out[n] = p
			n++
		}
	}
	t.prods = out[:n]
	return t.prods
}
