package sched

import (
	"errors"
	"fmt"
	"slices"
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
// and the unit-preference order FreeSlot scans is precomputed per
// (cluster, op class) when the table is carved. Probe, place and release
// are O(1) in allocations — nothing on the steady-state placement path
// touches the heap — and Reset lets a scheduler reuse one table (and its
// machine-derived lookup tables) across an entire II search. Every
// array is carved from an Arena (Carve), so a table is ready in one
// allocation per element type, bounded transfer list included.
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

	// occ is the flat occupancy array: occ[(unitBase[cluster]+slot)*ii +
	// cycle] holds the occupying instruction ID, or -1 when free. Rows are
	// re-sliced from one backing array on Reset.
	occ []int32
	// unitBase[cluster] is the global index of the cluster's slot 0.
	unitBase []int
	// busy[cluster*ii+cycle] is the bitset of occupied slots (bit i = slot
	// i) for the first 64 slots of the cluster; wider clusters fall back
	// to reading occ directly.
	busy []uint64
	// The machine's classes, numbered by first appearance in unit order:
	// class k is named by entry classRef[3k:3k+3] = (cluster, unit, i) of
	// the machine, Units[unit].Classes[i]. prefs[prefOff[k*nc+cluster]:
	// prefOff[k*nc+cluster+1]] lists the cluster's unit indices supporting
	// class k, least flexible first (fewest supported classes, ties by
	// index) — the order FreeSlot probes, so multi-class units stay
	// available for operations with no alternative.
	classRef, prefOff, prefs []int32
	// lastClass/lastK memoise the most recent class lookup (lastK -1: the
	// machine has no unit for it, -2: nothing looked up yet); placement
	// loops probe many cycles for one instruction, so the class repeats.
	lastClass machine.OpClass
	lastK     int

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

// NewMRT returns an empty reservation table for machine m at the given II.
func NewMRT(m *machine.Machine, ii int) (*MRT, error) {
	if ii < 1 {
		return nil, fmt.Errorf("sched: MRT with II %d < 1", ii)
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
// ii (>= 1): the machine's unit numbering and per-class unit preference
// orders, the occupancy and busy rows, the per-cycle bus counts, and
// the transfer list and producer scratch at the most a kernel can hold,
// busCap per cycle. Reset readies the table for use.
func (t *MRT) Carve(a *Arena, m *machine.Machine, ii int) {
	nc, units, entries := m.NumClusters(), 0, 0
	for ci := range m.Clusters {
		for ui := range m.Clusters[ci].Units {
			units++
			entries += len(m.Clusters[ci].Units[ui].Classes)
		}
	}
	classes, busCap := forEachClass(m, nil), m.BusCount()
	*t = MRT{
		mach:     m,
		busCap:   busCap,
		lastK:    -2,
		unitBase: a.Ints(nc + 1),
		classRef: a.Int32s(3 * classes),
		prefOff:  a.Int32s(classes*nc + 1),
		prefs:    a.Int32s(entries),
		occ:      a.Int32s(units * ii),
		busy:     a.u64.Take(nc * ii),
		busUsed:  a.Ints(ii),
		busRefs:  a.bus.Take(busCap * ii),
		prods:    a.Ints(busCap),
	}
	if t.unitBase != nil { // carved, not counted: fill the machine tables
		t.deriveTables()
	}
}

// forEachClass calls f, when not nil, once per class of machine m in
// order of first appearance over its clusters, units and their class
// entries, with the class's number and the position (cluster, unit,
// entry) of its first entry, and returns the number of classes.
func forEachClass(m *machine.Machine, f func(k, ci, ui, i int)) int {
	var buf [16]machine.OpClass
	seen := buf[:0]
	for ci := range m.Clusters {
		for ui := range m.Clusters[ci].Units {
			for i, c := range m.Clusters[ci].Units[ui].Classes {
				if slices.Contains(seen, c) {
					continue
				}
				if f != nil {
					f(len(seen), ci, ui, i)
				}
				seen = append(seen, c)
			}
		}
	}
	return len(seen)
}

// deriveTables fills the unit numbering and the preference orders of
// t's machine into the carved tables.
func (t *MRT) deriveTables() {
	m, nc := t.mach, t.mach.NumClusters()
	base := 0
	for ci := range m.Clusters {
		t.unitBase[ci] = base
		base += len(m.Clusters[ci].Units)
	}
	forEachClass(m, func(k, ci, ui, i int) {
		t.classRef[3*k], t.classRef[3*k+1], t.classRef[3*k+2] = int32(ci), int32(ui), int32(i)
	})
	t.unitBase[nc] = base
	t.prefs = t.prefs[:0]
	for k := 0; k < len(t.classRef)/3; k++ {
		class := t.className(k)
		for ci := range m.Clusters {
			t.prefOff[k*nc+ci] = int32(len(t.prefs))
			units := m.Clusters[ci].Units
			start := len(t.prefs)
			for ui := range units {
				if !units[ui].Supports(class) {
					continue
				}
				// Insert after every unit as flexible or less: stable.
				t.prefs = append(t.prefs, int32(ui))
				for j := len(t.prefs) - 1; j > start && len(units[t.prefs[j-1]].Classes) > len(units[ui].Classes); j-- {
					t.prefs[j-1], t.prefs[j] = t.prefs[j], t.prefs[j-1]
				}
			}
		}
	}
	t.prefOff[len(t.prefOff)-1] = int32(len(t.prefs))
}

// className returns the name of the machine's class k.
func (t *MRT) className(k int) machine.OpClass {
	r := t.classRef[3*k : 3*k+3]
	return t.mach.Clusters[r[0]].Units[r[1]].Classes[r[2]]
}

// Reset empties the table and retargets it to a (possibly different) II,
// reusing the backing arrays, which grow with amortised capacity, and the
// machine-derived lookup tables. It is
// how II-search loops keep the steady-state placement path allocation
// free: one NewMRT or Carve per schedule request, one Reset per
// candidate II.
func (t *MRT) Reset(ii int) {
	if ii < 1 {
		panic(fmt.Sprintf("sched: MRT reset to II %d < 1", ii))
	}
	t.ii = ii
	t.occ = buf.Grow(t.occ[:0], t.unitBase[len(t.unitBase)-1]*ii)
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
	return int(t.occ[(t.unitBase[cluster]+slot)*t.ii+t.mod(cycle)])
}

// Reserve claims (cluster, slot, cycle mod II) for instruction id. It
// fails if the slot is already taken.
func (t *MRT) Reserve(cluster, slot, cycle, id int) error {
	c := t.mod(cycle)
	i := (t.unitBase[cluster]+slot)*t.ii + c
	if cur := t.occ[i]; cur != -1 {
		return fmt.Errorf("sched: cluster %d slot %d cycle %d already holds instruction %d", cluster, slot, c, cur)
	}
	t.occ[i] = int32(id)
	if slot < 64 {
		t.busy[cluster*t.ii+c] |= 1 << uint(slot)
	}
	return nil
}

// Release frees (cluster, slot, cycle mod II), returning the evicted
// instruction ID or -1 if the slot was already free.
func (t *MRT) Release(cluster, slot, cycle int) int {
	c := t.mod(cycle)
	i := (t.unitBase[cluster]+slot)*t.ii + c
	id := t.occ[i]
	t.occ[i] = -1
	if slot < 64 {
		t.busy[cluster*t.ii+c] &^= 1 << uint(slot)
	}
	return int(id)
}

// FreeSlot returns a free slot on the given cluster at the given cycle
// whose functional unit supports class, or ok=false when the cycle row is
// full for that class. Among free candidates it picks the least flexible
// unit (fewest supported classes, ties by index), so that multi-class
// units stay available for the operations that have no alternative —
// e.g. plain ALU ops avoid the one ALU slot that can also issue the
// branch. The preference order is precomputed; the probe itself is a
// bitset test per candidate unit.
func (t *MRT) FreeSlot(cluster, cycle int, class machine.OpClass) (slot int, ok bool) {
	if class != t.lastClass || t.lastK == -2 {
		t.lastClass, t.lastK = class, -1
		for k := 0; k < len(t.classRef)/3; k++ {
			if t.className(k) == class {
				t.lastK = k
				break
			}
		}
	}
	if t.lastK < 0 {
		return 0, false
	}
	c := t.mod(cycle)
	busy := t.busy[cluster*t.ii+c]
	base := t.unitBase[cluster] * t.ii
	row := t.lastK*t.mach.NumClusters() + cluster
	for _, ui := range t.prefs[t.prefOff[row]:t.prefOff[row+1]] {
		if ui < 64 {
			if busy&(1<<uint(ui)) == 0 {
				return int(ui), true
			}
		} else if t.occ[base+int(ui)*t.ii+c] == -1 {
			return int(ui), true
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
