package sched

import (
	"fmt"
	"sort"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// This file retains the original map-backed reservation table as a
// reference implementation and differentially tests the dense MRT
// against it: both tables are driven through identical probe / place /
// release / transfer sequences — derived from generated corpora so the
// class mix and loop shapes match what real sweeps throw at the table —
// and every return value must agree, operation by operation. The dense
// rewrite is a pure representation change; any divergence is a bug.

// refMRT is the retained reference: the map/slice representation the
// MRT had before the dense rewrite, preserved verbatim (minus the parts
// shared through the machine description).
type refMRT struct {
	mach  *machine.Machine
	ii    int
	slots [][][]int // cluster -> slot -> cycle mod ii -> id or -1

	busCap  int
	busUsed []int
	busRef  map[refTransferKey]*refBusRes
}

type refTransferKey struct {
	from int
	reg  ir.VReg
	dest int
}

type refBusRes struct {
	cycle int
	refs  int
}

func newRefMRT(m *machine.Machine, ii int) *refMRT {
	t := &refMRT{
		mach:    m,
		ii:      ii,
		slots:   make([][][]int, m.NumClusters()),
		busCap:  m.BusCount(),
		busUsed: make([]int, ii),
		busRef:  map[refTransferKey]*refBusRes{},
	}
	for ci := range m.Clusters {
		t.slots[ci] = make([][]int, len(m.Clusters[ci].Units))
		for ui := range m.Clusters[ci].Units {
			row := make([]int, ii)
			for c := range row {
				row[c] = -1
			}
			t.slots[ci][ui] = row
		}
	}
	return t
}

func (t *refMRT) mod(cycle int) int { return ((cycle % t.ii) + t.ii) % t.ii }

func (t *refMRT) At(cluster, slot, cycle int) int {
	return t.slots[cluster][slot][t.mod(cycle)]
}

func (t *refMRT) Reserve(cluster, slot, cycle, id int) error {
	c := t.mod(cycle)
	if cur := t.slots[cluster][slot][c]; cur != -1 {
		return fmt.Errorf("ref: occupied by %d", cur)
	}
	t.slots[cluster][slot][c] = id
	return nil
}

func (t *refMRT) Release(cluster, slot, cycle int) int {
	c := t.mod(cycle)
	id := t.slots[cluster][slot][c]
	t.slots[cluster][slot][c] = -1
	return id
}

func (t *refMRT) FreeSlot(cluster, cycle int, class machine.OpClass) (slot int, ok bool) {
	c := t.mod(cycle)
	units := t.mach.Clusters[cluster].Units
	best, bestClasses := -1, 0
	for ui := range units {
		if t.slots[cluster][ui][c] != -1 || !units[ui].Supports(class) {
			continue
		}
		if best == -1 || len(units[ui].Classes) < bestClasses {
			best, bestClasses = ui, len(units[ui].Classes)
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

func (t *refMRT) AddTransfer(tr Transfer) error {
	k := refTransferKey{tr.From, tr.Reg, tr.Dest}
	if r := t.busRef[k]; r != nil {
		r.refs++
		return nil
	}
	c := t.mod(tr.Cycle)
	if t.busUsed[c] >= t.busCap {
		return fmt.Errorf("ref: buses busy at %d", c)
	}
	t.busUsed[c]++
	t.busRef[k] = &refBusRes{cycle: c, refs: 1}
	return nil
}

func (t *refMRT) RemoveTransfer(from int, reg ir.VReg, dest int) {
	k := refTransferKey{from, reg, dest}
	r := t.busRef[k]
	if r == nil {
		return
	}
	r.refs--
	if r.refs == 0 {
		t.busUsed[r.cycle]--
		delete(t.busRef, k)
	}
}

func (t *refMRT) BusUsed(cycle int) int { return t.busUsed[t.mod(cycle)] }

func (t *refMRT) TransferProducersAt(cycle int) []int {
	c := t.mod(cycle)
	seen := map[int]bool{}
	var out []int
	for k, r := range t.busRef {
		if r.cycle == c && !seen[k.from] {
			seen[k.from] = true
			out = append(out, k.from)
		}
	}
	sort.Ints(out)
	return out
}

// diffRNG is a splitmix64 so the op sequences are identical on every
// platform and Go version.
type diffRNG uint64

func (r *diffRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// mixedMachine is a two-cluster machine whose units list their classes
// in different orders and numbers, so the preference orders FreeSlot
// follows differ per class and per cluster.
func mixedMachine() *machine.Machine {
	return machine.NewBuilder("mixed").
		Latency(machine.ClassALU, 1).
		Latency(machine.ClassMul, 2).
		Latency(machine.ClassMem, 2).
		Latency(machine.ClassBranch, 1).
		Bus("xbus", 1, 1).
		Cluster("c0", 8,
			machine.FU("u0", machine.ClassMem, machine.ClassALU),
			machine.FU("u1", machine.ClassALU),
			machine.FU("u2", machine.ClassBranch, machine.ClassALU, machine.ClassMul)).
		Cluster("c1", 8,
			machine.FU("u0", machine.ClassMul),
			machine.FU("u1", machine.ClassALU, machine.ClassMem),
			machine.FU("u2", machine.ClassMem),
			machine.FU("u3", machine.ClassBranch, machine.ClassMem)).
		MustBuild()
}

// TestMRTDifferential drives the dense MRT and the reference map MRT
// through identical operation sequences — classes and registers sampled
// from generated corpora, the three canned machines and mixedMachine,
// several IIs with a mid-sequence Reset — and asserts every observable
// return value matches.
func TestMRTDifferential(t *testing.T) {
	machines := []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight(), mixedMachine()}
	loops := gen.Corpus(11, 12)
	for mi, m := range machines {
		for li, loop := range loops {
			rng := diffRNG(uint64(mi)*1e9 + uint64(li)*31 + 7)
			for _, ii := range []int{1, 2, 3, 5, 8} {
				mrt, err := NewMRT(m, ii)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefMRT(m, ii)
				runDiffOps(t, m, loop, mrt, ref, &rng, ii)
				// Reset must restore a state indistinguishable from a
				// fresh table: replay another round after resetting the
				// dense table and recreating the reference.
				mrt.Reset(ii)
				ref = newRefMRT(m, ii)
				runDiffOps(t, m, loop, mrt, ref, &rng, ii)
			}
		}
	}
}

// runDiffOps applies one pseudo-random operation sequence to both
// tables, asserting agreement after every step.
func runDiffOps(t *testing.T, m *machine.Machine, loop *ir.Loop, mrt *MRT, ref *refMRT, rng *diffRNG, ii int) {
	t.Helper()
	n := loop.NumInstrs()
	nc := m.NumClusters()
	for op := 0; op < 40*n; op++ {
		id := rng.intn(n)
		in := loop.Instrs[id]
		cluster := rng.intn(nc)
		cycle := rng.intn(3*ii) - ii // exercise negative-cycle folding
		switch rng.intn(6) {
		case 0, 1: // probe + maybe place
			slot, ok := mrt.FreeSlot(cluster, cycle, in.Class)
			rslot, rok := ref.FreeSlot(cluster, cycle, in.Class)
			if slot != rslot || ok != rok {
				t.Fatalf("FreeSlot(%d,%d,%s) = (%d,%v), ref (%d,%v) [loop %s, %s, II=%d]",
					cluster, cycle, in.Class, slot, ok, rslot, rok, loop.Name, m.Name, ii)
			}
			if ok && rng.intn(2) == 0 {
				err := mrt.Reserve(cluster, slot, cycle, id)
				rerr := ref.Reserve(cluster, rslot, cycle, id)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("Reserve(%d,%d,%d,%d): err=%v ref=%v", cluster, slot, cycle, id, err, rerr)
				}
			}
		case 2: // release
			slot := rng.intn(len(m.Clusters[cluster].Units))
			got, want := mrt.Release(cluster, slot, cycle), ref.Release(cluster, slot, cycle)
			if got != want {
				t.Fatalf("Release(%d,%d,%d) = %d, ref %d", cluster, slot, cycle, got, want)
			}
		case 3: // occupancy read
			slot := rng.intn(len(m.Clusters[cluster].Units))
			if got, want := mrt.At(cluster, slot, cycle), ref.At(cluster, slot, cycle); got != want {
				t.Fatalf("At(%d,%d,%d) = %d, ref %d", cluster, slot, cycle, got, want)
			}
		case 4: // transfer add/remove
			var reg ir.VReg
			if len(in.Defs) > 0 {
				reg = in.Defs[rng.intn(len(in.Defs))]
			} else if len(in.Uses) > 0 {
				reg = in.Uses[rng.intn(len(in.Uses))]
			}
			tr := Transfer{From: id, Reg: reg, Dest: cluster, Cycle: cycle}
			if rng.intn(3) < 2 {
				err := mrt.AddTransfer(tr)
				rerr := ref.AddTransfer(tr)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("AddTransfer(%+v): err=%v ref=%v", tr, err, rerr)
				}
			} else {
				mrt.RemoveTransfer(tr.From, tr.Reg, tr.Dest)
				ref.RemoveTransfer(tr.From, tr.Reg, tr.Dest)
			}
			if got, want := mrt.BusUsed(cycle), ref.BusUsed(cycle); got != want {
				t.Fatalf("BusUsed(%d) = %d, ref %d", cycle, got, want)
			}
		case 5: // producers snapshot
			got := append([]int(nil), mrt.TransferProducersAt(cycle)...)
			want := ref.TransferProducersAt(cycle)
			if len(got) != len(want) {
				t.Fatalf("TransferProducersAt(%d) = %v, ref %v", cycle, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("TransferProducersAt(%d) = %v, ref %v", cycle, got, want)
				}
			}
		}
	}
}

// TestMRTResetIndependence pins the pooling contract Reset exists for:
// after Reset(ii2) the table must behave exactly like NewMRT(m, ii2),
// including when ii2 differs from the original II in both directions.
func TestMRTResetIndependence(t *testing.T) {
	m := machine.Paper4Cluster()
	loops := gen.Corpus(5, 4)
	for _, loop := range loops {
		pooled, err := NewMRT(m, 7)
		if err != nil {
			t.Fatal(err)
		}
		rng1 := diffRNG(99)
		runDiffOps(t, m, loop, pooled, newRefMRT(m, 7), &rng1, 7)
		for _, ii := range []int{3, 11, 1, 6} {
			pooled.Reset(ii)
			if pooled.II() != ii {
				t.Fatalf("after Reset(%d): II() = %d", ii, pooled.II())
			}
			rng := diffRNG(uint64(ii) * 1234567)
			runDiffOps(t, m, loop, pooled, newRefMRT(m, ii), &rng, ii)
		}
	}
}

// TestMRTAllocsIndependentOfMachines: a table derives its machine's unit
// numbering and preference orders into its own arena, so what NewMRT
// allocates does not depend on how many machine values the process has
// seen. A cache keyed by machine pointer and capped at 128 entries used
// to stop caching after the 128th value, after which every table built
// its lookups anew (91 allocations here instead of 5), which made the
// allocation pins of later tests depend on the tests before them.
func TestMRTAllocsIndependentOfMachines(t *testing.T) {
	measure := func() float64 {
		m := machine.Paper4Cluster()
		return testing.AllocsPerRun(10, func() {
			if _, err := NewMRT(m, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
	before := measure()
	for i := 0; i < 200; i++ {
		if _, err := NewMRT(machine.Tight(), 3); err != nil {
			t.Fatal(err)
		}
	}
	if after := measure(); after != before {
		t.Fatalf("NewMRT makes %v allocations after 200 other machine values, %v before", after, before)
	}
}
