package machine

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// mixedShape is a two-cluster machine whose units list their classes in
// different orders and numbers, so the preference orders differ per
// class and per cluster.
func mixedShape() *Machine {
	return NewBuilder("mixed").
		Latency(ClassALU, 1).
		Latency(ClassMul, 2).
		Latency(ClassMem, 2).
		Latency(ClassBranch, 1).
		Bus("xbus", 1, 1).
		Cluster("c0", 8,
			FU("u0", ClassMem, ClassALU),
			FU("u1", ClassALU),
			FU("u2", ClassBranch, ClassALU, ClassMul)).
		Cluster("c1", 8,
			FU("u0", ClassMul),
			FU("u1", ClassALU, ClassMem),
			FU("u2", ClassMem),
			FU("u3", ClassBranch, ClassMem)).
		MustBuild()
}

// randomShape builds a machine of one or two clusters with one to four
// units each, every unit serving a non-empty subset of the four canned
// classes chosen by seed.
func randomShape(seed uint64) *Machine {
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	classes := []OpClass{ClassALU, ClassMul, ClassMem, ClassBranch}
	b := NewBuilder(fmt.Sprintf("random%d", seed)).Bus("xbus", 1, 1)
	for _, c := range classes {
		b.Latency(c, 1)
	}
	for ci := 0; ci < 1+next(2); ci++ {
		var units []FunctionalUnit
		for ui := 0; ui < 1+next(4); ui++ {
			var fu FunctionalUnit
			fu.Name = fmt.Sprintf("u%d", ui)
			mask := 1 + next(15)
			for k, c := range classes {
				if mask>>k&1 != 0 {
					fu.Classes = append(fu.Classes, c)
				}
			}
			units = append(units, fu)
		}
		b.Cluster(fmt.Sprintf("c%d", ci), 8, units...)
	}
	return b.MustBuild()
}

// TestClassTablesMatchSupports checks the derived tables against
// FunctionalUnit.Supports, the definition: the numbering is by first
// appearance, every mask bit equals Supports, and the preference tiers
// read in order, each tier's units by index, are the cluster's units
// serving the class stably sorted by how many classes they list.
func TestClassTablesMatchSupports(t *testing.T) {
	machines := []*Machine{Unified(), Paper4Cluster(), Tight(), mixedShape()}
	for seed := uint64(0); seed < 40; seed++ {
		machines = append(machines, randomShape(seed))
	}
	for _, m := range machines {
		var names []OpClass
		base := 0
		for ci := range m.Clusters {
			if got := m.UnitBase(ci); got != base {
				t.Fatalf("%s: UnitBase(%d) = %d, want %d", m.Name, ci, got, base)
			}
			base += len(m.Clusters[ci].Units)
			for _, fu := range m.Clusters[ci].Units {
				for _, c := range fu.Classes {
					if !slices.Contains(names, c) {
						names = append(names, c)
					}
				}
			}
		}
		if m.NumUnits() != base || m.UnitBase(len(m.Clusters)) != base {
			t.Fatalf("%s: NumUnits = %d, want %d", m.Name, m.NumUnits(), base)
		}
		if m.NumClasses() != len(names) {
			t.Fatalf("%s: NumClasses = %d, want %d", m.Name, m.NumClasses(), len(names))
		}
		if got := m.ClassID("nosuch"); got != -1 {
			t.Fatalf("%s: ClassID(nosuch) = %d, want -1", m.Name, got)
		}
		if m.UnitMask(0, -1) != 0 || m.UnitTiers(0, -1) != nil {
			t.Fatalf("%s: class -1 has units", m.Name)
		}
		for k, c := range names {
			if got := m.ClassID(c); got != k {
				t.Fatalf("%s: ClassID(%s) = %d, want %d", m.Name, c, got, k)
			}
			for ci := range m.Clusters {
				units := m.Clusters[ci].Units
				var want []int
				for ui := range units {
					if got := m.UnitMask(ci, k)>>ui&1 != 0; got != units[ui].Supports(c) {
						t.Fatalf("%s: UnitMask(%d, %s) bit %d = %v, Supports says %v", m.Name, ci, c, ui, got, !got)
					}
					if units[ui].Supports(c) {
						want = append(want, ui)
					}
				}
				slices.SortStableFunc(want, func(a, b int) int { return len(units[a].Classes) - len(units[b].Classes) })
				var got []int
				for _, tier := range m.UnitTiers(ci, k) {
					for b := tier; b != 0; b &= b - 1 {
						got = append(got, bits.TrailingZeros64(b))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: cluster %d class %s prefers units %v, want %v", m.Name, ci, c, got, want)
				}
			}
		}
	}
}

// TestValidateLimits: a cluster of 64 units and a machine of 64 classes
// build; one more of either fails by name.
func TestValidateLimits(t *testing.T) {
	wide := func(units int) *Builder {
		b := NewBuilder("wide").Latency(ClassALU, 1)
		var fus []FunctionalUnit
		for ui := 0; ui < units; ui++ {
			fus = append(fus, FU(fmt.Sprintf("u%d", ui), ClassALU))
		}
		return b.Cluster("c0", 8, fus...)
	}
	if _, err := wide(MaxUnits).Build(); err != nil {
		t.Fatalf("%d units: %v", MaxUnits, err)
	}
	if _, err := wide(MaxUnits + 1).Build(); !errors.Is(err, ErrTooManyUnits) {
		t.Fatalf("%d units: err = %v, want ErrTooManyUnits", MaxUnits+1, err)
	}
	many := func(classes int) *Builder {
		b := NewBuilder("many")
		var fus []FunctionalUnit
		for k := 0; k < classes; k++ {
			c := OpClass(fmt.Sprintf("k%d", k))
			b.Latency(c, 1)
			if k%2 == 0 {
				fus = append(fus, FU(fmt.Sprintf("u%d", k/2), c))
			} else {
				fus[k/2].Classes = append(fus[k/2].Classes, c)
			}
		}
		// A repeated class is no new class.
		return b.Cluster("c0", 8, fus...).Cluster("c1", 8, FU("again", "k0", "k1")).Bus("x", 1, 1)
	}
	m, err := many(MaxClasses).Build()
	if err != nil {
		t.Fatalf("%d classes: %v", MaxClasses, err)
	}
	if m.NumClasses() != MaxClasses {
		t.Fatalf("NumClasses = %d, want %d", m.NumClasses(), MaxClasses)
	}
	if _, err := many(MaxClasses + 1).Build(); !errors.Is(err, ErrTooManyClasses) {
		t.Fatalf("%d classes: err = %v, want ErrTooManyClasses", MaxClasses+1, err)
	}
}

// TestMachineValidateAllocs: Validate runs on every compile, so it allocates
// nothing on a valid machine.
func TestMachineValidateAllocs(t *testing.T) {
	for _, m := range []*Machine{Unified(), Paper4Cluster(), Tight()} {
		if got := testing.AllocsPerRun(10, func() {
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: Validate makes %v allocations, want 0", m.Name, got)
		}
	}
}

// TestCheckBuilt: only constructed machines carry class tables.
func TestCheckBuilt(t *testing.T) {
	lit := &Machine{Name: "literal", Clusters: []Cluster{{Name: "c0", Units: []FunctionalUnit{FU("a", ClassALU)},
		RegFile: RegisterFile{Name: "rf", Size: 8}}}, Latencies: map[OpClass]int{ClassALU: 1}}
	if err := lit.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := lit.CheckBuilt(); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("literal machine: CheckBuilt = %v, want ErrNotBuilt", err)
	}
	data, err := lit.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{back, Unified(), Paper4Cluster(), Tight()} {
		if err := m.CheckBuilt(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
}
