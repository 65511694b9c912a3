package machine

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// This file numbers a machine's operation classes and units once, when
// the machine is constructed, so the schedulers look up which units
// serve a class instead of each working it out from the class strings:
// the machine description owns the class → unit alternatives.

// MaxUnits is the most functional units a cluster may have, so that a
// cluster's units fit one uint64 bitset (bit i is Units[i]).
const MaxUnits = 64

// MaxClasses is the most distinct operation classes a machine's units
// may serve, so that a set of classes fits one uint64 bitset.
const MaxClasses = 64

var (
	// ErrTooManyUnits is Validate's error for a cluster with more than
	// MaxUnits functional units.
	ErrTooManyUnits = errors.New("more than 64 functional units in one cluster")
	// ErrTooManyClasses is Validate's error for a machine whose units
	// serve more than MaxClasses operation classes.
	ErrTooManyClasses = errors.New("more than 64 operation classes")
	// ErrNotBuilt is CheckBuilt's error for a machine that did not come
	// from Builder.Build or FromJSON and so has no class tables.
	ErrNotBuilt = errors.New("no class tables: construct the machine with Builder.Build or FromJSON")
)

// classTables is what construction derives from a valid machine. Class
// k is the k-th distinct class in order of first appearance over the
// clusters, their units and each unit's Classes. Row r = ci*len(names)+k
// describes class k on cluster ci: masks[r] is the bitset of the
// cluster's units serving it, and tiers[tierOff[r]:tierOff[r+1]] splits
// that bitset by flexibility (how many classes a unit lists), least
// flexible first. unitBase[ci] numbers cluster ci's unit 0 among all
// units in cluster order; unitBase[len(Clusters)] is the unit count.
type classTables struct {
	names    []OpClass
	unitBase []int
	masks    []uint64
	tierOff  []int32
	tiers    []uint64
}

// listClasses writes the distinct classes m's units serve into dst, in
// order of first appearance, and returns how many it wrote; it stops
// when dst is full. It allocates nothing, so Validate can count with it.
func (m *Machine) listClasses(dst []OpClass) int {
	k := 0
	for ci := range m.Clusters {
		for ui := range m.Clusters[ci].Units {
			for _, c := range m.Clusters[ci].Units[ui].Classes {
				if slices.Contains(dst[:k], c) {
					continue
				}
				if k == len(dst) {
					return k
				}
				dst[k] = c
				k++
			}
		}
	}
	return k
}

// derive fills m's class tables; m must be valid.
func (m *Machine) derive() {
	var buf [MaxClasses]OpClass
	k, nc := m.listClasses(buf[:]), len(m.Clusters)
	t := classTables{
		names:    slices.Clone(buf[:k]),
		unitBase: make([]int, nc+1),
		masks:    make([]uint64, nc*k),
		tierOff:  make([]int32, nc*k+1),
	}
	for ci := range m.Clusters {
		units := m.Clusters[ci].Units
		t.unitBase[ci+1] = t.unitBase[ci] + len(units)
		for c, class := range t.names {
			r := ci*k + c
			t.tierOff[r] = int32(len(t.tiers))
			for ui := range units {
				if units[ui].Supports(class) {
					t.masks[r] |= 1 << ui
				}
			}
			for rest, flex := t.masks[r], 1; rest != 0; flex++ {
				var tier uint64
				for b := rest; b != 0; b &= b - 1 {
					if ui := bits.TrailingZeros64(b); len(units[ui].Classes) == flex {
						tier |= 1 << ui
					}
				}
				if tier != 0 {
					t.tiers = append(t.tiers, tier)
					rest &^= tier
				}
			}
		}
	}
	t.tierOff[nc*k] = int32(len(t.tiers))
	m.tables = t
}

// CheckBuilt returns an error wrapping ErrNotBuilt unless m came from
// Builder.Build or FromJSON, which derive the class tables every
// scheduler reads. A machine whose clusters change after construction
// fails it too.
func (m *Machine) CheckBuilt() error {
	if len(m.tables.unitBase) != len(m.Clusters)+1 {
		return fmt.Errorf("machine %q: %w", m.Name, ErrNotBuilt)
	}
	return nil
}

// NumClasses returns how many distinct operation classes m's units
// serve; ClassID numbers them from 0.
func (m *Machine) NumClasses() int { return len(m.tables.names) }

// ClassID returns the number of class c on m, or -1 when no unit of m
// serves c. Every table lookup of class -1 is empty.
func (m *Machine) ClassID(c OpClass) int {
	for k, name := range m.tables.names {
		if name == c {
			return k
		}
	}
	return -1
}

// UnitMask returns the units of cluster ci that serve class k as a
// bitset, bit i for Units[i]; 0 for k = -1.
func (m *Machine) UnitMask(ci, k int) uint64 {
	if k < 0 {
		return 0
	}
	return m.tables.masks[ci*len(m.tables.names)+k]
}

// UnitTiers returns UnitMask(ci, k) split into preference tiers, least
// flexible first: each tier holds the units listing the same number of
// classes. The lowest free unit of the first tier with a free unit is
// the least flexible free unit, ties by index — the one a scheduler
// takes so that multi-class units stay free for operations with no
// alternative. It returns nil for k = -1.
func (m *Machine) UnitTiers(ci, k int) []uint64 {
	if k < 0 {
		return nil
	}
	r := ci*len(m.tables.names) + k
	return m.tables.tiers[m.tables.tierOff[r]:m.tables.tierOff[r+1]]
}

// UnitBase returns the number of cluster ci's first unit when the units
// of all clusters are numbered in cluster order; UnitBase(NumClusters())
// is NumUnits().
func (m *Machine) UnitBase(ci int) int { return m.tables.unitBase[ci] }

// NumUnits returns the number of functional units over all clusters.
func (m *Machine) NumUnits() int { return m.tables.unitBase[len(m.Clusters)] }
