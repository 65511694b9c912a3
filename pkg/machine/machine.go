// Package machine describes clustered VLIW target machines.
//
// A Machine is the static resource model every other layer of the system
// schedules against: a set of clusters, each with its own functional units
// and local register file, connected by a limited number of inter-cluster
// buses. The model follows the machine configurations used by Zalamea,
// Llosa, Ayguadé and Valero in "Modulo scheduling with integrated register
// spilling for clustered VLIW architectures" (MICRO 2001): fully pipelined
// functional units with per-operation-class latencies, register files that
// are private to a cluster, and buses that move values between clusters
// with a fixed transfer latency.
//
// Machines are constructed with the Builder (see builder.go) or loaded
// from JSON with FromJSON; both paths run Validate and then number the
// machine's classes and units once (see classes.go), so downstream
// packages can assume a well-formed description and look up which units
// serve a class.
package machine

import (
	"encoding/json"
	"fmt"
)

// OpClass identifies a class of operations that contend for the same kind
// of functional unit. The dependence-graph IR tags every instruction with
// an OpClass; the scheduler matches it against FunctionalUnit.Classes.
type OpClass string

// The canonical operation classes used by the canned machine descriptions
// and the example loops. A Machine may define additional classes; these
// constants only name the common ones.
const (
	// ClassALU covers integer and floating-point add/sub/logic/compare.
	ClassALU OpClass = "alu"
	// ClassMul covers multiply and multiply-accumulate operations.
	ClassMul OpClass = "mul"
	// ClassMem covers loads and stores.
	ClassMem OpClass = "mem"
	// ClassBranch covers the loop-closing branch.
	ClassBranch OpClass = "branch"
)

// FunctionalUnit is a single fully pipelined issue slot inside a cluster.
// It accepts one operation per cycle from any of the classes it supports.
type FunctionalUnit struct {
	// Name is unique within the cluster (for diagnostics and JSON).
	Name string `json:"name"`
	// Classes lists the operation classes this unit can execute.
	Classes []OpClass `json:"classes"`
}

// Supports reports whether the unit can execute operations of class c.
func (fu *FunctionalUnit) Supports(c OpClass) bool {
	for _, have := range fu.Classes {
		if have == c {
			return true
		}
	}
	return false
}

// RegisterFile describes the register file local to one cluster.
type RegisterFile struct {
	// Name is unique within the cluster.
	Name string `json:"name"`
	// Size is the number of architectural registers available. MaxLive
	// values above Size mean the schedule needs spilling (pkg/regpress).
	Size int `json:"size"`
}

// Cluster groups functional units with the register file they read and
// write. Values produced in one cluster are only visible to another
// cluster after a bus transfer.
type Cluster struct {
	// Name is unique within the machine.
	Name string `json:"name"`
	// Units are the issue slots of this cluster; their index is the
	// "slot" coordinate of a schedule placement.
	Units []FunctionalUnit `json:"units"`
	// RegFile is the cluster-local register file.
	RegFile RegisterFile `json:"regfile"`
}

// Bus is an inter-cluster interconnect. Count buses are shared by all
// cluster pairs; each transfer occupies one bus and delivers the value
// Latency cycles after the producer's result is available.
type Bus struct {
	// Name identifies the bus group in diagnostics and JSON.
	Name string `json:"name"`
	// Count is the number of identical buses (transfers per cycle).
	Count int `json:"count"`
	// Latency is the extra cycles a cross-cluster consumer must wait.
	Latency int `json:"latency"`
}

// Machine is a complete clustered VLIW machine description.
type Machine struct {
	// Name labels the configuration (e.g. "unified", "paper-4cluster").
	Name string `json:"name"`
	// Clusters are the machine's clusters, in slot order.
	Clusters []Cluster `json:"clusters"`
	// Buses describes the inter-cluster interconnect. It may be empty
	// for single-cluster machines.
	Buses []Bus `json:"buses,omitempty"`
	// Latencies maps every operation class used by the machine to its
	// result latency in cycles (producer issues at t, a same-cluster
	// consumer can issue at t+Latencies[class]).
	Latencies map[OpClass]int `json:"latencies"`

	// tables is the class and unit numbering construction derives;
	// read-only afterwards, so concurrent schedulers share it.
	tables classTables
}

// NumClusters returns the number of clusters.
func (m *Machine) NumClusters() int { return len(m.Clusters) }

// Latency returns the result latency of operation class c.
// It returns 1 for classes the machine does not declare, so that foreign
// IR is scheduled conservatively rather than panicking.
func (m *Machine) Latency(c OpClass) int {
	if l, ok := m.Latencies[c]; ok {
		return l
	}
	return 1
}

// BusLatency returns the inter-cluster transfer latency, i.e. the extra
// cycles added to a dependence whose producer and consumer sit on
// different clusters. With no buses declared it returns 0.
func (m *Machine) BusLatency() int {
	max := 0
	for _, b := range m.Buses {
		if b.Latency > max {
			max = b.Latency
		}
	}
	return max
}

// BusCount returns the total number of inter-cluster buses.
func (m *Machine) BusCount() int {
	n := 0
	for _, b := range m.Buses {
		n += b.Count
	}
	return n
}

// RegsPerCluster returns the architectural register count of cluster ci —
// the capacity a register allocator maps renamed kernel values onto; names
// beyond it overflow to stack-frame slots (pkg/emit). It returns 0 for an
// out-of-range index so probing callers need no bounds check.
func (m *Machine) RegsPerCluster(ci int) int {
	if ci < 0 || ci >= len(m.Clusters) {
		return 0
	}
	return m.Clusters[ci].RegFile.Size
}

// TotalRegisters returns the sum of all cluster register-file sizes.
func (m *Machine) TotalRegisters() int {
	n := 0
	for _, c := range m.Clusters {
		n += c.RegFile.Size
	}
	return n
}

// Validate checks structural invariants: at least one cluster, every
// cluster has at least one unit and a positive register file, names are
// unique at their scope, every declared class has a positive latency,
// every class used by a unit has a latency entry, no cluster has more
// than MaxUnits units nor the machine more than MaxClasses classes, and
// multi-cluster machines declare at least one bus with non-negative
// latency. It allocates nothing on a valid machine.
func (m *Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("machine: empty name")
	}
	if len(m.Clusters) == 0 {
		return fmt.Errorf("machine %q: no clusters", m.Name)
	}
	clusterNames := map[string]bool{}
	for ci, cl := range m.Clusters {
		if cl.Name == "" {
			return fmt.Errorf("machine %q: cluster %d has empty name", m.Name, ci)
		}
		if clusterNames[cl.Name] {
			return fmt.Errorf("machine %q: duplicate cluster name %q", m.Name, cl.Name)
		}
		clusterNames[cl.Name] = true
		if len(cl.Units) == 0 {
			return fmt.Errorf("machine %q: cluster %q has no functional units", m.Name, cl.Name)
		}
		if len(cl.Units) > MaxUnits {
			return fmt.Errorf("machine %q: cluster %q has %d units: %w", m.Name, cl.Name, len(cl.Units), ErrTooManyUnits)
		}
		unitNames := map[string]bool{}
		for ui, fu := range cl.Units {
			if fu.Name == "" {
				return fmt.Errorf("machine %q: cluster %q unit %d has empty name", m.Name, cl.Name, ui)
			}
			if unitNames[fu.Name] {
				return fmt.Errorf("machine %q: cluster %q duplicate unit name %q", m.Name, cl.Name, fu.Name)
			}
			unitNames[fu.Name] = true
			if len(fu.Classes) == 0 {
				return fmt.Errorf("machine %q: unit %q.%q supports no classes", m.Name, cl.Name, fu.Name)
			}
			for _, c := range fu.Classes {
				if _, ok := m.Latencies[c]; !ok {
					return fmt.Errorf("machine %q: unit %q.%q uses class %q with no latency entry", m.Name, cl.Name, fu.Name, c)
				}
			}
		}
		if cl.RegFile.Size <= 0 {
			return fmt.Errorf("machine %q: cluster %q register file size %d must be positive", m.Name, cl.Name, cl.RegFile.Size)
		}
	}
	var classes [MaxClasses + 1]OpClass
	if m.listClasses(classes[:]) > MaxClasses {
		return fmt.Errorf("machine %q: %w", m.Name, ErrTooManyClasses)
	}
	for c, l := range m.Latencies {
		if l <= 0 {
			return fmt.Errorf("machine %q: class %q latency %d must be positive", m.Name, c, l)
		}
	}
	busNames := map[string]bool{}
	for _, b := range m.Buses {
		if b.Name == "" {
			return fmt.Errorf("machine %q: bus with empty name", m.Name)
		}
		if busNames[b.Name] {
			return fmt.Errorf("machine %q: duplicate bus name %q", m.Name, b.Name)
		}
		busNames[b.Name] = true
		if b.Count <= 0 {
			return fmt.Errorf("machine %q: bus %q count %d must be positive", m.Name, b.Name, b.Count)
		}
		if b.Latency < 0 {
			return fmt.Errorf("machine %q: bus %q latency %d must be non-negative", m.Name, b.Name, b.Latency)
		}
	}
	if len(m.Clusters) > 1 && m.BusCount() == 0 {
		return fmt.Errorf("machine %q: %d clusters but no inter-cluster buses", m.Name, len(m.Clusters))
	}
	return nil
}

// ToJSON serialises the machine description.
func (m *Machine) ToJSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// FromJSON parses and validates a machine description produced by ToJSON
// (or written by hand), and numbers its classes and units.
func FromJSON(data []byte) (*Machine, error) {
	var m Machine
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("machine: parse: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m.derive()
	return &m, nil
}
