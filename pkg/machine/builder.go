package machine

import "fmt"

// Builder assembles a Machine incrementally. Methods return the builder
// for chaining; errors are accumulated and reported by Build, which also
// runs Machine.Validate so a successfully built machine is always valid,
// and then numbers its classes and units.
//
//	m, err := machine.NewBuilder("demo").
//		Latency(machine.ClassALU, 1).
//		Latency(machine.ClassMem, 2).
//		Cluster("c0", 32,
//			machine.FU("alu0", machine.ClassALU),
//			machine.FU("mem0", machine.ClassMem)).
//		Build()
type Builder struct {
	m    Machine
	errs []error
}

// NewBuilder starts a machine description with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{m: Machine{Name: name, Latencies: map[OpClass]int{}}}
}

// FU is a convenience constructor for a FunctionalUnit supporting the
// given classes.
func FU(name string, classes ...OpClass) FunctionalUnit {
	return FunctionalUnit{Name: name, Classes: classes}
}

// Cluster appends a cluster with the given name, register-file size and
// functional units. The register file is named "<cluster>.rf".
func (b *Builder) Cluster(name string, regs int, units ...FunctionalUnit) *Builder {
	b.m.Clusters = append(b.m.Clusters, Cluster{
		Name:    name,
		Units:   units,
		RegFile: RegisterFile{Name: name + ".rf", Size: regs},
	})
	return b
}

// Latency declares the result latency of an operation class.
func (b *Builder) Latency(c OpClass, cycles int) *Builder {
	if _, dup := b.m.Latencies[c]; dup {
		b.errs = append(b.errs, fmt.Errorf("machine %q: duplicate latency for class %q", b.m.Name, c))
	}
	b.m.Latencies[c] = cycles
	return b
}

// Bus declares a group of count identical inter-cluster buses with the
// given transfer latency.
func (b *Builder) Bus(name string, count, latency int) *Builder {
	b.m.Buses = append(b.m.Buses, Bus{Name: name, Count: count, Latency: latency})
	return b
}

// Build finalises and validates the machine.
func (b *Builder) Build() (*Machine, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	m := b.m
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m.derive()
	return &m, nil
}

// MustBuild is Build for statically known-good descriptions; it panics on
// error and is used by the canned configurations.
func (b *Builder) MustBuild() *Machine {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
