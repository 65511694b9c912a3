// Package ir defines the loop-body intermediate representation the
// schedulers consume: instructions over virtual registers, and the data
// dependence graph (DDG) with true/anti/output edges, loop-carried
// distances and machine latencies.
//
// The unit of work is a single innermost loop body, the granularity at
// which modulo scheduling operates. One iteration is the instruction
// sequence Loop.Instrs; the loop conceptually repeats it forever, so a
// dependence can cross iterations — its Distance says how many iterations
// ahead the consumer runs.
package ir

import (
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// VReg is a virtual register. A VReg may be defined more than once in a
// body (the DDG builder uses nearest-def semantics), and every VReg is
// implicitly redefined each iteration, which is what creates loop-carried
// dependences.
type VReg int

// String formats a VReg as "v<n>".
func (v VReg) String() string { return fmt.Sprintf("v%d", v) }

// Instruction is one operation of the loop body.
type Instruction struct {
	// ID is the instruction's index in Loop.Instrs; it is the node key
	// used by the dependence graph and by schedules.
	ID int
	// Op is a human-readable mnemonic ("load", "fmul", ...). It carries
	// no scheduling semantics; Class does.
	Op string
	// Class selects which functional units can execute the instruction
	// and, through machine.Latencies, its result latency.
	Class machine.OpClass
	// Defs are the virtual registers written.
	Defs []VReg
	// Uses are the virtual registers read. A use may appear here more
	// than once (e.g. v1 * v1).
	Uses []VReg
	// CarriedUses marks uses (by VReg) that read the value produced by
	// the *previous* iteration rather than the current one — the y[i-1]
	// of a first-order recurrence. The DDG builder turns each into a
	// loop-carried true dependence with distance CarriedUses[v]. Graph
	// clones share the map, so it is never written once built: a spill
	// splice installs a new one.
	CarriedUses map[VReg]int
	// SpillOf records, on OpSpillReload instructions only, which virtual
	// register's value the reload reproduces. Paired reloads also carry a
	// store→reload DepMem edge; live-in reloads (SpliceLiveInSpill)
	// have no such edge and no use operand, so without this field nothing
	// would say which live-in the preheader parked in the slot — the
	// execution layer (pkg/vm) needs it to bind the reload's semantics.
	// It is meaningless (zero) on every other opcode.
	SpillOf VReg
}

// String renders the instruction roughly as "v3 = fmul v1, v2".
func (in *Instruction) String() string {
	s := ""
	for i, d := range in.Defs {
		if i > 0 {
			s += ", "
		}
		s += d.String()
	}
	if len(in.Defs) > 0 {
		s += " = "
	}
	s += in.Op
	for i, u := range in.Uses {
		if i == 0 {
			s += " "
		} else {
			s += ", "
		}
		s += u.String()
		if in.CarriedUses != nil {
			if d, ok := in.CarriedUses[u]; ok {
				s += fmt.Sprintf("[-%d]", d)
			}
		}
	}
	return s
}

// Loop is one innermost loop body.
type Loop struct {
	// Name labels the loop in tests and benchmarks.
	Name string
	// Instrs is the loop body in original program order. Instrs[i].ID
	// must equal i.
	Instrs []*Instruction
}

// NumInstrs returns the number of instructions in the body.
func (l *Loop) NumInstrs() int { return len(l.Instrs) }

// VRegs returns the set of virtual registers mentioned by the loop,
// in ascending order.
func (l *Loop) VRegs() []VReg {
	seen := map[VReg]bool{}
	max := VReg(-1)
	for _, in := range l.Instrs {
		for _, v := range in.Defs {
			seen[v] = true
			if v > max {
				max = v
			}
		}
		for _, v := range in.Uses {
			seen[v] = true
			if v > max {
				max = v
			}
		}
	}
	out := make([]VReg, 0, len(seen))
	for v := VReg(0); v <= max; v++ {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}

// Validate checks the loop is well formed: IDs match positions, every
// instruction has a class, registers are non-negative (they index
// dense per-register tables), and carried uses refer to registers the
// instruction actually uses with positive distance.
func (l *Loop) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("ir: loop with empty name")
	}
	for i, in := range l.Instrs {
		if in == nil {
			return fmt.Errorf("ir: loop %q: nil instruction at %d", l.Name, i)
		}
		if in.ID != i {
			return fmt.Errorf("ir: loop %q: instruction %d has ID %d", l.Name, i, in.ID)
		}
		if in.Class == "" {
			return fmt.Errorf("ir: loop %q: instruction %d (%s) has no op class", l.Name, i, in.Op)
		}
		for _, v := range in.Defs {
			if v < 0 {
				return fmt.Errorf("ir: loop %q: instruction %d defines negative register %s", l.Name, i, v)
			}
		}
		for _, v := range in.Uses {
			if v < 0 {
				return fmt.Errorf("ir: loop %q: instruction %d uses negative register %s", l.Name, i, v)
			}
		}
		for v, dist := range in.CarriedUses {
			if dist <= 0 {
				return fmt.Errorf("ir: loop %q: instruction %d carried use of %s with distance %d", l.Name, i, v, dist)
			}
			found := false
			for _, u := range in.Uses {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("ir: loop %q: instruction %d declares carried use of %s it does not use", l.Name, i, v)
			}
		}
	}
	return nil
}
