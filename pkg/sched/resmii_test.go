package sched

import (
	"fmt"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// refResMII is the least II at which every operation of l can be given
// a unit of m serving its class with at most II operations per unit —
// the resource-only minimum ResMII claims to compute — found without
// Hall's theorem: a capacitated bipartite matching grown one operation
// at a time by augmenting paths (Kuhn's algorithm), II raised from 1
// until every operation is matched. It returns 0 when some operation's
// class has no unit.
func refResMII(l *ir.Loop, m *machine.Machine) int {
	var units []*machine.FunctionalUnit
	for ci := range m.Clusters {
		for ui := range m.Clusters[ci].Units {
			units = append(units, &m.Clusters[ci].Units[ui])
		}
	}
	for _, in := range l.Instrs {
		served := false
		for _, fu := range units {
			served = served || fu.Supports(in.Class)
		}
		if !served {
			return 0
		}
	}
	for ii := 1; ; ii++ {
		on := make([][]int, len(units)) // the operations each unit issues
		var seen []bool
		// augment seats op on a unit of its class, moving seated
		// operations to other units along an augmenting path if needed.
		var augment func(op int) bool
		augment = func(op int) bool {
			for u, fu := range units {
				if seen[u] || !fu.Supports(l.Instrs[op].Class) {
					continue
				}
				seen[u] = true
				if len(on[u]) < ii {
					on[u] = append(on[u], op)
					return true
				}
				for j, other := range on[u] {
					if augment(other) {
						on[u][j] = op
						return true
					}
				}
			}
			return false
		}
		matched := 0
		for op := range l.Instrs {
			seen = make([]bool, len(units))
			if !augment(op) {
				break
			}
			matched++
		}
		if matched == len(l.Instrs) {
			return ii
		}
	}
}

// fuzzClasses are the classes FuzzResMII's machines and loops draw from.
var fuzzClasses = []machine.OpClass{machine.ClassALU, machine.ClassMul, machine.ClassMem, machine.ClassBranch}

// fuzzResInput decodes a machine of one or two clusters with one to four
// units each, every unit serving a non-empty subset of fuzzClasses, and
// a loop of up to 16 operations over those classes from data.
func fuzzResInput(data []byte) (*ir.Loop, *machine.Machine) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	b := machine.NewBuilder("fuzz").Bus("xbus", 1, 1)
	for _, class := range fuzzClasses {
		b.Latency(class, 1)
	}
	for ci := 0; ci < 1+int(next()%2); ci++ {
		var units []machine.FunctionalUnit
		for ui := 0; ui < 1+int(next()%4); ui++ {
			fu := machine.FunctionalUnit{Name: fmt.Sprintf("u%d", ui)}
			mask := 1 + next()%15
			for c, class := range fuzzClasses {
				if mask>>c&1 != 0 {
					fu.Classes = append(fu.Classes, class)
				}
			}
			units = append(units, fu)
		}
		b.Cluster(fmt.Sprintf("c%d", ci), 8, units...)
	}
	l := &ir.Loop{Name: "fuzz"}
	for id := 0; id < int(next()%17); id++ {
		l.Instrs = append(l.Instrs, &ir.Instruction{ID: id, Op: "op", Class: fuzzClasses[next()%4]})
	}
	return l, b.MustBuild()
}

// checkResMII fails t unless ResMII agrees with the matching reference
// on l and m: the same bound, or an error exactly when some class has no
// unit.
func checkResMII(t *testing.T, l *ir.Loop, m *machine.Machine) {
	t.Helper()
	want := refResMII(l, m)
	got, err := ResMII(l, m)
	switch {
	case want == 0 && err == nil:
		t.Fatalf("ResMII = %d, but some class of %v has no unit on %+v", got, l.Instrs, m.Clusters)
	case want > 0 && err != nil:
		t.Fatalf("ResMII: %v, but every class has a unit on %+v", err, m.Clusters)
	case want > 0 && got != max(want, 1):
		t.Fatalf("ResMII = %d, matching reference %d, on %+v", got, want, m.Clusters)
	}
}

// FuzzResMII checks the Hall bound against the matching reference on
// random small machines with shared units and small loops. Run longer
// with
//
//	go test -run '^$' -fuzz FuzzResMII ./pkg/sched/
func FuzzResMII(f *testing.F) {
	f.Add([]byte{0, 3, 3, 1, 7, 12, 0, 1, 2, 3, 1, 2, 2, 2, 1, 0})
	f.Add([]byte{1, 1, 5, 10, 2, 3, 1, 9, 2, 2, 2, 1, 1, 0, 3})
	f.Add([]byte{0, 0, 2, 16, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, m := fuzzResInput(data)
		checkResMII(t, l, m)
	})
}

// TestResMIIMatchesReference runs the matching reference over the gate
// corpus on the canned machines, whose shared units (paper-4cluster's
// mul/mem unit, tight's ALU/branch unit) make the Hall sets bind.
func TestResMIIMatchesReference(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, l := range append(ir.ExampleLoops(), gen.Corpus(1, 120)...) {
			checkResMII(t, l, m)
		}
	}
}

// TestResMIIManyClasses: past maxHallClasses the table bounds each class
// and the whole loop, which stays sound (never above the matching
// reference) and never below the per-class bound.
func TestResMIIManyClasses(t *testing.T) {
	const k = maxHallClasses + 2
	b := machine.NewBuilder("wide")
	var units []machine.FunctionalUnit
	l := &ir.Loop{Name: "wide"}
	for c := 0; c < k; c++ {
		class := machine.OpClass(fmt.Sprintf("k%02d", c))
		b.Latency(class, 1)
		// Unit c serves class c and the next one; class c has c+1 ops.
		units = append(units, machine.FU(fmt.Sprintf("u%d", c), class, machine.OpClass(fmt.Sprintf("k%02d", (c+1)%k))))
		for i := 0; i <= c; i++ {
			l.Instrs = append(l.Instrs, &ir.Instruction{ID: len(l.Instrs), Op: "op", Class: class})
		}
	}
	m := b.Cluster("c0", 8, units...).MustBuild()
	got, err := ResMII(l, m)
	if err != nil {
		t.Fatal(err)
	}
	perClass := 0
	for c := 0; c < k; c++ {
		perClass = max(perClass, (c+1+1)/2) // c+1 ops over two units
	}
	if want := refResMII(l, m); got > want || got < perClass {
		t.Fatalf("ResMII = %d, want within [per-class %d, matching %d]", got, perClass, want)
	}
}

// TestResMIIExactOnManyClassMachine: the Hall sets range over the loop's
// classes, not the machine's, so a loop of maxHallClasses classes gets
// the exact bound on a machine with more. One unit serves both k00 and
// k01, so with n operations of each the exact bound is 2n, where the
// per-class and whole-loop bounds give only n and 2.
func TestResMIIExactOnManyClassMachine(t *testing.T) {
	const k = maxHallClasses + 4
	class := func(c int) machine.OpClass { return machine.OpClass(fmt.Sprintf("k%02d", c)) }
	b := machine.NewBuilder("many")
	units := []machine.FunctionalUnit{machine.FU("shared", class(0), class(1))}
	for c := 0; c < k; c++ {
		b.Latency(class(c), 1)
		if c > 1 {
			units = append(units, machine.FU(fmt.Sprintf("u%d", c), class(c)))
		}
	}
	m := b.Cluster("c0", 8, units...).MustBuild()
	for n := 1; n <= 4; n++ {
		l := &ir.Loop{Name: "many"}
		for c := 0; c < maxHallClasses; c++ {
			ops := 1
			if c < 2 {
				ops = n
			}
			for i := 0; i < ops; i++ {
				l.Instrs = append(l.Instrs, &ir.Instruction{ID: len(l.Instrs), Op: "op", Class: class(c)})
			}
		}
		checkResMII(t, l, m)
		if got, err := ResMII(l, m); err != nil || got != 2*n {
			t.Fatalf("ResMII = %d (%v), want %d", got, err, 2*n)
		}
	}
}
