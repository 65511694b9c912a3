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
		if m.UnitsForClass(in.Class) == 0 {
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
	m := &machine.Machine{Name: "fuzz"}
	for ci := 0; ci < 1+int(next()%2); ci++ {
		cl := machine.Cluster{Name: fmt.Sprintf("c%d", ci)}
		for ui := 0; ui < 1+int(next()%4); ui++ {
			fu := machine.FunctionalUnit{Name: fmt.Sprintf("u%d", ui)}
			mask := 1 + next()%15
			for c, class := range fuzzClasses {
				if mask>>c&1 != 0 {
					fu.Classes = append(fu.Classes, class)
				}
			}
			cl.Units = append(cl.Units, fu)
		}
		m.Clusters = append(m.Clusters, cl)
	}
	l := &ir.Loop{Name: "fuzz"}
	for id := 0; id < int(next()%17); id++ {
		l.Instrs = append(l.Instrs, &ir.Instruction{ID: id, Op: "op", Class: fuzzClasses[next()%4]})
	}
	return l, m
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
	m := &machine.Machine{Name: "wide", Clusters: []machine.Cluster{{Name: "c0"}}}
	l := &ir.Loop{Name: "wide"}
	for c := 0; c < k; c++ {
		class := machine.OpClass(fmt.Sprintf("k%02d", c))
		// Unit c serves class c and the next one; class c has c+1 ops.
		m.Clusters[0].Units = append(m.Clusters[0].Units, machine.FunctionalUnit{
			Name: fmt.Sprintf("u%d", c), Classes: []machine.OpClass{class, machine.OpClass(fmt.Sprintf("k%02d", (c+1)%k))},
		})
		for i := 0; i <= c; i++ {
			l.Instrs = append(l.Instrs, &ir.Instruction{ID: len(l.Instrs), Op: "op", Class: class})
		}
	}
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
