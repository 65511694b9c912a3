package vm

import (
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/emit"
)

// fault is one kind of injected miscompilation: inject breaks one
// kernel op of prog, chosen by x among the ops it applies to, and
// reports whether any op qualified.
type fault struct {
	name   string
	inject func(prog *emit.Program, x uint64) bool
}

// kernelOps returns the kernel ops keep accepts, in bundle order.
func kernelOps(prog *emit.Program, keep func(op *emit.Op) bool) []*emit.Op {
	var ops []*emit.Op
	for bi := range prog.Kernel {
		for oi := range prog.Kernel[bi].Ops {
			if op := &prog.Kernel[bi].Ops[oi]; keep(op) {
				ops = append(ops, op)
			}
		}
	}
	return ops
}

var faults = []fault{
	{"swapped sources", func(prog *emit.Program, x uint64) bool {
		ops := kernelOps(prog, func(op *emit.Op) bool { return len(op.Srcs) == 2 && op.Srcs[0] != op.Srcs[1] })
		if len(ops) == 0 {
			return false
		}
		op := ops[x%uint64(len(ops))]
		op.Srcs[0], op.Srcs[1] = op.Srcs[1], op.Srcs[0]
		return true
	}},
	{"redirected def", func(prog *emit.Program, x uint64) bool {
		ops := kernelOps(prog, func(op *emit.Op) bool {
			return len(op.Defs) > 0 && !op.Defs[0].Frame && prog.Machine.RegsPerCluster(op.Defs[0].Cluster) > 1
		})
		if len(ops) == 0 {
			return false
		}
		op := ops[x%uint64(len(ops))]
		d := &op.Defs[0]
		n := prog.Machine.RegsPerCluster(d.Cluster)
		d.Index = (d.Index + 1 + int((x>>32)%uint64(n-1))) % n
		return true
	}},
	{"dropped transfer", func(prog *emit.Program, x uint64) bool {
		ops := kernelOps(prog, func(op *emit.Op) bool { return len(op.Xfers) > 0 })
		if len(ops) == 0 {
			return false
		}
		op := ops[x%uint64(len(ops))]
		op.Xfers = slices.Delete(op.Xfers, 0, 1)
		return true
	}},
}

// TestOracleCatchesFaults is the oracle's negative control: a
// differential oracle that reports every program clean is worthless, and
// nothing else checks that VerifyProgram reports a broken one. Over the
// diffGrid compilations it injects one seeded fault of each kind into a
// freshly emitted program and counts the programs VerifyProgram flags.
// Not every fault is observable — a swapped pair feeding only a dead
// value changes nothing the loop stores or leaves live — so the test
// pins the deterministic total caught, and requires a catch per kind: a
// weakened oracle (an operand rule that ignores order, a writeback that
// no longer lands, a comparison that skips live-outs) lowers the count.
// The test also pins an FNV-1a hash of every fault run's mismatch lines,
// in report order, measured before the oracle's reference became a
// resumable cursor: the reports, not only the verdicts, must stay put.
func TestOracleCatchesFaults(t *testing.T) {
	const (
		wantCaught = 847 // swapped sources 319, redirected defs 343, dropped transfers 185
		wantHash   = 0x20596976faba0dd1
	)
	h := fnv.New64a()
	injected := make([]int, len(faults))
	caught := make([]int, len(faults))
	x := uint64(0x6661756c74) // "fault"
	for _, gc := range diffGrid(t) {
		for k, f := range faults {
			x = splitmix64(x)
			prog, err := emit.Emit(gc.ek)
			if err != nil {
				t.Fatalf("Emit(%s): %v", gc.at, err)
			}
			if !f.inject(prog, x) {
				continue
			}
			injected[k]++
			rep, err := VerifyProgram(gc.ek, prog, Options{})
			if err != nil {
				t.Fatalf("%s, %s: %v", gc.at, f.name, err)
			}
			if !rep.OK() {
				caught[k]++
			}
			fmt.Fprintf(h, "%s, %s:\n", gc.at, f.name)
			for _, line := range rep.Mismatches {
				io.WriteString(h, line+"\n")
			}
		}
	}
	total := 0
	for k, f := range faults {
		t.Logf("%s: %d of %d injected faults caught", f.name, caught[k], injected[k])
		if caught[k] == 0 {
			t.Errorf("%s: none of %d injected faults caught", f.name, injected[k])
		}
		total += caught[k]
	}
	if total != wantCaught {
		t.Errorf("%d faults caught, want %d: %s", total, wantCaught, fmt.Sprint(caught))
	}
	if got := h.Sum64(); got != wantHash {
		t.Errorf("mismatch reports hash to %#x, want %#x", got, uint64(wantHash))
	}
}
