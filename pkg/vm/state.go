package vm

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/paper-repo-growth/mirs/pkg/ir"
)

// State is an execution's observable outcome: the final memory image,
// the live-out value of every observable register, the iteration count
// executed, and how many machine cycles the run took (for the sequential
// reference this is the naive single-issue cost, one cycle per
// operation, which is what pipelining speedups are quoted against).
type State struct {
	Mem      []byte
	RegFinal map[ir.VReg]uint64
	Trip     int
	Cycles   int
	// ObservableLen is the memory prefix comparable across differently
	// spilled variants of the same source loop (Semantics.ObservableLen).
	ObservableLen int
}

// DiffStates compares two states and returns deterministic, human-
// readable mismatch lines prefixed with tag — empty means identical.
// memLen bounds the memory comparison: pass len(got.Mem) to compare full
// images (same-loop differential runs) or got.ObservableLen for
// cross-variant comparisons where spill regions legitimately differ. At
// most 8 word mismatches per section are listed, with a deterministic
// summary of the rest.
func DiffStates(tag string, got, want *State, memLen int) []string {
	var diffs []string
	if got.Trip != want.Trip {
		diffs = append(diffs, fmt.Sprintf("%s: executed %d iterations, want %d", tag, got.Trip, want.Trip))
	}
	if len(got.Mem) < memLen || len(want.Mem) < memLen {
		diffs = append(diffs, fmt.Sprintf("%s: memory image %d/%d bytes, compare window %d", tag, len(got.Mem), len(want.Mem), memLen))
		return diffs
	}
	listed, extra := 0, 0
	for a := 0; a+8 <= memLen; a += 8 {
		g := binary.LittleEndian.Uint64(got.Mem[a:])
		w := binary.LittleEndian.Uint64(want.Mem[a:])
		if g == w {
			continue
		}
		if listed < 8 {
			diffs = append(diffs, fmt.Sprintf("%s: mem[0x%05x] = %016x, want %016x", tag, a, g, w))
			listed++
		} else {
			extra++
		}
	}
	if extra > 0 {
		diffs = append(diffs, fmt.Sprintf("%s: ... and %d more memory word mismatches", tag, extra))
	}
	regs := make([]ir.VReg, 0, len(want.RegFinal))
	for v := range want.RegFinal {
		regs = append(regs, v)
	}
	slices.Sort(regs)
	listed, extra = 0, 0
	for _, v := range regs {
		g, ok := got.RegFinal[v]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: live-out %s missing", tag, v))
			continue
		}
		if g == want.RegFinal[v] {
			continue
		}
		if listed < 8 {
			diffs = append(diffs, fmt.Sprintf("%s: live-out %s = %016x, want %016x", tag, v, g, want.RegFinal[v]))
			listed++
		} else {
			extra++
		}
	}
	if extra > 0 {
		diffs = append(diffs, fmt.Sprintf("%s: ... and %d more live-out mismatches", tag, extra))
	}
	return diffs
}
