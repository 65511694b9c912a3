package vm

import (
	"encoding/binary"
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/ir"
)

// State is an execution's observable outcome: the final memory image,
// the live-out value of every observable register, the iteration count
// executed, and how many machine cycles the run took (for the sequential
// reference this is the naive single-issue cost, one cycle per
// operation, which is what pipelining speedups are quoted against).
type State struct {
	Mem []byte
	// RegFinal lists the observable registers' final values in
	// ascending register order, one entry per register.
	RegFinal []LiveOut
	Trip     int
	Cycles   int
	// ObservableLen is the memory prefix comparable across differently
	// spilled variants of the same source loop (Semantics.ObservableLen).
	ObservableLen int
}

// LiveOut is one observable register's value after a run.
type LiveOut struct {
	Reg ir.VReg
	Val uint64
}

// DiffStates compares two states and returns deterministic, human-
// readable mismatch lines prefixed with tag — empty means identical.
// memLen bounds the memory comparison: pass len(got.Mem) to compare full
// images (same-loop differential runs) or got.ObservableLen for
// cross-variant comparisons where spill regions legitimately differ. At
// most 8 word mismatches per section are listed, with a deterministic
// summary of the rest; a live-out only one side has is always listed.
// Both RegFinal lists must be in ascending register order, as every
// executor returns them.
func DiffStates(tag string, got, want *State, memLen int) []string {
	return diffStates(runTag{mode: tag, trip: -1}, got, want, memLen)
}

// runTag names one run in mismatch lines: the mode alone, or mode@trip
// for trip >= 0. It is formatted only once a mismatch needs it.
type runTag struct {
	mode string
	trip int
}

func (t runTag) String() string {
	if t.trip < 0 {
		return t.mode
	}
	return fmt.Sprintf("%s@%d", t.mode, t.trip)
}

// diffStates is DiffStates under a lazily formatted tag: a clean
// comparison allocates nothing.
func diffStates(rt runTag, got, want *State, memLen int) []string {
	var diffs []string
	tag := ""
	add := func(format string, args ...any) {
		if tag == "" {
			tag = rt.String()
		}
		diffs = append(diffs, tag+": "+fmt.Sprintf(format, args...))
	}
	if got.Trip != want.Trip {
		add("executed %d iterations, want %d", got.Trip, want.Trip)
	}
	if len(got.Mem) < memLen || len(want.Mem) < memLen {
		add("memory image %d/%d bytes, compare window %d", len(got.Mem), len(want.Mem), memLen)
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
			add("mem[0x%05x] = %016x, want %016x", a, g, w)
			listed++
		} else {
			extra++
		}
	}
	if extra > 0 {
		add("... and %d more memory word mismatches", extra)
	}
	// Merge the two register-sorted live-out lists.
	listed, extra = 0, 0
	g, w := got.RegFinal, want.RegFinal
	for len(g) > 0 || len(w) > 0 {
		switch {
		case len(g) == 0 || len(w) > 0 && w[0].Reg < g[0].Reg:
			add("live-out %s missing", w[0].Reg)
			w = w[1:]
		case len(w) == 0 || g[0].Reg < w[0].Reg:
			add("unexpected live-out %s = %016x", g[0].Reg, g[0].Val)
			g = g[1:]
		default:
			if g[0].Val != w[0].Val {
				if listed < 8 {
					add("live-out %s = %016x, want %016x", w[0].Reg, g[0].Val, w[0].Val)
					listed++
				} else {
					extra++
				}
			}
			g, w = g[1:], w[1:]
		}
	}
	if extra > 0 {
		add("... and %d more live-out mismatches", extra)
	}
	return diffs
}
