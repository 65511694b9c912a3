package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// This file retains the original map-and-sort writeback loop of
// RunProgram as a reference implementation and differentially tests the
// ring-buffer interpreter against it: both run the same emitted programs
// — a generated corpus through both heuristic backends on every canned
// machine, under the MVE plan and the predicated plan at several trips —
// and the final states must be identical. The ring is a pure
// representation change of the pending-writeback queue; any divergence
// is a bug.

// refCommit is the reference's in-flight register write; seq breaks
// same-issue ties in its per-cycle sort.
type refCommit struct {
	loc        emit.Loc
	val        uint64
	issue, seq int
}

// refRunProgram is the retained reference: RunProgram as it was with
// per-cycle maps of pending commits, a sort by (issue, seq) before each
// cycle's register writeback and a map of last writers, preserved
// verbatim apart from the names.
func refRunProgram(sem *Semantics, prog *emit.Program, mode Mode, trip int) (*State, error) {
	if sem.ek == nil {
		return nil, fmt.Errorf("vm: run: semantics not bound to a schedule (use Bind, not BindLoop)")
	}
	if prog == nil {
		return nil, fmt.Errorf("vm: run: nil program")
	}
	if sem.Loop != prog.Loop {
		return nil, fmt.Errorf("vm: run: program and semantics are for different loops")
	}
	if mode == ModeMVE && trip != prog.Trip {
		return nil, fmt.Errorf("vm: run: the mve plan executes exactly %d iterations, got trip %d", prog.Trip, trip)
	}
	if trip < 1 {
		return nil, fmt.Errorf("vm: run needs trip >= 1, got %d", trip)
	}

	m := prog.Machine
	regs := make([][]uint64, m.NumClusters())
	for ci := range regs {
		regs[ci] = make([]uint64, m.RegsPerCluster(ci))
		for idx, name := range prog.Names[ci] {
			regs[ci][idx] = sem.initReg(name.Reg)
		}
	}
	frame := make([]uint64, len(prog.Frame))
	for idx, fs := range prog.Frame {
		frame[idx] = sem.initReg(fs.Name.Reg)
	}
	mem := sem.NewMemImage()

	readLoc := func(l emit.Loc) uint64 {
		if l.Frame {
			return frame[l.Index]
		}
		return regs[l.Cluster][l.Index]
	}
	writeLoc := func(l emit.Loc, v uint64) {
		if l.Frame {
			frame[l.Index] = v
		} else {
			regs[l.Cluster][l.Index] = v
		}
	}

	pendingR := map[int][]refCommit{}
	pendingW := map[int][]memCommit{}
	lastIssue := map[emit.Loc]int{}
	seq := 0

	// bundleAt maps a timeline cycle to the bundle issuing then and the
	// pass offset its kernel ops add to their base iteration; ok=false
	// past the last issue cycle.
	t0 := len(prog.Prologue)
	period := prog.Period
	kstart, passes := 0, prog.Passes
	if mode == ModePredicated {
		kstart, passes = prog.PredWindow(trip)
		if passes == 0 {
			return nil, fmt.Errorf("vm: run: predicated plan has no passes for trip %d", trip)
		}
	}
	issueSpan := passes * period
	if mode == ModeMVE {
		issueSpan = t0 + passes*period + len(prog.Epilogue)
	}
	bundleAt := func(c int) (b *emit.Bundle, iterOff int) {
		switch mode {
		case ModeMVE:
			switch {
			case c < t0:
				return &prog.Prologue[c], 0
			case c < t0+passes*period:
				return &prog.Kernel[(c-t0)%period], ((c - t0) / period) * prog.Unroll
			default:
				return &prog.Epilogue[c-t0-passes*period], 0
			}
		default:
			return &prog.Kernel[c%period], (kstart + c/period) * prog.Unroll
		}
	}

	for c := 0; c < issueSpan || len(pendingR) > 0 || len(pendingW) > 0; c++ {
		// Writeback first: a result with latency L committed at cycle c is
		// readable by an op issuing at c — the = in the scheduler's
		// issue(consumer) >= issue(producer) + L contract.
		if rcs, ok := pendingR[c]; ok {
			sort.Slice(rcs, func(a, b int) bool {
				if rcs[a].issue != rcs[b].issue {
					return rcs[a].issue < rcs[b].issue
				}
				return rcs[a].seq < rcs[b].seq
			})
			for _, rc := range rcs {
				if last, seen := lastIssue[rc.loc]; seen && rc.issue < last {
					continue // stale: a later-issued write already owns the location
				}
				lastIssue[rc.loc] = rc.issue
				writeLoc(rc.loc, rc.val)
			}
			delete(pendingR, c)
		}
		if wcs, ok := pendingW[c]; ok {
			for _, wc := range wcs {
				binary.LittleEndian.PutUint64(mem[wc.addr:], wc.val)
			}
			delete(pendingW, c)
		}
		if c >= issueSpan {
			continue
		}
		bundle, iterOff := bundleAt(c)
		for oi := range bundle.Ops {
			op := &bundle.Ops[oi]
			i := op.Iter + iterOff
			if i < 0 || i >= trip {
				if mode == ModePredicated {
					continue // predicate false: squash the instance
				}
				return nil, fmt.Errorf("vm: run: mve op %d at cycle %d executes iteration %d outside [0, %d)", op.ID, c, i, trip)
			}
			out, wAddr, wVal := sem.eval(mem, op.ID, i, func(j int) uint64 {
				return readLoc(op.Srcs[j])
			})
			if wAddr >= 0 {
				wb := c + op.Latency
				pendingW[wb] = append(pendingW[wb], memCommit{addr: wAddr, val: wVal})
			}
			for _, d := range op.Defs {
				wb := c + op.Latency
				pendingR[wb] = append(pendingR[wb], refCommit{loc: d, val: out, issue: c, seq: seq})
				seq++
			}
			for _, x := range op.Xfers {
				wb := c + x.Delay
				pendingR[wb] = append(pendingR[wb], refCommit{loc: x.Dst, val: out, issue: c, seq: seq})
				seq++
			}
		}
	}

	st := &State{
		Mem: mem, RegFinal: map[ir.VReg]uint64{}, Trip: trip,
		Cycles:        issueSpan,
		ObservableLen: sem.ObservableLen(),
	}
	// Live-outs: each observable register's final value sits in the
	// renamed copy iteration trip-1 wrote, on the last defining site's
	// cluster.
	ek := sem.ek
	for v, site := range sem.finalSites() {
		c := ek.Copies[v]
		if c < 1 {
			c = 1
		}
		name := sched.RegCopy{Reg: v, Copy: ((trip-1)%c + c) % c}
		loc, ok := prog.LocOf(ek.Schedule.Placements[site].Cluster, name)
		if !ok {
			return nil, fmt.Errorf("vm: run: no location for live-out %s (site %d)", name, site)
		}
		st.RegFinal[v] = readLoc(loc)
	}
	return st, nil
}

// TestWritebackRingDifferential pins RunProgram's ring-buffer writeback
// against refRunProgram over gen.Corpus(1, 60) × {list, mirs} × the
// three canned machines, on the MVE plan and the predicated plan at
// trips {Trip, Stages, Trip+1, 512}. The 4-cluster machine's transfers
// land a bus latency after the result, so the sweep must include
// programs whose transfer delay exceeds the producing op's latency —
// those commits wrap further round the ring than the op's own. Each
// program then runs again with perturbed timing (see perturb).
func TestWritebackRingDifferential(t *testing.T) {
	type run struct {
		mode Mode
		trip int
	}
	wraps := 0
	for _, be := range []sched.Scheduler{sched.ListScheduler{}, mirs.New()} {
		for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
			for _, l := range gen.Corpus(1, 60) {
				s, err := be.Schedule(&sched.Request{Loop: l, Machine: m})
				if err != nil {
					t.Fatalf("Schedule(%s on %s by %s): %v", l.Name, m.Name, be.Name(), err)
				}
				ek, err := s.Expand()
				if err != nil {
					t.Fatalf("Expand(%s on %s by %s): %v", l.Name, m.Name, be.Name(), err)
				}
				prog, err := emit.Emit(ek)
				if err != nil {
					t.Fatalf("Emit(%s on %s by %s): %v", l.Name, m.Name, be.Name(), err)
				}
				if hasLongTransfer(prog) {
					wraps++
				}
				sem, err := Bind(ek, DefaultSeed)
				if err != nil {
					t.Fatal(err)
				}
				runs := []run{
					{ModeMVE, prog.Trip},
					{ModePredicated, prog.Trip},
					{ModePredicated, prog.Stages},
					{ModePredicated, prog.Trip + 1},
					{ModePredicated, 512},
				}
				for _, timing := range []string{"emitted", "perturbed"} {
					if timing == "perturbed" {
						// Both plans, one trip each: enough to reach the
						// stale-write path without doubling the sweep.
						perturb(prog)
						runs = []run{{ModeMVE, prog.Trip}, {ModePredicated, prog.Trip + 1}}
					}
					for _, r := range runs {
						at := fmt.Sprintf("%s on %s by %s, %s timing, %s@%d", l.Name, m.Name, be.Name(), timing, r.mode, r.trip)
						got, err := RunProgram(sem, prog, r.mode, r.trip)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						want, err := refRunProgram(sem, prog, r.mode, r.trip)
						if err != nil {
							t.Fatalf("%s: reference: %v", at, err)
						}
						if !bytes.Equal(got.Mem, want.Mem) || !reflect.DeepEqual(got.RegFinal, want.RegFinal) ||
							got.Cycles != want.Cycles || got.Trip != want.Trip {
							t.Errorf("%s: ring and reference disagree (cycles %d vs %d): %v",
								at, got.Cycles, want.Cycles, DiffStates("ring", got, want, len(want.Mem)))
						}
					}
				}
			}
		}
	}
	if wraps == 0 {
		t.Error("no compilation had a transfer delay above its result latency: the ring wrap went unexercised")
	}
}

// perturb rewrites every latency and transfer delay in prog to a seeded
// value in [1, 8] and [latency, latency+3]. The program no longer
// computes what its loop does, but both interpreters must still agree on
// what it computes — and the shuffled timing makes writes to one
// location land out of issue order and collide in one cycle, the
// stale-write and same-cycle ordering paths that emitted schedules, with
// their lifetime-respecting register allocation, do not reach.
func perturb(prog *emit.Program) {
	x := uint64(1)
	for _, seg := range [][]emit.Bundle{prog.Prologue, prog.Kernel, prog.Epilogue} {
		for bi := range seg {
			for oi := range seg[bi].Ops {
				op := &seg[bi].Ops[oi]
				x = splitmix64(x)
				op.Latency = 1 + int(x%8)
				for xi := range op.Xfers {
					x = splitmix64(x)
					op.Xfers[xi].Delay = op.Latency + int(x%4)
				}
			}
		}
	}
}

// hasLongTransfer reports whether any kernel op's bus transfer lands
// later than the op's own result.
func hasLongTransfer(prog *emit.Program) bool {
	for _, b := range prog.Kernel {
		for _, op := range b.Ops {
			for _, x := range op.Xfers {
				if x.Delay > op.Latency {
					return true
				}
			}
		}
	}
	return false
}
