package vm

import (
	"encoding/binary"
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// Mode selects which of the emitted program's execution plans the
// interpreter runs.
type Mode int

const (
	// ModeMVE runs prologue bundles, Passes kernel passes and epilogue
	// bundles — the paper's modulo-variable-expanded code shape. The trip
	// count is fixed by the plan (Program.Trip).
	ModeMVE Mode = iota
	// ModePredicated runs only the kernel bundles, for enough leading and
	// trailing passes to cover any trip count, squashing every operation
	// whose iteration falls outside [0, trip).
	ModePredicated
)

func (m Mode) String() string {
	if m == ModePredicated {
		return "predicated"
	}
	return "mve"
}

// regCommit is one in-flight register write: the value lands in loc at a
// fixed cycle. issue orders same-location commits: a later-issued write
// architecturally wins and makes any slower earlier write stale.
type regCommit struct {
	loc   emit.Loc
	val   uint64
	issue int
}

type memCommit struct {
	addr int
	val  uint64
}

// maxDelay scans the bundles a run in mode issues and returns the
// longest op latency or transfer delay: how far ahead of its issue cycle
// a commit can land, which sizes the writeback ring. A latency or delay
// below 1 is an error — such a commit would land in a cycle whose
// writebacks were already applied.
func maxDelay(prog *emit.Program, mode Mode) (int, error) {
	segs := [][]emit.Bundle{prog.Kernel}
	if mode == ModeMVE {
		segs = append(segs, prog.Prologue, prog.Epilogue)
	}
	longest := 1
	for _, seg := range segs {
		for bi := range seg {
			for oi := range seg[bi].Ops {
				op := &seg[bi].Ops[oi]
				if op.Latency < 1 {
					return 0, fmt.Errorf("vm: run: op %d has latency %d", op.ID, op.Latency)
				}
				longest = max(longest, op.Latency)
				for _, x := range op.Xfers {
					if x.Delay < 1 {
						return 0, fmt.Errorf("vm: run: op %d has transfer delay %d", op.ID, x.Delay)
					}
					longest = max(longest, x.Delay)
				}
			}
		}
	}
	return longest, nil
}

// negOnes returns n entries of -1: a last-writer table before any write.
func negOnes(n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// RunProgram interprets the emitted program on machine state derived
// from sem: per-cluster register files plus frame slots initialised to
// every renamed register's pre-loop value, and the same initial memory
// image the sequential executor starts from. Each cycle first applies
// the register and memory writebacks due (results commit their latency
// after issue, bus transfers their extra bus latency later), then issues
// the cycle's bundle — operands are read at issue, which is exactly the
// contract Schedule.Validate enforced with its latency checks. Every op
// latency and transfer delay in the plan must be at least 1; RunProgram
// checks that before running and names the offending op otherwise. The
// semantics must have been bound with Bind (the final-state extraction
// needs the kernel's renaming and placements). A run allocates its
// machine state up front and reuses its writeback buckets, so nothing
// is allocated per cycle or per operation.
func RunProgram(sem *Semantics, prog *emit.Program, mode Mode, trip int) (*State, error) {
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

	longest, err := maxDelay(prog, mode)
	if err != nil {
		return nil, err
	}

	m := prog.Machine
	regs := make([][]uint64, m.NumClusters())
	// lastReg and lastFrame are the dense last-writer tables, shaped like
	// regs and frame: the issue cycle of the write that owns each
	// location, -1 before the first.
	lastReg := make([][]int, len(regs))
	for ci := range regs {
		regs[ci] = make([]uint64, m.RegsPerCluster(ci))
		lastReg[ci] = negOnes(len(regs[ci]))
		for idx, name := range prog.Names[ci] {
			regs[ci][idx] = sem.initReg(name.Reg)
		}
	}
	frame := make([]uint64, len(prog.Frame))
	lastFrame := negOnes(len(frame))
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
	cell := func(l emit.Loc) (val *uint64, last *int) {
		if l.Frame {
			return &frame[l.Index], &lastFrame[l.Index]
		}
		return &regs[l.Cluster][l.Index], &lastReg[l.Cluster][l.Index]
	}

	// The writeback rings: bucket c%depth holds the commits landing at
	// cycle c, and is truncated, keeping its backing array, once applied.
	// Every delay is in [1, longest], so a commit issued at c lands in one
	// of the next longest buckets, never in c's own, and bucket c%depth
	// is drained at c before the first commit for c+depth can be queued
	// (at c+1 at the earliest). Cycles issue in order, so each bucket
	// fills in (issue cycle, slot) order — the order later-issue-wins
	// needs — and is applied front to back without sorting.
	depth := longest + 1
	ringR := make([][]regCommit, depth)
	ringW := make([][]memCommit, depth)
	inflight := 0

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

	for c := 0; c < issueSpan || inflight > 0; c++ {
		// Writeback first: a result with latency L committed at cycle c is
		// readable by an op issuing at c — the = in the scheduler's
		// issue(consumer) >= issue(producer) + L contract.
		b := c % depth
		for _, rc := range ringR[b] {
			val, last := cell(rc.loc)
			if rc.issue < *last {
				continue // stale: a later-issued write already owns the location
			}
			*last = rc.issue
			*val = rc.val
		}
		for _, wc := range ringW[b] {
			binary.LittleEndian.PutUint64(mem[wc.addr:], wc.val)
		}
		inflight -= len(ringR[b]) + len(ringW[b])
		ringR[b], ringW[b] = ringR[b][:0], ringW[b][:0]
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
			wb := (c + op.Latency) % depth
			if wAddr >= 0 {
				ringW[wb] = append(ringW[wb], memCommit{addr: wAddr, val: wVal})
				inflight++
			}
			for _, d := range op.Defs {
				ringR[wb] = append(ringR[wb], regCommit{loc: d, val: out, issue: c})
			}
			inflight += len(op.Defs)
			for _, x := range op.Xfers {
				xb := (c + x.Delay) % depth
				ringR[xb] = append(ringR[xb], regCommit{loc: x.Dst, val: out, issue: c})
			}
			inflight += len(op.Xfers)
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
