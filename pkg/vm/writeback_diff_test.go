package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// This file retains the interpreter's original executors as reference
// implementations and differentially tests the decoded ones against
// them. refRunProgram is RunProgram's map-and-sort writeback loop; the
// ring-buffer interpreter must reach identical final states on the same
// emitted programs — a generated corpus through both heuristic backends
// on every canned machine, under the MVE plan and the predicated plan at
// several trips. refRunSequential is the per-trip sequential reference,
// which the resumable reference must reproduce at every trip. Both
// references evaluate operations with eval, the closure-based rule the
// decoded tables replaced. Each decoded executor is a pure
// representation change; any divergence is a bug.

// loadAddr is load ordinal li's address at iteration i: a seed-odd
// stride walk of its 64-word region.
func (sem *Semantics) loadAddr(li, i, stride int) int {
	return li*regionSize + ((i*stride)&63)*8
}

// storeAddr is store ordinal si's address at iteration i, in the store
// band after all load regions.
func (sem *Semantics) storeAddr(si, i, stride int) int {
	return (sem.NLoads+si)*regionSize + ((i*stride)&63)*8
}

// eval computes one instruction instance's result and memory effect.
// srcVal(j) supplies the value of use operand j; the caller owns where
// that value comes from (dataflow history for the sequential executor,
// architectural registers for the pipelined one). The returned memory
// write (addr >= 0) is the store the instance performs, which the caller
// applies with its own timing.
func (sem *Semantics) eval(mem []byte, id, i int, srcVal func(j int) uint64) (out uint64, wAddr int, wVal uint64) {
	op := &sem.ops[id]
	wAddr = -1
	switch op.kind {
	case opALU:
		out = fold(op.token, uint64(i))
		for j := range op.srcs {
			out = fold(out, srcVal(j))
		}
	case opLoad:
		w := binary.LittleEndian.Uint64(mem[sem.loadAddr(op.memIdx, i, op.stride):])
		out = fold(fold(op.token, uint64(i)), w)
		for j := range op.srcs {
			out = fold(out, srcVal(j))
		}
	case opStore:
		out = fold(op.token, uint64(i))
		for j := range op.srcs {
			out = fold(out, srcVal(j))
		}
		wAddr, wVal = sem.storeAddr(op.memIdx, i, op.stride), out
	case opSpillStore:
		out = srcVal(0)
		wAddr, wVal = sem.slotAddr(op.memIdx, i%sem.K), out
	case opSpillReload:
		s := ((i-op.pairDist)%sem.K + sem.K) % sem.K
		out = binary.LittleEndian.Uint64(mem[sem.slotAddr(op.memIdx, s):])
	case opLiveInReload:
		out = sem.initReg(op.spillOf)
	}
	return out, wAddr, wVal
}

// finalSites is the references' live-out rule, as it was: it maps
// every observable register — one defined by at least one non-spill
// instruction — to its last defining site in program order: the
// definition whose iteration trip-1 value is the register's live-out.
// Spill-reload defs are fresh registers private to one backend's spill
// choices and are deliberately excluded.
func (sem *Semantics) finalSites() map[ir.VReg]int {
	sites := map[ir.VReg]int{}
	for id, in := range sem.Loop.Instrs {
		if in.Op == ir.OpSpillReload || in.Op == ir.OpSpillStore {
			continue
		}
		for _, d := range in.Defs {
			if last, ok := sites[d]; !ok || id > last {
				sites[d] = id
			}
		}
	}
	return sites
}

// refRunSequential is the retained sequential reference: RunSequential
// as it was, with a ring of results per instruction and operands read
// through eval's closure, preserved verbatim apart from the name.
func refRunSequential(sem *Semantics, trip int) (*State, error) {
	if trip < 1 {
		return nil, fmt.Errorf("vm: sequential run needs trip >= 1, got %d", trip)
	}
	n := sem.Loop.NumInstrs()
	mem := sem.NewMemImage()
	h := sem.histLen
	// hist[id] is a ring of instruction id's last histLen results —
	// histLen exceeds every dependence distance, so a reaching value is
	// always still in the ring when its consumer reads it.
	back := make([]uint64, n*h)
	hist := make([][]uint64, n)
	for id := range hist {
		hist[id] = back[id*h : (id+1)*h]
	}
	for i := 0; i < trip; i++ {
		for id, in := range sem.Loop.Instrs {
			op := &sem.ops[id]
			srcVal := func(j int) uint64 {
				r := op.srcs[j]
				if r.site < 0 || int(r.dist) > i {
					return sem.initReg(in.Uses[j])
				}
				return hist[r.site][(i-int(r.dist))%h]
			}
			out, wAddr, wVal := sem.eval(mem, id, i, srcVal)
			if wAddr >= 0 {
				binary.LittleEndian.PutUint64(mem[wAddr:], wVal)
			}
			hist[id][i%h] = out
		}
	}
	st := &State{
		Mem: mem, Trip: trip,
		Cycles:        trip * n,
		ObservableLen: sem.ObservableLen(),
	}
	final := map[ir.VReg]uint64{}
	for v, site := range sem.finalSites() {
		final[v] = hist[site][(trip-1)%h]
	}
	st.RegFinal = sortedLiveOuts(final)
	return st, nil
}

// sortedLiveOuts lists the references' live-out map in register order,
// the form State.RegFinal takes.
func sortedLiveOuts(final map[ir.VReg]uint64) []LiveOut {
	var outs []LiveOut
	for _, v := range slices.Sorted(maps.Keys(final)) {
		outs = append(outs, LiveOut{v, final[v]})
	}
	return outs
}

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
		Mem: mem, Trip: trip,
		Cycles:        issueSpan,
		ObservableLen: sem.ObservableLen(),
	}
	final := map[ir.VReg]uint64{}
	// Live-outs: each observable register's final value sits in the
	// renamed copy iteration trip-1 wrote, on the last defining site's
	// cluster.
	ek := sem.ek
	for v, site := range sem.finalSites() {
		name := ek.Name(v, trip-1)
		loc, ok := prog.LocOf(ek.Schedule.Placements[site].Cluster, name)
		if !ok {
			return nil, fmt.Errorf("vm: run: no location for live-out %s (site %d)", name, site)
		}
		final[v] = readLoc(loc)
	}
	st.RegFinal = sortedLiveOuts(final)
	return st, nil
}

// gridCase is one compilation of the differential grid.
type gridCase struct {
	at string // "loop on machine by backend"
	ek *sched.ExpandedKernel
}

var (
	gridOnce  sync.Once
	gridCases []gridCase
	gridErr   error
)

// diffGrid compiles gen.Corpus(1, 60) × {list, mirs} × the three canned
// machines once per test binary. The expanded kernels are shared, so a
// test that changes a program must emit its own.
func diffGrid(t *testing.T) []gridCase {
	t.Helper()
	gridOnce.Do(func() {
		for _, be := range []sched.Scheduler{sched.ListScheduler{}, mirs.New()} {
			for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
				for _, l := range gen.Corpus(1, 60) {
					at := fmt.Sprintf("%s on %s by %s", l.Name, m.Name, be.Name())
					s, err := be.Schedule(&sched.Request{Loop: l, Machine: m})
					if err != nil {
						gridErr = fmt.Errorf("Schedule(%s): %v", at, err)
						return
					}
					ek, err := s.Expand()
					if err != nil {
						gridErr = fmt.Errorf("Expand(%s): %v", at, err)
						return
					}
					gridCases = append(gridCases, gridCase{at, ek})
				}
			}
		}
	})
	if gridErr != nil {
		t.Fatal(gridErr)
	}
	return gridCases
}

// TestWritebackRingDifferential pins RunProgram's ring-buffer writeback
// against refRunProgram over the diffGrid compilations, on the MVE plan
// and the predicated plan at trips {Trip, Stages, Trip+1, 512}. The
// 4-cluster machine's transfers land a bus latency after the result, so
// the sweep must include programs whose transfer delay exceeds the
// producing op's latency — those commits wrap further round the ring
// than the op's own. Each program then runs again with perturbed timing
// (see perturb).
func TestWritebackRingDifferential(t *testing.T) {
	type run struct {
		mode Mode
		trip int
	}
	wraps := 0
	for _, gc := range diffGrid(t) {
		prog, err := emit.Emit(gc.ek)
		if err != nil {
			t.Fatalf("Emit(%s): %v", gc.at, err)
		}
		if hasLongTransfer(prog) {
			wraps++
		}
		sem, err := Bind(gc.ek, DefaultSeed)
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
				at := fmt.Sprintf("%s, %s timing, %s@%d", gc.at, timing, r.mode, r.trip)
				got, err := RunProgram(sem, prog, r.mode, r.trip)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				want, err := refRunProgram(sem, prog, r.mode, r.trip)
				if err != nil {
					t.Fatalf("%s: reference: %v", at, err)
				}
				if !bytes.Equal(got.Mem, want.Mem) || !slices.Equal(got.RegFinal, want.RegFinal) ||
					got.Cycles != want.Cycles || got.Trip != want.Trip {
					t.Errorf("%s: ring and reference disagree (cycles %d vs %d): %v",
						at, got.Cycles, want.Cycles, DiffStates("ring", got, want, len(want.Mem)))
				}
			}
		}
	}
	if wraps == 0 {
		t.Error("no compilation had a transfer delay above its result latency: the ring wrap went unexercised")
	}
}

// TestSequentialTripExtension pins the resumable sequential reference
// against refRunSequential over the diffGrid compilations. One history
// is advanced through ascending trips, which is sound only because the
// reference is prefix-stable: the first t iterations of a longer run
// are exactly a run of t. The state after each advance, at trips {1,
// Stages, Trip, Trip+1, 512}, must equal an independent reference run
// of that trip, and RunSequential must agree at Trip.
func TestSequentialTripExtension(t *testing.T) {
	for _, gc := range diffGrid(t) {
		sem, err := Bind(gc.ek, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := emit.Emit(gc.ek)
		if err != nil {
			t.Fatalf("Emit(%s): %v", gc.at, err)
		}
		trip := prog.Trip
		trips := slices.Compact(slices.Sorted(slices.Values([]int{1, prog.Stages, trip, trip + 1, 512})))
		var sz sizes
		sz.countSeq(sem)
		h := new(history)
		if err := h.decode(sem, sz.alloc()); err != nil {
			t.Fatalf("%s: %v", gc.at, err)
		}
		single, err := RunSequential(sem, trip)
		if err != nil {
			t.Fatalf("%s: %v", gc.at, err)
		}
		for _, tr := range trips {
			want, err := refRunSequential(sem, tr)
			if err != nil {
				t.Fatalf("%s: reference: %v", gc.at, err)
			}
			sameState(t, fmt.Sprintf("%s, advanced to trip %d", gc.at, tr), h.advance(tr), want)
			if tr == trip {
				sameState(t, fmt.Sprintf("%s, RunSequential at trip %d", gc.at, tr), single, want)
			}
		}
	}
}

// sameState fails t unless got and want are identical states.
func sameState(t *testing.T, at string, got, want *State) {
	t.Helper()
	if !bytes.Equal(got.Mem, want.Mem) || !slices.Equal(got.RegFinal, want.RegFinal) ||
		got.Cycles != want.Cycles || got.Trip != want.Trip || got.ObservableLen != want.ObservableLen {
		t.Errorf("%s: decoded and reference disagree (cycles %d vs %d): %v",
			at, got.Cycles, want.Cycles, DiffStates("decoded", got, want, len(want.Mem)))
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
