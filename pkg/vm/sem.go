// Package vm is a small deterministic VLIW interpreter and the
// differential execution oracle built on it. It assigns every loop a
// seeded operation semantics — ALU results are splitmix64 folds of the
// operands, loads and stores touch seed-derived affine addresses in
// disjoint per-instruction memory regions, spill code round-trips values
// through rotating stack slots — then executes the loop two ways on
// identical initial machine images: the naive sequential form (the
// dependence graph's dataflow, one iteration after another) and the
// emitted pipelined program (pkg/emit), bundle by bundle with
// latency-faithful writeback and bus-transfer timing. A correct
// scheduler+expander+emitter pipeline must produce bit-identical final
// memory and live-out registers; any scheduling, renaming, allocation or
// emission bug that changes observable dataflow shows up as a concrete
// word-level mismatch.
//
// The op semantics are chosen so differences propagate instead of
// cancelling: splitmix64 folds are order-sensitive and injective-ish, so
// reading a stale register copy or a wrong operand almost surely changes
// every downstream value. Addresses are alias-free by construction —
// loads read a read-only region, every store owns a private sub-region,
// spill slots rotate through enough slots that in-flight stores never
// overwrite a value before its reload — so the oracle never depends on
// memory-disambiguation behaviour the scheduler was not told about.
package vm

import (
	"encoding/binary"
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// regionSize is the bytes of memory each non-spill memory instruction
// owns: 64 words of 8 bytes. Accesses stay inside the region regardless
// of the trip count (offsets are taken mod 64), so image sizes are a
// function of the loop alone.
const regionSize = 64 * 8

// opKind classifies how the interpreter evaluates one instruction.
type opKind uint8

const (
	// opALU covers every non-memory instruction (ALU, multiply, branch):
	// the result is a seeded fold of the iteration number and operands.
	opALU opKind = iota
	// opLoad reads its affine address in the read-only load region and
	// folds the word into the result along with the operands.
	opLoad
	// opStore folds iteration and operands and writes the result to its
	// affine address in its private store sub-region.
	opStore
	// opSpillStore writes its single operand verbatim to rotating slot
	// (i mod K) of its spill group.
	opSpillStore
	// opSpillReload reads slot ((i - pairDist) mod K) of its paired
	// store's group — reproducing, verbatim, the value the store wrote
	// pairDist iterations earlier.
	opSpillReload
	// opLiveInReload reproduces a live-in register's initial value (the
	// preheader parked it in the slot; see ir.Graph.SpliceLiveInSpill).
	opLiveInReload
)

// srcRef is one use operand's reaching definition: the defining
// instruction and its dependence distance in iterations. site < 0 marks
// a live-in (no true edge reaches the use).
type srcRef struct {
	site int32
	dist int32
}

// opSem is one instruction's bound semantics.
type opSem struct {
	kind  opKind
	token uint64
	srcs  []srcRef
	// memIdx is the load ordinal (opLoad), store ordinal (opStore) or
	// spill group (opSpillStore/opSpillReload) the op addresses.
	memIdx int
	// stride is the seed-derived odd word stride of the affine address
	// sequence (opLoad/opStore).
	stride int
	// pairDist is the store→reload distance in iterations (opSpillReload).
	pairDist int
	// spillOf is the live-in register an opLiveInReload reproduces.
	spillOf ir.VReg
}

// Semantics is a loop's bound executable semantics: per-instruction
// evaluation rules plus the memory-image geometry. Both executors run
// from the same Semantics, which is what makes their final states
// comparable bit for bit.
type Semantics struct {
	Loop  *ir.Loop
	Graph *ir.Graph
	Seed  uint64
	// NLoads and NStores count the non-spill memory instructions; they
	// size the observable memory prefix.
	NLoads, NStores int
	// Groups is the number of spill-slot groups (one per spill store);
	// each owns K rotating 8-byte slots after the store regions.
	Groups, K int

	ops     []opSem
	histLen int
	ek      *sched.ExpandedKernel
}

// Bind derives the semantics of an expanded kernel's loop, sizing the
// rotating spill-slot count K from the schedule: K must exceed every
// store→reload distance by at least the pipeline depth, so a store K
// iterations after the writer can never overwrite a slot an in-flight
// reload still needs.
func Bind(ek *sched.ExpandedKernel, seed uint64) (*Semantics, error) {
	if ek == nil || ek.Schedule == nil {
		return nil, fmt.Errorf("vm: bind: nil expanded kernel")
	}
	sem, err := bind(ek.Schedule.Loop, ek.Schedule.Graph, seed, ek.Schedule.StageCount()+2)
	if err != nil {
		return nil, err
	}
	sem.ek = ek
	return sem, nil
}

// BindLoop derives the semantics of a bare (unscheduled) loop — the
// sequential-only reference a cross-backend comparison measures every
// compiled variant against. Its K differs from any schedule-bound K,
// which is fine: spill slots are outside the observable memory prefix.
func BindLoop(l *ir.Loop, g *ir.Graph, seed uint64) (*Semantics, error) {
	return bind(l, g, seed, 12)
}

func bind(l *ir.Loop, g *ir.Graph, seed uint64, slackK int) (*Semantics, error) {
	if l == nil || g == nil || g.Loop != l {
		return nil, fmt.Errorf("vm: bind: graph does not belong to the loop")
	}
	n := l.NumInstrs()
	sem := &Semantics{Loop: l, Graph: g, Seed: seed}
	sem.ops = make([]opSem, n)

	// Reaching definitions per use position, from the graph's true edges
	// (highest-indexed edge wins, matching the renaming derivation in
	// pkg/sched, so semantics and renaming can never disagree about which
	// value a use reads).
	srcs := make([][]srcRef, n)
	for id, in := range l.Instrs {
		srcs[id] = make([]srcRef, len(in.Uses))
		for j := range srcs[id] {
			srcs[id][j] = srcRef{site: -1}
		}
	}
	maxDist := 1
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind != ir.DepTrue {
			continue
		}
		for j, uv := range l.Instrs[e.To].Uses {
			if uv == e.Reg {
				srcs[e.To][j] = srcRef{site: int32(e.From), dist: int32(e.Distance)}
				if e.Distance > maxDist {
					maxDist = e.Distance
				}
			}
		}
	}

	// Spill pairing: a reload's incoming DepMem edge from a spill store
	// names the slot group and distance it reads.
	group := map[int]int{}
	for id, in := range l.Instrs {
		if in.Op == ir.OpSpillStore {
			if len(in.Uses) == 0 {
				return nil, fmt.Errorf("vm: bind: spill store %d of loop %q has no operand", id, l.Name)
			}
			group[id] = sem.Groups
			sem.Groups++
		}
	}
	pair := make([]srcRef, n)
	for i := range pair {
		pair[i] = srcRef{site: -1}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind != ir.DepMem || l.Instrs[e.To].Op != ir.OpSpillReload {
			continue
		}
		if _, isStore := group[e.From]; isStore {
			pair[e.To] = srcRef{site: int32(e.From), dist: int32(e.Distance)}
			if e.Distance > maxDist {
				maxDist = e.Distance
			}
		}
	}
	sem.K = maxDist + slackK
	sem.histLen = maxDist + 2

	// Per-instruction semantics. Tokens and memory ordinals are keyed on
	// the instruction's ordinal among NON-spill instructions: spill
	// materialisation inserts instructions but preserves the originals'
	// relative order, so every spilled variant of a loop computes the
	// same observable values as the unspilled original.
	ord := 0
	for id, in := range l.Instrs {
		op := &sem.ops[id]
		op.srcs = srcs[id]
		switch {
		case in.Op == ir.OpSpillStore:
			op.kind = opSpillStore
			op.memIdx = group[id]
		case in.Op == ir.OpSpillReload:
			if p := pair[id]; p.site >= 0 {
				op.kind = opSpillReload
				op.memIdx = group[int(p.site)]
				op.pairDist = int(p.dist)
			} else {
				op.kind = opLiveInReload
				op.spillOf = in.SpillOf
			}
		default:
			op.token = splitmix64(seed ^ 0xa076_1d64_78bd_642f*uint64(ord+1))
			op.stride = int(splitmix64(op.token^0x2545_f491_4f6c_dd1d)&62) | 1
			switch {
			case in.Class == machine.ClassMem && len(in.Defs) > 0:
				op.kind = opLoad
				op.memIdx = sem.NLoads
				sem.NLoads++
			case in.Class == machine.ClassMem:
				op.kind = opStore
				op.memIdx = sem.NStores
				sem.NStores++
			default:
				op.kind = opALU
			}
			ord++
		}
	}
	return sem, nil
}

// splitmix64 is the classic 64-bit finaliser (Vigna); one application
// per fold step gives the oracle its avalanche behaviour.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fold absorbs one input into an accumulator. It is order-sensitive
// (fold(fold(a,x),y) != fold(fold(a,y),x) in general), so swapped
// operands are detected, not absorbed.
func fold(acc, v uint64) uint64 {
	return splitmix64(acc*0x100000001b3 ^ v)
}

// initReg is the pre-loop value of virtual register v: the initial
// register-file image both executors start from, and the value any use
// reaching back before iteration 0 observes.
func (sem *Semantics) initReg(v ir.VReg) uint64 {
	return splitmix64(sem.Seed ^ 0x9e6c_63d0_876a_3f00 ^ uint64(v)*0xff51_afd7_ed55_8ccd)
}

// InitReg exposes the initial value of register v (tests and the exec
// explainer print it).
func (sem *Semantics) InitReg(v ir.VReg) uint64 { return sem.initReg(v) }

// MemLen is the full memory image size: load regions, store regions,
// spill-slot groups.
func (sem *Semantics) MemLen() int {
	return (sem.NLoads+sem.NStores)*regionSize + sem.Groups*sem.K*8
}

// ObservableLen is the prefix of memory comparable across differently
// spilled variants of one loop: the non-spill load and store regions.
// Spill-slot contents depend on which spills a backend chose.
func (sem *Semantics) ObservableLen() int {
	return (sem.NLoads + sem.NStores) * regionSize
}

// NewMemImage builds the initial memory: load regions filled with
// seed-derived words, store regions zeroed, every spill-slot group
// pre-set to the spilled register's initial value so reloads reaching
// before iteration 0 observe exactly what the sequential dataflow does.
func (sem *Semantics) NewMemImage() []byte {
	mem := make([]byte, sem.MemLen())
	for li := 0; li < sem.NLoads; li++ {
		for w := 0; w < 64; w++ {
			v := splitmix64(sem.Seed ^ 0x8532_9e20_94c3_1f00 ^ uint64(li)<<32 ^ uint64(w))
			binary.LittleEndian.PutUint64(mem[li*regionSize+w*8:], v)
		}
	}
	for id, in := range sem.Loop.Instrs {
		if sem.ops[id].kind != opSpillStore {
			continue
		}
		init := sem.initReg(in.Uses[0])
		base := sem.slotAddr(sem.ops[id].memIdx, 0)
		for s := 0; s < sem.K; s++ {
			binary.LittleEndian.PutUint64(mem[base+s*8:], init)
		}
	}
	return mem
}

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

// slotAddr is slot s of spill group g, in the band after all store
// regions.
func (sem *Semantics) slotAddr(g, s int) int {
	return (sem.NLoads+sem.NStores)*regionSize + (g*sem.K+s)*8
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

// finalSites maps every observable register — one defined by at least
// one non-spill instruction — to its last defining site in program
// order: the definition whose iteration trip-1 value is the register's
// live-out. Spill-reload defs are fresh registers private to one
// backend's spill choices and are deliberately excluded.
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
