package ir

import (
	"fmt"
	"slices"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// This file synthesises spill code in place: given a victim definition,
// it inserts a store right after the definition and one reload right
// before each consumer, rewires the consumers onto fresh virtual
// registers, renumbers the loop and re-derives exactly the dependence
// edges the rewrite changes, plus the store→reload memory edges that keep
// the spilled value's round trip ordered. The MIRS backend uses it to
// shorten over-long lifetimes while a schedule is in flight; the old
// instructions keep their placements via the returned ID mapping and only
// the new store/reloads need scheduling.

// OpSpillStore and OpSpillReload are the mnemonics of synthesised spill
// instructions. Both are ClassMem: spill code competes for memory ports
// like any other load or store, which is exactly the paper's point about
// integrating spilling with scheduling.
const (
	OpSpillStore  = "spill.st"
	OpSpillReload = "spill.ld"
)

// Spill describes one spill spliced into a graph and its loop.
type Spill struct {
	// StoreID is the new spill store's instruction ID, or -1 for a
	// live-in spill (the value already lives in memory; only reloads are
	// needed).
	StoreID int
	// ReloadIDs are the new reload instruction IDs, one per rewritten
	// consumer, in body order. Each reload sits right before its
	// consumer.
	ReloadIDs []int
	// ReloadRegs are the fresh virtual registers the reloads define,
	// parallel to ReloadIDs.
	ReloadRegs []VReg
	// OldToNew maps every instruction ID from before the splice to its ID
	// after it, so an in-flight schedule can carry its placements across.
	// It is increasing: the splice only inserts.
	OldToNew []int
}

// SpliceSpill spills the value that instruction defID writes to reg: the
// consumers of that definition (its true-dependence readers) are rewired
// to read fresh registers defined by per-consumer reloads, a store of reg
// is inserted immediately after the definition, and each reload sits
// immediately before its consumer. A consumer at dependence distance d
// gets a store→reload DepMem edge with distance d: the reload reads what
// the store wrote d iterations earlier. Edges added with AddEdge survive
// with remapped endpoints if they are DepMem and are dropped otherwise.
//
// The graph and its loop are rewritten in place and end up exactly as if
// the rewritten loop had been rebuilt with the options the graph was
// built with and the memory edges re-added (the new ones first). A splice
// invalidates every Succs/Preds view; an error leaves the graph
// untouched. The returned Spill belongs to the graph: the next splice
// overwrites it.
//
// The spilled definition's lifetime shrinks to definition→store, and each
// reload's to reload→consumer — that is the pressure relief. The cost is
// two ClassMem operations plus memory latency on the consumer's path.
func (g *Graph) SpliceSpill(defID int, reg VReg) (*Spill, error) {
	l := g.Loop
	if defID < 0 || defID >= l.NumInstrs() {
		return nil, fmt.Errorf("ir: spill of %s: no instruction %d in loop %q", reg, defID, l.Name)
	}
	if !slices.Contains(l.Instrs[defID].Defs, reg) {
		return nil, fmt.Errorf("ir: spill: instruction %d of loop %q does not define %s", defID, l.Name, reg)
	}
	// Consumers of this specific definition, with their dependence
	// distances (Build emits one true edge per consumer per register).
	succs := g.Succs(defID)
	cons, dist := buf.Grow(g.cons[:0], len(succs))[:0], buf.Grow(g.dist[:0], len(succs))[:0]
	for _, e := range succs {
		if e.Kind != DepTrue || e.Reg != reg {
			continue
		}
		if i := slices.Index(cons, e.To); i >= 0 {
			dist[i] = e.Distance
			continue
		}
		cons = append(cons, e.To)
		dist = append(dist, e.Distance)
	}
	g.cons, g.dist = cons, dist
	if len(cons) == 0 {
		return nil, fmt.Errorf("ir: spill: definition of %s by instruction %d has no consumers", reg, defID)
	}
	return g.splice(reg, defID, cons, dist), nil
}

// SpliceLiveInSpill spills a live-in value — a register the loop reads
// but never writes (loop invariants, coefficients, scalars). Such a value
// occupies a register on every kernel cycle of every cluster that
// consumes it, which makes it exactly the paper's preferred victim: the
// longest possible lifetime with the fewest uses. Because the value
// already exists outside the loop it needs no store — the preheader is
// assumed to park it in its spill slot — so the splice just inserts one
// reload before each consuming instruction and rewires that consumer to
// the reload's fresh register. The returned Spill has StoreID == -1. Like
// SpliceSpill it rewrites the graph in place, and an error leaves it
// untouched.
func (g *Graph) SpliceLiveInSpill(reg VReg) (*Spill, error) {
	l := g.Loop
	cons := buf.Grow(g.cons[:0], l.NumInstrs())[:0]
	for id, in := range l.Instrs {
		if slices.Contains(in.Defs, reg) {
			return nil, fmt.Errorf("ir: live-in spill: %s is defined by instruction %d of loop %q", reg, id, l.Name)
		}
		if !slices.Contains(in.Uses, reg) {
			continue
		}
		if _, carried := carriedDistance(in, reg); carried {
			// The reload would leave a carried use of a register the
			// consumer no longer reads.
			return nil, fmt.Errorf("ir: live-in spill: instruction %d of loop %q reads %s across iterations", id, l.Name, reg)
		}
		cons = append(cons, id)
	}
	g.cons = cons
	if len(cons) == 0 {
		return nil, fmt.Errorf("ir: live-in spill: loop %q does not use %s", l.Name, reg)
	}
	return g.splice(reg, -1, cons, nil), nil
}

// spillInstr is a spill instruction with room for its one operand,
// carved from a slab (Graph.spillSlab) so most splices allocate none.
type spillInstr struct {
	Instruction
	reg [1]VReg
}

// splice inserts a reload before every consumer in cons, rewiring it onto
// the reload's fresh register, and — unless storeAfter is -1 — a store of
// reg right after storeAfter, with a store→reload memory edge at distance
// dist[i] per consumer cons[i]. Every check has passed; it cannot fail.
func (g *Graph) splice(reg VReg, storeAfter int, cons, dist []int) *Spill {
	l := g.Loop
	n, k := l.NumInstrs(), len(cons)
	add := k
	if storeAfter >= 0 {
		add++
	}
	consumer := buf.Grow(g.mark, n)
	clear(consumer)
	g.mark = consumer
	for _, c := range cons {
		consumer[c] = 1
	}
	sp := &g.spill
	sp.StoreID = -1
	sp.ReloadIDs, sp.ReloadRegs, sp.OldToNew = buf.Grow(sp.ReloadIDs, k), buf.Grow(sp.ReloadRegs, k), buf.Grow(sp.OldToNew, n)
	shift := 0
	for i := 0; i < n; i++ {
		shift += consumer[i]
		sp.OldToNew[i] = i + shift
		if i == storeAfter {
			shift++
		}
	}

	// Move the instructions back to front into the grown body (a slot is
	// only written once everything at or above it has moved) and drop
	// the spill code into the gaps. Reload registers number the
	// consumers in body order, so they count down from the last. A full
	// slab is replaced, not grown: the loop points into it.
	if g.spillUsed+add > len(g.spillSlab) {
		g.spillSlab, g.spillUsed = make([]spillInstr, max(add, n, 2*len(g.spillSlab))), 0
	}
	code := g.spillSlab[g.spillUsed : g.spillUsed+add : g.spillUsed+add]
	g.spillUsed += add
	l.Instrs = buf.Grow(l.Instrs, n+add)
	j := k
	for i := n - 1; i >= 0; i-- {
		in, ni := l.Instrs[i], sp.OldToNew[i]
		in.ID = ni
		l.Instrs[ni] = in
		if i == storeAfter {
			st := &code[k]
			st.reg[0] = reg
			st.Instruction = Instruction{ID: ni + 1, Op: OpSpillStore, Class: machine.ClassMem, Uses: st.reg[:]}
			l.Instrs[ni+1] = &st.Instruction
			sp.StoreID = ni + 1
		}
		if consumer[i] == 0 {
			continue
		}
		j--
		r := g.nextReg + VReg(j)
		ld := &code[j]
		ld.reg[0] = r
		ld.Instruction = Instruction{ID: ni - 1, Op: OpSpillReload, Class: machine.ClassMem, Defs: ld.reg[:], SpillOf: reg}
		l.Instrs[ni-1] = &ld.Instruction
		sp.ReloadIDs[j], sp.ReloadRegs[j] = ni-1, r
		for u, v := range in.Uses {
			if v == reg {
				in.Uses[u] = r
			}
		}
		if _, carried := in.CarriedUses[reg]; carried && storeAfter >= 0 {
			// Clones share CarriedUses maps, so the map is replaced,
			// never written.
			var kept map[VReg]int
			for v, d := range in.CarriedUses {
				if v != reg {
					if kept == nil {
						kept = make(map[VReg]int, len(in.CarriedUses)-1)
					}
					kept[v] = d
				}
			}
			in.CarriedUses = kept
		}
	}
	g.nextReg += VReg(k)

	// Re-derive the edges in the order a rebuild produces them: register
	// dependences by ascending register — every register but reg keeps
	// its edges with renumbered endpoints, reg's block is re-derived, and
	// the reload registers, the highest of all, come last — then the new
	// store→reload memory edges, then the surviving older DepMem edges.
	remap := func(e Edge) Edge {
		e.From, e.To = sp.OldToNew[e.From], sp.OldToNew[e.To]
		return e
	}
	// The splice adds at most 3k+2 edges: a true, an anti and an output
	// edge per reload; for a definition's spill also the store's true and
	// anti edge and a memory edge per consumer, whose true and anti edges
	// of reg go.
	out := buf.Grow(g.spare[:0], len(g.Edges)+3*k+2)[:0]
	derived := false
	for _, e := range g.Edges[:g.nReg] {
		if e.Reg != reg {
			out = append(out, remap(e))
			continue
		}
		if !derived {
			dv, uv := buf.Grow(g.defSites[:0], n+add)[:0], buf.Grow(g.useSites[:0], n+add)[:0]
			for i, in := range l.Instrs {
				if slices.Contains(in.Defs, reg) {
					dv = append(dv, i)
				}
				if slices.Contains(in.Uses, reg) {
					uv = append(uv, i)
				}
			}
			out, g.defSites, g.useSites, derived = g.appendRegEdges(out, reg, dv, uv), dv, uv, true
		}
	}
	for i, rid := range sp.ReloadIDs {
		out = g.appendRegEdges(out, sp.ReloadRegs[i], []int{rid}, []int{rid + 1})
	}
	nReg := len(out)
	if storeAfter >= 0 {
		memLat := g.m.Latency(machine.ClassMem)
		for i, c := range cons {
			out = append(out, Edge{From: sp.StoreID, To: sp.OldToNew[c] - 1, Kind: DepMem, Distance: dist[i], Latency: memLat})
		}
	}
	for _, e := range g.Edges[g.nReg:] {
		if e.Kind == DepMem {
			out = append(out, remap(e))
		}
	}
	g.spare, g.Edges, g.nReg = g.Edges[:0], out, nReg
	g.buildIndex()
	return sp
}

// Clone returns a deep copy of g and its loop, operand slices included,
// so the copy can be spliced while g stays intact. CarriedUses maps are
// shared: nothing writes one once it is built, and a splice installs a
// new map instead.
func (g *Graph) Clone() *Graph { return g.CloneInto(nil) }

// CloneInto is Clone reusing the storage of dst: its loop, instructions,
// operands, spill instructions, edges and adjacency arrays are all
// overwritten, so nothing may still depend on them, and dst must not be
// g. A nil dst allocates fresh storage.
func (g *Graph) CloneInto(dst *Graph) *Graph {
	if dst == nil {
		dst = &Graph{Loop: &Loop{}}
	}
	l, n, total := g.Loop, g.Loop.NumInstrs(), 0
	for _, in := range l.Instrs {
		total += len(in.Defs) + len(in.Uses)
	}
	// The instructions and their operands live in two flat arrays; the
	// operand array is sized up front so carving never reallocates it.
	dst.instrBack, dst.regBack = buf.Grow(dst.instrBack, n), buf.Grow(dst.regBack, total)[:0]
	dst.Loop.Name, dst.Loop.Instrs = l.Name, buf.Grow(dst.Loop.Instrs, n)
	for i, src := range l.Instrs {
		in := &dst.instrBack[i]
		*in = *src
		in.Defs, in.Uses = dst.carve(src.Defs), dst.carve(src.Uses)
		dst.Loop.Instrs[i] = in
	}
	dst.spillUsed = 0
	dst.Edges = append(dst.Edges[:0], g.Edges...)
	dst.m, dst.opts, dst.nextReg, dst.nReg = g.m, g.opts, g.nextReg, g.nReg
	dst.buildIndex()
	return dst
}

// carve copies src onto the end of the operand array and returns the
// copy, keeping a nil src nil.
func (g *Graph) carve(src []VReg) []VReg {
	if src == nil {
		return nil
	}
	i := len(g.regBack)
	g.regBack = append(g.regBack, src...)
	return g.regBack[i:len(g.regBack):len(g.regBack)]
}
