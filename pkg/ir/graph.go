package ir

import (
	"fmt"
	"slices"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// DepKind classifies a dependence edge.
type DepKind int

const (
	// DepTrue is a flow (read-after-write) dependence: the consumer
	// reads the value the producer computes, so its latency is the
	// producer's result latency.
	DepTrue DepKind = iota
	// DepAnti is a write-after-read dependence: the writer must not
	// clobber the register before the reader has issued.
	DepAnti
	// DepOutput is a write-after-write dependence between two
	// definitions of the same register.
	DepOutput
	// DepMem is a memory dependence (store/load ordering). The builder
	// never infers these — alias analysis is out of scope — but callers
	// can add them with Graph.AddEdge.
	DepMem
)

// String returns "true", "anti", "output" or "mem".
func (k DepKind) String() string {
	switch k {
	case DepTrue:
		return "true"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	case DepMem:
		return "mem"
	}
	return fmt.Sprintf("DepKind(%d)", int(k))
}

// Edge is one dependence in the graph. The scheduling constraint it
// encodes is
//
//	start(To) >= start(From) + Latency - Distance*II
//
// where II is the initiation interval of the modulo schedule.
type Edge struct {
	// From and To are instruction IDs (producer and consumer).
	From, To int
	// Kind classifies the dependence.
	Kind DepKind
	// Distance is the number of iterations the dependence crosses:
	// 0 for an intra-iteration edge, >=1 for a loop-carried one.
	Distance int
	// Latency is the minimum issue-cycle separation the edge demands.
	Latency int
	// Reg is the virtual register that induced the edge (unset for
	// DepMem edges).
	Reg VReg
}

// Graph is the data dependence graph of one loop body. Nodes are the
// loop's instruction IDs; edges carry kind, distance and latency. AddEdge
// and the spill splices (SpliceSpill, SpliceLiveInSpill) mutate a graph,
// and each mutation invalidates the Succs/Preds views handed out before.
type Graph struct {
	// Loop is the loop the graph was built from; splices rewrite it.
	Loop *Loop
	// Edges holds every dependence. Do not append directly; use AddEdge
	// so adjacency stays consistent.
	Edges []Edge

	// m and opts are what Build derived the edges with, which splices
	// re-derive edges with; nextReg is the next fresh reload register.
	m       *machine.Machine
	opts    BuildOptions
	nextReg VReg
	// Edges[:nReg] are the register dependences, grouped by ascending
	// register; edges added by AddEdge follow.
	nReg int

	succs [][]int // node -> indices into Edges (outgoing)
	preds [][]int // node -> indices into Edges (incoming)

	// succPtrs/predPtrs are the prebuilt adjacency views Succs and Preds
	// return. They are (re)built eagerly — at the end of Build and after
	// every mutation — so the accessors are allocation-free and safe for
	// concurrent readers of a graph that is no longer being mutated.
	// All rows share one backing array; pointers go stale if Edges
	// reallocates, which is why mutation rebuilds them immediately.
	succPtrs [][]*Edge
	predPtrs [][]*Edge

	// Storage that splices and CloneInto reuse: index and view backing,
	// the previous edge array, the last Spill, the spill instruction slab
	// and how much of it the loop uses, a clone's flat instructions and
	// operands, and scratch.
	idxBack                              []int
	ptrBack                              []*Edge
	spare                                []Edge
	spill                                Spill
	spillSlab                            []spillInstr
	spillUsed                            int
	instrBack                            []Instruction
	regBack                              []VReg
	cons, dist, mark, defSites, useSites []int
}

// BuildOptions tunes dependence-edge latencies and distances.
type BuildOptions struct {
	// AntiLatency is the latency of anti edges. The default 0 lets a
	// redefinition issue in the same cycle as the last read, which
	// matches a VLIW that reads operands at issue.
	AntiLatency int
	// OutputLatency is the latency of output edges; default 1.
	OutputLatency int
	// RenameCopies is the number of rotating register copies the
	// scheduler may assume modulo variable expansion
	// (sched.Schedule.Expand) will allocate per register. The default 1
	// models a machine without renaming: a value must die before the
	// next iteration overwrites its register, which is what forces
	// II >= producer latency whenever a consumer trails its producer by
	// more than II cycles — the wrap-around anti-edge penalty.
	//
	// With k copies, a use reading the definition from δ iterations
	// back (δ = 0 for an ordinary same-iteration read, 1 for a
	// wrap-around read, CarriedUses for explicit ones) conflicts only
	// with the redefinition k-δ iterations ahead, because the
	// intervening iterations write different renamed copies. Anti
	// edges therefore carry distance max(0, k-δ) instead of the strict
	// max(0, 1-δ), and the wrap-around output edge carries k: lifetimes
	// may stretch up to k·II cycles and the expansion absorbs the
	// overlap by renaming. Schedulers trade kernel size (the unroll
	// factor) for II by scheduling against a relaxed graph. Registers
	// with several definition sites in the body keep strict edges —
	// their sites share a copy name within an iteration, so relaxation
	// would be unsound. Values below 1 mean the default.
	RenameCopies int
}

// Build derives the dependence graph of l against machine m.
//
// Register dependences use nearest-def semantics: a use reads the nearest
// definition strictly before it in the body, or — when no definition
// precedes it — the last definition of the previous iteration (a
// loop-carried edge with distance 1). An instruction whose CarriedUses
// maps register v to k instead reads the last definition from k
// iterations back. Anti edges run from each use to the next definition,
// and output edges chain successive definitions, both wrapping around the
// loop body with distance 1. True-edge latency is the producer's class
// latency on m.
//
// Memory dependences are not inferred; add them with AddEdge if the loop
// needs store/load ordering.
func Build(l *Loop, m *machine.Machine, opts *BuildOptions) (*Graph, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	o := BuildOptions{AntiLatency: 0, OutputLatency: 1, RenameCopies: 1}
	if opts != nil {
		o = *opts
	}
	if o.RenameCopies < 1 {
		o.RenameCopies = 1
	}
	g := &Graph{Loop: l, m: m, opts: o}

	// Gather def and use positions per register, in body order, as two
	// counting-sorted site tables sharing one array: register v's
	// definition sites are sites[def[v]:def[v+1]] and its distinct use
	// sites sites[use[v]:use[v+1]]. A register read twice by one
	// instruction (v1 * v1) is one dependence, not two.
	nSites := 0
	for _, in := range l.Instrs {
		for _, v := range in.Defs {
			g.nextReg = max(g.nextReg, v+1)
		}
		for _, v := range in.Uses {
			g.nextReg = max(g.nextReg, v+1)
		}
		nSites += len(in.Defs) + len(in.Uses)
	}
	nr := int(g.nextReg)
	back := make([]int, 2*(nr+1)+nSites)
	def, use, sites := back[:nr+1], back[nr+1:2*(nr+1)], back[2*(nr+1):]
	for _, in := range l.Instrs {
		for _, v := range in.Defs {
			def[v]++
		}
		for j, v := range in.Uses {
			if !slices.Contains(in.Uses[:j], v) {
				use[v]++
			}
		}
	}
	// Inclusive prefix sums make def[v] and use[v] the end of v's table
	// (the use tables follow the definition tables; no register is
	// numbered nr, so def[nr] and use[nr] are the totals). Filling back
	// to front decrements each to its start, leaving the sites in body
	// order and the end of v's table at index v+1.
	for v := 1; v <= nr; v++ {
		def[v] += def[v-1]
	}
	use[0] += def[nr]
	for v := 1; v <= nr; v++ {
		use[v] += use[v-1]
	}
	for i := len(l.Instrs) - 1; i >= 0; i-- {
		in := l.Instrs[i]
		for _, v := range in.Defs {
			def[v]--
			sites[def[v]] = i
		}
		for j, v := range in.Uses {
			if !slices.Contains(in.Uses[:j], v) {
				use[v]--
				sites[use[v]] = i
			}
		}
	}

	// The edge population is known exactly up front — per defined
	// register, one true and one anti edge per use plus one output edge
	// per definition site (the chain and the wrap) — so the edge array
	// and the adjacency index are sized once instead of grown per append.
	nEdges := 0
	for v := 0; v < nr; v++ {
		if nd := def[v+1] - def[v]; nd > 0 {
			nEdges += 2*(use[v+1]-use[v]) + nd
		}
	}
	g.Edges = make([]Edge, 0, nEdges)
	for v := 0; v < nr; v++ {
		if def[v+1] > def[v] {
			g.Edges = g.appendRegEdges(g.Edges, VReg(v), sites[def[v]:def[v+1]], sites[use[v]:use[v+1]])
		}
	}
	g.nReg = len(g.Edges)
	g.buildIndex()
	return g, nil
}

// appendRegEdges appends the dependences register v induces — true edges,
// then anti edges, then output edges — given v's definition sites dv
// (non-empty) and its distinct use sites uv, both in body order. Build
// runs it once per defined register; the splices rerun it for the
// registers they rewire.
func (g *Graph) appendRegEdges(dst []Edge, v VReg, dv, uv []int) []Edge {
	l, m, o := g.Loop, g.m, &g.opts
	last := dv[len(dv)-1]

	// True edges: each use reads its reaching definition.
	for _, u := range uv {
		if k, carried := carriedDistance(l.Instrs[u], v); carried {
			dst = append(dst, Edge{From: last, To: u, Kind: DepTrue, Distance: k,
				Latency: m.Latency(l.Instrs[last].Class), Reg: v})
			continue
		}
		from, dist := -1, 0
		for _, d := range dv {
			if d < u {
				from = d
			}
		}
		if from == -1 {
			from, dist = last, 1
		}
		dst = append(dst, Edge{From: from, To: u, Kind: DepTrue, Distance: dist,
			Latency: m.Latency(l.Instrs[from].Class), Reg: v})
	}

	// Anti edges: each use must issue no later than the conflicting
	// redefinition of what it reads. With a single definition site
	// and RenameCopies = k, a use reading δ iterations back
	// conflicts with the redefinition k-δ iterations ahead (the
	// ones between write different renamed copies); the strict
	// k = 1 reproduces the classic rule — wrap-around reads bind
	// the same iteration's definition, same-iteration reads the
	// next iteration's. Multi-site registers keep strict edges to
	// the next definition in body order.
	single := len(dv) == 1
	for _, u := range uv {
		if single {
			delta := 0
			if k, carried := carriedDistance(l.Instrs[u], v); carried {
				delta = k
			} else if u <= dv[0] {
				delta = 1 // no definition precedes the use: a wrap-around read
			}
			dist := o.RenameCopies - delta
			if dist < 0 {
				dist = 0
			}
			if u == dv[0] && dist < 1 {
				// A self anti edge (the instruction reads what it
				// writes) is vacuous at distance >= 1 but would be
				// unsatisfiable at 0 under a positive AntiLatency.
				dist = 1
			}
			dst = append(dst, Edge{From: u, To: dv[0], Kind: DepAnti, Distance: dist, Latency: o.AntiLatency, Reg: v})
			continue
		}
		to, dist := -1, 0
		for _, d := range dv {
			if d > u {
				to = d
				break
			}
		}
		if to == -1 {
			to, dist = dv[0], 1
		}
		dst = append(dst, Edge{From: u, To: to, Kind: DepAnti, Distance: dist, Latency: o.AntiLatency, Reg: v})
	}

	// Output edges: chain successive definitions, wrapping around.
	// The wrap edge of a single-site register relaxes with
	// RenameCopies — the same copy name recurs only every k
	// iterations.
	for i := 0; i+1 < len(dv); i++ {
		dst = append(dst, Edge{From: dv[i], To: dv[i+1], Kind: DepOutput, Distance: 0, Latency: o.OutputLatency, Reg: v})
	}
	wrapOut := 1
	if single {
		wrapOut = o.RenameCopies
	}
	return append(dst, Edge{From: last, To: dv[0], Kind: DepOutput, Distance: wrapOut, Latency: o.OutputLatency, Reg: v})
}

func carriedDistance(in *Instruction, v VReg) (int, bool) {
	if in.CarriedUses == nil {
		return 0, false
	}
	k, ok := in.CarriedUses[v]
	return k, ok
}

// AddEdge appends an edge (typically a DepMem ordering constraint) and
// keeps the adjacency lists consistent. It returns an error if the edge
// references unknown nodes or has a negative distance or latency.
func (g *Graph) AddEdge(e Edge) error {
	n := g.NumNodes()
	if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
		return fmt.Errorf("ir: edge %d->%d outside graph of %d nodes", e.From, e.To, n)
	}
	if e.Distance < 0 {
		return fmt.Errorf("ir: edge %d->%d with negative distance %d", e.From, e.To, e.Distance)
	}
	if e.Latency < 0 {
		return fmt.Errorf("ir: edge %d->%d with negative latency %d", e.From, e.To, e.Latency)
	}
	if e.Distance == 0 && e.From == e.To {
		return fmt.Errorf("ir: self edge %d->%d with distance 0 is unsatisfiable", e.From, e.To)
	}
	idx := len(g.Edges)
	grew := len(g.Edges) == cap(g.Edges)
	g.Edges = append(g.Edges, e)
	g.succs[e.From] = append(g.succs[e.From], idx)
	g.preds[e.To] = append(g.preds[e.To], idx)
	// Keep the pointer views current. When the edge array grew in place
	// the existing views stay valid and only the new edge's pointer is
	// appended (the per-node rows are capacity-capped, so the append
	// copies the row rather than clobbering a neighbour's); when append
	// reallocated the array, every cached pointer went stale and the
	// views are rebuilt — reallocation is geometric, so a batch of
	// AddEdge calls stays amortised O(1) per edge.
	if g.succPtrs != nil {
		if grew {
			g.rebuildAdjacency()
		} else {
			ep := &g.Edges[idx]
			g.succPtrs[e.From] = append(g.succPtrs[e.From], ep)
			g.predPtrs[e.To] = append(g.predPtrs[e.To], ep)
		}
	}
	return nil
}

// buildIndex constructs the succs/preds index in CSR style — exact
// per-node counts first, then one backing array shared by both
// directions and reused across rebuilds — and then the pointer views.
// Rows are capacity-capped so a later AddEdge append copies the row
// instead of clobbering a neighbour's.
func (g *Graph) buildIndex() {
	n, ne := g.Loop.NumInstrs(), len(g.Edges)
	g.succs, g.preds = buf.Grow(g.succs, n), buf.Grow(g.preds, n)
	g.idxBack = buf.Grow(g.idxBack, 2*ne+2*n)
	back := g.idxBack
	sc, pc := back[2*ne:2*ne+n], back[2*ne+n:]
	clear(sc)
	clear(pc)
	for i := range g.Edges {
		sc[g.Edges[i].From]++
		pc[g.Edges[i].To]++
	}
	so, po := 0, ne
	for v := 0; v < n; v++ {
		g.succs[v] = back[so : so : so+sc[v]]
		so += sc[v]
		g.preds[v] = back[po : po : po+pc[v]]
		po += pc[v]
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		g.succs[e.From] = append(g.succs[e.From], i)
		g.preds[e.To] = append(g.preds[e.To], i)
	}
	g.rebuildAdjacency()
}

// rebuildAdjacency regenerates the pointer views Succs/Preds hand out
// into one backing array shared by both directions and reused across
// rebuilds, so even per-AddEdge rebuilds stay cheap on loop-sized
// graphs.
func (g *Graph) rebuildAdjacency() {
	n, ne := len(g.succs), len(g.Edges)
	g.succPtrs, g.predPtrs = buf.Grow(g.succPtrs, n), buf.Grow(g.predPtrs, n)
	g.ptrBack = buf.Grow(g.ptrBack, 2*ne)
	back := g.ptrBack
	si, pi := 0, ne
	for v := 0; v < n; v++ {
		s0 := si
		for _, ei := range g.succs[v] {
			back[si] = &g.Edges[ei]
			si++
		}
		g.succPtrs[v] = back[s0:si:si]
		p0 := pi
		for _, ei := range g.preds[v] {
			back[pi] = &g.Edges[ei]
			pi++
		}
		g.predPtrs[v] = back[p0:pi:pi]
	}
}

// NumNodes returns the number of instructions in the graph.
func (g *Graph) NumNodes() int { return len(g.succs) }

// Succs returns the outgoing edges of node id. The returned slice is a
// shared adjacency view: callers must not mutate it, and it is
// invalidated by the next AddEdge or splice.
func (g *Graph) Succs(id int) []*Edge {
	if g.succPtrs == nil {
		g.rebuildAdjacency()
	}
	return g.succPtrs[id]
}

// Preds returns the incoming edges of node id. The returned slice is a
// shared adjacency view: callers must not mutate it, and it is
// invalidated by the next AddEdge or splice.
func (g *Graph) Preds(id int) []*Edge {
	if g.predPtrs == nil {
		g.rebuildAdjacency()
	}
	return g.predPtrs[id]
}

// IntraTopoOrder returns the nodes in a topological order of the
// intra-iteration (distance-0) subgraph, which is always acyclic for a
// well-formed loop: every cycle in a dependence graph must cross an
// iteration boundary. Schedulers use this as their placement order.
func (g *Graph) IntraTopoOrder() ([]int, error) {
	n := g.NumNodes()
	return g.IntraTopoOrderInto(make([]int, 0, n), make([]int, n))
}

// IntraTopoOrderInto is IntraTopoOrder appending to order[:0], with
// indeg (length NumNodes) as scratch. The order doubles as the FIFO work
// queue, so once order has grown to the graph nothing is allocated.
func (g *Graph) IntraTopoOrderInto(order, indeg []int) ([]int, error) {
	n := g.NumNodes()
	indeg = indeg[:n]
	clear(indeg)
	for i := range g.Edges {
		if e := &g.Edges[i]; e.Distance == 0 {
			indeg[e.To]++
		}
	}
	order = order[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, ei := range g.succs[order[head]] {
			e := &g.Edges[ei]
			if e.Distance != 0 {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				order = append(order, e.To)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("ir: intra-iteration dependence cycle in loop %q", g.Loop.Name)
	}
	return order, nil
}
