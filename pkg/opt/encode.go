package opt

import (
	"fmt"
	"slices"
	"sync"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/opt/sat"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// This file is the CNF encoder: "is there a valid modulo schedule at
// exactly this II?" as a SAT instance, one per candidate II. The shape
// follows Roorda's SMT formulation and SAT-MapIt's CNF lowering (see
// docs/OPTIMALITY.md and docs/PAPER_MAP.md §13): per-instruction issue
// variables over a bounded flat horizon, an order-encoding ladder that
// yields both at-most-one and O(H) dependence clauses per edge, residue
// variables channeling issue cycles into the modulo reservation table,
// unit/cluster variables for the clustered dimension, and
// sequential-counter cardinality for the bus bandwidth cap.
//
// Soundness and completeness both reduce to Schedule.Validate: every
// model decodes to a schedule that must pass the oracle (checked on
// every decode, fuzzed in FuzzOptAgreesWithValidate), and an UNSAT
// answer certifies no schedule exists at that II *within the flat
// horizon* H = II + Σ_i (latency_i + busLatency). The horizon loses no
// schedules: shifting any single instruction of a valid schedule by a
// multiple of II preserves its modulo reservation slot, its bus residue
// and every dependence slack, so any valid schedule can be normalised —
// instruction by instruction, earliest residue-preserving start first —
// into one where each start exceeds some predecessor-chain bound; chain
// weights sum each instruction's latency+bus at most once, which is
// exactly the horizon pad.
type analysis struct {
	req   *sched.Request
	g     *ir.Graph
	mii   int // the II the search starts from
	maxII int
	n     int

	units   []unitRef // global unit order: clusters in order, slots in order
	compat  [][]int   // per instruction: global unit ids supporting its class
	unitIdx [][]int   // per instruction: global unit id -> compat index, -1
	lat     []int     // per instruction: result latency of its class
	busLat  int
	busCap  int
	nclust  int
	groups  []xferGroup // potential cross-cluster transfer groups
	pad     int         // horizon pad: H(ii) = ii + pad
	symm    bool        // clusters are interchangeable (symmetry breaking applies)
}

type unitRef struct{ cluster, slot int }

// xferGroup is one potential bus transfer key (producer, register): all
// consumers of that value in one destination cluster share a broadcast,
// so bus occupancy is counted per (group, destination cluster).
type xferGroup struct {
	from int
	reg  ir.VReg
	cons []int // consumer instruction ids, From != To
}

// newAnalysis derives the attempt-independent tables. It fails with
// ir.ErrIntraCycle on a distance-0 dependence cycle, which no II
// satisfies and which sched.ComputeMII catches only when the request
// leaves MII to Prepare.
func newAnalysis(req *sched.Request, g *ir.Graph, mii, maxII int) (*analysis, error) {
	m := req.Machine
	a := &analysis{
		req:    req,
		g:      g,
		mii:    mii,
		maxII:  maxII,
		n:      req.Loop.NumInstrs(),
		busLat: m.BusLatency(),
		busCap: m.BusCount(),
		nclust: m.NumClusters(),
	}
	for ci := range m.Clusters {
		for si := range m.Clusters[ci].Units {
			a.units = append(a.units, unitRef{ci, si})
		}
	}
	a.compat = make([][]int, a.n)
	a.unitIdx = make([][]int, a.n)
	a.lat = make([]int, a.n)
	nu := len(a.units)
	compat, unitIdx := make([]int, a.n*nu), make([]int, a.n*nu)
	// Until they are filled, the two tables are the order check's
	// scratch: a queue and in-degrees of a.n entries each.
	order, indeg := compat[:0], unitIdx
	if nu == 0 {
		order, indeg = make([]int, 0, a.n), make([]int, a.n)
	}
	if _, err := g.IntraTopoOrderInto(order, indeg); err != nil {
		return nil, err
	}
	for i, in := range req.Loop.Instrs {
		a.lat[i] = m.Latency(in.Class)
		a.unitIdx[i] = unitIdx[i*nu : (i+1)*nu : (i+1)*nu]
		a.compat[i] = compat[i*nu : i*nu : (i+1)*nu]
		class := m.ClassID(in.Class)
		for u, ur := range a.units {
			a.unitIdx[i][u] = -1
			if m.UnitMask(ur.cluster, class)>>ur.slot&1 != 0 {
				a.unitIdx[i][u] = len(a.compat[i])
				a.compat[i] = append(a.compat[i], u)
			}
		}
		a.pad += a.lat[i] + a.busLat
	}
	if a.nclust > 1 {
		a.symm = clustersInterchangeable(m)
		a.groups = transferGroups(g)
	}
	return a, nil
}

// transferGroups collects the potential bus transfers in
// first-appearance edge order — a fixed order so variable numbering (and
// therefore the whole solver run) is deterministic. A group is found by
// scanning back over the groups for its producer and register; a loop
// has few, so the scan beats hashing the pair.
func transferGroups(g *ir.Graph) []xferGroup {
	var groups []xferGroup
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if e.Kind != ir.DepTrue || e.From == e.To {
			continue
		}
		gi := len(groups) - 1
		for gi >= 0 && (groups[gi].from != e.From || groups[gi].reg != e.Reg) {
			gi--
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, xferGroup{from: e.From, reg: e.Reg})
		}
		groups[gi].cons = append(groups[gi].cons, e.To)
	}
	return groups
}

// clustersInterchangeable reports whether every cluster carries the
// same unit shape slot by slot: the same units serving each class.
// Buses are a machine-wide pool and the encoder ignores register files,
// so relabeling clusters of such a machine maps valid schedules to
// valid schedules — the precondition for the symmetry-breaking clauses.
func clustersInterchangeable(m *machine.Machine) bool {
	if len(m.Clusters) < 2 {
		return false
	}
	for ci := 1; ci < len(m.Clusters); ci++ {
		if len(m.Clusters[ci].Units) != len(m.Clusters[0].Units) {
			return false
		}
		for k := 0; k < m.NumClasses(); k++ {
			if m.UnitMask(ci, k) != m.UnitMask(0, k) {
				return false
			}
		}
	}
	return true
}

// encoder holds the variable layout of one candidate-II instance, and
// is the workspace the instance is built in: a solver plus the storage
// its clause families reuse from one formula to the next.
type encoder struct {
	s   *sat.Solver
	ana *analysis
	ii  int
	h   int     // flat horizon: cycles in [0, h)
	x   [][]int // x[i][t]: instruction i issues at flat cycle t
	a   [][]int // a[i][t], t in [1,h): start(i) >= t (order-encoding ladder)
	m   [][]int // m[i][r]: issue cycle ≡ r (mod ii); one-directional channel
	p   [][]int // p[i][k]: i runs on compat[i][k]
	c   [][]int // c[i][cl]: i's cluster (nclust > 1 only); exact by AMO+channel
	tr  [][]int // tr[gi][cl]: group gi delivers its value into cluster cl

	// Auxiliary variables (cross flags, bus occupancy, counter bits) are
	// allocated with the rows and handed out in order from next, so the
	// solver's tables grow once per formula.
	next int

	ids     []int     // allocVars: the row variables, backing every row
	table   [][]int   // allocVars: the row headers, backing x, a, m, p, c, tr
	lits    []sat.Lit // clause scratch, sized for the longest clause
	counter []int     // atMostK scratch: two k-wide counter rows
	on      []int     // resourceClauses scratch: instructions one unit runs
}

// workspaces pools encoders, so the ~thousand candidate formulas of a
// gap-grid pass reuse a few solvers' tables, chunks and scratch instead
// of allocating and collecting each formula's. sync.Pool keeps any one
// workspace with one goroutine at a time, and a pooled workspace holds
// no reference to the loop it last encoded.
var workspaces = sync.Pool{New: func() any { return &encoder{s: sat.New()} }}

// newEncoder takes a workspace from the pool and builds the formula for
// ii in it. Return the workspace with release once the model is decoded.
func newEncoder(ana *analysis, ii int) *encoder {
	return workspaces.Get().(*encoder).build(ana, ii)
}

// build resets the workspace and builds on its solver the full CNF for
// "a valid schedule exists at exactly ii". The reset solver numbers,
// stores and watches every variable and clause as a new one would, so
// the solve is the same.
func (e *encoder) build(ana *analysis, ii int) *encoder {
	e.s.Reset()
	*e = encoder{
		s: e.s, ana: ana, ii: ii, h: ii + ana.pad,
		ids: e.ids, table: e.table, lits: e.lits, counter: e.counter, on: e.on,
	}
	// The longest scratch clause is an at-least-one issue row (h
	// literals) or unit row, a symmetry row (n+1) or a bus residue
	// (groups×clusters).
	e.lits = slices.Grow(e.lits[:0], max(e.h, len(ana.units), ana.n+1, len(ana.groups)*ana.nclust))
	e.allocVars()
	e.instrClauses()
	e.dependenceClauses()
	e.resourceClauses()
	e.busClauses()
	e.symmetryClauses()
	if e.next != e.s.NumVars() {
		panic(fmt.Sprintf("opt: internal: %d variables allocated, %d used", e.s.NumVars(), e.next))
	}
	return e
}

// release returns the workspace to the pool. The caller must be done
// with the solver and the layout: the next newEncoder overwrites both.
func (e *encoder) release() {
	e.ana = nil
	workspaces.Put(e)
}

// newVar hands out the next auxiliary variable allocated by allocVars.
func (e *encoder) newVar() int {
	v := e.next
	e.next++
	return v
}

// symmetryClauses breaks the cluster-relabeling symmetry on machines
// whose clusters are interchangeable: instruction i may open cluster j
// only if an earlier instruction already sits on cluster j-1, so the
// clusters are first used in index order. Any valid schedule has
// exactly one relabeling satisfying this, so satisfiability — the only
// thing the sweep asks — is untouched, while UNSAT proofs shrink by up
// to a factor of (number of clusters)!.
func (e *encoder) symmetryClauses() {
	ana := e.ana
	if !ana.symm {
		return
	}
	lits := e.lits
	for i := 0; i < ana.n; i++ {
		for j := 1; j < ana.nclust; j++ {
			lits = lits[:0]
			lits = append(lits, sat.Neg(e.c[i][j]))
			for prev := 0; prev < i; prev++ {
				lits = append(lits, sat.Pos(e.c[prev][j-1]))
			}
			e.s.AddClause(lits...)
		}
	}
}

// allocVars lays out every variable in a fixed order; determinism of the
// whole solve depends on this order never varying between runs. The
// rows come first, numbered consecutively and backed by one array; the
// auxiliary variables the clause families introduce follow, counted
// here so one NewVars call sizes the solver for the whole formula.
func (e *encoder) allocVars() {
	ana, n := e.ana, e.ana.n
	rowVars, rows := 0, 4*n
	for i := 0; i < n; i++ {
		rowVars += 2*e.h + e.ii + len(ana.compat[i])
	}
	if ana.nclust > 1 {
		rowVars += (n + len(ana.groups)) * ana.nclust
		rows += n + len(ana.groups)
	}
	first := e.s.NewVars(rowVars + e.auxVars())
	e.next = first + rowVars
	e.ids = slices.Grow(e.ids[:0], rowVars)[:rowVars]
	e.table = slices.Grow(e.table[:0], rows)[:rows] // every header is set below
	ids, table := e.ids, e.table
	for j := range ids {
		ids[j] = first + j
	}
	newRows := func(k int) [][]int {
		t := table[:k:k]
		table = table[k:]
		return t
	}
	newRow := func(k int) []int {
		row := ids[:k:k]
		ids = ids[k:]
		return row
	}
	e.x, e.a, e.m, e.p = newRows(n), newRows(n), newRows(n), newRows(n)
	if ana.nclust > 1 {
		e.c = newRows(n)
	}
	for i := 0; i < n; i++ {
		e.x[i] = newRow(e.h)
		e.a[i] = newRow(e.h) // index 0 unused (start >= 0 is vacuous)
		e.m[i] = newRow(e.ii)
		e.p[i] = newRow(len(ana.compat[i]))
		if ana.nclust > 1 {
			e.c[i] = newRow(ana.nclust)
		}
	}
	if ana.nclust > 1 {
		e.tr = newRows(len(ana.groups))
		for gi := range ana.groups {
			e.tr[gi] = newRow(ana.nclust)
		}
	}
}

// auxVars counts the auxiliary variables the clause families allocate
// through newVar: one cross flag per bus-crossing dependence
// (dependenceClauses), and per residue one occupancy variable per
// (transfer group, cluster) plus the atMostK counter bits (busClauses).
// newEncoder checks the count against what the families used.
func (e *encoder) auxVars() int {
	ana := e.ana
	if ana.nclust <= 1 {
		return 0
	}
	n := 0
	if ana.busLat != 0 {
		for ei := range ana.g.Edges {
			if ed := &ana.g.Edges[ei]; ed.Kind == ir.DepTrue && ed.From != ed.To {
				n++
			}
		}
	}
	if occ := len(ana.groups) * ana.nclust; occ > ana.busCap {
		n += e.ii * (occ + ana.busCap*(occ-1))
	}
	return n
}

// aGe returns the literal for "start(i) >= t" plus a constant marker:
// +1 when the bound is vacuously true (t <= 0), -1 when it is
// unsatisfiable within the horizon (t >= h).
func (e *encoder) aGe(i, t int) (sat.Lit, int) {
	if t <= 0 {
		return 0, 1
	}
	if t >= e.h {
		return 0, -1
	}
	return sat.Pos(e.a[i][t]), 0
}

// instrClauses emits the per-instruction structure: at-least-one issue
// cycle, the ladder (whose channeling makes at-most-one free), residue
// channeling, and exactly-one functional unit with cluster channeling.
func (e *encoder) instrClauses() {
	ana := e.ana
	lits := e.lits
	for i := 0; i < ana.n; i++ {
		lits = lits[:0]
		for t := 0; t < e.h; t++ {
			lits = append(lits, sat.Pos(e.x[i][t]))
		}
		e.s.AddClause(lits...)
		// Ladder coherence: start >= t+1 implies start >= t.
		for t := 1; t+1 < e.h; t++ {
			e.s.AddClause(sat.Neg(e.a[i][t+1]), sat.Pos(e.a[i][t]))
		}
		for t := 0; t < e.h; t++ {
			// Issuing at t pins the ladder to exactly t: start >= t and
			// not start >= t+1. Two x's at different cycles then
			// contradict through the ladder — at-most-one for free.
			if t >= 1 {
				e.s.AddClause(sat.Neg(e.x[i][t]), sat.Pos(e.a[i][t]))
			}
			if t+1 < e.h {
				e.s.AddClause(sat.Neg(e.x[i][t]), sat.Neg(e.a[i][t+1]))
			}
			// Residue channel, one direction only: a spuriously-true
			// residue var can only tighten the resource constraints, so
			// models stay sound and the solver simply never needs one.
			e.s.AddClause(sat.Neg(e.x[i][t]), sat.Pos(e.m[i][t%e.ii]))
		}
		// Exactly one compatible unit.
		lits = lits[:0]
		for k := range ana.compat[i] {
			lits = append(lits, sat.Pos(e.p[i][k]))
		}
		e.s.AddClause(lits...)
		for k1 := 0; k1 < len(ana.compat[i]); k1++ {
			for k2 := k1 + 1; k2 < len(ana.compat[i]); k2++ {
				e.s.AddClause(sat.Neg(e.p[i][k1]), sat.Neg(e.p[i][k2]))
			}
		}
		if ana.nclust > 1 {
			// Cluster channeling + pairwise AMO makes c exact: the real
			// cluster is forced true, AMO forces the rest false.
			for k, u := range ana.compat[i] {
				e.s.AddClause(sat.Neg(e.p[i][k]), sat.Pos(e.c[i][ana.units[u].cluster]))
			}
			for c1 := 0; c1 < ana.nclust; c1++ {
				for c2 := c1 + 1; c2 < ana.nclust; c2++ {
					e.s.AddClause(sat.Neg(e.c[i][c1]), sat.Neg(e.c[i][c2]))
				}
			}
		}
	}
}

// dependenceClauses emits start(To) >= start(From) + Latency - Distance*II
// for every edge, ladder-style: issuing From at t forces the To ladder at
// t + slack. True dependences that may cross clusters get a second,
// cross-guarded family adding the bus latency — exactly
// Schedule.EdgeLatency's rule.
func (e *encoder) dependenceClauses() {
	ana := e.ana
	for ei := range ana.g.Edges {
		ed := &ana.g.Edges[ei]
		c0 := ed.Latency - ed.Distance*e.ii
		for t := 0; t < e.h; t++ {
			lit, konst := e.aGe(ed.To, t+c0)
			switch konst {
			case -1:
				e.s.AddClause(sat.Neg(e.x[ed.From][t]))
			case 0:
				e.s.AddClause(sat.Neg(e.x[ed.From][t]), lit)
			}
		}
		if ed.Kind != ir.DepTrue || ed.From == ed.To || ana.nclust <= 1 || ana.busLat == 0 {
			continue
		}
		// cross is forced true when the endpoints' clusters differ; when
		// true it arms the penalty family below. The reverse channel
		// (same cluster forces it false) is redundant for correctness but
		// cheap and helps propagation.
		cross := e.newVar()
		for cl := 0; cl < ana.nclust; cl++ {
			e.s.AddClause(sat.Neg(e.c[ed.From][cl]), sat.Pos(e.c[ed.To][cl]), sat.Pos(cross))
			e.s.AddClause(sat.Neg(e.c[ed.From][cl]), sat.Neg(e.c[ed.To][cl]), sat.Neg(cross))
		}
		c1 := c0 + ana.busLat
		for t := 0; t < e.h; t++ {
			lit, konst := e.aGe(ed.To, t+c1)
			switch konst {
			case -1:
				e.s.AddClause(sat.Neg(cross), sat.Neg(e.x[ed.From][t]))
			case 0:
				e.s.AddClause(sat.Neg(cross), sat.Neg(e.x[ed.From][t]), lit)
			}
		}
	}
}

// resourceClauses emits the modulo reservation table: no two
// instructions on the same functional unit in the same residue class.
func (e *encoder) resourceClauses() {
	ana := e.ana
	e.on = slices.Grow(e.on[:0], ana.n)
	on := e.on // instructions that can run on u, ascending
	for u := range ana.units {
		on = on[:0]
		for i := 0; i < ana.n; i++ {
			if ana.unitIdx[i][u] >= 0 {
				on = append(on, i)
			}
		}
		for r := 0; r < e.ii; r++ {
			for a1 := 0; a1 < len(on); a1++ {
				for a2 := a1 + 1; a2 < len(on); a2++ {
					i, j := on[a1], on[a2]
					e.s.AddClause(
						sat.Neg(e.p[i][ana.unitIdx[i][u]]), sat.Neg(e.p[j][ana.unitIdx[j][u]]),
						sat.Neg(e.m[i][r]), sat.Neg(e.m[j][r]))
				}
			}
		}
	}
}

// busClauses emits the bus bandwidth cap: a transfer group delivering
// into a cluster its producer does not occupy claims a bus at the cycle
// the value leaves the producer (issue + latency, mod II — the
// TransferCycle rule), and each residue carries at most BusCount
// transfers, enforced with a sequential-counter cardinality encoding.
func (e *encoder) busClauses() {
	ana := e.ana
	if ana.nclust <= 1 || len(ana.groups) == 0 {
		return
	}
	for gi, grp := range ana.groups {
		for cl := 0; cl < ana.nclust; cl++ {
			for _, g := range grp.cons {
				// Consumer on cl with the producer elsewhere forces the
				// transfer; same-cluster consumers ride the broadcast of
				// nothing (the value is local).
				e.s.AddClause(sat.Neg(e.c[g][cl]), sat.Pos(e.c[grp.from][cl]), sat.Pos(e.tr[gi][cl]))
			}
		}
	}
	if len(ana.groups)*ana.nclust <= ana.busCap {
		return // can never exceed the cap
	}
	occ := e.lits
	for r := 0; r < e.ii; r++ {
		occ = occ[:0]
		for gi, grp := range ana.groups {
			// The group occupies a bus at residue r iff a transfer exists
			// and the producer's issue residue is r - latency (mod II).
			rs := ((r-ana.lat[grp.from])%e.ii + e.ii) % e.ii
			for cl := 0; cl < ana.nclust; cl++ {
				u := e.newVar()
				e.s.AddClause(sat.Neg(e.tr[gi][cl]), sat.Neg(e.m[grp.from][rs]), sat.Pos(u))
				occ = append(occ, sat.Pos(u))
			}
		}
		e.atMostK(occ, ana.busCap)
	}
}

// atMostK emits the Sinz sequential-counter encoding of "at most k of
// lits are true". The counter variables are one-directional — spurious
// truth only tightens — which keeps the clause count at O(n·k).
func (e *encoder) atMostK(lits []sat.Lit, k int) {
	n := len(lits)
	if n <= k {
		return
	}
	if k == 0 {
		for _, l := range lits {
			e.s.AddClause(l.Not())
		}
		return
	}
	if cap(e.counter) < 2*k {
		e.counter = make([]int, 2*k)
	}
	prev, cur := e.counter[:k], e.counter[k:2*k]
	for j := range prev {
		prev[j] = e.newVar()
	}
	e.s.AddClause(lits[0].Not(), sat.Pos(prev[0]))
	for j := 1; j < n; j++ {
		// Overflow: the j-th literal with k already counted is a conflict.
		e.s.AddClause(lits[j].Not(), sat.Neg(prev[k-1]))
		if j == n-1 {
			break
		}
		for kk := range cur {
			cur[kk] = e.newVar()
		}
		e.s.AddClause(lits[j].Not(), sat.Pos(cur[0]))
		e.s.AddClause(sat.Neg(prev[0]), sat.Pos(cur[0]))
		for kk := 1; kk < k; kk++ {
			e.s.AddClause(lits[j].Not(), sat.Neg(prev[kk-1]), sat.Pos(cur[kk]))
			e.s.AddClause(sat.Neg(prev[kk]), sat.Pos(cur[kk]))
		}
		prev, cur = cur, prev
	}
}

// decode reads the model into a schedule. The caller validates; a
// failure there is an encoder bug, never a user error.
func (e *encoder) decode() (*sched.Schedule, error) {
	ana := e.ana
	plc := make([]sched.Placement, ana.n)
	for i := 0; i < ana.n; i++ {
		cycle := -1
		for t := 0; t < e.h; t++ {
			if e.s.Value(e.x[i][t]) {
				cycle = t
				break
			}
		}
		unit := -1
		for k, u := range ana.compat[i] {
			if e.s.Value(e.p[i][k]) {
				unit = u
				break
			}
		}
		if cycle < 0 || unit < 0 {
			return nil, fmt.Errorf("opt: internal: model leaves instruction %d unplaced", i)
		}
		plc[i] = sched.Placement{Cycle: cycle, Cluster: ana.units[unit].cluster, Slot: ana.units[unit].slot}
	}
	return &sched.Schedule{
		Loop:       ana.req.Loop,
		Machine:    ana.req.Machine,
		Graph:      ana.g,
		II:         e.ii,
		Placements: plc,
		By:         Name,
	}, nil
}
