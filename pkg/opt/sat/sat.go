// Package sat is a small, self-contained, deterministic CDCL SAT solver
// — the decision engine behind the exact modulo-scheduling backend
// (pkg/opt). It exists so the repository needs no cgo and no external
// solver binary: the whole optimality story (SAT models decoded into
// schedules, UNSAT certificates proving an II infeasible) rests on ~600
// lines of auditable Go.
//
// The solver implements the standard conflict-driven clause-learning
// loop: two-watched-literal unit propagation, first-UIP conflict
// analysis with activity bumping, non-chronological backjumping,
// phase-saving, Luby restarts, and a VSIDS-style decision heuristic with
// a *fixed* tie-break (higher activity first, lower variable index on
// ties) so that every run over the same clause set makes the same
// decisions in the same order. Determinism is a contract, not an
// accident: the scheduling layer folds solver statistics into
// byte-diffed CI artifacts, so Solve must be a pure function of the
// clause set and the budget. There is no randomness, no map iteration,
// and no wall-clock anywhere in the search.
//
// Completeness is traded away only through the explicit conflict budget:
// Solve returns Unknown once the budget is exhausted, and callers treat
// Unknown as "no proof either way" — never as UNSAT.
//
// Storage is built for many formulas of tens of thousands of short
// clauses solved one after another: NewVars grows the per-variable
// tables once for a block of variables, clause literals are cut from
// shared chunks that grow geometrically (each clause a full slice
// expression, so none aliases another), and watch lists live in shared
// watcher chunks. Reset returns a solver to its New state but keeps all
// of that storage, so the next formula is carved from the same memory.
// A formula therefore costs a few dozen allocations on a new solver and
// next to none on a reset one, and the layout never influences the
// search: variable numbering, clause refs and watch order are exactly
// those of clause-at-a-time appends on a new solver.
package sat

import "slices"

// Lit is a literal: variable index shifted left once, with the low bit
// set for negation. Variables are dense non-negative ints handed out by
// NewVar.
type Lit uint32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(v << 1) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(v<<1 | 1) }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is a solve outcome.
type Status uint8

const (
	// Unknown means the conflict budget (or an external stop) ended the
	// search before a proof either way.
	Unknown Status = iota
	// Sat means a model was found; read it with Value.
	Sat
	// Unsat means the clause set was proved unsatisfiable.
	Unsat
)

// String renders the status for logs.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

const (
	lTrue  int8 = 1
	lFalse int8 = -1
	lUndef int8 = 0
)

// watcher is one entry of a literal's watch list: the clause reference
// plus a blocker literal (some other literal of the clause) checked
// before the clause itself is touched — most visits end at the blocker,
// which keeps propagation cache-friendly.
type watcher struct {
	ref     int32
	blocker Lit
}

// Solver is one CDCL instance. Build the problem with NewVar/NewVars and
// AddClause, then call Solve once; call Reset before building the next
// problem on the same solver. A solver is not safe for concurrent use.
type Solver struct {
	nVars   int
	clauses [][]Lit // problem and learnt clauses, by clause reference
	watches [][]watcher

	// Clause literals and watch lists are cut from shared chunks instead
	// of being allocated one by one.
	litChunks   chunks[Lit]
	watchChunks chunks[watcher]

	value    []int8 // per literal: lTrue/lFalse/lUndef (both polarities kept)
	level    []int32
	reason   []int32 // clause ref forcing the variable, or -1
	polarity []bool  // saved phase; decisions reuse the last value
	activity []float64
	varInc   float64

	trail    []Lit
	trailLim []int
	qhead    int

	heap    []int32 // binary max-heap of unassigned decision candidates
	heapPos []int32 // var -> heap index, -1 when absent

	seen      []bool // scratch for conflict analysis
	learntBuf []Lit
	clearBuf  []int32 // vars whose seen flag analyze must reset
	delBuf    []int32 // reduceDB scratch: deletable learnt indices
	sortBuf   []int32 // reduceDB scratch: merge-sort buffer

	// Learnt-clause management: clauses below nProblem are the problem
	// and immortal; learnt clauses above it carry an activity
	// (claActivity[ref-nProblem]) and the low-activity half is deleted
	// once the live count passes a limit that grows with restarts —
	// without this, propagation slows to a crawl on long runs as the
	// watch lists bloat.
	nProblem    int
	claActivity []float64
	claInc      float64
	liveLearnts int

	ok        bool // false once an empty clause is derived at level 0
	conflicts int64
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{ok: true, varInc: 1, claInc: 1}
}

// Reset returns the solver to exactly the state New returns — no
// variables, no clauses, no learnt facts, activities, phases or
// statistics — but keeps the capacity of every table, chunk and scratch
// buffer, so building and solving the next formula allocates next to
// nothing. A reset solver runs any formula exactly as a new one does:
// the same conflicts to the same model.
func (s *Solver) Reset() {
	*s = Solver{
		clauses:     s.clauses[:0],
		watches:     s.watches[:0],
		litChunks:   s.litChunks.rewound(),
		watchChunks: s.watchChunks.rewound(),
		value:       s.value[:0],
		level:       s.level[:0],
		reason:      s.reason[:0],
		polarity:    s.polarity[:0],
		activity:    s.activity[:0],
		varInc:      1,
		trail:       s.trail[:0],
		trailLim:    s.trailLim[:0],
		heap:        s.heap[:0],
		heapPos:     s.heapPos[:0],
		seen:        s.seen[:0],
		learntBuf:   s.learntBuf[:0],
		clearBuf:    s.clearBuf[:0],
		delBuf:      s.delBuf[:0],
		sortBuf:     s.sortBuf[:0],
		claActivity: s.claActivity[:0],
		claInc:      1,
		ok:          true,
	}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int { return s.NewVars(1) }

// NewVars allocates k fresh variables and returns the first index; they
// are numbered first, first+1, …, first+k-1, exactly as k NewVar calls
// would number them, but every per-variable table grows once.
//
// Every new entry is written here (appending make(...) zeroes the
// extension in place, without a temporary), which is what lets Reset
// merely truncate the tables.
func (s *Solver) NewVars(k int) int {
	first := s.nVars
	s.nVars += k
	s.watches = append(s.watches, make([][]watcher, 2*k)...) // nil lists: no stale span survives a Reset
	s.value = append(s.value, make([]int8, 2*k)...)          // lUndef is 0
	s.level = append(s.level, make([]int32, k)...)
	s.reason = slices.Grow(s.reason, k)
	for range k {
		s.reason = append(s.reason, -1)
	}
	s.heapPos = append(s.heapPos, make([]int32, k)...) // set by heapInsert below
	s.polarity = append(s.polarity, make([]bool, k)...)
	s.activity = append(s.activity, make([]float64, k)...)
	s.seen = append(s.seen, make([]bool, k)...)
	s.trail = slices.Grow(s.trail, s.nVars-len(s.trail)) // a trail never outgrows the variables
	s.heap = slices.Grow(s.heap, k)
	for v := first; v < s.nVars; v++ {
		s.heapInsert(int32(v))
	}
	return first
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of stored clauses (problem + learnt).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Conflicts returns the conflicts spent so far; it is deterministic for
// a fixed clause set and budget.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Value returns the model value of variable v after Solve returned Sat.
func (s *Solver) Value(v int) bool { return s.value[Pos(v)] == lTrue }

func (s *Solver) litValue(l Lit) int8 { return s.value[l] }

// AddClause adds a clause over the given literals. It must be called
// before Solve (the solver is at decision level 0). Tautologies are
// dropped, duplicate literals merged, and literals already false at
// level 0 removed; an empty (or emptied) clause makes the instance
// trivially unsatisfiable. The literal slice is copied.
func (s *Solver) AddClause(lits ...Lit) {
	if !s.ok {
		return
	}
	// Sort-free small-clause normalisation: clauses here are tiny (2-4
	// literals except the per-instruction at-least-one rows), so the
	// quadratic dedup is cheaper than sorting.
	out := s.learntBuf[:0]
	for _, l := range lits {
		switch s.litValue(l) {
		case lTrue:
			s.learntBuf = out
			return // satisfied at level 0
		case lFalse:
			continue // can never help
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			s.learntBuf = out
			return
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.learntBuf = out[:0]
	switch len(out) {
	case 0:
		s.ok = false
		return
	case 1:
		s.enqueue(out[0], -1)
		if s.propagate() >= 0 {
			s.ok = false
		}
		return
	}
	s.attach(out)
}

const (
	minLitChunk   = 1024
	minWatchChunk = 1024
	minWatchCap   = 4 // first capacity of a watch list
	minClauses    = 256
)

// chunks hands out spans of T cut from a list of chunks. A new chunk
// holds at least min elements, the request, and everything allocated
// before it, so chunk sizes grow geometrically and a formula costs
// O(log size) chunk allocations. rewound keeps every chunk for reuse.
type chunks[T any] struct {
	list  [][]T // every chunk allocated, in carving order
	next  int   // index of the first chunk not yet carved from
	free  []T   // free tail of the chunk being carved
	total int   // elements in list, which sizes the next new chunk
}

// carve cuts a span of n elements (capacity n) off the free tail,
// moving on to the next kept chunk — or a new one past the end of the
// list — when the tail is too short.
func (c *chunks[T]) carve(n, min int) []T {
	for len(c.free) < n {
		if c.next == len(c.list) {
			size := max(n, c.total, min)
			c.list = append(c.list, make([]T, size))
			c.total += size
		}
		c.free = c.list[c.next]
		c.next++
	}
	span := c.free[:n:n]
	c.free = c.free[n:]
	return span
}

// rewound returns the chunk list with every chunk free again. Stale
// elements stay in the chunks; carve's callers overwrite a span before
// they read it, so none ever reaches a clause or a watch list.
func (c chunks[T]) rewound() chunks[T] {
	return chunks[T]{list: c.list, total: c.total}
}

// attach copies a (already normalised, >= 2 literal) clause into the
// literal chunks, stores it and watches its first two literals. Each
// clause is a full slice expression of its chunk — its capacity ends
// where its literals do — so no clause can ever grow into a neighbour.
// A learnt clause reduceDB deletes leaves its literals in the chunk
// until the next Reset, so that waste is bounded by what one solve
// learns.
func (s *Solver) attach(lits []Lit) int32 {
	c := s.litChunks.carve(len(lits), minLitChunk)
	copy(c, lits)
	ref := int32(len(s.clauses))
	if len(s.clauses) == cap(s.clauses) {
		// Double rather than let append grow large tables by 1.25×,
		// which reallocates a formula's clause table a dozen more times.
		s.clauses = slices.Grow(s.clauses, max(len(s.clauses), minClauses))
	}
	s.clauses = append(s.clauses, c)
	s.watch(c[0].Not(), watcher{ref, c[1]})
	s.watch(c[1].Not(), watcher{ref, c[0]})
	return ref
}

// watch appends w to l's watch list. A full list moves to a span of
// twice its capacity carved from the watcher chunks (its old span is
// abandoned there), so watch lists cost no allocation of their own and
// keep their order exactly as plain append would.
func (s *Solver) watch(l Lit, w watcher) {
	ws := s.watches[l]
	if len(ws) == cap(ws) {
		grown := s.watchChunks.carve(max(2*cap(ws), minWatchCap), minWatchChunk)
		copy(grown, ws)
		ws = grown[:len(ws)]
	}
	s.watches[l] = append(ws, w)
}

// bumpClause raises a learnt clause's activity (problem clauses are
// immortal and skip the bookkeeping).
func (s *Solver) bumpClause(ref int32) {
	i := int(ref) - s.nProblem
	if i < 0 {
		return
	}
	s.claActivity[i] += s.claInc
	if s.claActivity[i] > 1e100 {
		for j := range s.claActivity {
			s.claActivity[j] *= 1e-100
		}
		s.claInc *= 1e-100
	}
}

// reduceDB deletes the low-activity half of the deletable learnt
// clauses (ternary and wider; binary learnts are cheap and kept). It
// must be called at decision level 0; level-0 assignments are permanent
// facts, so their reason clauses are released first. The survivors'
// order — and hence the rest of the run — depends only on clause
// activities and refs, both deterministic.
func (s *Solver) reduceDB() {
	for _, l := range s.trail {
		s.reason[l.Var()] = -1
	}
	// Collect deletable learnt clauses by learnt index (ref - nProblem,
	// which orders like the ref): activity ascending, index ascending on
	// ties, so deletion order is reproducible.
	del := s.delBuf[:0]
	for i, c := range s.clauses[s.nProblem:] {
		if len(c) > 2 {
			del = append(del, int32(i))
		}
	}
	s.delBuf = del
	if len(del) < 2 {
		return
	}
	s.sortBuf = sortRefsByActivity(del, s.claActivity, s.sortBuf)
	for _, i := range del[:len(del)/2] {
		s.clauses[s.nProblem+int(i)] = nil
		s.liveLearnts--
	}
	for li := range s.watches {
		ws := s.watches[li]
		kept := ws[:0]
		for _, w := range ws {
			if s.clauses[w.ref] != nil {
				kept = append(kept, w)
			}
		}
		s.watches[li] = kept
	}
}

// sortRefsByActivity sorts learnt indices by ascending activity, breaking
// ties on the index itself (stable under identical inputs). tmp is the
// merge buffer, grown as needed and returned for reuse.
func sortRefsByActivity(refs []int32, act []float64, tmp []int32) []int32 {
	// Simple bottom-up merge sort on a scratch copy: deterministic and
	// allocation-free once the buffer has grown.
	tmp = slices.Grow(tmp[:0], len(refs))[:len(refs)]
	for width := 1; width < len(refs); width *= 2 {
		for lo := 0; lo < len(refs); lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > len(refs) {
				mid = len(refs)
			}
			if hi > len(refs) {
				hi = len(refs)
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				a, b := refs[i], refs[j]
				if act[a] < act[b] || (act[a] == act[b] && a <= b) {
					tmp[k] = a
					i++
				} else {
					tmp[k] = b
					j++
				}
				k++
			}
			for i < mid {
				tmp[k] = refs[i]
				i++
				k++
			}
			for j < hi {
				tmp[k] = refs[j]
				j++
				k++
			}
			copy(refs[lo:hi], tmp[lo:hi])
		}
	}
	return tmp
}

// enqueue asserts literal l with the given reason clause (or -1).
func (s *Solver) enqueue(l Lit, reason int32) {
	v := l.Var()
	s.value[l], s.value[l.Not()] = lTrue, lFalse
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to fixpoint. It returns the reference
// of a conflicting clause, or -1 when no conflict arose.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; visit clauses watching ¬p
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			// Blocker check: if any known-true literal of the clause is
			// cached here the clause is satisfied and never loaded.
			if s.litValue(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := s.clauses[w.ref]
			// Normalise so c[0] is the other watched literal.
			if c[0] == p.Not() {
				c[0], c[1] = c[1], c[0]
			}
			if s.litValue(c[0]) == lTrue {
				kept = append(kept, watcher{w.ref, c[0]})
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(c); k++ {
				if s.litValue(c[k]) != lFalse {
					c[1], c[k] = c[k], c[1]
					s.watch(c[1].Not(), watcher{w.ref, c[0]})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting under the current assignment.
			kept = append(kept, watcher{w.ref, c[0]})
			if s.litValue(c[0]) == lFalse {
				// Conflict: keep the remaining watchers, restore and bail.
				kept = append(kept, ws[wi+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return w.ref
			}
			s.enqueue(c[0], w.ref)
		}
		s.watches[p] = kept
	}
	return -1
}

// decisionLevel returns the current decision level.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// cancelUntil backtracks to the given decision level, saving phases and
// re-inserting unassigned variables into the order heap.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.value[Pos(v)] == lTrue
		s.value[Pos(v)], s.value[Neg(v)] = lUndef, lUndef
		s.reason[v] = -1
		if s.heapPos[v] < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP conflict analysis from the conflicting
// clause and returns the learnt clause (asserting literal first) and the
// backjump level.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := s.learntBuf[:0]
	learnt = append(learnt, 0) // slot for the asserting literal
	counter := 0
	var p Lit
	havep := false
	idx := len(s.trail) - 1
	for {
		s.bumpClause(confl)
		c := s.clauses[confl]
		start := 0
		if havep {
			start = 1 // c[0] is p itself once we chase reasons
		}
		for _, q := range c[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bump(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter <= 0 {
			break
		}
		confl = s.reason[p.Var()]
		havep = true
		// Reason clauses store the implied literal first; make that hold
		// for the chase above.
		if rc := s.clauses[confl]; rc[0] != p {
			for k := 1; k < len(rc); k++ {
				if rc[k] == p {
					rc[0], rc[k] = rc[k], rc[0]
					break
				}
			}
		}
	}
	learnt[0] = p.Not()
	// Self-subsumption minimization: a literal whose reason clause is
	// covered by the learnt clause (plus level-0 facts) is redundant.
	// The original literal set is recorded first so every seen flag is
	// reset even for the literals minimized away.
	s.clearBuf = s.clearBuf[:0]
	for _, l := range learnt {
		s.clearBuf = append(s.clearBuf, int32(l.Var()))
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		if !s.redundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]
	// Backjump level: the highest level among the other literals; move
	// that literal into the second watch position.
	blevel := 0
	if len(learnt) > 1 {
		maxi := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxi].Var()] {
				maxi = i
			}
		}
		learnt[1], learnt[maxi] = learnt[maxi], learnt[1]
		blevel = int(s.level[learnt[1].Var()])
	}
	for _, v := range s.clearBuf {
		s.seen[v] = false
	}
	s.learntBuf = learnt
	return learnt, blevel
}

// redundant reports whether a learnt literal is implied by the rest of
// the learnt clause: every antecedent in its reason is either a level-0
// fact or itself marked seen (i.e. already in the clause). Literals the
// current level forced never qualify — their reasons contain
// current-level variables, which are never seen here.
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r < 0 {
		return false
	}
	for _, q := range s.clauses[r] {
		v := q.Var()
		if v == l.Var() {
			continue
		}
		if s.level[v] != 0 && !s.seen[v] {
			return false
		}
	}
	return true
}

// bump raises a variable's activity and rescales all activities when
// they grow past the overflow guard.
func (s *Solver) bump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(int(s.heapPos[v]))
	}
}

// decayActivities implements VSIDS decay by growing the increment.
func (s *Solver) decayActivities() { s.varInc *= 1 / 0.95 }

// heapLess orders the decision heap: higher activity first, lower
// variable index on ties — the fixed tie-break determinism rests on.
func (s *Solver) heapLess(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *Solver) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heapPos[s.heap[i]] = int32(i)
		i = parent
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

// heapPopUnassigned removes and returns the best unassigned variable, or
// -1 when every variable is assigned.
func (s *Solver) heapPopUnassigned() int {
	for len(s.heap) > 0 {
		v := s.heap[0]
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heapPos[s.heap[0]] = 0
		s.heap = s.heap[:last]
		s.heapPos[v] = -1
		if len(s.heap) > 1 {
			s.heapDown(0)
		}
		if s.value[Pos(int(v))] == lUndef {
			return int(v)
		}
	}
	return -1
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,...
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// restartBase is the conflict budget of the first restart interval.
const restartBase = 100

// Solve runs the CDCL search. budget caps the total conflicts spent
// (<= 0 means unlimited); stop, when non-nil, is polled between restarts
// and every few hundred conflicts, and a true return ends the search
// with Unknown (the caller's cancellation hook — using it forfeits
// determinism of the *outcome*, never of a completed answer). The result
// is Sat (model readable via Value), Unsat (proof completed), or Unknown
// (budget or stop).
func (s *Solver) Solve(budget int64, stop func() bool) Status {
	if !s.ok {
		return Unsat
	}
	if confl := s.propagate(); confl >= 0 {
		return Unsat
	}
	s.nProblem = len(s.clauses)
	maxLearnts := s.nProblem / 3
	if maxLearnts < 2000 {
		maxLearnts = 2000
	}
	var restarts int64
	for {
		restarts++
		limit := luby(restarts) * restartBase
		st := s.search(limit, budget, stop)
		if st != Unknown {
			return st
		}
		if budget > 0 && s.conflicts >= budget {
			return Unknown
		}
		if stop != nil && stop() {
			return Unknown
		}
		s.cancelUntil(0)
		if s.liveLearnts >= maxLearnts {
			s.reduceDB()
			maxLearnts += maxLearnts / 10
		}
	}
}

// search runs one restart interval of at most limit conflicts. It
// returns Sat/Unsat on a definitive answer and Unknown when the interval
// (or the global budget/stop) ran out.
func (s *Solver) search(limit, budget int64, stop func() bool) Status {
	var local int64
	for {
		confl := s.propagate()
		if confl >= 0 {
			s.conflicts++
			local++
			if s.decisionLevel() == 0 {
				return Unsat
			}
			learnt, blevel := s.analyze(confl)
			s.cancelUntil(blevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], -1)
			} else {
				ref := s.attach(learnt)
				s.liveLearnts++
				s.claActivity = append(s.claActivity, s.claInc)
				s.enqueue(learnt[0], ref)
			}
			s.decayActivities()
			s.claInc *= 1 / 0.999
			if local >= limit || (budget > 0 && s.conflicts >= budget) {
				return Unknown
			}
			if local%256 == 0 && stop != nil && stop() {
				return Unknown
			}
			continue
		}
		v := s.heapPopUnassigned()
		if v < 0 {
			return Sat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		if s.polarity[v] {
			s.enqueue(Pos(v), -1)
		} else {
			s.enqueue(Neg(v), -1)
		}
	}
}
