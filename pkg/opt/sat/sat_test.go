package sat

import (
	"slices"
	"strings"
	"testing"
)

// mk builds a solver with n fresh variables.
func mk(n int) *Solver {
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

func TestTrivialSat(t *testing.T) {
	s := mk(2)
	s.AddClause(Pos(0), Pos(1))
	s.AddClause(Neg(0))
	if got := s.Solve(0, nil); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	if s.Value(0) || !s.Value(1) {
		t.Fatalf("model = (%v,%v), want (false,true)", s.Value(0), s.Value(1))
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := mk(1)
	s.AddClause(Pos(0))
	s.AddClause(Neg(0))
	if got := s.Solve(0, nil); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := mk(1)
	s.AddClause()
	if got := s.Solve(0, nil); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := mk(1)
	s.AddClause(Pos(0), Neg(0))
	if got := s.Solve(0, nil); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
}

func TestNoClausesSat(t *testing.T) {
	s := mk(3)
	if got := s.Solve(0, nil); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
}

// TestChainImplication exercises propagation through a long implication
// chain ending in a contradiction.
func TestChainImplication(t *testing.T) {
	const n = 50
	s := mk(n)
	s.AddClause(Pos(0))
	for i := 0; i < n-1; i++ {
		s.AddClause(Neg(i), Pos(i+1))
	}
	s.AddClause(Neg(n - 1))
	if got := s.Solve(0, nil); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

// formula is a clause set with the conflict budget to solve it under.
type formula struct {
	nvars   int
	clauses [][]Lit
	budget  int64
}

// load builds f on s and returns s.
func load(s *Solver, f formula) *Solver {
	s.NewVars(f.nvars)
	for _, c := range f.clauses {
		s.AddClause(c...)
	}
	return s
}

// pigeonholeCNF encodes n+1 pigeons into n holes — classically UNSAT
// and a real workout for conflict analysis.
func pigeonholeCNF(n int) formula {
	f := formula{nvars: (n + 1) * n}
	v := func(p, h int) int { return p*n + h }
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = Pos(v(p, h))
		}
		f.clauses = append(f.clauses, lits)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				f.clauses = append(f.clauses, []Lit{Neg(v(p1, h)), Neg(v(p2, h))})
			}
		}
	}
	return f
}

func pigeonhole(n int) *Solver { return load(New(), pigeonholeCNF(n)) }

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := pigeonhole(n)
		if got := s.Solve(0, nil); got != Unsat {
			t.Fatalf("pigeonhole(%d) = %v, want unsat", n, got)
		}
	}
}

func TestBudgetReturnsUnknown(t *testing.T) {
	s := pigeonhole(8) // hard enough that 10 conflicts cannot finish it
	if got := s.Solve(10, nil); got != Unknown {
		t.Fatalf("Solve(budget=10) = %v, want unknown", got)
	}
	if s.Conflicts() < 10 {
		t.Fatalf("Conflicts() = %d, want >= 10", s.Conflicts())
	}
}

func TestStopReturnsUnknown(t *testing.T) {
	s := pigeonhole(8)
	if got := s.Solve(0, func() bool { return true }); got != Unknown {
		t.Fatalf("Solve(stop=true) = %v, want unknown", got)
	}
}

// splitmix64 is the repo-standard in-test PRNG: deterministic across Go
// versions, unlike math/rand.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bruteForce checks satisfiability of a small clause set by enumeration.
func bruteForce(nvars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<nvars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m>>l.Var()&1 == 1
				if val != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandomDifferential cross-checks the solver against brute-force
// enumeration on hundreds of random 3-SAT-ish instances around the
// phase-transition density, and checks a found model actually satisfies
// every clause.
func TestRandomDifferential(t *testing.T) {
	rng := splitmix64(42)
	for iter := 0; iter < 400; iter++ {
		nvars := 3 + int(rng.next()%8) // 3..10
		nclauses := 1 + int(rng.next()%uint64(4*nvars))
		clauses := make([][]Lit, nclauses)
		for i := range clauses {
			width := 1 + int(rng.next()%3)
			c := make([]Lit, width)
			for j := range c {
				v := int(rng.next() % uint64(nvars))
				if rng.next()%2 == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses[i] = c
		}
		want := bruteForce(nvars, clauses)
		s := mk(nvars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve(0, nil)
		if (got == Sat) != want {
			t.Fatalf("iter %d: Solve = %v, brute force says sat=%v\nclauses: %v", iter, got, want, clauses)
		}
		if got == Sat {
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, c)
				}
			}
		}
	}
}

// TestDeterministic pins that two runs over the same clause set take the
// same number of conflicts and reach the same model — the property every
// byte-diffed artifact downstream depends on.
func TestDeterministic(t *testing.T) {
	build := func() *Solver {
		rng := splitmix64(7)
		s := mk(30)
		for i := 0; i < 120; i++ {
			a, b, c := int(rng.next()%30), int(rng.next()%30), int(rng.next()%30)
			lit := func(v int, neg uint64) Lit {
				if neg%2 == 0 {
					return Pos(v)
				}
				return Neg(v)
			}
			s.AddClause(lit(a, rng.next()), lit(b, rng.next()), lit(c, rng.next()))
		}
		return s
	}
	s1, s2 := build(), build()
	st1, st2 := s1.Solve(0, nil), s2.Solve(0, nil)
	if st1 != st2 || s1.Conflicts() != s2.Conflicts() {
		t.Fatalf("runs diverged: (%v,%d) vs (%v,%d)", st1, s1.Conflicts(), st2, s2.Conflicts())
	}
	if st1 == Sat {
		for v := 0; v < s1.NumVars(); v++ {
			if s1.Value(v) != s2.Value(v) {
				t.Fatalf("models diverged at var %d", v)
			}
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// randomCNF draws nclauses clauses of 2-5 literals over nvars variables.
func randomCNF(rng *splitmix64, nvars, nclauses int) formula {
	f := formula{nvars: nvars, clauses: make([][]Lit, nclauses)}
	for i := range f.clauses {
		c := make([]Lit, 2+int(rng.next()%4))
		for j := range c {
			v := int(rng.next() % uint64(nvars))
			if rng.next()%2 == 0 {
				c[j] = Pos(v)
			} else {
				c[j] = Neg(v)
			}
		}
		f.clauses[i] = c
	}
	return f
}

// TestChunkedStorageIntegrity drives instances large enough that clause
// literals and watch lists span several chunks, with learnt clauses cut
// from the same chunks during search. propagate and analyze swap
// literals in place, so a clause whose storage aliased a neighbour's
// would corrupt it: every model must satisfy every clause as it was
// added, and every stored problem clause must still hold the literal
// set it held before Solve. Each instance is also built on one dirty
// solver that Reset rewinds between instances, whose chunks still hold
// the previous instances' literals: every clause it stores, problem or
// learnt, must equal the new solver's clause of the same ref, before
// and after Solve, so no stale literal ever reaches a clause.
func TestChunkedStorageIntegrity(t *testing.T) {
	rng := splitmix64(2024)
	reused := New()
	var sats, conflicts int
	for iter := 0; iter < 40; iter++ {
		nvars := 150 + int(rng.next()%150)
		f := randomCNF(&rng, nvars, nvars*(3+int(rng.next()%2))) // around the 3-SAT threshold
		s := load(New(), f)
		reused.Reset()
		load(reused, f)
		if s.litChunks.total <= minLitChunk || s.watchChunks.total <= minWatchChunk {
			t.Fatalf("iter %d: storage fits one chunk (%d literals, %d watchers); grow the instance",
				iter, s.litChunks.total, s.watchChunks.total)
		}
		sameClauses(t, iter, "after AddClause", s, reused)
		before := make([][]Lit, len(s.clauses))
		for ref, c := range s.clauses {
			before[ref] = sortedLits(c)
		}
		st := s.Solve(0, nil)
		if rst := reused.Solve(0, nil); rst != st || reused.Conflicts() != s.Conflicts() {
			t.Fatalf("iter %d: reset solver (%v, %d conflicts) vs new solver (%v, %d)",
				iter, rst, reused.Conflicts(), st, s.Conflicts())
		}
		sameClauses(t, iter, "after Solve", s, reused)
		conflicts += int(s.Conflicts())
		for ref, want := range before {
			if got := sortedLits(s.clauses[ref]); !slices.Equal(got, want) {
				t.Fatalf("iter %d: problem clause %d changed during Solve: %v, want %v", iter, ref, got, want)
			}
		}
		if st != Sat {
			continue
		}
		sats++
		for i, c := range f.clauses {
			if !slices.ContainsFunc(c, func(l Lit) bool { return s.Value(l.Var()) != l.Sign() }) {
				t.Fatalf("iter %d: model violates added clause %d %v", iter, i, c)
			}
		}
	}
	if sats == 0 || conflicts == 0 {
		t.Fatalf("%d SAT instances, %d conflicts: the corpus no longer exercises models and learnt clauses", sats, conflicts)
	}
}

// sameClauses fails unless the reused solver stores exactly the new
// solver's clauses, ref by ref and literal by literal, each over
// variables the formula declared.
func sameClauses(t *testing.T, iter int, when string, s, reused *Solver) {
	t.Helper()
	if len(reused.clauses) != len(s.clauses) {
		t.Fatalf("iter %d %s: reset solver stores %d clauses, new solver %d", iter, when, len(reused.clauses), len(s.clauses))
	}
	for ref, c := range reused.clauses {
		if !slices.Equal(c, s.clauses[ref]) {
			t.Fatalf("iter %d %s: clause %d is %v on the reset solver, %v on the new one", iter, when, ref, c, s.clauses[ref])
		}
		for _, l := range c {
			if l.Var() >= reused.NumVars() {
				t.Fatalf("iter %d %s: clause %d holds stale literal %d of %d variables", iter, when, ref, l, reused.NumVars())
			}
		}
	}
}

// TestResetMatchesNew is the differential test of Reset: one solver
// reused across a sequence of formulas — satisfiable and not, small and
// large, finished and cut off by the conflict budget — must reach the
// same status after the same conflicts with the same model as a new
// solver per formula. The formulas shrink and grow in turn, so each one
// lands on tables and chunks the previous one left dirty.
func TestResetMatchesNew(t *testing.T) {
	rng := splitmix64(99)
	var seq []formula
	for i := 0; i < 30; i++ {
		nvars := 20 + int(rng.next()%200)
		seq = append(seq, randomCNF(&rng, nvars, nvars*(3+int(rng.next()%3))))
		if i%10 == 4 {
			php := pigeonholeCNF(5 + i/10)
			seq = append(seq, php)
			php.budget = 10 // cut off long before the proof
			seq = append(seq, php)
		}
	}
	big := pigeonholeCNF(8)
	big.budget = 4000 // long enough for reduceDB to run, short of the proof
	seq = append(seq, big, randomCNF(&rng, 60, 250))
	reused := New()
	seen := map[Status]int{}
	for i, f := range seq {
		s := load(New(), f)
		st := s.Solve(f.budget, nil)
		reused.Reset()
		rst := load(reused, f).Solve(f.budget, nil)
		if rst != st || reused.Conflicts() != s.Conflicts() || reused.NumClauses() != s.NumClauses() {
			t.Fatalf("formula %d: reset solver (%v, %d conflicts, %d clauses) vs new solver (%v, %d, %d)",
				i, rst, reused.Conflicts(), reused.NumClauses(), st, s.Conflicts(), s.NumClauses())
		}
		if st == Sat {
			for v := 0; v < f.nvars; v++ {
				if reused.Value(v) != s.Value(v) {
					t.Fatalf("formula %d: models differ at variable %d", i, v)
				}
			}
		}
		seen[st]++
	}
	if seen[Sat] == 0 || seen[Unsat] == 0 || seen[Unknown] == 0 {
		t.Fatalf("outcomes %v: the sequence must cover sat, unsat and budget-exhausted formulas", seen)
	}
	if cap(reused.delBuf) == 0 {
		t.Fatal("no formula ran reduceDB: the sequence no longer reuses its scratch")
	}
}

func sortedLits(c []Lit) []Lit {
	out := slices.Clone(c)
	slices.Sort(out)
	return out
}

// TestNewVarsMatchesNewVar pins that one NewVars(k) block numbers its
// variables, and enters them in the decision order (as cold, never
// bumped candidates), exactly as k NewVar calls: the same clause set
// then takes the same conflicts to the same model.
func TestNewVarsMatchesNewVar(t *testing.T) {
	build := func(block bool) *Solver {
		s := New()
		if block {
			if first := s.NewVars(25); first != 0 {
				t.Fatalf("NewVars(25) on an empty solver = %d, want 0", first)
			}
			if first := s.NewVars(15); first != 25 {
				t.Fatalf("second NewVars = %d, want 25", first)
			}
		} else {
			for i := 0; i < 40; i++ {
				s.NewVar()
			}
		}
		rng := splitmix64(11)
		for i := 0; i < 170; i++ {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = Lit(rng.next() % 80)
			}
			s.AddClause(c...)
		}
		return s
	}
	a, b := build(false), build(true)
	sa, sb := a.Solve(0, nil), b.Solve(0, nil)
	if sa != sb || a.Conflicts() != b.Conflicts() || a.NumVars() != b.NumVars() {
		t.Fatalf("NewVar run (%v, %d conflicts, %d vars) vs NewVars run (%v, %d, %d)",
			sa, a.Conflicts(), a.NumVars(), sb, b.Conflicts(), b.NumVars())
	}
	if a.Conflicts() == 0 {
		t.Fatal("instance needs no conflicts; it no longer exercises the decision order")
	}
	for v := 0; v < a.NumVars(); v++ {
		if a.Value(v) != b.Value(v) {
			t.Fatalf("models differ at variable %d", v)
		}
	}
}

// TestSolvedSolverNeedsReset pins that a solver solves once. Without
// Reset, the second formula's clauses would be added at the decision
// level the first Solve ended on: adding the negation of the model of
// (x0∨x1)(x1∨x2) dropped literals false only under the first solve's
// decisions and answered Unsat, though the formula is satisfiable. Both
// AddClause and Solve on a solved solver panic naming Reset; after
// Reset the same formula is solved correctly.
func TestSolvedSolverNeedsReset(t *testing.T) {
	build := func(s *Solver, extra ...[]Lit) *Solver {
		s.NewVars(3)
		s.AddClause(Pos(0), Pos(1))
		s.AddClause(Pos(1), Pos(2))
		for _, c := range extra {
			s.AddClause(c...)
		}
		return s
	}
	for _, call := range []struct {
		name string
		do   func(s *Solver, negModel []Lit)
	}{
		{"AddClause", func(s *Solver, negModel []Lit) { s.AddClause(negModel...) }},
		{"Solve", func(s *Solver, _ []Lit) { s.Solve(0, nil) }},
	} {
		s := build(New())
		if st := s.Solve(0, nil); st != Sat {
			t.Fatalf("first Solve = %v, want sat", st)
		}
		negModel := make([]Lit, 3)
		for v := range negModel {
			if s.Value(v) {
				negModel[v] = Neg(v)
			} else {
				negModel[v] = Pos(v)
			}
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Reset") {
					t.Errorf("%s on a solved solver: recovered %q, want a panic naming Reset", call.name, msg)
				}
			}()
			call.do(s, negModel)
		}()
		s.Reset()
		if st := build(s, negModel).Solve(0, nil); st != Sat {
			t.Fatalf("after Reset, the formula plus the first model's negation = %v, want sat", st)
		}
	}
}

// maxFuzzVars bounds FuzzSolve's formulas so bruteForce stays cheap.
const maxFuzzVars = 12

// decodeCNF reads a formula from fuzz bytes: the first byte picks the
// variable count (1 to maxFuzzVars), and each later byte is either a
// clause end (0xf0 and up) or a literal over those variables. The
// clause still open at the end is kept when it has a literal; an empty
// clause from two ends in a row is kept too.
func decodeCNF(data []byte) formula {
	if len(data) == 0 {
		return formula{nvars: 1}
	}
	f := formula{nvars: 1 + int(data[0])%maxFuzzVars}
	var c []Lit
	for _, b := range data[1:] {
		if b >= 0xf0 {
			f.clauses = append(f.clauses, c)
			c = nil
			continue
		}
		c = append(c, Lit(int(b)%(2*f.nvars)))
	}
	if len(c) > 0 {
		f.clauses = append(f.clauses, c)
	}
	return f
}

// FuzzSolve checks the solver against brute-force enumeration on small
// formulas: the status must agree, a model must satisfy every clause,
// and a solver left dirty by another formula and then Reset must reach
// the new solver's status after the same conflicts with the same model.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{2, 0, 2, 0xff, 3, 5, 0xff, 1, 4})
	f.Add([]byte{0, 0, 0xff, 1})
	f.Add([]byte{11, 0, 3, 9, 0xf0, 1, 2, 0xf0, 0xf0})
	f.Add([]byte{5, 0, 2, 4, 0xff, 1, 3, 0xff, 0, 3, 0xff, 1, 2, 0xff, 5, 7, 0xff, 6, 8, 0xff, 9, 11})
	for _, seed := range []uint64{1, 2, 3} {
		rng := splitmix64(seed)
		data := []byte{byte(maxFuzzVars - 1)}
		for range 200 {
			data = append(data, byte(rng.next()%28))
			if rng.next()%3 == 0 {
				data = append(data, 0xff)
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		fm := decodeCNF(data)
		want := bruteForce(fm.nvars, fm.clauses)
		s := load(New(), fm)
		st := s.Solve(0, nil)
		if (st == Sat) != want || st == Unknown {
			t.Fatalf("Solve = %v, brute force says sat=%v\nclauses: %v", st, want, fm.clauses)
		}
		if st == Sat {
			for _, c := range fm.clauses {
				if !slices.ContainsFunc(c, func(l Lit) bool { return s.Value(l.Var()) != l.Sign() }) {
					t.Fatalf("model violates clause %v", c)
				}
			}
		}
		dirty := pigeonhole(4)
		dirty.Solve(0, nil)
		dirty.Reset()
		if rst := load(dirty, fm).Solve(0, nil); rst != st || dirty.Conflicts() != s.Conflicts() {
			t.Fatalf("reset solver (%v, %d conflicts) vs new solver (%v, %d)", rst, dirty.Conflicts(), st, s.Conflicts())
		}
		if st == Sat {
			for v := range fm.nvars {
				if dirty.Value(v) != s.Value(v) {
					t.Fatalf("models differ at variable %d", v)
				}
			}
		}
	})
}
