package sat

import (
	"slices"
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

// pigeonhole encodes n+1 pigeons into n holes — classically UNSAT and a
// real workout for conflict analysis.
func pigeonhole(n int) *Solver {
	s := New()
	v := func(p, h int) int { return p*n + h }
	for i := 0; i < (n+1)*n; i++ {
		s.NewVar()
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = Pos(v(p, h))
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(Neg(v(p1, h)), Neg(v(p2, h)))
			}
		}
	}
	return s
}

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

// TestChunkedStorageIntegrity drives instances large enough that clause
// literals and watch lists span several chunks, with learnt clauses cut
// from the same chunks during search. propagate and analyze swap
// literals in place, so a clause whose storage aliased a neighbour's
// would corrupt it: every model must satisfy every clause as it was
// added, and every stored problem clause must still hold the literal
// set it held before Solve.
func TestChunkedStorageIntegrity(t *testing.T) {
	rng := splitmix64(2024)
	var sats, conflicts int
	for iter := 0; iter < 40; iter++ {
		nvars := 150 + int(rng.next()%150)
		nclauses := nvars * (3 + int(rng.next()%2)) // around the 3-SAT threshold
		s := mk(nvars)
		added := make([][]Lit, nclauses)
		for i := range added {
			c := make([]Lit, 2+int(rng.next()%4))
			for j := range c {
				v := int(rng.next() % uint64(nvars))
				if rng.next()%2 == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			added[i] = c
			s.AddClause(c...)
		}
		if s.litTotal <= minLitChunk || s.watchTotal <= minWatchChunk {
			t.Fatalf("iter %d: storage fits one chunk (%d literals, %d watchers); grow the instance",
				iter, s.litTotal, s.watchTotal)
		}
		before := make([][]Lit, len(s.clauses))
		for ref, c := range s.clauses {
			before[ref] = sortedLits(c)
		}
		st := s.Solve(0, nil)
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
		for i, c := range added {
			if !slices.ContainsFunc(c, func(l Lit) bool { return s.Value(l.Var()) != l.Sign() }) {
				t.Fatalf("iter %d: model violates added clause %d %v", iter, i, c)
			}
		}
	}
	if sats == 0 || conflicts == 0 {
		t.Fatalf("%d SAT instances, %d conflicts: the corpus no longer exercises models and learnt clauses", sats, conflicts)
	}
}

func sortedLits(c []Lit) []Lit {
	out := slices.Clone(c)
	slices.Sort(out)
	return out
}

// TestNewVarsMatchesNewVar pins that one NewVars(k) block numbers its
// variables, and orders the decision heap, exactly as k NewVar calls:
// the same clause set then takes the same conflicts to the same model.
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
		t.Fatal("instance needs no conflicts; it no longer exercises the heap order")
	}
	for v := 0; v < a.NumVars(); v++ {
		if a.Value(v) != b.Value(v) {
			t.Fatalf("models differ at variable %d", v)
		}
	}
}
