package regpress

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func schedule(t *testing.T, l *ir.Loop, m *machine.Machine) *sched.Schedule {
	t.Helper()
	s, err := sched.ListScheduler{}.Schedule(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("Schedule(%s on %s): %v", l.Name, m.Name, err)
	}
	return s
}

func TestAnalyzeAllExamples(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster()} {
		for _, l := range ir.ExampleLoops() {
			t.Run(m.Name+"/"+l.Name, func(t *testing.T) {
				s := schedule(t, l, m)
				r, err := Analyze(s)
				if err != nil {
					t.Fatalf("Analyze: %v", err)
				}
				if len(r.PerCycle) != s.II {
					t.Fatalf("PerCycle has %d entries, want II=%d", len(r.PerCycle), s.II)
				}
				// Machine-wide pressure is the sum of cluster pressures.
				for c := 0; c < s.II; c++ {
					sum := 0
					for ci := range r.PerCluster {
						sum += r.PerCluster[ci][c]
					}
					if sum != r.PerCycle[c] {
						t.Errorf("cycle %d: cluster sum %d != machine-wide %d", c, sum, r.PerCycle[c])
					}
				}
				if r.MaxLive < 1 {
					t.Errorf("MaxLive = %d, want >= 1 (every loop defines something)", r.MaxLive)
				}
				// The example loops are small; on the canned machines
				// their pressure must fit without spilling.
				if !r.Fits() {
					t.Errorf("pressure %v does not fit register files", r.MaxLivePerCluster)
				}
			})
		}
	}
}

func TestLifetimesFollowTrueDeps(t *testing.T) {
	m := machine.Unified()
	s := schedule(t, ir.DotProduct(), m)
	r, err := Analyze(s)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// v5 (the product) is defined by fmul(2) and consumed by fadd(3):
	// its lifetime must span from start(2) to start(3).
	found := false
	for _, lt := range r.Lifetimes {
		if lt.Reg == ir.VReg(5) {
			found = true
			if lt.Start != s.Start(2) {
				t.Errorf("v5 lifetime starts at %d, want start(fmul)=%d", lt.Start, s.Start(2))
			}
			if lt.End != s.Start(3) {
				t.Errorf("v5 lifetime ends at %d, want start(fadd)=%d", lt.End, s.Start(3))
			}
			if lt.Length() != lt.End-lt.Start+1 {
				t.Errorf("Length() = %d inconsistent", lt.Length())
			}
		}
	}
	if !found {
		t.Fatal("no lifetime recorded for v5")
	}
}

func TestLoopCarriedLifetimeCrossesIterations(t *testing.T) {
	// The accumulator v4 is consumed by its own next-iteration fadd:
	// its lifetime must extend at least II cycles past the definition's
	// consumer-relative start, keeping it live on every kernel cycle.
	m := machine.Unified()
	s := schedule(t, ir.DotProduct(), m)
	r, err := Analyze(s)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, lt := range r.Lifetimes {
		if lt.Reg == ir.VReg(4) {
			wantEnd := s.Start(3) + s.II
			if lt.End != wantEnd {
				t.Errorf("v4 lifetime ends at %d, want %d (self use one iteration later)", lt.End, wantEnd)
			}
			if lt.Length() <= s.II {
				t.Errorf("v4 lifetime length %d should exceed II=%d", lt.Length(), s.II)
			}
		}
	}
}

func TestLiveInRegistersCounted(t *testing.T) {
	// FIR's four coefficients (v1..v4) are live-in: used by the fmuls,
	// never defined in the body. Each must hold a register on every
	// kernel cycle of every consuming cluster.
	m := machine.Unified()
	s := schedule(t, ir.FIR(), m)
	r, err := Analyze(s)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	liveIn := map[ir.VReg]*Lifetime{}
	for i := range r.Lifetimes {
		if r.Lifetimes[i].Def == -1 {
			liveIn[r.Lifetimes[i].Reg] = &r.Lifetimes[i]
		}
	}
	for _, v := range []ir.VReg{1, 2, 3, 4} {
		lt, ok := liveIn[v]
		if !ok {
			t.Errorf("no live-in lifetime for %s", v)
			continue
		}
		if lt.Start != 0 || lt.End != s.II-1 {
			t.Errorf("%s live-in spans [%d,%d], want whole kernel [0,%d]", v, lt.Start, lt.End, s.II-1)
		}
	}
	// Whole-kernel lifetimes raise pressure on every cycle: the minimum
	// per-cycle count is at least the number of live-ins.
	for c, n := range r.PerCycle {
		if n < 4 {
			t.Errorf("cycle %d pressure %d < 4 live-ins", c, n)
		}
	}
}

func TestCrossClusterCopyCharged(t *testing.T) {
	// Hand-built schedule: producer on cluster 0, consumer on cluster 1
	// of a two-cluster machine with a 3-cycle bus. The consumed value
	// must appear in BOTH clusters: the original on cluster 0 and a
	// copy on cluster 1 from bus delivery to the use.
	m := machine.NewBuilder("two").
		Latency(machine.ClassALU, 1).
		Cluster("c0", 8, machine.FU("a0", machine.ClassALU)).
		Cluster("c1", 8, machine.FU("a1", machine.ClassALU)).
		Bus("x", 1, 3).
		MustBuild()
	l := &ir.Loop{Name: "xfer", Instrs: []*ir.Instruction{
		{ID: 0, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 1, Op: "add", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
	}}
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := &sched.Schedule{
		Loop: l, Machine: m, Graph: g, II: 5, By: "hand",
		Placements: []sched.Placement{
			{Cycle: 0, Cluster: 0, Slot: 0},
			{Cycle: 4, Cluster: 1, Slot: 0}, // 0 + lat 1 + bus 3
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("hand schedule invalid: %v", err)
	}
	r, err := Analyze(s)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var orig, copyLT *Lifetime
	for i := range r.Lifetimes {
		lt := &r.Lifetimes[i]
		if lt.Reg == ir.VReg(1) && lt.Def == 0 {
			if lt.Cluster == 0 {
				orig = lt
			} else if lt.Cluster == 1 {
				copyLT = lt
			}
		}
	}
	if orig == nil || copyLT == nil {
		t.Fatalf("want v1 lifetimes on both clusters, got orig=%v copy=%v (%v)", orig, copyLT, r.Lifetimes)
	}
	if orig.Start != 0 || orig.End != 4 {
		t.Errorf("original lifetime [%d,%d], want [0,4]", orig.Start, orig.End)
	}
	if copyLT.Start != 4 || copyLT.End != 4 {
		t.Errorf("copy lifetime [%d,%d], want [4,4] (arrival=delivery=use)", copyLT.Start, copyLT.End)
	}
	if r.MaxLivePerCluster[1] < 1 {
		t.Errorf("cluster 1 MaxLive = %d, want >= 1 (holds the delivered copy)", r.MaxLivePerCluster[1])
	}
}

func TestAnalyzeRejectsInvalidSchedule(t *testing.T) {
	m := machine.Unified()
	s := schedule(t, ir.DotProduct(), m)
	s.II = 0
	if _, err := Analyze(s); err == nil {
		t.Error("Analyze accepted an invalid schedule")
	}
}

func TestFitsDetectsOverflow(t *testing.T) {
	// A machine with a 2-register file: dotprod needs more live values
	// than that, so Fits must report the overflow.
	m := machine.NewBuilder("tiny-rf").
		Latency(machine.ClassALU, 1).
		Latency(machine.ClassMul, 2).
		Latency(machine.ClassMem, 2).
		Latency(machine.ClassBranch, 1).
		Cluster("c0", 2,
			machine.FU("alu0", machine.ClassALU, machine.ClassBranch),
			machine.FU("alu1", machine.ClassALU),
			machine.FU("mul0", machine.ClassMul),
			machine.FU("mem0", machine.ClassMem)).
		MustBuild()
	s := schedule(t, ir.DotProduct(), m)
	r, err := Analyze(s)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r.Fits() {
		t.Errorf("Fits = true with MaxLive %d on a 2-register file", r.MaxLivePerCluster[0])
	}
}

// TestAnalyzeAllocs pins the allocations of one Analyze call on every
// example loop scheduled on each canned machine: the result, one array
// behind its per-cycle tables, the cluster-row headers, the lifetimes
// sized by an exact count, the live-in table and Validate's scratch.
// Per-row tables and lifetimes grown by append made 10 to 20.
func TestAnalyzeAllocs(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		most := 0.0
		for _, l := range ir.ExampleLoops() {
			s, err := sched.ListScheduler{}.Schedule(&sched.Request{Loop: l, Machine: m})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			r, err := Analyze(s)
			if err != nil {
				t.Fatal(err)
			}
			if cap(r.Lifetimes) != len(r.Lifetimes) {
				t.Errorf("%s on %s: %d lifetimes in a slice of capacity %d", l.Name, m.Name, len(r.Lifetimes), cap(r.Lifetimes))
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := Analyze(s); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 6 {
				t.Errorf("%s on %s: Analyze made %v allocations, want at most 6", l.Name, m.Name, allocs)
			}
			most = max(most, allocs)
		}
		t.Logf("%s: at most %v allocations per Analyze", m.Name, most)
	}
}
