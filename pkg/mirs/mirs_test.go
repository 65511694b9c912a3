package mirs

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

func schedule(t *testing.T, s sched.Scheduler, l *ir.Loop, m *machine.Machine) (*sched.Schedule, *regpress.Result) {
	t.Helper()
	out, err := s.Schedule(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("%s: %s on %s: %v", s.Name(), l.Name, m.Name, err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("%s: %s on %s: invalid schedule: %v\n%s", s.Name(), l.Name, m.Name, err, out)
	}
	press, err := regpress.Analyze(out)
	if err != nil {
		t.Fatalf("%s: %s on %s: %v", s.Name(), l.Name, m.Name, err)
	}
	return out, press
}

// TestMIRSValidOnAllExamples: MIRS must produce a Validate-clean schedule
// at or above MII for every corpus loop on every canned machine,
// including the register-starved one.
func TestMIRSValidOnAllExamples(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, l := range ir.ExampleLoops() {
			t.Run(m.Name+"/"+l.Name, func(t *testing.T) {
				g, err := ir.Build(l, m, nil)
				if err != nil {
					t.Fatal(err)
				}
				mii, err := sched.ComputeMII(g, m)
				if err != nil {
					t.Fatal(err)
				}
				out, _ := schedule(t, New(), l, m)
				if out.II < mii.MII {
					t.Errorf("II = %d below MII = %d", out.II, mii.MII)
				}
				if out.By != "mirs" {
					t.Errorf("By = %q, want mirs", out.By)
				}
				if out.Stats == nil {
					t.Error("Stats missing")
				}
			})
		}
	}
}

// TestMIRSMatchesOrBeatsListII is the paper's headline comparison: on the
// unified and clustered reference machines (ample registers), MIRS's
// backtracking must never lose to the greedy baseline on II, for the
// whole corpus.
func TestMIRSMatchesOrBeatsListII(t *testing.T) {
	beats := 0
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster()} {
		for _, l := range ir.ExampleLoops() {
			ls, _ := schedule(t, sched.ListScheduler{}, l, m)
			ms, _ := schedule(t, New(), l, m)
			if ms.II > ls.II {
				t.Errorf("%s on %s: mirs II=%d worse than list II=%d", l.Name, m.Name, ms.II, ls.II)
			}
			if ms.II < ls.II {
				beats++
			}
		}
	}
	// The deep-chain loops are constructed so deadline windows win
	// somewhere; if MIRS never strictly beats the baseline the
	// backtracking machinery is dead weight.
	if beats == 0 {
		t.Error("mirs never beat the list scheduler's II on the reference machines")
	}
}

// TestMIRSSpillsWhereListOverflows is the integrated-spilling acceptance
// criterion: on the register-starved machine, every corpus loop the
// baseline fails on or schedules with overflowing MaxLive must come out
// of MIRS Validate-clean with pressure fitting every register file.
func TestMIRSSpillsWhereListOverflows(t *testing.T) {
	m := machine.Tight()
	overflowed := 0
	for _, l := range ir.ExampleLoops() {
		listOut, err := (sched.ListScheduler{}).Schedule(&sched.Request{Loop: l, Machine: m})
		listOver := false
		if err != nil {
			listOver = true
		} else if press, aerr := regpress.Analyze(listOut); aerr != nil || !press.Fits() {
			listOver = true
		}
		if !listOver {
			continue
		}
		overflowed++
		out, press := schedule(t, New(), l, m)
		if !press.Fits() {
			t.Errorf("%s on %s: mirs MaxLive %v exceeds register files (II=%d, stats=%v)",
				l.Name, m.Name, press.MaxLivePerCluster, out.II, out.Stats)
		}
	}
	// The high-pressure corpus additions exist to make the baseline
	// overflow here; if nothing overflows, spilling is not being
	// exercised and the corpus has regressed.
	if overflowed < 2 {
		t.Errorf("only %d corpus loops overflow under the baseline on %s; want >= 2", overflowed, m.Name)
	}
}

// TestMIRSReportsSpillTraffic pins the Stats contract: a run that fits
// only by spilling must report its store/reload traffic, and spill-free
// runs must report zeroes.
func TestMIRSReportsSpillTraffic(t *testing.T) {
	m := machine.Tight()
	spilled := false
	for _, l := range ir.ExampleLoops() {
		out, _ := schedule(t, New(), l, m)
		for _, key := range []string{"spill_stores", "spill_loads", "ejections", "ii_over_mii", "spill_ii_increase"} {
			if _, ok := out.Stats[key]; !ok {
				t.Errorf("%s: Stats[%q] missing", l.Name, key)
			}
		}
		if out.Stats["spill_loads"] > 0 {
			spilled = true
			// Spill code must actually be in the scheduled loop.
			reloads := 0
			for _, in := range out.Loop.Instrs {
				if in.Op == ir.OpSpillReload {
					reloads++
				}
			}
			if reloads != out.Stats["spill_loads"] {
				t.Errorf("%s: Stats reports %d reloads, loop has %d", l.Name, out.Stats["spill_loads"], reloads)
			}
		}
	}
	if !spilled {
		t.Error("no corpus loop spilled on the tight machine; integrated spilling untested")
	}
	out, _ := schedule(t, New(), ir.SingleInstruction(), machine.Unified())
	if out.Stats["spill_stores"] != 0 || out.Stats["spill_loads"] != 0 {
		t.Errorf("single-instruction loop reported spills: %v", out.Stats)
	}
}

// TestMIRSBacktracks pins the force-eject machinery: the deep-chain hydro
// loop on the unified machine is exactly the case a non-backtracking
// scheduler cannot schedule at MII (early loads are redefined before
// their last consumer reads them), so MIRS must both eject operations and
// land a strictly better II than the baseline.
func TestMIRSBacktracks(t *testing.T) {
	m := machine.Unified()
	l := ir.Hydro()
	ls, _ := schedule(t, sched.ListScheduler{}, l, m)
	ms, _ := schedule(t, New(), l, m)
	if ms.Stats["ejections"] == 0 {
		t.Error("hydro on unified scheduled without a single ejection; backtracking untested")
	}
	if ms.II >= ls.II {
		t.Errorf("mirs II=%d did not beat list II=%d on hydro/unified", ms.II, ls.II)
	}
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mii, err := sched.ComputeMII(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if ms.II != mii.MII {
		t.Errorf("mirs II=%d, want MII=%d on hydro/unified", ms.II, mii.MII)
	}
}

// TestMIRSOptions: a zero backtracking budget must degrade gracefully
// (no forced placements, II escalates instead) and still produce a valid
// schedule.
func TestMIRSOptions(t *testing.T) {
	m := machine.Unified()
	l := ir.Hydro()
	out, _ := schedule(t, &Scheduler{maxRetries: 0, maxSpills: -1}, l, m)
	if out.Stats["ejections"] != 0 {
		t.Errorf("maxRetries=0 but %d ejections", out.Stats["ejections"])
	}
	strict, _ := schedule(t, New(), l, m)
	if out.II < strict.II {
		t.Errorf("budget-less run got II=%d, better than backtracking's %d", out.II, strict.II)
	}
	// maxSpills=0 disables spilling entirely: any schedule that
	// comes back must be spill-free and valid (failing to schedule at all
	// is also acceptable on the register-starved machine).
	for _, l := range ir.ExampleLoops() {
		out2, err := (&Scheduler{maxRetries: 8}).Schedule(&sched.Request{Loop: l, Machine: machine.Tight()})
		if err != nil {
			continue
		}
		if verr := out2.Validate(); verr != nil {
			t.Errorf("%s: maxSpills=0: invalid schedule: %v", l.Name, verr)
		}
		if out2.Stats["spill_stores"]+out2.Stats["spill_loads"] != 0 {
			t.Errorf("%s: maxSpills=0 still spilled: %v", l.Name, out2.Stats)
		}
	}
}

// TestVictimLongestFirst pins the paper's spill-victim order: longest
// lifetime first, ties toward fewest uses. On a one-cluster machine with
// three registers, v0 (defined by "a", read by the multiply and by "c")
// lives 8 cycles with two uses, while the multiply's v1 lives 7 cycles
// with one use — so fewest-uses-first would pick v1 instead.
func TestVictimLongestFirst(t *testing.T) {
	m := machine.NewBuilder("one").
		Latency(machine.ClassALU, 1).
		Latency(machine.ClassMul, 6).
		Latency(machine.ClassMem, 2).
		Cluster("c0", 3, machine.FU("alu", machine.ClassALU), machine.FU("mul", machine.ClassMul), machine.FU("mem", machine.ClassMem)).
		MustBuild()
	l := &ir.Loop{Name: "victims", Instrs: []*ir.Instruction{
		{ID: 0, Op: "a", Class: machine.ClassALU, Defs: []ir.VReg{0}},
		{ID: 1, Op: "mul", Class: machine.ClassMul, Defs: []ir.VReg{1}, Uses: []ir.VReg{0}},
		{ID: 2, Op: "c", Class: machine.ClassALU, Defs: []ir.VReg{2}, Uses: []ir.VReg{0, 1}},
		{ID: 3, Op: "st", Class: machine.ClassMem, Uses: []ir.VReg{2}},
	}}
	// A six-op ALU chain sets ResMII and adds short-lived pressure.
	for i := 0; i < 6; i++ {
		in := &ir.Instruction{ID: 4 + i, Op: "f", Class: machine.ClassALU, Defs: []ir.VReg{ir.VReg(10 + i)}}
		if i > 0 {
			in.Uses = []ir.VReg{ir.VReg(9 + i)}
		}
		l.Instrs = append(l.Instrs, in)
	}
	l.Instrs = append(l.Instrs, &ir.Instruction{ID: 10, Op: "st", Class: machine.ClassMem, Uses: []ir.VReg{15}})

	var buf trace.Buffer
	if _, err := New().Schedule(&sched.Request{Loop: l, Machine: m, Recorder: &buf}); err != nil {
		t.Fatal(err)
	}
	for _, e := range buf.Events() {
		if e.Kind != trace.KindVictim {
			continue
		}
		if e.Op != 0 || e.Reg != 0 || e.Arg != 8 || e.Aux != 2 {
			t.Fatalf("first victim is op %d v%d (length %d, %d uses), want op 0 v0 (length 8, 2 uses)", e.Op, e.Reg, e.Arg, e.Aux)
		}
		return
	}
	t.Fatal("no victim chosen; the loop no longer overflows three registers")
}

// TestMIRSRespectsMaxII: the II search must honour the request's cap,
// including an explicit cap below MII (the two backends must agree on
// the Request contract).
func TestMIRSRespectsMaxII(t *testing.T) {
	_, err := New().Schedule(&sched.Request{Loop: ir.FIR8(), Machine: machine.Tight(), MaxII: 2})
	if err == nil {
		t.Error("MaxII=2 accepted for fir8 on tight; want an error")
	}
	_, err = New().Schedule(&sched.Request{Loop: ir.DotProduct(), Machine: machine.Unified(), MaxII: 1})
	if err == nil {
		t.Error("MaxII=1 (below MII=2) accepted for dotprod on unified; want an error")
	}
}

// TestMIRSSpilledScheduleIsSelfConsistent: when MIRS spills, the returned
// Loop/Graph pair must be internally consistent — placements cover the
// augmented loop, the graph belongs to it, and spill memory edges hold
// under the schedule (Validate re-checked here against the returned
// graph, not the request's).
func TestMIRSSpilledScheduleIsSelfConsistent(t *testing.T) {
	m := machine.Tight()
	l := ir.Hydro()
	out, _ := schedule(t, New(), l, m)
	if out.Stats["spill_loads"] == 0 {
		t.Skip("hydro no longer spills on tight; adjust the corpus")
	}
	if out.Graph.Loop != out.Loop {
		t.Error("Schedule.Graph does not belong to Schedule.Loop")
	}
	if len(out.Placements) != out.Loop.NumInstrs() {
		t.Errorf("%d placements for %d instructions", len(out.Placements), out.Loop.NumInstrs())
	}
	if out.Loop.NumInstrs() <= l.NumInstrs() {
		t.Errorf("spilled loop has %d instructions, input had %d; expected growth", out.Loop.NumInstrs(), l.NumInstrs())
	}
	if err := out.Loop.Validate(); err != nil {
		t.Errorf("augmented loop invalid: %v", err)
	}
}
