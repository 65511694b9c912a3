package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func TestCompileAllExamplesOnBothMachines(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster()} {
		for _, l := range ir.ExampleLoops() {
			t.Run(m.Name+"/"+l.Name, func(t *testing.T) {
				r, err := CompileWith(sched.ListScheduler{}, l, m)
				if err != nil {
					t.Fatalf("CompileWith: %v", err)
				}
				if err := r.Schedule.Validate(); err != nil {
					t.Errorf("schedule invalid: %v", err)
				}
				if r.Schedule.II < r.MII.MII {
					t.Errorf("II = %d below MII = %d", r.Schedule.II, r.MII.MII)
				}
				if r.Pressure.MaxLive < 1 {
					t.Errorf("MaxLive = %d", r.Pressure.MaxLive)
				}
				if s := r.Summary(); !strings.Contains(s, l.Name) || !strings.Contains(s, "II=") {
					t.Errorf("Summary = %q", s)
				}
			})
		}
	}
}

// failingScheduler returns an intentionally broken schedule to prove
// CompileWith re-validates backend output.
type failingScheduler struct{}

func (failingScheduler) Name() string { return "broken" }

func (failingScheduler) Schedule(req *sched.Request) (*sched.Schedule, error) {
	g, err := ir.Build(req.Loop, req.Machine, nil)
	if err != nil {
		return nil, err
	}
	// All instructions at cycle 0, slot 0, cluster 0: resource chaos.
	return &sched.Schedule{
		Loop:       req.Loop,
		Machine:    req.Machine,
		Graph:      g,
		II:         1,
		Placements: make([]sched.Placement, req.Loop.NumInstrs()),
		By:         "broken",
	}, nil
}

func TestCompileWithRejectsInvalidBackendOutput(t *testing.T) {
	_, err := CompileWith(failingScheduler{}, ir.DotProduct(), machine.Unified())
	if err == nil || !strings.Contains(err.Error(), "invalid schedule") {
		t.Errorf("want invalid-schedule error, got %v", err)
	}
}

func TestCompileWithNilScheduler(t *testing.T) {
	if _, err := CompileWith(nil, ir.DotProduct(), machine.Unified()); err == nil {
		t.Error("CompileWith(nil) succeeded")
	}
	if _, err := CompileWith(sched.ListScheduler{}, nil, machine.Unified()); err == nil {
		t.Error("CompileWith with a nil loop succeeded")
	}
	if _, err := CompileWith(sched.ListScheduler{}, ir.DotProduct(), nil); err == nil {
		t.Error("CompileWith with a nil machine succeeded")
	}
}

// panicOn is a backend that panics on one loop and delegates to the
// list scheduler otherwise.
type panicOn struct{ victim string }

func (panicOn) Name() string { return "panicky" }

func (p panicOn) Schedule(req *sched.Request) (*sched.Schedule, error) {
	if req.Loop.Name == p.victim {
		panic("backend exploded")
	}
	return sched.ListScheduler{}.Schedule(req)
}

// TestCompilePanicIsAnError pins the facade's panic isolation: a
// backend panicking on one loop makes CompileWithOpts return an error
// naming the loop and the panic, with a stack, instead of crashing the
// caller; the next loop through the same backend compiles.
func TestCompilePanicIsAnError(t *testing.T) {
	be, m := panicOn{victim: "dotprod"}, machine.Unified()
	r, err := CompileWith(be, ir.DotProduct(), m)
	if r != nil || err == nil {
		t.Fatalf("want an error from a panicking backend, got result %v, err %v", r, err)
	}
	for _, want := range []string{`core: panic compiling loop "dotprod"`, "backend exploded", "goroutine"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
	if _, err := CompileWith(be, ir.FIR8(), m); err != nil {
		t.Fatalf("non-victim loop: %v", err)
	}
}

// TestBackendsRunFullCorpus: every registered backend compiles the whole
// corpus on every canned machine through the facade — the contract the
// Backends registry exists for. On the register-starved machine the MIRS
// backend must additionally fit every register file.
func TestBackendsRunFullCorpus(t *testing.T) {
	if len(Backends()) < 2 {
		t.Fatalf("Backends() = %d entries, want the baseline and mirs", len(Backends()))
	}
	for _, be := range Backends() {
		for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
			for _, l := range ir.ExampleLoops() {
				t.Run(be.Name()+"/"+m.Name+"/"+l.Name, func(t *testing.T) {
					r, err := CompileWith(be, l, m)
					if err != nil {
						if be.Name() == "mirs" {
							t.Fatalf("CompileWith: %v", err)
						}
						t.Skipf("baseline cannot schedule: %v", err)
					}
					if be.Name() == "mirs" && !r.Pressure.Fits() {
						t.Errorf("mirs pressure %v exceeds register files of %s", r.Pressure.MaxLivePerCluster, m.Name)
					}
					if s := r.Summary(); !strings.Contains(s, "by "+be.Name()) {
						t.Errorf("Summary = %q, want backend name", s)
					}
				})
			}
		}
	}
}

// TestScheduleMeetsResourceBound: the resource bound is sound for every
// schedule a backend returns. Over gen.Corpus(1, 120) on the three canned
// machines, every schedule of list, MIRS and opt has II >= ResMII of the
// loop it schedules — for MIRS, the loop with its spill code. opt, whose
// formulas grow with the loop, runs on the loops of at most 24
// instructions at a small conflict budget on the candidates MII to
// MII+2; a loop it cannot settle there is skipped.
func TestScheduleMeetsResourceBound(t *testing.T) {
	checked := 0
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, l := range gen.Corpus(1, 120) {
			g, err := ir.Build(l, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			mii, err := sched.ComputeMII(g, m)
			if err != nil {
				t.Fatal(err)
			}
			bes := Backends()
			if l.NumInstrs() <= 24 {
				bes = append(bes, Opt(500))
			}
			for _, be := range bes {
				req := &sched.Request{Loop: l, Machine: m, Graph: g, MII: &mii}
				if be.Name() == "opt" {
					req.MaxII = mii.MII + 2
				}
				s, err := be.Schedule(req)
				if err != nil {
					if be.Name() == "opt" {
						continue
					}
					t.Fatalf("%s on %s by %s: %v", l.Name, m.Name, be.Name(), err)
				}
				res, err := sched.ResMII(s.Loop, m)
				if err != nil {
					t.Fatalf("%s on %s by %s: %v", l.Name, m.Name, be.Name(), err)
				}
				if s.II < res {
					t.Fatalf("%s on %s by %s: II %d below the resource bound %d of its %d-instruction loop",
						l.Name, m.Name, be.Name(), s.II, res, s.Loop.NumInstrs())
				}
				checked++
			}
		}
	}
	t.Logf("%d schedules checked", checked)
}

func TestCompileRejectsUnschedulableLoop(t *testing.T) {
	l := &ir.Loop{Name: "fp", Instrs: []*ir.Instruction{
		{ID: 0, Op: "sqrt", Class: machine.OpClass("fpu"), Defs: []ir.VReg{0}},
	}}
	if _, err := CompileWith(sched.ListScheduler{}, l, machine.Unified()); err == nil {
		t.Error("CompileWith accepted a loop with an unsupported op class")
	}
}

// TestBackendsRefuseIntraCycle: a dependence cycle that never crosses
// an iteration boundary is refused by every backend with
// ir.ErrIntraCycle, at latency 1 (no II satisfies it) and at latency 0,
// whether the backend computes MII itself or the request supplies one
// (as CompileWithOpts does). At latency 0 MII computation used to
// succeed, list and MIRS then failed with an unnamed error and opt
// scheduled the graph; with a supplied MII, which skips ComputeMII, opt
// scheduled it too.
func TestBackendsRefuseIntraCycle(t *testing.T) {
	m := machine.Unified()
	for _, lat := range []int{0, 1} {
		for _, be := range append(Backends(), Opt(0)) {
			for _, supplied := range []bool{false, true} {
				g, err := ir.Build(ir.DotProduct(), m, nil)
				if err != nil {
					t.Fatal(err)
				}
				mii, err := sched.ComputeMII(g, m)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range []ir.Edge{{From: 0, To: 1, Kind: ir.DepMem, Latency: lat}, {From: 1, To: 0, Kind: ir.DepMem, Latency: lat}} {
					if err := g.AddEdge(e); err != nil {
						t.Fatal(err)
					}
				}
				req := &sched.Request{Loop: g.Loop, Machine: m, Graph: g}
				if supplied {
					req.MII = &mii
				}
				if _, err := be.Schedule(req); !errors.Is(err, ir.ErrIntraCycle) {
					t.Errorf("%s, latency %d, supplied MII %v: got %v, want ir.ErrIntraCycle", be.Name(), lat, supplied, err)
				}
			}
		}
	}
}

// TestUnbuiltMachineFailsByName: a machine literal that never went
// through Builder.Build or FromJSON has no class tables, and every
// backend refuses it with machine.ErrNotBuilt — from CompileWithOpts,
// and from Schedule with or without a supplied MII — instead of
// panicking on a missing table.
func TestUnbuiltMachineFailsByName(t *testing.T) {
	u := machine.Unified()
	lit := &machine.Machine{Name: "literal", Clusters: u.Clusters, Buses: u.Buses, Latencies: u.Latencies}
	g, err := ir.Build(ir.FIR8(), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	mii, err := sched.ComputeMII(g, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range append(Backends(), Opt(0)) {
		if _, err := CompileWithOpts(context.Background(), be, ir.FIR8(), lit, Opts{}); !errors.Is(err, machine.ErrNotBuilt) {
			t.Errorf("%s: CompileWithOpts: %v, want machine.ErrNotBuilt", be.Name(), err)
		}
		for _, req := range []*sched.Request{{Loop: ir.FIR8(), Machine: lit}, {Loop: g.Loop, Machine: lit, Graph: g, MII: &mii}} {
			if _, err := be.Schedule(req); !errors.Is(err, machine.ErrNotBuilt) {
				t.Errorf("%s: Schedule (supplied MII %v): %v, want machine.ErrNotBuilt", be.Name(), req.MII != nil, err)
			}
		}
	}
}

// TestConcurrentRuns is the -race regression for the batch driver's
// concurrency: many CompileWith calls running at once over one shared
// machine and its class tables. Any mutable sharing between
// compilations shows up as a race report here.
func TestConcurrentRuns(t *testing.T) {
	loops := gen.Corpus(11, 24)
	m := machine.Paper4Cluster()
	done := make(chan error, len(loops))
	for _, l := range loops {
		go func(l *ir.Loop) {
			_, err := CompileWith(mirs.New(), l, m)
			done <- err
		}(l)
	}
	for range loops {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
