package driver

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// panicScheduler panics on a designated loop and delegates otherwise.
type panicScheduler struct{ victim string }

func (panicScheduler) Name() string { return "panicky" }
func (p panicScheduler) Schedule(req *sched.Request) (*sched.Schedule, error) {
	if req.Loop.Name == p.victim {
		panic("backend exploded on " + req.Loop.Name)
	}
	s, err := sched.ListScheduler{}.Schedule(req)
	if s != nil {
		s.By = "panicky" // keep Validate happy while staying identifiable
	}
	return s, err
}

// slowScheduler sleeps past any reasonable timeout.
type slowScheduler struct{ d time.Duration }

func (slowScheduler) Name() string { return "slow" }
func (s slowScheduler) Schedule(req *sched.Request) (*sched.Schedule, error) {
	time.Sleep(s.d)
	return sched.ListScheduler{}.Schedule(req)
}

func exampleSpec() Spec {
	return Spec{
		Corpus:   "examples",
		Loops:    ir.ExampleLoops(),
		Backends: core.Backends(),
		Machines: []*machine.Machine{machine.Unified(), machine.Paper4Cluster()},
	}
}

// TestBatchOverExamplesAndGenerated runs the real grid — example corpus
// plus a generated population, both backends, both reference machines —
// and checks the aggregate invariants: no failures, conservation of
// counts, II >= MII, sorted deterministic combos.
func TestBatchOverExamplesAndGenerated(t *testing.T) {
	spec := exampleSpec()
	spec.Corpus = "examples+gen"
	spec.Loops = append(spec.Loops, gen.Corpus(7, 20)...)
	rep := Run(spec, Options{Workers: 4, Timing: true})
	if rep.Failures != 0 {
		t.Fatalf("unexpected failures: %+v", rep.Outcomes)
	}
	if rep.Jobs != len(spec.Loops)*4 || rep.Loops != len(spec.Loops) {
		t.Fatalf("job accounting off: %d jobs for %d loops", rep.Jobs, rep.Loops)
	}
	if len(rep.Combos) != 4 {
		t.Fatalf("want 4 combos, got %d", len(rep.Combos))
	}
	for _, c := range rep.Combos {
		if c.Compiled+c.Errors+c.Timeouts != c.Loops {
			t.Fatalf("%s x %s: count conservation broken: %+v", c.Backend, c.Machine, c)
		}
		if c.Compiled != len(spec.Loops) {
			t.Fatalf("%s x %s: compiled %d of %d", c.Backend, c.Machine, c.Compiled, len(spec.Loops))
		}
		if c.SumII < c.SumMII {
			t.Fatalf("%s x %s: sum II %d below sum MII %d", c.Backend, c.Machine, c.SumII, c.SumMII)
		}
		total := 0
		for _, b := range c.IIOverMII {
			if b.Delta < 0 {
				t.Fatalf("%s x %s: negative II-MII delta %d", c.Backend, c.Machine, b.Delta)
			}
			if b.Delta == 0 && b.Count != c.AtMII {
				t.Fatalf("%s x %s: histogram zero-bin %d disagrees with AtMII %d", c.Backend, c.Machine, b.Count, c.AtMII)
			}
			total += b.Count
		}
		if total != c.Compiled {
			t.Fatalf("%s x %s: histogram mass %d != compiled %d", c.Backend, c.Machine, total, c.Compiled)
		}
	}
	// Combos sorted by (backend, machine): list < mirs, paper-4cluster < unified.
	if rep.Combos[0].Backend != "list" || rep.Combos[0].Machine != "paper-4cluster" ||
		rep.Combos[3].Backend != "mirs" || rep.Combos[3].Machine != "unified" {
		t.Fatalf("combos not in canonical order: %+v", rep.Combos)
	}
	if rep.ElapsedSeconds <= 0 || rep.LoopsPerSec <= 0 {
		t.Fatalf("timing requested but not reported: %+v", rep)
	}
	rows := rep.Rows()
	if len(rows) != 4 || rows[0].Corpus != "examples+gen" || rows[0].Loops != len(spec.Loops) {
		t.Fatalf("rows projection off: %+v", rows)
	}
}

// TestPanicIsolation pins the non-fatal error path: a backend panicking
// on one loop costs exactly that loop on that backend, with the panic
// message and stack preserved in the outcome.
func TestPanicIsolation(t *testing.T) {
	spec := exampleSpec()
	spec.Backends = []sched.Scheduler{panicScheduler{victim: "dotprod"}}
	spec.Machines = []*machine.Machine{machine.Unified()}
	rep := Run(spec, Options{Workers: 2})
	if rep.Failures != 1 {
		t.Fatalf("want exactly 1 failure, got %d: %+v", rep.Failures, rep.Outcomes)
	}
	if len(rep.Outcomes) != len(spec.Loops) {
		t.Fatalf("want every outcome kept, got %d of %d", len(rep.Outcomes), len(spec.Loops))
	}
	var o Outcome
	for _, oc := range rep.Outcomes {
		if oc.Err != "" {
			o = oc
		}
	}
	if o.Loop != "dotprod" || !strings.Contains(o.Err, "backend exploded") || !strings.Contains(o.Err, "panic") {
		t.Fatalf("panic not captured: %+v", o)
	}
	if rep.Combos[0].Errors != 1 || rep.Combos[0].Compiled != len(spec.Loops)-1 {
		t.Fatalf("combo accounting after panic: %+v", rep.Combos[0])
	}
}

// TestTimeout pins the per-loop budget: a hung backend is recorded as a
// timeout outcome and the batch completes.
func TestTimeout(t *testing.T) {
	spec := Spec{
		Corpus:   "t",
		Loops:    []*ir.Loop{ir.SingleInstruction()},
		Backends: []sched.Scheduler{slowScheduler{d: 5 * time.Second}},
		Machines: []*machine.Machine{machine.Unified()},
	}
	start := time.Now()
	rep := Run(spec, Options{Workers: 1, Timeout: 50 * time.Millisecond})
	if time.Since(start) > 3*time.Second {
		t.Fatal("timeout did not bound the batch")
	}
	if rep.Failures != 1 || len(rep.Outcomes) != 1 || !rep.Outcomes[0].TimedOut {
		t.Fatalf("timeout not recorded: %+v", rep.Outcomes)
	}
	if rep.Combos[0].Timeouts != 1 {
		t.Fatalf("combo timeout accounting: %+v", rep.Combos[0])
	}
}

// cancelAwareScheduler blocks until its request context fires, then
// reports on released that it observed the cancellation — the proof the
// driver cancels in-flight compilations rather than abandoning them.
type cancelAwareScheduler struct{ released chan struct{} }

func (cancelAwareScheduler) Name() string { return "cancel-aware" }
func (c cancelAwareScheduler) Schedule(req *sched.Request) (*sched.Schedule, error) {
	<-req.Ctx.Done()
	close(c.released)
	return nil, req.Cancelled()
}

// TestTimeoutCancelsInFlight pins the cancellation contract end to end:
// the per-compilation deadline reaches the backend through
// sched.Request.Ctx, the outcome is recorded as a timeout, and the
// compile goroutine unwinds instead of leaking.
func TestTimeoutCancelsInFlight(t *testing.T) {
	released := make(chan struct{})
	spec := Spec{
		Corpus:   "cancel",
		Loops:    []*ir.Loop{ir.SingleInstruction()},
		Backends: []sched.Scheduler{cancelAwareScheduler{released: released}},
		Machines: []*machine.Machine{machine.Unified()},
	}
	rep := Run(spec, Options{Workers: 1, Timeout: 50 * time.Millisecond})
	if rep.Failures != 1 || len(rep.Outcomes) != 1 || !rep.Outcomes[0].TimedOut {
		t.Fatalf("timeout not recorded: %+v", rep.Outcomes)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("backend never observed cancellation — goroutine abandoned, not cancelled")
	}
}

// TestReportDeterminism is the local twin of the CI determinism smoke:
// two identical runs without timing marshal to identical bytes, even
// with different worker counts (completion order must not leak).
func TestReportDeterminism(t *testing.T) {
	spec := exampleSpec()
	spec.Loops = append(spec.Loops, gen.Corpus(3, 15)...)
	a := Run(spec, Options{Workers: 1})
	b := Run(spec, Options{Workers: 8})
	da, _ := json.MarshalIndent(a, "", " ")
	db, _ := json.MarshalIndent(b, "", " ")
	if !bytes.Equal(da, db) {
		t.Fatalf("report bytes depend on scheduling:\n%s\nvs\n%s", da, db)
	}
}

// TestExecSumsCycles pins the emitted-code columns: every compiled loop
// is executed, and each combo's SumCycles/SumBundles (and the projected
// rows) are the sums of its outcomes' Cycles/Bundles.
func TestExecSumsCycles(t *testing.T) {
	spec := exampleSpec()
	rep := Run(spec, Options{})
	if rep.Failures != 0 || len(rep.ExecFailures) != 0 {
		t.Fatalf("unexpected failures: %+v", rep.Outcomes)
	}
	type sums struct{ cycles, bundles int }
	want := map[string]sums{}
	for _, o := range rep.Outcomes {
		if o.Cycles <= 0 || o.Bundles <= 0 {
			t.Fatalf("%s: not executed or no cycles/bundles: %+v", o.Key(), o)
		}
		k := o.Backend + "|" + o.Machine
		want[k] = sums{want[k].cycles + o.Cycles, want[k].bundles + o.Bundles}
	}
	rows := rep.Rows()
	for i, c := range rep.Combos {
		w := want[c.Backend+"|"+c.Machine]
		if c.SumCycles != w.cycles || c.SumBundles != w.bundles {
			t.Fatalf("%s x %s: combo %+v, want cycles %d, bundles %d", c.Backend, c.Machine, c, w.cycles, w.bundles)
		}
		if rows[i].SumCycles != c.SumCycles || rows[i].SumBundles != c.SumBundles {
			t.Fatalf("row %+v does not carry combo sums %+v", rows[i], c)
		}
	}
}
