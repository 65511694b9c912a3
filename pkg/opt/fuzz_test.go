package opt

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// FuzzOptAgreesWithValidate is the differential fuzz of the exact
// backend against the Validate oracle: whatever loop the fuzzer invents
// (through the generator's knob space) and whatever conflict budget it
// picks, every model opt decodes must pass Schedule.Validate and sit at
// II >= MII — in particular at or above the resource bound ResMII of the
// loop it schedules — and whenever the sweep proves optimality its II must not
// exceed the list scheduler's. AttemptII already refuses invalid decodes
// with an error instead of escalating II, so a seed that makes
// Schedule() return a validation error is an encoder bug by definition.
// Run longer with
//
//	go test -fuzz FuzzOptAgreesWithValidate ./pkg/opt/
func FuzzOptAgreesWithValidate(f *testing.F) {
	for i, k := range gen.Corners() {
		f.Add(uint64(i)*9176+3, k.Ops, k.MemRatio, k.RecurrenceDensity, k.PressureBias, int64(500))
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops int, memR, recD, bias float64, budget int64) {
		// Bound the body and the budget so one fuzz iteration stays cheap:
		// the CNF grows with ops x horizon, and the property under test —
		// decoded models validate — is size-independent.
		if ops > 10 {
			ops = ops % 10
		}
		if budget <= 0 || budget > 2000 {
			budget = 500
		}
		l := gen.Generate(seed, gen.Knobs{
			Tag: "fuzz", Ops: ops, MemRatio: memR, RecurrenceDensity: recD, PressureBias: bias,
		})
		if err := l.Validate(); err != nil {
			t.Fatalf("generator produced invalid loop: %v", err)
		}
		o := New(WithBudget(budget))
		for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
			sc, err := o.Schedule(&sched.Request{Loop: l, Machine: m})
			if err != nil {
				// Out of budget everywhere is a legitimate outcome of a
				// tiny budget; a validation failure is not (AttemptII wraps
				// those with "model failed validation").
				continue
			}
			if verr := sc.Validate(); verr != nil {
				t.Fatalf("%s on %s: decoded schedule fails Validate: %v", l.Name, m.Name, verr)
			}
			g, err := ir.Build(l, m, nil)
			if err != nil {
				t.Fatalf("%s on %s: build: %v", l.Name, m.Name, err)
			}
			mii, err := sched.ComputeMII(g, m)
			if err != nil {
				t.Fatalf("%s on %s: mii: %v", l.Name, m.Name, err)
			}
			if sc.II < mii.MII {
				t.Fatalf("%s on %s: II %d below MII %d", l.Name, m.Name, sc.II, mii.MII)
			}
			if res, err := sched.ResMII(sc.Loop, m); err != nil || sc.II < res {
				t.Fatalf("%s on %s: II %d below the resource bound %d of the scheduled loop (%v)", l.Name, m.Name, sc.II, res, err)
			}
			if sc.Stats["opt_proved"] == 1 {
				if ls, lerr := (sched.ListScheduler{}).Schedule(&sched.Request{Loop: l, Machine: m}); lerr == nil && sc.II > ls.II {
					t.Fatalf("%s on %s: opt II %d > list II %d despite optimality proof", l.Name, m.Name, sc.II, ls.II)
				}
			}
		}
	})
}
