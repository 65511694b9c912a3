package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// benchMachines is the machine grid the benchmarks sweep.
func benchMachines() []struct {
	name string
	m    *machine.Machine
} {
	return []struct {
		name string
		m    *machine.Machine
	}{
		{"Unified", machine.Unified()},
		{"Paper4Cluster", machine.Paper4Cluster()},
	}
}

// TestCompileAllocs pins heap allocations per full-corpus compile —
// every example loop through graph build, MII, scheduling, pressure
// analysis and expansion — per backend × {unified, paper-4cluster}, and
// for MIRS on the register-starved machine, where it spills, over the
// first 60 loops of gen.Corpus(1, ·). Allocation counts are
// deterministic for one toolchain, so this is the throughput figure
// worth gating. The limits are the counts measured with Go 1.24 on
// linux/amd64 plus 25% headroom, which absorbs Go-version drift and the
// few percent the race detector adds while still catching a hot path
// that regressed to per-attempt allocation (those regress by integer
// factors, not percents). Re-measure and lower a limit when an
// optimisation lands.
func TestCompileAllocs(t *testing.T) {
	measured := map[string]float64{
		"list x Unified":       331,
		"list x Paper4Cluster": 370,
		"mirs x Unified":       359,
		"mirs x Paper4Cluster": 383,
		"mirs x Tight":         5267,
	}
	check := func(key string, be sched.Scheduler, m *machine.Machine, loops []*ir.Loop) {
		want, ok := measured[key]
		if !ok {
			t.Fatalf("%s: no measured allocation count; add one", key)
		}
		allocs := testing.AllocsPerRun(3, func() {
			for _, l := range loops {
				if _, err := CompileWith(be, l, m); err != nil {
					t.Fatalf("%s: %s: %v", key, l.Name, err)
				}
			}
		})
		t.Logf("%s: %.0f allocs per corpus compile", key, allocs)
		if limit := want * 1.25; allocs > limit {
			t.Errorf("%s: %.0f allocs per corpus compile, limit %.0f (measured %.0f)", key, allocs, limit, want)
		}
	}
	for _, be := range Backends() {
		for _, mc := range benchMachines() {
			check(be.Name()+" x "+mc.name, be, mc.m, ir.ExampleLoops())
		}
	}
	check("mirs x Tight", mirs.New(), machine.Tight(), gen.Corpus(1, 60))
}

// TestPipelineAllocs pins heap allocations per pass of the whole path a
// benchmark job takes — CompileWithOpts, emit.Emit and vm.VerifyProgram
// at predicated trips {Stages, Trip+1, 512} under the loop's ExecSeed —
// over gen.Corpus(1, 24) by the list backend on each canned machine:
// the list-longtrip workload's shape, where emission and the
// differential oracle dominate. TestCompileAllocs stops before emit and
// verify. Limits are the Go 1.24 linux/amd64 measurements plus 25%.
func TestPipelineAllocs(t *testing.T) {
	measured := map[string]float64{"unified": 1637, "paper-4cluster": 1841, "tight": 1810}
	loops := gen.Corpus(1, 24)
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		allocs := testing.AllocsPerRun(2, func() {
			for _, l := range loops {
				r, err := CompileWithOpts(context.Background(), sched.ListScheduler{}, l, m, Opts{})
				if err != nil {
					t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
				}
				prog, err := emit.Emit(r.Expanded)
				if err != nil {
					t.Fatalf("%s on %s: emit: %v", l.Name, m.Name, err)
				}
				opts := vm.Options{Seed: ExecSeed(l.Name), PredTrips: []int{prog.Stages, prog.Trip + 1, 512}}
				rep, err := vm.VerifyProgram(r.Expanded, prog, opts)
				if err != nil {
					t.Fatalf("%s on %s: exec: %v", l.Name, m.Name, err)
				}
				if !rep.OK() {
					t.Fatal(rep.String())
				}
			}
		})
		t.Logf("%s: %.0f allocs per corpus pass", m.Name, allocs)
		if limit := measured[m.Name] * 1.25; allocs > limit {
			t.Errorf("%s: %.0f allocs per corpus pass, limit %.0f (measured %.0f)", m.Name, allocs, limit, measured[m.Name])
		}
	}
}

// BenchmarkPlacement isolates the steady-state placement path: the
// dependence graph and MII are built once outside the timed loop, so
// ns/op and allocs/op measure only what Scheduler.Schedule itself costs
// — the MRT probes, window scans, pressure tracking and II retries the
// hot-path work targets. This is the benchmark the "zero allocations
// steady-state" claim is checked against; the whole-pipeline
// allocation count (graph build, analysis, expansion included) is
// pinned by TestCompileAllocs.
func BenchmarkPlacement(b *testing.B) {
	for _, be := range Backends() {
		for _, mc := range benchMachines() {
			key := fmt.Sprintf("%sx%s", be.Name(), mc.name)
			b.Run(key, func(b *testing.B) {
				loops := ir.ExampleLoops()
				reqs := make([]*sched.Request, len(loops))
				for i, l := range loops {
					g, err := ir.Build(l, mc.m, nil)
					if err != nil {
						b.Fatal(err)
					}
					mii, err := sched.ComputeMII(g, mc.m)
					if err != nil {
						b.Fatal(err)
					}
					reqs[i] = &sched.Request{Loop: l, Machine: mc.m, Graph: g, MII: &mii}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, req := range reqs {
						if _, err := be.Schedule(req); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
