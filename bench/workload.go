package main

import (
	"fmt"

	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/opt"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// job is one compilation: a loop, the backend that schedules it and the
// machine it targets.
type job struct {
	loop *ir.Loop
	be   sched.Scheduler
	m    *machine.Machine
}

// workload is one set of inputs the benchmark runs. Each is chosen to
// stress a different layer, so that an optimisation of one layer has a
// workload that exercises it and one that bypasses it (see README.md).
type workload struct {
	name string
	why  string
	// setup generates the inputs from the seed and builds and validates
	// the machines: everything setup_s measures.
	setup func(seed uint64) ([]job, error)
	// predTrips picks the extra predicated-plan trip counts the VM runs;
	// nil keeps vm's default pair.
	predTrips func(p *emit.Program) []int
}

var workloads = []workload{
	{
		name: "mirs-tight",
		why:  "register-starved machine: MIRS spilling and backtracking dominate, emit and VM are a few percent",
		setup: func(seed uint64) ([]job, error) {
			return grid(gen.Corpus(seed, 240), mirs.New(), machine.Tight())
		},
	},
	{
		name: "mirs-4cluster",
		why:  "four clusters, few spills: cluster assignment, bus transfers and ejections dominate the search",
		setup: func(seed uint64) ([]job, error) {
			return grid(gen.Corpus(seed, 960), mirs.New(), machine.Paper4Cluster())
		},
	},
	{
		name: "list-longtrip",
		why:  "cheap non-backtracking search with 512-iteration runs: VM verification and emit dominate",
		setup: func(seed uint64) ([]job, error) {
			return grid(gen.Corpus(seed, 240), sched.ListScheduler{}, machine.Unified(), machine.Paper4Cluster(), machine.Tight())
		},
		predTrips: func(p *emit.Program) []int { return []int{p.Stages, p.Trip + 1, 512} },
	},
	{
		name: "opt-small",
		why:  "exact backend on the gap gate's small loops: the CDCL solver does nearly all the work",
		setup: func(seed uint64) ([]job, error) {
			return grid(driver.GapCorpus(seed, 240, 12), opt.New(), machine.Unified(), machine.Paper4Cluster(), machine.Tight())
		},
	},
}

// grid crosses loops with machines, loop-major, after validating every
// machine.
func grid(loops []*ir.Loop, be sched.Scheduler, ms ...*machine.Machine) ([]job, error) {
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("machine %s: %w", m.Name, err)
		}
	}
	jobs := make([]job, 0, len(loops)*len(ms))
	for _, l := range loops {
		for _, m := range ms {
			jobs = append(jobs, job{loop: l, be: be, m: m})
		}
	}
	return jobs, nil
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
