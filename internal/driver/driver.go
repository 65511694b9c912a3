// Package driver is the batch-compilation pipeline: it fans a loop
// population out over every requested backend × machine combination
// through a bounded worker pool, differentially executes every
// compilation, isolates per-loop failures (errors, panics, timeouts,
// execution mismatches) so one pathological loop costs one result
// rather than the sweep, and folds the outcomes into the paper-style
// aggregate tables — II vs MII distribution, spill traffic,
// MaxLive-vs-registers fit rate, unroll factors, executed cycles and
// wall-clock throughput — that CI and the msched CLI consume as one
// artifact.
package driver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/report"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// Spec names one batch: the loop population and the backend × machine
// grid to compile it across.
type Spec struct {
	// Corpus labels the population in reports and baseline rows.
	Corpus string
	// Loops is the population; loop names must be unique.
	Loops []*ir.Loop
	// Backends and Machines span the compilation grid. Every loop is
	// compiled len(Backends) × len(Machines) times.
	Backends []sched.Scheduler
	Machines []*machine.Machine
}

// Options tunes the pipeline.
type Options struct {
	// Workers bounds the fan-out; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout is the per-compilation budget; <= 0 means DefaultTimeout.
	// A compilation that exceeds it is recorded as a timeout outcome and
	// its context is cancelled, so the in-flight II search unwinds at
	// the backend's next cancellation checkpoint instead of running to
	// completion in an abandoned goroutine; the worker slot moves on
	// immediately either way.
	Timeout time.Duration
	// Timing enables the wall-clock fields of the report (elapsed,
	// loops/sec, per-outcome durations). Leave false for byte-identical
	// reports across runs — the CI determinism smoke diffs two of them.
	Timing bool
}

// DefaultTimeout is the per-compilation budget when Options.Timeout is
// unset: generous against a scheduler backtracking hard, tight enough
// that a hung backend cannot stall a CI sweep.
const DefaultTimeout = 30 * time.Second

// Outcome is one compilation's result row.
type Outcome struct {
	Loop    string `json:"loop"`
	Backend string `json:"backend"`
	Machine string `json:"machine"`
	// Err is the non-fatal failure path: compile error, panic (with
	// trimmed stack) or timeout. Empty on success.
	Err      string `json:"err,omitempty"`
	TimedOut bool   `json:"timed_out,omitempty"`
	// Quality metrics, valid when Err is empty.
	II          int  `json:"ii,omitempty"`
	MII         int  `json:"mii,omitempty"`
	MaxLive     int  `json:"max_live,omitempty"`
	Unroll      int  `json:"unroll,omitempty"`
	Fits        bool `json:"fits,omitempty"`
	SpillLoads  int  `json:"spill_loads,omitempty"`
	SpillStores int  `json:"spill_stores,omitempty"`
	// Stats carries the backend's Schedule.Stats counters verbatim
	// (ejections, spill_ii_increase, single_cluster_fallback, ...).
	Stats map[string]int `json:"stats,omitempty"`
	// Every compiled loop is differentially executed (pkg/emit →
	// pkg/vm, core.Opts.Exec). ExecErr carries the first mismatch lines
	// when the emitted code diverged from the sequential reference, and
	// is empty when execution verified clean. Cycles and Bundles are the
	// executed MVE program's issue span and code size
	// (vm.Report.MVECycles, MVEBundles).
	ExecErr string `json:"exec_err,omitempty"`
	Cycles  int    `json:"cycles,omitempty"`
	Bundles int    `json:"bundles,omitempty"`
	// Micros is the compilation wall-clock in microseconds; zero unless
	// Options.Timing is set.
	Micros int64 `json:"micros,omitempty"`
}

// Key orders outcomes deterministically.
func (o Outcome) Key() string { return o.Loop + "|" + o.Backend + "|" + o.Machine }

// Combo is the aggregate over one backend × machine cell of the grid —
// the row of the paper-style comparison tables.
type Combo struct {
	Backend string `json:"backend"`
	Machine string `json:"machine"`
	// Loops counts attempted compilations; Compiled the successful ones;
	// Errors and Timeouts the two failure modes. The categories are
	// disjoint: Loops = Compiled + Errors + Timeouts.
	Loops    int `json:"loops"`
	Compiled int `json:"compiled"`
	Errors   int `json:"errors"`
	Timeouts int `json:"timeouts"`
	// Quality sums over compiled loops (the baseline-gated metrics).
	SumII      int `json:"sum_ii"`
	SumMII     int `json:"sum_mii"`
	SumMaxLive int `json:"sum_max_live"`
	SumUnroll  int `json:"sum_unroll"`
	// AtMII counts loops scheduled exactly at their lower bound, the MII
	// the search starts from (sched.ComputeMII, cluster lift included);
	// together with IIOverMII it is the II-vs-MII distribution.
	AtMII int `json:"at_mii"`
	// IIOverMII is the histogram of II − MII, ascending by delta.
	IIOverMII []HistBin `json:"ii_over_mii,omitempty"`
	// Fit counts compiled loops whose pressure fits the register files
	// without further spilling (regpress.Result.Fits).
	Fit int `json:"fit"`
	// Spill traffic summed over compiled loops.
	SpillLoads  int `json:"spill_loads"`
	SpillStores int `json:"spill_stores"`
	// Stats folds every backend-reported Schedule.Stats counter.
	Stats map[string]int `json:"stats,omitempty"`
	// ExecFailed counts compiled loops whose emitted code diverged from
	// the sequential reference; SumCycles and SumBundles sum the executed
	// programs' Outcome.Cycles and Outcome.Bundles (baseline-gated).
	ExecFailed int `json:"exec_failed,omitempty"`
	SumCycles  int `json:"sum_cycles,omitempty"`
	SumBundles int `json:"sum_bundles,omitempty"`
}

// HistBin is one bucket of the II-over-MII histogram.
type HistBin struct {
	Delta int `json:"delta"`
	Count int `json:"count"`
}

// FitRate is Fit/Compiled (zero when nothing compiled).
func (c *Combo) FitRate() float64 {
	if c.Compiled == 0 {
		return 0
	}
	return float64(c.Fit) / float64(c.Compiled)
}

// Report is one batch run's full result.
type Report struct {
	Corpus string `json:"corpus"`
	// Loops is the population size; Jobs the grid total (loops ×
	// backends × machines).
	Loops int `json:"loops"`
	Jobs  int `json:"jobs"`
	// Workers is part of the timing block: it is only meaningful next to
	// throughput and, like it, is machine-dependent, so untimed reports
	// zero it — byte-determinism must not hinge on core counts.
	Workers int `json:"workers,omitempty"`
	// Failures is the count of compilations across the whole grid that
	// errored or timed out.
	Failures int `json:"failures"`
	// ExecFailures lists the outcome keys whose differential execution
	// found a mismatch, sorted. `msched run` and `msched compare` fail
	// on it, as on Failures.
	ExecFailures []string `json:"exec_failures,omitempty"`
	Combos       []Combo  `json:"combos"`
	// Outcomes holds one row per compilation, population × grid, sorted
	// by (loop, backend, machine).
	Outcomes []Outcome `json:"outcomes,omitempty"`
	// Timing block; zero unless Options.Timing is set.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// LoopsPerSec is compilation throughput: Jobs / elapsed.
	LoopsPerSec float64 `json:"loops_per_sec,omitempty"`
	// P50Micros/P99Micros are per-compilation wall-clock percentiles
	// (nearest-rank over every job, failures included) — the numbers
	// that show how long the tail loops' II searches run. Timing block:
	// zero and absent on untimed reports.
	P50Micros int64 `json:"p50_micros,omitempty"`
	P99Micros int64 `json:"p99_micros,omitempty"`
}

// Rows projects the aggregate into baseline-comparable report rows, one
// per backend × machine. Row.Loops counts only compiled loops, so a
// failure shrinks the population and trips the baseline gate's
// population check rather than masquerading as an II improvement.
func (r *Report) Rows() []report.Row {
	rows := make([]report.Row, 0, len(r.Combos))
	for _, c := range r.Combos {
		rows = append(rows, report.Row{
			Backend: c.Backend, Machine: c.Machine, Corpus: r.Corpus,
			Loops: c.Compiled, SumII: c.SumII, SumMaxLive: c.SumMaxLive, SumUnroll: c.SumUnroll,
			SumCycles: c.SumCycles, SumBundles: c.SumBundles,
		})
	}
	return rows
}

// job is one unit of pool work.
type job struct {
	loop    *ir.Loop
	backend sched.Scheduler
	mach    *machine.Machine
}

// Run compiles and differentially executes the spec's population across
// its grid under the given options and aggregates the outcome. It never
// fails as a whole: every per-loop error, panic and timeout is an
// Outcome row and a Failures increment, and every execution mismatch an
// ExecFailures entry, so callers decide what fails.
func Run(spec Spec, opts Options) *Report {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}

	jobs := make([]job, 0, len(spec.Loops)*len(spec.Backends)*len(spec.Machines))
	for _, l := range spec.Loops {
		for _, be := range spec.Backends {
			for _, m := range spec.Machines {
				jobs = append(jobs, job{loop: l, backend: be, mach: m})
			}
		}
	}

	outcomes := make([]Outcome, len(jobs))
	durs := make([]time.Duration, len(jobs))
	jobCh := make(chan int)
	done := make(chan struct{})
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobCh {
				outcomes[i], durs[i] = runOne(jobs[i], timeout, opts.Timing)
			}
			done <- struct{}{}
		}()
	}
	for i := range jobs {
		jobCh <- i
	}
	close(jobCh)
	for w := 0; w < workers; w++ {
		<-done
	}
	elapsed := time.Since(start)

	rep := aggregate(spec, opts, workers, outcomes, elapsed)
	if opts.Timing {
		rep.P50Micros, rep.P99Micros = percentiles(durs)
	}
	return rep
}

// runOne compiles and executes a single job with panic isolation (inside
// core.CompileWithOpts) and a wall-clock budget enforced through context
// cancellation: the deadline both frees the worker slot and unwinds the
// in-flight II search at the backend's next checkpoint, so a
// pathological loop costs one timeout outcome, not a leaked goroutine.
// The select on ctx.Done() is a backstop for a backend stuck inside a
// single II attempt — the slot still moves on at the deadline even if
// the checkpoint is slow to come around.
// The returned duration is always measured (the timing percentiles rank
// it) but only surfaces on the Outcome as Micros when timing is set,
// keeping untimed reports byte-identical.
func runOne(j job, timeout time.Duration, timing bool) (Outcome, time.Duration) {
	o := Outcome{Loop: j.loop.Name, Backend: j.backend.Name(), Machine: j.mach.Name}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	type res struct {
		r   *core.Result
		err error
	}
	ch := make(chan res, 1)
	begin := time.Now()
	go func() {
		r, err := core.CompileWithOpts(ctx, j.backend, j.loop, j.mach, core.Opts{Exec: true})
		ch <- res{r, err}
	}()
	var r res
	select {
	case r = <-ch:
		if r.err != nil && errors.Is(r.err, context.DeadlineExceeded) {
			o.TimedOut = true
			o.Err = fmt.Sprintf("timeout after %s", timeout)
			return o, time.Since(begin)
		}
	case <-ctx.Done():
		o.TimedOut = true
		o.Err = fmt.Sprintf("timeout after %s", timeout)
		return o, time.Since(begin)
	}
	dur := time.Since(begin)
	if timing {
		o.Micros = dur.Microseconds()
	}
	if r.err != nil {
		o.Err = r.err.Error()
		return o, dur
	}
	o.II = r.r.Schedule.II
	o.MII = r.r.MII.MII
	o.MaxLive = r.r.Pressure.MaxLive
	o.Unroll = r.r.Expanded.Unroll
	o.Fits = r.r.Pressure.Fits()
	if st := r.r.Schedule.Stats; st != nil {
		o.SpillStores = st["spill_stores"]
		o.SpillLoads = st["spill_loads"]
		o.Stats = st
	}
	v := r.r.Verified
	o.Cycles = v.MVECycles
	o.Bundles = v.MVEBundles
	if !v.OK() {
		// The mismatch lines are already deterministic and bounded;
		// keep the first few so the report stays readable when a bug
		// breaks many loops at once.
		ms := v.Mismatches
		if len(ms) > 4 {
			ms = append(append([]string(nil), ms[:4]...), fmt.Sprintf("... %d more", len(v.Mismatches)-4))
		}
		o.ExecErr = strings.Join(ms, "; ")
	}
	return o, dur
}

// percentiles returns the nearest-rank p50 and p99 of the per-job wall
// clocks, in microseconds.
func percentiles(durs []time.Duration) (p50, p99 int64) {
	if len(durs) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(p int) time.Duration {
		i := (len(sorted)*p + 99) / 100
		if i > 0 {
			i--
		}
		return sorted[i]
	}
	return rank(50).Microseconds(), rank(99).Microseconds()
}

// aggregate folds outcome rows into the report. Everything it emits is
// deterministic in the outcome set: combos and outcomes are sorted,
// histograms ascend by delta, and stats maps marshal with sorted keys.
func aggregate(spec Spec, opts Options, workers int, outcomes []Outcome, elapsed time.Duration) *Report {
	rep := &Report{
		Corpus: spec.Corpus,
		Loops:  len(spec.Loops),
		Jobs:   len(outcomes),
	}
	if opts.Timing {
		rep.Workers = workers
	}
	type comboKey struct{ be, m string }
	combos := map[comboKey]*Combo{}
	hist := map[comboKey]map[int]int{}
	for i := range outcomes {
		o := &outcomes[i]
		k := comboKey{o.Backend, o.Machine}
		c := combos[k]
		if c == nil {
			c = &Combo{Backend: o.Backend, Machine: o.Machine}
			combos[k] = c
			hist[k] = map[int]int{}
		}
		c.Loops++
		switch {
		case o.TimedOut:
			c.Timeouts++
			rep.Failures++
		case o.Err != "":
			c.Errors++
			rep.Failures++
		default:
			c.Compiled++
			c.SumII += o.II
			c.SumMII += o.MII
			c.SumMaxLive += o.MaxLive
			c.SumUnroll += o.Unroll
			if o.II == o.MII {
				c.AtMII++
			}
			hist[k][o.II-o.MII]++
			if o.Fits {
				c.Fit++
			}
			c.SpillLoads += o.SpillLoads
			c.SpillStores += o.SpillStores
			c.SumCycles += o.Cycles
			c.SumBundles += o.Bundles
			if o.ExecErr != "" {
				c.ExecFailed++
				rep.ExecFailures = append(rep.ExecFailures, o.Key())
			}
			for key, n := range o.Stats {
				if c.Stats == nil {
					c.Stats = map[string]int{}
				}
				c.Stats[key] += n
			}
		}
	}
	for k, c := range combos {
		for delta, n := range hist[k] {
			c.IIOverMII = append(c.IIOverMII, HistBin{Delta: delta, Count: n})
		}
		sort.Slice(c.IIOverMII, func(i, j int) bool { return c.IIOverMII[i].Delta < c.IIOverMII[j].Delta })
		rep.Combos = append(rep.Combos, *c)
	}
	sort.Slice(rep.Combos, func(i, j int) bool {
		a, b := rep.Combos[i], rep.Combos[j]
		if a.Backend != b.Backend {
			return a.Backend < b.Backend
		}
		return a.Machine < b.Machine
	})
	sort.Strings(rep.ExecFailures)
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Key() < outcomes[j].Key() })
	rep.Outcomes = outcomes
	if opts.Timing {
		rep.ElapsedSeconds = elapsed.Seconds()
		if s := elapsed.Seconds(); s > 0 {
			rep.LoopsPerSec = float64(len(outcomes)) / s
		}
	}
	return rep
}
