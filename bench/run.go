package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// config is how one benchmark run is measured.
type config struct {
	seed uint64
	// seconds is the measuring time: timed passes repeat until the next
	// one would overrun it, but at least minPasses run.
	seconds time.Duration
	// quick runs a single pass over the first warmJobs jobs, for tests.
	quick bool
	// timeout bounds each compilation, as driver.DefaultTimeout does for
	// batch sweeps.
	timeout time.Duration
}

const (
	// warmJobs jobs are compiled once, untimed, before measuring, so lazy
	// initialisation and first-touch page faults stay out of the numbers.
	warmJobs = 8
	// setupReps samples of setup time are taken, each the mean of
	// setupBatch setups in a row: one setup takes about a millisecond,
	// too short to time alone on a shared host. setup_s is their median.
	setupReps  = 15
	setupBatch = 4
	// minPasses is the fewest timed passes a run makes, so every
	// compilation's time is a median of at least three.
	minPasses = 3
)

// result is one run of one workload.
type result struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Trace        bool   `json:"trace"`
	Compilations int    `json:"compilations"`
	Passes       int    `json:"passes"`
	Attempted    int    `json:"attempted"`
	Failed       int    `json:"failed"`
	// Failures describes the first few failed compilations.
	Failures []string `json:"failures,omitempty"`
	// Metrics holds the run's value of each metric: the end-to-end ones
	// untraced, the per-layer ones traced.
	Metrics map[string]float64 `json:"metrics"`
	// Samples holds the per-pass values of the end-to-end metrics (per
	// repetition for setup_s), which -compare pairs up.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// HostSpeed is the host's speed relative to nominal during each pass,
	// by which the pass's times were scaled.
	HostSpeed []float64 `json:"host_speed,omitempty"`
	// LoopsPerS and LatencyP95Ms describe throughput and the latency tail.
	// Both are dominated by the few slowest loops, so they move with the
	// seed far more than the bounded metrics; they are reported, not
	// gated.
	LoopsPerS    float64 `json:"loops_per_s,omitempty"`
	LatencyP95Ms float64 `json:"latency_p95_ms,omitempty"`

	spans []span
	table string
}

// failure kinds counted against attempted compilations.
const (
	failError    = "error"
	failTimeout  = "timeout"
	failMismatch = "exec mismatch"
	failDiverged = "nondeterministic"
)

func (r *result) fail(kind string, j job, detail string) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %s on %s by %s: %s", kind, j.loop.Name, j.m.Name, j.be.Name(), detail))
	}
}

// compileJob runs one untraced compilation under the per-compilation
// timeout and classifies how it failed, if it did.
func compileJob(cfg config, w *workload, j job) (*outcome, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	o, err := compile(ctx, w, j)
	return o, classify(o, err), err
}

// classify names how a compilation failed, or returns "" if it did not.
func classify(o *outcome, err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return failTimeout
	case err != nil:
		return failError
	case len(o.Mismatches) > 0:
		return failMismatch
	}
	return ""
}

// setup generates the workload's inputs setupReps times and returns the
// last set with every repetition's duration, scaled to nominal speed.
func setup(cfg config, w *workload, cal *calibrator) ([]job, []float64, error) {
	reps := setupReps
	if cfg.quick {
		reps = 1
	}
	var jobs []job
	times := make([]float64, reps)
	for i := range times {
		cal.sample()
		start := time.Now()
		for k := 0; k < setupBatch; k++ {
			var err error
			if jobs, err = w.setup(cfg.seed); err != nil {
				return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
			}
		}
		times[i] = time.Since(start).Seconds() / setupBatch
	}
	v := cal.speed()
	for i := range times {
		times[i] *= v
	}
	if cfg.quick && len(jobs) > warmJobs {
		jobs = jobs[:warmJobs]
	}
	return jobs, times, nil
}

// warmUp compiles the first warmJobs jobs once, untimed, through the
// path about to be measured.
func warmUp(cfg config, w *workload, jobs []job, traced bool) {
	tr := newTracer()
	for _, j := range jobs[:min(warmJobs, len(jobs))] {
		if traced {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
			_, _ = tr.compileTraced(ctx, w, j, &eventCounter{})
			cancel()
		} else {
			_, _, _ = compileJob(cfg, w, j)
		}
	}
}

// untracedPass is one pass over a workload with tracing off: per job its
// outcome (nil when it failed), wall time and heap allocations, and the
// host's speed during the pass.
type untracedPass struct {
	durs          []time.Duration
	allocs, bytes []float64
	outs          []*outcome
	kinds, errors []string
	speed         float64
}

// compileTime is the pass's raw compile time: its jobs' wall times.
func (p *untracedPass) compileTime() time.Duration {
	var t time.Duration
	for _, d := range p.durs {
		t += d
	}
	return t
}

// runUntraced compiles every job once. Heap statistics are read around
// each compilation, outside its timed span, and the calibration kernel
// runs between compilations, also outside them.
func runUntraced(cfg config, w *workload, jobs []job, cal *calibrator) untracedPass {
	n := len(jobs)
	p := untracedPass{durs: make([]time.Duration, n), allocs: make([]float64, n), bytes: make([]float64, n),
		outs: make([]*outcome, n), kinds: make([]string, n), errors: make([]string, n)}
	var ms runtime.MemStats
	cal.sample()
	for i, j := range jobs {
		runtime.ReadMemStats(&ms)
		mallocs, total := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		o, kind, err := compileJob(cfg, w, j)
		p.durs[i] = time.Since(start)
		runtime.ReadMemStats(&ms)
		p.allocs[i], p.bytes[i] = float64(ms.Mallocs-mallocs), float64(ms.TotalAlloc-total)
		p.outs[i], p.kinds[i] = o, kind
		switch {
		case err != nil:
			p.errors[i] = err.Error()
		case kind == failMismatch:
			p.errors[i] = o.Mismatches[0]
		}
		cal.tick()
	}
	cal.sample()
	p.speed = cal.speed()
	return p
}

// enough reports whether measuring should stop after a pass: at least
// minPasses ran (one when quick) and another pass as long as the last
// would overrun the measuring time.
func enough(cfg config, passes, least int, elapsed, last time.Duration) bool {
	if cfg.quick {
		return true
	}
	return passes >= least && elapsed+last > cfg.seconds
}

// runWorkload measures one workload with tracing off and reports its
// end-to-end metrics.
func runWorkload(cfg config, w *workload) (*result, error) {
	cal := newCalibrator()
	jobs, setupTimes, err := setup(cfg, w, cal)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: w.name, Seed: cfg.seed, Compilations: len(jobs)}
	warmUp(cfg, w, jobs, false)

	var passes []untracedPass
	start := time.Now()
	for {
		last := time.Now()
		passes = append(passes, runUntraced(cfg, w, jobs, cal))
		if enough(cfg, len(passes), minPasses, time.Since(start), time.Since(last)) {
			break
		}
	}
	outs := r.account(jobs, passes)

	// Each compilation's time is its median over the passes, each pass
	// scaled by the host's speed during it.
	s := map[string][]float64{"setup_s": setupTimes}
	perJob := make([][]float64, len(jobs))
	for _, p := range passes {
		r.HostSpeed = append(r.HostSpeed, p.speed)
		lat := make([]float64, len(jobs))
		for i, d := range p.durs {
			lat[i] = ms(d) * p.speed
			perJob[i] = append(perJob[i], lat[i])
		}
		s["compile_ms_geomean"] = append(s["compile_ms_geomean"], geomean(lat))
		s["latency_p50_ms"] = append(s["latency_p50_ms"], percentile(lat, 50))
		s["allocs_geomean"] = append(s["allocs_geomean"], geomean(p.allocs))
		s["alloc_kb_geomean"] = append(s["alloc_kb_geomean"], geomean(p.bytes)/1024)
	}
	jobMs := make([]float64, len(jobs))
	var total float64
	for i, xs := range perJob {
		jobMs[i] = median(xs)
		total += jobMs[i]
	}
	m := quality(outs)
	for name, v := range m {
		s[name] = repeat(v, len(passes))
	}
	m["setup_s"] = median(setupTimes)
	m["compile_ms_geomean"] = geomean(jobMs)
	m["latency_p50_ms"] = percentile(jobMs, 50)
	m["allocs_geomean"] = median(s["allocs_geomean"])
	m["alloc_kb_geomean"] = median(s["alloc_kb_geomean"])
	r.LoopsPerS = 1000 * float64(len(jobs)) / total
	r.LatencyP95Ms = percentile(jobMs, 95)
	r.Metrics, r.Samples = m, s
	r.table = endToEndTable(r)
	return r, nil
}

// account counts every pass's compilations as attempted, each failure
// against them, and any compilation whose outcome changed between passes
// as nondeterministic. It returns the first pass's successful outcomes.
func (r *result) account(jobs []job, passes []untracedPass) []*outcome {
	r.Passes = len(passes)
	var outs []*outcome
	for pi, p := range passes {
		for i, j := range jobs {
			r.Attempted++
			switch {
			case p.kinds[i] != "":
				r.fail(p.kinds[i], j, p.errors[i])
			case pi > 0 && passes[0].outs[i] != nil && !passes[0].outs[i].same(p.outs[i]):
				r.fail(failDiverged, j, fmt.Sprintf("pass %d differs from pass 0", pi))
			case pi == 0:
				outs = append(outs, p.outs[i])
			}
		}
	}
	return outs
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// runTraced measures one workload's layers. Untraced and traced passes
// alternate, so the tracing overhead is measured under the same
// conditions; every traced compilation must match the untraced one of
// the same job or the run fails.
func runTraced(cfg config, w *workload) (*result, error) {
	cal := newCalibrator()
	jobs, _, err := setup(cfg, w, cal)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: w.name, Seed: cfg.seed, Trace: true, Compilations: len(jobs)}
	warmUp(cfg, w, jobs, false)
	warmUp(cfg, w, jobs, true)

	var untraced []untracedPass
	var traced []tracedPass
	tr := newTracer()
	start := time.Now()
	for {
		last := time.Now()
		untraced = append(untraced, runUntraced(cfg, w, jobs, cal))
		tp, err := runTracedPass(cfg, w, jobs, tr, untraced[0].outs)
		if err != nil {
			return nil, err
		}
		traced = append(traced, tp)
		if enough(cfg, len(traced), 1, time.Since(start), time.Since(last)) {
			break
		}
	}
	outs := r.account(jobs, untraced)
	r.Passes = len(traced)
	base := make([]time.Duration, len(untraced))
	for i := range untraced {
		base[i] = untraced[i].compileTime()
	}
	r.Metrics = layerMetrics(traced, base, outs)
	r.spans = tr.spans
	var compileMs float64
	for _, p := range traced {
		compileMs += ms(p.compile) / float64(len(traced))
	}
	r.table = layerTable(r, compileMs)
	return r, nil
}

// runTracedPass compiles every job once through the traced path and
// checks each outcome against ref, the untraced outcome of the same job.
func runTracedPass(cfg config, w *workload, jobs []job, tr *tracer, ref []*outcome) (tracedPass, error) {
	first := len(tr.spans)
	var p tracedPass
	for i, j := range jobs {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
		o, err := tr.compileTraced(ctx, w, j, &p.events)
		cancel()
		if (err == nil) != (ref[i] != nil) || (err == nil && !o.same(ref[i])) {
			return p, fmt.Errorf("%s: traced path diverged from core on %s on %s by %s (traced error: %v)",
				w.name, j.loop.Name, j.m.Name, j.be.Name(), err)
		}
	}
	p.foldSpans(tr.spans, first)
	return p, nil
}
