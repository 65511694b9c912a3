package main

import (
	"math"
	"sort"
	"time"

	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// metricDef names one metric, its unit and which direction is better.
// The lists below must match BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run: what a user compiling
// loops with this system sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"compile_ms_geomean", "ms", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"allocs_geomean", "count", "lower"},
	{"alloc_kb_geomean", "KiB", "lower"},
	{"sum_ii", "cycles", "lower"},
	{"sum_max_live", "count", "lower"},
	{"exec_cycles", "cycles", "lower"},
	{"speedup_geomean", "x", "higher"},
	{"code_bundles", "count", "lower"},
}

// perLayer are the metrics of the traced run, one group per layer. Each
// *_ms is the layer's self time per pass.
var perLayer = []metricDef{
	{"ir.build_ms", "ms", "lower"},
	{"ir.nodes", "count", "lower"},
	{"ir.edges", "count", "lower"},
	{"sched.mii_ms", "ms", "lower"},
	{"search.probe_ms", "ms", "lower"},
	{"search.attempt_ms", "ms", "lower"},
	{"search.attempt_p90_ms", "ms", "lower"},
	{"search.attempts", "count", "lower"},
	{"search.success_ratio", "fraction", "higher"},
	{"search.place", "count", "lower"},
	{"search.eject", "count", "lower"},
	{"search.eject_per_place", "ratio", "lower"},
	{"search.window_miss", "count", "lower"},
	{"search.force", "count", "lower"},
	{"search.window_cache_hit_ratio", "fraction", "higher"},
	{"mirs.victims", "count", "lower"},
	{"mirs.spill_stores", "count", "lower"},
	{"mirs.spill_loads", "count", "lower"},
	{"mirs.spill_ii_increase", "cycles", "lower"},
	{"mirs.pressure_excess", "count", "lower"},
	{"opt.conflicts", "count", "lower"},
	{"opt.unsat_below", "count", "higher"},
	{"opt.unknown_below", "count", "lower"},
	{"opt.proved", "count", "higher"},
	{"regpress.analyze_ms", "ms", "lower"},
	{"regpress.lifetimes", "count", "lower"},
	{"sched.expand_ms", "ms", "lower"},
	{"sched.unroll", "count", "lower"},
	{"emit.emit_ms", "ms", "lower"},
	{"emit.mve_bundles", "count", "lower"},
	{"emit.pred_bundles", "count", "lower"},
	{"emit.frame_slots", "count", "lower"},
	{"vm.verify_ms", "ms", "lower"},
	{"vm.seq_cycles", "cycles", "lower"},
	{"vm.mve_cycles", "cycles", "lower"},
	{"vm.trips", "count", "lower"},
	{"bench.other_ms", "ms", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// layerSpans maps each *_ms layer metric to the span whose self time it
// reports.
var layerSpans = []struct{ metric, span string }{
	{"ir.build_ms", spanBuild},
	{"sched.mii_ms", spanMII},
	{"search.probe_ms", spanProbe},
	{"search.attempt_ms", spanAttempt},
	{"regpress.analyze_ms", spanAnalyze},
	{"sched.expand_ms", spanExpand},
	{"emit.emit_ms", spanEmit},
	{"vm.verify_ms", spanVerify},
	{"bench.other_ms", spanRoot},
}

// quality computes the generated-code metrics. They are deterministic:
// a pure function of the workload's inputs.
func quality(outs []*outcome) map[string]float64 {
	q := map[string]float64{}
	var logSpeedup float64
	for _, o := range outs {
		q["sum_ii"] += float64(o.II)
		q["sum_max_live"] += float64(o.MaxLive)
		q["exec_cycles"] += float64(o.MVECycles)
		q["code_bundles"] += float64(o.MVEBundles)
		logSpeedup += math.Log(float64(o.SeqCycles) / float64(max(1, o.MVECycles)))
	}
	if len(outs) > 0 {
		q["speedup_geomean"] = math.Exp(logSpeedup / float64(len(outs)))
	}
	return q
}

// tracedPass is what one traced pass over a workload recorded.
type tracedPass struct {
	// compile sums the compilations' root spans; self splits it by span
	// name.
	compile  time.Duration
	self     map[string]time.Duration
	attempts []time.Duration
	events   eventCounter
}

// foldSpans folds the spans from index from on into the pass: per-name
// self time is a span's duration minus the durations of its children.
// The children of one compilation run one after another inside its root
// span, so their durations never overlap.
func (p *tracedPass) foldSpans(spans []span, from int) {
	p.self = map[string]time.Duration{}
	for _, s := range spans[from:] {
		d := time.Duration(s.End - s.Start)
		p.self[s.Name] += d
		if s.Parent >= 0 {
			p.self[spans[s.Parent].Name] -= d
		} else {
			p.compile += d
		}
		if s.Name == spanAttempt {
			p.attempts = append(p.attempts, d)
		}
	}
}

// layerMetrics computes every per-layer metric from the traced passes,
// the compile times of the untraced passes run between them, and the
// workload's outcomes.
func layerMetrics(tp []tracedPass, untraced []time.Duration, outs []*outcome) map[string]float64 {
	v := map[string]float64{}
	// Self times are means over the passes, not medians, so that the
	// layers' shares add up exactly to the compilation spans.
	for _, ls := range layerSpans {
		for _, p := range tp {
			v[ls.metric] += ms(p.self[ls.span]) / float64(len(tp))
		}
	}
	var attempts []float64
	for _, p := range tp {
		for _, d := range p.attempts {
			attempts = append(attempts, ms(d))
		}
	}
	v["search.attempt_p90_ms"] = percentile(attempts, 90)

	ev := &tp[0].events
	count := func(k trace.Kind) float64 { return float64(ev.n[k]) }
	v["search.attempts"] = count(trace.KindIIStart)
	if n := count(trace.KindIIStart); n > 0 {
		v["search.success_ratio"] = float64(len(outs)) / n
	}
	v["search.place"] = count(trace.KindPlace)
	v["search.eject"] = count(trace.KindEject)
	if n := count(trace.KindPlace); n > 0 {
		v["search.eject_per_place"] = count(trace.KindEject) / n
	}
	v["search.window_miss"] = count(trace.KindWindowMiss)
	v["search.force"] = count(trace.KindForce)
	if n := ev.arg[trace.KindCacheHit] + ev.arg[trace.KindCacheMiss]; n > 0 {
		v["search.window_cache_hit_ratio"] = float64(ev.arg[trace.KindCacheHit]) / float64(n)
	}
	v["mirs.victims"] = count(trace.KindVictim)

	stats := map[string]string{
		"mirs.spill_stores": "spill_stores", "mirs.spill_loads": "spill_loads",
		"mirs.spill_ii_increase": "spill_ii_increase", "mirs.pressure_excess": "pressure_excess",
		"opt.conflicts": "opt_conflicts", "opt.unsat_below": "opt_unsat_below",
		"opt.unknown_below": "opt_unknown_below", "opt.proved": "opt_proved",
	}
	for _, o := range outs {
		for metric, key := range stats {
			v[metric] += float64(o.Stats[key])
		}
		v["ir.nodes"] += float64(o.Nodes)
		v["ir.edges"] += float64(o.Edges)
		v["regpress.lifetimes"] += float64(o.Lifetimes)
		v["sched.unroll"] += float64(o.Unroll)
		v["emit.mve_bundles"] += float64(o.MVEBundles)
		v["emit.pred_bundles"] += float64(o.PredBundles)
		v["emit.frame_slots"] += float64(o.FrameSlots)
		v["vm.seq_cycles"] += float64(o.SeqCycles)
		v["vm.mve_cycles"] += float64(o.MVECycles)
		v["vm.trips"] += float64(o.Trips)
	}

	with := make([]float64, len(tp))
	for i, p := range tp {
		with[i] = p.compile.Seconds()
	}
	without := make([]float64, len(untraced))
	for i, d := range untraced {
		without[i] = d.Seconds()
	}
	v["trace.overhead_frac"] = median(with)/median(without) - 1
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geomean returns the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile; 0 for no values.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := (len(s)*p + 99) / 100
	if i > 0 {
		i--
	}
	return s[i]
}
