package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func quickConfig() config {
	return config{seed: 1, seconds: time.Second, quick: true, timeout: driver.DefaultTimeout}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload lists the
// program reports in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if s := spec.EndToEnd[i]; s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, s, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if s := spec.PerLayer[i]; s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, s, d)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s := spec.Workloads[i]; s.Name != w.name || s.Why != w.why {
			t.Errorf("workloads[%d] = %+v, program has %q: %q", i, s, w.name, w.why)
		}
	}
}

// TestTracedPathMatchesCore checks that the traced path, which drives
// each backend's Prober from the benchmark, compiles the first jobs of
// every workload exactly as core does.
func TestTracedPathMatchesCore(t *testing.T) {
	cfg := quickConfig()
	for i := range workloads {
		w := &workloads[i]
		jobs, _, err := setup(cfg, w, newCalibrator())
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		for _, j := range jobs {
			want, kind, err := compileJob(cfg, w, j)
			if kind != "" {
				t.Fatalf("%s: %s on %s: %s: %v", w.name, j.loop.Name, j.m.Name, kind, err)
			}
			got, err := tr.compileTraced(context.Background(), w, j, &eventCounter{})
			if err != nil {
				t.Fatalf("%s: traced %s on %s: %v", w.name, j.loop.Name, j.m.Name, err)
			}
			if !got.same(want) {
				t.Errorf("%s: %s on %s: traced %+v, core %+v", w.name, j.loop.Name, j.m.Name, got, want)
			}
		}
	}
}

// TestTracedLayersAddUp checks that a traced run's layer self times,
// bench.other_ms included, add up to its compilation spans.
func TestTracedLayersAddUp(t *testing.T) {
	r, err := runTraced(quickConfig(), &workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	var spans, layers float64
	for _, s := range r.spans {
		if s.Parent < 0 {
			spans += ms(time.Duration(s.End-s.Start)) / float64(r.Passes)
		}
	}
	for _, ls := range layerSpans {
		layers += r.Metrics[ls.metric]
	}
	if math.Abs(spans-layers) > 1e-6*spans {
		t.Errorf("layer self times add up to %.6f ms, compilation spans to %.6f ms", layers, spans)
	}
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			t.Errorf("traced run lacks %s", d.name)
		}
	}
}

// TestSeedOnePins ties the benchmark's inputs to the repository's
// existing quality gates. At seed 1 the leading compilations of each
// workload are a population a committed baseline gates: the seed-1
// corpus rows of BENCH_baseline.json (for list-longtrip, the sum of its
// three list rows) and the opt rows of GAP_baseline.json, all 72 of them
// proved optimal. Two in-process runs must agree on every generated-code
// metric.
func TestSeedOnePins(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the pinned populations twice")
	}
	pins := []struct {
		workload     string
		jobs         int
		sumII, sumML float64
		proved       float64 // rows with opt_proved == 1, or -1
	}{
		{"mirs-tight", 120, 1059, 2006, -1},
		{"list-longtrip", 360, 2593, 6690, -1},
		{"mirs-4cluster", 120, 660, 2582, -1},
		{"opt-small", 72, 246, 927, 72},
	}
	cfg := config{seed: 1, timeout: driver.DefaultTimeout}
	for _, p := range pins {
		w, err := findWorkload(p.workload)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := w.setup(cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		jobs = jobs[:p.jobs]
		var runs [2]map[string]float64
		proved := 0.0
		for k := range runs {
			outs := make([]*outcome, len(jobs))
			for i, j := range jobs {
				o, kind, err := compileJob(cfg, w, j)
				if kind != "" {
					t.Fatalf("%s: %s on %s: %s: %v", p.workload, j.loop.Name, j.m.Name, kind, err)
				}
				outs[i] = o
				if k == 0 {
					proved += float64(o.Stats["opt_proved"])
				}
			}
			runs[k] = quality(outs)
		}
		for name, v := range runs[0] {
			if runs[1][name] != v {
				t.Errorf("%s: %s differs between two runs: %v vs %v", p.workload, name, v, runs[1][name])
			}
		}
		if got := runs[0]["sum_ii"]; got != p.sumII {
			t.Errorf("%s: sum_ii = %v, want %v", p.workload, got, p.sumII)
		}
		if got := runs[0]["sum_max_live"]; got != p.sumML {
			t.Errorf("%s: sum_max_live = %v, want %v", p.workload, got, p.sumML)
		}
		if p.proved >= 0 && proved != p.proved {
			t.Errorf("%s: %v rows proved optimal, want %v", p.workload, proved, p.proved)
		}
	}
}

// stubScheduler fails every loop whose name has the given prefix:
// either with an error or by blocking until the request's context ends.
// Other loops go to the list scheduler.
type stubScheduler struct {
	prefix string
	block  bool
}

func (stubScheduler) Name() string { return "stub" }

func (s stubScheduler) Schedule(req *sched.Request) (*sched.Schedule, error) {
	if strings.HasPrefix(req.Loop.Name, s.prefix) {
		if s.block {
			<-req.Ctx.Done()
			return nil, req.Ctx.Err()
		}
		return nil, errors.New("stub failure")
	}
	return sched.ListScheduler{}.Schedule(req)
}

// TestFailureAccounting checks that an erroring backend and a timeout
// count against the attempted compilations without stopping the run, and
// that the result is then reported as incorrect.
func TestFailureAccounting(t *testing.T) {
	loops := []*ir.Loop{ir.DotProduct(), ir.FIR(), ir.Livermore()}
	for _, tc := range []struct {
		name string
		be   stubScheduler
		kind string
	}{
		{"error", stubScheduler{prefix: ir.FIR().Name}, failError},
		{"timeout", stubScheduler{prefix: ir.FIR().Name, block: true}, failTimeout},
	} {
		w := &workload{name: "stub-" + tc.name, setup: func(uint64) ([]job, error) {
			return grid(loops, tc.be, machine.Unified())
		}}
		cfg := config{seed: 1, seconds: time.Millisecond, timeout: 50 * time.Millisecond}
		r, err := runWorkload(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if r.Attempted != 3*r.Passes || r.Failed != r.Passes {
			t.Errorf("%s: attempted %d failed %d over %d passes, want %d and %d",
				tc.name, r.Attempted, r.Failed, r.Passes, 3*r.Passes, r.Passes)
		}
		if len(r.Failures) == 0 || !strings.HasPrefix(r.Failures[0], tc.kind+":") {
			t.Errorf("%s: failures %q, want kind %q", tc.name, r.Failures, tc.kind)
		}
		if r.Metrics["sum_ii"] == 0 {
			t.Errorf("%s: the sweep stopped at the failure: no quality metrics", tc.name)
		}
		line, ok := summary([]*result{r}, false)
		if ok || !strings.Contains(line, `"correct":false`) {
			t.Errorf("%s: summary %s reports success", tc.name, line)
		}
	}
	if got := classify(&outcome{Mismatches: []string{"live-out v4 = 1, want 2"}}, nil); got != failMismatch {
		t.Errorf("an execution mismatch is classified %q, want %q", got, failMismatch)
	}
}

// TestQuickRun runs the command in quick mode, untraced and traced, and
// checks its last line is the result object the benchmark contract asks
// for, with every metric of the mode.
func TestQuickRun(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		code := run([]string{"-quick", "-workload", "mirs-4cluster", "-seed", "2", "-trace", tc.trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", tc.trace, err)
		}
		if !res.Correct || res.Attempted != warmJobs || res.Failed != 0 || len(res.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: result %+v", tc.trace, res)
		}
		for _, d := range tc.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v", tc.trace, d.name, m)
			}
		}
	}
}
