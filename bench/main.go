// Command bench is the repository benchmark: it compiles generated loops
// through the whole pipeline (dependence graph, MII, II search, register
// pressure, expansion, emission, differential execution on the VM) and
// reports compile speed, memory and generated-code quality per workload.
// With -trace 1 it times each layer instead. README.md lists the
// workloads and metrics; BENCHMARK.json at the repository root fixes
// their units and regression bounds.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh -workload mirs-tight -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/paper-repo-growth/mirs/internal/driver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measuring time per workload")
	traceOn := fs.Int("trace", 0, "1 times each layer and reports the per-layer metrics")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans to this file")
	out := fs.String("o", "", "write the full report (metrics and per-pass samples) to this file")
	quick := fs.Bool("quick", false, "one pass over the first 8 compilations")
	compareMode := fs.Bool("compare", false, "compare two reports: -compare base.json[,more.json] head.json[,more.json]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report lists")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = append(ws, w)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), quick: *quick, timeout: driver.DefaultTimeout}

	var results []*result
	for _, w := range ws {
		var r *result
		var err error
		if *traceOn == 1 {
			r, err = runTraced(cfg, w)
		} else {
			r, err = runWorkload(cfg, w)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprint(stdout, r.table)
		results = append(results, r)
	}
	if *out != "" {
		if err := writeJSON(*out, report{Runs: results}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *spansOut != "" && *traceOn == 1 {
		spans := map[string][]span{}
		for _, r := range results {
			spans[r.Workload] = r.spans
		}
		if err := writeJSON(*spansOut, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, ok := summary(results, *traceOn == 1)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// report is the -o file: every run's metrics and per-pass samples.
type report struct {
	Runs []*result `json:"runs"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the one-line JSON result: the end-to-end metrics, or
// the per-layer ones when traced. With several workloads each metric
// name is prefixed by its workload.
func summary(results []*result, traced bool) (string, bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	s := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	for _, r := range results {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, d := range defs {
			key := d.name
			if len(results) > 1 {
				key = r.Workload + "/" + d.name
			}
			s.Metrics[key] = metricValue{r.Metrics[d.name], d.unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err), false
	}
	return string(b), s.Correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// header is the first line of a workload's table.
func header(r *result) string {
	return fmt.Sprintf("== %s seed=%d: %d compilations x %d passes, %d attempted, %d failed\n",
		r.Workload, r.Seed, r.Compilations, r.Passes, r.Attempted, r.Failed)
}

func failureLines(r *result) string {
	var b strings.Builder
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "   FAIL %s\n", f)
	}
	return b.String()
}

// endToEndTable prints every end-to-end metric of an untraced run, by
// name with its unit. Latency percentiles are over the per-compilation
// medians, so their sample count is the compilation count.
func endToEndTable(r *result) string {
	var b strings.Builder
	b.WriteString(header(r))
	b.WriteString(failureLines(r))
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "   %-20s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	fmt.Fprintf(&b, "   %-20s %14.6g fraction\n", "fail_frac", float64(r.Failed)/float64(max(1, r.Attempted)))
	fmt.Fprintf(&b, "   not gated: loops_per_s %.6g 1/s, latency_p95_ms %.6g ms\n", r.LoopsPerS, r.LatencyP95Ms)
	fmt.Fprintf(&b, "   (times over n=%d per-compilation medians, scaled by host speed %.3f of nominal)\n",
		r.Compilations, median(r.HostSpeed))
	return b.String()
}

// layerTable prints a traced run: each layer's self time per pass and
// its share of the compilation spans, then every per-layer metric.
func layerTable(r *result, compileMs float64) string {
	var b strings.Builder
	b.WriteString(header(r))
	b.WriteString(failureLines(r))
	var sum float64
	fmt.Fprintf(&b, "   %-22s %12s %7s\n", "layer self time", "ms/pass", "share")
	for _, ls := range layerSpans {
		v := r.Metrics[ls.metric]
		sum += v
		fmt.Fprintf(&b, "   %-22s %12.3f %6.1f%%\n", ls.span, v, 100*v/compileMs)
	}
	fmt.Fprintf(&b, "   %-22s %12.3f (compilation spans %.3f ms/pass)\n", "sum", sum, compileMs)
	for _, d := range perLayer {
		fmt.Fprintf(&b, "   %-30s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	return b.String()
}
