package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of a comparison, per workload and metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []bound `json:"end_to_end"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// readReports reads a comma-separated list of -o report files.
func readReports(list string) ([]*result, error) {
	var runs []*result
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		runs = append(runs, r.Runs...)
	}
	return runs, nil
}

// samplesOf concatenates one metric's samples over a side's runs of a
// workload, in run order.
func samplesOf(runs []*result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Workload == workload {
			xs = append(xs, r.Samples[metric]...)
		}
	}
	return xs
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// comparison is one workload × metric row.
type comparison struct {
	workload, metric string
	a, b             []float64
	wins, pairs      int
	verdict          string
}

// compare judges side b against side a (the parent) for one metric. A
// gain needs b to win at least nine in ten pairs and the medians to
// differ by more than a's interquartile range. A worsening beyond the
// bound is a regression. When either side's spread is wider than the
// bound the metric is unresolved, unless every b sample beats every a
// sample (unchanged) or loses to it with the medians beyond the bound
// (regressed).
func compare(a, b []float64, bd bound) comparison {
	c := comparison{a: a, b: b}
	sign := 1.0
	if bd.Better == "lower" {
		sign = -1
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		c.pairs++
		if sign*(b[i]-a[i]) > 0 {
			c.wins++
		}
	}
	ma, mb := median(a), median(b)
	gain := sign * (mb - ma)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	if gain > 0 && c.pairs > 0 && 10*c.wins >= 9*c.pairs && gain > q3a-q1a {
		c.verdict = improved
		return c
	}
	worse := -gain / math.Max(math.Abs(ma), 1e-12)
	spread := math.Max((q3a-q1a)/math.Max(math.Abs(ma), 1e-12), (q3b-q1b)/math.Max(math.Abs(mb), 1e-12))
	bestA, worstA := extremes(a, sign)
	bestB, worstB := extremes(b, sign)
	switch {
	case spread > bd.Bound && sign*(worstB-bestA) > 0:
		c.verdict = unchanged
	case spread > bd.Bound && sign*(bestB-worstA) < 0 && worse > bd.Bound:
		c.verdict = regressed
	case spread > bd.Bound:
		c.verdict = unresolved
	case worse > bd.Bound:
		c.verdict = regressed
	default:
		c.verdict = unchanged
	}
	return c
}

// extremes returns the best and worst sample for the metric's direction
// (sign 1: higher is better).
func extremes(xs []float64, sign float64) (best, worst float64) {
	for i, x := range xs {
		if i == 0 || sign*(x-best) > 0 {
			best = x
		}
		if i == 0 || sign*(x-worst) < 0 {
			worst = x
		}
	}
	return best, worst
}

// compareRuns compares every end-to-end metric of every workload both
// sides ran.
func compareRuns(spec *benchmarkSpec, a, b []*result) []comparison {
	var rows []comparison
	for _, w := range workloads {
		for _, bd := range spec.EndToEnd {
			xa, xb := samplesOf(a, w.name, bd.Name), samplesOf(b, w.name, bd.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := compare(xa, xb, bd)
			c.workload, c.metric = w.name, bd.Name
			rows = append(rows, c)
		}
	}
	return rows
}

// compareFiles prints the comparison of two report lists and exits 1 if
// any metric regressed.
func compareFiles(specPath, listA, listB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := readReports(listA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readReports(listB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rows := compareRuns(spec, a, b)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench: the two sides share no workload")
		return 1
	}
	fmt.Fprint(stdout, comparisonTable(rows))
	for _, c := range rows {
		if c.verdict == regressed {
			return 1
		}
	}
	return 0
}

func comparisonTable(rows []comparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %30s %30s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, c := range rows {
		side := func(xs []float64) string {
			q1, q3 := quartiles(xs)
			return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
		}
		fmt.Fprintf(&b, "%-14s %-18s %30s %30s %6s  %s\n", c.workload, c.metric, side(c.a), side(c.b),
			fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
	}
	return b.String()
}
