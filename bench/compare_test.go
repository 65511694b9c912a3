package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v; want 1, 3", q1, q3)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	tight := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	lowerBetter := bound{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higherBetter := bound{Name: "loops_per_s", Better: "higher", Bound: 0.10}
	exact := bound{Name: "sum_ii", Better: "lower", Bound: 0}
	for _, tc := range []struct {
		name string
		a, b []float64
		bd   bound
		want string
	}{
		{"same samples", tight, tight, lowerBetter, unchanged},
		{"within the bound", tight, scaled(tight, 1.05), lowerBetter, unchanged},
		{"faster by 20%", tight, scaled(tight, 0.8), lowerBetter, improved},
		{"slower by 20%", tight, scaled(tight, 1.2), lowerBetter, regressed},
		{"throughput up", tight, scaled(tight, 1.2), higherBetter, improved},
		{"throughput down", tight, scaled(tight, 0.8), higherBetter, regressed},
		{"spread wider than the bound", wide, scaled(wide, 1.05), lowerBetter, unresolved},
		{"wide but every run better", wide, scaled(tight, 0.5), lowerBetter, improved},
		{"wide but every run worse", wide, scaled(tight, 2), lowerBetter, regressed},
		{"deterministic equal", []float64{660, 660}, []float64{660, 660}, exact, unchanged},
		{"deterministic worse by one", []float64{660, 660}, []float64{661, 661}, exact, regressed},
		{"deterministic better by one", []float64{660, 660}, []float64{659, 659}, exact, improved},
	} {
		if got := compare(tc.a, tc.b, tc.bd).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	// A gain needs nine wins in ten pairs, not only a better median.
	a := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	b := []float64{80, 80, 80, 80, 80, 80, 80, 80, 120, 120}
	if c := compare(a, b, lowerBetter); c.verdict == improved || c.wins != 8 || c.pairs != 10 {
		t.Errorf("8 of 10 wins: verdict %s with %d/%d wins", c.verdict, c.wins, c.pairs)
	}
}

// TestCompareFiles runs -compare on two synthetic report files and
// checks the verdict table and the exit code.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms float64) string {
		path := filepath.Join(dir, name)
		r := &result{Workload: "mirs-tight", Samples: map[string][]float64{
			"compile_ms_geomean": {ms, ms * 1.01, ms * 0.99},
			"sum_ii":             {1059, 1059, 1059},
		}}
		if err := writeJSON(path, report{Runs: []*result{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 2), write("same.json", 2), write("slow.json", 4)
	for _, tc := range []struct {
		head     string
		code     int
		contains string
	}{
		{same, 0, "unchanged"},
		{slow, 1, "regressed"},
	} {
		var out, errOut bytes.Buffer
		code := compareFiles("../BENCHMARK.json", base, tc.head, &out, &errOut)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d: %s", tc.head, code, tc.code, errOut.String())
		}
		lines := strings.Split(out.String(), "\n")
		if len(lines) < 3 || !strings.Contains(lines[1], "compile_ms_geomean") || !strings.Contains(lines[1], tc.contains) ||
			!strings.Contains(lines[2], "sum_ii") || !strings.Contains(lines[2], unchanged) {
			t.Errorf("%s: table\n%s", tc.head, out.String())
		}
	}
}
