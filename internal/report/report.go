// Package report defines the machine-readable quality-trajectory
// artifact shared by the batch driver (internal/driver) and the CLI
// (cmd/msched): per backend × machine × corpus rows of summed
// schedule-quality and emitted-code metrics, emitted with a fully
// deterministic byte layout so CI can diff artifacts across runs and
// gate on regressions.
//
// Determinism is the point of this package. Rows are sorted by
// (corpus, backend, machine) on every emit path — JSON and CSV — and
// every field is a pure function of the compiled population: rows carry
// no wall-clock data.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Row is one backend × machine × corpus line of the trajectory: the
// summed quality metrics, lower is better on every axis.
type Row struct {
	// Backend names the scheduler that produced the row.
	Backend string `json:"backend"`
	// Machine names the target configuration.
	Machine string `json:"machine"`
	// Corpus names the loop population the sums run over ("examples",
	// "gen:seed=1,n=200", ...). Rows from different corpora are never
	// comparable.
	Corpus string `json:"corpus"`
	// Loops is the population size; a baseline row only gates against a
	// current row of the same size.
	Loops int `json:"loops"`
	// SumII is the summed initiation interval over the corpus (gated).
	SumII int `json:"sum_ii"`
	// SumMaxLive is the summed steady-state register pressure (gated).
	SumMaxLive int `json:"sum_max_live"`
	// SumUnroll is the summed kernel unroll factor (informational —
	// unroll trades against II by design).
	SumUnroll int `json:"sum_unroll"`
	// SumCycles is the summed issue span of the emitted MVE programs
	// (vm.Report.MVECycles) and SumBundles their summed code size
	// (vm.Report.MVEBundles), both gated. They are zero, and absent from
	// the JSON, unless the compilations were differentially executed.
	SumCycles  int `json:"sum_cycles,omitempty"`
	SumBundles int `json:"sum_bundles,omitempty"`
}

// Key is the row's sort/merge identity.
func (r Row) Key() string { return r.Corpus + "|" + r.Backend + "|" + r.Machine }

// File is the artifact root: a set of rows.
type File struct {
	// Rows holds the artifact's rows; emit paths sort them canonically.
	Rows []Row `json:"results"`
}

// Sort orders rows by (corpus, backend, machine) — the canonical emit
// order. Emitters call it implicitly; it is exported for callers that
// build a File by hand and want the canonical order in memory too.
func (f *File) Sort() {
	sort.Slice(f.Rows, func(i, j int) bool { return f.Rows[i].Key() < f.Rows[j].Key() })
}

// Marshal renders the file as indented JSON with rows in canonical
// order — every byte is a function of the row set alone, never of map
// iteration or insertion order.
func (f *File) Marshal() ([]byte, error) {
	f.Sort()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// CSV renders the rows as an RFC-4180 table (header first) in canonical
// order, for spreadsheet consumption of the same artifact. Fields are
// quoted as needed — corpus labels routinely contain commas
// ("gen:seed=1,n=200").
func (f *File) CSV() string {
	f.Sort()
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write([]string{"corpus", "backend", "machine", "loops", "sum_ii", "sum_max_live", "sum_unroll", "sum_cycles", "sum_bundles"})
	for _, r := range f.Rows {
		_ = w.Write([]string{
			r.Corpus, r.Backend, r.Machine,
			strconv.Itoa(r.Loops), strconv.Itoa(r.SumII), strconv.Itoa(r.SumMaxLive), strconv.Itoa(r.SumUnroll),
			strconv.Itoa(r.SumCycles), strconv.Itoa(r.SumBundles),
		})
	}
	w.Flush()
	return b.String()
}

// WriteFile emits the canonical JSON rendering to path.
func (f *File) WriteFile(path string) error {
	data, err := f.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("report: write %s: %w", path, err)
	}
	return nil
}

// ReadFile parses an artifact written by WriteFile (or by hand).
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: read %s: %w", path, err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", path, err)
	}
	f.Sort()
	return &f, nil
}

// Regression is one gate violation found by Compare.
type Regression struct {
	// Row keys the offending backend × machine × corpus combination.
	Row string
	// Metric is "sum_ii", "sum_max_live", "sum_cycles", "sum_bundles",
	// "missing" or "population".
	Metric string
	// Baseline and Current are the compared values (zero for structural
	// violations).
	Baseline, Current int
}

// String renders the regression for gate logs.
func (r Regression) String() string {
	switch r.Metric {
	case "missing":
		return fmt.Sprintf("%s: row missing from current results (baseline stale? run with -update-baseline)", r.Row)
	case "population":
		return fmt.Sprintf("%s: population changed (%d loops vs baseline %d) — sums not comparable, refresh the baseline", r.Row, r.Current, r.Baseline)
	}
	return fmt.Sprintf("%s: %s regressed %d -> %d", r.Row, r.Metric, r.Baseline, r.Current)
}

// Compare gates current against baseline: for every baseline row the
// current results must contain a same-key row over the same population
// whose SumII, SumMaxLive, SumCycles and SumBundles are no worse.
// SumUnroll is informational (unroll trades against II by design).
// Extra current rows — new backends, machines or corpora not yet in the
// baseline — are reported via the second return so callers can warn
// that the baseline wants refreshing without failing the gate.
func Compare(baseline, current *File) (regs []Regression, unbaselined []string) {
	cur := map[string]Row{}
	for _, r := range current.Rows {
		cur[r.Key()] = r
	}
	seen := map[string]bool{}
	for _, b := range baseline.Rows {
		seen[b.Key()] = true
		c, ok := cur[b.Key()]
		if !ok {
			regs = append(regs, Regression{Row: b.Key(), Metric: "missing"})
			continue
		}
		if c.Loops != b.Loops {
			regs = append(regs, Regression{Row: b.Key(), Metric: "population", Baseline: b.Loops, Current: c.Loops})
			continue
		}
		for _, m := range []struct {
			name     string
			was, now int
		}{
			{"sum_ii", b.SumII, c.SumII},
			{"sum_max_live", b.SumMaxLive, c.SumMaxLive},
			{"sum_cycles", b.SumCycles, c.SumCycles},
			{"sum_bundles", b.SumBundles, c.SumBundles},
		} {
			if m.now > m.was {
				regs = append(regs, Regression{Row: b.Key(), Metric: m.name, Baseline: m.was, Current: m.now})
			}
		}
	}
	for _, r := range current.Rows {
		if !seen[r.Key()] {
			unbaselined = append(unbaselined, r.Key())
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Row != regs[j].Row {
			return regs[i].Row < regs[j].Row
		}
		return regs[i].Metric < regs[j].Metric
	})
	sort.Strings(unbaselined)
	return regs, unbaselined
}
