// Package report defines the machine-readable quality-trajectory
// artifact shared by the batch driver (internal/driver) and the CLI
// (cmd/msched): per backend × machine × corpus rows of summed
// schedule-quality and emitted-code metrics, emitted with a fully
// deterministic byte layout so CI can diff artifacts across runs and
// gate on byte identity with a committed baseline.
//
// Determinism is the point of this package. Rows are sorted by
// (corpus, backend, machine) before they are emitted, and every field
// is a pure function of the compiled population: rows carry no
// wall-clock data.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
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
	// Loops is the population size.
	Loops int `json:"loops"`
	// SumII is the summed initiation interval over the corpus.
	SumII int `json:"sum_ii"`
	// SumMaxLive is the summed steady-state register pressure.
	SumMaxLive int `json:"sum_max_live"`
	// SumUnroll is the summed kernel unroll factor (unroll trades
	// against II by design).
	SumUnroll int `json:"sum_unroll"`
	// SumCycles is the summed issue span of the emitted MVE programs
	// (vm.Report.MVECycles) and SumBundles their summed code size
	// (vm.Report.MVEBundles). They are zero, and absent from the JSON,
	// unless the compilations were differentially executed.
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
func (f *File) Marshal() ([]byte, error) { return marshal(f) }

// WriteFile emits the canonical JSON rendering to path.
func (f *File) WriteFile(path string) error { return writeFile(path, f) }

// Artifact is what File and GapFile share: keyed rows in a canonical
// order, rendered by one byte layout.
type Artifact interface {
	Sort()
	WriteFile(path string) error
}

// marshal renders a as indented JSON with its rows in canonical order
// and a trailing newline.
func marshal(a Artifact) ([]byte, error) {
	a.Sort()
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// writeFile writes marshal's rendering of a to path.
func writeFile(path string, a Artifact) error {
	data, err := marshal(a)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("report: write %s: %w", path, err)
	}
	return nil
}

// Diff compares current with baseline, the bytes of a committed
// artifact of the same type. It returns nil when current's canonical
// rendering equals baseline byte for byte. Otherwise it returns one
// line per difference, as "baseline -> current": a changed header field
// ("budget 10000 -> 999"), a row present on one side only, or a
// changed row naming each moved field by its JSON name
// ("examples|mirs|tight: sum_ii 96 -> 97"). The gap summary is derived
// from the rows and is not diffed; when nothing but such bytes differ,
// the one line says so.
func Diff(baseline []byte, current Artifact) ([]string, error) {
	data, err := marshal(current)
	if err != nil || bytes.Equal(data, baseline) {
		return nil, err
	}
	base := reflect.New(reflect.TypeOf(current).Elem())
	if err := json.Unmarshal(baseline, base.Interface()); err != nil {
		return nil, fmt.Errorf("report: parse baseline: %w", err)
	}
	var lines []string
	bv, cv := base.Elem(), reflect.ValueOf(current).Elem()
	for i := 0; i < bv.NumField(); i++ {
		switch name := jsonName(bv.Type().Field(i)); bv.Field(i).Kind() {
		case reflect.Slice:
			lines = append(lines, diffRows(bv.Field(i), cv.Field(i))...)
		case reflect.Struct: // the summary, a function of the rows
		default:
			lines = append(lines, diffField(name, bv.Field(i), cv.Field(i))...)
		}
	}
	if len(lines) == 0 {
		lines = []string{"rows and header match; only the bytes outside them differ (summary or layout)"}
	}
	return lines, nil
}

// diffRows lists the rows of two row slices that differ, by key.
func diffRows(base, cur reflect.Value) []string {
	index := func(rows reflect.Value) map[string]reflect.Value {
		m := make(map[string]reflect.Value, rows.Len())
		for i := 0; i < rows.Len(); i++ {
			m[rows.Index(i).Interface().(interface{ Key() string }).Key()] = rows.Index(i)
		}
		return m
	}
	b, c := index(base), index(cur)
	keys := make([]string, 0, len(b)+len(c))
	for k := range b {
		keys = append(keys, k)
	}
	for k := range c {
		if _, ok := b[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var lines []string
	for _, k := range keys {
		br, inBase := b[k]
		cr, inCur := c[k]
		var moved []string
		switch {
		case !inCur:
			moved = []string{"missing from current results"}
		case !inBase:
			moved = []string{"not in baseline"}
		default:
			for i := 0; i < br.NumField(); i++ {
				moved = append(moved, diffField(jsonName(br.Type().Field(i)), br.Field(i), cr.Field(i))...)
			}
		}
		if len(moved) > 0 {
			lines = append(lines, k+": "+strings.Join(moved, ", "))
		}
	}
	return lines
}

// diffField renders one moved field as "name baseline -> current",
// strings quoted; it returns nothing when the values are equal.
func diffField(name string, base, cur reflect.Value) []string {
	if base.Equal(cur) {
		return nil
	}
	return []string{fmt.Sprintf("%s %#v -> %#v", name, base.Interface(), cur.Interface())}
}

// jsonName is the name a struct field is marshalled under.
func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}
