package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/internal/report"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// capture runs Main with buffered stdout/stderr and returns (exit code,
// stdout, stderr).
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := Main(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestUsageAndBadInput(t *testing.T) {
	if code, _, _ := capture(t); code != 2 {
		t.Error("no args must exit 2")
	}
	if code, out, _ := capture(t, "help"); code != 0 || !strings.Contains(out, "compare") {
		t.Error("help must print usage and exit 0")
	}
	for _, c := range []struct {
		args    []string
		errWant string
	}{
		{[]string{"bogus"}, "unknown subcommand"},
		{[]string{"run", "-machines", "nope"}, "unknown machine"},
		{[]string{"run", "-backends", "nope"}, "unknown backend"},
		{[]string{"run", "-portfolio"}, "flag provided but not defined"},
		{[]string{"run", "-trace-slowest", "1"}, "flag provided but not defined"},
		{[]string{"run", "-trace-dir", "d"}, "flag provided but not defined"},
		{[]string{"run", "-backends", "portfolio"}, `unknown backend "portfolio" (have: list, mirs, opt, all)`},
		{[]string{"trace", "-backend", "portfolio"}, `unknown backend "portfolio" (have: list, mirs, opt, all)`},
		{[]string{"run", "-probes", "2"}, "flag provided but not defined"},
		{[]string{"trace", "-probes", "2"}, "flag provided but not defined"},
		{[]string{"compare", "-gap-only"}, "flag provided but not defined"},
		{[]string{"compare", "-oracle-dir", "x"}, "flag provided but not defined"},
		{[]string{"run", "-n", "-5"}, "-n must be >= 0"},
		{[]string{"gen", "-n", "-1"}, "-n must be >= 0"},
		// Negative values used to be coerced to the flag's default.
		{[]string{"run", "-budget", "-5"}, "-budget must be >= 0"},
		{[]string{"run", "-workers", "-2"}, "-workers must be >= 0"},
		// A zero budget used to mean the 30 s default in run but an
		// already-expired deadline in exec and trace.
		{[]string{"run", "-timeout", "-1s"}, "-timeout must be > 0"},
		{[]string{"run", "-timeout", "0"}, "-timeout must be > 0"},
		{[]string{"trace", "-timeout", "-1s"}, "-timeout must be > 0"},
		{[]string{"trace", "-timeout", "0"}, "-timeout must be > 0"},
		{[]string{"exec", "-timeout", "-1s"}, "-timeout must be > 0"},
		{[]string{"exec", "-timeout", "0"}, "-timeout must be > 0"},
		{[]string{"exec", "-budget", "-1"}, "-budget must be >= 0"},
		{[]string{"exec", "-listing", "-3"}, "-listing must be >= 0"},
		// The oracle's run time grows with the trip; -timeout covers only
		// compilation, so this used to run unbounded.
		{[]string{"exec", "-trips", "4611686018427387904"}, "-trips wants integers in [1, 1048576]"},
		{[]string{"exec", "-trips", "1,1048577"}, "-trips wants integers in [1, 1048576]"},
		{[]string{"exec", "-trips", "0"}, "-trips wants integers in [1, 1048576]"},
		// run executes every compilation, keeps every outcome, fails on
		// any failure and writes only the JSON report.
		{[]string{"run", "-exec"}, "flag provided but not defined"},
		{[]string{"run", "-strict"}, "flag provided but not defined"},
		{[]string{"run", "-keep-outcomes"}, "flag provided but not defined"},
		{[]string{"run", "-csv", "x"}, "flag provided but not defined"},
		// flag stops at the first positional argument, so a stray word
		// used to drop every flag after it silently.
		{[]string{"run", "-n", "2", "stray", "-machines", "tight"}, `msched run: unexpected argument "stray"`},
		{[]string{"gen", "-n", "1", "stray", "-json"}, `msched gen: unexpected argument "stray"`},
		{[]string{"compare", "stray", "-o", "x"}, `msched compare: unexpected argument "stray"`},
		{[]string{"trace", "-loop", "fir8", "stray", "-machine", "unified"}, `msched trace: unexpected argument "stray"`},
		{[]string{"exec", "-loop", "fir8", "stray", "-machine", "tight"}, `msched exec: unexpected argument "stray"`},
	} {
		if code, _, errOut := capture(t, c.args...); code != 2 || !strings.Contains(errOut, c.errWant) {
			t.Errorf("msched %s: got exit %d, want 2 with %q; stderr: %s", strings.Join(c.args, " "), code, c.errWant, errOut)
		}
	}
}

// TestDuplicateGridNamesRejected pins that a backend or machine named
// twice is a usage error. The driver aggregates outcomes by (backend,
// machine) name, so a repeat used to fold two jobs into one combo and
// report doubled counts and sums.
func TestDuplicateGridNamesRejected(t *testing.T) {
	data, err := machine.Unified().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, backends, machines, errWant string
	}{
		{"backend", "mirs,mirs", "unified", `duplicate backend "mirs"`},
		{"machine", "list", "unified,unified", `duplicate machine "unified"`},
		{"machine files", "list", a + "," + b, `duplicate machine "unified"`},
		{"file shadows canned", "list", "unified," + a, `duplicate machine "unified"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, _, errOut := capture(t, "run", "-seed", "1", "-n", "2", "-backends", c.backends, "-machines", c.machines)
			if code != 2 || !strings.Contains(errOut, c.errWant) {
				t.Fatalf("got exit %d, want 2 with %q; stderr: %s", code, c.errWant, errOut)
			}
		})
	}
}

// TestExecGapLoop pins that `msched exec -loop` resolves a gap-corpus
// loop by its gap.json name, as a gate failure names it, and executes
// it to a clean verdict.
func TestExecGapLoop(t *testing.T) {
	code, out, errOut := capture(t, "exec", "-loop", "gap0001-tiny", "-machine", "unified", "-listing", "0")
	if code != 0 {
		t.Fatalf("exec gap0001-tiny: exit %d; stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "exec gap0001-tiny on unified:") || !strings.HasSuffix(strings.TrimSpace(out), " ok") {
		t.Fatalf("no ok verdict for gap0001-tiny:\n%s", out)
	}
}

// TestMalformedMachineFileFails is the regression test for the failure
// mode where a bad machine description used to slip through as a panic
// or an empty report: the command must exit non-zero with a message
// naming the file and the parse problem.
func TestMalformedMachineFileFails(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"truncated.json": `{"name": "broken", "clusters": [`,
		"notjson.json":   `this is not json at all`,
		"invalid.json":   `{"name": "empty"}`, // parses, but validates empty (no clusters)
		"missing.json":   "",                  // never written
	}
	for file, content := range cases {
		path := filepath.Join(dir, file)
		if content != "" {
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		code, _, errOut := capture(t, "run", "-seed", "1", "-n", "1", "-machines", path)
		if code == 0 {
			t.Errorf("msched run accepted malformed machine %s", file)
		}
		if !strings.Contains(errOut, file) {
			t.Errorf("msched run error does not name the file %s: %q", file, errOut)
		}
	}
}

// TestRunWithMachineFile checks the happy path: a valid machine JSON
// file participates in a run exactly like a canned machine.
func TestRunWithMachineFile(t *testing.T) {
	data, err := machine.Unified().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "custom.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := capture(t, "run", "-seed", "1", "-n", "2", "-backends", "list", "-machines", path)
	if code != 0 {
		t.Fatalf("run with machine file failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "2 loops") {
		t.Fatalf("run summary missing: %s", out)
	}
}

// TestRunDeterministicReport is the in-process version of the CI
// determinism smoke: two untimed runs execute every compilation and
// write byte-identical reports.
func TestRunDeterministicReport(t *testing.T) {
	dir := t.TempDir()
	r1, r2 := filepath.Join(dir, "r1.json"), filepath.Join(dir, "r2.json")
	for _, r := range []string{r1, r2} {
		code, out, errOut := capture(t, "run", "-seed", "9", "-n", "25", "-o", r)
		if code != 0 {
			t.Fatalf("run failed: %s", errOut)
		}
		if !strings.Contains(out, "exec-verify: 100 compilations executed differentially, 0 mismatches") {
			t.Fatalf("run did not execute every compilation:\n%s", out)
		}
	}
	a, _ := os.ReadFile(r1)
	b, _ := os.ReadFile(r2)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("%s and %s differ (or are empty)", r1, r2)
	}
	var rep struct {
		Jobs     int              `json:"jobs"`
		Failures int              `json:"failures"`
		Outcomes []driver.Outcome `json:"outcomes"`
	}
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 25*4 || rep.Failures != 0 || len(rep.Outcomes) != rep.Jobs {
		t.Fatalf("want 100 clean jobs, every outcome kept; got %d jobs, %d failures, %d outcomes", rep.Jobs, rep.Failures, len(rep.Outcomes))
	}
}

// TestRunFailureIsFatalAfterReport pins run's failure contract: a
// compilation that times out makes the exit status 1, and the report,
// every outcome included, is written first.
func TestRunFailureIsFatalAfterReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	code, _, errOut := capture(t, "run", "-n", "3", "-timeout", "1ns", "-o", path)
	if code != 1 || !strings.Contains(errOut, "12 of 12 compilations failed") {
		t.Fatalf("got exit %d, want 1 naming 12 failures; stderr: %s", code, errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written before failing: %v", err)
	}
	var rep driver.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 12 || len(rep.Outcomes) != 12 {
		t.Fatalf("want 12 failed outcomes, got %d failures, %d outcomes", rep.Failures, len(rep.Outcomes))
	}
	for _, o := range rep.Outcomes {
		if !o.TimedOut {
			t.Fatalf("%s not marked timed_out: %+v", o.Key(), o)
		}
	}
}

func TestGenPrintsLoops(t *testing.T) {
	code, out, _ := capture(t, "gen", "-seed", "3", "-n", "2")
	if code != 0 || !strings.Contains(out, "loop g0000-balanced") || !strings.Contains(out, "br") {
		t.Fatalf("gen output unexpected (code %d):\n%s", code, out)
	}
	code, out, _ = capture(t, "gen", "-seed", "3", "-n", "1", "-corner", "pressure", "-json")
	if code != 0 || !strings.Contains(out, "\"Name\": \"g0000-pressure\"") {
		t.Fatalf("gen -json output unexpected (code %d):\n%s", code, out)
	}
	if code, _, errOut := capture(t, "gen", "-corner", "nope"); code != 2 || !strings.Contains(errOut, "unknown corner") {
		t.Error("unknown corner must exit 2")
	}
}

// smallCorpora is a shrunken gate: 8 examples + 10 generated loops
// over {list, mirs}, then 4 gap loops over {opt, mirs}, each on the
// three canned machines — (8+10)×2×3 + 4×2×3 = 132 compilations.
func smallCorpora(t *testing.T) []driver.Spec {
	t.Helper()
	corpora, err := gateSpec{seed: 1, n: 10, gapSeed: 1, gapN: 4, gapMaxOps: 12}.corpora()
	if err != nil {
		t.Fatal(err)
	}
	return corpora
}

// compareOn runs the gate over corpora and returns (exit code, stdout,
// stderr).
func compareOn(corpora []driver.Spec, args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := runCompare(corpora, args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// freshGate refreshes both baselines of the one gate on a shrunken gate
// spec under a temp dir, after checking that a missing baseline fails
// with a refresh hint. It returns a compare runner bound to those
// baselines, the quality/cycles baseline path and the gap baseline path.
func freshGate(t *testing.T) (compare func(extra ...string) (int, string, string), base, gapBase string) {
	t.Helper()
	dir := t.TempDir()
	base, gapBase = filepath.Join(dir, "base.json"), filepath.Join(dir, "gap_base.json")
	corpora := smallCorpora(t)
	compare = func(extra ...string) (int, string, string) {
		return compareOn(corpora, append([]string{"-baseline", base, "-gap-baseline", gapBase}, extra...)...)
	}
	if code, _, errOut := compare(); code != 1 || !strings.Contains(errOut, "update-baseline") {
		t.Fatalf("missing baseline must fail with a refresh hint, got %d: %s", code, errOut)
	}
	if code, out, errOut := compare("-update-baseline"); code != 0 {
		t.Fatalf("update-baseline failed: %s%s", out, errOut)
	}
	return compare, base, gapBase
}

// readJSON parses the artifact at path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

// TestCompareGateEndToEnd drives the one-gate workflow through the CLI:
// refresh both baselines, gate clean with byte-identical artifacts
// across two runs, then doctor the quality baseline one way at a time —
// a ΣII better than this run, a Σcycles worse than it, a row this run
// lacks — and require each to fail the gate naming the row, the field
// and both values. Gating is exact: a baseline worse than the current
// run fails too. A refresh over a doctored baseline prints the same
// lines before it rewrites the file.
func TestCompareGateEndToEnd(t *testing.T) {
	compare, base, _ := freshGate(t)
	dir := t.TempDir()
	o1, o2 := filepath.Join(dir, "o1"), filepath.Join(dir, "o2")
	code, out, errOut := compare("-o", o1)
	if code != 0 || !strings.Contains(out, "gate clean") || !strings.Contains(out, "exec-verify: 132 compilations executed differentially, 0 mismatches") {
		t.Fatalf("gate against fresh baselines must pass, got %d: %s%s", code, out, errOut)
	}
	if code, _, errOut := compare("-o", o2); code != 0 {
		t.Fatalf("second gate run failed: %s", errOut)
	}
	for _, name := range []string{"bench.json", "gap.json"} {
		a, _ := os.ReadFile(filepath.Join(o1, name))
		b, _ := os.ReadFile(filepath.Join(o2, name))
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("%s differs across runs (or is empty)", name)
		}
	}

	var f report.File
	readJSON(t, base, &f)
	clean := append([]report.Row(nil), f.Rows...)
	r := clean[0]
	for _, inj := range []struct {
		name, want string
		doctor     func(rows []report.Row) []report.Row
	}{
		{"better baseline", fmt.Sprintf("%s: sum_ii %d -> %d", r.Key(), r.SumII-1, r.SumII),
			func(rows []report.Row) []report.Row { rows[0].SumII--; return rows }},
		{"worse baseline", fmt.Sprintf("%s: sum_cycles %d -> %d", r.Key(), r.SumCycles+1, r.SumCycles),
			func(rows []report.Row) []report.Row { rows[0].SumCycles++; return rows }},
		{"stale row", "examples|smt|unified: missing from current results",
			func(rows []report.Row) []report.Row {
				return append(rows, report.Row{Backend: "smt", Machine: "unified", Corpus: "examples", Loops: 8})
			}},
	} {
		f.Rows = inj.doctor(append([]report.Row(nil), clean...))
		if err := f.WriteFile(base); err != nil {
			t.Fatal(err)
		}
		code, out, errOut := compare()
		if code != 1 || strings.Contains(out, "gate clean") || !strings.Contains(errOut, inj.want) ||
			!strings.Contains(errOut, base+" differs from this run (baseline -> current)") {
			t.Fatalf("%s: want exit 1 naming %q, got %d:\n%s", inj.name, inj.want, code, errOut)
		}
	}

	// The stale row is still in the baseline: a refresh names it, then
	// the gate is clean again.
	code, out, errOut = compare("-update-baseline")
	if code != 0 || !strings.Contains(out, "updating "+base+" (baseline -> current):\n  examples|smt|unified: missing from current results\n") {
		t.Fatalf("refresh must print the rows it changes, got %d:\n%s%s", code, out, errOut)
	}
	if code, out, errOut := compare(); code != 0 || !strings.Contains(out, "gate clean") {
		t.Fatalf("gate after refresh must pass, got %d: %s%s", code, out, errOut)
	}
}

// failOn is a backend that fails on one loop with err and delegates to
// the embedded backend (whose name it keeps) otherwise.
type failOn struct {
	sched.Scheduler
	loop string
	err  error
}

func (f failOn) Schedule(req *sched.Request) (*sched.Schedule, error) {
	if req.Loop.Name == f.loop {
		return nil, f.err
	}
	return f.Scheduler.Schedule(req)
}

// TestCompareFailsOnGapCorpusFailure is the regression test for a gap
// row whose MIRS side failed: the row used to drop out of the gap sums
// and the gate passed. A MIRS compile error, and then a timeout, on one
// gap-corpus loop must each fail the gate naming loop × backend ×
// machine, and must refuse to refresh the baselines.
func TestCompareFailsOnGapCorpusFailure(t *testing.T) {
	_, base, gapBase := freshGate(t)
	var clean [2][]byte
	for i, p := range []string{base, gapBase} {
		var err error
		if clean[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, want string
		err        error
	}{
		{"error", "core: backend \"mirs\": stub: no schedule", errors.New("stub: no schedule")},
		// The driver classifies a compilation ending in a deadline as a
		// timeout outcome, so the stub need not wait out the budget.
		{"timeout", "timeout after " + driver.DefaultTimeout.String(), fmt.Errorf("stub: %w", context.DeadlineExceeded)},
	} {
		t.Run(c.name, func(t *testing.T) {
			corpora := smallCorpora(t)
			gap := &corpora[len(corpora)-1]
			victim := gap.Loops[1].Name
			gap.Backends = []sched.Scheduler{gap.Backends[0], failOn{Scheduler: mirs.New(), loop: victim, err: c.err}}
			for _, extra := range [][]string{nil, {"-update-baseline"}} {
				code, _, errOut := compareOn(corpora, append([]string{"-baseline", base, "-gap-baseline", gapBase}, extra...)...)
				if code != 1 || !strings.Contains(errOut, "3 gate-corpus compilation(s) failed") {
					t.Fatalf("compare %v: got exit %d, want 1 with 3 failures; stderr:\n%s", extra, code, errOut)
				}
				for _, m := range []string{"unified", "paper-4cluster", "tight"} {
					if want := fmt.Sprintf("%s [mirs x %s]: %s", victim, m, c.want); !strings.Contains(errOut, want) {
						t.Fatalf("compare %v: stderr does not name %q:\n%s", extra, want, errOut)
					}
				}
			}
			for i, p := range []string{base, gapBase} {
				if got, _ := os.ReadFile(p); !bytes.Equal(got, clean[i]) {
					t.Fatalf("%s rewritten despite a failing gate corpus", p)
				}
			}
		})
	}
}

// TestCompareGapEndToEnd doctors the gap baseline of the one gate —
// a different proved optimum, a smaller II gap, a larger one, another
// conflict budget — and requires each to fail the gate naming the row
// (or header field), the JSON field and both values.
func TestCompareGapEndToEnd(t *testing.T) {
	compare, _, gapBase := freshGate(t)
	var gf report.GapFile
	readJSON(t, gapBase, &gf)
	victim := -1
	for i, r := range gf.Rows {
		if r.Proved && r.MirsII > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no proved row in the gap baseline to corrupt")
	}
	r := gf.Rows[victim]
	clean := append([]report.GapRow(nil), gf.Rows...)
	for _, inj := range []struct {
		want   string
		doctor func(f *report.GapFile)
	}{
		{fmt.Sprintf("%s: opt_ii %d -> %d", r.Key(), r.OptII+1, r.OptII), func(f *report.GapFile) { f.Rows[victim].OptII++ }},
		{fmt.Sprintf("%s: ii_gap %d -> %d", r.Key(), r.IIGap-1, r.IIGap), func(f *report.GapFile) { f.Rows[victim].IIGap-- }},
		{fmt.Sprintf("%s: ii_gap %d -> %d", r.Key(), r.IIGap+1, r.IIGap), func(f *report.GapFile) { f.Rows[victim].IIGap++ }},
		{fmt.Sprintf("budget %d -> %d", gf.Budget+1, gf.Budget), func(f *report.GapFile) { f.Budget++ }},
	} {
		f := gf
		f.Rows = append([]report.GapRow(nil), clean...)
		inj.doctor(&f)
		if err := f.WriteFile(gapBase); err != nil {
			t.Fatal(err)
		}
		if code, _, errOut := compare(); code != 1 || !strings.Contains(errOut, inj.want) {
			t.Fatalf("want exit 1 naming %q, got %d:\n%s", inj.want, code, errOut)
		}
	}
}

// TestRunOptBackend pins the CLI wiring of the exact backend: resolvable
// by name (but not part of "all"), honouring -budget, clean on a small
// population.
func TestRunOptBackend(t *testing.T) {
	out := filepath.Join(t.TempDir(), "opt.json")
	code, _, errOut := capture(t, "run", "-backends", "opt", "-n", "6", "-machines", "unified", "-budget", "5000", "-o", out)
	if code != 0 {
		t.Fatalf("run -backends opt failed: %s", errOut)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Outcomes []struct {
			Backend string         `json:"backend"`
			Stats   map[string]int `json:"stats"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 6 {
		t.Fatalf("want 6 outcomes, got %d", len(rep.Outcomes))
	}
	for _, o := range rep.Outcomes {
		if o.Backend != "opt" {
			t.Fatalf("backend = %q, want opt", o.Backend)
		}
		if _, ok := o.Stats["opt_proved"]; !ok {
			t.Fatalf("outcome missing opt_proved stat: %+v", o.Stats)
		}
	}
}
