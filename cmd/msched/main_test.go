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
		{[]string{"run", "-timeout", "-1s"}, "-timeout must be >= 0"},
		{[]string{"trace", "-timeout", "-1s"}, "-timeout must be >= 0"},
		{[]string{"exec", "-timeout", "-1s"}, "-timeout must be >= 0"},
		{[]string{"exec", "-budget", "-1"}, "-budget must be >= 0"},
		{[]string{"exec", "-listing", "-3"}, "-listing must be >= 0"},
		// The oracle's run time grows with the trip; -timeout covers only
		// compilation, so this used to run unbounded.
		{[]string{"exec", "-trips", "4611686018427387904"}, "-trips wants integers in [1, 1048576]"},
		{[]string{"exec", "-trips", "1,1048577"}, "-trips wants integers in [1, 1048576]"},
		{[]string{"exec", "-trips", "0"}, "-trips wants integers in [1, 1048576]"},
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
// determinism smoke: two untimed runs write byte-identical reports and
// CSVs.
func TestRunDeterministicReport(t *testing.T) {
	dir := t.TempDir()
	r1, r2 := filepath.Join(dir, "r1.json"), filepath.Join(dir, "r2.json")
	c1, c2 := filepath.Join(dir, "r1.csv"), filepath.Join(dir, "r2.csv")
	if code, _, errOut := capture(t, "run", "-seed", "9", "-n", "25", "-strict", "-o", r1, "-csv", c1); code != 0 {
		t.Fatalf("run failed: %s", errOut)
	}
	if code, _, errOut := capture(t, "run", "-seed", "9", "-n", "25", "-strict", "-o", r2, "-csv", c2); code != 0 {
		t.Fatalf("run failed: %s", errOut)
	}
	for _, pair := range [][2]string{{r1, r2}, {c1, c2}} {
		a, _ := os.ReadFile(pair[0])
		b, _ := os.ReadFile(pair[1])
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("%s and %s differ (or are empty)", pair[0], pair[1])
		}
	}
	var rep struct {
		Jobs     int `json:"jobs"`
		Failures int `json:"failures"`
	}
	data, _ := os.ReadFile(r1)
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 25*4 || rep.Failures != 0 {
		t.Fatalf("want 100 clean jobs, got %+v", rep)
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

// TestCompareGateEndToEnd drives the one-gate workflow through the CLI:
// refresh both baselines, gate clean with byte-identical artifacts
// across two runs, then tighten the quality baseline one way at a time —
// ΣII, then Σcycles — and require each to fail the gate naming the row.
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

	// Each injection tightens a baseline below what the schedulers
	// actually achieve, as if a previous commit had been better, and is
	// undone before the next one.
	f, err := report.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	clean := append([]report.Row(nil), f.Rows...)
	for _, inj := range []struct {
		metric string
		bump   func(r *report.Row)
	}{
		{"sum_ii", func(r *report.Row) { r.SumII-- }},
		{"sum_cycles", func(r *report.Row) { r.SumCycles-- }},
	} {
		f.Rows = append([]report.Row(nil), clean...)
		inj.bump(&f.Rows[0])
		if err := f.WriteFile(base); err != nil {
			t.Fatal(err)
		}
		code, _, errOut := compare()
		if code != 1 || !strings.Contains(errOut, inj.metric+" regressed") || !strings.Contains(errOut, f.Rows[0].Key()) {
			t.Fatalf("injected %s regression not caught (code %d):\n%s", inj.metric, code, errOut)
		}
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

// TestCompareGapEndToEnd corrupts the gap baseline of the one gate two
// ways — a changed proved optimum and a tightened II gap — and requires
// each to fail the gate naming the row.
func TestCompareGapEndToEnd(t *testing.T) {
	compare, _, gapBase := freshGate(t)
	gf, err := report.ReadGapFile(gapBase)
	if err != nil {
		t.Fatal(err)
	}
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
	// A baseline claiming a different proved optimum must read as an
	// encoding-semantics alarm; a baseline claiming a smaller gap must
	// read as a MIRS regression.
	gf.Rows[victim].OptII++
	if err := gf.WriteFile(gapBase); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := compare(); code != 1 || !strings.Contains(errOut, "optimal II changed") || !strings.Contains(errOut, gf.Rows[victim].Loop) {
		t.Fatalf("changed proved optimum not caught (code %d):\n%s", code, errOut)
	}
	gf.Rows[victim].OptII--
	gf.Rows[victim].IIGap--
	if err := gf.WriteFile(gapBase); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := compare(); code != 1 || !strings.Contains(errOut, "II gap grew") {
		t.Fatalf("grown II gap not caught (code %d):\n%s", code, errOut)
	}
}

// TestRunOptBackend pins the CLI wiring of the exact backend: resolvable
// by name (but not part of "all"), honouring -budget, clean on a small
// population.
func TestRunOptBackend(t *testing.T) {
	out := filepath.Join(t.TempDir(), "opt.json")
	code, _, errOut := capture(t, "run", "-backends", "opt", "-n", "6", "-machines", "unified", "-budget", "5000", "-strict", "-keep-outcomes", "-o", out)
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
