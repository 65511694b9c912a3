package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestTraceCommandDeterministic is the in-process version of the CI
// trace smoke: tracing the same loop twice prints byte-identical
// reports and writes byte-identical Chrome exports, and the report
// names the essentials (final II, MII, ejections, spill attribution).
func TestTraceCommandDeterministic(t *testing.T) {
	dir := t.TempDir()
	f1, f2 := filepath.Join(dir, "t1.json"), filepath.Join(dir, "t2.json")
	code1, out1, err1 := capture(t, "trace", "-seed", "1", "-i", "7", "-machine", "tight", "-chrome", f1)
	if code1 != 0 {
		t.Fatalf("trace failed: %s", err1)
	}
	code2, out2, _ := capture(t, "trace", "-seed", "1", "-i", "7", "-machine", "tight", "-chrome", f2)
	if code2 != 0 {
		t.Fatal("second trace failed")
	}
	// The echoed output file name is the only permitted difference.
	norm := func(s, f string) string { return strings.ReplaceAll(s, f, "OUT") }
	if norm(out1, f1) != norm(out2, f2) {
		t.Fatalf("trace reports differ:\n--- run 1\n%s\n--- run 2\n%s", out1, out2)
	}
	b1, e1 := os.ReadFile(f1)
	b2, e2 := os.ReadFile(f2)
	if e1 != nil || e2 != nil {
		t.Fatalf("read exports: %v %v", e1, e2)
	}
	if string(b1) != string(b2) {
		t.Fatal("chrome exports differ between runs")
	}
	for _, want := range []string{"why II=", "MII=", "ejections:", "spill", "result:"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("report missing %q:\n%s", want, out1)
		}
	}
}

// TestTraceCommandProfileJSON checks the -profile export parses and the
// example-loop path plus the usage errors.
func TestTraceCommandProfileJSON(t *testing.T) {
	dir := t.TempDir()
	pf := filepath.Join(dir, "p.json")
	code, out, errOut := capture(t, "trace", "-loop", "dotprod", "-machine", "unified", "-profile", pf)
	if code != 0 {
		t.Fatalf("trace failed: %s", errOut)
	}
	if !strings.Contains(out, "why II=") || !strings.Contains(out, "dotprod") {
		t.Fatalf("unexpected report:\n%s", out)
	}
	b, err := os.ReadFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"final_ii"`) {
		t.Fatalf("profile JSON missing final_ii: %s", b)
	}
	if code, _, errOut := capture(t, "trace", "-loop", "no-such-loop"); code != 2 || !strings.Contains(errOut, "unknown example loop") {
		t.Error("unknown loop must exit 2 with a name list")
	}
	if code, _, _ := capture(t, "trace", "-backend", "nope"); code != 2 {
		t.Error("unknown backend must exit 2")
	}
	if code, _, _ := capture(t, "trace", "-i", "-1"); code != 2 {
		t.Error("negative index must exit 2")
	}
	if code, out, _ := capture(t, "trace", "-list"); code != 0 || !strings.Contains(out, "dotprod") {
		t.Error("-list must print example loop names")
	}
}

// TestTraceOptVerdicts pins that the exact backend's trace tells a
// proof from a hole: g0129-storm on paper-4cluster runs out of conflict
// budget at its MII of 8, while gap0009-storm on unified (a gap-corpus
// loop, found by its gap.json name) is proved infeasible at its MII of
// 2. Each attempt names the conflicts it spent. On tight the same loop
// starts at 3: the header says which operations no cluster seats at
// RecMII 2.
func TestTraceOptVerdicts(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-seed", "1", "-i", "129", "-machine", "paper-4cluster"}, "II=8   budget exhausted (10000 conflicts)"},
		{[]string{"-loop", "gap0009-storm", "-machine", "unified"}, "II=2   infeasible (proof, 128 conflicts)"},
		{[]string{"-loop", "gap0009-storm", "-machine", "tight"}, "MII 3 = RecMII 2 + 1: ops {"},
	} {
		code, out, errOut := capture(t, append([]string{"trace", "-backend", "opt"}, c.args...)...)
		if code != 0 {
			t.Fatalf("trace %v failed: %s", c.args, errOut)
		}
		if !strings.Contains(out, c.want) || !strings.Contains(out, "fits (") || strings.Contains(out, "gave up") {
			t.Fatalf("%v report lacks %q and a conflict-counted fit, or still says gave up:\n%s", c.args, c.want, out)
		}
	}
}

// TestTraceHeadlineIsReturnedII: over the register-starved machine's
// generated loops, the report's header names the II of the schedule the
// compilation returned (the "result:" line), not the last candidate the
// search tried, and no attempt but the returned one reads "fits" (or,
// when it overflows, "returned"). At an
// overflow plateau the search returns its least overflowing schedule,
// which the header used to skip: -i 87 read "why II=300" against a
// returned II of 21.
func TestTraceHeadlineIsReturnedII(t *testing.T) {
	header := regexp.MustCompile(`^why II=(\d+) `)
	result := regexp.MustCompile(`(?m)^result: .*?: II=(\d+) `)
	returned := regexp.MustCompile(`(?m)^  II=(\d+) +(fits|returned, )`)
	plateaus := 0
	for i := 0; i < 120; i++ {
		code, out, errOut := capture(t, "trace", "-seed", "1", "-i", strconv.Itoa(i), "-machine", "tight")
		if code != 0 {
			t.Fatalf("trace -i %d failed: %s", i, errOut)
		}
		h, r := header.FindStringSubmatch(out), result.FindStringSubmatch(out)
		if h == nil || r == nil || h[1] != r[1] {
			t.Fatalf("-i %d: header and result disagree on the II:\n%s", i, out)
		}
		ret := returned.FindAllStringSubmatch(out, -1)
		if len(ret) != 1 || ret[0][1] != h[1] || strings.Count(out, " fits ") != 0 && ret[0][2] != "fits" {
			t.Fatalf("-i %d: want exactly the returned II=%s to read fits or returned:\n%s", i, h[1], out)
		}
		if ret[0][2] != "fits" {
			plateaus++
		}
	}
	if plateaus == 0 {
		t.Fatal("no loop returned an overflowing schedule; the plateau case went unchecked")
	}
	t.Logf("%d of 120 loops returned an overflowing schedule", plateaus)
}
