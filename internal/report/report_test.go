package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() *File {
	return &File{Rows: []Row{
		{Backend: "mirs", Machine: "unified", Corpus: "examples", Loops: 8, SumII: 20, SumMaxLive: 90, SumUnroll: 12, SumCycles: 4321, SumBundles: 77},
		{Backend: "list", Machine: "unified", Corpus: "examples", Loops: 8, SumII: 22, SumMaxLive: 95, SumUnroll: 12},
		{Backend: "list", Machine: "paper-4cluster", Corpus: "examples", Loops: 8, SumII: 25, SumMaxLive: 99, SumUnroll: 13},
	}}
}

// TestDeterministicEmit pins the byte-determinism contract: marshalling
// the same row set from different insertion orders yields identical
// bytes, rows sorted by (corpus, backend, machine).
func TestDeterministicEmit(t *testing.T) {
	a := sample()
	b := &File{Rows: []Row{a.Rows[2], a.Rows[0], a.Rows[1]}}
	da, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatalf("insertion order leaked into emitted bytes:\n%s\nvs\n%s", da, db)
	}
	if a.Rows[0].Machine != "paper-4cluster" || a.Rows[1].Backend != "list" || a.Rows[2].Backend != "mirs" {
		t.Fatalf("unexpected canonical order: %+v", a.Rows)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	f := sample()
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 3 || back.Rows[2].SumCycles != 4321 || back.Rows[2].SumBundles != 77 {
		t.Fatalf("round trip mangled rows: %+v", back.Rows)
	}
}

// diff runs Diff of current against base's canonical bytes.
func diff(t *testing.T, base, current Artifact) []string {
	t.Helper()
	data, err := marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := Diff(data, current)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// wantLines fails t unless got is exactly want.
func wantLines(t *testing.T, got []string, want ...string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("diff lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDiffIdentical: equal artifacts have no diff, whatever the order
// their rows were built in.
func TestDiffIdentical(t *testing.T) {
	shuffled := sample()
	shuffled.Rows[0], shuffled.Rows[2] = shuffled.Rows[2], shuffled.Rows[0]
	wantLines(t, diff(t, sample(), shuffled))
	wantLines(t, diff(t, gapFixture(), gapFixture()))
}

// TestCompareGates: a moved trajectory field is named with its JSON
// name and both values, whichever way it moved — the gate has no
// "better".
func TestCompareGates(t *testing.T) {
	cur := sample()
	cur.Rows[0].SumII++         // examples|mirs|unified, worse
	cur.Rows[1].SumMaxLive -= 5 // examples|list|unified, better
	cur.Rows[0].SumCycles--
	wantLines(t, diff(t, sample(), cur),
		"examples|list|unified: sum_max_live 95 -> 90",
		"examples|mirs|unified: sum_ii 20 -> 21, sum_cycles 4321 -> 4320")
}

// TestCompareGapViolations: a lost proof, a changed optimum, a moved gap
// and a new opt error are each named as a changed field of their row.
func TestCompareGapViolations(t *testing.T) {
	gap := gapFixture()
	gap.Rows[0].OptII, gap.Rows[0].Proved = 4, false
	gap.Rows[1].IIGap = 0
	gap.Rows[2].OptErr = "budget"
	gap.Recompute()
	wantLines(t, diff(t, gapFixture(), gap),
		"gap0000-balanced|unified: opt_ii 3 -> 4, proved true -> false",
		"gap0001-tiny|unified: ii_gap 1 -> 0",
		`gap0002-wide|tight: opt_err "" -> "budget"`)
}

// TestDiffMissingExtraRows: a row on one side only is named by its key.
func TestDiffMissingExtraRows(t *testing.T) {
	cur := &File{Rows: sample().Rows[:2]}
	cur.Rows = append(cur.Rows, Row{Backend: "smt", Machine: "unified", Corpus: "examples", Loops: 8})
	wantLines(t, diff(t, sample(), cur),
		"examples|list|paper-4cluster: missing from current results",
		"examples|smt|unified: not in baseline")

	gap := gapFixture()
	gap.Rows = append(gap.Rows[1:], GapRow{Loop: "gap0009-new", Machine: "tight", MII: 1, OptII: 1, Proved: true})
	gap.Recompute()
	wantLines(t, diff(t, gapFixture(), gap),
		"gap0000-balanced|unified: missing from current results",
		"gap0009-new|tight: not in baseline")
}

// TestDiffGapHeader: a changed corpus or conflict budget is named.
func TestDiffGapHeader(t *testing.T) {
	gap := gapFixture()
	gap.Corpus, gap.Budget = "gap:seed=2,n=3,max-ops=12", 999
	wantLines(t, diff(t, gapFixture(), gap),
		`corpus "gap:seed=1,n=3,max-ops=12" -> "gap:seed=2,n=3,max-ops=12"`,
		"budget 10000 -> 999")
}

// TestDiffOutsideRows: a baseline whose rows and header match but whose
// other bytes do not — a hand-edited summary, a re-indented file —
// still differs, and the diff says where; one that does not parse is an
// error.
func TestDiffOutsideRows(t *testing.T) {
	const only = "rows and header match; only the bytes outside them differ (summary or layout)"
	edited := gapFixture()
	edited.Summary.SumIIGap = 7
	wantLines(t, diff(t, edited, gapFixture()), only)

	compact, err := json.Marshal(sample())
	if err != nil {
		t.Fatal(err)
	}
	lines, err := Diff(compact, sample())
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, lines, only)

	if _, err := Diff([]byte("{"), sample()); err == nil || !strings.Contains(err.Error(), "parse baseline") {
		t.Fatalf("truncated baseline: got %v, want a parse error", err)
	}
}
