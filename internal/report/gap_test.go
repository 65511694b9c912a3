package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// gapFixture builds a small canonical gap table used across the tests.
func gapFixture() *GapFile {
	f := &GapFile{
		Corpus: "gap:seed=1,n=3,max-ops=12",
		Budget: 10000,
		Rows: []GapRow{
			{Loop: "gap0000-balanced", Machine: "unified", Ops: 11, MII: 3, OptII: 3, Proved: true, OptMaxLive: 7, MirsII: 3, MirsMaxLive: 6},
			{Loop: "gap0001-tiny", Machine: "unified", Ops: 6, MII: 2, OptII: 3, Proved: true, UnsatBelow: 1, OptMaxLive: 4, MirsII: 4, MirsMaxLive: 4, IIGap: 1},
			{Loop: "gap0002-wide", Machine: "tight", Ops: 11, MII: 4, OptII: 5, MirsII: 5, MirsMaxLive: 9},
		},
	}
	f.Recompute()
	return f
}

// TestGapRecompute pins the summary arithmetic: proved/feasible splits,
// the UNSAT-at-MII count, and gap aggregation only over proved rows
// with a MIRS result.
func TestGapRecompute(t *testing.T) {
	f := gapFixture()
	s := f.Summary
	if s.Rows != 3 || s.Proved != 2 || s.Feasible != 1 || s.OptFailed != 0 {
		t.Fatalf("summary counts wrong: %+v", s)
	}
	if s.ProvedAboveMII != 1 {
		t.Fatalf("ProvedAboveMII = %d, want 1 (gap0001 proved II 3 > MII 2)", s.ProvedAboveMII)
	}
	if s.GapRows != 2 || s.SumIIGap != 1 || s.MaxIIGap != 1 {
		t.Fatalf("gap aggregation wrong: %+v", s)
	}
}

// TestGapRoundTrip pins the artifact byte layout: marshal is
// deterministic, and write/read round-trips the file unchanged.
func TestGapRoundTrip(t *testing.T) {
	f := gapFixture()
	a, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("marshal is not deterministic")
	}
	path := filepath.Join(t.TempDir(), "gap.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back GapFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	c, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", a, c)
	}
}
