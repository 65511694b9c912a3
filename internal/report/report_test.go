package report

import (
	"bytes"
	"path/filepath"
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
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 3 || back.Rows[2].SumCycles != 4321 || back.Rows[2].SumBundles != 77 {
		t.Fatalf("round trip mangled rows: %+v", back.Rows)
	}
}

// TestCompareGates covers the gate semantics: clean pass, injected
// SumII, MaxLive, cycle and bundle regressions, a missing row, a
// population change, and unbaselined extra rows staying non-gating.
func TestCompareGates(t *testing.T) {
	base := sample()

	if regs, extra := Compare(base, sample()); len(regs) != 0 || len(extra) != 0 {
		t.Fatalf("identical files should gate clean, got %v / %v", regs, extra)
	}

	worse := sample()
	worse.Rows[0].SumII++ // mirs x unified
	worse.Rows[1].SumMaxLive += 5
	regs, _ := Compare(base, worse)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	// Canonical regression order: sorted by row key.
	if regs[0].Metric != "sum_max_live" || regs[1].Metric != "sum_ii" {
		t.Fatalf("unexpected regression set: %v", regs)
	}
	for _, r := range regs {
		if r.String() == "" {
			t.Fatal("empty regression rendering")
		}
	}

	// The emitted-code columns gate the same way: more cycles or more
	// bundles than the baseline fails the row.
	slower := sample()
	slower.Rows[0].SumCycles++
	slower.Rows[0].SumBundles += 3
	regs, _ = Compare(base, slower)
	if len(regs) != 2 || regs[0].Metric != "sum_bundles" || regs[1].Metric != "sum_cycles" ||
		regs[1].Baseline != 4321 || regs[1].Current != 4322 {
		t.Fatalf("want sum_bundles and sum_cycles regressions, got %v", regs)
	}

	better := sample()
	better.Rows[0].SumII--
	better.Rows[0].SumCycles--
	if regs, _ := Compare(base, better); len(regs) != 0 {
		t.Fatalf("improvement must not gate: %v", regs)
	}

	missing := &File{Rows: sample().Rows[:2]}
	if regs, _ := Compare(base, missing); len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("want one missing-row regression, got %v", regs)
	}

	repop := sample()
	repop.Rows[2].Loops = 9
	if regs, _ := Compare(base, repop); len(regs) != 1 || regs[0].Metric != "population" {
		t.Fatalf("want one population regression, got %v", regs)
	}

	extra := sample()
	extra.Rows = append(extra.Rows, Row{Backend: "smt", Machine: "unified", Corpus: "examples", Loops: 8})
	regs, unb := Compare(base, extra)
	if len(regs) != 0 || len(unb) != 1 || unb[0] != "examples|smt|unified" {
		t.Fatalf("extra rows must warn, not gate: %v / %v", regs, unb)
	}
}
