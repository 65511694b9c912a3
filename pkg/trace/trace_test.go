package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// synthetic is a plausible two-attempt search: II=3 fails after a
// window miss and a force-eject fight plus one spill, II=4 fits with a
// fresh spill of the same victim.
func synthetic() []Event {
	b := &Buffer{}
	b.Emit(Event{Kind: KindIIStart, II: 3, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 3})
	b.Emit(Event{Kind: KindPlace, II: 3, Op: 0, Cluster: 0, Cycle: 0, Reg: -1})
	b.Emit(Event{Kind: KindWindowMiss, II: 3, Op: 1, Cluster: 1, Cycle: 2, Reg: -1, Arg: 1})
	b.Emit(Event{Kind: KindForce, II: 3, Op: 1, Cluster: 0, Cycle: 2, Reg: -1})
	b.Emit(Event{Kind: KindEject, II: 3, Op: 0, Cluster: 0, Cycle: 0, Reg: -1})
	b.Emit(Event{Kind: KindVictim, II: 3, Op: 2, Cluster: -1, Cycle: -1, Reg: 7, Arg: 9, Label: "fmul"})
	b.Emit(Event{Kind: KindSpill, II: 3, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 1, Aux: 2})
	b.Emit(Event{Kind: KindCacheHit, II: 3, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 10})
	b.Emit(Event{Kind: KindCacheMiss, II: 3, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 4})
	b.Emit(Event{Kind: KindIIEnd, II: 3, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 0, Aux: 2})
	b.Emit(Event{Kind: KindIIStart, II: 4, Op: -1, Cluster: -1, Cycle: -1, Reg: -1})
	b.Emit(Event{Kind: KindPlace, II: 4, Op: 0, Cluster: 0, Cycle: 0, Reg: -1})
	b.Emit(Event{Kind: KindVictim, II: 4, Op: 2, Cluster: -1, Cycle: -1, Reg: 7, Arg: 9, Label: "fmul"})
	b.Emit(Event{Kind: KindSpill, II: 4, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 1, Aux: 1})
	b.Emit(Event{Kind: KindCompact, II: 4, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 1})
	b.Emit(Event{Kind: KindCompact, II: 4, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 0})
	b.Emit(Event{Kind: KindIIEnd, Returned: true, II: 4, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: 1, Aux: 0})
	return b.Events()
}

func TestBufferAssignsSequence(t *testing.T) {
	events := synthetic()
	for i, e := range events {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	b := &Buffer{}
	b.Emit(Event{Kind: KindPlace})
	b.Reset()
	b.Emit(Event{Kind: KindPlace})
	if got := b.Events()[0].Seq; got != 0 {
		t.Fatalf("seq after Reset = %d, want 0", got)
	}
}

func TestKindNamesStable(t *testing.T) {
	want := []string{"ii_start", "ii_end", "place", "window_miss", "force",
		"eject", "victim", "spill", "compact", "cache_hit", "cache_miss"}
	kinds := Kinds()
	if len(kinds) != len(want) {
		t.Fatalf("NumKinds = %d, want %d", len(kinds), len(want))
	}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind should be unknown")
	}
}

func TestChromeExportDeterministicAndValid(t *testing.T) {
	events := synthetic()
	meta := Meta{Loop: "l", Machine: "m", Backend: "mirs"}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, meta, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, meta, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two exports of the same stream differ")
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != len(events) {
		t.Fatalf("%d trace events for %d input events", len(parsed.TraceEvents), len(events))
	}
	// B/E phases must pair per II attempt.
	depth := 0
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "B":
			depth++
		case "E":
			depth--
		}
		if depth < 0 {
			t.Fatalf("unbalanced E before B")
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced B/E slices: depth %d at end", depth)
	}
}

func TestProfileAggregation(t *testing.T) {
	p := BuildProfile(Meta{Loop: "l", Machine: "m", Backend: "mirs", II: 4}, synthetic())
	if p.MII != 3 || p.FinalII != 4 {
		t.Fatalf("MII=%d FinalII=%d, want 3/4", p.MII, p.FinalII)
	}
	if len(p.Attempts) != 2 {
		t.Fatalf("%d attempts, want 2", len(p.Attempts))
	}
	a0, a1 := p.Attempts[0], p.Attempts[1]
	if a0.Completed || a0.Excess != 2 {
		t.Fatalf("attempt 0 = %+v, want incomplete with excess 2", a0)
	}
	if !a1.Completed || !a1.Returned || a1.Excess != 0 {
		t.Fatalf("attempt 1 = %+v, want completed and returned", a1)
	}
	if a0.WindowMisses != 1 || a0.Forces != 1 || a0.Ejections != 1 {
		t.Fatalf("attempt 0 counts wrong: %+v", a0)
	}
	if a0.CacheHits != 10 || a0.CacheMisses != 4 {
		t.Fatalf("attempt 0 cache counts wrong: %+v", a0)
	}
	if p.TotalEjections != 1 || p.TotalForces != 1 {
		t.Fatalf("totals wrong: %+v", p)
	}
	// Victims reflect the returned attempt only: one selection, 1 store,
	// 1 reload (not the II=3 attempt's 2 reloads).
	if len(p.Victims) != 1 {
		t.Fatalf("%d victims, want 1", len(p.Victims))
	}
	v := p.Victims[0]
	if v.Op != 2 || v.Reg != 7 || v.Selections != 1 || v.Stores != 1 || v.Reloads != 1 || v.Label != "fmul" {
		t.Fatalf("victim = %+v", v)
	}
	// Per-op effort spans all attempts; op 0 was ejected once.
	found := false
	for _, s := range p.Ops {
		if s.Op == 0 && s.Ejections == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("op 0 ejection not attributed: %+v", p.Ops)
	}
}

func TestReportNamesTheEssentials(t *testing.T) {
	p := BuildProfile(Meta{Loop: "myloop", Machine: "tight", Backend: "mirs", II: 4}, synthetic())
	var sb strings.Builder
	p.WriteReport(&sb)
	out := sb.String()
	for _, want := range []string{
		"why II=4 for loop myloop on tight",
		"MII=3",
		"final II=4",
		"ejections: 1 across the search",
		"spill attribution (returned schedule):",
		"op 2 (fmul) v7: 1 store(s), 1 reload(s)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportSolverVerdicts pins how the exact backend's attempts read:
// a proof, an exhausted budget and a model each name their verdict and
// the conflicts spent, and a verdict's conflicts never pose as register
// overflow.
func TestReportSolverVerdicts(t *testing.T) {
	b := &Buffer{}
	for i, end := range []struct {
		arg     int64
		verdict string
		confl   int64
	}{{0, VerdictUnsat, 195}, {0, VerdictUnknown, 10000}, {1, VerdictSat, 8}} {
		ii := int32(2 + i)
		b.Emit(Event{Kind: KindIIStart, II: ii, Op: -1, Cluster: -1, Cycle: -1, Reg: -1})
		b.Emit(Event{Kind: KindIIEnd, Returned: end.verdict == VerdictSat, II: ii, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: end.arg, Aux: end.confl, Label: end.verdict})
	}
	p := BuildProfile(Meta{Loop: "l", Machine: "tight", Backend: "opt", II: 4}, b.Events())
	for i, want := range []Attempt{
		{II: 2, Verdict: VerdictUnsat, Conflicts: 195},
		{II: 3, Verdict: VerdictUnknown, Conflicts: 10000},
		{II: 4, Completed: true, Verdict: VerdictSat, Conflicts: 8},
	} {
		got := p.Attempts[i]
		if got.II != want.II || got.Completed != want.Completed || got.Excess != 0 ||
			got.Verdict != want.Verdict || got.Conflicts != want.Conflicts {
			t.Fatalf("attempt %d = %+v, want %+v", i, got, want)
		}
	}
	var sb strings.Builder
	p.WriteReport(&sb)
	for _, want := range []string{
		"II=2   infeasible (proof, 195 conflicts)",
		"II=3   budget exhausted (10000 conflicts)",
		"II=4   fits (8 conflicts)",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
		}
	}
}

// TestReportHeuristicVerdicts pins how a MIRS search that never fits
// reads: the header names the II of the least overflowing schedule the
// search returned, not the last candidate; only that attempt reads
// "returned", its spills are the ones attributed, an attempt that
// completed and then gave up says so, and a doomed attempt names the
// bound that doomed it.
func TestReportHeuristicVerdicts(t *testing.T) {
	b := &Buffer{}
	for _, a := range []struct {
		ii        int32
		completed int64
		returned  bool
		aux       int64
		label     string
		reloads   int64
	}{
		{5, 1, true, 3, "", 1},
		{6, 1, true, 2, "", 2},
		{7, 1, false, 9, VerdictDoomed, 4},
		{8, 1, false, 0, "", 3},
		{9, 1, true, 2, "", 5},
	} {
		b.Emit(Event{Kind: KindIIStart, II: a.ii, Op: -1, Cluster: -1, Cycle: -1, Reg: -1})
		b.Emit(Event{Kind: KindVictim, II: a.ii, Op: 1, Cluster: 0, Cycle: -1, Reg: 3, Arg: 6})
		b.Emit(Event{Kind: KindSpill, II: a.ii, Op: 1, Cluster: -1, Cycle: -1, Reg: 3, Arg: 1, Aux: a.reloads})
		b.Emit(Event{Kind: KindIIEnd, Returned: a.returned, II: a.ii, Op: -1, Cluster: -1, Cycle: -1, Reg: -1, Arg: a.completed, Aux: a.aux, Label: a.label})
	}
	p := BuildProfile(Meta{Loop: "l", Machine: "tight", Backend: "mirs", II: 6}, b.Events())
	if len(p.Victims) != 1 || p.Victims[0].Reloads != 2 {
		t.Fatalf("victims %+v, want the II=6 attempt's one spill with 2 reloads", p.Victims)
	}
	if a := p.Attempts[2]; a.Verdict != VerdictDoomed || a.Bound != 9 || a.Excess != 0 {
		t.Fatalf("doomed attempt = %+v", a)
	}
	var sb strings.Builder
	p.WriteReport(&sb)
	out := sb.String()
	for _, want := range []string{
		"why II=6 for loop l on tight",
		"II=5   complete but 3 register(s) over",
		"II=6   returned, 2 register(s) over",
		"II=7   doomed: ResMII 9 > II",
		"II=8   complete, then gave up",
		"II=9   complete but 2 register(s) over",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fits") {
		t.Fatalf("no attempt fit, but the report says one did:\n%s", out)
	}
}

// TestEmitDisabledIsAllocFree pins the zero-cost half of the recorder
// contract at its root: the emission pattern every backend call site
// uses — a nil check guarding the Emit — must not allocate when the
// recorder is nil.
func TestEmitDisabledIsAllocFree(t *testing.T) {
	var rec Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		if rec != nil {
			rec.Emit(Event{Kind: KindPlace, II: 4, Op: 1, Cluster: 0, Cycle: 3, Reg: -1})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled emission allocates %v per run, want 0", allocs)
	}
}
