package mirs

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// This file pins the ownership rule of the in-place spill splice: the
// request's loop and graph are never written, and a schedule an attempt
// returns keeps its spill-augmented loop and graph even though the
// attempter splices its own storage on every later attempt.

// snapshot is a deep copy of the parts of a schedule a later attempt
// could clobber through shared storage.
type snapshot struct {
	graph      *ir.Graph
	ii         int
	placements []sched.Placement
	stats      map[string]int
}

func snap(s *sched.Schedule) snapshot {
	return snapshot{graph: s.Graph.Clone(), ii: s.II,
		placements: slices.Clone(s.Placements), stats: maps.Clone(s.Stats)}
}

// requireUnchanged compares a schedule against its snapshot: the loop
// deep-equal, the edges and every adjacency view in order, placements
// and stats.
func (w snapshot) requireUnchanged(t *testing.T, s *sched.Schedule) {
	t.Helper()
	if s.Graph.Loop != s.Loop {
		t.Fatal("schedule graph no longer belongs to its loop")
	}
	if !reflect.DeepEqual(s.Loop, w.graph.Loop) {
		t.Fatal("schedule loop changed after later attempts")
	}
	if !slices.Equal(s.Graph.Edges, w.graph.Edges) || s.Graph.NumNodes() != w.graph.NumNodes() {
		t.Fatal("schedule graph edges changed after later attempts")
	}
	for v := 0; v < s.Graph.NumNodes(); v++ {
		for _, pair := range [][2][]*ir.Edge{{s.Graph.Succs(v), w.graph.Succs(v)}, {s.Graph.Preds(v), w.graph.Preds(v)}} {
			if !slices.EqualFunc(pair[0], pair[1], func(a, b *ir.Edge) bool { return *a == *b }) {
				t.Fatalf("schedule graph adjacency of node %d changed after later attempts", v)
			}
		}
	}
	if s.II != w.ii || !slices.Equal(s.Placements, w.placements) || !maps.Equal(s.Stats, w.stats) {
		t.Fatal("schedule placements or stats changed after later attempts")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule no longer validates: %v", err)
	}
}

// TestSpillNeverWritesRequest: spilling works on attempt-owned copies,
// so the request's loop and graph are deep-equal before and after a
// spill-heavy Schedule.
func TestSpillNeverWritesRequest(t *testing.T) {
	m := machine.Tight()
	g, err := ir.Build(ir.Hydro(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.Build(ir.Hydro(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatal("two builds of one loop differ; the comparison below would be meaningless")
	}
	out, err := New().Schedule(&sched.Request{Loop: g.Loop, Machine: m, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats["spill_loads"] == 0 || out.Graph == g {
		t.Fatal("hydro no longer spills on tight; pick a spill-heavy loop")
	}
	if !reflect.DeepEqual(g, want) {
		t.Error("Schedule wrote to the request's loop or graph")
	}
}

// TestReturnedScheduleOwnsItsGraph drives the II search by hand with a
// spill cap low enough that attempts complete overflowing: the first
// overflowing attempt's schedule — spilled, and kept by the sweep as the
// fallback — must be unchanged after every later attempt has run on the
// same attempter.
func TestReturnedScheduleOwnsItsGraph(t *testing.T) {
	l, m := ir.Hydro(), machine.Tight()
	sw, newAttempter, err := (&Scheduler{maxRetries: 8, maxSpills: 2}).Probe(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	at := newAttempter()
	var first *sched.Schedule
	var want snapshot
	later := 0
	for {
		cand, done := sw.Next()
		if done {
			break
		}
		a := at.AttemptII(nil, cand, nil)
		if a.Err != nil {
			t.Fatal(a.Err)
		}
		switch {
		case first != nil:
			later++
		case a.Schedule != nil && a.Excess > 0:
			first, want = a.Schedule, snap(a.Schedule)
		}
		sw.Consume(cand, a)
	}
	if first == nil || first.Loop.NumInstrs() <= l.NumInstrs() {
		t.Fatal("no spilled overflowing attempt; adjust the spill cap")
	}
	if later == 0 {
		t.Fatal("no attempt ran after the first overflowing one")
	}
	want.requireUnchanged(t, first)
}

// TestSpillPathAllocs gates the allocations of a spilling Schedule of an
// example loop. Each spill used to rebuild the loop and graph — 29755
// allocs for hydro and 9989 for fir8 on tight — and then every table of
// the scheduling state (622 and 519); it now splices the graph in place
// and migrates the state, which is carved from one arena (167 and 158
// while its tables grew one by one). The limits are the measured counts
// plus 25% headroom, the convention TestCompileAllocs follows.
func TestSpillPathAllocs(t *testing.T) {
	m := machine.Tight()
	for _, tc := range []struct {
		l     *ir.Loop
		limit float64
	}{
		{ir.Hydro(), 127 * 1.25},
		{ir.FIR8(), 107 * 1.25},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := New().Schedule(&sched.Request{Loop: tc.l, Machine: m}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s on tight: %.0f allocs per Schedule", tc.l.Name, allocs)
		if allocs > tc.limit {
			t.Errorf("%s on tight: %.0f allocs per Schedule, limit %.0f", tc.l.Name, allocs, tc.limit)
		}
	}
}

// BenchmarkSpillPath times MIRS on the register-starved machine over the
// loops of gen.Corpus(1, 240) that spill there, with the graph and MII
// built outside the timed loop: allocs/op and the CPU profile are those
// of the placement search with spill insertion in it. Run with
// -benchmem.
func BenchmarkSpillPath(b *testing.B) {
	m := machine.Tight()
	var reqs []*sched.Request
	for _, l := range gen.Corpus(1, 240) {
		g, err := ir.Build(l, m, nil)
		if err != nil {
			b.Fatal(err)
		}
		mii, err := sched.ComputeMII(g, m)
		if err != nil {
			b.Fatal(err)
		}
		req := &sched.Request{Loop: l, Machine: m, Graph: g, MII: &mii}
		s, err := New().Schedule(req)
		if err != nil {
			b.Fatal(err)
		}
		if s.Stats["spill_stores"]+s.Stats["spill_loads"] > 0 {
			reqs = append(reqs, req)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := New().Schedule(req); err != nil {
				b.Fatal(err)
			}
		}
	}
}
