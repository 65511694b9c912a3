package core

import (
	"context"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// TestTraceZeroPerturbation pins the observer half of the recorder
// contract: attaching a recorder must not change what any backend
// produces — same II, same placements, same stats — for every backend ×
// machine × corpus loop, plus a MIRS overflow plateau. The zero-cost
// half (no allocations when the recorder is nil) is pinned by
// trace.TestEmitDisabledIsAllocFree and the benchmark allocation gate.
func TestTraceZeroPerturbation(t *testing.T) {
	type tcase struct {
		be sched.Scheduler
		m  *machine.Machine
		l  *ir.Loop
	}
	var cases []tcase
	for _, be := range Backends() {
		for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
			for _, l := range ir.ExampleLoops() {
				cases = append(cases, tcase{be, m, l})
			}
		}
	}
	// The plateau: MIRS returns II 21, an overflowing schedule no later
	// candidate beats, after probing up to II 300 (msched trace -seed 1
	// -i 87 -machine tight), so the last attempt is not the returned one.
	cases = append(cases, tcase{mirs.New(), machine.Tight(), gen.CorpusLoop(1, 87)})
	for i, tc := range cases {
		plateau := i == len(cases)-1
		be, m, l := tc.be, tc.m, tc.l
		t.Run(be.Name()+"/"+m.Name+"/"+l.Name, func(t *testing.T) {
			plain, errPlain := CompileWith(be, l, m)
			buf := &trace.Buffer{}
			traced, errTraced := CompileWithOpts(context.Background(), be, l, m, Opts{Recorder: buf})
			if (errPlain == nil) != (errTraced == nil) {
				t.Fatalf("error divergence: plain=%v traced=%v", errPlain, errTraced)
			}
			if errPlain != nil {
				return
			}
			if plain.Schedule.II != traced.Schedule.II {
				t.Fatalf("II diverged: plain=%d traced=%d", plain.Schedule.II, traced.Schedule.II)
			}
			if len(plain.Schedule.Placements) != len(traced.Schedule.Placements) {
				t.Fatalf("placement count diverged: %d vs %d",
					len(plain.Schedule.Placements), len(traced.Schedule.Placements))
			}
			for i, p := range plain.Schedule.Placements {
				if p != traced.Schedule.Placements[i] {
					t.Fatalf("placement %d diverged: %+v vs %+v", i, p, traced.Schedule.Placements[i])
				}
			}
			for k, v := range plain.Schedule.Stats {
				if traced.Schedule.Stats[k] != v {
					t.Fatalf("stat %q diverged: %d vs %d", k, v, traced.Schedule.Stats[k])
				}
			}
			if buf.Len() == 0 {
				t.Fatalf("recorder attached but no events recorded")
			}
			// The stream must bracket every II attempt, and exactly
			// one attempt at the returned II returned a schedule. An
			// overflowing MIRS attempt returns its schedule to the
			// search too, so other IIs may carry Returned.
			events := buf.Events()
			depth, lastII, returned := 0, int32(-1), 0
			for _, e := range events {
				switch e.Kind {
				case trace.KindIIStart:
					depth++
					lastII = e.II
				case trace.KindIIEnd:
					depth--
					if e.Returned && int(e.II) == traced.Schedule.II {
						returned++
					}
				}
			}
			if depth != 0 {
				t.Fatalf("unbalanced ii_start/ii_end: depth %d", depth)
			}
			if returned != 1 {
				t.Fatalf("%d attempts at the returned II %d carry Returned, want 1", returned, traced.Schedule.II)
			}
			if plateau && int(lastII) == traced.Schedule.II {
				t.Fatalf("plateau case: last attempted II %d is the returned II; it no longer probes past the returned attempt", lastII)
			}
		})
	}
}
