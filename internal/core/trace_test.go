package core

import (
	"context"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// TestTraceZeroPerturbation pins the observer half of the recorder
// contract: attaching a recorder must not change what any backend
// produces — same II, same placements, same stats — for every backend ×
// machine × corpus loop. The zero-cost half (no allocations when the
// recorder is nil) is pinned by trace.TestEmitDisabledIsAllocFree and
// the benchmark allocation gate.
func TestTraceZeroPerturbation(t *testing.T) {
	for _, be := range Backends() {
		for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
			for _, l := range ir.ExampleLoops() {
				t.Run(be.Name()+"/"+m.Name+"/"+l.Name, func(t *testing.T) {
					plain, errPlain := CompileWith(be, l, m)
					buf := &trace.Buffer{}
					traced, errTraced := CompileSafeWith(context.Background(), be, l, m, Opts{Recorder: buf})
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
					// The stream must bracket every II attempt and end on
					// the attempt that produced the returned schedule.
					events := buf.Events()
					depth, lastII := 0, int32(-1)
					for _, e := range events {
						switch e.Kind {
						case trace.KindIIStart:
							depth++
							lastII = e.II
						case trace.KindIIEnd:
							depth--
						}
					}
					if depth != 0 {
						t.Fatalf("unbalanced ii_start/ii_end: depth %d", depth)
					}
					if int(lastII) != traced.Schedule.II {
						t.Fatalf("last attempted II %d != returned II %d", lastII, traced.Schedule.II)
					}
				})
			}
		}
	}
}
