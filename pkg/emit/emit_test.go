package emit_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func compile(t *testing.T, l *ir.Loop, m *machine.Machine) (*sched.Schedule, *sched.ExpandedKernel, *emit.Program) {
	t.Helper()
	s, err := (sched.ListScheduler{}).Schedule(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("Schedule(%s on %s): %v", l.Name, m.Name, err)
	}
	ek, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand(%s): %v", l.Name, err)
	}
	prog, err := emit.Emit(ek)
	if err != nil {
		t.Fatalf("Emit(%s): %v", l.Name, err)
	}
	return s, ek, prog
}

func example(t *testing.T, name string) *ir.Loop {
	t.Helper()
	for _, l := range ir.ExampleLoops() {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("no example loop %q", name)
	return nil
}

// stageStr flattens an emitted prologue or epilogue to its stage map:
// "id@iter" tokens in instruction order per stage of II bundles, stages
// separated by " | " — the shape the goldens pin. iter maps an op's
// iteration to the one the map records.
func stageStr(bundles []emit.Bundle, ii int, iter func(int) int) string {
	var b strings.Builder
	for lo := 0; lo < len(bundles); lo += ii {
		if lo > 0 {
			b.WriteString(" | ")
		}
		var ops []emit.Op
		for _, bun := range bundles[lo : lo+ii] {
			ops = append(ops, bun.Ops...)
		}
		slices.SortFunc(ops, func(x, y emit.Op) int { return x.ID - y.ID })
		for oi, op := range ops {
			if oi > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d@%d", op.ID, iter(op.Iter))
		}
	}
	return b.String()
}

// TestStageMapGoldens pins the shipped schedules' ramp code: the exact
// prologue and epilogue stage maps (which instance of which instruction
// fills and drains each pipeline stage) of the emitted programs for
// three corpus loops on the unified machine at their baseline IIs.
// Prologue iterations count from the first, epilogue iterations back
// from the final one (0 = iteration Trip-1). Any change here changes
// the emitted prologue/epilogue bundles and must be a conscious
// decision.
func TestStageMapGoldens(t *testing.T) {
	goldens := []struct {
		loop               string
		ii, unroll, stages int
		prologue, epilogue string
	}{
		{
			loop: "fir8", ii: 9, unroll: 1, stages: 2,
			prologue: "0@0 1@0 2@0 3@0 4@0 5@0 6@0 7@0 8@0 9@0 10@0 11@0 12@0 13@0 14@0 15@0 16@0 17@0 18@0 19@0 20@0 21@0 24@0 32@0 33@0 35@0",
			epilogue: "22@0 23@0 25@0 26@0 27@0 28@0 29@0 30@0 31@0 34@0",
		},
		{
			loop: "hydro", ii: 6, unroll: 1, stages: 3,
			prologue: "0@0 1@0 2@0 3@0 4@0 5@0 6@0 7@0 8@0 9@0 12@0 13@0 14@0 16@0 17@0 18@0 26@0 27@0 28@0 30@0 | 0@1 1@1 2@1 3@1 4@1 5@1 6@1 7@1 8@1 9@1 10@0 11@0 12@1 13@1 14@1 15@0 16@1 17@1 18@1 19@0 20@0 21@0 23@0 26@1 27@1 28@1 30@1",
			epilogue: "10@0 11@0 15@0 19@0 20@0 21@0 22@1 23@0 24@1 25@1 29@1 | 22@0 24@0 25@0 29@0",
		},
		{
			loop: "longchain", ii: 3, unroll: 1, stages: 2,
			prologue: "0@0 1@0 3@0",
			epilogue: "2@0 4@0 5@0",
		},
	}
	m := machine.Unified()
	for _, g := range goldens {
		t.Run(g.loop, func(t *testing.T) {
			s, ek, prog := compile(t, example(t, g.loop), m)
			if s.II != g.ii || ek.Unroll != g.unroll || s.StageCount() != g.stages {
				t.Fatalf("shape II=%d unroll=%d stages=%d, golden II=%d unroll=%d stages=%d",
					s.II, ek.Unroll, s.StageCount(), g.ii, g.unroll, g.stages)
			}
			if got := stageStr(prog.Prologue, s.II, func(i int) int { return i }); got != g.prologue {
				t.Errorf("prologue stage map drifted:\n got %s\nwant %s", got, g.prologue)
			}
			if got := stageStr(prog.Epilogue, s.II, func(i int) int { return prog.Trip - 1 - i }); got != g.epilogue {
				t.Errorf("epilogue stage map drifted:\n got %s\nwant %s", got, g.epilogue)
			}
		})
	}
}

// TestMVEPlanPartitionsIterations: across prologue, kernel passes and
// epilogue, every instruction executes each iteration 0..Trip-1 exactly
// once — the MVE plan is an exact partition of the iteration space.
func TestMVEPlanPartitionsIterations(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, l := range ir.ExampleLoops() {
			t.Run(m.Name+"/"+l.Name, func(t *testing.T) {
				_, _, prog := compile(t, l, m)
				n := prog.Loop.NumInstrs()
				count := make(map[[2]int]int)
				add := func(id, iter int) {
					if iter < 0 || iter >= prog.Trip {
						t.Fatalf("op %d instance %d outside [0, %d)", id, iter, prog.Trip)
					}
					count[[2]int{id, iter}]++
				}
				for _, b := range prog.Prologue {
					for _, op := range b.Ops {
						add(op.ID, op.Iter)
					}
				}
				for k := 0; k < prog.Passes; k++ {
					for _, b := range prog.Kernel {
						for _, op := range b.Ops {
							add(op.ID, op.Iter+k*prog.Unroll)
						}
					}
				}
				for _, b := range prog.Epilogue {
					for _, op := range b.Ops {
						add(op.ID, op.Iter)
					}
				}
				if len(count) != n*prog.Trip {
					t.Fatalf("%d distinct (op, iteration) instances, want %d", len(count), n*prog.Trip)
				}
				for key, c := range count {
					if c != 1 {
						t.Errorf("op %d iteration %d executes %d times", key[0], key[1], c)
					}
				}
			})
		}
	}
}

// TestPredWindowCoversExactly: for any trip count, the predicated
// window's passes — with out-of-range instances squashed — execute each
// instruction's iterations 0..trip-1 exactly once, including trips
// shorter than the pipeline fill and trips far past the MVE plan's.
func TestPredWindowCoversExactly(t *testing.T) {
	m := machine.Tight()
	for _, name := range []string{"fir8", "copy3", "dotprod"} {
		_, _, prog := compile(t, example(t, name), m)
		n := prog.Loop.NumInstrs()
		for trip := 1; trip <= 2*prog.Trip+3; trip++ {
			kstart, passes := prog.PredWindow(trip)
			count := make(map[[2]int]int)
			for k := kstart; k < kstart+passes; k++ {
				for _, b := range prog.Kernel {
					for _, op := range b.Ops {
						if i := op.Iter + k*prog.Unroll; i >= 0 && i < trip {
							count[[2]int{op.ID, i}]++
						}
					}
				}
			}
			if len(count) != n*trip {
				t.Fatalf("%s trip %d: %d instances, want %d", name, trip, len(count), n*trip)
			}
			for key, c := range count {
				if c != 1 {
					t.Fatalf("%s trip %d: op %d iteration %d executes %d times", name, trip, key[0], key[1], c)
				}
			}
		}
	}
}

// TestEmitDeterministic: emission is a pure function of the expanded
// kernel — two emissions of the same schedule produce byte-identical
// listings (CI diffs artifacts, so map-order leaks would flake).
func TestEmitDeterministic(t *testing.T) {
	for _, name := range []string{"fir8", "hydro", "copy3"} {
		l := example(t, name)
		m := machine.Tight()
		_, ek, prog1 := compile(t, l, m)
		prog2, err := emit.Emit(ek)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := prog1.Listing(1<<20), prog2.Listing(1<<20); a != b {
			t.Errorf("%s: two emissions differ", name)
		}
	}
}

// TestRegisterAllocationRespectsFileSize: no emitted register index
// reaches past the cluster's file, and every overflow name appears in
// the frame exactly once.
func TestRegisterAllocationRespectsFileSize(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Tight()} {
		for _, l := range ir.ExampleLoops() {
			_, _, prog := compile(t, l, m)
			for ci, names := range prog.Names {
				if len(names) > m.RegsPerCluster(ci) {
					t.Errorf("%s on %s: cluster %d allocates %d registers, file has %d",
						l.Name, m.Name, ci, len(names), m.RegsPerCluster(ci))
				}
			}
			seen := map[string]bool{}
			for _, fs := range prog.Frame {
				key := fmt.Sprintf("%d/%s", fs.Cluster, fs.Name)
				if seen[key] {
					t.Errorf("%s on %s: frame slot %s duplicated", l.Name, m.Name, key)
				}
				seen[key] = true
			}
		}
	}
}

// cloneOp copies op with slices of its own, nil staying nil.
func cloneOp(op emit.Op) emit.Op {
	op.Defs, op.Srcs, op.Xfers = slices.Clone(op.Defs), slices.Clone(op.Srcs), slices.Clone(op.Xfers)
	return op
}

// TestProgramSlicesDoNotAlias: a program's operand, transfer, bundle and
// name slices share backing arrays, and the vm's fault-injection and
// metamorphic tests edit programs in place. Every slice must be
// capacity-capped, so an append copies instead of overwriting a
// neighbour, and no two slices may overlap, so an in-place write stays
// in its own op. Each op in turn gets its first source overwritten and
// a def, a source and a transfer appended, then each bundle an op and
// each cluster a name; after every edit, everything else must read as
// before.
func TestProgramSlicesDoNotAlias(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Paper4Cluster(), machine.Tight()} {
		for _, name := range []string{"fir8", "hydro"} {
			_, _, prog := compile(t, example(t, name), m)
			segs := [][]emit.Bundle{prog.Prologue, prog.Kernel, prog.Epilogue}
			want := make([][][]emit.Op, len(segs))
			for s, seg := range segs {
				want[s] = make([][]emit.Op, len(seg))
				for b := range seg {
					for _, op := range seg[b].Ops {
						want[s][b] = append(want[s][b], cloneOp(op))
					}
				}
			}
			wantNames := make([][]sched.RegCopy, len(prog.Names))
			for ci, ns := range prog.Names {
				wantNames[ci] = slices.Clone(ns)
			}
			wantFrame := slices.Clone(prog.Frame)
			check := func(edit string) {
				t.Helper()
				for s, seg := range segs {
					for b := range seg {
						if !reflect.DeepEqual(seg[b].Ops, want[s][b]) {
							t.Fatalf("%s on %s: %s changed segment %d bundle %d", name, m.Name, edit, s, b)
						}
					}
				}
				for ci := range prog.Names {
					if !slices.Equal(prog.Names[ci], wantNames[ci]) {
						t.Fatalf("%s on %s: %s changed Names[%d]", name, m.Name, edit, ci)
					}
				}
				if !slices.Equal(prog.Frame, wantFrame) {
					t.Fatalf("%s on %s: %s changed Frame", name, m.Name, edit)
				}
			}
			for s, seg := range segs {
				for b := range seg {
					for i := range seg[b].Ops {
						op := &seg[b].Ops[i]
						if len(op.Srcs) > 0 {
							op.Srcs[0] = emit.Loc{Index: -1}
						}
						op.Defs = append(op.Defs, emit.Loc{Index: -2})
						op.Srcs = append(op.Srcs, emit.Loc{Index: -3})
						op.Xfers = append(op.Xfers, emit.Xfer{DefIdx: -4})
						want[s][b][i] = cloneOp(*op)
						check(fmt.Sprintf("editing op %d of segment %d bundle %d", i, s, b))
					}
				}
			}
			for s, seg := range segs {
				for b := range seg {
					seg[b].Ops = append(seg[b].Ops, emit.Op{ID: -5})
					want[s][b] = append(want[s][b], emit.Op{ID: -5})
					check(fmt.Sprintf("appending to segment %d bundle %d", s, b))
				}
			}
			for ci := range prog.Names {
				prog.Names[ci] = append(prog.Names[ci], sched.RegCopy{Reg: -6})
				wantNames[ci] = append(wantNames[ci], sched.RegCopy{Reg: -6})
				check(fmt.Sprintf("appending to Names[%d]", ci))
			}
		}
	}
}
