package vm_test

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// BenchmarkVerifyProgram measures the differential oracle alone: the
// list-scheduled gen.Corpus(1, 24) is compiled and emitted once per
// machine outside the timed loop, and one op verifies every program —
// sequential reference, MVE plan, and the predicated plan at trips
// {Stages, Trip+1, 512}. Run with -benchmem: allocs/op is what the
// interpreter's per-cycle bookkeeping shows up in.
func BenchmarkVerifyProgram(b *testing.B) {
	for _, m := range machines() {
		b.Run(m.Name, func(b *testing.B) {
			type compiled struct {
				ek   *sched.ExpandedKernel
				prog *emit.Program
				opts vm.Options
			}
			var progs []compiled
			for _, l := range gen.Corpus(1, 24) {
				s, err := sched.ListScheduler{}.Schedule(&sched.Request{Loop: l, Machine: m})
				if err != nil {
					b.Fatal(err)
				}
				ek, err := s.Expand()
				if err != nil {
					b.Fatal(err)
				}
				prog, err := emit.Emit(ek)
				if err != nil {
					b.Fatal(err)
				}
				progs = append(progs, compiled{ek, prog, vm.Options{PredTrips: []int{prog.Stages, prog.Trip + 1, 512}}})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range progs {
					rep, err := vm.VerifyProgram(c.ek, c.prog, c.opts)
					if err != nil {
						b.Fatal(err)
					}
					if !rep.OK() {
						b.Fatal(rep.String())
					}
				}
			}
		})
	}
}
