// gap.go builds the optimality-gap table (internal/report.GapFile): a
// seeded small-loop population, swept over {opt, mirs} × the gate
// machines by Run like any other corpus, and a join of the
// per-compilation outcomes into per-loop rows measuring MIRS's distance
// from the proved optimum.
package driver

import (
	"fmt"

	"github.com/paper-repo-growth/mirs/internal/report"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/opt"
)

// GapCorpus generates the seeded small-loop population the gap table
// runs on: n loops cycling every generator knob corner with the Ops
// knob clamped so bodies stay within maxOps instructions — small enough
// that the exact backend proves optimality within the default budget,
// diverse enough (memory-bound, recurrences, pressure, multi-def) that
// the gap actually measures something. Loops are named gap%04d-<tag>,
// deliberately distinct from the main corpus's g%04d names: a clamped
// "pressure" loop is not the loop the trajectory rows call by that
// index. The result is a pure function of (seed, n, maxOps); loop i is
// independent of n, so growing the corpus keeps its prefix stable.
func GapCorpus(seed uint64, n, maxOps int) []*ir.Loop {
	if n <= 0 {
		return nil
	}
	corners := gen.Corners()
	out := make([]*ir.Loop, 0, n)
	for i := 0; len(out) < n && i < 40*n; i++ {
		k := corners[i%len(corners)]
		// Leave headroom under maxOps: generated bodies carry a few
		// instructions beyond the Ops knob (pointer updates, stores).
		if lim := maxOps - 4; k.Ops > lim {
			k.Ops = lim
			if k.Ops < 1 {
				k.Ops = 1
			}
		}
		l := gen.Generate(gen.Mix(seed, i), k)
		l.Name = fmt.Sprintf("gap%04d-%s", i, k.Tag)
		if l.NumInstrs() <= maxOps {
			out = append(out, l)
		}
	}
	return out
}

// RunGap joins the outcomes of a gap sweep — the population compiled
// by the exact backend and MIRS on every machine — into the gap table,
// labelled with the sweep's corpus. loops is the swept population (it supplies each row's op
// count). The proofs ran at opt's default budget, which the artifact
// records. A failed side leaves its row's OptErr/MirsErr set and the
// row out of the gap columns; `msched compare` fails the gate on any
// such failure before the table is gated or baselined.
func RunGap(rep *Report, loops []*ir.Loop) *report.GapFile {
	ops := make(map[string]int, len(loops))
	for _, l := range loops {
		ops[l.Name] = l.NumInstrs()
	}
	rows := map[string]*report.GapRow{}
	ordered := []*report.GapRow{}
	row := func(loop, mach string) *report.GapRow {
		k := loop + "|" + mach
		r := rows[k]
		if r == nil {
			r = &report.GapRow{Loop: loop, Machine: mach, Ops: ops[loop]}
			rows[k] = r
			ordered = append(ordered, r)
		}
		return r
	}
	for _, oc := range rep.Outcomes {
		r := row(oc.Loop, oc.Machine)
		switch oc.Backend {
		case opt.Name:
			if oc.Err != "" {
				r.OptErr = oc.Err
				continue
			}
			r.MII = oc.MII
			r.OptII = oc.II
			r.OptMaxLive = oc.MaxLive
			r.Proved = oc.Stats["opt_proved"] == 1
			r.UnsatBelow = oc.Stats["opt_unsat_below"]
		default: // mirs
			if oc.Err != "" {
				r.MirsErr = oc.Err
				continue
			}
			if r.MII == 0 {
				r.MII = oc.MII
			}
			r.MirsII = oc.II
			r.MirsMaxLive = oc.MaxLive
		}
	}
	f := &report.GapFile{Corpus: rep.Corpus, Budget: opt.DefaultBudget}
	for _, r := range ordered {
		if r.Proved && r.MirsII > 0 {
			r.IIGap = r.MirsII - r.OptII
			r.MaxLiveGap = r.MirsMaxLive - r.OptMaxLive
		}
		f.Rows = append(f.Rows, *r)
	}
	f.Sort()
	f.Recompute()
	return f
}
