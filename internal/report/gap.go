// gap.go is the optimality-gap artifact: per-loop × machine rows
// comparing the exact backend (pkg/opt) against the paper's MIRS on a
// seeded small-loop corpus, plus the aggregate summary `msched compare`
// prints; the gate holds the whole file byte-identical to
// GAP_baseline.json. Unlike the trajectory rows in report.go —
// aggregates over whole corpora — gap rows are per-loop, because a proof of optimality is a per-loop fact:
// the gap columns are only meaningful where opt completed its UNSAT
// certificates below the final II.
package report

import "sort"

// GapRow is one loop × machine line of the optimality-gap table. The
// opt-side fields come straight from the exact backend's schedule stats
// (opt_proved, opt_unsat_below); the gap columns are filled only when
// Proved is true and MIRS compiled the same loop — everywhere else the
// distance to optimum is simply unknown and the row records why.
type GapRow struct {
	// Loop and Machine key the row; Ops is the loop body size.
	Loop    string `json:"loop"`
	Machine string `json:"machine"`
	Ops     int    `json:"ops"`
	// MII is the shared lower bound max(ResMII, RecMII).
	MII int `json:"mii"`
	// OptII is the exact backend's II (0 when opt found nothing within
	// budget); Proved marks a complete optimality proof — every candidate
	// below OptII answered UNSAT. UnsatBelow counts those certificates:
	// Proved with OptII > MII means the MII itself was proven infeasible
	// (the UNSAT-at-MII certificate), not merely unreached.
	OptII      int  `json:"opt_ii,omitempty"`
	Proved     bool `json:"proved,omitempty"`
	UnsatBelow int  `json:"unsat_below,omitempty"`
	// OptMaxLive is opt's register pressure measured after the fact by
	// regpress — informational, since opt does not optimise pressure.
	OptMaxLive int `json:"opt_max_live,omitempty"`
	// OptErr records an opt-side failure (no schedule within budget up to
	// the search horizon, or a timeout).
	OptErr string `json:"opt_err,omitempty"`
	// MIRS side: II/MaxLive on success, the error otherwise.
	MirsII      int    `json:"mirs_ii,omitempty"`
	MirsMaxLive int    `json:"mirs_max_live,omitempty"`
	MirsErr     string `json:"mirs_err,omitempty"`
	// IIGap = MirsII − OptII and MaxLiveGap = MirsMaxLive − OptMaxLive,
	// filled only when Proved and MIRS compiled: the measured distance
	// from optimum. MaxLiveGap may be negative — opt ignores pressure,
	// so MIRS can legitimately beat it on MaxLive.
	IIGap      int `json:"ii_gap,omitempty"`
	MaxLiveGap int `json:"max_live_gap,omitempty"`
}

// Key is the row's sort/merge identity.
func (r GapRow) Key() string { return r.Loop + "|" + r.Machine }

// GapSummary is the aggregate `msched compare` prints and the
// acceptance bar reads: how much of the population is proved, and the
// total measured gap over the rows where a gap is defined.
type GapSummary struct {
	// Rows is the population (loops × machines).
	Rows int `json:"rows"`
	// Proved counts rows with a complete optimality proof;
	// ProvedAboveMII the subset where the proof includes an UNSAT-at-MII
	// certificate (optimum strictly above the lower bound). Feasible
	// counts rows where opt found a schedule but the proof has budget
	// holes; OptFailed rows where opt found nothing at all.
	Proved         int `json:"proved"`
	ProvedAboveMII int `json:"proved_above_mii"`
	Feasible       int `json:"feasible"`
	OptFailed      int `json:"opt_failed"`
	// MirsFailed counts rows MIRS could not compile. `msched compare`
	// fails the gate on any, so a gated table always reads zero.
	MirsFailed int `json:"mirs_failed"`
	// GapRows is the number of rows with a defined gap (proved + MIRS
	// compiled); SumIIGap/MaxIIGap/SumMaxLiveGap aggregate over them.
	GapRows       int `json:"gap_rows"`
	SumIIGap      int `json:"sum_ii_gap"`
	MaxIIGap      int `json:"max_ii_gap"`
	SumMaxLiveGap int `json:"sum_max_live_gap"`
}

// GapFile is the artifact root: the corpus identity, the conflict
// budget the proofs were run under (rows from different budgets are not
// comparable — a bigger budget can only prove more), the rows and their
// summary.
type GapFile struct {
	Corpus  string     `json:"corpus"`
	Budget  int64      `json:"budget"`
	Rows    []GapRow   `json:"rows"`
	Summary GapSummary `json:"summary"`
}

// Sort orders rows by (loop, machine) — the canonical emit order.
func (f *GapFile) Sort() {
	sort.Slice(f.Rows, func(i, j int) bool { return f.Rows[i].Key() < f.Rows[j].Key() })
}

// Recompute rebuilds Summary from the rows. Builders call it after
// filling Rows.
func (f *GapFile) Recompute() {
	s := GapSummary{Rows: len(f.Rows)}
	for _, r := range f.Rows {
		switch {
		case r.Proved:
			s.Proved++
			if r.OptII > r.MII {
				s.ProvedAboveMII++
			}
		case r.OptII > 0:
			s.Feasible++
		default:
			s.OptFailed++
		}
		if r.MirsErr != "" {
			s.MirsFailed++
		}
		if r.Proved && r.MirsII > 0 {
			s.GapRows++
			s.SumIIGap += r.IIGap
			if r.IIGap > s.MaxIIGap {
				s.MaxIIGap = r.IIGap
			}
			s.SumMaxLiveGap += r.MaxLiveGap
		}
	}
	f.Summary = s
}

// Marshal renders the file as indented JSON in canonical row order —
// the byte layout CI diffs across double runs.
func (f *GapFile) Marshal() ([]byte, error) { return marshal(f) }

// WriteFile emits the canonical JSON rendering to path.
func (f *GapFile) WriteFile(path string) error { return writeFile(path, f) }
