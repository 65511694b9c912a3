// gap.go is the optimality-gap artifact: per-loop × machine rows
// comparing the exact backend (pkg/opt) against the paper's MIRS on a
// seeded small-loop corpus, plus the aggregate summary `msched compare`
// prints and gates against GAP_baseline.json. Unlike the
// trajectory rows in report.go — aggregates over whole corpora — gap
// rows are per-loop, because a proof of optimality is a per-loop fact:
// the gap columns are only meaningful where opt completed its UNSAT
// certificates below the final II.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

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
	// from optimum. IIGap is gated (it must not grow vs baseline);
	// MaxLiveGap is informational and may be negative — opt ignores
	// pressure, so MIRS can legitimately beat it on MaxLive.
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
	// MirsFailed counts rows MIRS could not compile — each is oracle
	// material (see internal/oracle).
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
// filling Rows; ReadGapFile trusts the stored summary (it is part of
// the byte-diffed artifact).
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
func (f *GapFile) Marshal() ([]byte, error) {
	f.Sort()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: marshal gap: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteFile emits the canonical JSON rendering to path.
func (f *GapFile) WriteFile(path string) error {
	data, err := f.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("report: write %s: %w", path, err)
	}
	return nil
}

// ReadGapFile parses an artifact written by WriteFile (or by hand).
func ReadGapFile(path string) (*GapFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: read %s: %w", path, err)
	}
	var f GapFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", path, err)
	}
	f.Sort()
	return &f, nil
}

// keyDiff renders a key-set difference for gate messages: the count
// plus the first limit keys, so a population failure names the rows
// instead of leaving the reader to diff two JSON files by hand.
func keyDiff(label string, keys []string, limit int) string {
	sort.Strings(keys)
	shown := keys
	suffix := ""
	if len(shown) > limit {
		shown = shown[:limit]
		suffix = ", ..."
	}
	return fmt.Sprintf("%d %s row(s): %s%s", len(keys), label, strings.Join(shown, ", "), suffix)
}

// CompareGap gates the current gap table against the baseline. The
// structural checks come first — same corpus, same budget, same row
// population (a mismatch names the first 5 missing/extra row keys) —
// because none of the per-row checks mean anything across different
// populations. Per matched row, three things may never happen without a
// deliberate baseline refresh:
//
//   - a proof is lost (baseline proved, current did not): the solver or
//     encoder got slower or weaker;
//   - a proved optimal II changed: optimality is a property of (loop,
//     machine), so a changed proved value means the encoding's
//     semantics changed — a correctness alarm, not a quality drift;
//   - the II gap grew on a proved row: MIRS regressed relative to the
//     measured optimum.
//
// New proofs, shrunk gaps and MaxLive movement pass silently (MaxLive
// is informational; opt does not optimise it). Violations come back as
// human-readable strings, sorted, empty meaning the gate is clean.
func CompareGap(baseline, current *GapFile) []string {
	var v []string
	if baseline.Corpus != current.Corpus {
		v = append(v, fmt.Sprintf("corpus changed: %q vs baseline %q — gap tables not comparable, refresh the baseline", current.Corpus, baseline.Corpus))
	}
	if baseline.Budget != current.Budget {
		v = append(v, fmt.Sprintf("conflict budget changed: %d vs baseline %d — proofs not comparable, refresh the baseline", current.Budget, baseline.Budget))
	}
	if len(v) > 0 {
		return v
	}
	cur := map[string]GapRow{}
	for _, r := range current.Rows {
		cur[r.Key()] = r
	}
	base := map[string]GapRow{}
	var missing []string
	for _, b := range baseline.Rows {
		base[b.Key()] = b
		if _, ok := cur[b.Key()]; !ok {
			missing = append(missing, b.Key())
		}
	}
	var extra []string
	for _, c := range current.Rows {
		if _, ok := base[c.Key()]; !ok {
			extra = append(extra, c.Key())
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		msg := "population changed vs baseline"
		if len(missing) > 0 {
			msg += " — missing " + keyDiff("baseline", missing, 5)
		}
		if len(extra) > 0 {
			msg += " — extra " + keyDiff("unbaselined", extra, 5)
		}
		return []string{msg + " (refresh with -update-baseline)"}
	}
	for _, b := range baseline.Rows {
		c := cur[b.Key()]
		if !b.Proved {
			continue
		}
		switch {
		case !c.Proved:
			v = append(v, fmt.Sprintf("%s: optimality proof lost (baseline proved II=%d, current %s)", b.Key(), b.OptII, gapStatus(c)))
		case c.OptII != b.OptII:
			v = append(v, fmt.Sprintf("%s: proved optimal II changed %d -> %d — encoding semantics changed, investigate before refreshing", b.Key(), b.OptII, c.OptII))
		case b.MirsII > 0 && c.MirsII > 0 && c.IIGap > b.IIGap:
			v = append(v, fmt.Sprintf("%s: II gap grew %d -> %d (mirs II %d vs proved optimum %d)", b.Key(), b.IIGap, c.IIGap, c.MirsII, c.OptII))
		}
	}
	sort.Strings(v)
	return v
}

// gapStatus names a row's opt-side outcome for gate messages.
func gapStatus(r GapRow) string {
	switch {
	case r.Proved:
		return fmt.Sprintf("proved II=%d", r.OptII)
	case r.OptII > 0:
		return fmt.Sprintf("feasible II=%d, proof incomplete", r.OptII)
	case r.OptErr != "":
		return "opt failed: " + r.OptErr
	default:
		return "opt found nothing"
	}
}
