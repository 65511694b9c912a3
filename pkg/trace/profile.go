package trace

import (
	"fmt"
	"io"
	"sort"
)

// This file folds a recorded event stream into the aggregated search
// profile behind `msched trace`: per-candidate-II event counts, per-op
// search effort, and the spill attribution of the returned attempt — the
// numbers that answer "why did this loop land at II=k with s spills".
// Everything is deterministic in the event stream: rows are sorted,
// never map-ordered.

// Attempt aggregates one candidate-II attempt.
type Attempt struct {
	// II is the candidate initiation interval.
	II int `json:"ii"`
	// Completed reports whether a full placement was reached at some
	// point of the attempt; Returned whether the attempt returned a
	// schedule, and Excess that schedule's residual register overflow
	// (0 = it fits).
	Completed bool `json:"completed"`
	Returned  bool `json:"returned"`
	Excess    int  `json:"excess"`
	// Verdict is the event's verdict label: the exact backend's solver
	// verdict on the candidate (VerdictSat, VerdictUnsat or
	// VerdictUnknown) with the Conflicts the solver spent on it, or
	// VerdictDoomed for a MIRS attempt whose spill code raised its
	// loop's resource bound to Bound, above the II. Empty otherwise.
	Verdict   string `json:"verdict,omitempty"`
	Conflicts int    `json:"conflicts,omitempty"`
	Bound     int    `json:"bound,omitempty"`
	// Per-kind event counts inside the attempt.
	Places       int `json:"places"`
	WindowMisses int `json:"window_misses"`
	Forces       int `json:"forces"`
	Ejections    int `json:"ejections"`
	Victims      int `json:"victims"`
	SpillStores  int `json:"spill_stores"`
	SpillReloads int `json:"spill_reloads"`
	CacheHits    int `json:"cache_hits"`
	CacheMisses  int `json:"cache_misses"`
	// Events is the attempt's total event count — the events-per-II
	// histogram row.
	Events int `json:"events"`
}

// OpStats is one instruction's search effort, aggregated across every
// attempt. Op is the instruction ID *at emission time*: spill
// materialisation renumbers instructions mid-attempt, so ids are exact
// within an attempt up to its first spill and indicative after (see
// docs/PAPER_MAP.md).
type OpStats struct {
	Op           int    `json:"op"`
	Label        string `json:"label,omitempty"`
	Places       int    `json:"places"`
	Ejections    int    `json:"ejections"`
	Forces       int    `json:"forces"`
	WindowMisses int    `json:"window_misses"`
}

// VictimStat is one spilled value of the attempt whose schedule the
// search returned — its spill attribution. Op is -1 for a live-in
// value.
type VictimStat struct {
	Op         int    `json:"op"`
	Label      string `json:"label,omitempty"`
	Reg        int    `json:"reg"`
	Selections int    `json:"selections"`
	Stores     int    `json:"stores"`
	Reloads    int    `json:"reloads"`
	// Length is the lifetime length that made the victim win (paper
	// policy: longest lifetime, fewest uses).
	Length int `json:"length"`
}

// Profile is the aggregated search profile of one traced compilation.
type Profile struct {
	// Loop, Machine and Backend identify the compilation.
	Loop    string `json:"loop"`
	Machine string `json:"machine"`
	Backend string `json:"backend"`
	// MII is the lower bound the search started from (from the first
	// KindIIStart event); FinalII the II of the schedule the
	// compilation returned (Meta.II), which need not be the last
	// candidate attempted.
	MII     int `json:"mii"`
	FinalII int `json:"final_ii"`
	// MIIWhy is Meta.MIIWhy: why MII exceeds max(ResMII, RecMII).
	MIIWhy string `json:"mii_why,omitempty"`
	// Attempts is the per-candidate-II breakdown, in search order.
	Attempts []Attempt `json:"attempts"`
	// Ops is the per-instruction search effort, every attempt folded,
	// sorted by descending ejections then op ID. Ops with no ejection,
	// force or window miss are elided.
	Ops []OpStats `json:"ops,omitempty"`
	// Victims is the returned schedule's spill attribution (see final),
	// sorted by (op, reg).
	Victims []VictimStat `json:"victims,omitempty"`
	// Whole-search totals.
	TotalEvents    int `json:"total_events"`
	TotalEjections int `json:"total_ejections"`
	TotalForces    int `json:"total_forces"`
}

// BuildProfile folds an event stream into a Profile. The stream must
// come from one compilation (one Buffer).
func BuildProfile(meta Meta, events []Event) *Profile {
	p := &Profile{Loop: meta.Loop, Machine: meta.Machine, Backend: meta.Backend, FinalII: meta.II, MIIWhy: meta.MIIWhy}
	ops := map[int]*OpStats{}
	type vkey struct{ op, reg int }
	// victims is the current attempt's spill attribution; kept the
	// returned attempt's, once it has closed.
	victims, kept := map[vkey]*VictimStat{}, map[vkey]*VictimStat(nil)
	var cur *Attempt
	var lastVictim *VictimStat
	opStat := func(e *Event) *OpStats {
		s := ops[int(e.Op)]
		if s == nil {
			s = &OpStats{Op: int(e.Op)}
			ops[int(e.Op)] = s
		}
		if s.Label == "" {
			s.Label = e.Label
		}
		return s
	}
	for i := range events {
		e := &events[i]
		p.TotalEvents++
		if cur != nil {
			cur.Events++
		}
		switch e.Kind {
		case KindIIStart:
			p.Attempts = append(p.Attempts, Attempt{II: int(e.II), Events: 1})
			cur = &p.Attempts[len(p.Attempts)-1]
			if len(p.Attempts) == 1 && e.Arg > 0 {
				p.MII = int(e.Arg)
			}
			// A new attempt restarts from the unspilled loop, so its
			// victim set supersedes the previous attempt's.
			victims = map[vkey]*VictimStat{}
			lastVictim = nil
		case KindIIEnd:
			if cur != nil {
				cur.Completed, cur.Returned, cur.Verdict = e.Arg == 1, e.Returned, e.Label
				switch e.Label {
				case "":
					cur.Excess = int(e.Aux)
				case VerdictDoomed:
					cur.Bound = int(e.Aux)
				default:
					cur.Conflicts = int(e.Aux)
				}
				if p.returned(cur) {
					kept = victims
				}
			}
		case KindPlace:
			if cur != nil {
				cur.Places++
			}
			opStat(e).Places++
		case KindWindowMiss:
			if cur != nil {
				cur.WindowMisses++
			}
			opStat(e).WindowMisses++
		case KindForce:
			if cur != nil {
				cur.Forces++
			}
			p.TotalForces++
			opStat(e).Forces++
		case KindEject:
			if cur != nil {
				cur.Ejections++
			}
			p.TotalEjections++
			opStat(e).Ejections++
		case KindVictim:
			if cur != nil {
				cur.Victims++
			}
			k := vkey{int(e.Op), int(e.Reg)}
			v := victims[k]
			if v == nil {
				v = &VictimStat{Op: k.op, Reg: k.reg, Label: e.Label}
				victims[k] = v
			}
			v.Selections++
			if l := int(e.Arg); l > v.Length {
				v.Length = l
			}
			lastVictim = v
		case KindSpill:
			if cur != nil {
				cur.SpillStores += int(e.Arg)
				cur.SpillReloads += int(e.Aux)
			}
			if lastVictim != nil {
				lastVictim.Stores += int(e.Arg)
				lastVictim.Reloads += int(e.Aux)
			}
		case KindCacheHit:
			if cur != nil {
				cur.CacheHits += int(e.Arg)
			}
		case KindCacheMiss:
			if cur != nil {
				cur.CacheMisses += int(e.Arg)
			}
		}
	}
	for _, s := range ops {
		if s.Ejections == 0 && s.Forces == 0 && s.WindowMisses == 0 {
			continue
		}
		p.Ops = append(p.Ops, *s)
	}
	sort.Slice(p.Ops, func(i, j int) bool {
		a, b := &p.Ops[i], &p.Ops[j]
		if a.Ejections != b.Ejections {
			return a.Ejections > b.Ejections
		}
		return a.Op < b.Op
	})
	for _, v := range kept {
		p.Victims = append(p.Victims, *v)
	}
	sort.Slice(p.Victims, func(i, j int) bool {
		a, b := &p.Victims[i], &p.Victims[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Reg < b.Reg
	})
	return p
}

// returned reports whether a is the attempt whose schedule the
// compilation returned: it returned one at the returned II.
func (p *Profile) returned(a *Attempt) bool { return a.Returned && a.II == p.FinalII }

// final returns the attempt whose schedule the compilation returned, or
// nil when there is none.
func (p *Profile) final() *Attempt {
	for i := range p.Attempts {
		if p.returned(&p.Attempts[i]) {
			return &p.Attempts[i]
		}
	}
	return nil
}

// WriteReport renders the human-readable "why this II" explanation:
// the final II against MII (and why MII exceeds max(ResMII, RecMII),
// when it does), the candidate-II path with what each
// attempt spent (events, ejections, spills; the exact backend's verdict
// and conflicts), the returned attempt's spill attribution per op, and the
// ops the search fought hardest over.
func (p *Profile) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "why II=%d for loop %s on %s (backend %s)\n", p.FinalII, p.Loop, p.Machine, p.Backend)
	fmt.Fprintf(w, "  MII=%d, final II=%d (+%d), %d candidate II(s), %d events\n",
		p.MII, p.FinalII, p.FinalII-p.MII, len(p.Attempts), p.TotalEvents)
	if p.MIIWhy != "" {
		fmt.Fprintf(w, "  %s\n", p.MIIWhy)
	}
	for i := range p.Attempts {
		a := &p.Attempts[i]
		verdict := "gave up"
		switch {
		case a.Verdict == VerdictSat:
			verdict = fmt.Sprintf("fits (%d conflicts)", a.Conflicts)
		case a.Verdict == VerdictUnsat:
			verdict = fmt.Sprintf("infeasible (proof, %d conflicts)", a.Conflicts)
		case a.Verdict == VerdictUnknown:
			verdict = fmt.Sprintf("budget exhausted (%d conflicts)", a.Conflicts)
		case a.Verdict == VerdictDoomed:
			verdict = fmt.Sprintf("doomed: ResMII %d > II", a.Bound)
		case p.returned(a) && a.Excess == 0:
			verdict = "fits"
		case p.returned(a):
			verdict = fmt.Sprintf("returned, %d register(s) over", a.Excess)
		case a.Returned:
			verdict = fmt.Sprintf("complete but %d register(s) over", a.Excess)
		case a.Completed:
			verdict = "complete, then gave up"
		}
		fmt.Fprintf(w, "  II=%-3d %-34s %5d events: %d placed, %d window misses, %d forced, %d ejected",
			a.II, verdict, a.Events, a.Places, a.WindowMisses, a.Forces, a.Ejections)
		if a.Victims > 0 {
			fmt.Fprintf(w, ", %d spill(s) (%d st/%d ld)", a.Victims, a.SpillStores, a.SpillReloads)
		}
		if hits, misses := a.CacheHits, a.CacheMisses; hits+misses > 0 {
			fmt.Fprintf(w, ", window cache %d/%d hit", hits, hits+misses)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  ejections: %d across the search", p.TotalEjections)
	if f := p.final(); f != nil {
		fmt.Fprintf(w, ", %d in the returned attempt", f.Ejections)
	}
	fmt.Fprintln(w)
	if len(p.Victims) > 0 {
		fmt.Fprintf(w, "  spill attribution (returned schedule):\n")
		for i := range p.Victims {
			v := &p.Victims[i]
			who := fmt.Sprintf("op %d", v.Op)
			if v.Op < 0 {
				who = "live-in"
			}
			if v.Label != "" && v.Label != who {
				who += " (" + v.Label + ")"
			}
			fmt.Fprintf(w, "    %s v%d: %d store(s), %d reload(s), lifetime %d\n",
				who, v.Reg, v.Stores, v.Reloads, v.Length)
		}
	} else {
		fmt.Fprintf(w, "  no spills in the returned schedule\n")
	}
	if len(p.Ops) > 0 {
		fmt.Fprintf(w, "  contested ops (all attempts):\n")
		for i := range p.Ops {
			if i == 5 {
				fmt.Fprintf(w, "    ... %d more\n", len(p.Ops)-i)
				break
			}
			s := &p.Ops[i]
			who := fmt.Sprintf("op %d", s.Op)
			if s.Label != "" {
				who += " (" + s.Label + ")"
			}
			fmt.Fprintf(w, "    %s: %d ejection(s), %d forced, %d window miss(es)\n",
				who, s.Ejections, s.Forces, s.WindowMisses)
		}
	}
}
