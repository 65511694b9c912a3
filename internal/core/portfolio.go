package core

import (
	"errors"

	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// portfolio runs heterogeneous scheduling strategies for one loop, one
// after another, and keeps the best result by a deterministic quality
// order. Every strategy runs to completion on a private Request copy
// with a private trace buffer, and the winner is a pure function of
// their results:
//
//  1. least residual register overflow (a schedule that fits beats any
//     that does not, per regpress.Analyze against the machine's files),
//  2. lowest II,
//  3. lowest peak MaxLive across clusters,
//  4. least spill traffic (spill_stores + spill_loads),
//  5. lowest strategy index.
//
// When every strategy fails, the error of the lowest-index strategy is
// returned. The winner is recorded in Schedule.Stats["portfolio_winner"]
// by index, so strategy order is part of the deterministic contract —
// reordering the strategies changes artifacts the way changing an option
// does.
type portfolio struct {
	strategies []sched.Scheduler
}

// Portfolio returns the stock strategy portfolio as a scheduler backend:
// the list baseline (wins only when it matches MIRS's II without spill
// traffic, which it does on easy loops at a fraction of the cost),
// default MIRS, MIRS with a doubled force budget (deeper ejection fights
// sometimes land a lower II), and MIRS preferring fewest-uses spill
// victims (less reload traffic under pressure). It is not part of
// Backends() — quality gates compare the individual backends — but
// `msched run -backends portfolio` compiles through it.
func Portfolio() sched.Scheduler {
	return &portfolio{strategies: []sched.Scheduler{
		sched.ListScheduler{},
		mirs.New(),
		mirs.New(mirs.WithMaxRetries(16)),
		mirs.New(mirs.WithVictimPolicy(mirs.VictimFewestUses)),
	}}
}

// Name returns "portfolio".
func (p *portfolio) Name() string { return "portfolio" }

// Schedule implements sched.Scheduler: run every strategy, keep the
// deterministic best. The winning schedule's By and Stats are the
// winning backend's, plus Stats["portfolio_winner"] = strategy index;
// the winner's trace events are replayed into the request's recorder so
// exports carry exactly one search narrative.
func (p *portfolio) Schedule(req *sched.Request) (*sched.Schedule, error) {
	if req == nil || req.Loop == nil || req.Machine == nil {
		return nil, errors.New("sched: request missing loop or machine")
	}
	win := -1
	var firstErr error
	var winKey quality
	var winSched *sched.Schedule
	var winBuf *trace.Buffer
	for i, strategy := range p.strategies {
		sreq := *req
		sreq.Recorder = nil
		var buf *trace.Buffer
		if req.Recorder != nil {
			buf = &trace.Buffer{}
			sreq.Recorder = buf
		}
		s, err := strategy.Schedule(&sreq)
		var k quality
		if err == nil {
			k, err = qualityOf(s)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if win == -1 || k.better(winKey) {
			win, winKey, winSched, winBuf = i, k, s, buf
		}
	}
	if win == -1 {
		return nil, firstErr
	}
	if winBuf != nil {
		for _, e := range winBuf.Events() {
			req.Recorder.Emit(e)
		}
	}
	winSched.AddStat("portfolio_winner", win)
	return winSched, nil
}

// quality is the deterministic comparison key of one strategy's result.
type quality struct {
	excess  int // summed register overflow vs the machine's files
	ii      int
	maxLive int // peak MaxLive across clusters
	spills  int // spill_stores + spill_loads
}

// better reports whether k beats o, lexicographically.
func (k quality) better(o quality) bool {
	if k.excess != o.excess {
		return k.excess < o.excess
	}
	if k.ii != o.ii {
		return k.ii < o.ii
	}
	if k.maxLive != o.maxLive {
		return k.maxLive < o.maxLive
	}
	return k.spills < o.spills
}

func qualityOf(s *sched.Schedule) (quality, error) {
	press, err := regpress.Analyze(s)
	if err != nil {
		return quality{}, err
	}
	k := quality{ii: s.II, spills: s.Stats["spill_stores"] + s.Stats["spill_loads"]}
	for ci, ml := range press.MaxLivePerCluster {
		if ml > k.maxLive {
			k.maxLive = ml
		}
		if over := ml - s.Machine.Clusters[ci].RegFile.Size; over > 0 {
			k.excess += over
		}
	}
	return k, nil
}
