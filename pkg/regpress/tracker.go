package regpress

import (
	"fmt"
	"slices"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// Tracker is the incremental counterpart of Analyze: a per-cluster,
// per-kernel-cycle live-value account that a scheduler updates lifetime
// by lifetime as it places, ejects and spills operations. Each update is
// O(min(length, II)) and queries are O(II), cheap enough to sit inside a
// placement loop. Updates count through the same fold as Analyze, so a
// tracker holding exactly a schedule's life.Lifetimes holds Analyze's
// per-cluster rows: MIRS settles each complete placement on its tracker
// instead of re-analysing it.
type Tracker struct {
	m  *machine.Machine
	ii int
	// counts holds every cluster's row back to back: cluster ci's live
	// values at kernel cycle c are counts[ci*ii+c].
	counts []int
}

// NewTracker returns an empty pressure account for machine m at the given
// II.
func NewTracker(m *machine.Machine, ii int) (*Tracker, error) {
	if ii < 1 {
		return nil, fmt.Errorf("regpress: tracker with II %d < 1", ii)
	}
	t := &Tracker{m: m}
	t.Reset(ii)
	return t, nil
}

// Carve binds t to machine m and takes its counts from a, sized for II
// ii (>= 1). Reset readies the account for use.
func (t *Tracker) Carve(a *sched.Arena, m *machine.Machine, ii int) {
	*t = Tracker{m: m, counts: a.Ints(m.NumClusters() * ii)}
}

// Reset zeroes the account and retargets it to a (possibly different)
// II, reusing the count rows, which grow with amortised capacity.
// Schedulers call it once per candidate II so the incremental pressure
// path allocates next to nothing across an II search.
func (t *Tracker) Reset(ii int) {
	if ii < 1 {
		panic(fmt.Sprintf("regpress: tracker reset to II %d < 1", ii))
	}
	t.ii = ii
	t.counts = buf.Zeroed(t.counts, t.m.NumClusters()*ii)
}

// row returns cluster ci's per-kernel-cycle counts.
func (t *Tracker) row(ci int) []int { return t.counts[ci*t.ii : (ci+1)*t.ii] }

// II returns the tracker's initiation interval.
func (t *Tracker) II() int { return t.ii }

// AddLifetime charges one enumerated live range (pkg/life) to its
// cluster.
func (t *Tracker) AddLifetime(lt life.Lifetime) { fold(t.row(lt.Cluster), lt.Start, lt.End, 1) }

// RemoveLifetime undoes a previous AddLifetime of the same range.
func (t *Tracker) RemoveLifetime(lt life.Lifetime) { fold(t.row(lt.Cluster), lt.Start, lt.End, -1) }

// PressureAt returns the live count charged to cluster at kernel cycle
// (cycle mod II).
func (t *Tracker) PressureAt(cluster, cycle int) int {
	return t.counts[cluster*t.ii+((cycle%t.ii)+t.ii)%t.ii]
}

// MaxLive returns the cluster's current maximum per-cycle live count.
func (t *Tracker) MaxLive(cluster int) int {
	return slices.Max(t.row(cluster))
}

// Excess returns how far the cluster currently overshoots its register
// file (0 when it fits).
func (t *Tracker) Excess(cluster int) int {
	if over := t.MaxLive(cluster) - t.m.Clusters[cluster].RegFile.Size; over > 0 {
		return over
	}
	return 0
}
