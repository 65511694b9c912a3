package regpress

import (
	"fmt"
	"slices"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
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
	ii     int
	sizes  []int
	counts [][]int // cluster -> kernel cycle -> live values
}

// NewTracker returns an empty pressure account for machine m at the given
// II.
func NewTracker(m *machine.Machine, ii int) (*Tracker, error) {
	if ii < 1 {
		return nil, fmt.Errorf("regpress: tracker with II %d < 1", ii)
	}
	t := &Tracker{ii: ii, sizes: make([]int, m.NumClusters()), counts: make([][]int, m.NumClusters())}
	for ci := range m.Clusters {
		t.sizes[ci] = m.Clusters[ci].RegFile.Size
		t.counts[ci] = make([]int, ii)
	}
	return t, nil
}

// Reset zeroes the account and retargets it to a (possibly different)
// II, reusing the per-cluster count rows, which grow with amortised
// capacity. Schedulers call it once per candidate II so the incremental
// pressure path allocates next to nothing across an II search.
func (t *Tracker) Reset(ii int) {
	if ii < 1 {
		panic(fmt.Sprintf("regpress: tracker reset to II %d < 1", ii))
	}
	t.ii = ii
	for ci := range t.counts {
		t.counts[ci] = buf.Zeroed(t.counts[ci], ii)
	}
}

// II returns the tracker's initiation interval.
func (t *Tracker) II() int { return t.ii }

// AddLifetime charges one enumerated live range (pkg/life) to its
// cluster.
func (t *Tracker) AddLifetime(lt life.Lifetime) { fold(t.counts[lt.Cluster], lt.Start, lt.End, 1) }

// RemoveLifetime undoes a previous AddLifetime of the same range.
func (t *Tracker) RemoveLifetime(lt life.Lifetime) { fold(t.counts[lt.Cluster], lt.Start, lt.End, -1) }

// PressureAt returns the live count charged to cluster at kernel cycle
// (cycle mod II).
func (t *Tracker) PressureAt(cluster, cycle int) int {
	return t.counts[cluster][((cycle%t.ii)+t.ii)%t.ii]
}

// MaxLive returns the cluster's current maximum per-cycle live count.
func (t *Tracker) MaxLive(cluster int) int {
	return slices.Max(t.counts[cluster])
}

// Excess returns how far the cluster currently overshoots its register
// file (0 when it fits).
func (t *Tracker) Excess(cluster int) int {
	if over := t.MaxLive(cluster) - t.sizes[cluster]; over > 0 {
		return over
	}
	return 0
}
