// Package regpress analyses the register pressure of a modulo schedule:
// per-kernel-cycle live-value counts and their maximum, MaxLive.
//
// This is the analysis the MIRS algorithm's integrated spilling is driven
// by: whenever MaxLive on some cluster exceeds that cluster's register
// file, the scheduler must spill (insert store/load pairs) or increase
// the initiation interval. This package only *measures*; acting on the
// measurement belongs to the scheduler backends.
//
// The live ranges themselves come from pkg/life, the single authoritative
// lifetime enumeration (definition to last consumer, loop-carried reads
// included, bus-delivered copies and live-ins charged to consuming
// clusters). This package folds those flat intervals into the II kernel
// cycles: an interval covers kernel cycle c once per flat cycle congruent
// to c (mod II) it spans — exactly the number of simultaneously live
// copies the steady state sustains.
package regpress

import (
	"fmt"
	"slices"

	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// Lifetime is the live range of one value; see life.Lifetime. The alias
// keeps pressure results self-contained for callers that only deal with
// this package.
type Lifetime = life.Lifetime

// Result is the pressure profile of one schedule.
type Result struct {
	// Machine is the machine the schedule was analysed against; Fits
	// compares pressure to its register files.
	Machine *machine.Machine
	// II is the schedule's initiation interval; all per-cycle slices
	// have length II.
	II int
	// Lifetimes lists every analysed live range, as enumerated by
	// life.Lifetimes: definitions in instruction-ID order (local range
	// first, bus-delivered copies after), then live-ins.
	Lifetimes []Lifetime
	// PerCycle is the machine-wide live-value count at each kernel
	// cycle 0..II-1.
	PerCycle []int
	// PerCluster[c] is the live-value count per kernel cycle charged to
	// cluster c's register file.
	PerCluster [][]int
	// MaxLive is the maximum of PerCycle.
	MaxLive int
	// MaxLivePerCluster[c] is the maximum of PerCluster[c].
	MaxLivePerCluster []int
}

// Fits reports whether the analysed pressure fits the register files of
// the machine the schedule was computed for: every cluster's MaxLive is
// at most the cluster's register-file size. A schedule that does not fit
// needs spilling (or a larger II) before register allocation can succeed.
func (r *Result) Fits() bool {
	for ci := range r.MaxLivePerCluster {
		if r.MaxLivePerCluster[ci] > r.Machine.Clusters[ci].RegFile.Size {
			return false
		}
	}
	return true
}

// Analyze computes the pressure profile of a valid schedule. It returns
// an error if the schedule fails Validate, so results are only ever
// reported for schedules the contract holds for.
func Analyze(s *sched.Schedule) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("regpress: invalid schedule: %w", err)
	}
	r := &Result{
		Machine:           s.Machine,
		II:                s.II,
		PerCycle:          make([]int, s.II),
		PerCluster:        make([][]int, s.Machine.NumClusters()),
		MaxLivePerCluster: make([]int, s.Machine.NumClusters()),
	}
	for ci := range r.PerCluster {
		r.PerCluster[ci] = make([]int, s.II)
	}
	r.Lifetimes = life.Lifetimes(s.LifeView())
	for _, lt := range r.Lifetimes {
		fold(r.PerCluster[lt.Cluster], lt.Start, lt.End, 1)
	}
	for ci, row := range r.PerCluster {
		for c, n := range row {
			r.PerCycle[c] += n
		}
		r.MaxLivePerCluster[ci] = slices.Max(row)
	}
	r.MaxLive = slices.Max(r.PerCycle)
	return r, nil
}

// fold adds delta to row at every kernel cycle the flat interval [start,
// end] (inclusive, start >= 0) covers, once per flat cycle congruent to
// it modulo II = len(row). Every full II-cycle wrap covers each kernel
// cycle exactly once, so the fold costs O(min(length, II)). It is the
// only interval-to-kernel fold: Analyze and Tracker both count through
// it.
func fold(row []int, start, end, delta int) {
	if end < start {
		return
	}
	ii := len(row)
	length := end - start + 1
	if full := length / ii; full > 0 {
		for c := range row {
			row[c] += full * delta
		}
	}
	for f := start + (length/ii)*ii; f <= end; f++ {
		row[f%ii] += delta
	}
}
