//go:build !race

package opt_test

// The grid-pass counts TestOptAllocs bounds, measured without the race
// detector.
const optAllocsMeasured, optKiBMeasured = 2510, 577
