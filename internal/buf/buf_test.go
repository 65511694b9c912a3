package buf

import (
	"slices"
	"testing"
)

// TestGrowKeepsPrefixAndAmortises: Grow keeps the elements it had,
// allocates exactly on the first call and at least doubles afterwards,
// and Zeroed clears what it returns.
func TestGrowKeepsPrefixAndAmortises(t *testing.T) {
	s := Grow([]int(nil), 4)
	if len(s) != 4 || cap(s) != 4 {
		t.Fatalf("first allocation: len %d cap %d, want 4 4", len(s), cap(s))
	}
	copy(s, []int{1, 2, 3, 4})
	s = Grow(s[:3], 5)
	if cap(s) != 8 || !slices.Equal(s[:3], []int{1, 2, 3}) {
		t.Fatalf("growth by one: %v cap %d, want prefix 1 2 3 and cap 8", s, cap(s))
	}
	reallocs := 0
	for n := 6; n <= 1000; n++ {
		if old := cap(s); cap(Grow(s, n)) != old {
			reallocs++
		}
		s = Grow(s, n)
	}
	if reallocs > 8 {
		t.Errorf("%d reallocations growing one element at a time to 1000", reallocs)
	}
	if z := Zeroed(s, 10); len(z) != 10 || slices.ContainsFunc(z, func(v int) bool { return v != 0 }) {
		t.Errorf("Zeroed(…, 10) = %v", z)
	}
}
