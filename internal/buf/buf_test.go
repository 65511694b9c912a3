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

// TestSlabCountsThenCarves: before Alloc Take only counts; after it the
// same takes carve capacity-capped, disjoint tables from one array.
func TestSlabCountsThenCarves(t *testing.T) {
	var s Slab[int]
	take := func() (a, b, c []int) { return s.Take(3), s.Take(0), s.Take(2) }
	if a, b, c := take(); a != nil || b != nil || c != nil {
		t.Fatal("Take returned a table before Alloc")
	}
	allocs := testing.AllocsPerRun(1, func() {
		s = Slab[int]{n: 5}
		s.Alloc()
	})
	if allocs != 1 {
		t.Errorf("Alloc made %v allocations, want 1", allocs)
	}
	s = Slab[int]{}
	take()
	s.Alloc()
	a, b, c := take()
	if len(a) != 3 || cap(a) != 3 || b != nil || len(c) != 2 || cap(c) != 2 {
		t.Fatalf("carved len/cap %d/%d, %v, %d/%d; want 3/3, nil, 2/2", len(a), cap(a), b, len(c), cap(c))
	}
	a = append(a, 9)
	if c[0] != 0 {
		t.Error("appending past a carved table overwrote the next one")
	}
	var empty Slab[int]
	empty.Take(0)
	if allocs := testing.AllocsPerRun(1, empty.Alloc); allocs != 0 {
		t.Errorf("an empty slab's Alloc made %v allocations", allocs)
	}
}
