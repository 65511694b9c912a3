// Package buf sizes the reusable tables of the scheduling hot paths.
// A table sized by instruction count, register count or II is resized
// every time a spill adds instructions or an II search moves to the next
// candidate; exact-size reallocation would reallocate it on every such
// step, so these helpers grow capacity geometrically instead. The first
// size of every table of a request comes from a counted arena instead:
// one Slab per element type, allocated once and carved.
package buf

// Grow returns s with length n, keeping its first min(len(s), n)
// elements. It reuses s's storage when the capacity allows; otherwise it
// allocates at least twice the old capacity, so a table that grows a
// few elements at a time reallocates only a logarithmic number of
// times. A first allocation is exact. Elements past len(s) are
// unspecified: callers overwrite or clear them.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	t := make([]T, n, max(n, 2*cap(s)))
	copy(t, s)
	return t
}

// Zeroed is Grow with every element of the result zeroed.
func Zeroed[T any](s []T, n int) []T {
	s = Grow(s[:0], n)
	clear(s)
	return s
}

// Slab is one element type's share of a counted arena: the backing
// array every table of that type is carved from. The code that carves
// the tables runs twice in the same order. Before Alloc each Take only
// adds its length to the count and returns nil; Alloc then makes the
// array in one allocation, and from then on each Take cuts its table
// off the front as a capacity-capped slice, so a table appended past
// its length moves out instead of overwriting its neighbour.
type Slab[T any] struct {
	n     int
	free  []T
	ready bool
}

// Take counts (before Alloc) or carves (after it) a table of k
// elements; a table of zero elements is nil.
func (s *Slab[T]) Take(k int) []T {
	if !s.ready {
		s.n += k
		return nil
	}
	return Carve(&s.free, k)
}

// Alloc makes the counted array; a slab that counted nothing allocates
// nothing.
func (s *Slab[T]) Alloc() {
	if s.n > 0 {
		s.free = make([]T, s.n)
	}
	s.ready = true
}

// Carve cuts the first k elements off *s as a capacity-capped slice,
// nil when k is 0.
func Carve[T any](s *[]T, k int) []T {
	if k == 0 {
		return nil
	}
	t := (*s)[:k:k]
	*s = (*s)[k:]
	return t
}
