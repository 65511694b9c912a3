// Package buf sizes the reusable tables of the scheduling hot paths.
// A table sized by instruction count, register count or II is resized
// every time a spill adds instructions or an II search moves to the next
// candidate; exact-size reallocation would reallocate it on every such
// step, so these helpers grow capacity geometrically instead.
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
