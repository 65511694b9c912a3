package sched

import "github.com/paper-repo-growth/mirs/internal/buf"

// Arena is the storage of one scheduling request's tables: one array
// per element type, so a backend readies its reservation table, window
// cache, placement buffers and bookkeeping in a fixed handful of
// allocations whatever the loop's size. The code that carves the tables
// runs twice in the same order: on a new Arena every take only counts,
// Alloc makes the arrays, and the same takes then carve capacity-capped
// tables from them (see buf.Slab). A table that later outgrows its
// carving — a spill adds instructions, a larger II widens a row — grows
// through buf.Grow like any other slice and leaves the arena.
type Arena struct {
	i32   buf.Slab[int32]
	ints  buf.Slab[int]
	u64   buf.Slab[uint64]
	bools buf.Slab[bool]
	plc   buf.Slab[Placement]
	trs   buf.Slab[Transfer]
	bus   buf.Slab[busEntry]
	win   buf.Slab[window]
}

// Alloc makes the counted arrays, one allocation per element type the
// counting pass used.
func (a *Arena) Alloc() {
	a.i32.Alloc()
	a.ints.Alloc()
	a.u64.Alloc()
	a.bools.Alloc()
	a.plc.Alloc()
	a.trs.Alloc()
	a.bus.Alloc()
	a.win.Alloc()
}

// Int32s takes an []int32 table of n elements.
func (a *Arena) Int32s(n int) []int32 { return a.i32.Take(n) }

// Ints takes an []int table of n elements.
func (a *Arena) Ints(n int) []int { return a.ints.Take(n) }

// Bools takes a []bool table of n elements.
func (a *Arena) Bools(n int) []bool { return a.bools.Take(n) }

// Placements takes a []Placement table of n elements.
func (a *Arena) Placements(n int) []Placement { return a.plc.Take(n) }

// Transfers takes a []Transfer table of n elements.
func (a *Arena) Transfers(n int) []Transfer { return a.trs.Take(n) }
