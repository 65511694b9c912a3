package sched

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// MII is the minimum-initiation-interval lower bound of a loop on a
// machine. Rau's modulo scheduling framework and the MIRS paper take it
// as max(ResMII, RecMII): II can never go below the resource bound
// ResMII nor the recurrence bound RecMII. On a clustered machine it can
// be one higher (Lift): a recurrence with no slack at II = RecMII must
// keep its true dependences on one cluster, because a bus transfer adds
// latency the cycle cannot absorb, and when no cluster has the units to
// seat those operations at their fixed offsets, II = RecMII has no
// schedule (see ComputeMII).
type MII struct {
	// Res is the resource-constrained bound: over every set of the
	// operation classes the loop uses, ceil(#ops in the set / #units
	// serving any class in it), maximised (see ResMII).
	Res int
	// Rec is the recurrence-constrained bound: the smallest II for which
	// no dependence cycle demands more latency than Distance*II
	// provides, maximised over strongly connected components.
	Rec int
	// Lift is 1 when II = max(Res, Rec) = Rec is proved infeasible by a
	// recurrence no cluster can seat (Pinned), 0 otherwise.
	Lift int
	// MII is max(Res, Rec) + Lift, where every backend's search starts.
	MII int
	// CriticalSCC is the strongly connected component (instruction IDs,
	// ascending) that determines Rec; nil when the graph is acyclic.
	CriticalSCC []int
	// Pinned is the group behind a lift: the instructions (IDs,
	// ascending) that must share one cluster at fixed offsets at II =
	// Rec, and that no cluster seats. PinnedAt[i] is Pinned[i]'s issue
	// cycle mod Rec relative to Pinned[0]'s. Both are nil without a
	// lift.
	Pinned, PinnedAt []int
}

// ComputeMII returns the MII decomposition for graph g on machine m. It
// fails if the loop uses an operation class no functional unit supports,
// or, with ir.ErrIntraCycle, if the graph has an intra-iteration cycle
// (total distance 0), which no well-formed loop has.
//
// Beyond the paper's max(ResMII, RecMII), it lifts MII to RecMII + 1
// when it proves II = RecMII infeasible on a clustered machine
// (RecMII >= ResMII, BusLatency >= 1). At II = RecMII, with edge weights
// w(e) = latency - RecMII*distance, some cycles may weigh exactly 0; a
// larger II makes every cycle negative (each has distance >= 1), so
// RecMII is the only II to check and the lift is at most 1. Let pi be
// longest-path potentials (pi(to) - pi(from) >= w(e) on every edge). Any
// schedule t at this II satisfies t(to) - t(from) >= w(e), plus the bus
// latency on a true edge that crosses clusters. Around a zero-weight
// cycle both t's and pi's differences sum to 0 while each is at least
// w(e), so every edge of the cycle holds with equality: none of its true
// edges may cross clusters, and t - pi is constant along it. The edges
// where pi(to) - pi(from) = w(e) ("tight"), taken inside the strongly
// connected components of the tight subgraph ("rigid classes"), are
// exactly the edges of zero-weight cycles. So the operations joined by
// tight true edges inside a rigid class form a group that shares one
// cluster, and the group's operations with equal pi mod II issue in one
// kernel cycle, each needing a unit of its own. If for some group no
// cluster passes Hall's condition at every such residue, no schedule
// exists at RecMII; summed over the residues the same condition covers
// the group's II issue slots per unit as well.
func ComputeMII(g *ir.Graph, m *machine.Machine) (MII, error) {
	res, err := ResMII(g.Loop, m)
	if err != nil {
		return MII{}, err
	}
	return recurrences(g, m, res)
}

// Explain says why MII exceeds max(Res, Rec) for loop l on m, naming the
// pinned group and, per cluster, a kernel cycle of it the cluster cannot
// seat; "" without a lift.
func (x MII) Explain(l *ir.Loop, m *machine.Machine) string {
	if x.Lift == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "MII %d = RecMII %d + %d: ops %s must share a cluster at fixed offsets mod %d; no cluster seats them",
		x.MII, x.Rec, x.Lift, idSet(x.Pinned), x.Rec)
	why := make([]string, len(m.Clusters))
	var ops []int
	for ci := range m.Clusters {
		for off := 0; off < x.Rec && why[ci] == ""; off++ {
			ops = ops[:0]
			for i, v := range x.Pinned {
				if x.PinnedAt[i] == off {
					ops = append(ops, v)
				}
			}
			set, need, have := hallDeficit(l, m, ci, ops)
			if set == 0 {
				continue
			}
			var names []string
			var in []int
			for _, v := range ops {
				c := l.Instrs[v].Class
				if set>>m.ClassID(c)&1 != 0 {
					in = append(in, v)
					if !slices.Contains(names, string(c)) {
						names = append(names, string(c))
					}
				}
			}
			why[ci] = fmt.Sprintf("ops %s (%s) at offset %d need %d units and find %d",
				idSet(in), strings.Join(names, "/"), off, need, have)
		}
	}
	if slices.Equal(why[1:], why[:len(why)-1]) {
		fmt.Fprintf(&b, ": on each, %s", why[0])
		return b.String()
	}
	for ci, w := range why {
		sep := "; "
		if ci == 0 {
			sep = ": "
		}
		fmt.Fprintf(&b, "%s%s: %s", sep, m.Clusters[ci].Name, w)
	}
	return b.String()
}

// idSet renders instruction IDs as "{1 4 7}".
func idSet(ids []int) string {
	return "{" + strings.Trim(fmt.Sprint(ids), "[]") + "}"
}

// ResMII computes the resource-constrained lower bound of l on m: the
// least II at which every operation of the loop can have an issue slot
// of its own among the II × units slots of the units serving its class,
// dependences aside. By Hall's theorem that is the maximum, over every
// set of classes the loop uses, of ceil(ops in the set / units serving
// any class in the set) — the one-class sets give the per-class bound,
// and the larger ones catch a unit shared between classes (see
// ResTable). It fails if the loop uses a class no unit serves.
func ResMII(l *ir.Loop, m *machine.Machine) (int, error) {
	// A loop uses a handful of classes, so the table fits on the stack.
	var ops, units [1<<maxHallClasses - 1]int
	t := ResTable{ops: ops[:0], units: units[:0]}
	if err := t.Init(l, m, ""); err != nil {
		return 0, err
	}
	return t.Bound(), nil
}

// maxHallClasses is the most operation classes whose every subset a
// ResTable tracks (2^8 - 1 = 255 sets). A loop with more classes is
// bounded per class and as a whole, which is sound but may be loose;
// every canned machine has four classes.
const maxHallClasses = 8

// ResTable is the resource bound of a loop as a table a spill can
// update: the loop's operation classes, as a set of the machine's class
// IDs, and per set of them the loop's operations in the set and the
// machine's units serving any class in it. Tracked class i is the i-th
// lowest ID in the set. With k <= maxHallClasses classes set s holds
// the classes whose bits are set in s+1, so there are 2^k - 1 sets; a
// loop with more classes tracks every class of the machine, in sets
// 0..k-1 one class each and in set k all of them. Either way the last
// set holds every tracked class. The units are fixed by Init; the
// operation counts follow Count and Add, so a scheduler that splices
// spill code into its loop keeps the bound of the loop it is scheduling
// by adding the spill code's operations.
type ResTable struct {
	m     *machine.Machine
	track uint64 // tracked class IDs, bit k for the machine's class k
	all   bool   // the loop has more than maxHallClasses classes
	ops   []int
	units []int
}

// Init sets the table up for loop l on machine m: the classes l uses,
// and extra too when some unit of m serves it (a class l does not use
// yet but may, such as the memory class of spill code; "" for none),
// the units serving each set, and l's operation counts. The count
// tables keep their storage when it is large enough. Init fails if l
// uses a class no unit of m serves, or with machine.ErrNotBuilt.
func (t *ResTable) Init(l *ir.Loop, m *machine.Machine, extra machine.OpClass) error {
	if err := m.CheckBuilt(); err != nil {
		return err
	}
	t.collect(l, m, extra)
	n := t.sets()
	if cap(t.ops) < n || cap(t.units) < n {
		t.ops, t.units = make([]int, n), make([]int, n)
	}
	// Re-slicing in place keeps a caller's stack storage on the stack.
	t.ops, t.units = t.ops[:n], t.units[:n]
	clear(t.units)
	if t.all {
		for ci := range m.Clusters {
			for k := 0; k < n-1; k++ {
				t.units[k] += bits.OnesCount64(m.UnitMask(ci, k))
			}
		}
		t.units[n-1] = m.NumUnits() // every unit serves some class
	} else {
		var ids [maxHallClasses]int
		for i, b := 0, t.track; b != 0; i, b = i+1, b&(b-1) {
			ids[i] = bits.TrailingZeros64(b)
		}
		// served[s]: the cluster's units serving some class of set s-1;
		// s&(s-1) is s without its lowest class.
		var served [1 << maxHallClasses]uint64
		for ci := range m.Clusters {
			for s := 1; s <= n; s++ {
				served[s] = served[s&(s-1)] | m.UnitMask(ci, ids[bits.TrailingZeros(uint(s))])
				t.units[s-1] += bits.OnesCount64(served[s])
			}
		}
	}
	t.Count(l)
	if n == 0 || t.ops[n-1] < len(l.Instrs) { // some operation went uncounted
		for _, in := range l.Instrs {
			if m.ClassID(in.Class) < 0 {
				return fmt.Errorf("sched: machine %q has no unit for class %q used by loop %q", m.Name, in.Class, l.Name)
			}
		}
	}
	return nil
}

// Carve takes the table's operation and unit counts from a, sized for
// loop l on machine m with extra as Init would track them (see Arena).
func (t *ResTable) Carve(a *Arena, l *ir.Loop, m *machine.Machine, extra machine.OpClass) {
	t.collect(l, m, extra)
	t.ops, t.units = a.Ints(t.sets()), a.Ints(t.sets())
}

// collect gathers the classes l uses that m serves, plus extra when m
// serves it; past maxHallClasses of them, every class of m.
func (t *ResTable) collect(l *ir.Loop, m *machine.Machine, extra machine.OpClass) {
	t.m, t.track = m, 0
	for _, in := range l.Instrs {
		if k := m.ClassID(in.Class); k >= 0 {
			t.track |= 1 << k
		}
	}
	if k := m.ClassID(extra); k >= 0 {
		t.track |= 1 << k
	}
	t.all = bits.OnesCount64(t.track) > maxHallClasses
	if t.all {
		t.track = ^uint64(0) >> (64 - m.NumClasses())
	}
}

// index returns the tracked index of class c, or -1.
func (t *ResTable) index(c machine.OpClass) int {
	k := t.m.ClassID(c)
	if k < 0 || t.track>>k&1 == 0 {
		return -1
	}
	return bits.OnesCount64(t.track & (1<<k - 1))
}

// sets is the number of class sets the table tracks.
func (t *ResTable) sets() int {
	k := bits.OnesCount64(t.track)
	if t.all {
		return k + 1
	}
	return 1<<k - 1
}

// Count resets the operation counts to those of loop l; an operation of
// a class the table does not track is not counted.
func (t *ResTable) Count(l *ir.Loop) {
	clear(t.ops)
	if t.all {
		for _, in := range l.Instrs {
			t.Add(in.Class, 1)
		}
		return
	}
	var per [maxHallClasses]int
	for _, in := range l.Instrs {
		if i := t.index(in.Class); i >= 0 {
			per[i]++
		}
	}
	for s := range t.ops {
		for i, b := 0, s+1; b != 0; i, b = i+1, b>>1 {
			if b&1 != 0 {
				t.ops[s] += per[i]
			}
		}
	}
}

// Add counts n more operations of class c. A class the table does not
// track is not counted.
func (t *ResTable) Add(c machine.OpClass, n int) {
	i := t.index(c)
	switch {
	case i < 0:
	case t.all:
		t.ops[i] += n
		t.ops[len(t.ops)-1] += n
	default:
		for s := range t.ops {
			if (s+1)>>i&1 != 0 {
				t.ops[s] += n
			}
		}
	}
}

// Bound returns the resource bound of the counted operations: the
// maximum over the sets of ceil(ops / units), at least 1.
func (t *ResTable) Bound() int {
	res := 1
	for s, n := range t.ops {
		if n > 0 {
			res = max(res, (n+t.units[s]-1)/t.units[s])
		}
	}
	return res
}

// RecMII computes the recurrence-constrained lower bound of graph g and
// the critical strongly connected component that binds it. One pass of
// Tarjan's algorithm (over all edges, loop-carried included) enumerates
// the components in reverse topological order; each component with an
// internal edge is evaluated as it pops, finding by binary search the
// smallest II such that no cycle has positive slack latency -
// II*distance. The first component maximising that II is critical. An
// acyclic graph yields RecMII = 1 and a nil SCC. A graph with a
// distance-0 cycle fails first, with ir.ErrIntraCycle.
func RecMII(g *ir.Graph) (int, []int, error) {
	out, err := recurrences(g, nil, 0)
	return out.Rec, out.CriticalSCC, err
}

// recurrences is RecMII, and on machine m (nil for none) with resource
// bound res the MII with ComputeMII's cluster lift. All scratch —
// Tarjan's numbering, its two stacks, the component labels and the
// longest-path values, before them the topological check's queue and
// in-degrees, and after them the lift's rows, which Pinned and PinnedAt
// keep — lives in one array allocated per call.
func recurrences(g *ir.Graph, m *machine.Machine, res int) (MII, error) {
	n := g.NumNodes()
	scratch := make([]int, 7*n)
	if _, err := g.IntraTopoOrderInto(scratch[:0:n], scratch[n:2*n]); err != nil {
		return MII{}, err
	}
	t := sccs{index: scratch[:n], low: scratch[n : 2*n], comp: scratch[2*n : 3*n],
		stack: scratch[3*n : 3*n : 4*n], frames: scratch[4*n : 4*n : 5*n], next: scratch[5*n : 6*n]}
	dist := scratch[6*n:]
	rec, critical, critLen := 1, -1, 0
	t.run(g, nil, func(members []int, id int) {
		if ii, cyclic := componentMinII(g, members, t.comp, id, dist); cyclic && ii > rec {
			rec, critical, critLen = ii, id, len(members)
		}
	})
	out := MII{Res: res, Rec: rec, MII: max(res, rec)}
	if critical >= 0 {
		out.CriticalSCC = make([]int, 0, critLen)
		for v, c := range t.comp {
			if c == critical {
				out.CriticalSCC = append(out.CriticalSCC, v)
			}
		}
	}
	// A recurrence that II = 1 already satisfies never becomes critical,
	// yet at RecMII = 1 it may have no slack either.
	if m != nil && rec >= res && m.BusLatency() >= 1 {
		if out.Pinned, out.PinnedAt = clusterLift(g, m, rec, &t, dist); out.Pinned != nil {
			out.Lift, out.MII = 1, rec+1
		}
	}
	return out, nil
}

// sccs is the state of Tarjan's algorithm over a graph's nodes, as rows
// of a caller's scratch: the DFS numbering, the low links, the component
// labels, each node's successor cursor, and the two stacks (empty, with
// room for every node).
type sccs struct {
	index, low, comp, next []int
	stack, frames          []int
}

// run labels in comp the strongly connected components of g's subgraph
// of the edges keep accepts (nil keeps every edge), numbered as they pop
// — in reverse topological order — and passes each to popped, when it
// is non-nil, with its members in stack order.
func (t *sccs) run(g *ir.Graph, keep func(*ir.Edge) bool, popped func(members []int, id int)) {
	index, low, comp, next := t.index, t.low, t.comp, t.next
	stack, frames := t.stack[:0], t.frames[:0]
	for v := range index {
		index[v], comp[v] = -1, -1
	}
	counter, comps := 0, 0
	for root := range index {
		if index[root] != -1 {
			continue
		}
		// frames is the DFS call stack; next[v] is how many of v's
		// successors v has visited.
		index[root], low[root], next[root] = counter, counter, 0
		counter++
		stack, frames = append(stack, root), append(frames, root)
		for len(frames) > 0 {
			v := frames[len(frames)-1]
			if succ := g.Succs(v); next[v] < len(succ) {
				e := succ[next[v]]
				next[v]++
				if keep != nil && !keep(e) {
					continue
				}
				if w := e.To; index[w] == -1 {
					index[w], low[w], next[w] = counter, counter, 0
					counter++
					stack, frames = append(stack, w), append(frames, w)
				} else if comp[w] == -1 && index[w] < low[v] {
					low[v] = index[w] // w is still on the stack
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1]; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v roots a component: the stack from v up.
			base := len(stack) - 1
			for stack[base] != v {
				base--
			}
			members := stack[base:]
			stack = stack[:base]
			for _, w := range members {
				comp[w] = comps
			}
			if popped != nil {
				popped(members, comps)
			}
			comps++
		}
	}
}

// clusterLift proves II = rec infeasible on m when it can (see
// ComputeMII): it returns the pinned group, IDs ascending, and each
// member's offset mod rec from the first, or nil. It reuses t's rows and
// pi, which end up holding the group and the potentials.
func clusterLift(g *ir.Graph, m *machine.Machine, rec int, t *sccs, pi []int) (pinned, at []int) {
	if !potentials(g, pi, rec) {
		return nil, nil
	}
	tight := func(e *ir.Edge) bool { return pi[e.To]-pi[e.From] == e.Latency-rec*e.Distance }
	t.run(g, tight, nil)
	// Union the operations joined by a tight true edge inside one rigid
	// class (a component of the tight subgraph) into groups, rooted at
	// their lowest ID.
	rigid, root := t.comp, t.index
	for v := range root {
		root[v] = v
	}
	joined := false
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind == ir.DepTrue && rigid[e.From] == rigid[e.To] && tight(e) {
			if a, b := find(root, e.From), find(root, e.To); a != b {
				root[max(a, b)] = min(a, b)
				joined = true
			}
		}
	}
	if !joined {
		return nil, nil
	}
	size := t.low
	clear(size)
	for v := range root {
		root[v] = find(root, v)
		size[root[v]]++
	}
	// The members of every group of two or more, by group and residue.
	list := t.stack[:0]
	for v, r := range root {
		if size[r] > 1 {
			list = append(list, v)
		}
	}
	slices.SortFunc(list, func(a, b int) int {
		return cmp.Or(cmp.Compare(root[a], root[b]), cmp.Compare(pi[a]%rec, pi[b]%rec))
	})
	for i, j := 0, 0; i < len(list); i = j {
		for j = i + 1; j < len(list) && root[list[j]] == root[list[i]]; j++ {
		}
		if group := list[i:j]; !seatable(g.Loop, m, group, pi, rec) {
			pinned, at = t.next[:len(group)], t.frames[:len(group)]
			copy(pinned, group)
			slices.Sort(pinned)
			for k, v := range pinned {
				at[k] = ((pi[v]-pi[pinned[0]])%rec + rec) % rec
			}
			return pinned, at
		}
	}
	return nil, nil
}

// find returns the root of v's set in the union-find forest root,
// halving the path as it goes.
func find(root []int, v int) int {
	for root[v] != v {
		root[v] = root[root[v]]
		v = root[v]
	}
	return v
}

// potentials sets pi to longest-path values at the given II over every
// edge of g from all-zero starts, so that pi(to) - pi(from) >= latency -
// ii*distance on every edge. It reports false if they do not settle, as
// happens only below RecMII. Rounds run in ID order, which intra-
// iteration edges follow, so only loop-carried edges cost extra rounds.
func potentials(g *ir.Graph, pi []int, ii int) bool {
	clear(pi)
	for range len(pi) + 1 {
		changed := false
		for v := range pi {
			for _, e := range g.Succs(v) {
				if d := pi[v] + e.Latency - ii*e.Distance; d > pi[e.To] {
					pi[e.To] = d
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// seatable reports whether some cluster of m can seat group, whose
// members issue at pi plus a common constant mod ii and are sorted by pi
// mod ii: at every residue, each member needs a unit of its own.
func seatable(l *ir.Loop, m *machine.Machine, group, pi []int, ii int) bool {
	for ci := range m.Clusters {
		fits := true
		for i, j := 0, 0; i < len(group) && fits; i = j {
			for j = i + 1; j < len(group) && pi[group[j]]%ii == pi[group[i]]%ii; j++ {
			}
			set, _, _ := hallDeficit(l, m, ci, group[i:j])
			fits = set == 0
		}
		if fits {
			return true
		}
	}
	return false
}

// hallDeficit checks that ops, to issue in one cycle on cluster ci of m,
// can each have a unit of their own. By Hall's theorem they can unless
// some set of their classes has more ops than units of the cluster serve
// any class of the set; it returns the first such set found (bit k for
// class ID k) with both counts, or a zero set. Past maxHallClasses
// classes only each class alone and all of them are checked. Every op's
// class must be one some unit of m serves.
func hallDeficit(l *ir.Loop, m *machine.Machine, ci int, ops []int) (set uint64, need, have int) {
	var per [machine.MaxClasses]int
	var all uint64
	for _, v := range ops {
		k := m.ClassID(l.Instrs[v].Class)
		per[k]++
		all |= 1 << k
	}
	deficit := func(s uint64) bool {
		var served uint64
		set, need = s, 0
		for b := s; b != 0; b &= b - 1 {
			k := bits.TrailingZeros64(b)
			need += per[k]
			served |= m.UnitMask(ci, k)
		}
		have = bits.OnesCount64(served)
		return need > have
	}
	if bits.OnesCount64(all) <= maxHallClasses {
		// Every nonempty subset of all, ascending.
		for s := -all & all; s != 0; s = (s - all) & all {
			if deficit(s) {
				return set, need, have
			}
		}
		return 0, 0, 0
	}
	for b := all; b != 0; b &= b - 1 {
		if deficit(b & -b) {
			return set, need, have
		}
	}
	if deficit(all) {
		return set, need, have
	}
	return 0, 0, 0
}

// componentMinII finds the smallest II >= 1 at which component id — its
// members in stack order, comp labelling every node's component — has no
// cycle with positive slack latency - II*distance, and reports whether
// the component has an internal edge at all (a singleton has one only
// through a self edge; without one there is no recurrence and no bound).
// Feasibility is monotone in II because every cycle of a graph without
// distance-0 cycles (RecMII checks first) has total distance >= 1, so
// binary search applies. The upper bound is the sum of internal edge
// latencies: any cycle's latency is at most that sum while its distance
// is at least 1. dist is scratch indexed by node.
func componentMinII(g *ir.Graph, members, comp []int, id int, dist []int) (int, bool) {
	latSum, cyclic := 0, false
	for _, v := range members {
		for _, e := range g.Succs(v) {
			if comp[e.To] == id {
				latSum += e.Latency
				cyclic = true
			}
		}
	}
	if !cyclic {
		return 0, false
	}
	lo, hi := 1, max(latSum, 1)
	for lo < hi {
		mid := (lo + hi) / 2
		if componentFeasible(g, members, comp, id, dist, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// componentFeasible reports whether, at the given II, component id has
// no positive-weight cycle under edge weights latency - II*distance. It
// relaxes longest paths from every member at once (all values start at
// 0) in rounds over the internal edges. Without a positive cycle the
// values settle within k-1 rounds for k members; with one they never
// settle, so a k-th round that still changes a value proves the cycle.
// Each probe is O(k·E) and usually exits after a few rounds.
func componentFeasible(g *ir.Graph, members, comp []int, id int, dist []int, ii int) bool {
	for _, v := range members {
		dist[v] = 0
	}
	for range members {
		changed := false
		for _, v := range members {
			for _, e := range g.Succs(v) {
				if comp[e.To] != id {
					continue
				}
				if d := dist[v] + e.Latency - ii*e.Distance; d > dist[e.To] {
					dist[e.To] = d
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}
