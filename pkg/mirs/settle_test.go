package mirs

import (
	"fmt"
	"slices"
	"testing"

	"github.com/paper-repo-growth/mirs/internal/buf"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// tight6 is the tight machine cut to 6 registers per cluster: below the
// saturation floor, so most attempts overflow, spill and settle with a
// residual excess.
func tight6() *machine.Machine {
	m := machine.Tight()
	m.Name = "tight6"
	for ci := range m.Clusters {
		m.Clusters[ci].RegFile.Size = 6
	}
	return m
}

// settles drives l's II search on m attempt by attempt and checks the
// account tryII settles each complete placement on: after every attempt
// that returns a schedule, the attempter's tracker must hold exactly
// regpress.Analyze's per-cluster, per-cycle counts of that schedule, and
// the attempt's Excess must be the overflow Analyze reports. It returns
// the number of schedules checked and how many of them overflowed.
func settles(t *testing.T, l *ir.Loop, m *machine.Machine) (checked, overflowed int) {
	t.Helper()
	sw, newAttempter, err := New().Probe(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
	}
	at := newAttempter().(*attempter)
	for {
		cand, done := sw.Next()
		if done {
			return checked, overflowed
		}
		a := at.AttemptII(nil, cand, nil)
		if a.Err != nil {
			t.Fatalf("%s on %s at II=%d: %v", l.Name, m.Name, cand, a.Err)
		}
		if a.Schedule != nil {
			checked++
			press, err := regpress.Analyze(a.Schedule)
			if err != nil {
				t.Fatalf("%s on %s at II=%d: %v", l.Name, m.Name, cand, err)
			}
			excess := 0
			for ci, cl := range m.Clusters {
				excess += max(0, press.MaxLivePerCluster[ci]-cl.RegFile.Size)
				for c := 0; c < a.Schedule.II; c++ {
					if got, want := at.st.track.PressureAt(ci, c), press.PerCluster[ci][c]; got != want {
						t.Errorf("%s on %s at II=%d, cluster %d cycle %d: tracker %d, Analyze %d",
							l.Name, m.Name, cand, ci, c, got, want)
					}
				}
			}
			if excess > 0 {
				overflowed++
			}
			if a.Excess != excess {
				t.Errorf("%s on %s at II=%d: attempt excess %d, Analyze excess %d", l.Name, m.Name, cand, a.Excess, excess)
			}
		}
		sw.Consume(cand, a)
	}
}

// TestTrackerSettles: MIRS settles every complete placement on its
// incrementally kept tracker instead of re-analysing the schedule, so
// that tracker must agree with Analyze everywhere — on machines with
// ample registers, on the register-starved one, and below its
// saturation floor, where spilling and the relaxed final relief run on
// nearly every attempt.
func TestTrackerSettles(t *testing.T) {
	loops := gen.Corpus(1, 60)
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight(), tight6()} {
		checked, overflowed := 0, 0
		for _, l := range loops {
			n, o := settles(t, l, m)
			if n == 0 {
				t.Errorf("%s on %s: no attempt returned a schedule", l.Name, m.Name)
			}
			checked, overflowed = checked+n, overflowed+o
		}
		t.Logf("%s: %d schedules checked, %d overflowing", m.Name, checked, overflowed)
		if m.Name == "tight6" && overflowed == 0 {
			t.Error("tight6: no overflowing schedule; the final relief went unchecked")
		}
	}
}

// FuzzTrackerSettles explores generated loops beyond the gating corpus
// on the 6-register machine. CI runs it as a non-gating 10-second smoke.
func FuzzTrackerSettles(f *testing.F) {
	for i := 0; i < 6; i++ {
		f.Add(uint64(i+1), uint16(i*7))
	}
	m := tight6()
	f.Fuzz(func(t *testing.T, seed uint64, i uint16) {
		settles(t, gen.CorpusLoop(seed, int(i)), m)
	})
}

// refNextUnplaced is nextUnplaced as the full scan it replaced: every
// unplaced op walks its edges to learn whether it borders the placed
// region, and the highest bordering op (ties to the lowest ID) wins.
func refNextUnplaced(st *state) int {
	best, bestAdj := -1, false
	adjacent := func(id int) bool {
		for _, e := range st.g.Preds(id) {
			if e.From != id && st.placed[e.From] {
				return true
			}
		}
		for _, e := range st.g.Succs(id) {
			if e.To != id && st.placed[e.To] {
				return true
			}
		}
		return false
	}
	for id := range st.placed {
		if st.placed[id] {
			continue
		}
		adj := adjacent(id)
		if adj != bestAdj {
			if adj {
				best, bestAdj = id, true
			}
			continue
		}
		if best == -1 || st.height[id] > st.height[best] {
			best = id
		}
	}
	return best
}

// refVictim is victim as the full scan it replaced, without the trace
// event: uses and the carried flag come from the definition's edges and
// a live-in's readers from the loop, on every call.
func refVictim(st *state, cluster, minLen int) (int, ir.VReg, bool) {
	type cand struct {
		id      int
		reg     ir.VReg
		length  int
		uses    int
		carried bool
	}
	var best cand
	found := false
	better := func(a, b *cand) bool {
		if a.carried != b.carried {
			return !a.carried
		}
		if a.length != b.length {
			return a.length > b.length
		}
		if a.uses != b.uses {
			return a.uses < b.uses
		}
		return a.id < b.id
	}
	for id := 0; id < st.loop.NumInstrs(); id++ {
		if st.noSpill[id] {
			continue
		}
		for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
			if len(st.charged[fi]) == 0 {
				continue
			}
			reg := st.defRegs[fi]
			length := 0
			for _, lt := range st.charged[fi] {
				if lt.Cluster == cluster && lt.Length() > length {
					length = lt.Length()
				}
			}
			if length < minLen {
				continue
			}
			uses, carried, any := 0, true, false
			for _, e := range st.g.Succs(id) {
				if e.Kind != ir.DepTrue || e.Reg != reg {
					continue
				}
				any = true
				uses++
				if e.Distance == 0 {
					carried = false
				}
			}
			if !any {
				continue
			}
			c := cand{id: id, reg: reg, length: length, uses: uses, carried: carried}
			if !found || better(&c, &best) {
				best, found = c, true
			}
		}
	}
	if nc := st.m.NumClusters(); st.ii >= minLen {
		for r := 0; r < st.nregs; r++ {
			if st.liveIn[r*nc+cluster] <= 0 {
				continue
			}
			reg := ir.VReg(r)
			uses := 0
			for _, in := range st.loop.Instrs {
				if slices.Contains(in.Uses, reg) {
					uses++
				}
			}
			c := cand{id: -1, reg: reg, length: st.ii, uses: uses}
			if !found || better(&c, &best) {
				best, found = c, true
			}
		}
	}
	if !found {
		return 0, 0, false
	}
	return best.id, best.reg, true
}

// auditor recounts the pick and victim bookkeeping of a state in its
// own scratch and tallies what it saw. rebound is set when the state's
// loop may have changed since the last check: a new attempt or a spill.
// mrt, track and hb are the scratch of the spill audit's rebuilds.
type auditor struct {
	nbr, eligible, liveIns, uses, readers []int32
	carried, seen                         []bool
	rebound                               bool
	events, audits, queries, empty        int
	spills                                int

	mrt   *sched.MRT
	track *regpress.Tracker
	hb    sched.HeightBuf
}

// checkSpill compares every table a spill migrates instead of rebuilding
// against a rebuild from the state's placement, loop and graph: the
// reservation table (unit occupancy, transfers per bus cycle and their
// edge counts) against a fresh table the placements are re-seated in,
// the pressure account against a fresh tracker charged with every
// lifetime of the placement, each definition slot's charged lifetimes
// against life.AppendOfDef, and the heights against HeightBuf.Heights.
func (a *auditor) checkSpill(st *state) error {
	a.spills++
	if a.mrt == nil {
		var err error
		if a.mrt, err = sched.NewMRT(st.m, st.ii); err != nil {
			return err
		}
		if a.track, err = regpress.NewTracker(st.m, st.ii); err != nil {
			return err
		}
	}
	a.mrt.Reset(st.ii)
	for id, p := range st.plc {
		if st.placed[id] {
			if err := a.mrt.Reserve(p.Cluster, p.Slot, p.Cycle, id); err != nil {
				return fmt.Errorf("re-seating the placements: %v", err)
			}
		}
	}
	var keys []sched.Transfer
	for i := range st.g.Edges {
		e := &st.g.Edges[i]
		if e.Kind != ir.DepTrue || e.From == e.To || !st.placed[e.From] || !st.placed[e.To] ||
			st.plc[e.From].Cluster == st.plc[e.To].Cluster {
			continue
		}
		tr := sched.Transfer{From: e.From, Reg: e.Reg, Dest: st.plc[e.To].Cluster,
			Cycle: sched.TransferCycle(st.m, st.loop, st.plc, e.From)}
		if err := a.mrt.AddTransfer(tr); err != nil {
			return fmt.Errorf("re-seating transfer %+v: %v", tr, err)
		}
		keys = append(keys, tr)
	}
	for ci := range st.m.Clusters {
		for slot := range st.m.Clusters[ci].Units {
			for c := 0; c < st.ii; c++ {
				if got, want := st.mrt.At(ci, slot, c), a.mrt.At(ci, slot, c); got != want {
					return fmt.Errorf("MRT cluster %d slot %d cycle %d holds %d, rebuilt %d", ci, slot, c, got, want)
				}
			}
		}
	}
	for c := 0; c < st.ii; c++ {
		want := slices.Clone(a.mrt.TransferProducersAt(c))
		if got := st.mrt.TransferProducersAt(c); st.mrt.BusUsed(c) != a.mrt.BusUsed(c) || !slices.Equal(got, want) {
			return fmt.Errorf("bus cycle %d: %d transfers from %v, rebuilt %d from %v", c, st.mrt.BusUsed(c), got, a.mrt.BusUsed(c), want)
		}
	}
	for _, tr := range keys {
		if got, want := st.mrt.TransferRefs(tr.From, tr.Reg, tr.Dest), a.mrt.TransferRefs(tr.From, tr.Reg, tr.Dest); got != want {
			return fmt.Errorf("transfer of %s from %d to cluster %d shared by %d edges, rebuilt %d", tr.Reg, tr.From, tr.Dest, got, want)
		}
	}

	a.track.Reset(st.ii)
	for _, lt := range life.Lifetimes(&st.lview) {
		a.track.AddLifetime(lt)
	}
	for ci := range st.m.Clusters {
		for c := 0; c < st.ii; c++ {
			if got, want := st.track.PressureAt(ci, c), a.track.PressureAt(ci, c); got != want {
				return fmt.Errorf("pressure on cluster %d at cycle %d is %d, rebuilt %d", ci, c, got, want)
			}
		}
	}
	for id := 0; id < st.loop.NumInstrs(); id++ {
		for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
			if want := life.AppendOfDef(nil, &st.lview, id, st.defRegs[fi]); !slices.Equal(st.charged[fi], want) {
				return fmt.Errorf("definition of %s by %d charges %v, AppendOfDef %v", st.defRegs[fi], id, st.charged[fi], want)
			}
		}
	}
	height, err := a.hb.Heights(st.g)
	if err != nil {
		return err
	}
	if !slices.Equal(st.height, height) {
		return fmt.Errorf("heights %v, recomputed %v", st.height, height)
	}
	return nil
}

// check recounts the bookkeeping of st from its placement, graph and
// charged lifetimes and reports the first difference; then nextUnplaced
// and victim, at both thresholds on every cluster, must agree with the
// full scans. The tables derived from the loop alone — pick order, uses,
// carried flags, readers — are recounted when the loop was rebound.
func (a *auditor) check(st *state) error {
	a.audits++
	if a.rebound {
		if err := a.checkLoopTables(st); err != nil {
			return err
		}
		a.rebound = false
	}
	n, nc := st.loop.NumInstrs(), st.m.NumClusters()
	a.nbr = buf.Zeroed(a.nbr, n)
	for i := range st.g.Edges {
		if e := &st.g.Edges[i]; e.From != e.To {
			if st.placed[e.From] {
				a.nbr[e.To]++
			}
			if st.placed[e.To] {
				a.nbr[e.From]++
			}
		}
	}
	if !slices.Equal(st.nbr, a.nbr) {
		return fmt.Errorf("placed-neighbour counts %v, recounted %v", st.nbr, a.nbr)
	}
	a.eligible, a.liveIns = buf.Zeroed(a.eligible, len(st.minLens)*nc), buf.Zeroed(a.liveIns, nc)
	for id := 0; id < n; id++ {
		for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
			if st.noSpill[id] || st.defUses[fi] == 0 {
				continue
			}
			for ci := 0; ci < nc; ci++ {
				length := 0
				for _, lt := range st.charged[fi] {
					if lt.Cluster == ci {
						length = max(length, lt.Length())
					}
				}
				for k, minLen := range st.minLens {
					if length >= minLen {
						a.eligible[k*nc+ci]++
					}
				}
			}
		}
	}
	for ci := 0; ci < nc; ci++ {
		for r := 0; r < st.nregs; r++ {
			if st.liveIn[r*nc+ci] > 0 {
				a.liveIns[ci]++
			}
		}
	}
	if !slices.Equal(st.eligible, a.eligible) || !slices.Equal(st.liveIns, a.liveIns) {
		return fmt.Errorf("eligible %v, live-ins %v; recounted %v, %v", st.eligible, st.liveIns, a.eligible, a.liveIns)
	}
	if got, want := st.nextUnplaced(), refNextUnplaced(st); got != want {
		return fmt.Errorf("nextUnplaced %d, full scan %d", got, want)
	}
	for ci := 0; ci < nc; ci++ {
		for bar, minLen := range st.minLens {
			id, reg, ok := st.victim(ci, bar)
			wid, wreg, wok := refVictim(st, ci, minLen)
			if id != wid || reg != wreg || ok != wok {
				return fmt.Errorf("victim(%d, %d) = %d %s %v, full scan %d %s %v", ci, bar, id, reg, ok, wid, wreg, wok)
			}
			a.queries++
			if !ok {
				a.empty++
			}
		}
	}
	return nil
}

// checkLoopTables recounts the tables derived from st's loop and graph
// alone: the pick order, each definition's uses and carried flag, and
// each register's readers.
func (a *auditor) checkLoopTables(st *state) error {
	n := st.loop.NumInstrs()
	a.seen = buf.Zeroed(a.seen, n)
	for i, id := range st.order {
		if id < 0 || id >= n || a.seen[id] {
			return fmt.Errorf("pick order %v is not a permutation of %d instructions", st.order, n)
		}
		a.seen[id] = true
		if i > 0 {
			if prev := st.order[i-1]; st.height[prev] < st.height[id] || st.height[prev] == st.height[id] && prev > id {
				return fmt.Errorf("pick order %v puts %d before %d (heights %v)", st.order, prev, id, st.height)
			}
		}
	}
	if len(st.order) != n {
		return fmt.Errorf("pick order %v is not a permutation of %d instructions", st.order, n)
	}

	a.uses, a.carried = buf.Zeroed(a.uses, len(st.defRegs)), buf.Zeroed(a.carried, len(st.defRegs))
	for id := 0; id < n; id++ {
		for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
			a.carried[fi] = true
			for _, e := range st.g.Succs(id) {
				if e.Kind == ir.DepTrue && e.Reg == st.defRegs[fi] {
					a.uses[fi]++
					a.carried[fi] = a.carried[fi] && e.Distance != 0
				}
			}
		}
	}
	if !slices.Equal(st.defUses, a.uses) || !slices.Equal(st.defCarried, a.carried) {
		return fmt.Errorf("definition uses %v carried %v, recounted %v %v", st.defUses, st.defCarried, a.uses, a.carried)
	}
	a.readers = buf.Zeroed(a.readers, st.nregs)
	for _, in := range st.loop.Instrs {
		for j, u := range in.Uses {
			if !slices.Contains(in.Uses[:j], u) {
				a.readers[u]++
			}
		}
	}
	if !slices.Equal(st.readers, a.readers) {
		return fmt.Errorf("register readers %v, recounted %v", st.readers, a.readers)
	}
	return nil
}

// pickAndVictim drives l's II search on m with the auditor's check run
// after every commit, release and spill (every auditEvery-th under the
// race detector).
func pickAndVictim(t *testing.T, l *ir.Loop, m *machine.Machine, a *auditor) {
	t.Helper()
	sw, newAttempter, err := New().Probe(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
	}
	at := newAttempter().(*attempter)
	for {
		cand, done := sw.Next()
		if done {
			return
		}
		if at.st == nil {
			st, err := newState(at.g, m, cand)
			if err != nil {
				t.Fatal(err)
			}
			st.audit = func(event string) {
				a.rebound = a.rebound || event == "spill"
				if a.events++; a.events%auditEvery != 0 {
					return
				}
				if err := a.check(st); err != nil {
					t.Fatalf("%s on %s at II=%d after %s: %v", l.Name, m.Name, st.ii, event, err)
				}
				if event != "spill" {
					return
				}
				if err := a.checkSpill(st); err != nil {
					t.Fatalf("%s on %s at II=%d after spill %d: %v", l.Name, m.Name, st.ii, a.spills, err)
				}
			}
			at.st = st
		}
		a.rebound = true
		att := at.AttemptII(nil, cand, nil)
		if att.Err != nil {
			t.Fatalf("%s on %s at II=%d: %v", l.Name, m.Name, cand, att.Err)
		}
		sw.Consume(cand, att)
	}
}

// TestPickAndVictimSettle: the neighbour counts, pick order, victim
// tables and eligibility counts MIRS keeps incrementally must equal a
// recount after every commit, release and spill, and nextUnplaced and
// victim must answer as the full scans do — on the register-starved
// machine and below its saturation floor, where spills renumber the
// loop on nearly every attempt. After a spill every table the spill
// migrated must also equal a rebuild (auditor.checkSpill).
func TestPickAndVictimSettle(t *testing.T) {
	loops := gen.Corpus(1, 60)
	for _, m := range []*machine.Machine{machine.Tight(), tight6()} {
		var a auditor
		for _, l := range loops {
			pickAndVictim(t, l, m, &a)
		}
		t.Logf("%s: %d events, %d audited, %d spills audited, %d victim queries, %d without a victim",
			m.Name, a.events, a.audits, a.spills, a.queries, a.empty)
		if a.empty == 0 || a.empty == a.queries {
			t.Errorf("%s: victim found a candidate on %d of %d queries; both answers must be checked", m.Name, a.queries-a.empty, a.queries)
		}
		if a.spills == 0 {
			t.Errorf("%s: no spill was audited", m.Name)
		}
	}
}
