package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// outcome is what one compilation produced, reduced to the numbers the
// metrics and the traced-path cross-check read. Every field is a pure
// function of the job.
type outcome struct {
	Nodes, Edges            int
	II, MaxLive, Unroll     int
	SeqCycles, MVECycles    int
	MVEBundles, PredBundles int
	FrameSlots, Trips       int
	Lifetimes               int
	Mismatches              []string
	Stats                   map[string]int
}

// same reports whether two outcomes of one job agree on everything the
// cross-check compares: II, MaxLive, unroll, cycles, bundle counts and
// the mismatch list.
func (o *outcome) same(p *outcome) bool {
	return o.II == p.II && o.MaxLive == p.MaxLive && o.Unroll == p.Unroll &&
		o.SeqCycles == p.SeqCycles && o.MVECycles == p.MVECycles &&
		o.MVEBundles == p.MVEBundles && o.PredBundles == p.PredBundles &&
		reflect.DeepEqual(o.Mismatches, p.Mismatches)
}

func newOutcome(g *ir.Graph, s *sched.Schedule, press *regpress.Result, ek *sched.ExpandedKernel, rep *vm.Report) *outcome {
	return &outcome{
		Nodes: g.NumNodes(), Edges: len(g.Edges),
		II: s.II, MaxLive: press.MaxLive, Unroll: ek.Unroll,
		SeqCycles: rep.SeqCycles, MVECycles: rep.MVECycles,
		MVEBundles: rep.MVEBundles, PredBundles: rep.PredBundles,
		FrameSlots: rep.FrameSlots, Trips: len(rep.Trips),
		Lifetimes:  len(press.Lifetimes),
		Mismatches: rep.Mismatches, Stats: s.Stats,
	}
}

// verifyOpts is the VM configuration of one job: the per-loop oracle
// seed batch sweeps use, and the workload's predicated trip counts.
func verifyOpts(w *workload, j job, prog *emit.Program) vm.Options {
	o := vm.Options{Seed: core.ExecSeed(j.loop.Name)}
	if w.predTrips != nil {
		o.PredTrips = w.predTrips(prog)
	}
	return o
}

// compile is the untraced path, the one `msched exec` takes: compile
// through core, emit the expanded kernel, and execute it against the
// sequential reference.
func compile(ctx context.Context, w *workload, j job) (*outcome, error) {
	r, err := core.CompileWithOpts(ctx, j.be, j.loop, j.m, core.Opts{})
	if err != nil {
		return nil, err
	}
	prog, err := emit.Emit(r.Expanded)
	if err != nil {
		return nil, fmt.Errorf("emit: %w", err)
	}
	rep, err := vm.VerifyProgram(r.Expanded, prog, verifyOpts(w, j, prog))
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	return newOutcome(r.Graph, r.Schedule, r.Pressure, r.Expanded, rep), nil
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent indexes the tracer's spans, -1 for a
// compilation's root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Comp   int    `json:"comp"`
}

// Span names. Each is a layer, named after the package whose public
// function the span times; spanRoot covers a whole compilation and its
// self time is the harness's own work.
const (
	spanRoot    = "bench.compile"
	spanBuild   = "ir.build"
	spanMII     = "sched.mii"
	spanProbe   = "search.probe"
	spanAttempt = "search.attempt"
	spanAnalyze = "regpress.analyze"
	spanExpand  = "sched.expand"
	spanEmit    = "emit.emit"
	spanVerify  = "vm.verify"
)

// tracer keeps every span in memory; they are written out only when the
// run ends, so the trace costs no I/O while it is being taken.
type tracer struct {
	t0    time.Time
	spans []span
	comp  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Comp: t.comp})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// eventCounter is a trace.Recorder that only counts: events per kind and
// the sum of their Arg payloads.
type eventCounter struct {
	n   [trace.NumKinds]int64
	arg [trace.NumKinds]int64
}

// Emit implements trace.Recorder.
func (c *eventCounter) Emit(e trace.Event) {
	if int(e.Kind) < trace.NumKinds {
		c.n[e.Kind]++
		c.arg[e.Kind] += e.Arg
	}
}

// compileTraced is compile taken apart at its layer boundaries, with a
// span around every call into a layer. It repeats what
// core.CompileWithOpts does, and drives the backend's sched.Prober the
// way the backends' own Schedule loops do: Probe, then Next, AttemptII
// and Consume per candidate, then Result. Cross-checking its outcomes
// against compile's is what shows the two paths compute the same thing.
func (t *tracer) compileTraced(ctx context.Context, w *workload, j job, rec *eventCounter) (*outcome, error) {
	root := t.begin(spanRoot, -1)
	defer func() { t.end(root); t.comp++ }()
	p, ok := j.be.(sched.Prober)
	if !ok {
		return nil, fmt.Errorf("backend %q is not a sched.Prober", j.be.Name())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := j.m.Validate(); err != nil {
		return nil, err
	}
	sp := t.begin(spanBuild, root)
	g, err := ir.Build(j.loop, j.m, nil)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spanMII, root)
	mii, err := sched.ComputeMII(g, j.m)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	req := &sched.Request{Ctx: ctx, Loop: j.loop, Machine: j.m, Graph: g, MII: &mii, Recorder: rec}
	sp = t.begin(spanProbe, root)
	sw, mk, err := p.Probe(req)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	at := mk()
	for {
		cand, done := sw.Next()
		if done {
			break
		}
		if err := req.Cancelled(); err != nil {
			return nil, err
		}
		sp = t.begin(spanAttempt, root)
		a := at.AttemptII(nil, cand, rec)
		t.end(sp)
		sw.Consume(cand, a)
	}
	s, err := sw.Result()
	if err != nil {
		return nil, fmt.Errorf("backend %q: %w", j.be.Name(), err)
	}
	sp = t.begin(spanAnalyze, root)
	press, err := regpress.Analyze(s)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spanExpand, root)
	ek, err := s.ExpandWith(press.Lifetimes)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spanEmit, root)
	prog, err := emit.Emit(ek)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("emit: %w", err)
	}
	sp = t.begin(spanVerify, root)
	rep, err := vm.VerifyProgram(ek, prog, verifyOpts(w, j, prog))
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	return newOutcome(g, s, press, ek, rep), nil
}
