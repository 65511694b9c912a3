package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// cmdTrace is the search explainer: it compiles one loop with the
// flight recorder (pkg/trace) attached and prints the aggregated "why
// this II" report — the candidate-II path, what each attempt spent, the
// final schedule's spill attribution per op, and the ops the
// backtracking fought hardest over. Optional flags export the raw event
// stream as Chrome trace-event JSON (chrome://tracing, Perfetto) and
// the aggregate profile as JSON. Everything it emits is deterministic
// in (loop, backend, machine): timestamps are logical sequence numbers,
// rows are sorted, so two runs produce byte-identical artifacts — CI
// diffs a pair to pin that.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msched trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	loopName := fs.String("loop", "", "example or gap-corpus loop to trace (by name; see -list and gap.json)")
	seed := fs.Uint64("seed", 1, "generator master seed (used when -loop is empty)")
	index := fs.Int("i", 0, "index of the generated loop to trace")
	backend := fs.String("backend", "mirs", "scheduler backend to trace")
	machineSpec := fs.String("machine", "tight", "machine to compile for (canned name or .json file)")
	timeout := fs.Duration("timeout", driver.DefaultTimeout, "compilation budget")
	chromeOut := fs.String("chrome", "", "write the Chrome trace-event JSON to this file")
	profileOut := fs.String("profile", "", "write the aggregated profile JSON to this file")
	list := fs.Bool("list", false, "list the example loop names and exit")
	if !parseArgs(fs, args) {
		return 2
	}
	if rejectOutOfRange(stderr, "msched trace", flagRange{"timeout", "> 0", *timeout <= 0}) {
		return 2
	}
	if *list {
		for _, l := range ir.ExampleLoops() {
			fmt.Fprintf(stdout, "%s (%d instrs)\n", l.Name, l.NumInstrs())
		}
		return 0
	}
	loop, err := traceLoop(*loopName, *seed, *index)
	if err != nil {
		fmt.Fprintln(stderr, "msched trace:", err)
		return 2
	}
	bes, err := backendsByName(*backend, 0)
	if err != nil || len(bes) != 1 {
		fmt.Fprintf(stderr, "msched trace: -backend must name exactly one backend: %v\n", err)
		return 2
	}
	ms, err := machinesByName(*machineSpec)
	if err != nil || len(ms) != 1 {
		fmt.Fprintf(stderr, "msched trace: -machine must name exactly one machine: %v\n", err)
		return 2
	}
	be, m := bes[0], ms[0]

	buf := &trace.Buffer{}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	r, err := core.CompileWithOpts(ctx, be, loop, m, core.Opts{Recorder: buf})
	if err != nil {
		fmt.Fprintf(stderr, "msched trace: compiling %s on %s with %s: %v\n", loop.Name, m.Name, be.Name(), err)
		return 1
	}

	meta := trace.Meta{Loop: loop.Name, Machine: m.Name, Backend: be.Name(), II: r.Schedule.II, MIIWhy: r.MII.Explain(loop, m)}
	p := trace.BuildProfile(meta, buf.Events())
	p.WriteReport(stdout)
	fmt.Fprintf(stdout, "result: %s\n", r.Summary())

	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			fmt.Fprintln(stderr, "msched trace:", err)
			return 1
		}
		werr := trace.WriteChrome(f, meta, buf.Events())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "msched trace:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace (%d events) written to %s\n", buf.Len(), *chromeOut)
	}
	if *profileOut != "" {
		data, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "msched trace:", err)
			return 1
		}
		if err := os.WriteFile(*profileOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "msched trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "profile written to %s\n", *profileOut)
	}
	return 0
}

// traceLoop resolves the loop to trace: by name, an example loop or a
// loop of the gate's gap corpus (as gap.json names it, e.g.
// gap0009-storm); with an empty name, loop `index` of the seed-keyed
// generated corpus, the same population `msched run -seed S` sweeps.
func traceLoop(name string, seed uint64, index int) (*ir.Loop, error) {
	if name != "" {
		var have []string
		for _, l := range ir.ExampleLoops() {
			if l.Name == name {
				return l, nil
			}
			have = append(have, l.Name)
		}
		g := defaultGate
		for _, l := range driver.GapCorpus(g.gapSeed, g.gapN, g.gapMaxOps) {
			if l.Name == name {
				return l, nil
			}
		}
		return nil, fmt.Errorf("unknown example loop %q (have: %s, or a gap.json loop)", name, strings.Join(have, ", "))
	}
	if index < 0 {
		return nil, fmt.Errorf("-i must be >= 0")
	}
	return gen.CorpusLoop(seed, index), nil
}
