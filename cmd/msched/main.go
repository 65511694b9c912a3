// Command msched is the batch front-end of the modulo-scheduling stack:
// it generates seed-keyed loop populations (pkg/gen), compiles them
// concurrently across scheduler backends and machine configurations
// (internal/driver), and emits the aggregate quality tables as JSON/CSV
// — the same artifact CI gates on and humans read.
//
//	msched run     -seed 1 -n 200 [-strict] [-timing] [-o report.json]
//	msched gen     -seed 1 -n 3 [-corner pressure] [-json]
//	msched compare [-baseline BENCH_baseline.json] [-update-baseline]
//	msched trace   -seed 1 -i 7 -machine tight [-chrome trace.json]
//	msched exec    -loop fir8 -machine tight [-backend mirs]
//
// `run` sweeps a generated population over backends × machines and
// reports II/MII distributions, spill traffic, fit rates and throughput;
// with -strict any per-loop failure makes the exit status non-zero.
// Without -timing the report is byte-deterministic in (seed, n, grid) —
// the CI determinism smoke runs it twice and diffs.
//
// `gen` prints generated loops for eyeballing and for reducing driver
// findings to standalone repro cases.
//
// `compare` recomputes the gated quality rows (examples corpus + a
// pinned generated population, every backend × gate machine) and diffs
// them against the committed baseline: any ΣII or ΣMaxLive regression
// fails the gate (exit 1). It also benchmarks the "perf:examples" rows
// — allocations per full-corpus compile, gated with headroom
// (report.AllocHeadroom), plus informational loops/sec — so a hot-path
// allocation regression fails CI the same way a quality regression
// does; -no-perf skips that measurement. -update-baseline rewrites the
// baseline file instead — the one-command local refresh after an
// intentional change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/internal/oracle"
	"github.com/paper-repo-growth/mirs/internal/report"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func main() { os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr)) }

// Main is the testable entry point: it dispatches the subcommand and
// returns the process exit code (0 ok, 1 gate/strict failure, 2 usage).
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "gen":
		return cmdGen(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "trace":
		return cmdTrace(args[1:], stdout, stderr)
	case "exec":
		return cmdExec(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "msched: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: msched <run|gen|compare|trace|exec> [flags]

  run       generate a loop population and batch-compile it across
            backends x machines; emit aggregate quality tables
  gen       print generated loops
  compare   gate current scheduler quality against BENCH_baseline.json
            (-update-baseline to refresh it; -gap for the optimality gap)
  trace     compile one loop with the flight recorder attached and
            explain the II search (optional Chrome trace export)
  exec      compile one loop, emit VLIW bundles, and differentially
            execute them against the sequential reference

run 'msched <cmd> -h' for per-command flags
`)
}

// cannedMachines is the one table of built-in machine configurations,
// in the order "all" expands to.
var cannedMachines = []struct {
	name  string
	build func() *machine.Machine
}{
	{"unified", machine.Unified},
	{"paper-4cluster", machine.Paper4Cluster},
	{"tight", machine.Tight},
}

// machinesByName resolves a comma-separated machine list. "all" expands
// to every canned configuration; an entry ending in .json is loaded and
// validated as a machine description file, so a malformed file fails
// the command with a clear message instead of a panic or empty report.
// A machine named twice is an error: the driver aggregates by name, so
// a repeat would silently fold two sweeps into one combo.
func machinesByName(spec string) ([]*machine.Machine, error) {
	if spec == "all" {
		out := make([]*machine.Machine, len(cannedMachines))
		for i, c := range cannedMachines {
			out[i] = c.build()
		}
		return out, nil
	}
	var out []*machine.Machine
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		m, err := machineByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("duplicate machine %q in %q", m.Name, spec)
		}
		seen[m.Name] = true
		out = append(out, m)
	}
	return out, nil
}

// machineByName resolves one machine list entry: a canned name or a
// .json machine description file.
func machineByName(name string) (*machine.Machine, error) {
	if strings.HasSuffix(name, ".json") {
		return machineFromFile(name)
	}
	names := make([]string, len(cannedMachines))
	for i, c := range cannedMachines {
		if c.name == name {
			return c.build(), nil
		}
		names[i] = c.name
	}
	return nil, fmt.Errorf("unknown machine %q (have: %s, all, or a .json file)", name, strings.Join(names, ", "))
}

// machineFromFile loads and validates one machine description from a
// JSON file, wrapping errors with the path so a malformed file fails
// with a clear message instead of a panic or an empty report.
func machineFromFile(path string) (*machine.Machine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("machine file %s: %w", path, err)
	}
	m, err := machine.FromJSON(data)
	if err != nil {
		return nil, fmt.Errorf("machine file %s: %w", path, err)
	}
	return m, nil
}

// backendsByName resolves a comma-separated backend list against the
// core registry. "all" expands to every registered backend; "portfolio"
// (the strategy-racing scheduler, core.Portfolio) and "opt" (the exact
// SAT backend, core.Opt with optBudget conflicts per candidate II) are
// resolvable by name but deliberately not part of "all" — the portfolio
// duplicates whichever strategy wins, and opt's role is the optimality
// yardstick, so sweeping either alongside the real backends would
// double-count without informing. A backend named twice is an error,
// for the same reason as a repeated machine.
func backendsByName(spec string, optBudget int64) ([]sched.Scheduler, error) {
	reg := core.Backends()
	if spec == "all" {
		return reg, nil
	}
	byName := map[string]sched.Scheduler{}
	for _, b := range reg {
		byName[b.Name()] = b
	}
	var out []sched.Scheduler
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		b, ok := byName[name]
		switch {
		case name == "portfolio":
			b = core.Portfolio()
		case name == "opt":
			b = core.Opt(optBudget)
		case !ok:
			return nil, fmt.Errorf("unknown backend %q (have: %s, opt, portfolio, all)", name, strings.Join(backendNames(reg), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate backend %q in %q", name, spec)
		}
		seen[name] = true
		out = append(out, b)
	}
	return out, nil
}

func backendNames(bs []sched.Scheduler) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name()
	}
	return out
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msched run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "generator master seed")
	n := fs.Int("n", 200, "number of generated loops")
	backends := fs.String("backends", "all", "comma-separated backends, or all")
	machines := fs.String("machines", "unified,paper-4cluster", "comma-separated machines, or all")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	probes := fs.Int("probes", 1, "parallel candidate-II probes per compilation (outputs stay byte-identical)")
	exec := fs.Bool("exec", false, "differentially execute every successful compilation (emitted bundles vs the sequential reference); any mismatch fails the run")
	timeout := fs.Duration("timeout", driver.DefaultTimeout, "per-compilation budget")
	budget := fs.Int64("budget", 0, "opt backend: conflict budget per candidate II (0 = default)")
	timing := fs.Bool("timing", false, "include wall-clock fields (breaks byte-determinism)")
	keep := fs.Bool("keep-outcomes", false, "retain every per-compilation outcome in the report")
	strict := fs.Bool("strict", false, "exit 1 if any compilation fails")
	out := fs.String("o", "", "write the full JSON report to this file")
	csvOut := fs.String("csv", "", "write baseline-style rows as CSV to this file")
	traceSlowest := fs.Int("trace-slowest", 0, "re-compile the N slowest loops with the flight recorder and write their trace artifacts (needs -trace-dir)")
	traceDir := fs.String("trace-dir", "", "directory for -trace-slowest artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*traceSlowest > 0) != (*traceDir != "") {
		fmt.Fprintln(stderr, "msched run: -trace-slowest and -trace-dir must be set together")
		return 2
	}
	bes, err := backendsByName(*backends, *budget)
	if err != nil {
		fmt.Fprintln(stderr, "msched run:", err)
		return 2
	}
	ms, err := machinesByName(*machines)
	if err != nil {
		fmt.Fprintln(stderr, "msched run:", err)
		return 2
	}
	spec := driver.Spec{
		Corpus:   fmt.Sprintf("gen:seed=%d,n=%d", *seed, *n),
		Loops:    gen.Corpus(*seed, *n),
		Backends: bes,
		Machines: ms,
	}
	rep := driver.Run(spec, driver.Options{
		Workers: *workers, Timeout: *timeout, Timing: *timing, KeepOutcomes: *keep,
		TraceSlowest: *traceSlowest, TraceDir: *traceDir, Probes: *probes, Exec: *exec,
	})
	printSummary(stdout, rep)
	if rep.TraceErr != "" {
		fmt.Fprintln(stderr, "msched run: trace sampling:", rep.TraceErr)
		return 1
	}
	for _, name := range rep.TraceArtifacts {
		fmt.Fprintf(stdout, "trace artifact: %s\n", name)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "msched run: marshal report:", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "msched run:", err)
			return 1
		}
	}
	if *csvOut != "" {
		f := &report.File{Rows: rep.Rows()}
		if err := os.WriteFile(*csvOut, []byte(f.CSV()), 0o644); err != nil {
			fmt.Fprintln(stderr, "msched run:", err)
			return 1
		}
	}
	if *exec {
		executed, execFailed := 0, 0
		for i := range rep.Combos {
			executed += rep.Combos[i].Executed
			execFailed += rep.Combos[i].ExecFailed
		}
		fmt.Fprintf(stdout, "exec-verify: %d compilations executed differentially, %d mismatches\n", executed, execFailed)
		if len(rep.ExecFailures) > 0 {
			fmt.Fprintf(stderr, "msched run: %d compilation(s) executed to a state that differs from the sequential reference\n", len(rep.ExecFailures))
			return 1
		}
	}
	if *strict && rep.Failures > 0 {
		fmt.Fprintf(stderr, "msched run: %d of %d compilations failed (strict mode)\n", rep.Failures, rep.Jobs)
		return 1
	}
	return 0
}

// printSummary renders the paper-style aggregate table for humans.
func printSummary(w io.Writer, rep *driver.Report) {
	fmt.Fprintf(w, "corpus %s: %d loops x %d backend-machine combos = %d compilations, %d failures\n",
		rep.Corpus, rep.Loops, len(rep.Combos), rep.Jobs, rep.Failures)
	fmt.Fprintf(w, "%-6s %-15s %9s %7s %7s %9s %9s %11s\n",
		"bcknd", "machine", "compiled", "at-MII", "fit", "sum II", "maxlive", "spills st/ld")
	for i := range rep.Combos {
		c := &rep.Combos[i]
		fmt.Fprintf(w, "%-6s %-15s %5d/%-3d %6.0f%% %6.0f%% %9d %9d %7d/%d\n",
			c.Backend, c.Machine, c.Compiled, c.Loops,
			pct(c.AtMII, c.Compiled), 100*c.FitRate(), c.SumII, c.SumMaxLive,
			c.SpillStores, c.SpillLoads)
	}
	if rep.ElapsedSeconds > 0 {
		fmt.Fprintf(w, "wall clock %.2fs, %.0f compilations/sec across %d workers\n",
			rep.ElapsedSeconds, rep.LoopsPerSec, rep.Workers)
		fmt.Fprintf(w, "per-compilation latency p50 %dus p99 %dus", rep.P50Micros, rep.P99Micros)
		if rep.Probes > 1 {
			fmt.Fprintf(w, " (probes %d: %d launched, %d cancelled)", rep.Probes, rep.ProbesLaunched, rep.ProbesCancelled)
		}
		fmt.Fprintln(w)
	}
	for _, o := range rep.Outcomes {
		if o.Err != "" {
			// First line only: panics carry a trimmed stack the JSON keeps.
			msg := o.Err
			if i := strings.IndexByte(msg, '\n'); i >= 0 {
				msg = msg[:i] + " ..."
			}
			fmt.Fprintf(w, "FAIL %s [%s x %s]: %s\n", o.Loop, o.Backend, o.Machine, msg)
		}
		if o.ExecErr != "" {
			fmt.Fprintf(w, "EXEC MISMATCH %s [%s x %s]: %s\n", o.Loop, o.Backend, o.Machine, o.ExecErr)
		}
	}
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func cmdGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msched gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "generator master seed")
	n := fs.Int("n", 3, "number of loops to print")
	corner := fs.String("corner", "", "single knob corner to use (default: cycle all)")
	asJSON := fs.Bool("json", false, "emit loops as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var loops []*ir.Loop
	if *corner != "" {
		var k gen.Knobs
		found := false
		for _, c := range gen.Corners() {
			if c.Tag == *corner {
				k, found = c, true
				break
			}
		}
		if !found {
			tags := []string{}
			for _, c := range gen.Corners() {
				tags = append(tags, c.Tag)
			}
			fmt.Fprintf(stderr, "msched gen: unknown corner %q (have: %s)\n", *corner, strings.Join(tags, ", "))
			return 2
		}
		loops = gen.CornerCorpus(*seed, *n, k)
	} else {
		loops = gen.Corpus(*seed, *n)
	}
	if *asJSON {
		data, err := json.MarshalIndent(loops, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "msched gen:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}
	for _, l := range loops {
		fmt.Fprintf(stdout, "loop %s (%d instrs):\n", l.Name, l.NumInstrs())
		for _, in := range l.Instrs {
			fmt.Fprintf(stdout, "  %2d: %s\n", in.ID, in.String())
		}
	}
	return 0
}

// gateRows recomputes the baseline-gated quality rows: the hand-written
// example corpus plus a pinned generated population, across every
// registered backend and every canned machine, untimed — fully
// deterministic in (seed, n). failures counts compilations that errored
// out; the gate corpus must compile clean, so callers treat a nonzero
// count as a failure in its own right rather than letting a shrunken
// population be baselined away (or misread as "baseline stale").
func gateRows(seed uint64, n, workers int, timeout time.Duration, stderr io.Writer) (rows *report.File, failures int) {
	machines, _ := machinesByName("all")
	opts := driver.Options{Workers: workers, Timeout: timeout}
	rows = &report.File{}
	for _, spec := range []driver.Spec{
		{Corpus: "examples", Loops: ir.ExampleLoops(), Backends: core.Backends(), Machines: machines},
		{Corpus: fmt.Sprintf("gen:seed=%d,n=%d", seed, n), Loops: gen.Corpus(seed, n), Backends: core.Backends(), Machines: machines},
	} {
		rep := driver.Run(spec, opts)
		failures += rep.Failures
		for _, o := range rep.Outcomes {
			if o.Err != "" {
				fmt.Fprintf(stderr, "msched compare: %s [%s x %s]: %s\n", o.Loop, o.Backend, o.Machine, o.Err)
			}
		}
		rows.Rows = append(rows.Rows, rep.Rows()...)
	}
	return rows, failures
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msched compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "BENCH_baseline.json", "baseline rows to gate against")
	update := fs.Bool("update-baseline", false, "rewrite the baseline(s) from current results instead of gating")
	seed := fs.Uint64("seed", 1, "generated-population seed (must match the baseline's)")
	n := fs.Int("n", 120, "generated-population size (must match the baseline's)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", driver.DefaultTimeout, "per-compilation budget")
	noPerf := fs.Bool("no-perf", false, "skip the benchmarked perf:examples rows (allocs/op gate)")
	gap := fs.Bool("gap", false, "also build the optimality-gap table (opt vs mirs) and gate it vs -gap-baseline")
	gapOnly := fs.Bool("gap-only", false, "run only the gap pipeline, skipping the quality and perf gates (implies -gap)")
	gapBaseline := fs.String("gap-baseline", "GAP_baseline.json", "gap baseline to gate against")
	gapOut := fs.String("gap-o", "", "write the gap artifact JSON to this file")
	gapSeed := fs.Uint64("gap-seed", 1, "gap-corpus seed (must match the gap baseline's)")
	gapN := fs.Int("gap-n", 24, "gap-corpus size (must match the gap baseline's)")
	gapMaxOps := fs.Int("gap-max-ops", 12, "gap-corpus loop size bound in instructions")
	budget := fs.Int64("budget", 0, "opt backend: conflict budget per candidate II (0 = default)")
	oracleDir := fs.String("oracle-dir", "", "write minimised regression seeds for loops opt schedules but mirs fails")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *gapOnly {
		*gap = true
	}
	if !*gap && (*gapOut != "" || *oracleDir != "") {
		fmt.Fprintln(stderr, "msched compare: -gap-o and -oracle-dir need -gap (or -gap-only)")
		return 2
	}
	if !*gapOnly && *noPerf && *update {
		// Refreshing the baseline without perf rows would silently strip
		// them and disable the allocs/op gate for every later run.
		fmt.Fprintln(stderr, "msched compare: -no-perf cannot be combined with -update-baseline (it would drop the perf rows from the baseline)")
		return 2
	}
	if !*gapOnly {
		current, failed := gateRows(*seed, *n, *workers, *timeout, stderr)
		if failed > 0 {
			fmt.Fprintf(stderr, "msched compare: %d gate-corpus compilation(s) failed — fix the backends before gating or refreshing the baseline\n", failed)
			return 1
		}
		if !*noPerf {
			pf, err := perfRows()
			if err != nil {
				fmt.Fprintf(stderr, "msched compare: perf measurement: %v\n", err)
				return 1
			}
			current.Rows = append(current.Rows, pf.Rows...)
		}
		if *update {
			if err := current.WriteFile(*baseline); err != nil {
				fmt.Fprintln(stderr, "msched compare:", err)
				return 1
			}
			fmt.Fprintf(stdout, "baseline %s updated: %d rows\n", *baseline, len(current.Rows))
		} else {
			base, err := report.ReadFile(*baseline)
			if err != nil {
				fmt.Fprintf(stderr, "msched compare: %v\n(run 'msched compare -update-baseline' to create it)\n", err)
				return 1
			}
			if *noPerf {
				// The perf rows were not measured this run; drop them from the
				// baseline too so they do not read as missing regressions.
				kept := base.Rows[:0]
				for _, r := range base.Rows {
					if !strings.HasPrefix(r.Corpus, "perf:") {
						kept = append(kept, r)
					}
				}
				base.Rows = kept
			}
			regs, unbaselined := report.Compare(base, current)
			for _, u := range unbaselined {
				fmt.Fprintf(stdout, "note: %s has no baseline row yet (refresh with -update-baseline)\n", u)
			}
			if len(regs) > 0 {
				for _, r := range regs {
					fmt.Fprintln(stderr, "REGRESSION:", r)
				}
				fmt.Fprintf(stderr, "msched compare: %d quality regression(s) vs %s\n", len(regs), *baseline)
				return 1
			}
			fmt.Fprintf(stdout, "quality gate clean: %d rows no worse than %s\n", len(base.Rows), *baseline)
		}
	}
	if *gap {
		return compareGap(stdout, stderr, gapParams{
			baseline: *gapBaseline, update: *update, out: *gapOut,
			seed: *gapSeed, n: *gapN, maxOps: *gapMaxOps,
			budget: *budget, workers: *workers, timeout: *timeout,
			oracleDir: *oracleDir,
		})
	}
	return 0
}

// gapParams carries the -gap* flag values into compareGap.
type gapParams struct {
	baseline  string
	update    bool
	out       string
	seed      uint64
	n, maxOps int
	budget    int64
	workers   int
	timeout   time.Duration
	oracleDir string
}

// compareGap builds the optimality-gap table — the exact backend vs
// MIRS over the seeded small-loop corpus — prints it, optionally writes
// the artifact and the oracle regression seeds, and gates (or
// refreshes) the gap baseline.
func compareGap(stdout, stderr io.Writer, p gapParams) int {
	corpus := fmt.Sprintf("gap:seed=%d,n=%d,max-ops=%d", p.seed, p.n, p.maxOps)
	loops := driver.GapCorpus(p.seed, p.n, p.maxOps)
	if len(loops) < p.n {
		fmt.Fprintf(stderr, "msched compare: gap corpus came up short (%d of %d loops within %d ops)\n", len(loops), p.n, p.maxOps)
		return 1
	}
	ms, _ := machinesByName("all")
	gf := driver.RunGap(corpus, loops, ms, driver.GapOptions{Budget: p.budget, Workers: p.workers, Timeout: p.timeout})
	printGapTable(stdout, gf)
	if p.out != "" {
		if err := gf.WriteFile(p.out); err != nil {
			fmt.Fprintln(stderr, "msched compare:", err)
			return 1
		}
	}
	if p.oracleDir != "" {
		findings := oracle.FromGap(gf, loops, ms, p.budget, p.timeout)
		names, err := oracle.WriteSeeds(p.oracleDir, findings)
		if err != nil {
			fmt.Fprintln(stderr, "msched compare: oracle:", err)
			return 1
		}
		for _, name := range names {
			fmt.Fprintf(stdout, "oracle seed: %s (opt schedules it, mirs fails)\n", name)
		}
		if len(names) == 0 {
			fmt.Fprintln(stdout, "oracle sweep: no loops where opt fits and mirs fails")
		}
	}
	if p.update {
		if err := gf.WriteFile(p.baseline); err != nil {
			fmt.Fprintln(stderr, "msched compare:", err)
			return 1
		}
		fmt.Fprintf(stdout, "gap baseline %s updated: %d rows\n", p.baseline, len(gf.Rows))
		return 0
	}
	base, err := report.ReadGapFile(p.baseline)
	if err != nil {
		fmt.Fprintf(stderr, "msched compare: %v\n(run 'msched compare -gap -update-baseline' to create it)\n", err)
		return 1
	}
	if v := report.CompareGap(base, gf); len(v) > 0 {
		for _, s := range v {
			fmt.Fprintln(stderr, "GAP REGRESSION:", s)
		}
		fmt.Fprintf(stderr, "msched compare: %d gap regression(s) vs %s\n", len(v), p.baseline)
		return 1
	}
	fmt.Fprintf(stdout, "gap gate clean: %d rows no worse than %s\n", len(gf.Rows), p.baseline)
	return 0
}

// printGapTable renders the per-loop gap table and its aggregate for
// humans: opt's proved optimum (▲ marks an unproven, merely feasible
// II) against MIRS, with the gap columns where a gap is defined.
func printGapTable(w io.Writer, f *report.GapFile) {
	s := f.Summary
	fmt.Fprintf(w, "optimality gap (%s, budget %d): %d rows — %d proved (%d above MII), %d feasible, %d opt-failed, %d mirs-failed\n",
		f.Corpus, f.Budget, s.Rows, s.Proved, s.ProvedAboveMII, s.Feasible, s.OptFailed, s.MirsFailed)
	fmt.Fprintf(w, "%-20s %-15s %3s %4s %7s %5s %6s %7s\n",
		"loop", "machine", "ops", "MII", "opt II", "mirs", "II-gap", "ML-gap")
	for _, r := range f.Rows {
		opt := "-"
		switch {
		case r.Proved:
			opt = fmt.Sprintf("%d", r.OptII)
		case r.OptII > 0:
			opt = fmt.Sprintf("%d?", r.OptII)
		}
		mirs, iiGap, mlGap := "-", "-", "-"
		if r.MirsErr == "" && r.MirsII > 0 {
			mirs = fmt.Sprintf("%d", r.MirsII)
		}
		if r.Proved && r.MirsII > 0 {
			iiGap = fmt.Sprintf("%+d", r.IIGap)
			mlGap = fmt.Sprintf("%+d", r.MaxLiveGap)
		}
		fmt.Fprintf(w, "%-20s %-15s %3d %4d %7s %5s %6s %7s\n",
			r.Loop, r.Machine, r.Ops, r.MII, opt, mirs, iiGap, mlGap)
	}
	if s.GapRows > 0 {
		fmt.Fprintf(w, "aggregate over %d gap rows: ΣII-gap %+d (max %+d), ΣMaxLive-gap %+d\n",
			s.GapRows, s.SumIIGap, s.MaxIIGap, s.SumMaxLiveGap)
	}
}
