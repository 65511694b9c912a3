// Command msched is the batch front-end of the modulo-scheduling stack:
// it generates seed-keyed loop populations (pkg/gen), compiles them
// concurrently across scheduler backends and machine configurations
// (internal/driver), differentially executes every compilation, and
// emits the aggregate quality tables as JSON — the same artifact CI
// gates on and humans read.
//
//	msched run     -seed 1 -n 200 [-timing] [-o report.json]
//	msched gen     -seed 1 -n 3 [-corner pressure] [-json]
//	msched compare [-update-baseline] [-o dir]
//	msched trace   -seed 1 -i 7 -machine tight [-chrome trace.json]
//	msched exec    -loop fir8 -machine tight [-backend mirs]
//
// `run` sweeps a generated population over backends × machines,
// executes every compilation's emitted code against the sequential
// reference, and reports II/MII distributions, spill traffic, fit
// rates, executed cycles and throughput. Any compile failure, timeout
// or execution mismatch makes the exit status 1, after the report is
// written. Without -timing the report is byte-deterministic in (seed,
// n, grid) — the CI determinism smoke runs it twice and diffs.
//
// `gen` prints generated loops for eyeballing and for reducing driver
// findings to standalone repro cases.
//
// `compare` is the one gate. In one sweep it compiles the gate rows
// (examples corpus + a pinned generated population, every backend ×
// canned machine) and the small-loop gap corpus (exact backend and
// MIRS × canned machine), executes every compilation differentially,
// and joins the gap corpus into the optimality-gap table. Any compile
// failure, timeout or execution mismatch fails it (exit 1), and so does
// any byte of the quality rows or the gap table that differs from
// BENCH_baseline.json or GAP_baseline.json, in either direction; the
// failure names every moved row and field. -update-baseline rewrites
// both files instead, printing the same diff — the one-command local
// refresh after an intentional change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/internal/report"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func main() { os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr)) }

// Main is the testable entry point: it dispatches the subcommand and
// returns the process exit code (0 ok, 1 compile, execution or gate
// failure, 2 usage).
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

  run       generate a loop population, batch-compile and execute it
            across backends x machines; emit aggregate quality tables
            (exit 1 on any compile failure or execution mismatch)
  gen       print generated loops
  compare   compile, execute and gate the quality, cycle and optimality-gap
            rows on byte identity with BENCH_baseline.json and
            GAP_baseline.json (-update-baseline to refresh both)
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
// core registry. "all" expands to every registered backend; "opt" (the
// exact SAT backend, core.Opt with budget conflicts per candidate II) is
// resolvable by name but deliberately not part of "all" — its role is
// the optimality yardstick, so sweeping it alongside the heuristic
// backends would double-count without informing. A backend named twice
// is an error, for the same reason as a repeated machine.
func backendsByName(spec string, budget int64) ([]sched.Scheduler, error) {
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
		case name == "opt":
			b = core.Opt(budget)
		case !ok:
			return nil, fmt.Errorf("unknown backend %q (have: %s, opt, all)", name, strings.Join(backendNames(reg), ", "))
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

// parseArgs parses a subcommand's flags and rejects a leftover
// argument: flag stops at the first positional one, so a stray word
// would otherwise silently drop every flag after it. Errors go to the
// flag set's output; false means exit 2.
func parseArgs(fs *flag.FlagSet, args []string) bool {
	if err := fs.Parse(args); err != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return false
	}
	return true
}

// flagRange names a numeric flag, the range its value must lie in —
// ">= 0" where zero means "default", "> 0" for a time budget — and
// whether it lies outside.
type flagRange struct {
	name, want string
	bad        bool
}

// rejectOutOfRange reports the first out-of-range flag as "-X must be
// >= 0" (or "> 0") and returns true.
func rejectOutOfRange(stderr io.Writer, cmd string, flags ...flagRange) bool {
	for _, f := range flags {
		if f.bad {
			fmt.Fprintf(stderr, "%s: -%s must be %s\n", cmd, f.name, f.want)
			return true
		}
	}
	return false
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msched run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "generator master seed")
	n := fs.Int("n", 200, "number of generated loops")
	backends := fs.String("backends", "all", "comma-separated backends, or all")
	machines := fs.String("machines", "unified,paper-4cluster", "comma-separated machines, or all")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", driver.DefaultTimeout, "per-compilation budget")
	budget := fs.Int64("budget", 0, "opt backend: conflict budget per candidate II (0 = default)")
	timing := fs.Bool("timing", false, "include wall-clock fields (breaks byte-determinism)")
	out := fs.String("o", "", "write the full JSON report, every outcome included, to this file")
	if !parseArgs(fs, args) {
		return 2
	}
	if rejectOutOfRange(stderr, "msched run", flagRange{"n", ">= 0", *n < 0}, flagRange{"workers", ">= 0", *workers < 0},
		flagRange{"timeout", "> 0", *timeout <= 0}, flagRange{"budget", ">= 0", *budget < 0}) {
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
	rep := driver.Run(spec, driver.Options{Workers: *workers, Timeout: *timeout, Timing: *timing})
	printSummary(stdout, rep)
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
	if failed := rep.Failures + printExecVerify(stdout, rep); failed > 0 {
		fmt.Fprintf(stderr, "msched run: %d of %d compilations failed to compile or execute clean\n", failed, rep.Jobs)
		return 1
	}
	return 0
}

// printExecVerify prints the differential-execution tally of reps —
// the driver executes every compiled loop — and returns the number of
// execution mismatches.
func printExecVerify(w io.Writer, reps ...*driver.Report) (mismatches int) {
	executed := 0
	for _, rep := range reps {
		for _, c := range rep.Combos {
			executed += c.Compiled
		}
		mismatches += len(rep.ExecFailures)
	}
	fmt.Fprintf(w, "exec-verify: %d compilations executed differentially, %d mismatches\n", executed, mismatches)
	return mismatches
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
		fmt.Fprintf(w, "per-compilation latency p50 %dus p99 %dus\n", rep.P50Micros, rep.P99Micros)
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
	if !parseArgs(fs, args) {
		return 2
	}
	if rejectOutOfRange(stderr, "msched gen", flagRange{"n", ">= 0", *n < 0}) {
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

// gateSpec pins the corpora `compare` gates. Each value is part of its
// baseline's identity (the corpus labels embed them), so they are
// constants of the gate (defaultGate) rather than flags; tests pass a
// smaller spec to runCompare.
type gateSpec struct {
	seed            uint64 // generated population: gen.Corpus(seed, n)
	n               int
	gapSeed         uint64 // gap population: driver.GapCorpus(gapSeed, gapN, gapMaxOps)
	gapN, gapMaxOps int
}

var defaultGate = gateSpec{seed: 1, n: 120, gapSeed: 1, gapN: 24, gapMaxOps: 12}

// corpora returns the gate's sweeps, each across every canned machine:
// the hand-written example corpus and the pinned generated population
// over every registered backend (the baseline-gated rows), then the gap
// population over the exact backend and MIRS — always last. It fails
// when the gap population comes up short of gapN loops.
func (g gateSpec) corpora() ([]driver.Spec, error) {
	machines, _ := machinesByName("all")
	gap := driver.GapCorpus(g.gapSeed, g.gapN, g.gapMaxOps)
	if len(gap) < g.gapN {
		return nil, fmt.Errorf("gap corpus came up short (%d of %d loops within %d ops)", len(gap), g.gapN, g.gapMaxOps)
	}
	return []driver.Spec{
		{Corpus: "examples", Loops: ir.ExampleLoops(), Backends: core.Backends(), Machines: machines},
		{Corpus: fmt.Sprintf("gen:seed=%d,n=%d", g.seed, g.n), Loops: gen.Corpus(g.seed, g.n), Backends: core.Backends(), Machines: machines},
		{Corpus: fmt.Sprintf("gap:seed=%d,n=%d,max-ops=%d", g.gapSeed, g.gapN, g.gapMaxOps), Loops: gap, Backends: []sched.Scheduler{core.Opt(0), mirs.New()}, Machines: machines},
	}, nil
}

// sweep compiles and differentially executes every gate corpus, in
// order, and returns their reports. failures counts compilations that
// errored out, timed out or executed to a state that differs from the
// sequential reference: the gate corpora must compile and execute
// clean, so callers treat any failure as one in its own right rather
// than letting a shrunken population be baselined away (or drop out of
// the gap sums).
func sweep(corpora []driver.Spec, stdout, stderr io.Writer) (reps []*driver.Report, failures int) {
	for _, spec := range corpora {
		rep := driver.Run(spec, driver.Options{})
		failures += rep.Failures
		for _, o := range rep.Outcomes {
			if o.Err != "" {
				fmt.Fprintf(stderr, "msched compare: %s [%s x %s]: %s\n", o.Loop, o.Backend, o.Machine, o.Err)
			}
			if o.ExecErr != "" {
				fmt.Fprintf(stderr, "msched compare: EXEC MISMATCH %s [%s x %s]: %s\n", o.Loop, o.Backend, o.Machine, o.ExecErr)
			}
		}
		reps = append(reps, rep)
	}
	return reps, failures + printExecVerify(stdout, reps...)
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	corpora, err := defaultGate.corpora()
	if err != nil {
		fmt.Fprintln(stderr, "msched compare:", err)
		return 1
	}
	return runCompare(corpora, args, stdout, stderr)
}

// runCompare is the one gate. In a single sweep it compiles and
// executes the gate corpora (gateSpec.corpora; the gap corpus last),
// fails on any failure among them, joins the gap corpus into the
// optimality-gap table and then either requires the rows and the table
// to equal their baselines byte for byte, printing report.Diff's lines
// where they do not, or (-update-baseline) rewrites them.
func runCompare(corpora []driver.Spec, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msched compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "BENCH_baseline.json", "quality and cycle rows to gate against")
	gapBaseline := fs.String("gap-baseline", "GAP_baseline.json", "optimality-gap table to gate against")
	update := fs.Bool("update-baseline", false, "rewrite both baselines from current results instead of gating")
	outDir := fs.String("o", "", "write the current artifacts (bench.json, gap.json) into this directory")
	if !parseArgs(fs, args) {
		return 2
	}

	reps, failed := sweep(corpora, stdout, stderr)
	if failed > 0 {
		fmt.Fprintf(stderr, "msched compare: %d gate-corpus compilation(s) failed to compile or execute clean — fix the backends before gating or refreshing the baseline\n", failed)
		return 1
	}
	last := len(reps) - 1
	current := &report.File{}
	for _, rep := range reps[:last] {
		current.Rows = append(current.Rows, rep.Rows()...)
	}
	gf := driver.RunGap(reps[last], corpora[last].Loops)
	printGapTable(stdout, gf)
	if *outDir != "" {
		if err := writeArtifacts(*outDir, current, gf); err != nil {
			fmt.Fprintln(stderr, "msched compare:", err)
			return 1
		}
	}

	gate := []struct {
		path string
		art  report.Artifact
	}{{*baseline, current}, {*gapBaseline, gf}}
	if *update {
		for _, g := range gate {
			// A refresh prints what it changes, so the diff can go into
			// the commit that carries the new baseline.
			if old, err := os.ReadFile(g.path); err == nil {
				lines, err := report.Diff(old, g.art)
				printDiff(stdout, "updating "+g.path, lines, err)
			}
			if err := g.art.WriteFile(g.path); err != nil {
				fmt.Fprintln(stderr, "msched compare:", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "baselines updated: %s (%d rows), %s (%d rows)\n", *baseline, len(current.Rows), *gapBaseline, len(gf.Rows))
		return 0
	}
	differ := 0
	for _, g := range gate {
		old, err := os.ReadFile(g.path)
		if err != nil {
			fmt.Fprintf(stderr, "msched compare: %v\n(run 'msched compare -update-baseline' to create it)\n", err)
			return 1
		}
		if lines, err := report.Diff(old, g.art); err != nil || len(lines) > 0 {
			printDiff(stderr, "msched compare: "+g.path+" differs from this run", lines, err)
			differ++
		}
	}
	if differ > 0 {
		fmt.Fprintf(stderr, "msched compare: %d baseline(s) differ; if the change is intended, refresh with -update-baseline and record the diff\n", differ)
		return 1
	}
	fmt.Fprintf(stdout, "gate clean: %s (%d rows) and %s (%d rows) match this run byte for byte\n", *baseline, len(current.Rows), *gapBaseline, len(gf.Rows))
	return 0
}

// printDiff prints report.Diff's lines under a title, as "baseline ->
// current", or the error Diff returned.
func printDiff(w io.Writer, title string, lines []string, err error) {
	if err != nil {
		fmt.Fprintf(w, "%s: %v\n", title, err)
		return
	}
	if len(lines) > 0 {
		fmt.Fprintf(w, "%s (baseline -> current):\n", title)
	}
	for _, l := range lines {
		fmt.Fprintln(w, "  "+l)
	}
}

// writeArtifacts writes compare's current results into dir as
// bench.json and gap.json, in their baselines' byte layout.
func writeArtifacts(dir string, rows *report.File, gf *report.GapFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := rows.WriteFile(filepath.Join(dir, "bench.json")); err != nil {
		return err
	}
	return gf.WriteFile(filepath.Join(dir, "gap.json"))
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
