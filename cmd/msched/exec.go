package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// cmdExec is the execution explainer: it compiles one loop, lowers the
// expanded kernel to architectural bundles (pkg/emit), and runs the
// differential oracle (pkg/vm) — the sequential reference against the
// pipelined MVE plan and the predicated kernel at several trip counts —
// printing the bundle listing, the per-plan verdicts, and the realised
// speedup. It is the single-compilation view of the differential
// execution `msched compare` runs over every gate corpus, and the first
// stop when that gate reports an EXEC MISMATCH: pass the named loop,
// backend and machine here.
func cmdExec(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msched exec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	loopName := fs.String("loop", "", "example or gap-corpus loop to execute (by name; see 'msched trace -list' and gap.json)")
	seed := fs.Uint64("seed", 1, "generator master seed (used when -loop is empty)")
	index := fs.Int("i", 0, "index of the generated loop to execute")
	backend := fs.String("backend", "mirs", "scheduler backend")
	machineSpec := fs.String("machine", "unified", "machine to compile for (canned name or .json file)")
	budget := fs.Int64("budget", 0, "opt backend: conflict budget per candidate II (0 = default)")
	timeout := fs.Duration("timeout", driver.DefaultTimeout, "compilation budget")
	trips := fs.String("trips", "", "extra comma-separated trip counts for the predicated plan (at most vm.MaxTrip each)")
	listing := fs.Int("listing", 12, "bundles of the emitted program to print (0 = none)")
	execSeed := fs.Uint64("exec-seed", 0, "oracle seed (0 = the per-loop seed `msched run` and `compare` use)")
	if !parseArgs(fs, args) {
		return 2
	}
	if rejectOutOfRange(stderr, "msched exec", flagRange{"budget", ">= 0", *budget < 0},
		flagRange{"timeout", "> 0", *timeout <= 0}, flagRange{"listing", ">= 0", *listing < 0}) {
		return 2
	}
	loop, err := traceLoop(*loopName, *seed, *index)
	if err != nil {
		fmt.Fprintln(stderr, "msched exec:", err)
		return 2
	}
	bes, err := backendsByName(*backend, *budget)
	if err != nil || len(bes) != 1 {
		fmt.Fprintf(stderr, "msched exec: -backend must name exactly one backend: %v\n", err)
		return 2
	}
	ms, err := machinesByName(*machineSpec)
	if err != nil || len(ms) != 1 {
		fmt.Fprintf(stderr, "msched exec: -machine must name exactly one machine: %v\n", err)
		return 2
	}
	var predTrips []int
	if *trips != "" {
		for _, s := range strings.Split(*trips, ",") {
			t, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || t < 1 || t > vm.MaxTrip {
				fmt.Fprintf(stderr, "msched exec: -trips wants integers in [1, %d], got %q\n", vm.MaxTrip, s)
				return 2
			}
			predTrips = append(predTrips, t)
		}
	}
	be, m := bes[0], ms[0]

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	r, err := core.CompileWithOpts(ctx, be, loop, m, core.Opts{})
	if err != nil {
		fmt.Fprintf(stderr, "msched exec: compiling %s on %s with %s: %v\n", loop.Name, m.Name, be.Name(), err)
		return 1
	}

	prog, err := emit.Emit(r.Expanded)
	if err != nil {
		fmt.Fprintf(stderr, "msched exec: emitting %s: %v\n", loop.Name, err)
		return 1
	}
	oseed := *execSeed
	if oseed == 0 {
		oseed = core.ExecSeed(loop.Name)
	}
	rep, err := vm.VerifyProgram(r.Expanded, prog, vm.Options{Seed: oseed, PredTrips: predTrips})
	if err != nil {
		fmt.Fprintf(stderr, "msched exec: executing %s: %v\n", loop.Name, err)
		return 1
	}

	fmt.Fprintf(stdout, "schedule: %s\n", r.Summary())
	if *listing > 0 {
		fmt.Fprint(stdout, prog.Listing(*listing))
	}
	fmt.Fprintf(stdout, "predicated trips executed: %s\n", tripList(rep.Trips))
	fmt.Fprintln(stdout, rep.String())
	if !rep.OK() {
		return 1
	}
	return 0
}

func tripList(trips []int) string {
	parts := make([]string, len(trips))
	for i, t := range trips {
		parts[i] = strconv.Itoa(t)
	}
	return strings.Join(parts, ", ")
}
