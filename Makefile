# Convenience targets for the workflows README.md documents. Everything
# here is a thin wrapper over go / msched invocations, so CI and humans
# run the identical commands.

.PHONY: all build test race bench bench-e2e profile compare baseline trace exec lint fmt

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Placement-path benchmark (graph and MII prebuilt, so allocs/op
# isolates the scheduler hot path the zero-allocation claim covers),
# then MIRS on the register-starved machine over the generated loops
# that spill there (the spill path), then the front end both skip
# (graph build and MII over a generated corpus), then differential
# execution of emitted programs on pkg/vm, then the exact backend (CNF
# building + CDCL search) over the gap grid, then lowering of expanded
# kernels to bundles. Allocations per full-pipeline compile are pinned
# by TestCompileAllocs, per spilling schedule by TestSpillPathAllocs,
# per loop of the front end by TestFrontEndAllocs, per opt grid pass by
# TestOptAllocs, per oracle pass by TestVerifyAllocs, per emit pass by
# TestEmitAllocs and per expansion by TestExpandAllocs in `make test`;
# end-to-end numbers come from `make bench-e2e`.
bench:
	go test -run '^$$' -bench '^(BenchmarkPlacement)$$' -benchmem ./internal/core/
	go test -run '^$$' -bench '^(BenchmarkSpillPath)$$' -benchmem ./pkg/mirs/
	go test -run '^$$' -bench '^(BenchmarkFrontEnd)$$' -benchmem ./pkg/sched/
	go test -run '^$$' -bench '^(BenchmarkVerifyProgram)$$' -benchmem ./pkg/vm/
	go test -run '^$$' -bench '^(BenchmarkOptSchedule)$$' -benchmem ./pkg/opt/
	go test -run '^$$' -bench '^(BenchmarkEmit)$$' -benchmem ./pkg/emit/

# The benchmark module (bench/): its unit tests, then one quick pass
# over every workload. bench/ is a nested module, so `go test ./...`
# never compiles it — this is what catches a break in the public API
# its hand-written Prober driver (bench/pipeline.go) uses. CI gates on
# the same two commands.
bench-e2e:
	cd bench && go test ./...
	bash bench/run.sh -workload all -seed 1 -quick

# Capture CPU + allocation pprof profiles from the six benchmarks;
# inspect with `go tool pprof sched_cpu.pprof` (see README "Performance
# & profiling").
profile:
	go test -run '^$$' -bench '^(BenchmarkPlacement)$$' -benchmem \
		-cpuprofile sched_cpu.pprof -memprofile sched_mem.pprof ./internal/core/
	go test -run '^$$' -bench '^(BenchmarkSpillPath)$$' -benchmem \
		-cpuprofile spill_cpu.pprof -memprofile spill_mem.pprof ./pkg/mirs/
	go test -run '^$$' -bench '^(BenchmarkFrontEnd)$$' -benchmem \
		-cpuprofile frontend_cpu.pprof -memprofile frontend_mem.pprof ./pkg/sched/
	go test -run '^$$' -bench '^(BenchmarkVerifyProgram)$$' -benchmem \
		-cpuprofile vm_cpu.pprof -memprofile vm_mem.pprof ./pkg/vm/
	go test -run '^$$' -bench '^(BenchmarkOptSchedule)$$' -benchmem \
		-cpuprofile opt_cpu.pprof -memprofile opt_mem.pprof ./pkg/opt/
	go test -run '^$$' -bench '^(BenchmarkEmit)$$' -benchmem \
		-cpuprofile emit_cpu.pprof -memprofile emit_mem.pprof ./pkg/emit/
	@echo "profiles: sched_cpu.pprof sched_mem.pprof spill_cpu.pprof spill_mem.pprof frontend_cpu.pprof frontend_mem.pprof vm_cpu.pprof vm_mem.pprof opt_cpu.pprof opt_mem.pprof emit_cpu.pprof emit_mem.pprof (go tool pprof <file>)"

# The one gate, the same command CI runs: compile and differentially
# execute the gate corpora, build the optimality-gap table, and fail on
# any compile failure, execution mismatch, or ΣII / ΣMaxLive / Σcycles /
# Σbundles / gap regression vs BENCH_baseline.json and GAP_baseline.json.
compare:
	go run ./cmd/msched compare

# Refresh BENCH_baseline.json and GAP_baseline.json after an intentional
# quality or code change; commit the result.
baseline:
	go run ./cmd/msched compare -update-baseline

# Explain one schedule: compile a register-starved seeded loop with the
# flight recorder attached and print the "why this II" report (see
# README "Observability"; -chrome/-profile export the raw artifacts).
trace:
	go run ./cmd/msched trace -seed 1 -i 7 -machine tight

# Explain one execution: compile a spill-heavy example loop, emit its
# VLIW bundles and differentially execute them against the sequential
# reference, printing the listing and the verdicts (see README
# "Execution & verification"). `make compare` executes every gate
# corpus this way.
exec:
	go run ./cmd/msched exec -loop fir8 -machine tight

lint:
	golangci-lint run

fmt:
	gofmt -l -w .
