# Convenience targets for the workflows README.md documents. Everything
# here is a thin wrapper over go / msched invocations, so CI and humans
# run the identical commands.

.PHONY: all build test race bench bench-placement bench-parallel bench-e2e profile compare baseline trace exec lint fmt

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Full-pipeline benchmark (graph build + schedule + analysis + MVE) with
# allocation counts; writes BENCH_results.json next to the package.
bench:
	go test -run '^$$' -bench '^(BenchmarkCompile)$$' -benchmem ./internal/core/

# Placement-path-only benchmark: graph and MII prebuilt, so allocs/op
# isolates the scheduler hot path the zero-allocation claim covers.
bench-placement:
	go test -run '^$$' -bench BenchmarkPlacement -benchmem ./internal/core/

# Speculative II search at 1 and 4 CPUs over the tail-heavy corpus; the
# cpu=4 row reports a speedup metric vs cpu=1 and both rows land in
# internal/core/BENCH_parallel.json. Needs >= 4 physical cores for the
# ratio to mean anything.
bench-parallel:
	go test -run '^$$' -bench BenchmarkCompileParallel -cpu 1,4 -benchmem ./internal/core/

# The benchmark module (bench/): its unit tests, then one quick pass
# over every workload. bench/ is a nested module, so `go test ./...`
# never compiles it — this is what catches a break in the public API
# its hand-written Prober driver (bench/pipeline.go) uses. CI gates on
# the same two commands.
bench-e2e:
	cd bench && go test ./...
	bash bench/run.sh -workload all -seed 1 -quick

# Capture CPU + allocation pprof profiles from the benchmarks; inspect
# with `go tool pprof bench_cpu.pprof` (see README "Performance &
# profiling").
profile:
	go test -run '^$$' -bench 'BenchmarkCompile|BenchmarkPlacement' -benchmem \
		-cpuprofile bench_cpu.pprof -memprofile bench_mem.pprof ./internal/core/
	@echo "profiles: bench_cpu.pprof bench_mem.pprof (go tool pprof <file>)"

# Gate current quality (ΣII, ΣMaxLive) and throughput (allocs/op)
# against the committed baseline — the same command CI runs.
compare:
	go run ./cmd/msched compare

# Refresh BENCH_baseline.json after an intentional quality or perf
# change; commit the result.
baseline:
	go run ./cmd/msched compare -update-baseline

# Explain one schedule: compile a register-starved seeded loop with the
# flight recorder attached and print the "why this II" report (see
# README "Observability"; -chrome/-profile export the raw artifacts).
trace:
	go run ./cmd/msched trace -seed 1 -i 7 -machine tight

# Differentially execute the whole generated sweep — emitted VLIW
# bundles vs the sequential reference semantics — with the same grid
# and seed the CI exec-verify gate uses; exits non-zero on any
# mismatch (see README "Execution & verification").
exec:
	go run ./cmd/msched run -exec -seed 1 -n 120 -backends all -machines all -strict

lint:
	golangci-lint run

fmt:
	gofmt -l -w .
