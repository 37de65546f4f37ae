.PHONY: build test lint check verify serve-test bench bench-kernel batch-test qos-test lut-test loc

build:
	go build ./...

test:
	go test ./...

# Static analysis: crypto-safety/concurrency analyzers over the Go module.
lint:
	go run ./cmd/pytfhelint ./...

# Semantic analysis: noise-budget dataflow + plan-soundness verification
# over the bench netlist and every example circuit (`pytfhe check`).
check:
	go run ./cmd/pytfhe check -bench -examples

# gofmt + vet + lint + build + race-checked tests on the concurrency-heavy
# packages + netlist lint of a compiled benchmark.
verify:
	./scripts/verify.sh

# Race-checked tests for the serving stack: shared executor, wire format,
# and the pytfhed server (concurrent sessions, backpressure, drain).
serve-test:
	go test -race ./internal/serve/... ./internal/wire/... ./internal/backend/...

# Race-checked QoS + observability subsystem: the weighted fair queue,
# per-tenant quotas, the byte-accounted plan cache, the Prometheus-text
# telemetry registry, the shared executor's fairness/key-release
# behavior, and the pytfhed fairness-under-load, cache-eviction,
# key-lifecycle, quota, and /metrics end-to-end scenarios.
qos-test:
	go test -race ./internal/qos/... ./internal/telemetry/...
	go test -race -run 'TestShared(FairnessUnderLoad|ReleaseKey)' ./internal/backend/
	go test -race -run 'TestServe(FairnessUnderLoad|PlanCacheEviction|KeyLifecycleRelease|TenantQuota|MetricsEndpoint)' ./internal/serve/

# Race-checked multi-bit LUT path, end to end: truth-table solving and
# feasibility (logic), the circuit node and asm instruction formats, the
# lut-cluster synthesis pass, the programmable-bootstrap kernel, the LUT
# noise model, bit-exactness across every executor (sync/async/shared),
# plan compile/dedup/replay, shard hashing, cluster dispatch, the
# pytfhed -lut serving surface, and the Fig. 14 LUT sweep.
lut-test:
	go test -race -run 'LUT' ./internal/logic/ ./internal/circuit/ ./internal/asm/ \
		./internal/synth/ ./internal/tfhe/boot/ ./internal/tfhe/gate/ ./internal/tfhe/noise/ \
		./internal/exec/ ./internal/backend/ ./internal/plan/ ./internal/shard/ \
		./internal/cluster/ ./internal/serve/ ./internal/experiments/ ./cmd/pytfhe/

# Go benchmarks plus the plan capture/replay measurement, which lands as
# BENCH_PLAN.json — the replay performance trajectory. The -planbaseline
# flag is the bench-parity guard: the fresh Async and Planned throughputs
# must stay within 10% of the committed baseline.
bench:
	go test -bench=. -benchmem -run '^$$' .
	go run ./cmd/experiments -quick -planbench -planbaseline BENCH_PLAN.json -planout BENCH_PLAN.json

# Kernel hot-path microbenchmarks of the one polynomial engine: the
# forward/inverse half-complex negacyclic transforms and pointwise
# multiply-accumulates, the CMux blind-rotation step at batch sizes 1..64,
# and the end-to-end bootstrap sweep over the same sizes (what streaming
# each bootstrapping-key entry once per batch saves).
bench-kernel:
	go test -bench 'BenchmarkKernel' -benchmem -run '^$$' ./internal/torus/ ./internal/tfhe/tgsw/
	go test -bench 'BenchmarkBatchBootstrap' -benchmem -run '^$$' .

# Race-checked tests of the bootstrap engine's batch entry points:
# a batch of N is bit-exact with N single calls and with the
# naive-convolution oracle (the -short differential test at Test
# parameters), plus the lock-free twiddle cache and every batching
# executor: the ready-queue drain (exec matrix, Async), the plan
# interpreter (replay, shard levels) and the serving scheduler's
# cross-request top-up.
batch-test:
	go test -race -short -run 'Batch|Tables|CMuxRotate|Differential' ./internal/torus/ ./internal/tfhe/tgsw/ ./internal/tfhe/boot/ ./internal/tfhe/gate/
	go test -race -run 'Batch|Matrix|Shared|Async|Replay|Planned|RuntimeEncrypted' ./internal/exec/ ./internal/backend/ ./internal/plan/ ./internal/shard/
	go test -race -run 'TestServeCrossRequestBatching' ./internal/serve/

# Non-test Go lines per internal/* package and the total (informational).
loc:
	./scripts/loc.sh
