.PHONY: build test lint check verify serve-test bench bench-kernel bench-compile batch-test qos-test lut-test loc

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
# per-tenant quotas and weights, the entry-capped LRU, the Prometheus-text
# telemetry registry, the shared executor's fairness/key-release
# behavior, and the pytfhed fairness-under-load, key-lifecycle, quota,
# and /metrics end-to-end scenarios.
qos-test:
	go test -race ./internal/qos/... ./internal/telemetry/...
	go test -race -run 'TestShared(FairnessUnderLoad|ReleaseKey)' ./internal/backend/
	go test -race -run 'TestServe(FairnessUnderLoad|KeyLifecycleRelease|TenantQuota|MetricsEndpoint)|TestTenantWeight' ./internal/serve/

# Race-checked multi-bit LUT path, end to end: truth-table solving and
# feasibility (logic), the circuit node and asm instruction formats, the
# lut-cluster synthesis pass, the programmable-bootstrap kernel, the LUT
# noise model, bit-exactness across every executor (single/pool/plan/shared),
# plan compile/dedup/replay, shard hashing, cluster runs, and pytfhed
# serving a `compile -lut` binary as compiled.
lut-test:
	go test -race -run 'LUT' ./internal/logic/ ./internal/circuit/ ./internal/asm/ \
		./internal/synth/ ./internal/tfhe/boot/ ./internal/tfhe/gate/ ./internal/tfhe/noise/ \
		./internal/exec/ ./internal/backend/ ./internal/plan/ ./internal/shard/ \
		./internal/cluster/ ./internal/serve/ ./internal/experiments/ ./cmd/pytfhe/

# Root Go benchmarks, then one run of every workload BENCHMARK.json declares
# through bench/run.sh (results land in bench/out/). Informational: no
# baseline is committed and nothing is guarded here; compare two commits
# with `bench/run.sh --spread N` and `--compare` (see bench/README.md).
BENCH_WORKLOADS = hamming128_local mnist_compile serve_mix_test cluster_dot_test
bench:
	go test -bench=. -benchmem -run '^$$' .
	for w in $(BENCH_WORKLOADS); do bash bench/run.sh --workload $$w || exit 1; done

# Kernel hot-path microbenchmarks of the one polynomial engine: the
# forward/inverse half-complex negacyclic transforms and pointwise
# multiply-accumulates, the external product and the CMux blind-rotation
# step at batch sizes 1..64 (Test and Default128 rings), the Default128
# key switch, the whole bootstrap at batch sizes 1..64 (the sweep behind
# backend.DefaultBatch) and the Default128 layers-add-up ratio at batch 1
# and 16. They run whichever kernel path the CPU selects
# (AVX2+FMA or Go). The gate figures are bench/ probes (gate.binary_ns,
# gate.batch16_ns; see bench/README.md).
bench-kernel:
	go test -bench 'BenchmarkKernel' -benchmem -run '^$$' ./internal/torus/ ./internal/tfhe/tgsw/ ./internal/tfhe/lwe/ ./internal/tfhe/boot/

# Compile-path benchmark of a 14×14 MNIST_S (BenchmarkCompileMNIST): the
# ChiselTorch lowering, one synth.Optimize of the unsynthesized lowering,
# plan.Compile, core.Load of the binary alone (its B/op is what loading a
# program allocates), and core — the sequence the mnist_compile workload's
# child runs after the lowering (core.Compile, core.Load, plan.Compile).
# Reports ns/gate and B/op per stage.
# Then BenchmarkIndexHash: one hash-consing index hash of each key layout
# the compile path uses (word, 16-byte, 40-byte), ns/op.
# BENCHTIME=1x runs each stage once (CI does, so the benchmark cannot rot).
BENCHTIME ?= 1s
bench-compile:
	go test -run '^$$' -bench 'CompileMNIST' -benchtime $(BENCHTIME) -benchmem ./internal/plan/
	go test -run '^$$' -bench 'IndexHash' -benchtime $(BENCHTIME) ./internal/circuit/

# Race-checked tests of the bootstrap engine's batch entry points:
# a batch of N is bit-exact with N single calls and with the
# naive-convolution oracle (the -short differential test at Test
# parameters), plus the lock-free twiddle cache and every batching
# executor: plan replay at batch {1, 2, 8} (exec matrix, Planned), the plan
# interpreter (replay), shard levels on the slice scheduler and the serving
# scheduler's cross-request top-up.
batch-test:
	go test -race -short -run 'Batch|Tables|CMuxRotate|Differential' ./internal/torus/ ./internal/tfhe/tgsw/ ./internal/tfhe/boot/ ./internal/tfhe/gate/
	go test -race -run 'Batch|Matrix|Shared|Replay|Planned' ./internal/exec/ ./internal/backend/ ./internal/plan/ ./internal/shard/
	go test -race -run 'TestServeCrossRequestBatching' ./internal/serve/

# Non-test Go lines per internal/* package and the total (informational).
loc:
	./scripts/loc.sh
