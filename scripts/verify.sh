#!/bin/sh
# Repository verification: formatting, vet, static analysis, build, the
# nested benchmark module, then race-checked tests on the concurrency-heavy packages (executors,
# scheduler, cluster), and finally an end-to-end netlist lint of a
# compiled benchmark program.
set -eux

cd "$(dirname "$0")/.."

# gofmt must be a no-op over the whole module (testdata fixtures included).
fmt_diff=$(gofmt -l .)
if [ -n "$fmt_diff" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt_diff" >&2
    exit 1
fi

go vet ./...
go build ./...

# One evaluator: every plan or shard instruction reaches the gate engine
# through plan.Interp and exec.Batcher, whose Do calls Engine.Apply and
# whose Flush calls Engine.OpBatch. Any other file under the executor
# packages calling the engine on IR operands is a forked dispatcher, and a
# batcher.go that no longer matches means this guard went stale.
evaluators=$(find internal/exec internal/plan internal/shard internal/cluster internal/backend internal/serve \
    -name '*.go' ! -name '*_test.go' -exec grep -lE 'eng\.(Apply|Binary|LUT|OpBatch|BinaryBatch|Mux)\(' {} +)
if [ "$evaluators" != "internal/exec/batcher.go" ]; then
    echo "gates must reach the engine through internal/exec/batcher.go alone; files calling it:" >&2
    echo "${evaluators:-(none)}" >&2
    exit 1
fi

# One gate record: a gate's function is one table with an arity (arity 0
# is a classic gate, its table the logic.Kind nibble) in circuit.Gate,
# plan.Instr and gate.Op alike, and one word evaluator, plan.EvalWord,
# reads it. A Kind field back in one of the three, or a second evaluator
# under an old name, is the two-field encoding returning. The evaluator's
# definition must still match, so a rename cannot make this vacuous.
kind_fields=$(find internal -name '*.go' ! -name '*_test.go' -exec awk '
    /^type (Gate|Instr|Op) struct/ { in_struct = 1; next }
    in_struct && /^}/ { in_struct = 0 }
    in_struct && /^[[:space:]]*Kind[[:space:]]+logic\.Kind/ { print FILENAME ": " $0 }' {} +)
if [ -n "$kind_fields" ]; then
    echo "a gate's function is its TT and Arity; Kind fields found:" >&2
    echo "$kind_fields" >&2
    exit 1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' 'func (EvalWordTT|evalInstrWord)\b' internal; then
    echo "plan.EvalWord is the one word evaluator" >&2
    exit 1
fi
if [ "$(grep -lE '^func EvalWord\[' internal/plan/*.go)" != "internal/plan/verify.go" ]; then
    echo "the one word evaluator, plan.EvalWord, is no longer defined in internal/plan/verify.go" >&2
    exit 1
fi

# One execution core: every backend compiles its program into a plan and
# replays it through plan.Interp — plan.Replay for Single, backend.Shared's
# slice scheduler for the rest. A netlist driver, a per-worker engine set,
# a refcounted value table or an evaluator beside exec.Batcher back in the
# tree is a second interpreter returning. Lint plants under testdata/ are
# fixtures, not drivers.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=testdata \
    '^func (\([^)]*\) )?(RunSequential|RunLevels|NewWorkers)\b' internal ||
    grep -rnE --include='*.go' --exclude='*_test.go' '^(type (State|Workers)|func Eval)\b' internal/exec; then
    echo "internal/exec holds no netlist driver: every backend replays a compiled plan" >&2
    exit 1
fi

# Every `go test` that the focused Makefile targets and CI narrow with
# -run/-bench/-fuzz must still select something in each package it names:
# a renamed test otherwise turns its job, or its share of a multi-package
# job, into a silent "no tests to run". `go test -list` answers without
# running anything.
go_test_selections() {
    # Join continuation lines, undo the Makefile's `$$`, then print
    # "<pattern> <packages…>" per narrowed `go test` command — limited to
    # the targets named after the file, when any are.
    sed -e ':a' -e '/\\$/{N;s/\\\n//;ba' -e '}' "$1" | sed 's/\$\$/$/g' | awk -v targets=" $2 " '
        /^[A-Za-z][A-Za-z0-9_-]*:/ { target = $1; sub(/:.*/, "", target) }
        /go test/ {
            if (targets != "  " && index(targets, " " target " ") == 0) next
            run = bench = fuzz = pkgs = ""
            for (i = 1; i <= NF; i++) {
                v = $(i + 1); gsub(/\047/, "", v)
                if ($i == "-run") run = v
                if ($i == "-bench") bench = v
                if ($i == "-fuzz") fuzz = v
                if ($i ~ /^\.(\/|$)/) pkgs = pkgs " " $i
            }
            pat = fuzz != "" ? fuzz : (bench != "" ? bench : run)
            if (pat != "" && pkgs != "") print pat pkgs
        }'
}
{
    go_test_selections Makefile "serve-test qos-test lut-test batch-test bench-compile"
    go_test_selections .github/workflows/ci.yml ""
} | while read -r pat pkgs; do
    for pkg in $pkgs; do
        if ! go test -list "$pat" "$pkg" | grep -qvE '^(ok|\?) '; then
            echo "go test pattern '$pat' selects nothing in $pkg" >&2
            exit 1
        fi
    done
done

# bench/ is its own module compiled against these packages; the root
# `./...` patterns never enter it, so an API rename here would break the
# benchmark unnoticed without this.
(cd bench && go vet ./... && go test ./...)

# Crypto-safety and concurrency static analysis over the module.
go run ./cmd/pytfhelint ./...

go test -race ./internal/exec/... ./internal/backend/... ./internal/sched/... \
    ./internal/cluster/... ./internal/serve/... ./internal/wire/... ./internal/plan/... \
    ./internal/shard/...

# End-to-end: compile a VIP-Bench kernel, lint the emitted binary, then
# run the semantic analyses over it and the bench netlist: noise-budget
# dataflow plus plan-soundness verification (`pytfhe check`).
tmp=$(mktemp -d)
daemon_pid=
worker_pids=
trap 'for p in $daemon_pid $worker_pids; do kill "$p" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT
go run ./cmd/pytfhe compile -bench hamming-distance -out "$tmp/prog.ptfhe"
go run ./cmd/pytfhe lint "$tmp/prog.ptfhe"
go run ./cmd/pytfhe check -bench -prog "$tmp/prog.ptfhe"

# End-to-end serving: start pytfhed on a random port, run one encrypted
# evaluation through the registry/session/executor path, then drain it
# with SIGTERM and require a clean exit.
go build -o "$tmp/pytfhed" ./cmd/pytfhed
go build -o "$tmp/pytfhe" ./cmd/pytfhe
"$tmp/pytfhe" keygen -params test -out "$tmp/keys"
"$tmp/pytfhed" -listen 127.0.0.1:0 -addr-file "$tmp/addr" -workers 2 \
    -metrics-addr 127.0.0.1:0 -metrics-addr-file "$tmp/maddr" &
daemon_pid=$!
i=0
while [ ! -s "$tmp/addr" ] || [ ! -s "$tmp/maddr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "pytfhed never wrote its address" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/addr")
maddr=$(cat "$tmp/maddr")
# Hamming distance of a 64-bit word with itself is zero: 7 output bits,
# all clear.
word=1011001110001111000010100110010111010010001101011100101000110111
out=$("$tmp/pytfhe" eval -server "$addr" -keys "$tmp/keys" \
    -prog "$tmp/prog.ptfhe" -in "$word$word" | grep '^outputs:')
[ "$out" = "outputs: 0000000" ]
# /metrics must serve valid Prometheus text and already reflect the first
# evaluation.
curl -fsS "http://$maddr/metrics" >"$tmp/m1"
grep -q '^# TYPE pytfhed_evaluations_total counter$' "$tmp/m1"
grep -q '^pytfhed_evaluations_total 1$' "$tmp/m1"
grep -q '^# TYPE pytfhed_request_latency_ms histogram$' "$tmp/m1"
# Registration compiled the plan (one miss); evaluations only replay it.
grep -q '^pytfhed_plan_misses_total 1$' "$tmp/m1"
# A second evaluation re-registers the same binary, which compiles
# nothing, and replays the registered plan again.
out=$("$tmp/pytfhe" eval -server "$addr" -keys "$tmp/keys" \
    -prog "$tmp/prog.ptfhe" -in "$word$word" | grep '^outputs:')
[ "$out" = "outputs: 0000000" ]
"$tmp/pytfhe" server-stats -server "$addr" | tee "$tmp/stats"
grep -q 'plans: 1 compiled at registration, 2 evaluations replayed them' "$tmp/stats"
# Registration ran the static noise analysis; its per-program summary
# must ride the Stats RPC.
grep -q 'noise: .* bits headroom under default128' "$tmp/stats"
# The key series moved with the second evaluation, in /metrics and in
# the JSON stats snapshot alike.
curl -fsS "http://$maddr/metrics" >"$tmp/m2"
grep -q '^pytfhed_evaluations_total 2$' "$tmp/m2"
grep -q '^pytfhed_plan_misses_total 1$' "$tmp/m2"
grep -q '^pytfhed_plan_hits_total 2$' "$tmp/m2"
grep -q 'outcome="ok"} 2$' "$tmp/m2"
"$tmp/pytfhe" server-stats -server "$addr" -json | tee "$tmp/stats.json"
grep -q '"Evaluations": 2' "$tmp/stats.json"
grep -q '"PlanHits": 2' "$tmp/stats.json"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=

# End-to-end sharded cluster: a fresh pytfhed with a cluster coordinator,
# two pytfhe-worker processes, and two evaluations of the same program.
# The first ships the plan shards (misses), the second must replay them
# from the workers' caches (hits); both decrypt to the same bits.
go build -o "$tmp/pytfhe-worker" ./cmd/pytfhe-worker
"$tmp/pytfhed" -listen 127.0.0.1:0 -addr-file "$tmp/addr2" -workers 2 \
    -cluster-listen 127.0.0.1:0 -cluster-addr-file "$tmp/caddr" -cluster-workers 2 &
daemon_pid=$!
i=0
while [ ! -s "$tmp/caddr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "pytfhed never wrote its cluster address" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/addr2")
caddr=$(cat "$tmp/caddr")
"$tmp/pytfhe-worker" -join "$caddr" -slots 2 &
worker_pids="$!"
"$tmp/pytfhe-worker" -join "$caddr" -slots 2 &
worker_pids="$worker_pids $!"
out1=$("$tmp/pytfhe" eval -server "$addr" -keys "$tmp/keys" \
    -prog "$tmp/prog.ptfhe" -in "$word$word" | grep '^outputs:')
out2=$("$tmp/pytfhe" eval -server "$addr" -keys "$tmp/keys" \
    -prog "$tmp/prog.ptfhe" -in "$word$word" | grep '^outputs:')
[ "$out1" = "outputs: 0000000" ]
[ "$out2" = "$out1" ]
"$tmp/pytfhe" server-stats -server "$addr" | tee "$tmp/cstats"
# Both evaluations rode the worker pool, and the second found every shard
# already resident (cache hit — nothing reshipped).
grep -q 'cluster: 2 workers (0 lost) — 2 sharded evaluations' "$tmp/cstats"
grep -q 'shards: 2 hits, 2 misses, 0 reships' "$tmp/cstats"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=
for p in $worker_pids; do
    wait "$p" 2>/dev/null || true
done
worker_pids=

# End-to-end multi-bit LUT serving: compile a clusterable VIP-Bench
# kernel classically and with `compile -lut`, then register the LUT
# binary with a default daemon, which runs it as compiled: the stats
# surface must show a nonzero LUT count, and the encrypted outputs must
# match a local classic run bit for bit — the clustering is exact.
go run ./cmd/pytfhe compile -bench parrondo -out "$tmp/parrondo.ptfhe"
go run ./cmd/pytfhe compile -bench parrondo -lut -out "$tmp/parrondo-lut.ptfhe"
pin=101101110010
ref=$("$tmp/pytfhe" run -prog "$tmp/parrondo.ptfhe" -keys "$tmp/keys" \
    -in "$pin" | grep '^outputs:')
"$tmp/pytfhed" -listen 127.0.0.1:0 -addr-file "$tmp/addr3" -workers 2 &
daemon_pid=$!
i=0
while [ ! -s "$tmp/addr3" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "pytfhed (LUT serving) never wrote its address" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/addr3")
out=$("$tmp/pytfhe" eval -server "$addr" -keys "$tmp/keys" \
    -prog "$tmp/parrondo-lut.ptfhe" -in "$pin" | grep '^outputs:')
[ "$out" = "$ref" ]
"$tmp/pytfhe" server-stats -server "$addr" | tee "$tmp/lstats"
grep -Eq '^luts: [1-9][0-9]* multi-input LUT gates evaluated' "$tmp/lstats"
"$tmp/pytfhe" server-stats -server "$addr" -json | grep -Eq '"LUTsEvaluated": [1-9]'
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=
