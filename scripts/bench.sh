#!/usr/bin/env bash
# bench.sh — run the tier-1 benchmark set and snapshot it as JSON.
#
# Usage:
#   scripts/bench.sh [OUT.json]        # default: BENCH_<n+1>.json, one past the
#                                      # highest checked-in snapshot, so a bare
#                                      # run extends the trajectory instead of
#                                      # clobbering a previous PR's point
#   scripts/bench.sh -mem [EXP]        # allocation-profile one sweep (default
#                                      # fig14) via pccbench -memprofile and
#                                      # print the top-10 alloc sites, so perf
#                                      # PRs can see where trial memory goes
#   scripts/bench.sh -shards n [OUT]   # run the suite with an n-shard ceiling
#                                      # per trial (exported as PCC_SHARDS);
#                                      # BenchmarkWideChain additionally pins
#                                      # its own shards=1 / shards=NumCPU pair
#                                      # regardless, so one snapshot carries
#                                      # the intra-trial speedup comparison
#   BENCHTIME=5x scripts/bench.sh      # override go test -benchtime (default 1x)
#   COUNT=3 scripts/bench.sh           # override -count (default 1); the JSON
#                                      # keeps each benchmark's median ns/op
#   MEMSCALE=0.1 scripts/bench.sh -mem # override the -mem sweep's scale
#
# The tier-1 set is: every paper-experiment benchmark at the repo root
# (bench_test.go) plus the scheduler/network/sender microbenchmarks in
# internal/sim, internal/netem and internal/cc. Raw `go test -bench` output
# is kept next to the JSON (OUT.json -> OUT.txt) so benchstat can compare
# two snapshots:
#
#   go run golang.org/x/perf/cmd/benchstat@latest old.txt new.txt
#
# The JSON maps benchmark name -> {ns_per_op, bytes_per_op, allocs_per_op,
# metrics{...}} and exists so the repo carries a perf trajectory: each perf
# PR checks in a fresh BENCH_<n>.json produced by this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# -mem: dump the top-10 allocation sites of one experiment sweep. This is
# the sanity view for trial-memory work: after the arena PR the top entries
# should be run-phase churn and first-build warm-up, not per-trial setup.
if [ "${1:-}" = "-mem" ]; then
    EXPID="${2:-fig14}"
    SCALE="${MEMSCALE:-0.1}"
    BIN="$(mktemp -d)/pccbench"
    PROF="${BIN%/*}/mem.pprof"
    go build -o "$BIN" ./cmd/pccbench
    "$BIN" -exp "$EXPID" -scale "$SCALE" -memprofile "$PROF" > /dev/null
    echo "== top-10 alloc sites for -exp $EXPID -scale $SCALE (alloc_space) =="
    go tool pprof -top -nodecount=10 -sample_index=alloc_space "$BIN" "$PROF"
    echo
    echo "== top-10 alloc sites for -exp $EXPID -scale $SCALE (alloc_objects) =="
    go tool pprof -top -nodecount=10 -sample_index=alloc_objects "$BIN" "$PROF"
    exit 0
fi

# -shards: cap intra-trial engine sharding for the whole suite. The env var
# is what internal/exp reads (same resolution order as pccbench -shards).
if [ "${1:-}" = "-shards" ]; then
    export PCC_SHARDS="$2"
    shift 2
fi

next_index() {
    local max=0 n
    for f in BENCH_*.json; do
        [ -e "$f" ] || continue
        n="${f#BENCH_}"; n="${n%.json}"
        case "$n" in *[!0-9]*) continue ;; esac
        [ "$n" -gt "$max" ] && max="$n"
    done
    echo $((max + 1))
}

OUT="${1:-BENCH_$(next_index).json}"
RAW="${OUT%.json}.txt"
BENCHTIME="${BENCHTIME:-1x}"
COUNT="${COUNT:-1}"

# Propagate the bench run's own exit code and never snapshot a failed or
# empty run: a crashed benchmark must fail CI with its real status, not
# leave a partial BENCH_<n>.json that looks like a perf data point.
status=0
go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
    . ./internal/sim ./internal/netem ./internal/cc | tee "$RAW" || status=$?
if [ "$status" -ne 0 ]; then
    rm -f "$RAW"
    echo "bench.sh: benchmark run failed (exit $status); no snapshot written" >&2
    exit "$status"
fi
if ! grep -q '^Benchmark' "$RAW"; then
    rm -f "$RAW"
    echo "bench.sh: benchmark run produced no results; no snapshot written" >&2
    exit 1
fi

awk -v benchtime="$BENCHTIME" -v out="$OUT" '
# median of the k ns/op samples of name (insertion sort; k is -count).
function median(name, k,    i, j, v, a) {
    for (i = 0; i < k; i++) {
        v = samples[name, i]
        for (j = i; j > 0 && a[j - 1] > v; j--) a[j] = a[j - 1]
        a[j] = v
    }
    return k % 2 ? a[(k - 1) / 2] : (a[k / 2 - 1] + a[k / 2]) / 2
}
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""; metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        v = $i; u = $(i + 1)
        if (u == "ns/op")          ns = v
        else if (u == "B/op")      bytes = v
        else if (u == "allocs/op") allocs = v
        else {
            gsub(/"/, "", u)
            metrics = metrics sprintf("%s\"%s\": %s", metrics == "" ? "" : ", ", u, v)
        }
    }
    if (ns == "") next
    rest = ""
    if (bytes != "")   rest = rest sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "")  rest = rest sprintf(", \"allocs_per_op\": %s", allocs)
    if (metrics != "") rest = rest sprintf(", \"metrics\": {%s}", metrics)
    if (!(name in runs)) order[n++] = name
    # -count > 1: the JSON keeps the median ns/op of all runs under one
    # key; bytes and allocs are deterministic, so the last run stands in.
    samples[name, runs[name]++] = ns + 0
    tail[name] = rest
}
END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": {\n", benchtime > out
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %.10g%s}%s\n", name, median(name, runs[name]), tail[name], i + 1 < n ? "," : "" >> out
    }
    printf "  }\n}\n" >> out
}
' "$RAW"

# The raw -bench output only matters for benchstat comparisons (CI sets
# KEEP_RAW=1 for exactly that); a bare local run should leave just the JSON
# snapshot behind, not accumulate BENCH_<n>.txt litter next to it.
if [ "${KEEP_RAW:-0}" = "1" ]; then
    echo "wrote $OUT (raw output in $RAW)"
else
    rm -f "$RAW"
    echo "wrote $OUT"
fi
