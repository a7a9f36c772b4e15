#!/bin/sh
# Measures the parallel engine's speedup on the two headline paths —
# Monte-Carlo population regeneration and the all-experiments driver —
# by running the Sequential/Parallel benchmark pairs from bench_test.go
# and recording the ratios in BENCH_parallel.json, together with the
# time and allocations of one population chip (BenchmarkPopulationChip,
# always run at a fixed 1000x: BENCHTIME sizes only the pair benchmarks).
#
# Usage: scripts/bench_parallel.sh [output.json]
#   BENCHTIME=5x scripts/bench_parallel.sh   # more iterations
#
# The parallel variants target >= 3x on a 4+-core machine; on fewer
# cores the ratio degrades toward 1x by construction (the pool width
# defaults to GOMAXPROCS).
set -eu
cd "$(dirname "$0")/.." || exit 1
out="${1:-BENCH_parallel.json}"
benchtime="${BENCHTIME:-2x}"

# VCS identity: a benchmark number nobody can attribute to a commit is
# noise, so refuse to write one rather than stamp it blank.
if ! rev=$(git rev-parse HEAD 2>/dev/null); then
    echo "bench_parallel: git rev-parse HEAD failed; refusing to write an unattributable benchmark record" >&2
    exit 1
fi
dirty=false
[ -n "$(git status --porcelain 2>/dev/null)" ] && dirty=true

# benchline prints benchmark $1's result line at benchtime $2.
benchline() {
    go test -run '^$' -bench "^$1\$" -benchtime "$2" . \
        | awk -v b="$1" '$1 ~ "^"b {print; exit}'
}

nsop() {
    benchline "$1" "$benchtime" | awk '{print $3}'
}

# field prints the value preceding unit $2 (B/op, allocs/op) in result
# line $1, or nothing.
field() {
    echo "$1" | awk -v u="$2" '{for (i = 4; i <= NF; i++) if ($i == u) {print $(i-1); exit}}'
}

# Fail loudly if a benchmark produced no ns/op figure — a stale
# benchmark name would otherwise flow NaN/empty ratios into the JSON.
require_nsop() {
    case "$2" in
        *[0-9]*) ;;
        *)
            echo "bench_parallel: benchmark $1 reported no ns/op" \
                 "(renamed or deleted in bench_test.go?)" >&2
            exit 1
            ;;
    esac
    case "$2" in
        *[!0-9.]*)
            echo "bench_parallel: benchmark $1 reported malformed ns/op '$2'" >&2
            exit 1
            ;;
    esac
}

echo "benchmarking population draw (sequential)..." >&2
pop_seq=$(nsop BenchmarkPopulationSequential)
require_nsop BenchmarkPopulationSequential "$pop_seq"
echo "benchmarking population draw (parallel)..." >&2
pop_par=$(nsop BenchmarkPopulationParallel)
require_nsop BenchmarkPopulationParallel "$pop_par"
echo "benchmarking all-experiments driver (sequential)..." >&2
all_seq=$(nsop BenchmarkRunAllSequential)
require_nsop BenchmarkRunAllSequential "$all_seq"
echo "benchmarking all-experiments driver (parallel)..." >&2
all_par=$(nsop BenchmarkRunAll)
require_nsop BenchmarkRunAll "$all_par"
echo "benchmarking one population chip (draw, power model, solver, solve)..." >&2
chip_line=$(benchline BenchmarkPopulationChip 1000x)
chip_ns=$(echo "$chip_line" | awk '{print $3}')
require_nsop BenchmarkPopulationChip "$chip_ns"
chip_bytes=$(field "$chip_line" B/op)
require_nsop "BenchmarkPopulationChip (B/op)" "$chip_bytes"
chip_allocs=$(field "$chip_line" allocs/op)
require_nsop "BenchmarkPopulationChip (allocs/op)" "$chip_allocs"

cores=$(go env GOMAXPROCS 2>/dev/null || echo 0)
[ "$cores" -gt 0 ] 2>/dev/null || cores=$(getconf _NPROCESSORS_ONLN)

awk -v ps="$pop_seq" -v pp="$pop_par" -v as="$all_seq" -v ap="$all_par" \
    -v cn="$chip_ns" -v cb="$chip_bytes" -v ca="$chip_allocs" \
    -v cores="$cores" -v benchtime="$benchtime" \
    -v rev="$rev" -v dirty="$dirty" 'BEGIN {
    printf "{\n"
    printf "  \"vcs_revision\": \"%s\",\n", rev
    printf "  \"vcs_dirty\": %s,\n", dirty
    printf "  \"gomaxprocs\": %d,\n", cores
    printf "  \"cores\": %d,\n", cores
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"population\": {\"sequential_ns_op\": %s, \"parallel_ns_op\": %s, \"speedup\": %.2f},\n", ps, pp, ps/pp
    printf "  \"runall\": {\"sequential_ns_op\": %s, \"parallel_ns_op\": %s, \"speedup\": %.2f},\n", as, ap, as/ap
    printf "  \"population_chip\": {\"ns_op\": %s, \"bytes_op\": %s, \"allocs_op\": %s}\n", cn, cb, ca
    printf "}\n"
}' > "$out"

echo "wrote $out:" >&2
cat "$out"

# With HISTORY_DIR set, the run also lands in the cross-run history
# store so `accordionhist check` can gate the next one against it.
if [ -n "${HISTORY_DIR:-}" ]; then
    go run ./cmd/accordionhist append -dir "$HISTORY_DIR" \
        -tool bench_parallel -kind bench -bench "$out"
fi
