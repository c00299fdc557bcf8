#!/usr/bin/env bash
# Records the standard benchmark trio — bench_city_scale, bench_coalesce,
# bench_net_throughput — into a single
# machine-readable BENCH_10.json at the repo root (or at $1 if given).
#
# The benches themselves are plain printf programs, so this script owns the
# JSON: per-bench exit code, wall time, and the raw output lines verbatim,
# plus the coalescing speedup ratios parsed out of bench_coalesce (the
# headline number the execution planner is judged by).
#
# Usage:
#   tools/record_bench.sh [OUT.json]
# Env:
#   BUILD_DIR         build tree holding the bench binaries (default: build)
#   VIPTREE_SCALE     forwarded to the benches (venue scale factor)
#   VIPTREE_QUERIES   forwarded to the benches (queries per workload)

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT="${1:-$ROOT/BENCH_10.json}"

BENCHES=(bench_city_scale bench_coalesce bench_net_throughput)
for b in "${BENCHES[@]}"; do
  if [ ! -x "$BUILD/$b" ]; then
    echo "record_bench: missing $BUILD/$b — build first:" >&2
    echo "  cmake -B \"$BUILD\" -S \"$ROOT\" && cmake --build \"$BUILD\" -j" >&2
    exit 1
  fi
done

# Escape a line for embedding in a JSON string (bench output is plain
# ASCII, so backslash + quote cover it).
json_escape() { sed -e 's/\\/\\\\/g' -e 's/"/\\"/g'; }

# Emit the file at stdin as a JSON array of strings, indented for diffing.
emit_lines() {
  printf '['
  local first=1 line
  while IFS= read -r line; do
    if [ "$first" -eq 1 ]; then first=0; else printf ','; fi
    printf '\n        "%s"' "$(printf '%s' "$line" | json_escape)"
  done
  printf '\n      ]'
}

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

declare -A wall exit_code
for b in "${BENCHES[@]}"; do
  echo "record_bench: running $b ..." >&2
  start=$(date +%s)
  rc=0
  "$BUILD/$b" >"$tmpdir/$b.out" 2>&1 || rc=$?
  wall[$b]=$(( $(date +%s) - start ))
  exit_code[$b]=$rc
  if [ "$rc" -ne 0 ]; then
    echo "record_bench: $b exited with $rc" >&2
    cat "$tmpdir/$b.out" >&2
  fi
done

# The trailing "N.NNx" of every `coalesced` row, in print order
# (dataset x workload).
speedups=$(awk '$1 == "coalesced" { sub(/x$/, "", $NF); printf "%s%s", sep, $NF; sep=", " }' \
  "$tmpdir/bench_coalesce.out")

# The headline of bench_net_throughput: serial-p50 loopback overhead of
# the shard and router tiers over the in-process baseline.
net_overhead=$(grep '^loopback overhead' "$tmpdir/bench_net_throughput.out" \
  | head -1 | json_escape)

git_sha=$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)

{
  printf '{\n'
  printf '  "bench_set": 10,\n'
  printf '  "generated_utc": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "git_sha": "%s",\n' "$git_sha"
  printf '  "env": {\n'
  printf '    "viptree_scale": "%s",\n' "${VIPTREE_SCALE:-default}"
  printf '    "viptree_queries": "%s"\n' "${VIPTREE_QUERIES:-default}"
  printf '  },\n'
  printf '  "coalesce_speedups": [%s],\n' "$speedups"
  printf '  "net_loopback_overhead": "%s",\n' "$net_overhead"
  printf '  "benches": {\n'
  sep=''
  for b in "${BENCHES[@]}"; do
    printf '%s    "%s": {\n' "$sep" "$b"
    printf '      "exit_code": %s,\n' "${exit_code[$b]}"
    printf '      "wall_seconds": %s,\n' "${wall[$b]}"
    printf '      "output": '
    emit_lines <"$tmpdir/$b.out"
    printf '\n    }'
    sep=$',\n'
  done
  printf '\n  }\n'
  printf '}\n'
} >"$OUT"

echo "record_bench: wrote $OUT" >&2

overall=0
for b in "${BENCHES[@]}"; do
  [ "${exit_code[$b]}" -eq 0 ] || overall=1
done
exit "$overall"
