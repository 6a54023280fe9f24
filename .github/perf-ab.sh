#!/usr/bin/env bash
# Interleaved A/B speed check of a change against its base with the
# benchmark under benchmark/:
#
#   bash .github/perf-ab.sh BASE_DIR HEAD_DIR
#
# BASE_DIR and HEAD_DIR are two checkouts of the repository. Each side is
# built from its own checkout by benchmark/run.sh. The script runs 6
# alternating pairs of the predict-warm, optimize-warm and record-sweep
# workloads (record-sweep is the only one that runs the recorder's
# threadlib kernel), switching which side goes first every pair, and
# writes old.jsonl, new.jsonl and compare.txt (the `benchmark -compare`
# table) to the current directory.
#
# It exits 1 when
#   - any run fails verification (set -e);
#   - `benchmark -compare` finds a metric worse than its BENCHMARK.json
#     bound;
#   - a time metric (throughput, p50, p95) is `unresolved` because a run
#     was noisy, yet the change lost every pair and its median is worse
#     than the base's by more than the bound: noise must not hide a clear
#     regression.
set -euo pipefail

base="$(cd "$1" && pwd)"
head="$(cd "$2" && pwd)"
out="$(pwd)"
: >"$out/old.jsonl"
: >"$out/new.jsonl"

for i in 1 2 3 4 5 6; do
  order="old new"
  [ $((i % 2)) = 0 ] && order="new old"
  for workload in predict-warm optimize-warm record-sweep; do
    for side in $order; do
      dir="$base"
      [ "$side" = new ] && dir="$head"
      echo "pair $i: $workload on $side" >&2
      (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed 3 --seconds 5) >>"$out/$side.jsonl"
    done
  done
done

status=0
go -C "$head/benchmark" run . -bounds "$head/BENCHMARK.json" \
  -compare "$out/old.jsonl" "$out/new.jsonl" >"$out/compare.txt" || status=$?
cat "$out/compare.txt"
if [ "$status" -gt 1 ]; then
  exit "$status"
fi

echo
echo "unresolved verdicts:"
grep -w unresolved "$out/compare.txt" || echo "  none"

# Table columns: workload, metric, old median, [q1, q3] (two fields), new
# median, [q1, q3], wins/pairs, bound, verdict.
time_metrics() {
  jq -r '.end_to_end[]
         | select(.name == "throughput_per_s" or .name == "latency_p50_ms" or .name == "latency_p95_ms")
         | "\(.name) \(.better) \(.bound)"' "$head/BENCHMARK.json"
}
awk 'FNR == NR { better[$1] = $2; bound[$1] = $3; next }
     FNR > 1 && $NF == "unresolved" && ($2 in better) {
       split($(NF-2), wins, "/")
       loss = (better[$2] == "higher") ? $3 - $6 : $6 - $3
       if (wins[1] == 0 && loss > bound[$2] * $3) {
         print "clear regression hidden by noise: " $0
         bad = 1
       }
     }
     END { exit bad }' <(time_metrics) "$out/compare.txt" || status=1

if [ "$status" != 0 ]; then
  echo "perf-ab: the change is slower than its base" >&2
fi
exit "$status"
