#!/bin/sh
# The micro-benchmark runs to completion at 2k rows and writes
# BENCH_micro.json (in the work dir) with a non-empty results array whose
# every row carries the six training and scoring fields. Allocations per
# sample are pinned by dmt_allocation_test, timings by CI's perf gate.
#
# usage: bench_micro_smoke.sh BENCH_MICRO WORK_DIR
micro=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1

"$micro" --samples 2000 > micro.txt 2>&1 ||
  fail "bench_micro exited $?: $(cat micro.txt)"
json=BENCH_micro.json
[ -s "$json" ] || fail "$json missing or empty"
rows=$(grep -c '{"dataset": ' "$json")
[ "$rows" -gt 0 ] || fail "$json has no results: $(cat "$json")"
for field in fit_ns_per_sample fit_allocs_per_sample into_ns_per_sample \
             into_allocs_per_sample batch_ns_per_sample \
             batch_allocs_per_sample; do
  [ "$(grep -c "\"$field\": [0-9]" "$json")" -eq "$rows" ] ||
    fail "not every row of $json carries $field: $(cat "$json")"
done
echo "bench_micro ran and wrote $rows rows with all six fields"
