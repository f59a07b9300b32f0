#!/bin/sh
# The scoring-core and training-core micro-benchmarks run to completion at
# 2k rows and each writes a JSON document with a non-empty results array
# (BENCH_infer.json, BENCH_train.json in the work dir). Allocations per
# sample are pinned by dmt_allocation_test, timings by CI's perf gate.
#
# usage: bench_micro_smoke.sh BENCH_MICRO_INFERENCE BENCH_MICRO_TRAINING
#                             WORK_DIR
infer=$1 train=$2 work=$3
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1

"$infer" --samples 2000 > infer.txt 2>&1 ||
  fail "bench_micro_inference exited $?: $(cat infer.txt)"
"$train" --samples 2000 > train.txt 2>&1 ||
  fail "bench_micro_training exited $?: $(cat train.txt)"
for json in BENCH_infer.json BENCH_train.json; do
  [ -s "$json" ] || fail "$json missing or empty"
  grep -A1 '"results": \[' "$json" | grep -q '{"dataset": ' ||
    fail "$json has no results: $(cat "$json")"
done
echo "both micro-benchmarks ran and wrote their results"
