#!/bin/sh
# The Table II sweep prints the same bytes at any --jobs count, through its
# cell cache and under fault injection. A SEA sweep at 5k rows computed at
# --jobs 2 into a fresh cache must print the table that a --jobs 1 rerun
# reads back from that cache, computing no cell. An injected sweep (NaN
# and label-flip faults) at 2k rows must print the same table at --jobs 1
# and --jobs 4 without a cache.
#
# usage: sweep_jobs_determinism.sh BENCH_TABLE2_F1 WORK_DIR
bench=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1

"$bench" --samples 5000 --datasets SEA --jobs 2 --cache-dir cache \
  > t2_a.txt 2> t2_a.err || fail "cold sweep failed: $(cat t2_a.err)"
"$bench" --samples 5000 --datasets SEA --jobs 1 --cache-dir cache \
  > t2_b.txt 2> t2_b.err || fail "warm sweep failed: $(cat t2_b.err)"
cmp t2_a.txt t2_b.txt || fail "cache round-trip changed the table"
if grep -q computing t2_b.err; then
  fail "warm sweep recomputed cells: $(cat t2_b.err)"
fi

"$bench" --samples 2000 --datasets SEA --jobs 1 --no-cache \
  --inject "nan=0.02,flip=0.05" > inj_a.txt 2> inj_a.err ||
  fail "injected sweep at --jobs 1 failed: $(cat inj_a.err)"
"$bench" --samples 2000 --datasets SEA --jobs 4 --no-cache \
  --inject "nan=0.02,flip=0.05" > inj_b.txt 2> inj_b.err ||
  fail "injected sweep at --jobs 4 failed: $(cat inj_b.err)"
cmp inj_a.txt inj_b.txt || fail "injected sweep differs between --jobs 1 and 4"
echo "sweep tables byte-identical across --jobs, cache and injection"
