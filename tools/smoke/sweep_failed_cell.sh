#!/bin/sh
# A supervised sweep survives a crashing cell: with the failpoint
# cell:SEA/GLM armed (the cell throws on every attempt) under NaN and
# label-flip injection, the Table II sweep exits 0 and renders exactly that
# one cell FAILED.
#
# usage: sweep_failed_cell.sh BENCH_TABLE2_F1 WORK_DIR
bench=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1

"$bench" --samples 2000 --datasets SEA,Agrawal --models GLM,DMT --jobs 2 \
  --no-cache --failpoints "cell:SEA/GLM=1" --inject "nan=0.01,flip=0.02" \
  > faulted.txt 2> faulted.err ||
  fail "faulted sweep exited $?: $(cat faulted.err)"
count=$(grep -c FAILED faulted.txt)
[ "$count" -eq 1 ] ||
  fail "expected 1 FAILED cell, got $count: $(cat faulted.txt)"
grep -q '^GLM  *FAILED ' faulted.txt ||
  fail "the FAILED cell is not SEA / GLM: $(cat faulted.txt)"
echo "one crashing cell renders FAILED, the sweep exits 0"
