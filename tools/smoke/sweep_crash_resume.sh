#!/bin/sh
# A sweep that dies mid-run resumes from its cell records. The crash point
# record:Agrawal/DMT ends a --jobs 1 sweep (exit 86) right after the 7th of
# its 12 cells is recorded, as a SIGKILL at that instant would. The
# --resume rerun with the same flags reloads those 7 records, computes only
# the other 5 -- it never reaches the crash point again -- and prints the
# table of an uninterrupted run byte for byte.
#
# usage: sweep_crash_resume.sh BENCH_TABLE2_F1 WORK_DIR
bench=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1
sweep() {
  "$bench" --samples 5000 --datasets SEA,Agrawal,Hyperplane \
    --models "GLM,VFDT(MC),DMT,EFDT" --jobs 1 "$@"
}

sweep --no-cache > clean.txt 2> clean.err ||
  fail "uninterrupted sweep failed: $(cat clean.err)"

sweep --cache-dir cache --failpoints "record:Agrawal/DMT=1" \
  > crashed.txt 2> crashed.err
code=$?
[ "$code" -eq 86 ] || fail "crashed sweep exited $code, expected 86"
records=$(ls cache/cells | grep -c '\.csv$')
[ "$records" -eq 7 ] || fail "expected 7 records after the crash, got $records"
if ls cache/cells | grep -q tmp; then
  fail "temp files left behind: $(ls cache/cells)"
fi

sweep --cache-dir cache --failpoints "record:Agrawal/DMT=1" --resume \
  > resumed.txt 2> resumed.err ||
  fail "resumed sweep exited $?: $(cat resumed.err)"
grep -q '^\[sweep\] 7 cells cached, computing 5 ' resumed.err ||
  fail "resume did not compute just the 5 unrecorded cells: $(cat resumed.err)"
cmp clean.txt resumed.txt || fail "resumed table differs from the clean one"
echo "a crashed sweep resumes from its records to the uninterrupted table"
