#!/bin/sh
# A server that dies at any step of any checkpoint, or of the park log,
# recovers from the newest complete manifest and continues byte for byte.
# For a small GLM script and a small DMT script, at --shards 1 and 4, the
# script arms each crash point in turn (dmt_serve --failpoints, named in
# src/dmt/serve/state_dir.h): of the manifest writer, before the temp file
# opens, after every stream record, between the write and the rename, and
# after the rename before pruning, for every checkpoint of the run
# including the final one; of the park log, after every appended record and
# before the rename of every compaction. The crashed run must exit 86; a
# restart on its state dir must answer the requests the recovered manifest
# does not cover exactly as an uninterrupted run does. --max-streams parks
# streams, so records are copied from the park log as well as encoded from
# live models, and the log is compacted at least once.
#
# usage: checkpoint_crash_points.sh DMT_SERVE WORK_DIR
serve=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1
python3 - > script.txt <<'PY' || fail "cannot generate the request script"
import random
r = random.Random(29)
for i in range(240):
    s = f"u{r.randrange(6)}"
    if r.random() < 0.7:
        print(f"train {s} {r.random():.4f},{r.random():.4f},{r.randrange(2)}")
    else:
        print(f"score {s} {r.random():.4f},{r.random():.4f}")
    if i % 60 == 59:
        print("stats")
PY
lines=$(wc -l < script.txt)
crashes=0
for model in GLM DMT; do
  run() {  # run STATE_DIR SHARDS [--failpoints SPEC]
    state=$1 shards=$2
    shift 2
    "$serve" --model "$model" --features 2 --classes 2 --shards "$shards" \
      --batch-window 8 --state-dir "$state" --checkpoint-every 4 \
      --max-streams 4 "$@"
  }
  rm -rf ref_state
  run ref_state 1 < script.txt > ref.txt || fail "$model reference run failed"
  [ "$(wc -l < ref.txt)" -eq "$lines" ] || fail "$model reference is short"
  for shards in 1 4; do
    # crash POINT: exit 0 when the run never reaches POINT, 1 on a mismatch.
    crash() {
      rm -rf state
      run state "$shards" --failpoints "$1=1" < script.txt > /dev/null
      code=$?
      [ "$code" -eq 0 ] && return 0
      [ "$code" -eq 86 ] ||
        fail "$model --shards $shards: $1 exited $code, expected 86"
      crashes=$((crashes + 1))
      if summary=$("$serve" --state-dir state --dump-state 2> /dev/null); then
        covered=$(echo "$summary" | sed 's/.*requests=\([0-9]*\) .*/\1/')
      else
        covered=0  # no manifest yet: the restart starts from scratch
      fi
      tail -n +$((covered + 1)) script.txt > tail.txt
      tail -n +$((covered + 1)) ref.txt > ref_tail.txt
      run state "$shards" < tail.txt > cont.txt ||
        fail "$model --shards $shards: restart after $1 failed"
      cmp -s ref_tail.txt cont.txt ||
        fail "$model --shards $shards: the continuation after $1" \
          "(manifest covers $covered requests) differs"
      return 2
    }
    seq=1
    while :; do
      crash "manifest.$seq.before_open"
      [ $? -eq 2 ] || break
      i=0
      while :; do
        crash "manifest.$seq.after_record.$i"
        [ $? -eq 2 ] || break
        i=$((i + 1))
      done
      [ "$i" -gt 0 ] || fail "$model: checkpoint $seq wrote no record"
      crash "manifest.$seq.before_rename"
      [ $? -eq 2 ] || fail "$model: manifest.$seq.before_rename never fired"
      crash "manifest.$seq.before_prune"
      [ $? -eq 2 ] || fail "$model: manifest.$seq.before_prune never fired"
      seq=$((seq + 1))
    done
    [ "$seq" -gt 3 ] || fail "$model: only $((seq - 1)) checkpoints ran"
    k=1
    while :; do
      crash "park.$k.after_append"
      [ $? -eq 2 ] || break
      k=$((k + 1))
    done
    [ "$k" -gt 10 ] || fail "$model: only $((k - 1)) records were parked"
    k=1
    while :; do
      crash "park.compact.$k.before_rename"
      [ $? -eq 2 ] || break
      k=$((k + 1))
    done
    [ "$k" -gt 1 ] || fail "$model: the park log was never compacted"
  done
done
echo "$crashes crash points recovered"
