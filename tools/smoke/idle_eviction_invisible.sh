#!/bin/sh
# Idle-stream eviction is byte-invisible at any shard count: a GLM run
# bounded by --max-streams and --idle-windows answers every train and
# score request exactly as an unbounded run does, at one shard and at
# four, and the bound really parked streams (the final checkpoint holds
# fewer resident streams than streams, and at most the bound). The script
# has no stats lines: eviction counters legitimately differ between the
# bounded and unbounded runs; the train/score responses must not.
#
# usage: idle_eviction_invisible.sh DMT_SERVE WORK_DIR
serve=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1
python3 - > script.txt <<'PY' || fail "cannot generate the request script"
import random
r = random.Random(23)
for i in range(2000):
    s = f"u{(i // 7) % 40 if r.random() < 0.75 else r.randrange(40)}"
    if r.random() < 0.6:
        print(f"train {s} {r.random():.4f},{r.random():.4f},{r.randrange(2)}")
    else:
        print(f"score {s} {r.random():.4f},{r.random():.4f}")
PY
"$serve" --model GLM --features 2 --classes 2 --batch-window 16 \
  < script.txt > unbounded.txt || fail "unbounded run failed"
for shards in 1 4; do
  "$serve" --model GLM --features 2 --classes 2 --shards "$shards" \
    --batch-window 16 --state-dir "state_s$shards" \
    --max-streams 6 --idle-windows 3 \
    < script.txt > "bounded_s$shards.txt" ||
    fail "bounded run at --shards $shards failed"
  cmp unbounded.txt "bounded_s$shards.txt" ||
    fail "eviction changed the responses at --shards $shards"
done
summary=$("$serve" --state-dir state_s1 --dump-state) ||
  fail "no checkpoint to summarize"
streams=$(echo "$summary" | sed 's/.*streams=\([0-9]*\) .*/\1/')
resident=$(echo "$summary" | sed 's/.*resident=\([0-9]*\) .*/\1/')
[ "$resident" -lt "$streams" ] && [ "$resident" -le 6 ] ||
  fail "the bound never parked a stream: $summary"
