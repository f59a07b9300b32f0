#!/bin/sh
# Pins the durable serving path byte for byte: a GLM run with the LRU bound
# (--max-streams), the idle TTL (--idle-windows), periodic checkpoints and
# fault injection all active must reproduce the committed responses and the
# committed newest checkpoint manifest, at one shard and at four. The
# manifest embeds every stream's model archive, its injection-generator
# RNG record and its LRU keys, so it pins which streams are parked when,
# and the transcript's stats lines pin the eviction and warm-start counts.
#
# A state dir written in an older format must keep serving: restarted on
# the frozen format 3 manifest under COMPAT_DIR (the same run's newest
# manifest as that format wrote it), and on the current one, the server
# answers the first 400 requests again exactly as COMPAT_DIR's
# continued_responses.txt, which the format 3 build wrote from the same
# restart.
#
# usage: serve_manifest_golden.sh DMT_SERVE GOLDEN_DIR COMPAT_DIR WORK_DIR
serve=$1 golden=$2 compat=$3 work=$4
fail() { echo "$*"; exit 1; }
manifest=manifest-00000000000000000017.dmtm
rm -rf "$work" && mkdir -p "$work" || exit 1
run() {  # run SHARDS STATE_DIR
  "$serve" --model GLM --features 3 --classes 3 --shards "$1" \
    --batch-window 8 --state-dir "$2" --checkpoint-every 5 \
    --max-streams 4 --idle-windows 3 \
    --inject nan=0.03,inf=0.02,missing=0.02,flip=0.1,truncate=0.03
}
for shards in 1 4; do
  state="$work/state_s$shards"
  run "$shards" "$state" < "$golden/requests.txt" \
    > "$work/responses_s$shards.txt" ||
    fail "dmt_serve --shards $shards failed"
  cmp "$golden/responses.txt" "$work/responses_s$shards.txt" ||
    fail "responses differ at --shards $shards"
  newest=$(ls "$state" | grep '^manifest-.*\.dmtm$' | sort | tail -n 1)
  [ "$newest" = "$manifest" ] ||
    fail "newest manifest is '$newest' at --shards $shards, expected $manifest"
  cmp "$golden/$manifest" "$state/$manifest" ||
    fail "newest manifest differs at --shards $shards"
done
head -n 400 "$golden/requests.txt" > "$work/more.txt"
for dir in "$compat" "$golden"; do
  for shards in 1 4; do
    state="$work/restart_s$shards"
    rm -rf "$state" && mkdir -p "$state" && cp "$dir/$manifest" "$state/" ||
      exit 1
    run "$shards" "$state" < "$work/more.txt" > "$work/continued.txt" ||
      fail "restart on $dir/$manifest at --shards $shards failed"
    cmp "$compat/continued_responses.txt" "$work/continued.txt" ||
      fail "restart on $dir/$manifest at --shards $shards differs"
  done
done
