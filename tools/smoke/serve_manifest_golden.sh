#!/bin/sh
# Pins the durable serving path byte for byte: a GLM run with the LRU bound
# (--max-streams), the idle TTL (--idle-windows), periodic checkpoints and
# fault injection all active must reproduce the committed responses and the
# committed newest checkpoint manifest, at one shard and at four. The
# manifest embeds every stream's model archive, its injection-generator
# state text and its LRU keys, so it pins which streams are parked when,
# and the transcript's stats lines pin the eviction and warm-start counts.
#
# usage: serve_manifest_golden.sh DMT_SERVE GOLDEN_DIR WORK_DIR
serve=$1 golden=$2 work=$3
fail() { echo "$*"; exit 1; }
manifest=manifest-00000000000000000017.dmtm
rm -rf "$work" && mkdir -p "$work" || exit 1
for shards in 1 4; do
  state="$work/state_s$shards"
  "$serve" --model GLM --features 3 --classes 3 --shards "$shards" \
    --batch-window 8 --state-dir "$state" --checkpoint-every 5 \
    --max-streams 4 --idle-windows 3 \
    --inject nan=0.03,inf=0.02,missing=0.02,flip=0.1,truncate=0.03 \
    < "$golden/requests.txt" > "$work/responses_s$shards.txt" ||
    fail "dmt_serve --shards $shards failed"
  cmp "$golden/responses.txt" "$work/responses_s$shards.txt" ||
    fail "responses differ at --shards $shards"
  newest=$(ls "$state" | grep '^manifest-.*\.dmtm$' | sort | tail -n 1)
  [ "$newest" = "$manifest" ] ||
    fail "newest manifest is '$newest' at --shards $shards, expected $manifest"
  cmp "$golden/$manifest" "$state/$manifest" ||
    fail "newest manifest differs at --shards $shards"
done
