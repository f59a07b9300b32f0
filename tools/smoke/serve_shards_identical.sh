#!/bin/sh
# A 1000-stream DMT session answers byte for byte the same at --shards 1
# and 4, and answers every request: a stream's responses must not depend
# on which shard thread trains it (the DMT trees of one thread share that
# thread's training scratch). The request script is generated here by a
# Park-Miller generator in awk, so it needs no other tool.
#
# usage: serve_shards_identical.sh DMT_SERVE WORK_DIR
serve=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1
awk 'function rnd() { x = (16807 * x) % 2147483647; return x / 2147483647 }
BEGIN {
  x = 42
  for (i = 0; i < 6000; i++) {
    s = "u" int(rnd() * 1000)
    if (rnd() < 0.6) {
      a = rnd(); b = rnd(); y = int(rnd() * 2)
      printf "train %s %.4f,%.4f,%d\n", s, a, b, y
    } else {
      a = rnd(); b = rnd()
      printf "score %s %.4f,%.4f\n", s, a, b
    }
    if (i % 977 == 0) print "stats"
  }
  print "stats"
}' > script.txt || fail "cannot generate the request script"
for shards in 1 4; do
  "$serve" --model DMT --features 2 --classes 2 --shards "$shards" \
    < script.txt > "s$shards.txt" || fail "the run at --shards $shards failed"
done
cmp s1.txt s4.txt || fail "--shards 1 and 4 answered differently"
[ "$(wc -l < s1.txt)" -eq "$(wc -l < script.txt)" ] ||
  fail "$(wc -l < s1.txt) responses to $(wc -l < script.txt) requests"
