#!/bin/sh
# SIGTERM drains: a server reading a fifo that stays open answers every
# full window, and on SIGTERM answers the partial window still pending,
# writes a final checkpoint and exits 0. The transcript equals a run fed
# the same script through a pipe, and the final manifest covers every
# answered request. --max-streams keeps most streams parked, so the final
# checkpoint copies their records out of the park log.
#
# The script polls the output until every full window is answered, in a
# bounded loop; nothing waits a fixed time, so a slow host only makes the
# poll longer.
#
# usage: serve_sigterm_drain.sh DMT_SERVE WORK_DIR
serve=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1
python3 - > script.txt <<'PY' || fail "cannot generate the request script"
import random
r = random.Random(11)
for i in range(1500):
    s = f"u{r.randrange(24)}"
    if r.random() < 0.6:
        print(f"train {s} {r.random():.4f},{r.random():.4f},{r.randrange(2)}")
    else:
        print(f"score {s} {r.random():.4f},{r.random():.4f}")
PY
lines=$(wc -l < script.txt)
window=8
full=$((lines / window * window))
[ "$full" -lt "$lines" ] || fail "the script must end in a partial window"
flags="--model GLM --features 2 --classes 2 --batch-window $window
  --checkpoint-every 2 --max-streams 6"
# shellcheck disable=SC2086 # $flags is a word list
"$serve" $flags --state-dir ref_state < script.txt > ref.txt ||
  fail "reference run failed"
[ "$(wc -l < ref.txt)" -eq "$lines" ] || fail "reference run is short"

mkfifo feed || fail "cannot make a fifo"
# A plain command, not a function: $! must be the server itself.
# shellcheck disable=SC2086
"$serve" $flags --state-dir state < feed > out.txt &
server=$!
# The writer end stays open until after the signal, so the server sees no
# end of input: only SIGTERM can make it answer the last partial window.
exec 3> feed
cat script.txt >&3
polls=0
while [ "$(wc -l < out.txt)" -lt "$full" ]; do
  polls=$((polls + 1))
  if [ "$polls" -gt 6000 ]; then
    kill -KILL "$server"
    fail "only $(wc -l < out.txt) of $full full-window responses arrived"
  fi
  kill -0 "$server" 2> /dev/null || fail "the server exited early"
  sleep 0.01
done
[ "$(wc -l < out.txt)" -eq "$full" ] ||
  fail "the partial window was answered before end of input"
kill -TERM "$server"
wait "$server"
code=$?
exec 3>&-
[ "$code" -eq 0 ] || fail "the server exited $code after SIGTERM, expected 0"
cmp -s ref.txt out.txt || fail "the drained transcript differs from a piped run"
summary=$("$serve" --state-dir state --dump-state) ||
  fail "no loadable final checkpoint"
covered=$(echo "$summary" | sed 's/.*requests=\([0-9]*\) .*/\1/')
[ "$covered" -eq "$lines" ] ||
  fail "the final manifest covers $covered of $lines answered requests"
parked=$(echo "$summary" | sed 's/.*streams=\([0-9]*\) resident=\([0-9]*\) .*/\1 \2/')
set -- $parked
[ "$2" -lt "$1" ] || fail "no stream was parked at shutdown ($summary)"
echo "drained $lines requests; $summary"
