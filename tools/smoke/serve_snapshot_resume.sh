#!/bin/sh
# Two serving-layer contracts. Under NaN traffic the --export telemetry is
# valid JSONL: every line parses on its own (a bare nan or inf would not)
# and the bad rows are counted. A session killed halfway and resumed from
# its snapshot ends in a model archive byte-identical to the uninterrupted
# session's.
#
# usage: serve_snapshot_resume.sh DMT_SERVE WORK_DIR
serve=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1

python3 - > nan.txt <<'PY' || fail "cannot generate the NaN script"
import random
r = random.Random(7)
for i in range(500):
    s = f"u{r.randrange(50)}"
    a = "nan" if r.random() < 0.2 else f"{r.random():.4f}"
    print(f"train {s} {a},{r.random():.4f},{r.randrange(2)}")
    print(f"score {s} {r.random():.4f},{r.random():.4f}")
PY
"$serve" --model GLM --features 2 --classes 2 --shards 2 \
  --export telemetry.jsonl --export-every 3 < nan.txt > /dev/null ||
  fail "the NaN session failed"
[ -s telemetry.jsonl ] || fail "no telemetry exported"
while IFS= read -r line; do
  printf '%s' "$line" | python3 -m json.tool > /dev/null ||
    fail "telemetry line is not JSON: $line"
done < telemetry.jsonl
grep -q 'serve.bad_rows' telemetry.jsonl || fail "no serve.bad_rows counter"

# batch_window 100 divides both row counts, and the restore request is
# padded to a full window, so the resumed session replays the exact
# PartialFit batches of the uninterrupted one.
python3 - <<'PY' || fail "cannot generate the session scripts"
import random
r = random.Random(3)
rows = [f"train u {r.random():.4f},{r.random():.4f},{r.randrange(2)}"
        for _ in range(2000)]
with open("full.txt", "w") as f:
    f.write("\n".join(rows))
    f.write("\nsnapshot u full.dmt\n")
with open("first.txt", "w") as f:
    f.write("\n".join(rows[:1000]))
    f.write("\nsnapshot u mid.dmt\n")
with open("resume.txt", "w") as f:
    f.write("restore u mid.dmt\n")
    f.write("stats\n" * 99)
    f.write("\n".join(rows[1000:]))
    f.write("\nsnapshot u resumed.dmt\n")
PY
session() {
  "$serve" --model DMT --features 2 --classes 2 --batch-window 100 \
    < "$1" > "$2" || fail "session $1 failed"
}
session full.txt full_out.txt
session first.txt first_out.txt
session resume.txt resume_out.txt
grep -q "OK restore u" resume_out.txt || fail "the restore was not acknowledged"
cmp full.dmt resumed.dmt || fail "the resumed session's archive differs"
