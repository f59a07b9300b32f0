#!/bin/sh
# Corrupt or config-skewed state is an exit-2 refusal, never a silent
# reset or a crash. A short GLM run with checkpoints leaves a state dir;
# restarting it as a DMT server must exit 2 naming the model kind, and once
# every manifest in it is cut in half a restart must exit 2 naming the
# manifest.
#
# usage: state_refusal.sh DMT_SERVE WORK_DIR
serve=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1
python3 - > script.txt <<'PY' || fail "cannot generate the request script"
import random
r = random.Random(11)
for i in range(400):
    s = f"u{r.randrange(24)}"
    if r.random() < 0.6:
        print(f"train {s} {r.random():.4f},{r.random():.4f},{r.randrange(2)}")
    else:
        print(f"score {s} {r.random():.4f},{r.random():.4f}")
PY
"$serve" --model GLM --features 2 --classes 2 --batch-window 8 \
  --state-dir state --checkpoint-every 2 < script.txt > /dev/null ||
  fail "the run that writes the state dir failed"
ls state/manifest-*.dmtm > /dev/null 2>&1 || fail "the run left no manifest"

"$serve" --model DMT --features 2 --classes 2 --batch-window 8 \
  --state-dir state --checkpoint-every 2 < /dev/null > /dev/null 2> skew.txt
code=$?
[ "$code" -eq 2 ] || fail "model-kind skew: exit $code, expected 2"
grep -q "model kind" skew.txt || fail "model-kind skew: $(cat skew.txt)"

for manifest in state/manifest-*.dmtm; do
  size=$(wc -c < "$manifest")
  head -c $((size / 2)) "$manifest" > cut.tmp && mv cut.tmp "$manifest" ||
    fail "cannot cut $manifest"
done
"$serve" --model GLM --features 2 --classes 2 --batch-window 8 \
  --state-dir state --checkpoint-every 2 < /dev/null > /dev/null 2> corrupt.txt
code=$?
[ "$code" -eq 2 ] || fail "manifests cut in half: exit $code, expected 2"
grep -qi "manifest" corrupt.txt ||
  fail "manifests cut in half: $(cat corrupt.txt)"
