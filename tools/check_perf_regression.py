#!/usr/bin/env python3
"""Perf-regression gate for the training micro-benchmark.

Compares a freshly measured BENCH_train.json against the committed
baseline at the repo root. Absolute ns/sample is meaningless across
runner generations, so the check is RATIO-NORMALIZED: the median
current/baseline ratio over the stand-alone NON-DMT learners' cells
estimates the machine-speed scale between the two measurements, and each
DMT cell is then allowed at most `--headroom` (default 1.25, i.e. +25%) on
top of that scale. Ensemble cells (ForestEns, BaggingEns) are printed with
their scaled ratio for the record but neither gate nor feed the scale.

    ./tools/check_perf_regression.py CURRENT BASELINE [--headroom 1.25]

Exits 1 (with a per-cell report) if any DMT cell regresses beyond the
headroom; exits 0 otherwise. Both files must come from the same protocol
(sample count and seed are cross-checked).
"""

import argparse
import json
import statistics
import sys

# Reported, not gated, and kept out of the machine-speed scale.
ENSEMBLES = ("ForestEns", "BaggingEns")


def load_cells(path):
    with open(path) as f:
        doc = json.load(f)
    cells = {}
    for row in doc.get("results", []):
        ns = row.get("ns_per_sample", 0.0)
        if ns > 0.0:
            cells[(row["dataset"], row["model"])] = ns
    return doc, cells


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--headroom", type=float, default=1.25,
                        help="allowed DMT slowdown on top of the machine "
                             "scale (default 1.25 = +25%%)")
    args = parser.parse_args()

    cur_doc, cur = load_cells(args.current)
    base_doc, base = load_cells(args.baseline)

    for key in ("samples", "seed"):
        if cur_doc.get(key) != base_doc.get(key):
            print(f"protocol mismatch: {key} {cur_doc.get(key)} != "
                  f"baseline {base_doc.get(key)}")
            return 1

    shared = sorted(set(cur) & set(base))
    ratios = [cur[c] / base[c] for c in shared
              if c[1] != "DMT" and c[1] not in ENSEMBLES]
    if not ratios:
        print("no non-DMT cells shared with the baseline; cannot normalize")
        return 1
    scale = statistics.median(ratios)
    print(f"machine scale (median non-DMT current/baseline over "
          f"{len(ratios)} cells): {scale:.3f}")

    for cell in (c for c in shared if c[1] in ENSEMBLES):
        print(f"  {cell[0]:<12} {cell[1]:<10} {cur[cell]:10.1f} ns/sample "
              f"(baseline {base[cell]:10.1f}, scaled ratio "
              f"{cur[cell] / (base[cell] * scale):.3f}) not gated")

    dmt_cells = [c for c in shared if c[1] == "DMT"]
    if not dmt_cells:
        print("no DMT cells shared with the baseline")
        return 1

    failed = False
    for cell in dmt_cells:
        limit = base[cell] * scale * args.headroom
        verdict = "OK" if cur[cell] <= limit else "REGRESSED"
        failed |= verdict == "REGRESSED"
        print(f"  {cell[0]:<12} DMT {cur[cell]:10.1f} ns/sample "
              f"(baseline {base[cell]:10.1f}, limit {limit:10.1f}) {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
