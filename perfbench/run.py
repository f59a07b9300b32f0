#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the DMT repository.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

It builds bench_table2_f1, dmt_serve and perfbench's own pbtool from
source (CMake, into $CARGO_TARGET_DIR/perfbench, default .bench_build/),
runs one workload, checks the outputs, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. Scratch files live under
.bench_run/ and are removed afterwards.

Workloads (BENCHMARK.json records why each exists):
  sweep          the full Table II prequential sweep (13 streams x 8
                 models, 20k samples, --jobs 4, --no-cache), repeated.
  serve-zipf     dmt_serve --model DMT fed a generated script: Zipf stream
                 ids over 20k keys, 70% train / 30% score, per-stream drift;
                 piped at --shards 1, and open loop at 10k requests/s over
                 --socket.
  serve-durable  the same generator (other seed, 2k keys) with
                 --state-dir, --checkpoint-every and --max-streams below the
                 working set, and restarts on the final state dir.
A serve run is a series of rounds, each closed-loop passes, set-up
launches and one 2 s open-loop segment, so every metric samples the
whole run.

End-to-end metrics (--trace 0), reported on every workload:
  run_s         wall time of one closed-loop pass: one sweep, or the whole
                script piped through dmt_serve (its throughput is
                requests / run_s); the fastest of the passes.
  cpu_s         user + system CPU of that pass (single-thread baseline:
                separates less work from better packing); the fastest.
  train_p50_us, score_p50_us
                serve: open loop over --socket at a fixed rate, each
                request timed from when it was due, only OK responses
                counted; the median over the segments. sweep: median over
                cells of the harness's own per-row train / score time (its
                --telemetry timers), fastest pass.
  setup_s       median time to the first result over all launches of the
                run: a one-cell sweep, a lone `stats` on a fresh server,
                or on serve-durable the restart's recovery from a manifest
                that holds every stream.
  peak_rss_mb   median peak resident set of one closed-loop pass.
Failed cells, ERR and missing responses count in "failed".

Per-layer metrics (--trace 1) come from pbtool's traced runs (trace.cc)
plus three open-loop segments for the p99s (their median); a layer the
workload never runs reports 0. A mismatch against the Table II golden
(seed 42), between passes, against the shards-3 reference transcript, or
between traced and untraced outputs sets "correct" to false and exits 1.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench")
BENCH = os.path.join(BUILD, "dmt", "bench", "bench_table2_f1")
SERVE = os.path.join(BUILD, "dmt", "tools", "dmt_serve")
PBTOOL = os.path.join(BUILD, "pbtool")
GOLDEN = os.path.join(SOURCE_ROOT, "bench", "goldens",
                      "table2_f1_20000_seed42_bucketed.txt")
# Metric names and units: BENCHMARK.json at the repository root.
SPEC = os.path.join(SOURCE_ROOT, "BENCHMARK.json")
JOBS = 4
SWEEP_SAMPLES = 20000
FEATURES = 4  # pbtool's kFeatures: the generator writes 4 features

# Per serve workload: script shape, dmt_serve flags, open-loop rate.
# Measured closed-loop capacity at --shards 1 (4-vCPU x86-64 host): piped,
# serve-zipf ~365k and serve-durable ~80k requests/s; over the socket,
# serve-zipf held a 13 us p50 at 80k/s and serve-durable a 16 us p50 at
# 40k/s but fell behind at 80k/s. 10k/s stays well below all of them.
SERVE_SHAPES = {
    "serve-zipf": {
        "gen": {"keys": 20000, "requests": 300000},
        "flags": [],
        "seed_salt": 0,
        "rate": 10000,
    },
    "serve-durable": {
        "gen": {"keys": 2000, "requests": 30000},
        "flags": ["--checkpoint-every", "100", "--max-streams", "1500"],
        # The open loop leaves out periodic checkpoints: socket windows
        # hold ~1 request, so no window count matches the piped run's
        # ~4 checkpoints per pass without checkpointing dozens of times a
        # second. Eviction and warm starts stay on.
        "socket_flags": ["--max-streams", "1500"],
        "seed_salt": 1000003,
        "rate": 10000,
    },
}
# Closed-loop passes per serve round (a pass takes ~0.8 s on serve-zipf,
# ~0.4 s on serve-durable); run_s and cpu_s are the fastest pass.
PASSES_PER_ROUND = {"serve-zipf": 2, "serve-durable": 3}
# Set-up launches after the closed-loop passes (a one-cell sweep or a
# fresh serve-zipf server takes ~2 ms, a serve-durable restart ~0.1-0.2
# s); setup_s is the median launch of the run.
SETUPS_PER_ROUND = {"sweep": 10, "serve-zipf": 16, "serve-durable": 8}
# Each serve round ends with one open-loop segment of this many seconds
# from a fresh server; the p50s are medians over the rounds' segments.
OPEN_LOOP_SEGMENT_S = 2.0
# Open-loop segments of a traced serve run, for the p99s.
TRACE_SEGMENTS = 3


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


class Run:
    """Outcome tallies of one benchmark invocation."""

    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def check(self, ok, message):
        if not ok:
            self.correct = False
            log("CHECK FAILED: " + message)


def build():
    if not (os.path.isfile(os.path.join(SOURCE_ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(SOURCE_ROOT, "src"))
            and os.path.isfile(SPEC)):
        log("repository sources not found next to perfbench/")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=600)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                    "--target", "bench_table2_f1", "dmt_serve", "pbtool"],
                   stdout=sys.stderr, check=True, timeout=840)


def timed(argv, stdin=None, stdout=None, timeout=150):
    """Runs argv to completion; returns (wall s, cpu s, peak RSS MB, exit).

    wait4 reaps the child itself, so its rusage is this process alone."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=stdin, stdout=stdout,
                            stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def pbtool_json(argv, timeout=170):
    out = subprocess.run([PBTOOL] + argv, stdout=subprocess.PIPE,
                         timeout=timeout)
    lines = out.stdout.decode().strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else {}


def read(path):
    with open(path, "rb") as f:
        return f.read()


def median(values):
    return statistics.median(values) if values else 0.0


def median_of(results, name):
    return median([result.get(name, 0.0) for result in results])


def fastest(values):
    """Pass times report the fastest pass: a co-tenant on the host slows
    whole passes by up to ~40% at random, and that noise only adds."""
    return min(values) if values else 0.0


# ---------------------------------------------------------------- sweep --

def sweep_args(seed, work, samples=SWEEP_SAMPLES, jobs=JOBS):
    return [BENCH, "--samples", str(samples), "--seed", str(seed),
            "--no-cache", "--jobs", str(jobs), "--cache-dir",
            os.path.join(work, "cache")]


def per_row_us(telemetry_dir, timer):
    values = []
    for path in sorted(glob.glob(os.path.join(telemetry_dir, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        rows = doc["counters"].get("harness.samples", 0)
        if rows:
            values.append(doc["timers"][timer]["seconds"] * 1e6 / rows)
    return median(values)


def run_sweep(run, seed, seconds, work):
    walls, cpus, rss, train, score, tables, setups = [], [], [], [], [], [], []
    begin = time.perf_counter()
    while not walls or (time.perf_counter() - begin + median(walls)
                        <= seconds):
        k = len(walls)
        table = os.path.join(work, "table%d.txt" % k)
        telemetry = os.path.join(work, "telemetry%d" % k)
        with open(table, "wb") as out:
            wall, cpu, peak, rc = timed(
                sweep_args(seed, work) + ["--telemetry", "--telemetry-dir",
                                          telemetry], stdout=out)
        run.check(rc == 0, "bench_table2_f1 exited %d" % rc)
        log("sweep pass %d: wall %.3f s, cpu %.3f s, rss %.1f MB"
            % (k, wall, cpu, peak))
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        train.append(per_row_us(telemetry, "harness.train"))
        score.append(per_row_us(telemetry, "harness.score"))
        tables.append(read(table))
        shutil.rmtree(telemetry, ignore_errors=True)
        run.attempted += 13 * 8
        run.failed += tables[-1].count(b"FAILED")
        # Set-up: launch to the table of a one-cell sweep, after every pass.
        for _ in range(SETUPS_PER_ROUND["sweep"]):
            wall, _, _, rc = timed(sweep_args(seed, work, 1000, 1)
                                   + ["--datasets", "SEA", "--models", "GLM"],
                                   stdout=subprocess.DEVNULL)
            run.check(rc == 0, "one-cell sweep exited %d" % rc)
            setups.append(wall)
    check_tables(run, seed, tables)
    return {"run_s": fastest(walls), "cpu_s": fastest(cpus),
            "train_p50_us": fastest(train), "score_p50_us": fastest(score),
            "setup_s": median(setups), "peak_rss_mb": median(rss)}


def check_tables(run, seed, tables):
    run.check(all(t == tables[0] for t in tables),
              "Table II differs between passes of one seed")
    run.check(tables[0].count(b"\n") == read(GOLDEN).count(b"\n") and
              b"FAILED" not in tables[0], "Table II is incomplete")
    if seed == 42:
        run.check(tables[0] == read(GOLDEN), "Table II differs from "
                  "bench/goldens/table2_f1_20000_seed42_bucketed.txt")
    log("table2 sha256 %s (seed %d)"
        % (hashlib.sha256(tables[0]).hexdigest()[:16], seed))


def trace_sweep(run, seed, work):
    table = os.path.join(work, "table.txt")
    with open(table, "wb") as out:
        wall, _, _, rc = timed(sweep_args(seed, work), stdout=out)
    run.check(rc == 0, "bench_table2_f1 exited %d" % rc)
    traced_table = os.path.join(work, "traced.txt")
    rc, metrics = pbtool_json(["trace-sweep", "--samples", str(SWEEP_SAMPLES),
                               "--seed", str(seed), "--jobs", str(JOBS),
                               "--table-out", traced_table])
    run.check(rc == 0, "trace-sweep exited %d" % rc)
    check_tables(run, seed, [read(table), read(traced_table)])
    run.attempted += 2 * 13 * 8
    run.failed += int(metrics.get("sweep.failed_cells", 0))
    if "common.pool.wall_s" in metrics:
        metrics["trace.overhead_frac"] = (metrics["common.pool.wall_s"] / wall
                                          - 1.0)
    return metrics


# ---------------------------------------------------------------- serve --

def serve_argv(flags=()):
    return [SERVE, "--model", "DMT", "--features", str(FEATURES),
            "--classes", "2"] + list(flags)


def generate(seed, out, keys, requests, stats=1):
    rc, info = pbtool_json(["gen", "--seed", str(seed), "--keys", str(keys),
                            "--requests", str(requests), "--stats", str(stats),
                            "--out", out])
    if rc != 0:
        raise RuntimeError("pbtool gen failed")
    return info


def count_failures(transcript, expected_lines):
    lines = transcript.splitlines()
    errors = sum(1 for line in lines if not line.startswith(b"OK "))
    return errors + max(0, expected_lines - len(lines))


def first_response(argv):
    """Launches dmt_serve, sends a lone `stats`, returns (seconds, line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        proc.stdin.write(b"stats\n")
        proc.stdin.close()
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
    finally:
        # The response is all that is timed; skip the final checkpoint.
        proc.kill()
        proc.stdout.close()
        proc.wait()
    return seconds, line


# Stats fields that report durability work; eviction and checkpoints are
# otherwise invisible in responses.
DURABILITY_STATS = ("resident_streams", "evictions", "warm_starts",
                    "checkpoints")


def same_responses(transcript, reference):
    """Transcripts agree line for line, the final stats line up to the
    durability fields."""
    ours, theirs = transcript.splitlines(), reference.splitlines()
    if len(ours) != len(theirs) or ours[:-1] != theirs[:-1]:
        return False
    a, b = stats_of(ours[-1]), stats_of(theirs[-1])
    for field in DURABILITY_STATS:
        a.pop(field, None)
        b.pop(field, None)
    return a == b


def stats_of(line):
    text = line.decode().strip()
    return json.loads(text[len("OK stats "):]) if text.startswith(
        "OK stats ") else {}


def open_loop_script(workload, seed, work):
    """Generates the script one open-loop segment sends: its own seed, the
    workload's key space, OPEN_LOOP_SEGMENT_S seconds at the workload's
    rate, no trailing stats."""
    shape = SERVE_SHAPES[workload]
    script = os.path.join(work, "openloop.txt")
    generate(seed ^ 0x5bd1e995, script, shape["gen"]["keys"],
             int(shape["rate"] * OPEN_LOOP_SEGMENT_S), 0)
    return script


def open_loop(run, workload, script, work):
    """Serves `script` over --socket at a fixed rate to a fresh server."""
    shape = SERVE_SHAPES[workload]
    flags = []
    if "socket_flags" in shape:
        state = os.path.join(work, "socket-state")
        shutil.rmtree(state, ignore_errors=True)
        flags = ["--state-dir", state] + shape["socket_flags"]
    sock = os.path.join(work, "s.sock")
    server = subprocess.Popen(serve_argv(flags + ["--socket", sock]),
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    try:
        rc, result = pbtool_json(["openloop", "--socket", sock, "--script",
                                  script, "--rate", str(shape["rate"]),
                                  "--seconds", str(OPEN_LOOP_SEGMENT_S)],
                                 timeout=OPEN_LOOP_SEGMENT_S + 60)
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    run.check(rc == 0, "open-loop client exited %d" % rc)
    requests = int(shape["rate"] * OPEN_LOOP_SEGMENT_S)
    run.attempted += int(result.get("attempted", requests))
    run.failed += int(result.get("failed", requests))
    return result


def prepare_serve(run, workload, seed, work):
    """Generates the closed-loop script and its shards-3 reference."""
    shape = SERVE_SHAPES[workload]
    script = os.path.join(work, "script.txt")
    info = generate(seed + shape["seed_salt"], script, **shape["gen"])
    expected = int(info["requests"]) + 1  # the trailing stats line
    reference = os.path.join(work, "reference.txt")
    with open(script, "rb") as inp, open(reference, "wb") as out:
        _, _, _, rc = timed(serve_argv(["--shards", "3"]), stdin=inp,
                            stdout=out)
    run.check(rc == 0, "reference dmt_serve exited %d" % rc)
    ref = read(reference)
    run.check(count_failures(ref, expected) == 0,
              "reference transcript has ERR or missing responses")
    return script, ref, expected


def run_serve(run, workload, seed, seconds, work):
    """Rounds of closed-loop passes, set-up launches and one open-loop
    segment, until --seconds are spent. Interleaving spreads every metric
    over the whole run, so one stretch of host load moves few samples."""
    shape = SERVE_SHAPES[workload]
    durable = workload == "serve-durable"
    script, ref, expected = prepare_serve(run, workload, seed, work)
    loop_script = open_loop_script(workload, seed, work)
    state = os.path.join(work, "state")
    final = stats_of(ref.splitlines()[-1])

    walls, cpus, rss, setups, loops = [], [], [], [], []
    begin = time.perf_counter()
    while not loops or (time.perf_counter() - begin) * (len(loops) + 1) \
            <= seconds * len(loops):
        for _ in range(PASSES_PER_ROUND[workload]):
            flags = ["--shards", "1"]
            if durable:
                shutil.rmtree(state, ignore_errors=True)
                os.sync()  # the last pass's writeback must not land here
                flags += ["--state-dir", state] + shape["flags"]
            out_path = os.path.join(work, "out.txt")
            with open(script, "rb") as inp, open(out_path, "wb") as out:
                wall, cpu, peak, rc = timed(serve_argv(flags), stdin=inp,
                                            stdout=out)
            run.check(rc == 0, "dmt_serve exited %d" % rc)
            transcript = read(out_path)
            run.attempted += expected
            run.failed += count_failures(transcript, expected)
            run.check(same_responses(transcript, ref),
                      "transcript differs from the shards-3 reference")
            log("serve pass %d: wall %.3f s, cpu %.3f s"
                % (len(walls), wall, cpu))
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
        # On serve-durable each restart recovers the state dir the last
        # pass wrote, once its writeback is done: kernel writeback running
        # beside the restarts and the open loop made them up to 2x slower.
        if durable:
            os.sync()
        launches = []
        for _ in range(SETUPS_PER_ROUND[workload]):
            if durable:
                wall, line = first_response(
                    serve_argv(["--state-dir", state] + shape["flags"]))
                recovered = stats_of(line)
                run.check(recovered.get("streams") == final.get("streams") and
                          recovered.get("train_rows") ==
                          final.get("train_rows"),
                          "restart recovered %r" % line)
            else:
                wall, line = first_response(serve_argv())
                run.check(stats_of(line).get("requests") == 1,
                          "fresh server answered %r" % line)
            launches.append(wall)
        setups += launches
        loops.append(open_loop(run, workload, loop_script, work))
        log("serve round %d: set-up %s ms, open-loop p50 train %.2f us, "
            "score %.2f us" % (len(loops), " ".join("%.3f" % (1e3 * t)
                                                    for t in launches),
                               loops[-1].get("train_p50_us", 0.0),
                               loops[-1].get("score_p50_us", 0.0)))

    return {"run_s": fastest(walls), "cpu_s": fastest(cpus),
            "train_p50_us": median_of(loops, "train_p50_us"),
            "score_p50_us": median_of(loops, "score_p50_us"),
            "setup_s": median(setups), "peak_rss_mb": median(rss)}


def trace_serve(run, workload, seed, seconds, work):
    shape = SERVE_SHAPES[workload]
    durable = workload == "serve-durable"
    script, ref, expected = prepare_serve(run, workload, seed, work)
    argv = ["trace-serve", "--script", script, "--work", work,
            "--transcript-out", os.path.join(work, "traced.txt")]
    if durable:
        argv += shape["flags"]
    rc, metrics = pbtool_json(argv)
    run.check(rc == 0 and metrics.get("trace.identical") == 1,
              "traced run differs from the plain run")
    traced = read(os.path.join(work, "traced.txt"))
    run.check(same_responses(traced, ref),
              "traced transcript differs from the reference")
    run.attempted += 2 * expected
    run.failed += 2 * count_failures(traced, expected)
    loop_script = open_loop_script(workload, seed, work)
    loops = [open_loop(run, workload, loop_script, work)
             for _ in range(TRACE_SEGMENTS)]
    for name in ("train_p99_us", "score_p99_us", "gen_lag_p99_us"):
        metrics["serve.bridge." + name] = median_of(loops, name)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep"] + sorted(SERVE_SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    work = os.path.join(".bench_run", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run()
    try:
        if args.workload == "sweep":
            values = (trace_sweep(run, args.seed, work) if args.trace
                      else run_sweep(run, args.seed, args.seconds, work))
        elif args.trace:
            values = trace_serve(run, args.workload, args.seed, args.seconds,
                                 work)
        else:
            values = run_serve(run, args.workload, args.seed, args.seconds,
                               work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(SPEC) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
