#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds libpverify and the benchmark
(perfbench/CMakeLists.txt) into .bench_build/perfbench, runs the
arithmetic self-tests, then pvbench with the workload's settings from
perfbench/workloads.json. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Every run's full result, host calibration included, is also kept in
.bench_build/perfbench/results/. A run whose host calibration leaves its
band (a starved host) is measured once more when the time limit allows;
if the calibration still leaves its band, that run's result is printed
flagged: a `#` line and stderr say so, its results file records
`"valid": false`, and the per-layer metric host.calibration_valid reads 0.
Exits non-zero, printing no result, when the build, a self-test or the
run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"
RUN_TIMEOUT_S = 170

# Which end-to-end metric each per-layer metric should move, on which
# workload (README.md explains how each is measured).
MOVES = {
    "p99_us.low": "end-to-end tail, unbounded (README: why)",
    "p99_us.high": "end-to-end tail, unbounded (README: why)",
    "net.overhead_p50_us": "p50_us.low on serve_point",
    "net.overhead_p99_us": "p99_us.high on serve_point",
    "net.encode_request_ns": "p50_us.low on serve_point",
    "net.decode_request_ns": "p50_us.low on serve_point",
    "net.encode_result_ns": "p50_us.low on serve_point",
    "net.decode_result_ns": "p50_us.low on serve_point",
    "net.response_bytes": "p50_us.low on serve_point",
    "net.overload_rejections": "error_rate, max_qps_at_slo on serve_*",
    "net.deadline_expirations": "error_rate, max_qps_at_slo on serve_*",
    "net.protocol_errors": "error_rate, max_qps_at_slo on serve_*",
    "net.client_retries": "error_rate, max_qps_at_slo on serve_*",
    "loadgen.send_lag_p99_us": "validity check of the open loop",
    "engine.submit_call_us": "p50_us.low on serve_point",
    "engine.coalesced_mean": "p99_us.high on serve_*",
    "engine.max_coalesced": "p99_us.high on serve_*",
    "engine.worker_util": "qps on batch_point, max_qps_at_slo on serve_point",
    "engine.scratch_bytes": "peak_rss_mb",
    "process.threads": "cpu_us_per_query",
    "cache.hit_rate": "p50_us.* on serve_skewed (0 elsewhere)",
    "cache.rechecks": "p50_us.* on serve_skewed (0 elsewhere)",
    "cache.evictions": "p50_us.* on serve_skewed (0 elsewhere)",
    "cache.bytes": "p50_us.* on serve_skewed (0 elsewhere)",
    "cache.hit_p50_us": "p50_us.low on serve_skewed",
    "core.filter_us": "qps on batch_point, p50_us.low on serve_point",
    "core.init_us": "qps on batch_point, p50_us.low on serve_point",
    "core.verify_us": "qps on batch_point, p50_us.low on serve_point",
    "core.refine_us": "qps on batch_point, p50_us.low on serve_point",
    "core.unattributed_us": "qps on batch_point, p50_us.low on serve_point",
    "core.total_us": "qps on batch_point, p50_us.low on serve_point",
    "core.stage.RS_us": "core.verify_us",
    "core.stage.L-SR_us": "core.verify_us",
    "core.stage.U-SR_us": "core.verify_us",
    "core.candidates": "core.refine_us",
    "core.subregions": "core.refine_us",
    "core.verified_frac": "core.refine_us",
    "core.refined_candidates": "core.refine_us",
    "core.subregion_integrations": "core.refine_us",
    "core.knn_us": "knn_p50_us.high on serve_skewed",
    "knn_mix_p50_us": "p99_us.high on serve_skewed (head-of-line)",
    "spatial.filter_us": "qps on batch_point",
    "spatial.candidates_per_answer": "qps on batch_point",
    "core.build1d_us": "core.init_us, so qps on batch_point",
    "spatial.knn_filter_us": "knn_p50_us.high on serve_skewed",
    "error_rate": "correctness: failed / attempted",
    "trace.p50_us.low": "tracing overhead against the untraced p50_us.low",
    "trace.qps": "tracing overhead against the untraced qps",
    "host.calibration_valid": "validity of the run (0: starved host)",
}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no pverify sources under {ROOT}; run from a repository checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "pvbench", "pvbench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def self_test():
    done = subprocess.run([str(BUILD / "pvbench_selftest")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=120)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("benchmark self-tests failed")


def untraced_result(workload, seed):
    path = RESULTS / f"{workload}-seed{seed}-trace0.json"
    if path.is_file():
        return json.loads(path.read_text())
    return None


def main():
    # subprocess.run kills its child on any exception; turning SIGTERM into
    # one means a terminated run.py leaves no pvbench behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    settings = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in settings:
        fail(f"unknown workload {args.workload!r}; known: {sorted(settings)}")

    build()
    self_test()

    cmd = [str(BUILD / "pvbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    for key, value in settings[args.workload]["params"].items():
        cmd += ["--set", f"{key}={value}"]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for attempt in (1, 2):
        started = time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=deadline - started)
        except subprocess.TimeoutExpired:
            fail(f"pvbench did not finish within {RUN_TIMEOUT_S} s")
        lines = done.stdout.splitlines()
        if (done.returncode != 0 or not lines
                or not lines[-1].startswith("RESULT ")):
            sys.stdout.write(done.stdout)
            fail(f"pvbench failed (exit {done.returncode})")
        raw = json.loads(lines[-1][len("RESULT "):])
        if raw["calibration"]["valid"]:
            break
        took = time.monotonic() - started
        if attempt == 2 or time.monotonic() + took > deadline:
            print("run.py: host calibration left its band (starved host); "
                  "reporting the run flagged invalid", file=sys.stderr)
            break
        print("run.py: host calibration left its band (starved host); "
              "measuring again", file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    valid = raw["calibration"]["valid"]
    raw["metrics"]["host.calibration_valid"] = 1.0 if valid else 0.0
    if not valid:
        print("# INVALID: the host calibration left its band (starved host);"
              " do not compare this run")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            fail(f"pvbench did not report {m['name']}")
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                              "unit": m["unit"]}

    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"args": vars(args), **raw}, indent=1))

    if args.trace:
        print(f"# per-layer metrics of {args.workload} "
              "(-> the end-to-end metric each should move)")
        for name, m in metrics.items():
            print(f"#   {name:32s} {m['value']:14.4f} {m['unit']:6s}"
                  f" -> {MOVES.get(name, '')}")
        base = untraced_result(args.workload, args.seed)
        if base is not None:
            b = base["metrics"]
            t = raw["metrics"]
            print("# tracing overhead against the untraced run of this seed: "
                  f"p50_us.low {b['p50_us.low']:.1f} -> "
                  f"{t['trace.p50_us.low']:.1f} us, "
                  f"qps {b['qps']:.0f} -> {t['trace.qps']:.0f}")

    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
