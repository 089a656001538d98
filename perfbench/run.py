"""Benchmark entry point.

    python3 perfbench/run.py --workload {cli,classical,quantum,battery} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones of a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7  # set-up-only launches; setup_s is the median of their scaled times
SETUP_CALIBRATIONS = 2  # calibration.setup_work timed just before and just after each


def launch(args, setup_only):
    """Start a worker; return (seconds from launch to "ready", worker result or None)."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if first != "ready\n" or code != 0:
        raise SystemExit(f"worker failed (exit {code})")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if not setup_only else None)


def setup_seconds(args):
    """Median set-up time of SETUP_PROBES launches, each scaled to the
    reference speed by the set-up-like work timed around it."""
    speed = calibration.HostSpeed(calibration.SETUP)
    times = []
    for _ in range(SETUP_PROBES):
        speed.calibrate(SETUP_CALIBRATIONS)
        start = time.perf_counter()
        setup = launch(args, setup_only=True)[0]
        speed.calibrate(SETUP_CALIBRATIONS)
        times.append(setup * speed.scale(start, start + setup))
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "boolweyl", "cli.py")):
        print("error: no boolweyl sources under src/ in this directory", file=sys.stderr)
        return 2

    setup = None if args.trace else setup_seconds(args)
    result = launch(args, setup_only=False)[1]

    lat = result["latencies"]  # per operation, at reference speed
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, value, unit in result["layers"]}
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "throughput_ops_s": {"value": (attempted - failed) / sum(lat), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": result["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
