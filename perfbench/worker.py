"""One benchmark process: set up, say "ready", run the whole list, report.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It
prints "ready" once set-up (imports, input generation, warm-up) is done;
run.py times set-up from launch to that line.  Unless --setup-only is
given it then runs every operation, checks each answer against the
oracle outside the timed region, and prints one JSON line of raw
results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def run_in_process(cli, op):
    """Exit code, stdout, stderr and seconds of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(op.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception as exc:  # an uncaught error: the interpreter exits 1
                code = 1
                err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), elapsed


def run_child(op):
    """The same, through a fresh `python -m boolweyl.cli` interpreter
    (which finds src/ through the PYTHONPATH that run.py set)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "boolweyl.cli", *op.argv],
        input=op.stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, elapsed


def import_ms(samples=5):
    """Median cumulative `import boolweyl.cli` time in fresh interpreters (-X importtime)."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import boolweyl.cli"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=60,
            check=True,
        )
        match = re.search(r"^import time:\s+\d+ \|\s+(\d+) \|\s+boolweyl\.cli$", proc.stderr, re.M)
        times.append(int(match.group(1)) / 1000.0)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # --- set-up: everything up to the first timed operation -------------------
    in_process = args.workload != "cli" or args.trace
    if in_process:
        import boolweyl.cli as cli

        if not cli.__file__.startswith(os.path.join(ROOT, "src")):
            raise SystemExit(f"boolweyl imported from {cli.__file__}, not from this checkout")

        def execute(op):
            return run_in_process(cli, op)

    else:

        execute = run_child

    ops = workloads.operations(args.workload, args.seed, args.seconds)
    for op in workloads.warmup(args.workload):
        execute(op)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # --- the timed list; the oracle runs between operations, untimed ----------
    import calibration
    import oracle

    if not in_process:
        speed = calibration.HostSpeed(calibration.CHILD)
    elif args.workload == "battery":
        speed = calibration.HostSpeed(calibration.ALLOCATION)
    else:
        speed = calibration.HostSpeed(calibration.IN_PROCESS)
    # battery calls last seconds: sample the host inside them too (untraced only)
    during = speed.sampling if args.workload == "battery" and tracer is None else contextlib.nullcontext
    speed.burst(force=True)
    executions = []  # (start, seconds) per operation
    op_spans = []
    failed = wrong = 0
    for op in ops:
        speed.burst()
        if tracer is not None:
            op_spans.append(tracer.begin("op"))
        start = time.perf_counter()
        with during():
            code, out, err, elapsed = execute(op)
        if tracer is not None:
            tracer.end_span(op_spans[-1])
        executions.append((start, elapsed))
        if op.known_fault:
            ok = oracle.check_deep_nesting(code, out, err)
        else:
            ok = oracle.check_call(list(op.argv), op.stdin, code, out, err)
        if ok:
            continue
        if op.known_fault and oracle.deep_nesting_fault(code, out, err):
            failed += 1
        else:
            wrong += 1
            print(f"wrong answer: {list(op.argv)!r} exit {code}\n{out[:500]}{err[-500:]}", file=sys.stderr)
    speed.burst(force=True)

    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    result = {
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "latencies": [seconds * speed.scale(start, start + seconds) for start, seconds in executions],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        import tracing

        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            per_layer = json.load(fh)["per_layer"]
        values = tracing.layer_metrics(tracer, import_ms(), [m["name"] for m in per_layer])
        result["layers"] = [[m["name"], values[m["name"]], m["unit"]] for m in per_layer]
        tracer.save(stem + ".spans", [[idx, op.n, op.argv[0]] for idx, op in zip(op_spans, ops)])
    record = {
        **result,
        "raw": [seconds for _, seconds in executions],
        "starts": [start for start, _ in executions],
        "cal": [speed.times, speed.seconds],  # calibration starts and seconds
        "n": [op.n for op in ops],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
