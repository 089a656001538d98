"""In-process A/B of one benchmark operation list against another checkout.

    python3 tools/ab_ops.py OTHER_SRC WORKLOAD

Loads this checkout's `src/boolweyl` and the `boolweyl` package under
OTHER_SRC (for example the `src` of a copy of the parent commit) into one
process, under two names, and imports every submodule of both before
anything is timed: a module that a command loads lazily would otherwise
compile inside its side's first timed operation.  Then it runs the SEED
operation list of WORKLOAD (one of perfbench's `cli`, `classical`,
`quantum`, `battery`, sized for SECONDS) through
`perfbench/worker.run_in_process`.  Each operation runs
on both sides in turn, the side that goes first alternating, so that load
on the host hits both alike.  The run stops at the first operation whose
exit code, stdout or stderr differ between the sides; otherwise it prints
one digest of all of them, per side the throughput and the p50 and p90
latencies, and the median over the operations of each one's time ratio
this/other.  That ratio weighs every operation alike, so a few long ones
(the two deep-nesting `cli` calls) cannot hide a change in the rest.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pkgutil
import statistics
import sys

from bench_values import HERE, load

sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import workloads  # noqa: E402
from worker import run_in_process  # noqa: E402

SEED = 401
SECONDS = 10


def main() -> int:
    if len(sys.argv) != 3 or sys.argv[2] not in workloads.ROUNDS:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    other_src, workload = sys.argv[1:]
    sides = {}
    for side, src in (("other", other_src), ("this", HERE)):
        load(src, f"boolweyl_{side}")
        for module in pkgutil.iter_modules(sys.modules[f"boolweyl_{side}"].__path__):
            importlib.import_module(f"boolweyl_{side}.{module.name}")
        sides[side] = sys.modules[f"boolweyl_{side}.cli"]
    for op in workloads.warmup(workload):
        for cli in sides.values():
            run_in_process(cli, op)
    ops = workloads.operations(workload, SEED, SECONDS)
    seconds = {side: [] for side in sides}
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        order = ("other", "this") if i % 2 == 0 else ("this", "other")
        results = {}
        for side in order:
            *results[side], elapsed = run_in_process(sides[side], op)
            seconds[side].append(elapsed)
        if results["this"] != results["other"]:
            print(f"operation {i} differs: {list(op.argv)!r}")
            for side in sides:
                print(f"  {side}: {results[side]!r}"[:2000])
            return 1
        code, out, err = results["this"]
        digest.update(repr((code, out, err)).encode())
    print(f"{workload}, seed {SEED}: {len(ops)} operations with equal exit code, stdout and stderr")
    print(f"digest {digest.hexdigest()}")
    print(f"{'side':6} {'ops/s':>9} {'p50 ms':>9} {'p90 ms':>9}")
    for side, lat in seconds.items():
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
        print(f"{side:6} {len(lat) / sum(lat):9.1f} {statistics.median(lat) * 1e3:9.3f} {p90 * 1e3:9.3f}")
    ratio = statistics.median(this / other for this, other in zip(seconds["this"], seconds["other"]))
    print(f"median per-operation time ratio this/other: {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
