"""One measured interpreter: set up a workload, run one round of its
operations, check every output and print one JSON record.

run.py starts this script once per round with the round's hash seed and
the moment it started the interpreter (`--spawned-at`, on the monotonic
clock that both processes share), so that set-up time includes the
interpreter's start and `import polyco`.

The speed of the shared machine switches between two levels about 1.8
times apart several times a minute, in CPU time as much as in wall time.
The worker therefore times a fixed reference job after set-up, after every
REFERENCE_EVERY_S seconds of operations (each time after a full garbage
collection) and at the end, and reports the round's speed as `scale`:
(REFERENCE_S / median reference time) ** SPEED_EXPONENT.  Operation times
multiplied by `scale` read as on a machine where the reference job takes
REFERENCE_S.  The reference job calls nothing of polyco, so the program
cannot move the scale.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_S = 0.009
REFERENCE_EVERY_S = 0.25
# polyco's operations slow down less than the reference job when the
# machine does: fitted one operation at a time, their times followed the
# reference time to a power of 0.3 to 0.7, and over three sets of ten runs
# of each workload 0.5 kept the largest run-to-run spread smallest (see
# README.md).
SPEED_EXPONENT = 0.5


def _reference_pass() -> int:
    """Tuple slicing, hashing and dict updates, the operations polyco's
    own code is made of."""
    seen: dict = {}
    word = ("s", "t", "s", "a") * 4
    for i in range(1500):
        w = word[i % 7:] + word[:i % 7]
        for j in range(len(w) - 2):
            key = w[j:j + 3]
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


def reference() -> float:
    """Median time of three passes of the reference job."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _reference_pass()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    t = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import polyco
    import polyco.cli
    import_s = time.perf_counter() - t
    if not Path(polyco.__file__).resolve().is_relative_to(SRC):
        print(f"polyco imported from {polyco.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    import workloads
    from oracles import WrongOutput

    tracer = None
    paused = contextlib.nullcontext
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        paused = tracer.paused
    try:
        rnd = workloads.WORKLOADS[args.workload](polyco, args.seed, WORK)
        with paused():
            rnd.verify()
        setup_s = time.monotonic() - args.spawned_at
        record = {"setup_s": setup_s, "import_s": import_s}
        if args.setup_only:
            print(json.dumps(record))
            return 0
        gc.collect()
        refs = [reference()]
        ops = []        # [name, seconds, failed]
        since = 0.0
        for name, run, check in rnd.ops:
            t = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - t
            with paused():
                failed = check(result)
            ops.append([name, elapsed, failed])
            since += elapsed
            if since >= REFERENCE_EVERY_S:
                gc.collect()
                refs.append(reference())
                since = 0.0
    except WrongOutput as e:
        print(f"wrong output: {e}", file=sys.stderr)
        return 3
    if since:
        refs.append(reference())
    record["ops"] = ops
    record["references_s"] = refs
    record["scale"] = ((REFERENCE_S / statistics.median(refs))
                       ** SPEED_EXPONENT)
    record["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["layers"] = tracer.metrics()
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
