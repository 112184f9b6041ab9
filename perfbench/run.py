"""Benchmark of polyco: three workloads timed end to end and per layer.

    python3 perfbench/run.py --workload {audit,complete,fill} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/polyco`.  A run repeats
rounds of the workload's operations until S seconds have passed, each round
in a fresh interpreter (worker.py), one after another, so that one core is
busy.  Round i runs with PYTHONHASHSEED derived from (N, i): the work of
loop enumeration depends on the hash seed, and a run that spans several
hash seeds gives medians that repeat from seed to seed.  Set-up is timed in
every round and in extra set-up-only interpreters, up to SETUP_SAMPLES.

Operation times are scaled by the machine speed each round measured with a
reference job (see worker.py); set-up and import times are as measured.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs every round twice, untraced and then traced with the same hash seed,
and reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
A wrong output, a crash or a missing `src/polyco` ends the run with a
non-zero exit code and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import CALLS, COUNTS, TIMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("audit", "complete", "fill")
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170


class RunFailed(Exception):
    pass


def hash_seed(seed: int, i: int) -> int:
    """PYTHONHASHSEED of round i: the first four bytes of sha256("seed:i")."""
    digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def spawn(workload: str, seed: int, i: int, deadline: float,
          trace: bool = False, setup_only: bool = False,
          spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, "-s", str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(seed, i)))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"no time left for round {i}")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"round {i} did not end within the run's time limit")
    if proc.returncode != 0:
        raise RunFailed(f"round {i} (PYTHONHASHSEED={env['PYTHONHASHSEED']})"
                        f" exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _speed(record: dict, scaled: bool) -> float:
    return record["scale"] if scaled else 1.0


def run_s(rounds: list[dict], scaled: bool = True) -> float:
    """Time of one round: the sum over operations of each one's median time
    over the rounds."""
    return sum(statistics.median(r["ops"][i][1] * _speed(r, scaled)
                                 for r in rounds)
               for i in range(len(rounds[0]["ops"])))


def op_p50_s(rounds: list[dict], scaled: bool = True) -> float:
    return statistics.median(op[1] * _speed(r, scaled)
                             for r in rounds for op in r["ops"])


def end_to_end(rounds: list[dict], setups: list[dict]) -> dict:
    """run_s and op_p50_ms are scaled to the reference speed (see worker.py);
    set-up time, which scaling does not steady, is as measured."""
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "run_s": (run_s(rounds), "s"),
        "op_p50_ms": (1000 * op_p50_s(rounds), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in rounds)
                        / 1024, "MB"),
    }


def per_layer(rounds: list[dict], traced: list[dict]) -> dict:
    """Layer times, scaled by each round's reference speed, are medians over
    the traced rounds; calls and counts are those of the first traced round,
    whose hash seed a given workload seed always fixes, so they repeat
    exactly from run to run.  Import time is as measured, like set-up."""
    first = traced[0]["layers"]
    out = {name: (statistics.median(t["layers"][name] * t["scale"]
                                    for t in traced), "s")
           for name in TIMES}
    out.update((name, (first[name], "count")) for name in CALLS)
    out.update((name, (first[name], "count")) for name in COUNTS)
    out["decreasing.found_ratio"] = (first["decreasing.found_ratio"],
                                     "ratio")
    out["engine.words_per_s"] = (statistics.median(
        t["layers"]["engine.words_per_s"] / t["scale"] for t in traced),
        "1/s")
    out["cli.import_s"] = (statistics.median(
        r["import_s"] for r in rounds + traced), "s")
    overhead = run_s(traced) - run_s(rounds)
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_pct"] = (100 * overhead / run_s(rounds), "%")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "polyco" / "__init__.py").is_file():
        print(f"no polyco sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    rounds: list[dict] = []
    traced: list[dict] = []
    try:
        i = 0
        while True:
            rounds.append(spawn(args.workload, args.seed, i, deadline))
            if args.trace:
                spans = (WORK / f"trace-{args.workload}.spans.csv.gz"
                         if i == 0 else None)
                traced.append(spawn(args.workload, args.seed, i, deadline,
                                    trace=True, spans_out=spans))
            i += 1
            if time.monotonic() - start >= args.seconds:
                break
        setups = list(rounds)
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, i, deadline,
                                setup_only=True))
            i += 1
    except RunFailed as e:
        print(f"{args.workload}: {e}", file=sys.stderr)
        return 1

    done = rounds + traced
    metrics = (per_layer(rounds, traced) if args.trace
               else end_to_end(rounds, setups))
    result = {
        "correct": True,
        "attempted": sum(len(r["ops"]) for r in done),
        "failed": sum(op[2] for r in done for op in r["ops"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"{result['attempted']} operations attempted, "
          f"{result['failed']} failed")
    measured = {} if args.trace else {
        "run_s": run_s(rounds, scaled=False),
        "op_p50_ms": 1000 * op_p50_s(rounds, scaled=False)}
    for name, (value, unit) in metrics.items():
        raw = (f"   ({measured[name]:.6g} {unit} unscaled)"
               if name in measured else "")
        print(f"  {name:32} {value:14.6g} {unit}{raw}")
    line = json.dumps(result)
    (WORK / f"rounds-{args.workload}-seed{args.seed}-trace{args.trace}"
            f".json").write_text(json.dumps(done + setups[len(rounds):]))
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
            f".json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
