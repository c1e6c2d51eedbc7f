"""wbiv benchmark: one workload per run, metrics and output checks.

Run from the repository root:

    python3 bench/run.py --workload mc-size --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload's user-level calls with no hooks and
prints the end-to-end metrics; ``--trace 1`` runs the same calls, then
replays them through each layer's public functions with a timer around
every call and prints the per-layer metrics. Every run first checks the
independent reference against the frozen oracle in tests/t1_expected.py
and, after timing, checks the program's outputs. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. A run
record with the environment goes to bench/_work/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
INPUTS = WORK / "inputs"   # generated CSV files, removed when the run ends
EXPECTED = ROOT / "tests" / "t1_expected.py"

SETUP_REPEATS = 4
MIN_ROUNDS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = int(getattr(lib, sym)())
                break
    return out


def host_loop_s() -> float:
    """Median time of a fixed pure-Python loop. It tells a slower program
    from a slower host: on a shared machine the host's speed drifts."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def timed_setup(wl, times: list) -> None:
    t0 = time.perf_counter()
    wl.setup()
    times.append(time.perf_counter() - t0)


def run_rounds(wl, seconds: float, tracer=None, setups: int = 1) -> tuple:
    """Whole rounds of the workload's calls for about ``seconds``.

    The workload is set up ``setups`` times: once before the first round,
    and the others spread evenly over the rounds and after the last one, so
    that one burst of load on the host seldom slows more than one. Time spent
    in these set-ups does not count towards ``seconds``.

    With a tracer, each round's calls are replayed right after it;
    the round then also yields the share of its end-to-end time that the
    replay's layer spans cover and the replay's extra wall time.
    """
    setup_times = []
    timed_setup(wl, setup_times)
    rounds, times, shares = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        outs, took = {}, {}
        r = len(rounds)
        for name in wl.calls:
            t0 = time.perf_counter()
            outs[name] = wl.call(name, r)
            took[name] = time.perf_counter() - t0
            a, f = wl.count(name, outs[name])
            attempted += a
            failed += f
        if tracer is not None:
            e2e = sum(took.values())
            before = tracer.total()
            t0 = time.perf_counter()
            for name in wl.calls:
                wl.replay(tracer, name, r)
            wall = time.perf_counter() - t0
            shares.append(((tracer.total() - before) / e2e, wall / e2e - 1.0))
        rounds.append(outs)
        times.append(took)
        elapsed = time.perf_counter() - start - sum(setup_times[1:])
        # stop when another round would end more than half a round late
        if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 0.5 / len(rounds)) > seconds:
            while len(setup_times) < setups:
                timed_setup(wl, setup_times)
            return rounds, times, shares, attempted, failed, setup_times
        if len(setup_times) < setups - 1 and elapsed > seconds * len(setup_times) / (setups - 1):
            timed_setup(wl, setup_times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wbiv benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wbiv" / "__init__.py").is_file() or not EXPECTED.is_file():
        print(f"bench: no wbiv source tree and oracle file under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    n_oracle = reference.self_check(EXPECTED)
    print(f"reference matches {n_oracle} oracle values of {EXPECTED.relative_to(ROOT)}")

    INPUTS.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, INPUTS, SRC)
    tracer = workloads.Tracer() if args.trace else None
    host_before = host_loop_s()
    rounds, times, shares, attempted, failed, setup_times = run_rounds(
        wl, args.seconds, tracer, setups=1 if args.trace else SETUP_REPEATS)
    host = [host_before, host_loop_s()]

    if tracer is not None:
        layers, apart = workloads.layer_metrics(tracer, *wl.probe(tracer, rounds))
        print(f"layers this workload does not run, timed apart: {', '.join(apart) or 'none'}")
        layers["trace.coverage"] = (statistics.median(c for c, _ in shares), "share")
        layers["trace.overhead"] = (statistics.median(o for _, o in shares), "share")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        a, b = wl.calls[:2]
        values = {
            "setup_s": statistics.median(setup_times),
            "call_a_s": statistics.median(t[a] for t in times),
            "call_b_s": statistics.median(t[b] for t in times),
            "round_s": statistics.median(sum(t.values()) for t in times),
        }
        metrics = {k: {"value": v, "unit": "s"} for k, v in values.items()}

    try:
        checks = wl.check(rounds)
        correct = True
    except workloads.CheckFailed as exc:
        checks = [f"FAILED: {exc}"]
        correct = False
        print(f"bench: check failed: {exc}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "calls": list(wl.calls),
        "call_times_s": times, "setup_times_s": setup_times,
        "environment": dict(environment(), host_loop_s=host), "checks": checks,
    }
    for line in checks:
        print(f"check: {line}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"rounds: {len(rounds)} of {', '.join(wl.calls)}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(INPUTS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
