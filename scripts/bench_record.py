"""Record the benchmark of one source tree in a committed BENCH_<n>_<sha>.json.

For every workload of BENCHMARK.json, this runs the benchmark's command
(``python3 bench/run.py``) for its run length once per seed of a fixed
list with tracing off, then once more with ``--trace 1``, and reads the
final JSON line and the ``environment:`` line of each run. Then it runs
the Tier-1 test suite of the measured checkout once
(``python -m pytest -q --continue-on-collection-errors`` with its ``src``
on PYTHONPATH). It writes one JSON file: per workload, the values of every
end-to-end metric over the seeds with their median, quartiles and range,
the traced per-layer metrics, whether every run read ``correct: true``
with no failed operation, and each run's environment (core count, numpy,
scipy and BLAS versions, BLAS threads, host_loop_s); and the suite's wall
time, exit code and its counts of passed, failed and other outcomes.

Run from the root of this repository, optionally against another checkout:

    python3 scripts/bench_record.py                    # this tree
    python3 scripts/bench_record.py --root ../parent   # another checkout

The file goes to this repository's root as BENCH_<n>_<sha>.json, where n
is one more than the highest n there and sha is the measured checkout's
``git describe --always --dirty``. Neither bench/ nor BENCHMARK.json is
changed; the script only calls them.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103, 104, 105)
TRACE_SEED = 199
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# "3 failed, 311 passed, 2 warnings in 95.1s": the outcome counts of pytest's summary
OUTCOME = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected)\b")


def run_bench(root: Path, command: list, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One benchmark run: its result line, environment line and wall time."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("environment:"))
    return {"seed": seed, "trace": trace, "wall_s": wall, "result": json.loads(lines[-1]),
            "environment": env}


def run_tier1(root: Path) -> dict:
    """One run of the checkout's Tier-1 suite: its command, wall time, exit
    code and the outcome counts of its final summary line."""
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}:{path}" if path else src)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + TIER1, cwd=root, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    counts = {word: int(k) for k, word in OUTCOME.findall(lines[-1] if lines else "")}
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "wall_s": wall,
            "exit_code": proc.returncode, "summary": lines[-1] if lines else "",
            "counts": counts}


def summary(values: list) -> dict:
    """Median, quartiles and range of a list of values."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "values": values}


def source_digest(root: Path) -> str:
    """sha256 of the program's source files, in path order."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    root = parser.parse_args().root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sha = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=7"], cwd=root,
                         capture_output=True, text=True, check=True).stdout.strip()

    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_bench(root, spec["command"], name, seed, seconds, 0) for seed in SEEDS]
        traced = run_bench(root, spec["command"], name, TRACE_SEED, seconds, 1)
        metrics = {m["name"]: summary([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                   for m in spec["end_to_end"]}
        all_runs = runs + [traced]
        workloads[name] = {
            "correct": all(r["result"]["correct"] for r in all_runs),
            "failed": sum(r["result"]["failed"] for r in all_runs),
            "attempted": sum(r["result"]["attempted"] for r in all_runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "environments": [dict(r["environment"], seed=r["seed"], trace=r["trace"])
                             for r in all_runs],
        }
        line = ", ".join(f"{k} {v['median']:.4g}" for k, v in metrics.items())
        print(f"{name}: {line}", file=sys.stderr)
    tier1 = run_tier1(root)
    print(f"tier-1: {tier1['summary']} ({tier1['wall_s']:.1f} s wall)", file=sys.stderr)

    taken = [int(p.name.split("_")[1]) for p in HERE.glob("BENCH_*_*.json")
             if p.name.split("_")[1].isdigit()]
    out = HERE / f"BENCH_{max(taken, default=0) + 1}_{sha}.json"
    record = {
        "source": {"describe": sha, "src_sha256": source_digest(root)},
        "seeds": list(SEEDS), "trace_seed": TRACE_SEED, "seconds": seconds,
        "command": spec["command"], "workloads": workloads, "tier1": tier1,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
