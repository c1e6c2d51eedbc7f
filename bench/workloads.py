"""The benchmark's three workloads: inputs, timed calls, output checks and
the traced replay that gives the per-layer numbers.

Each workload times a fixed tuple of user-level calls per round. The first
two are reported as ``call_a_s`` and ``call_b_s`` and the whole round as
``round_s`` (see README.md for what each one is on each workload).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref
from wbiv import (
    DgpConfig,
    Hypothesis,
    TestSpec,
    ar_bootstrap_test,
    ar_statistics,
    build_dataset,
    cce_matrix,
    critical_value,
    efficient_first_stage,
    fit_method,
    invert_confidence_set,
    lm_cqlr_bootstrap_test,
    lm_statistic,
    load_csv,
    make_sign_set,
    partial_out_exogenous,
    restricted_kclass_fit,
    restricted_ols_fit,
    run_size_experiment,
    simulate_dgp,
    wrec_run,
    wrec_wald_test,
)
from wbiv.ar import ar_bootstrap_distribution
from wbiv.rng import substream

ALPHA = 0.1
# Relative tolerance of every comparison with the reference: the program's
# partialled, moment-based algebra and the reference's joint refits round
# differently, by 1e-10 or less on these designs.
REL_TOL = 1e-6

# mc-size: a just- and an over-identified null cell of the ten-cluster design.
MC_CONFIGS = {
    "dz1": DgpConfig(q=10, d_z=1, pi0=4.0, rho=0.5),
    "dz3": DgpConfig(q=10, d_z=3, pi0=4.0, rho=0.9),
}
MC_TESTS = ("WB-US", "WB-S", "WB-AR-US", "WB-AR-S")
MC_REPS = 100
MC_BOOT = 499
MC_CHECK_REPS = (0, 1)

# cs-grid: an over-identified draw of the same design, ten times the rows.
CS_CONFIG = DgpConfig(q=10, d_z=2, pi0=4.0, rho=0.5, size_scale=10)
CS_SPECS = {"ar": TestSpec("ar"), "lm": TestSpec("lm"), "wald-cr": TestSpec("wald-cr", "liml")}
# Every grid spans [-2, 2]: the cheap ar test on a fine one, as a user would
# give it, the costly lm and wald-cr tests on 26 points.
CS_RANGE = (-2.0, 2.0)
CS_STEPS = {"ar": 0.01, "lm": 0.16, "wald-cr": 0.16}
CS_NESTED_ALPHA = 0.05

# cli-large-n: the applied user's path on a large CSV with sampled signs.
CLI_ROWS = 100_000
CLI_Q = 20
CLI_BOOT = 499


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(prog, want, what: str) -> float:
    """|prog - want| <= REL_TOL * max(|want|, median |want|), elementwise;
    returns the largest relative error."""
    prog = np.asarray(prog, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    _require(prog.shape == want.shape, f"{what}: shape {prog.shape} vs {want.shape}")
    scale = np.maximum(np.abs(want), np.median(np.abs(want)))
    worst = float(np.max(np.abs(prog - want) / np.maximum(scale, 1e-300)))
    _require(worst <= REL_TOL, f"{what}: relative error {worst:.3g}")
    return worst


def _decision(prog_reject: bool, stat_ref: float, cv_ref: float, what: str) -> bool:
    """Compare a decision with the reference's where the reference is not
    within tolerance of a tie; returns whether it was compared."""
    if abs(stat_ref - cv_ref) <= REL_TOL * max(abs(stat_ref), abs(cv_ref)):
        return False
    _require(bool(prog_reject) == (stat_ref > cv_ref),
             f"{what}: decision {prog_reject} vs reference {stat_ref} > {cv_ref}")
    return True


def fresh_import_s(src: Path) -> float:
    """Wall time of a new interpreter that imports wbiv.cli."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wbiv.cli"], env=env, check=True)
    return time.perf_counter() - t0


def _ref_data(ds) -> ref.Data:
    return ref.Data(ds.y, ds.X, ds.Z, ds.W, ds.cluster_id)


def write_csv(path: Path, columns: dict) -> None:
    """One header row, then one row per observation; floats as repr."""
    names = list(columns)
    rows = zip(*(columns[k].tolist() for k in names))
    with path.open("w") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


class Tracer:
    """Times every call made through it, by layer name, and counts the work
    the replayed calls did."""

    def __init__(self):
        self.spans = defaultdict(list)
        self.replicates = []   # summed layer time of each replayed replicate
        self.draws = 0
        self.n_singular = 0
        self.grid_points = 0
        self._total = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        took = time.perf_counter() - t0
        self.spans[name].append(took)
        self._total += took
        return out

    def scored(self, result) -> None:
        self.draws += result.boot_stats.size
        self.n_singular += result.n_singular

    def median(self, name: str) -> float:
        return float(np.median(self.spans[name]))

    def total(self) -> float:
        """Summed time of every call so far."""
        return self._total


def _probe_once(tr: Tracer, ds, b: float, sign_set, method: str) -> None:
    hyp = Hypothesis.wald(np.ones((1, 1)), [b])
    one_draw = dataclasses.replace(sign_set, vectors=sign_set.vectors[:1])
    tr.call("data.build_dataset", build_dataset, ds.y, ds.X, ds.Z, ds.W, ds.cluster_id)
    design = tr.call("data.partial_out_exogenous", partial_out_exogenous, ds)
    tr.call("inference.make_sign_set", make_sign_set, sign_set.q, sign_set.mode,
            B=sign_set.B or 1, seed=sign_set.seed)
    fit = tr.call("kclass.fit_method", fit_method, ds, design, method)
    tr.call("kclass.restricted_kclass_fit", restricted_kclass_fit, ds, design, fit, hyp)
    tr.call("wald.efficient_first_stage", efficient_first_stage, ds, design, fit.resid_unrestricted)
    tr.call("cce.cce_matrix", cce_matrix, design, fit.resid_unrestricted, hyp.lambda_beta)
    # wrec_run on one draw is the moment engine's set-up; the full sign set
    # right after it gives the per-draw cost as a paired difference
    tr.call("wald.setup", wrec_run, ds, hyp, method, one_draw, design=design)
    run = tr.call("wald.full", wrec_run, ds, hyp, method, sign_set, design=design)
    extra = (tr.spans["wald.full"][-1] - tr.spans["wald.setup"][-1]) / max(sign_set.size - 1, 1)
    tr.spans["wald.per_draw"].append(extra)  # not a call: kept out of the total
    tr.call("inference.critical_value", critical_value, run.boot_stats, ALPHA)
    rols = tr.call("kclass.restricted_ols_fit", restricted_ols_fit, ds, [b])
    stats = tr.call("ar.ar_statistics", ar_statistics, design, rols)
    tr.call("ar.ar_bootstrap_distribution", ar_bootstrap_distribution,
            stats, sign_set.vectors, ds.n, False)
    tr.call("weakiv.lm_statistic", lm_statistic, design, rols)
    tr.call("weakiv.lm_cqlr_bootstrap_test", lm_cqlr_bootstrap_test, ds, [b], "lm",
            sign_set, ALPHA, design)
    tr.call("confidence.point.ar", ar_bootstrap_test, ds, [b], False, sign_set, ALPHA,
            design=design)
    tr.call("confidence.point.wald_cr", wrec_wald_test, ds, hyp, "liml", True, sign_set,
            ALPHA, design=design)
    tr.call("confidence.point.lm", lm_cqlr_bootstrap_test, ds, [b], "lm", sign_set,
            ALPHA, design)


def probe_layers(tr: Tracer, ds, b: float, sign_set, method: str, repeats: int) -> None:
    """Call each layer's public function on one dataset and null value.

    These are the pieces inside the whole-test calls of the replay, timed
    on their own after one untimed pass that warms caches and lazy imports.
    """
    _probe_once(Tracer(), ds, b, sign_set, method)
    for _ in range(repeats):
        _probe_once(tr, ds, b, sign_set, method)


def replay_replicate(tr: Tracer, cfg: DgpConfig, seed, rep: int) -> dict:
    """One replicate of an mc-size cell through the public layer functions,
    in the order the simulator runs them; returns its inputs, the WREC run,
    the AR statistics and bootstrap distributions, and each test's decision."""
    before = tr.total()
    cell = cfg.cell_id()
    rng = tr.call("rng.substream", substream, seed, cell, rep)
    ds = tr.call("simulate.simulate_dgp", simulate_dgp, cfg, rng)
    design = tr.call("data.partial_out_exogenous", partial_out_exogenous, ds)
    signs = tr.call("inference.make_sign_set", make_sign_set, cfg.q, "sampled", B=MC_BOOT,
                    seed=(seed, cell, rep, "signs"))
    hyp = Hypothesis.wald(np.ones((1, 1)), [0.0])
    run = tr.call("wald.full", wrec_run, ds, hyp, "tsls", signs, design=design, want_cr=True)
    decisions = {
        "WB-US": run.statistic > tr.call("inference.critical_value", critical_value,
                                         run.boot_stats, ALPHA),
        "WB-S": run.statistic_cr > tr.call("inference.critical_value", critical_value,
                                           run.boot_stats_cr, ALPHA),
    }
    rols = tr.call("kclass.restricted_ols_fit", restricted_ols_fit, ds, [0.0])
    stats = tr.call("ar.ar_statistics", ar_statistics, design, rols)
    ar_boot = {}
    for studentize, test in ((False, "WB-AR-US"), (True, "WB-AR-S")):
        boot = tr.call("ar.ar_bootstrap_distribution", ar_bootstrap_distribution,
                       stats, signs.vectors, ds.n, studentize)
        stat = stats.ar_cr_n if studentize else stats.ar_n
        decisions[test] = stat > tr.call("inference.critical_value", critical_value, boot, ALPHA)
        ar_boot[test] = (stat, boot)
    tr.replicates.append(tr.total() - before)
    return {"ds": ds, "signs": signs, "run": run, "ar": ar_boot,
            "decisions": {k: bool(v) for k, v in decisions.items()}}


def mc_cell(cfg: DgpConfig, seed, workers: int, reps: int = MC_REPS, boot: int = MC_BOOT):
    return run_size_experiment([cfg], MC_TESTS, mc_reps=reps, boot_reps=boot,
                               seed=seed, workers=workers, alpha=ALPHA)


def _n_failed(tables) -> int:
    return sum(row.n_failed for table in tables for row in table.rows)


def pool_probe(seed, reps: int) -> dict:
    """The pool's efficiency on the just-identified cell: reps/s at two
    workers over twice reps/s at one worker."""
    cfg = MC_CONFIGS["dz1"]
    t0 = time.perf_counter()
    t1 = mc_cell(cfg, seed, 1, reps=reps)
    w1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    t2 = mc_cell(cfg, seed, 2, reps=reps)
    w2 = time.perf_counter() - t0
    return {"pool_efficiency": w1 / (2.0 * w2), "n_failed": _n_failed([t1, t2])}


def mc_probe(tr: Tracer, seed, reps: int) -> dict:
    """The simulator's layers on a few replicates of the just-identified
    cell, and the pool's efficiency on 100-replicate cells. Only for
    workloads that do not run the simulator, into a tracer of its own."""
    for rep in range(reps):
        replay_replicate(tr, MC_CONFIGS["dz1"], seed, rep)
    return pool_probe(seed, 100)


def _probe_csv(tr: Tracer, ds, path: Path) -> None:
    """Time ``load_csv`` on this workload's dataset written as CSV."""
    columns = {"y": ds.y, "x": ds.X[:, 0]}
    for k in range(ds.d_z):
        columns[f"z{k + 1}"] = ds.Z[:, k]
    columns["cluster"] = ds.cluster_id
    write_csv(path, columns)
    for _ in range(3):
        tr.call("io.load_csv", load_csv, path, cluster_dummies=True)


LAYER_TIMES = (
    "cli.import", "io.load_csv", "data.build_dataset", "data.partial_out_exogenous",
    "kclass.fit_method", "kclass.restricted_kclass_fit", "kclass.restricted_ols_fit",
    "wald.efficient_first_stage", "wald.setup", "cce.cce_matrix", "ar.ar_statistics",
    "ar.ar_bootstrap_distribution", "weakiv.lm_statistic", "weakiv.lm_cqlr_bootstrap_test",
    "inference.make_sign_set", "inference.critical_value", "rng.substream",
    "simulate.simulate_dgp",
)


def layer_metrics(tr: Tracer, other: Tracer, mc: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric as (value, unit): seconds per call unless named
    otherwise, then the pool efficiency and the counts of work done.

    A layer is read from ``tr``, the workload's own calls, when they made
    it; otherwise from ``other``, where the workload timed it apart. The
    two are never pooled. Also returns the names read from ``other``.
    """
    out, apart = {}, []

    def median(name: str) -> float:
        if tr.spans.get(name):
            return tr.median(name)
        apart.append(name)
        return other.median(name)

    for name in LAYER_TIMES:
        out[f"{name}_s"] = (median(name), "s")
    out["wald.per_draw_us"] = (median("wald.per_draw") * 1e6, "us")
    for test in ("ar", "wald_cr", "lm"):
        out[f"confidence.point_s.{test}"] = (median(f"confidence.point.{test}"), "s")
    if not tr.replicates:
        apart.append("simulate.replicate")
    out["simulate.replicate_s"] = (float(np.median(tr.replicates or other.replicates)), "s")
    out["simulate.pool_efficiency"] = (mc["pool_efficiency"], "ratio")
    out["wald.draws"] = (tr.draws, "count")
    out["wald.n_singular"] = (tr.n_singular, "count")
    out["simulate.n_failed"] = (mc["n_failed"], "count")
    out["confidence.grid_points"] = (tr.grid_points, "count")
    return out, apart


class McSize:
    """Null-size cells through ``run_size_experiment`` at workers=1; a round
    is the just-identified cell, then the over-identified one. The
    just-identified cell runs at workers=2 only in the checks and in the
    traced run."""

    calls = ("dz1", "dz3")

    def __init__(self, seed: int, work: Path, src: Path):
        self.seed, self.work, self.src = seed, work, src

    def round_seed(self, r: int) -> int:
        return self.seed * 10_000 + r

    def setup(self) -> None:
        fresh_import_s(self.src)
        for cfg in MC_CONFIGS.values():
            mc_cell(cfg, self.round_seed(9_999), 1, reps=100, boot=49)

    def call(self, name: str, r: int):
        return mc_cell(MC_CONFIGS[name], self.round_seed(r), 1)

    @staticmethod
    def count(name: str, table) -> tuple[int, int]:
        failed = sum(row.n_failed for row in table.rows)
        return sum(row.mc_reps for row in table.rows) + failed, failed

    def check(self, rounds: list) -> list[str]:
        done = []
        w2 = mc_cell(MC_CONFIGS["dz1"], self.round_seed(0), 2)
        _require(repr(w2.rows) == repr(rounds[0]["dz1"].rows),
                 "dz1: the workers=1 and workers=2 tables differ")
        done.append("workers=1 and workers=2 tables identical for the dz1 cell of round 0")

        for test in ("WB-AR-US", "WB-AR-S"):
            rows = [row for outs in rounds for table in outs.values() for row in table.rows
                    if row.test == test]
            n = sum(row.mc_reps for row in rows)
            rate = sum(row.reject_rate * row.mc_reps for row in rows) / n
            bound = ALPHA + 3.0 * np.sqrt(ALPHA * (1 - ALPHA) / n)
            _require(rate <= bound, f"{test} null rejection {rate:.4f} above {bound:.4f}")
            done.append(f"{test} null rejection {rate:.4f} <= {bound:.4f} over {n} replicates")

        # Every decision of round 0, recomputed through the public functions
        # the simulator calls, must give the timed tables' rates exactly; the
        # reference then checks those functions on the first replicates.
        seed = self.round_seed(0)
        compared, worst = 0, 0.0
        for name, cfg in MC_CONFIGS.items():
            reps = [replay_replicate(Tracer(), cfg, seed, rep) for rep in range(MC_REPS)]
            for row in rounds[0][name].rows:
                want = float(np.mean([rep["decisions"][row.test] for rep in reps]))
                _require(row.n_failed == 0 and row.mc_reps == MC_REPS,
                         f"{name} {row.test}: {row.n_failed} failed replicates")
                _require(row.reject_rate == want, f"{name} {row.test}: reject rate "
                         f"{row.reject_rate} but the replicates' decisions give {want}")
            for rep in MC_CHECK_REPS:
                out = reps[rep]
                d, vectors, run = _ref_data(out["ds"]), out["signs"].vectors, out["run"]
                _require(run.n_singular == 0, f"{name} rep {rep}: {run.n_singular} singular draws")
                want = ref.wrec(d, "tsls", 0.0, vectors)
                cases = {
                    "WB-US": (run.statistic, run.boot_stats, want["t_n"], want["boot_n"]),
                    "WB-S": (run.statistic_cr, run.boot_stats_cr, want["t_cr_n"], want["boot_cr"]),
                }
                for studentize, test in ((False, "WB-AR-US"), (True, "WB-AR-S")):
                    cases[test] = out["ar"][test] + ref.ar(d, 0.0, vectors, studentize)
                for test, (stat, boot, stat_ref, boot_ref) in cases.items():
                    what = f"{name} rep {rep} {test}"
                    worst = max(worst, _close(stat, stat_ref, f"{what} statistic"),
                                _close(boot, boot_ref, f"{what} bootstrap distribution"))
                    compared += _decision(out["decisions"][test], stat_ref,
                                          ref.critical_value(boot_ref, ALPHA), what)
        done.append(f"the {MC_REPS} decisions of each test in both cells of round 0 give the "
                    "tables' reject rates exactly")
        done.append(f"reference agrees on replicates {MC_CHECK_REPS} of both cells of round 0 "
                    f"(4 tests, {compared} decisions compared, max relative error {worst:.1e})")
        return done

    def replay(self, tr: Tracer, name: str, r: int) -> None:
        """One cell replicate by replicate."""
        for rep in range(MC_REPS):
            tr.scored(replay_replicate(tr, MC_CONFIGS[name], self.round_seed(r), rep)["run"])

    def probe(self, tr: Tracer, rounds: list) -> tuple[Tracer, dict]:
        cfg = MC_CONFIGS["dz1"]
        ds = simulate_dgp(cfg, substream(self.round_seed(0), cfg.cell_id(), 0))
        signs = make_sign_set(cfg.q, "sampled", B=MC_BOOT, seed=(self.seed, "probe"))
        probe_layers(tr, ds, 0.0, signs, "tsls", repeats=7)
        for _ in range(2):
            tr.call("cli.import", fresh_import_s, self.src)
        pool = pool_probe(self.seed, MC_REPS)
        pool["n_failed"] += _n_failed(outs[k] for outs in rounds for k in self.calls)
        other = Tracer()
        _probe_csv(other, ds, self.work / "mc-probe.csv")
        return other, pool


def _grid(name: str) -> np.ndarray:
    """The grid ``invert_confidence_set`` builds for this test."""
    lo, hi = CS_RANGE
    return np.linspace(lo, hi, int(round((hi - lo) / CS_STEPS[name])) + 1)


class CsGrid:
    """Confidence sets by grid inversion on one over-identified dataset with
    exhaustive signs; a round is the ar, the lm and the wald-cr (LIML) set."""

    calls = ("ar", "lm", "wald-cr")

    def __init__(self, seed: int, work: Path, src: Path):
        self.seed, self.work, self.src = seed, work, src

    def setup(self) -> None:
        fresh_import_s(self.src)
        self.ds = simulate_dgp(CS_CONFIG, np.random.default_rng(self.seed))
        lo, _ = CS_RANGE
        for name, spec in CS_SPECS.items():
            step = CS_STEPS[name]
            invert_confidence_set(self.ds, spec, grid_lo=lo, grid_hi=lo + step, step=step,
                                  alpha=ALPHA)

    def _set(self, name: str, alpha: float):
        lo, hi = CS_RANGE
        return invert_confidence_set(self.ds, CS_SPECS[name], grid_lo=lo, grid_hi=hi,
                                     step=CS_STEPS[name], alpha=alpha)

    def call(self, name: str, r: int):
        return self._set(name, ALPHA)

    @staticmethod
    def count(name: str, cs) -> tuple[int, int]:
        return cs.grid.size, 0

    def check(self, rounds: list) -> list[str]:
        done = []
        first = rounds[0]
        for r, outs in enumerate(rounds[1:], start=1):
            for name in self.calls:
                _require(np.array_equal(outs[name].accepted, first[name].accepted),
                         f"round {r}: the {name} set changed between identical calls")

        d = _ref_data(self.ds)
        design = partial_out_exogenous(self.ds)
        signs = make_sign_set(self.ds.q, "exhaustive")
        for name in self.calls:
            cs = first[name]
            grid = cs.grid
            _require(np.allclose(grid, _grid(name), rtol=0, atol=1e-12), f"unexpected {name} grid")
            points = {0, grid.size // 2, grid.size - 1}
            for lo, hi in cs.intervals:
                i_lo, i_hi = int(np.argmin(np.abs(grid - lo))), int(np.argmin(np.abs(grid - hi)))
                points |= {i_lo - 1, i_lo, i_hi, i_hi + 1}
            points = sorted(i for i in points if 0 <= i < grid.size)
            compared, worst = 0, 0.0
            for i in points:
                b = float(grid[i])
                what = f"{name} set at b = {b}"
                if name == "ar":
                    res = ar_bootstrap_test(self.ds, [b], False, signs, ALPHA, design=design)
                    stat_ref, boot_ref = ref.ar(d, b, signs.vectors, False)
                elif name == "lm":
                    res = lm_cqlr_bootstrap_test(self.ds, [b], "lm", signs, ALPHA, design)
                    stat_ref, boot_ref = ref.lm(d, b, signs.vectors)
                else:
                    hyp = Hypothesis.wald(np.ones((1, 1)), [b])
                    res = wrec_wald_test(self.ds, hyp, "liml", True, signs, ALPHA, design=design)
                    want = ref.wrec(d, "liml", b, signs.vectors)
                    stat_ref, boot_ref = want["t_cr_n"], want["boot_cr"]
                _require(res.n_singular == 0, f"{what}: {res.n_singular} singular draws")
                worst = max(worst, _close(res.statistic, stat_ref, f"{what} statistic"),
                            _close(res.boot_stats, boot_ref, f"{what} bootstrap distribution"))
                compared += _decision(not cs.accepted[i], stat_ref,
                                      ref.critical_value(boot_ref, ALPHA), what)
            done.append(f"{name}: reference agrees at {len(points)} grid points ({compared} "
                        f"decisions compared, max relative error {worst:.1e}), "
                        f"intervals {list(cs.intervals)}")

        wide = self._set("ar", CS_NESTED_ALPHA)
        _require(bool(np.all(wide.accepted[first["ar"].accepted])),
                 f"the ar set at alpha {CS_NESTED_ALPHA} does not contain the set at {ALPHA}")
        done.append(f"ar set at alpha {CS_NESTED_ALPHA} contains the set at alpha {ALPHA}")
        return done

    def replay(self, tr: Tracer, name: str, r: int) -> None:
        """One set point by point, as ``invert_confidence_set`` runs it."""
        design = tr.call("data.partial_out_exogenous", partial_out_exogenous, self.ds)
        for b in _grid(name):
            b = float(b)
            signs = tr.call("inference.make_sign_set", make_sign_set, self.ds.q, "exhaustive")
            if name == "ar":
                tr.call("confidence.point.ar", ar_bootstrap_test, self.ds, [b], False,
                        signs, ALPHA, design=design)
            elif name == "lm":
                tr.call("confidence.point.lm", lm_cqlr_bootstrap_test, self.ds, [b], "lm",
                        signs, ALPHA, design)
            else:
                hyp = Hypothesis.wald(np.ones((1, 1)), [b])
                tr.scored(tr.call("confidence.point.wald_cr", wrec_wald_test, self.ds, hyp,
                                  CS_SPECS[name].estimator, True, signs, ALPHA, design=design))
            tr.grid_points += 1

    def probe(self, tr: Tracer, rounds: list) -> tuple[Tracer, dict]:
        signs = make_sign_set(self.ds.q, "exhaustive")
        probe_layers(tr, self.ds, 0.0, signs, "liml", repeats=5)
        for _ in range(2):
            tr.call("cli.import", fresh_import_s, self.src)
        other = Tracer()
        _probe_csv(other, self.ds, self.work / "cs-probe.csv")
        return other, mc_probe(other, self.seed, reps=10)


def cli_data(seed: int) -> dict:
    """A large clustered IV sample with heterogeneous cluster sizes and
    first-stage strengths, rows in random cluster order, six decimals."""
    rng = np.random.default_rng(seed)
    shares = rng.dirichlet(np.full(CLI_Q, 2.0))
    sizes = np.maximum(np.round(shares * CLI_ROWS).astype(int), 1000)
    cluster = rng.permutation(np.repeat(np.arange(CLI_Q), sizes))
    n = cluster.size
    pi = rng.uniform(0.1, 1.0, CLI_Q)
    effect = rng.standard_normal(CLI_Q)
    z = rng.standard_normal((n, 2)) * rng.uniform(0.5, 2.0, CLI_Q)[cluster, None]
    eps = rng.standard_normal(n)
    v = 0.5 * eps + np.sqrt(0.75) * rng.standard_normal(n)
    scale = 1.0 + np.abs(z[:, 0])
    x = pi[cluster] * z.sum(axis=1) + scale * v
    y = effect[cluster] + scale * eps
    data = {"y": y, "x": x, "z1": z[:, 0], "z2": z[:, 1]}
    data = {k: np.round(v, 6) for k, v in data.items()}
    data["cluster"] = np.array([f"c{j:02d}" for j in cluster])
    return data


class CliLargeN:
    """``wbiv test`` as a subprocess on a large generated CSV; a round is
    ``--test ar`` then ``--test wald-cr --method liml``."""

    calls = ("ar", "wald-cr")

    def __init__(self, seed: int, work: Path, src: Path):
        self.seed, self.work, self.src = seed, work, src
        self.path = work / f"cli-large-n-{seed}.csv"

    def setup(self) -> None:
        fresh_import_s(self.src)
        self.data = cli_data(self.seed)
        write_csv(self.path, self.data)

    def argv(self, name: str) -> list[str]:
        test = ["--test", "ar", "--full"] if name == "ar" else ["--test", "wald-cr", "--method", "liml"]
        return [sys.executable, "-m", "wbiv.cli", "test", str(self.path), "--cluster-dummies",
                "--beta0", "0", "--alpha", str(ALPHA), "-B", str(CLI_BOOT),
                "--seed", str(self.seed)] + test

    def call(self, name: str, r: int):
        env = dict(os.environ, PYTHONPATH=str(self.src))
        return subprocess.run(self.argv(name), env=env, capture_output=True, text=True)

    @staticmethod
    def count(name: str, proc) -> tuple[int, int]:
        return 1, int(proc.returncode != 0)

    def _ref(self) -> ref.Data:
        labels = self.data["cluster"]
        uniq, codes = np.unique(labels, return_inverse=True)
        dummies = (codes[:, None] == np.arange(1, uniq.size)[None, :]).astype(np.float64)
        w = np.column_stack([np.ones(codes.size), dummies])
        z = np.column_stack([self.data["z1"], self.data["z2"]])
        return ref.Data(self.data["y"], self.data["x"], z, w, codes)

    def check(self, rounds: list) -> list[str]:
        done = []
        for r, outs in enumerate(rounds):
            for name in self.calls:
                _require(outs[name].returncode == 0, f"round {r}: {name} exited "
                         f"{outs[name].returncode}: {outs[name].stderr.strip()}")
                _require(outs[name].stdout == rounds[0][name].stdout,
                         f"round {r}: {name} output changed between identical calls")

        ds = load_csv(self.path, cluster_dummies=True)
        labels = self.data["cluster"]
        order = np.argsort(labels, kind="stable")
        uniq, codes = np.unique(labels[order], return_inverse=True)
        _require(ds.cluster_labels == tuple(uniq.tolist()), "load_csv cluster labels")
        _require(np.array_equal(ds.cluster_id, codes), "load_csv cluster codes")
        _require(np.array_equal(ds.y, self.data["y"][order]), "load_csv y")
        _require(np.array_equal(ds.X[:, 0], self.data["x"][order]), "load_csv x")
        _require(np.array_equal(ds.Z, np.column_stack([self.data["z1"], self.data["z2"]])[order]),
                 "load_csv z")
        dummies = (codes[:, None] == np.arange(1, uniq.size)[None, :]).astype(np.float64)
        _require(np.array_equal(ds.W, np.column_stack([np.ones(codes.size), dummies])), "load_csv W")
        done.append(f"load_csv returns the generated {ds.n} rows exactly, sorted by cluster")

        d = self._ref()
        signs = make_sign_set(d.q, "auto", B=CLI_BOOT, seed=self.seed)
        out = json.loads(rounds[0]["ar"].stdout)
        stat_ref, boot_ref = ref.ar(d, 0.0, signs.vectors, False)
        boot = np.asarray(out["boot_stats"])
        worst = max(_close(out["statistic"], stat_ref, "test ar statistic"),
                    _close(boot, boot_ref, "test ar boot_stats"))
        _require(out["critical_value"] == ref.critical_value(boot, ALPHA),
                 "test ar critical value is not the exact order statistic of boot_stats")
        _close(out["critical_value"], ref.critical_value(boot_ref, ALPHA), "test ar critical value")
        _require(out["pvalue"] == ref.pvalue(boot, out["statistic"]),
                 "test ar p-value is not the share of draws at or above the statistic")
        _require(out["reject"] == (out["statistic"] > out["critical_value"]), "test ar decision")
        done.append(f"test ar: statistic, {boot.size} boot_stats, critical value, p-value "
                    f"and decision agree with the reference (max relative error {worst:.1e})")

        out = json.loads(rounds[0]["wald-cr"].stdout)
        want = ref.wrec(d, "liml", 0.0, np.empty((0, d.q)))
        worst = _close(out["statistic"], want["t_cr_n"], "test wald-cr statistic")
        _require(out["reject"] == (out["statistic"] > out["critical_value"]), "test wald-cr decision")
        _require(out.get("n_singular", 0) == 0, "test wald-cr singular draws")
        done.append("test wald-cr: statistic and decision agree with the reference "
                    f"(relative error {worst:.1e})")
        return done

    def replay(self, tr: Tracer, name: str, r: int) -> None:
        """One CLI call in this process, layer by layer; the interpreter
        start and ``import wbiv.cli`` are timed in a fresh interpreter."""
        tr.call("cli.import", fresh_import_s, self.src)
        ds = tr.call("io.load_csv", load_csv, self.path, cluster_dummies=True)
        signs = tr.call("inference.make_sign_set", make_sign_set, ds.q, "auto", B=CLI_BOOT,
                        seed=self.seed)
        design = tr.call("data.partial_out_exogenous", partial_out_exogenous, ds)
        if name == "ar":
            res = tr.call("confidence.point.ar", ar_bootstrap_test, ds, [0.0], False, signs,
                          ALPHA, design=design)
        else:
            hyp = Hypothesis.wald(np.ones((1, 1)), [0.0])
            res = tr.call("confidence.point.wald_cr", wrec_wald_test, ds, hyp, "liml", True,
                          signs, ALPHA, design=design)
            tr.scored(res)
        tr.call("cli.emit", json.dumps, res.to_record(name == "ar"), indent=2)

    def probe(self, tr: Tracer, rounds: list) -> tuple[Tracer, dict]:
        ds = load_csv(self.path, cluster_dummies=True)
        signs = make_sign_set(ds.q, "auto", B=CLI_BOOT, seed=self.seed)
        probe_layers(tr, ds, 0.0, signs, "liml", repeats=2)
        other = Tracer()
        return other, mc_probe(other, self.seed, reps=10)


WORKLOADS = {"mc-size": McSize, "cs-grid": CsGrid, "cli-large-n": CliLargeN}
