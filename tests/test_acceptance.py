"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
use 2000 replications with 499 sampled sign vectors and fixed seeds; they
take a few minutes total on two cores.

Criterion 4 is expected to fail in three of its cells, where the bootstrap
Wald tests under-reject on this design (docs/decisions.md holds the evidence
that the implementation is not the cause); the test reports every cell.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import t1_expected as E
import wbiv
from conftest import random_dataset
from score_reference import score_wald_reference
from wbiv import (
    Hypothesis,
    ar_bootstrap_test,
    ar_statistics,
    build_dataset,
    critical_value,
    invert_confidence_set,
    lm_cqlr_bootstrap_test,
    make_sign_set,
    partial_out_exogenous,
    restricted_ols_fit,
    run_tests,
    score_bootstrap_wald_test,
    wrec_run,
)
from wbiv.ar import ar_bootstrap_distribution
from wbiv.inference import SignSet
from wbiv.rng import substream
from wbiv.simulate import (
    DgpConfig,
    run_power_experiment,
    run_size_experiment,
    simulate_dgp,
)
from wbiv import fit_method

SEED = 0
ALPHA = 0.10
BOUNDS = (0.075, 0.125)


def report(num, name, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{flag}] {name}: {detail}")
    return ok


def test_criterion_01_identity_sign_vector():
    """Bootstrap statistics at g = iota reproduce the sample statistics."""
    iota_ok = True
    worst = 0.0
    hyp = Hypothesis.wald(np.eye(1), [0.0])
    for k in range(100):
        ds = random_dataset(1000 + k, q=4, n_per=22, d_z=2, d_w=2, rho=0.4)
        design = partial_out_exogenous(ds)
        iota = SignSet(mode="exhaustive", q=4, vectors=np.ones((1, 4)))
        for method in ("tsls", "liml", "full", "ba"):
            run = wrec_run(ds, hyp, method, iota, design=design)
            for stat, boot in (
                (run.statistic, run.boot_stats[0]),
                (run.statistic_cr, run.boot_stats_cr[0]),
            ):
                gap = abs(boot - stat) / max(1.0, abs(stat))
                worst = max(worst, gap)
                iota_ok &= gap <= 1e-9
        rols = restricted_ols_fit(ds, [0.0])
        stats = ar_statistics(design, rols)
        for studentize in (False, True):
            boot = ar_bootstrap_distribution(stats, iota.vectors, ds.n, studentize)[0]
            stat = stats.ar_cr_n if studentize else stats.ar_n
            gap = abs(boot - stat) / max(1.0, abs(stat))
            worst = max(worst, gap)
            iota_ok &= gap <= 1e-9
        for which in ("lm", "cqlr"):
            res = lm_cqlr_bootstrap_test(ds, [0.0], which, iota, design=design)
            gap = abs(res.boot_stats[0] - res.statistic) / max(1.0, abs(res.statistic))
            worst = max(worst, gap)
            iota_ok &= gap <= 1e-9
    assert report(1, "identity sign vector", iota_ok, f"max relative gap {worst:.2e}")


def test_criterion_02_score_ar_decision_equivalence():
    """Score-form Wald and unstudentized AR agree on every shared sign set.

    The score-form Wald statistic comes from the restricted TSLS fit of
    ``score_reference``, independently of the AR test's restricted OLS fit;
    the registry's score-wald, which reads the AR pass, must agree too."""
    hyp = Hypothesis.wald(np.eye(1), [0.0])
    agree = 0
    registry_agree = 0
    rejects = 0
    total = 1000
    for k in range(total):
        q = 4 + (k % 4)
        pi = (0.15, 0.6, 1.3)[k % 3]  # from weak to strong identification
        ds = random_dataset(20_000 + k, q=q, n_per=12, rho=0.5, pi_scale=pi)
        signs = make_sign_set(q, "exhaustive")
        score = score_wald_reference(ds, hyp, alpha=ALPHA, sign_set=signs)
        ar = ar_bootstrap_test(ds, [0.0], alpha=ALPHA, sign_set=signs)
        registry = run_tests(ds, ["score-wald"], hyp, sign_set=signs, alpha=ALPHA)
        agree += score.reject == ar.reject
        registry_agree += registry["score-wald"].reject == ar.reject
        rejects += score.reject
    ok = agree == total and registry_agree == total and 0 < rejects < total
    assert report(
        2, "score/AR decision equivalence",
        ok, f"{agree}/{total} agree ({registry_agree} via the registry), {rejects} rejections",
    )


def test_criterion_03_ar_degeneracy_dz_equals_q():
    """With d_z = q = 5 the squared CCE-weighted AR statistic equals d_z."""
    worst = 0.0
    for k in range(25):
        rng = substream(3000 + k, "dzq5")
        q, n_per = 5, 8
        n = q * n_per
        ds = build_dataset(
            rng.standard_normal(n),
            rng.standard_normal(n),
            rng.standard_normal((n, q)),
            np.ones(n),
            np.repeat(np.arange(q), n_per),
        )
        stats = ar_statistics(partial_out_exogenous(ds), restricted_ols_fit(ds, [0.0]))
        worst = max(worst, abs(stats.ar_cr_sq - 5.0))
    assert report(3, "AR degeneracy at d_z = q", worst <= 1e-8, f"max |AR_sq - 5| = {worst:.2e}")


def test_criterion_04_null_size_just_identified():
    """Size grid, d_z = 1: Pi0 x rho cells for both Wald bootstrap tests.

    Known failures at SEED = 0, all below the window: WB-S at Pi0 = 2 and
    Pi0 = 4 with rho = 0 (4.15% and 6.50%) and WB-US at Pi0 = 2, rho = 0.9
    (7.05%). docs/decisions.md records the checks showing this is a property
    of the procedure on this design, not of the implementation, and how to
    rerun them.
    """
    grid = [(p, r) for p in (2.0, 4.0, 6.0) for r in (0.0, 0.5, 0.9)]
    configs = [DgpConfig(q=10, d_z=1, pi0=p, rho=r) for p, r in grid]
    # reference cell checked on its own: Pi0 = 4, rho = 0.6
    configs.append(DgpConfig(q=10, d_z=1, pi0=4.0, rho=0.6))
    table = run_size_experiment(
        configs, ["WB-US:tsls", "WB-S:tsls"],
        mc_reps=2000, boot_reps=499, seed=SEED, workers=2,
    )
    lo, hi = BOUNDS
    violations = []
    for row in table.rows:
        cell = f"{row.test} pi0={row.pi0} rho={row.rho}"
        inside = lo <= row.reject_rate <= hi
        print(f"    {cell}: {row.reject_rate:.4f}{'' if inside else '  <-- outside [7.5%, 12.5%]'}")
        if (row.pi0, row.rho) != (4.0, 0.6) and not inside:
            violations.append(f"{cell} = {row.reject_rate:.4f}")
    example = table.rate("WB-US", "tsls", pi0=4.0, rho=0.6)
    example_ok = lo <= example <= hi
    print(f"    reference cell (WB-US pi0=4 rho=0.6): {example:.4f} {'in' if example_ok else 'OUT OF'} bounds")
    ok = not violations and example_ok
    report(4, "null size, just-identified", ok,
           "all cells within [7.5%, 12.5%]" if ok else f"{len(violations)} cell(s) outside")
    assert example_ok
    assert not violations, (
        "cells outside the [7.5%, 12.5%] window: " + "; ".join(violations)
        + " (see docs/decisions.md for the evidence that the implementation is not the cause)"
    )


def test_criterion_05_null_size_ar_tests():
    """AR bootstrap tests near nominal at d_z = 3, rho = 0.9; asymptotic
    chi-squared AR-CR nearly never rejects."""
    configs = [DgpConfig(q=10, d_z=3, pi0=p, rho=0.9) for p in (2.0, 4.0, 6.0)]
    table = run_size_experiment(
        configs, ["WB-AR-US", "WB-AR-S", "ASY-AR-S"],
        mc_reps=2000, boot_reps=499, seed=SEED, workers=2,
    )
    lo, hi = BOUNDS
    ok = True
    details = []
    for row in table.rows:
        if row.test == "ASY-AR-S":
            cell_ok = row.reject_rate < 0.03
        else:
            cell_ok = lo <= row.reject_rate <= hi
        ok &= cell_ok
        details.append(f"{row.test}@pi0={row.pi0}: {row.reject_rate:.4f}")
    assert report(5, "null size, AR tests", ok, "; ".join(details))


def test_criterion_06_estimator_ranking_overidentified():
    """FULL-based bootstrap Wald size at least as close to nominal as TSLS
    at d_z = 3, rho = 0.99 (weak first stage makes the contrast sharp)."""
    table = run_size_experiment(
        [DgpConfig(q=10, d_z=3, pi0=2.0, rho=0.99)],
        ["WB-US:tsls", "WB-S:tsls", "WB-US:full", "WB-S:full"],
        mc_reps=2000, boot_reps=499, seed=SEED, workers=2,
    )
    ok = True
    details = []
    for test in ("WB-US", "WB-S"):
        full_gap = abs(table.rate(test, "full") - ALPHA)
        tsls_gap = abs(table.rate(test, "tsls") - ALPHA)
        ok &= full_gap <= tsls_gap + 0.01
        details.append(
            f"{test}: |full-10%|={full_gap:.4f} vs |tsls-10%|+1pp={tsls_gap + 0.01:.4f}"
        )
    assert report(6, "estimator ranking, overidentified", ok, "; ".join(details))


def test_criterion_07_power_ordering():
    """At distant alternatives the studentized test is no less powerful, and
    power rises with the number of strong clusters.

    The studentized-power dominance is a sufficiently-distant-alternative
    statement and the power curves are asymmetric around zero, so the
    acceptance grid's extremes sit well outside the asymmetric dip.
    """
    extremes = (-1.2, 1.2)
    rates = {}
    for strong in (1, 3, 6):
        cfg = DgpConfig(q=10, d_z=2, pi0=6.0, rho=0.2, strong_clusters=strong)
        table = run_power_experiment(
            [cfg], ["WB-US:full", "WB-S:full"], beta_grid=extremes,
            mc_reps=2000, boot_reps=499, seed=SEED, workers=2,
        )
        for row in table.rows:
            rates[(row.test, strong, row.beta)] = row.reject_rate
            print(f"    strong={strong} {row.test} beta={row.beta:+.1f}: {row.reject_rate:.4f}")
    ok = True
    for beta in extremes:
        ok &= rates[("WB-S", 6, beta)] >= rates[("WB-US", 6, beta)] - 0.02
        for test in ("WB-US", "WB-S"):
            ok &= rates[(test, 3, beta)] >= rates[(test, 1, beta)] - 0.02
            ok &= rates[(test, 6, beta)] >= rates[(test, 3, beta)] - 0.02
    assert report(7, "power ordering", ok, f"extreme alternatives {extremes}")


def test_criterion_08_oracle_equivalence():
    """Every statistic on T1 (and its d_z = 2 augmentation) matches the
    arbitrary-precision oracle; exhaustive |G| = 4 bootstrap distributions
    match element-wise."""
    y = np.array([1.0, 2.0, 1.5, 0.5, 1.8, 1.2])
    x = np.array([0.5, 1.0, 0.8, 0.2, 1.1, 0.7])
    z = np.array([1.0, 2.0, 1.5, 0.5, 1.9, 1.1])
    cid = np.array([1, 1, 1, 2, 2, 2])
    t1 = build_dataset(y, x, z, np.ones(6), cid)
    t1_dz2 = build_dataset(y, x, np.column_stack([z, z**2]), np.ones(6), cid)
    hyp = Hypothesis.wald(np.eye(1), [0.0])
    signs = make_sign_set(2, "exhaustive")
    tol = 1e-8
    checks = []

    run = wrec_run(t1, hyp, "tsls", signs)
    checks += [
        abs(run.statistic - E.T_N),
        abs(run.statistic_cr - E.T_CR_N),
        np.abs(run.boot_stats - E.TSTAR_N).max(),
        np.abs(run.boot_stats_cr - E.TSTAR_CR_N).max(),
    ]
    run2 = wrec_run(t1_dz2, hyp, "tsls", signs)
    checks += [
        np.abs(run2.boot_stats - E.TSTAR_N_DZ2).max(),
        np.abs(run2.boot_stats_cr - E.TSTAR_CR_N_DZ2).max(),
    ]
    run2l = wrec_run(t1_dz2, hyp, "liml", signs, want_cr=False)
    checks += [
        # the LIML kappa of the k-class fit that wrec_run runs
        abs(fit_method(t1_dz2, partial_out_exogenous(t1_dz2), "liml").kappa - E.KAPPA_LIML_DZ2),
        np.abs(run2l.boot_stats - E.TSTAR_N_DZ2_LIML).max(),
    ]
    design = partial_out_exogenous(t1)
    stats = ar_statistics(design, restricted_ols_fit(t1, [0.0]))
    checks += [
        abs(stats.ar_n - E.AR_N),
        abs(stats.ar_cr_n - E.AR_CR_N),
        np.abs(ar_bootstrap_distribution(stats, signs.vectors, 6, False) - E.ARSTAR_N).max(),
        np.abs(ar_bootstrap_distribution(stats, signs.vectors, 6, True) - E.ARSTAR_CR_N).max(),
    ]
    score = score_bootstrap_wald_test(t1, hyp, sign_set=signs)
    checks += [
        abs(score.statistic - E.SCORE_STAT),
        np.abs(score.boot_stats - E.SCORE_STAR).max(),
    ]
    # q = 3 extension carries the LM / CQLR oracle values (q > d_z needed)
    yx = np.r_[y, [0.9, 1.6, 1.1]]
    xx = np.r_[x, [0.4, 0.9, 0.6]]
    zx = np.r_[z, [0.8, 1.7, 1.0]]
    t1x = build_dataset(yx, xx, np.column_stack([zx, zx**2]), np.ones(9), np.repeat([1, 2, 3], 3))
    signs3 = make_sign_set(3, "exhaustive")
    res_lm = lm_cqlr_bootstrap_test(t1x, [0.0], "lm", signs3)
    res_lr = lm_cqlr_bootstrap_test(t1x, [0.0], "cqlr", signs3)
    checks += [
        abs(res_lm.statistic - E.LM_N_T1X),
        np.abs(res_lm.boot_stats - E.LMSTAR_T1X).max(),
        abs(res_lr.statistic - E.LR_N_T1X),
        np.abs(res_lr.boot_stats - E.LRSTAR_T1X).max(),
    ]
    worst = max(checks)
    assert report(8, "oracle equivalence", worst <= tol, f"max |impl - oracle| = {worst:.2e}")


def _run_cli(args, cwd):
    # The child runs from cwd, where a relative PYTHONPATH entry (such as the
    # "src" of an uninstalled checkout) no longer resolves: put the directory
    # that holds the imported package first, as an absolute path.
    pkg_root = str(Path(wbiv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "wbiv.cli"] + args
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def test_criterion_09_determinism_across_workers(tmp_path):
    """Identical seeds give byte-identical output files for any --workers."""
    # simulate: same seed, workers 1 vs 2
    outs = []
    for workers, name in ((1, "a.csv"), (2, "b.csv")):
        out = tmp_path / name
        proc = _run_cli(
            ["simulate", "size", "--dz", "1", "--pi0", "4", "--rho", "0.5",
             "--tests", "WB-US:tsls,WB-S:tsls", "--reps", "100", "-B", "49",
             "--seed", "7", "--workers", str(workers), "--out", str(out),
             "--format", "csv"],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    sim_ok = outs[0] == outs[1]

    # cs on a q = 14 draw (sampled sign sets), workers 1 vs 2
    ds = simulate_dgp(DgpConfig(q=14, d_z=1, pi0=6.0, rho=0.2), substream(9, "det-cs"))
    csv = tmp_path / "data.csv"
    lines = ["y,x,z,cluster"]
    for i in range(ds.n):
        lines.append(
            f"{float(ds.y[i])!r},{float(ds.X[i, 0])!r},{float(ds.Z[i, 0])!r},{ds.cluster_id[i]}"
        )
    csv.write_text("\n".join(lines) + "\n")
    cs_bytes = []
    for workers, name in ((1, "cs1.json"), (2, "cs2.json")):
        out = tmp_path / name
        proc = _run_cli(
            ["cs", str(csv), "--test", "ar", "--grid-lo", "-1", "--grid-hi", "1",
             "--step", "0.1", "-B", "99", "--seed", "3",
             "--workers", str(workers), "--out", str(out)],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        cs_bytes.append(out.read_bytes())
    cs_ok = cs_bytes[0] == cs_bytes[1]

    # test: repeated invocation with the same seed
    t_bytes = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        proc = _run_cli(
            ["test", str(csv), "--test", "wald-cr", "--signs", "sampled",
             "-B", "199", "--seed", "11", "--full", "--out", str(out)],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        t_bytes.append(out.read_bytes())
    test_ok = t_bytes[0] == t_bytes[1]

    ok = sim_ok and cs_ok and test_ok
    assert report(
        9, "determinism across workers", ok,
        f"simulate={sim_ok}, cs={cs_ok}, test={test_ok}",
    )


def test_criterion_10_kclass_asymptotic_equivalence():
    """Median sqrt(n)|liml - tsls| strictly decreases along the size ladder.

    The design's stated cluster sizes sum to n = 330 (not the also-stated
    310; see docs/decisions.md), so the ladder is n = 330, 1320, 5280.
    """
    medians = []
    for scale in (1, 4, 16):
        cfg = DgpConfig(q=10, d_z=3, pi0=6.0, rho=0.2, size_scale=scale)
        gaps = []
        for rep in range(150):
            ds = simulate_dgp(cfg, substream(SEED, "kclass-equiv", scale, rep))
            design = partial_out_exogenous(ds)
            b_t = fit_method(ds, design, "tsls").beta_hat[0]
            b_l = fit_method(ds, design, "liml").beta_hat[0]
            gaps.append(np.sqrt(ds.n) * abs(b_l - b_t))
        medians.append(float(np.median(gaps)))
    ok = medians[0] > medians[1] > medians[2]
    assert report(
        10, "k-class asymptotic equivalence", ok,
        "medians " + " > ".join(f"{m:.5f}" for m in medians),
    )


# ---------------------------------------------------------------------------
# Supplementary checks that need Monte Carlo scale
# ---------------------------------------------------------------------------


def test_supplementary_lm_null_size():
    """LM bootstrap null rejection within 10% +- 3pp on the d_z = 2 design."""
    table = run_size_experiment(
        [DgpConfig(q=10, d_z=2, pi0=4.0, rho=0.5)], ["WB-LM"],
        mc_reps=2000, boot_reps=499, seed=SEED, workers=2,
    )
    rate = table.rows[0].reject_rate
    ok = 0.07 <= rate <= 0.13
    assert report("S1", "LM bootstrap null size", ok, f"rate {rate:.4f}")


def test_supplementary_score_and_ar_confidence_sets_agree():
    """Paired inversion: the score-form Wald confidence set and the AR set
    share endpoints to within one grid step (shared exhaustive signs)."""
    ds = simulate_dgp(DgpConfig(q=10, d_z=1, pi0=6.0, rho=0.2), substream(41, "cs-pair"))
    kw = dict(grid_lo=-1.0, grid_hi=1.0, step=0.01, alpha=ALPHA)
    cs_score = invert_confidence_set(ds, "score-wald", **kw)
    cs_ar = invert_confidence_set(ds, "ar", **kw)
    assert len(cs_score.intervals) == len(cs_ar.intervals) == 1
    (s_lo, s_hi), (a_lo, a_hi) = cs_score.intervals[0], cs_ar.intervals[0]
    ok = abs(s_lo - a_lo) <= 0.01 + 1e-12 and abs(s_hi - a_hi) <= 0.01 + 1e-12
    assert report(
        "S2", "paired confidence sets", ok,
        f"score {cs_score.intervals[0]} vs ar {cs_ar.intervals[0]}",
    )
