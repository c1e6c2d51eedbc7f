import dataclasses
import itertools
import re

import numpy as np
import pytest

from conftest import random_dataset
from wbiv import (
    DgpConfig,
    Hypothesis,
    InputError,
    NumericalError,
    TestSpec,
    ar_asymptotic_cr_test,
    ar_bootstrap_test,
    ar_statistics,
    build_dataset,
    lm_cqlr_bootstrap_test,
    make_sign_set,
    partial_out_exogenous,
    restricted_ols_fit,
    run_size_experiment,
    run_tests,
    score_bootstrap_wald_test,
    simulate_dgp,
    wrec_run,
    wrec_wald_test,
)
from wbiv.ar import ar_bootstrap_distribution, signed_means
from wbiv.cli import main
from wbiv.data import stack_solve
from wbiv.registry import ALIASES, TESTS
from wbiv.rng import substream
from wbiv.simulate import _replicate
from wbiv.weakiv import (
    JACOBIAN_GRAM,
    JacobianBundle,
    _jacobian_bundle,
    _lm_rows,
    _score_draws,
)

ALPHA = 0.1
B0 = 0.3
HYP = Hypothesis.wald(np.ones((1, 1)), [B0])

# Each registry name's public single-test function, called as a user would.
PUBLIC = {
    "wald": lambda ds, s: wrec_wald_test(ds, HYP, "liml", False, s, ALPHA),
    "wald-cr": lambda ds, s: wrec_wald_test(ds, HYP, "liml", True, s, ALPHA),
    "ar": lambda ds, s: ar_bootstrap_test(ds, [B0], False, s, ALPHA),
    "ar-cr": lambda ds, s: ar_bootstrap_test(ds, [B0], True, s, ALPHA),
    "ar-cr-asymptotic": lambda ds, s: ar_asymptotic_cr_test(ds, [B0], ALPHA),
    "lm": lambda ds, s: lm_cqlr_bootstrap_test(ds, [B0], "lm", s, ALPHA),
    "cqlr": lambda ds, s: lm_cqlr_bootstrap_test(ds, [B0], "cqlr", s, ALPHA),
    "score-wald": lambda ds, s: score_bootstrap_wald_test(ds, HYP, ALPHA, s),
}


def test_every_name_matches_its_public_function_bitwise():
    assert set(PUBLIC) == set(TESTS)
    ds = random_dataset(21, q=7, n_per=15, rho=0.5, pi_scale=0.8)
    signs = make_sign_set(7, "exhaustive")
    results = run_tests(ds, list(TESTS), HYP, estimator="liml", sign_set=signs, alpha=ALPHA)
    for name, public in PUBLIC.items():
        got, want = results[name], public(ds, signs)
        assert got.critical_value == want.critical_value, name
        assert got.reject == want.reject, name
        if name == "ar-cr-asymptotic":
            assert got.statistic_sq == want.statistic_sq
        else:
            assert got.statistic == want.statistic, name
            assert np.array_equal(got.boot_stats, want.boot_stats), name


def test_replicate_matches_the_public_functions():
    config = DgpConfig(q=10, d_z=2, pi0=4.0, rho=0.5)
    seed, cell, rep, boot_reps = 0, "cell", 3, 99
    tests = [("WB-US", "tsls"), ("WB-S", "tsls"), ("WB-S", "liml")]
    tests += [(name, "-") for name in ("WB-AR-US", "WB-AR-S", "ASY-AR-S", "WB-LM", "WB-CQLR")]
    got = _replicate(config, tests, seed, cell, rep, boot_reps, ALPHA)

    ds = simulate_dgp(config, substream(seed, cell, rep))
    signs = make_sign_set(10, "sampled", B=boot_reps, seed=(seed, cell, rep, "signs"))
    hyp = Hypothesis.wald(np.ones((1, 1)), [0.0])
    want = {
        "WB-US:tsls": wrec_wald_test(ds, hyp, "tsls", False, signs, ALPHA),
        "WB-S:tsls": wrec_wald_test(ds, hyp, "tsls", True, signs, ALPHA),
        "WB-S:liml": wrec_wald_test(ds, hyp, "liml", True, signs, ALPHA),
        "WB-AR-US:-": ar_bootstrap_test(ds, [0.0], False, signs, ALPHA),
        "WB-AR-S:-": ar_bootstrap_test(ds, [0.0], True, signs, ALPHA),
        "ASY-AR-S:-": ar_asymptotic_cr_test(ds, [0.0], ALPHA),
        "WB-LM:-": lm_cqlr_bootstrap_test(ds, [0.0], "lm", signs, ALPHA),
        "WB-CQLR:-": lm_cqlr_bootstrap_test(ds, [0.0], "cqlr", signs, ALPHA),
    }
    assert got == {key: res.reject for key, res in want.items()}


@pytest.mark.parametrize("name", ["nope", "WB-US"])
def test_unknown_name_rejected_alike(name, tmp_path, capsys):
    message = f"unknown test '{name}'"
    with pytest.raises(InputError, match=message):
        TestSpec(name)
    path = tmp_path / "data.csv"
    ds = random_dataset(2, q=4, n_per=5)
    rows = [f"{y!r},{x!r},{z!r},{c}" for y, x, z, c in
            zip(ds.y.tolist(), ds.X[:, 0].tolist(), ds.Z[:, 0].tolist(), ds.cluster_id)]
    path.write_text("\n".join(["y,x,z,cluster"] + rows) + "\n")
    assert main(["test", str(path), "--test", name]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["nope", "wald"])
def test_unknown_simulation_name_rejected(name):
    assert name not in ALIASES
    with pytest.raises(InputError, match=f"unknown test '{name}'"):
        run_size_experiment([DgpConfig()], [name], mc_reps=100)


def _exact_null_dataset():
    # y = 0.5 x exactly: at beta_0 = 0.5 every null-imposed score is zero
    rng = substream(4, "exact-null")
    x = rng.standard_normal(24)
    return build_dataset(0.5 * x, x, rng.standard_normal(24), np.ones(24), np.repeat(range(4), 6))


def test_member_failure_leaves_the_rest_of_the_family():
    # the null CCE is singular while the unstudentized AR test is defined
    names = ["ar", "ar-cr", "ar-cr-asymptotic"]
    out = run_tests(_exact_null_dataset(), names, Hypothesis.full_vector([0.5]))
    assert not out["ar"].reject
    assert isinstance(out["ar-cr"], NumericalError)
    assert isinstance(out["ar-cr-asymptotic"], NumericalError)


def test_score_tests_at_an_exact_null_fit_give_zero():
    # Omega_hat is the zero matrix; lm and cqlr both take the limit value 0
    out = run_tests(_exact_null_dataset(), ["lm", "cqlr"], Hypothesis.full_vector([0.5]))
    for name in ("lm", "cqlr"):
        assert out[name].statistic == 0.0
        assert not out[name].reject


def test_shared_pass_failure_fails_the_whole_family():
    # 8 rows cannot fit the 4 * 2 + 1 + 1 columns of the WREC first stage
    ds = random_dataset(6, q=4, n_per=2, d_z=2, d_w=1)
    out = run_tests(ds, ["wald", "wald-cr", "ar"], Hypothesis.wald(np.ones((1, 1)), [0.0]))
    assert isinstance(out["wald"], InputError)
    assert out["wald-cr"] is out["wald"]
    assert out["ar"].test == "ar"


@pytest.mark.parametrize("call", [
    lambda ds: ar_bootstrap_test(ds, [0.0, 0.0]),
    lambda ds: lm_cqlr_bootstrap_test(ds, [0.0, 0.0], "lm"),
], ids=["ar_bootstrap_test", "lm_cqlr_bootstrap_test"])
def test_a_wrong_length_beta_0_is_named_as_beta_0(call):
    ds = random_dataset(1, q=5, n_per=10)
    with pytest.raises(InputError, match=re.escape("beta_0 must have length d_x=1")):
        call(ds)


def test_full_vector_tests_need_an_identity_lambda():
    ds = random_dataset(7, q=5, n_per=10)
    with pytest.raises(InputError, match="full vector"):
        run_tests(ds, ["lm"], Hypothesis.wald(2.0 * np.ones((1, 1)), [0.0]))


FULL_VECTOR_NAMES = ["ar", "ar-cr", "ar-cr-asymptotic", "lm", "cqlr"]


@pytest.mark.parametrize("d_x, d_z, names", [
    (1, 1, ["ar", "ar-cr", "lm", "cqlr", "score-wald"]),
    (1, 2, ["ar", "ar-cr", "ar-cr-asymptotic", "lm", "cqlr", "wald", "wald-cr"]),
    (2, 3, ["ar", "ar-cr", "lm", "wald", "wald-cr"]),
])
def test_every_statistic_is_its_own_iota_draw(d_x, d_z, names):
    # the last exhaustive sign vector is g = iota, so a tie between the
    # statistic and the critical value resolves the same way in every test;
    # ar-cr-asymptotic squares the ar-cr statistic
    signs = make_sign_set(7, "exhaustive")
    assert np.all(signs.vectors[-1] == 1.0)
    differ = []
    for seed in range(4):
        ds = random_dataset(seed, q=7, n_per=15, d_x=d_x, d_z=d_z)
        for estimator in ("tsls", "liml", "full", "ba"):
            out = run_tests(ds, names, Hypothesis.full_vector([B0] * d_x),
                            estimator=estimator, sign_set=signs)
            for name in names:
                if name == "ar-cr-asymptotic":
                    same = out[name].statistic_sq == out["ar-cr"].boot_stats[-1] ** 2
                else:
                    same = out[name].statistic == out[name].boot_stats[-1]
                if not same:
                    differ.append((seed, estimator, name))
    assert differ == []


@pytest.mark.parametrize("d_x, d_z", [(1, 1), (1, 2), (1, 3), (2, 3)])
def test_a_draw_row_does_not_depend_on_its_stack(d_x, d_z):
    # the draw-stack rule of wbiv.data: every row of the exhaustive set,
    # the last one g = iota included, computed alone (a stack of one) is
    # bitwise that row of the full 128-row stack
    signs = make_sign_set(7, "exhaustive")
    one = dataclasses.replace(signs, vectors=signs.vectors[:1])
    names = FULL_VECTOR_NAMES if d_x == 1 else ["ar", "ar-cr", "ar-cr-asymptotic", "lm"]
    for seed in range(4):
        ds = random_dataset(seed, q=7, n_per=15, d_x=d_x, d_z=d_z)
        design = partial_out_exogenous(ds)
        hyp = Hypothesis.full_vector([B0] * d_x)
        stats = ar_statistics(design, restricted_ols_fit(ds, hyp.lambda_0))
        draws = {
            f"ar studentize={s}": lambda g, s=s: ar_bootstrap_distribution(stats, g, ds.n, s)
            for s in (False, True)
        }
        bundle = _jacobian_bundle(design, stats.score_sums, stats.A_cr)
        draws["lm"] = lambda g: _lm_rows(bundle, g, signed_means(stats.score_sums, g, ds.n),
                                         ds.n)[0]
        for what, draw in draws.items():
            full = draw(signs.vectors)
            alone = [draw(signs.vectors[i : i + 1])[0] for i in range(signs.size)]
            assert np.array_equal(alone, full), (seed, what)
        # the full-vector pass and wrec_run append g = iota to the sign
        # rows: a stack of 2, then 129
        short, long = (run_tests(ds, names, hyp, sign_set=s, design=design) for s in (one, signs))
        for name in names:
            if name == "ar-cr-asymptotic":
                assert short[name].statistic_sq == long[name].statistic_sq
                continue
            assert short[name].statistic == long[name].statistic, (seed, name)
            assert short[name].boot_stats[0] == long[name].boot_stats[0], (seed, name)
        for estimator in ("tsls", "liml"):
            short, long = (wrec_run(ds, hyp, estimator, s, design=design) for s in (one, signs))
            assert (short.statistic, short.statistic_cr) == (long.statistic, long.statistic_cr)
            assert short.boot_stats[0] == long.boot_stats[0]
            assert short.boot_stats_cr[0] == long.boot_stats_cr[0]


def test_singular_stack_items_are_flagged_and_a_singular_iota_draw_raises():
    # one exactly singular item in a stack of three, at d = 1 and at d = 2:
    # it is flagged and reads 0, and the other items are solved
    for d, singular in ((1, [[0.0]]), (2, [[1.0, 2.0], [2.0, 4.0]])):
        a = np.array([2.0 * np.eye(d), singular, 4.0 * np.eye(d)])
        x, ok = stack_solve(a, np.ones((3, d)))
        assert ok.tolist() == [True, False, True]
        np.testing.assert_array_equal(x, [[0.5] * d, [0.0] * d, [0.25] * d])
    # the rule is the reciprocal condition number, and a non-finite item fails it
    near = [np.diag([1.0, 1e-14]), np.diag([-1.0, 1e-12]), np.full((2, 2), np.nan)]
    assert stack_solve(np.array(near))[1].tolist() == [False, True, False]
    # e is orthogonal to W, to the first instrument and, cluster by cluster,
    # to the second, so every TSLS cluster score is a multiple of (1, 0): the
    # 2 x 2 restricted covariance of the iota draw has rank one
    rng = substream(5, "singular-iota")
    q, n_per = 3, 10
    n = q * n_per
    cluster = np.repeat(np.arange(q), n_per)
    z = rng.standard_normal((n, 2))
    zt = z - z.mean(axis=0)
    x = rng.standard_normal((n, 2)) + z @ np.array([[1.0, 0.3], [0.2, 1.0]])
    c = np.column_stack([np.ones(n), zt[:, 0]] + [zt[:, 1] * (cluster == j) for j in range(q)])
    r = rng.standard_normal(n)
    e = r - c @ np.linalg.lstsq(c, r, rcond=None)[0]
    ds = build_dataset(x @ np.array([0.5, -0.3]) + e, x, z, np.ones(n), cluster)
    hyp = Hypothesis.full_vector([0.5, -0.3])
    out = run_tests(ds, ["wald", "wald-cr"], hyp)
    assert isinstance(out["wald-cr"], NumericalError)
    assert str(out["wald-cr"]) == "singular restricted covariance (q <= d_r or degenerate scores)"
    assert out["wald"] is out["wald-cr"]
    assert run_tests(ds, ["wald"], hyp)["wald"].n_singular == 0
    # the score side: G_hat has two equal columns and no Jacobian correction
    # enters, so every orthogonalized Jacobian D*(g) = G_hat has rank one
    s = substream(5, "singular-jacobian").standard_normal((5, 3))
    bundle = JacobianBundle(
        G_hat=np.repeat([[1.0], [-2.0], [0.5]], 2, axis=1),
        omega_inv=np.linalg.inv(s.T @ s / 50),
        score_sums=s,
        jacobian_sums=np.zeros((5, 3, 2)),
    )
    signs = make_sign_set(5, "exhaustive").vectors
    f = signed_means(s, signs, 50)
    lm, ok, _ = _lm_rows(bundle, signs, f, 50)
    assert not lm.any() and int((~ok).sum()) == len(signs)
    # the last exhaustive row is g = iota, which the pass reads as the sample
    with pytest.raises(NumericalError, match=re.escape(f"singular {JACOBIAN_GRAM}")):
        _score_draws(bundle, signs, f, 50)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_full_vector_tests_share_one_pass(monkeypatch):
    import wbiv.ar
    import wbiv.weakiv

    fits = _counting(monkeypatch, wbiv.weakiv, "restricted_ols_fit")
    sums = _counting(monkeypatch, wbiv.ar, "cluster_score_sums")
    jacobians = _counting(monkeypatch, wbiv.weakiv, "_jacobian_bundle")
    # f*(g), wherever the pass would form it
    stacks = _counting(monkeypatch, wbiv.weakiv, "signed_means")
    stacks_ar = _counting(monkeypatch, wbiv.ar, "signed_means")
    ds = random_dataset(8, q=7, n_per=15, d_z=2)
    signs = make_sign_set(7, "exhaustive")
    out = run_tests(ds, FULL_VECTOR_NAMES, Hypothesis.full_vector([B0]), sign_set=signs)
    assert not any(isinstance(res, Exception) for res in out.values())
    assert (len(fits), len(sums), len(jacobians)) == (1, 1, 1)
    run_tests(ds, FULL_VECTOR_NAMES[:3], Hypothesis.full_vector([B0]), sign_set=signs)
    assert (len(fits), len(sums), len(jacobians)) == (2, 2, 1)
    # score-wald (d_x = d_z = 1) reads the same pass as the other members
    ds1 = random_dataset(8, q=7, n_per=15)
    names = FULL_VECTOR_NAMES + ["score-wald"]
    out = run_tests(ds1, names, Hypothesis.full_vector([B0]), sign_set=signs)
    assert not any(isinstance(res, Exception) for res in out.values())
    assert (len(fits), len(sums), len(jacobians)) == (3, 3, 2)
    assert len(stacks) + len(stacks_ar) == 3
    # one stack of signed score means per call, for every set of members
    for k in range(1, len(names) + 1):
        for members in itertools.combinations(names, k):
            before = len(stacks) + len(stacks_ar)
            out = run_tests(ds1, list(members), Hypothesis.full_vector([B0]), sign_set=signs)
            assert not any(isinstance(res, Exception) for res in out.values())
            assert len(stacks) + len(stacks_ar) == before + 1, members


def test_score_wald_scales_with_lambda():
    # lambda = 2, lambda_0 = 1 and lambda = 1, lambda_0 = 0.5 are one null;
    # the statistic, critical value and draws scale by |lambda|, and the
    # decision and p-value are taken before the scaling
    ds = random_dataset(9, q=7, n_per=15)
    signs = make_sign_set(7, "exhaustive")
    one, two = (
        run_tests(ds, ["score-wald"], Hypothesis.wald(lam * np.ones((1, 1)), [lam / 2]),
                  sign_set=signs)["score-wald"]
        for lam in (1.0, 2.0)
    )
    assert two.statistic == 2.0 * one.statistic
    assert two.critical_value == 2.0 * one.critical_value
    assert np.array_equal(two.boot_stats, 2.0 * one.boot_stats)
    assert (two.pvalue, two.reject) == (one.pvalue, one.reject)
