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
    ar_bootstrap_test,
    ar_statistics,
    build_dataset,
    lm_cqlr_bootstrap_test,
    make_sign_set,
    partial_out_exogenous,
    restricted_ols_fit,
    run_size_experiment,
    run_tests,
    simulate_dgp,
    wrec_run,
    wrec_wald_test,
)
from wbiv.ar import ar_bootstrap_distribution, at_nulls, signed_means
from wbiv.cli import main
from wbiv.data import stack_solve
from wbiv.registry import ALIASES, TESTS, run_test
from wbiv.rng import substream
from wbiv.simulate import _replicate
from wbiv.weakiv import JACOBIAN_GRAM, _jacobian_pieces, _lm_rows, _score_draws

ALPHA = 0.1
B0 = 0.3
HYP = Hypothesis.wald(np.ones((1, 1)), [B0])

# Each registry name's public single-test function, or run_test where it has
# none, called as a user would.
PUBLIC = {
    "wald": lambda ds, s: wrec_wald_test(ds, HYP, "liml", False, s, ALPHA),
    "wald-cr": lambda ds, s: wrec_wald_test(ds, HYP, "liml", True, s, ALPHA),
    "ar": lambda ds, s: ar_bootstrap_test(ds, [B0], False, s, ALPHA),
    "ar-cr": lambda ds, s: ar_bootstrap_test(ds, [B0], True, s, ALPHA),
    "ar-cr-asymptotic": lambda ds, s: run_test(ds, "ar-cr-asymptotic",
                                               Hypothesis.full_vector([B0]), alpha=ALPHA),
    "lm": lambda ds, s: lm_cqlr_bootstrap_test(ds, [B0], "lm", s, ALPHA),
    "cqlr": lambda ds, s: lm_cqlr_bootstrap_test(ds, [B0], "cqlr", s, ALPHA),
    "score-wald": lambda ds, s: run_test(ds, "score-wald", HYP, sign_set=s, alpha=ALPHA),
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
        "ASY-AR-S:-": run_test(ds, "ar-cr-asymptotic", Hypothesis.full_vector([0.0]),
                               alpha=ALPHA),
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
    # 8 rows cannot fit the 4 * 2 + 1 + 1 columns of the WREC first stage,
    # which every null of a block shares
    ds = random_dataset(6, q=4, n_per=2, d_z=2, d_w=1)
    block = Hypothesis.wald(np.ones((1, 1)), [[-0.5], [0.0], [0.5]])
    results = run_tests(ds, ["wald", "wald-cr", "ar"], block)
    for out in results:
        assert isinstance(out["wald"], InputError)
        assert str(out["wald"]).startswith("first stage needs n >= q*d_z + d_w + 1")
        assert out["wald-cr"] is out["wald"]
        assert out["ar"].test == "ar"
    # wald-cr with q <= d_r fails its block before any fit; a block with
    # fewer restrictions gets the first-stage error
    ds = random_dataset(3, q=2, n_per=3, d_x=2, d_z=2)
    few, fit = (
        run_tests(ds, ["wald", "wald-cr"], block)[0]["wald"]
        for block in (Hypothesis.full_vector([[0.1, 0.2]]), Hypothesis.wald([[1.0], [0.5]], [[0.3]]))
    )
    assert str(few) == "studentized Wald needs more clusters than restrictions (q > d_r)"
    assert str(fit).startswith("first stage needs n >= q*d_z + d_w + 1")


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
        stacked = _jacobian_pieces(design, stats.score_pieces)
        draws["lm"] = lambda g: _lm_rows(
            design.Q_ZX, stats.A_cr,
            at_nulls(signed_means(stacked, g, ds.n), stats.beta_0[None])[0], ds.n)[0]
        for what, draw in draws.items():
            full = draw(signs.vectors)
            alone = [draw(signs.vectors[i : i + 1])[0] for i in range(signs.size)]
            assert np.array_equal(alone, full), (seed, what)
        # the full-vector pass and wrec_run append g = iota to the sign
        # rows: a stack of 2, then 129
        short, long = (run_tests(ds, names, hyp, sign_set=s, design=design) for s in (one, signs))
        # and the null axis: the same null alone, then inside a block of three
        block = Hypothesis.full_vector([[b] * d_x for b in (B0 - 0.7, B0, B0 + 0.2)])
        inside = run_tests(ds, names, block, sign_set=one, design=design)[1]
        for name in names:
            if name == "ar-cr-asymptotic":
                assert short[name].statistic_sq == long[name].statistic_sq
                assert inside[name].statistic_sq == short[name].statistic_sq
                continue
            assert short[name].statistic == long[name].statistic, (seed, name)
            assert short[name].boot_stats[0] == long[name].boot_stats[0], (seed, name)
            assert inside[name].statistic == short[name].statistic, (seed, name)
            assert np.array_equal(inside[name].boot_stats, short[name].boot_stats), (seed, name)
        _assert_wald_rows_alone(ds, signs, (0, 1, 64, 126))
    # the wald family where U_W is q columns wide (W = the cluster dummies),
    # and single rows against the 4096 rows of q = 12
    ds = random_dataset(0, q=7, n_per=15, d_x=d_x, d_z=d_z)
    _assert_wald_rows_alone(_with_cluster_dummies(ds), signs, (0, 1, 126))
    ds = random_dataset(0, q=12, n_per=6, d_x=d_x, d_z=d_z)
    _assert_wald_rows_alone(ds, make_sign_set(12, "exhaustive"), (0, 1, 2048, 4094))


def _assert_wald_rows_alone(ds, signs, rows):
    # wrec_run appends g = iota to the sign rows: each of ``rows`` alone, a
    # stack of 2, against the whole set, under every estimator
    design = partial_out_exogenous(ds)
    hyp = Hypothesis.full_vector([B0] * ds.d_x)
    for estimator in ("tsls", "liml", "full", "ba"):
        long = wrec_run(ds, hyp, estimator, signs, design=design)
        for i in rows:
            one = dataclasses.replace(signs, vectors=signs.vectors[i : i + 1])
            short = wrec_run(ds, hyp, estimator, one, design=design)
            what = (estimator, i)
            assert (short.statistic, short.statistic_cr) == (long.statistic, long.statistic_cr), what
            assert short.boot_stats[0] == long.boot_stats[i], what
            assert short.boot_stats_cr[0] == long.boot_stats_cr[i], what


def _with_cluster_dummies(ds):
    # the same data with W = the q cluster dummies: the within route
    dummies = (ds.cluster_id[:, None] == np.arange(ds.q)).astype(float)
    return build_dataset(ds.y, ds.X, ds.Z, dummies, ds.cluster_id)


def _sampled_label(signs):
    # the same vectors under the sampled label: not complete, so a test runs
    # every row of them
    return dataclasses.replace(signs, mode="sampled")


def _bits(result):
    # every number of a bootstrap result as bytes, so -0.0 and NaN count too
    numbers = np.array([result.statistic, result.critical_value, result.pvalue])
    return (numbers.tobytes(), result.reject, result.n_singular, result.boot_stats.tobytes(),
            result.boot_stats.shape)


@pytest.mark.parametrize("d_x, d_z", [(1, 1), (1, 2), (1, 3), (2, 3)])
def test_a_complete_set_runs_half_its_rows_with_every_bit_kept(monkeypatch, d_x, d_z):
    # every full-vector draw is even in g, so on a complete set the pass runs
    # the 2^(q-1) rows with g_1 = +1 and decides as the whole set; the same
    # vectors under the sampled label run every row and give the same bits,
    # for a shared set and for one set per null. Singular lm draws are made
    # by flagging each Gram matrix from its own bits (even in g, and the
    # iota row kept), so that n_singular is counted on both paths
    import wbiv.weakiv

    shapes = []
    signed_means_of = wbiv.weakiv.signed_means

    def recorded(score_sums, signs, n):
        shapes.append(signs.shape[-2])
        return signed_means_of(score_sums, signs, n)

    def flagging(a, b=None):
        x, ok = stack_solve(a, b)
        flag = np.ascontiguousarray(a[0, 0]).view(np.int64) % 5 == 0
        flag[..., -1] = False
        ok &= ~flag
        return np.where(ok, x, 0.0), ok

    monkeypatch.setattr(wbiv.weakiv, "signed_means", recorded)
    names = ["ar", "ar-cr", "lm"] + (["cqlr"] if d_x == 1 else [])
    names += ["score-wald"] if d_z == 1 else []
    block = Hypothesis.full_vector([[b, 0.5 - b][:d_x] for b in (-0.9, B0, 0.31, 1.7)])
    singular = 0
    for seed, q in ((0, 5), (1, 7), (2, 9)):
        ds = random_dataset(seed, q=q, n_per=8, d_x=d_x, d_z=d_z, pi_scale=0.5)
        design = partial_out_exogenous(ds)
        signs = make_sign_set(q, "exhaustive")
        own = [make_sign_set(q, "exhaustive") for _ in range(4)]
        runs = [(signs, _sampled_label(signs)), (own, [_sampled_label(s) for s in own])]
        for (sets, whole), alpha, solve in itertools.product(
                runs, (ALPHA, 1 / 3), (stack_solve, flagging)):
            monkeypatch.setattr(wbiv.weakiv, "stack_solve", solve)
            del shapes[:]
            half, full = (run_tests(ds, names, block, sign_set=s, alpha=alpha, design=design)
                          for s in (sets, whole))
            assert shapes == [2 ** (q - 1) + 1, 2**q + 1]
            for p, (got, want) in enumerate(zip(half, full)):
                for name in names:
                    what = (seed, q, alpha, p, name)
                    assert _bits(got[name]) == _bits(want[name]), what
                    # the evenness itself, on every row of the whole set
                    draws = want[name].boot_stats
                    assert draws.tobytes() == draws[::-1].tobytes(), what
                singular += got["lm"].n_singular
    assert singular > 0


def test_only_a_complete_set_is_halved():
    # an exhaustive set cut to fewer than 2^q rows keeps its own size and
    # gets the bits of the same rows under the sampled label: 64 rows are as
    # many as half the group, but its first half
    ds = random_dataset(3, q=7, n_per=15, d_z=2)
    signs = make_sign_set(7, "exhaustive")
    assert signs.complete and not _sampled_label(signs).complete
    hyp = Hypothesis.full_vector([B0])
    for rows in (1, 64, 127):
        cut = dataclasses.replace(signs, vectors=signs.vectors[:rows])
        assert not cut.complete
        got, want = (run_tests(ds, FULL_VECTOR_NAMES[1:], hyp, sign_set=s)
                     for s in (cut, _sampled_label(cut)))
        for name in ("ar-cr", "lm", "cqlr"):
            assert got[name].boot_stats.shape == (rows,), (rows, name)
            assert _bits(got[name]) == _bits(want[name]), (rows, name)
    # a block mixing a complete set with another of its size runs every row
    mixed = [signs, _sampled_label(signs)]
    block = Hypothesis.full_vector([[B0], [B0]])
    got = run_tests(ds, ["lm"], block, sign_set=mixed)
    want = run_tests(ds, ["lm"], block, sign_set=[_sampled_label(signs)] * 2)
    assert [_bits(r["lm"]) for r in got] == [_bits(r["lm"]) for r in want]


def test_singular_stack_items_are_flagged_and_a_singular_iota_draw_raises():
    # one exactly singular item in a stack of three, at d = 1 and at d = 2:
    # it is flagged and reads 0, and the other items are solved
    for d, singular in ((1, [[0.0]]), (2, [[1.0, 2.0], [2.0, 4.0]])):
        a = np.array([2.0 * np.eye(d), singular, 4.0 * np.eye(d)])
        x, ok = stack_solve(np.moveaxis(a, 0, -1), np.ones((d, 3)))
        assert ok.tolist() == [True, False, True]
        np.testing.assert_array_equal(x.T, [[0.5] * d, [0.0] * d, [0.25] * d])
    # the rule is the reciprocal condition number, and a non-finite item fails it
    near = [np.diag([1.0, 1e-14]), np.diag([-1.0, 1e-12]), np.full((2, 2), np.nan)]
    assert stack_solve(np.moveaxis(np.array(near), 0, -1))[1].tolist() == [False, True, False]
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
    # score pieces a = s and C = 0, so s(b) = s, and zero Jacobian pieces
    pieces = np.zeros((5, 3 + 3 * 2 * 3, 3))
    pieces[:, :3, 0] = s
    g_hat = np.repeat([[1.0], [-2.0], [0.5]], 2, axis=1)
    omega_inv = np.linalg.inv(s.T @ s / 50)
    signs = make_sign_set(5, "exhaustive").vectors
    means = at_nulls(signed_means(pieces, signs, 50), np.zeros((1, 2)))[0]
    lm, ok, _ = _lm_rows(g_hat, omega_inv, means, 50)
    assert not lm.any() and int((~ok).sum()) == len(signs)
    # the last exhaustive row is g = iota, which the pass reads as the
    # sample: its null's lm and cqlr fail with this error
    failure = _score_draws(g_hat, omega_inv, s, means, 50)[4].item()
    assert isinstance(failure, NumericalError) and str(failure) == f"singular {JACOBIAN_GRAM}"


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
    jacobians = _counting(monkeypatch, wbiv.weakiv, "_jacobian_pieces")
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
    # a block of nulls is one pass too, and each test decides all its nulls
    # in one finish_test (ar-cr-asymptotic takes a chi-squared quantile)
    finishes = _counting(monkeypatch, wbiv.weakiv, "finish_test")
    before = (len(fits), len(stacks) + len(stacks_ar))
    run_tests(ds1, names, Hypothesis.full_vector([[b] for b in (0.1, B0, 0.5)]), sign_set=signs)
    assert (len(fits), len(stacks) + len(stacks_ar)) == (before[0] + 1, before[1] + 1)
    assert sorted(finishes) == ["finish_test"] * (len(names) - 1)
    # the wald counterpart: the k-class fit, its sample forms, its one
    # W-step, the efficient first stage and the moment engine do not depend
    # on the null, so one of each per run_tests call, whatever the block
    # size (the engine reads M_W [y : X] from the fit); the restricted
    # estimates come from one stacked projection, with no restricted fit per
    # null; and one finish_test per test
    import wbiv.kclass
    import wbiv.wald

    kclass = _counting(monkeypatch, wbiv.wald, "fit_method")
    stages = _counting(monkeypatch, wbiv.wald, "efficient_first_stage")
    engines = _counting(monkeypatch, wbiv.wald, "_wrec_draws")
    restricted = _counting(monkeypatch, wbiv.kclass, "restricted_kclass_fit")
    forms = _counting(monkeypatch, wbiv.kclass, "kclass_forms")
    w_steps = _counting(monkeypatch, wbiv.kclass, "exogenous_step")
    finishes = _counting(monkeypatch, wbiv.wald, "finish_test")
    assert not hasattr(wbiv.wald, "restricted_kclass_fit")
    for calls, size in enumerate((1, 3, 40), start=1):
        block = Hypothesis.full_vector(np.linspace(-1.0, 1.0, size)[:, None])
        out = run_tests(ds, ["wald", "wald-cr"], block, estimator="liml", sign_set=signs)
        assert not any(isinstance(res, Exception) for null in out for res in null.values())
        assert (len(kclass), len(stages), len(forms)) == (calls, calls, calls)
        assert len(w_steps) == calls
        assert len(engines) == calls
        assert len(finishes) == 2 * calls
    assert restricted == []


@pytest.mark.parametrize("d_x, d_z", [
    pytest.param(1, 1, id="1"), pytest.param(1, 2, id="2"), pytest.param(1, 3, id="3"),
    pytest.param(2, 2, id="dx2-2"), pytest.param(2, 3, id="dx2-3"),
])
@pytest.mark.parametrize("q, mode", [(7, "exhaustive"), (13, "sampled")])
def test_each_null_of_a_block_gets_its_own_bits(d_x, d_z, q, mode):
    # a block of nulls in one call per family gives every null bitwise what
    # run_test gives at that null alone; sampled signs are one set per null,
    # as a fresh-mode confidence set passes them. lm and cqlr contract the
    # Jacobian pieces with the sign rows once per set, then evaluate them
    # at each null (over 1 + d_x coefficients, so d_x = 2 too). The wald
    # family runs every estimator: full and ba contract the Gram block
    # together with the U block
    ds = random_dataset(d_z, q=q, n_per=8, d_x=d_x, d_z=d_z, pi_scale=0.5)
    names = ["ar", "ar-cr", "lm", "wald", "wald-cr"] + (["cqlr"] if d_x == 1 else [])
    names += ["score-wald"] if d_z == 1 else []
    nulls = [[b, 0.5 - b][:d_x] for b in (-0.9, B0, 0.31, 1.7)]
    block = Hypothesis.full_vector(nulls)
    if mode == "exhaustive":
        signs = make_sign_set(q, "exhaustive")
        per_null = [signs] * len(nulls)
    else:
        signs = per_null = [make_sign_set(q, "sampled", B=29, seed=(5, "cs", i)) for i in range(4)]
    design = partial_out_exogenous(ds)

    def assert_own_bits(names, nulls, per_null, results, estimator, ds=ds, design=design):
        for null, own, got in zip(nulls, per_null, results):
            for name in names:
                want = run_test(ds, name, Hypothesis.full_vector(null), estimator=estimator,
                                sign_set=own, design=design)
                what = (estimator, name, null)
                assert (got[name].statistic, got[name].critical_value, got[name].pvalue,
                        got[name].reject, got[name].n_singular, got[name].n_clamped) == (
                    want.statistic, want.critical_value, want.pvalue, want.reject,
                    want.n_singular, want.n_clamped), what
                assert np.array_equal(got[name].boot_stats, want.boot_stats), what
                assert got[name].sign_set is own

    for estimator in ("tsls", "liml", "full", "ba"):  # the wald family's fit
        results = run_tests(ds, names, block, estimator=estimator, sign_set=signs, design=design)
        assert_own_bits(names, nulls, per_null, results, estimator)
    # the wald family with W = the cluster dummies, where U_W is q columns wide
    within = _with_cluster_dummies(ds)
    within_design = partial_out_exogenous(within)
    for estimator in ("tsls", "liml", "full", "ba"):
        results = run_tests(within, ["wald", "wald-cr"], block, estimator=estimator,
                            sign_set=signs, design=within_design)
        assert_own_bits(["wald", "wald-cr"], nulls, per_null, results, estimator, within,
                        within_design)
    if mode == "exhaustive":
        # 40 nulls on one shared set: wald-cr contracts Zt'X* once for all
        # of them, and each null still gets what it gets alone
        wide = [[b, 0.5 - b][:d_x] for b in np.linspace(-2.0, 2.0, 40)]
        for estimator in ("tsls", "liml", "full", "ba"):
            results = run_tests(ds, ["wald-cr"], Hypothesis.full_vector(wide),
                                estimator=estimator, sign_set=signs, design=design)
            assert_own_bits(["wald-cr"], wide, [signs] * len(wide), results, estimator)


def test_a_block_takes_one_sign_set_per_null():
    ds = random_dataset(1, q=5, n_per=10)
    one, other = make_sign_set(5, "exhaustive"), make_sign_set(5, "sampled", B=3, seed=1)
    block = Hypothesis.full_vector([[0.0], [0.5]])
    for sets in ([one], [one, other], []):
        with pytest.raises(InputError, match="one sign set per null, all of one size"):
            run_tests(ds, ["ar"], block, sign_set=sets)
    # a block of nulls is checked as a whole: a NaN anywhere in it names
    # beta_0, and a lambda_0 of another width than lambda is refused
    for at in itertools.product(range(3), range(2)):
        beta_0 = np.zeros((3, 2))
        beta_0[at] = np.nan
        with pytest.raises(InputError, match="non-finite input in beta_0"):
            Hypothesis.full_vector(beta_0)
    with pytest.raises(InputError, match="disagree on the number of restrictions"):
        Hypothesis.wald(np.eye(2), np.zeros((3, 1)))
    # and holds at least one null, along one null axis
    for bad in (np.zeros((0, 1)), np.zeros((2, 3, 1))):
        with pytest.raises(InputError, match=r"one null \(d_x,\) or a block of them"):
            Hypothesis.full_vector(bad)
        with pytest.raises(InputError, match=r"one null \(d_r,\) or a block of them"):
            Hypothesis.wald(np.ones((1, 1)), bad)


def test_ar_cr_asymptotic_alone_reads_only_the_iota_row(monkeypatch):
    import wbiv.weakiv

    ds = random_dataset(8, q=7, n_per=15, d_z=3)
    beside = run_tests(ds, ["ar-cr", "ar-cr-asymptotic"], Hypothesis.full_vector([B0]),
                       sign_set=make_sign_set(7, "exhaustive"))["ar-cr-asymptotic"]
    shapes = []
    original = wbiv.weakiv.signed_means

    def recorded(score_sums, signs, n):
        shapes.append(signs.shape)
        return original(score_sums, signs, n)

    monkeypatch.setattr(wbiv.weakiv, "signed_means", recorded)
    alone = run_test(ds, "ar-cr-asymptotic", Hypothesis.full_vector([B0]), alpha=ALPHA)
    # one stack, shared by the block's one null, of the one row g = iota
    assert shapes == [(1, 1, 7)]
    assert alone == beside


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
