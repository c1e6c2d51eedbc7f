import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t1_expected as E
from conftest import random_dataset
from wbiv import (
    DgpConfig,
    Hypothesis,
    InputError,
    NumericalError,
    build_dataset,
    cqlr_statistic,
    lm_cqlr_bootstrap_test,
    lm_statistic,
    make_sign_set,
    partial_out_exogenous,
    restricted_ols_fit,
    run_tests,
    simulate_dgp,
)
from wbiv.ar import ar_squares, at_nulls, signed_means
from wbiv.rng import substream
from wbiv.weakiv import _lm_rows


def full_quadratic_form(bundle, n):
    """n f' Omega^{-1} f from the bundle's score sums, Omega = s's / n."""
    s = bundle.score_sums
    f_hat = s.sum(axis=0) / n
    return n * f_hat @ np.linalg.solve(s.T @ s / n, f_hat)


class TestLmStatistic:
    def test_t1x_matches_oracle(self, t1x_dz2):
        design = partial_out_exogenous(t1x_dz2)
        lm, bundle = lm_statistic(design, restricted_ols_fit(t1x_dz2, [0.0]))
        assert lm == pytest.approx(E.LM_N_T1X, abs=1e-8)
        assert bundle.rk == pytest.approx(E.RK_T1X, abs=1e-8)
        np.testing.assert_allclose(bundle.D_hat.ravel(), E.D_HAT_T1X, atol=1e-10)

    def test_just_identified_reduces_to_quadratic_form(self, t1, t1_design):
        # d_x = d_z: the projection is the identity, so LM equals the full
        # quadratic form n f' Omega^{-1} f
        rols = restricted_ols_fit(t1, [0.0])
        lm, bundle = lm_statistic(t1_design, rols)
        ar_sq = full_quadratic_form(bundle, t1.n)
        assert lm == pytest.approx(ar_sq, abs=1e-10)

    def test_exact_null_fit_gives_zero(self, t1, t1_design):
        # identically zero restricted residuals: the statistic is zero in the
        # limit convention (every projection of a zero mean score vanishes)
        from wbiv.kclass import RestrictedOlsFit

        rols = RestrictedOlsFit(
            beta_0=np.array([0.5]), gamma_bar_r=np.array([1.0]), e_y=np.zeros(t1.n),
            e_X=np.zeros((t1.n, 1)),
        )
        lm, _ = lm_statistic(t1_design, rols)
        assert lm == 0.0

    def test_degenerate_at_q_equal_dz(self, t1_dz2):
        # q = d_z makes the orthogonalized Jacobian identically zero
        design = partial_out_exogenous(t1_dz2)
        with pytest.raises(NumericalError, match="rank-deficient orthogonalized Jacobian"):
            lm_statistic(design, restricted_ols_fit(t1_dz2, [0.0]))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_lm_bounded_by_full_quadratic_form(self, seed):
        # projection contraction
        ds = random_dataset(seed, q=6, n_per=14, d_z=3)
        design = partial_out_exogenous(ds)
        rols = restricted_ols_fit(ds, [0.2])
        lm, bundle = lm_statistic(design, rols)
        ar_sq = full_quadratic_form(bundle, ds.n)
        assert lm <= ar_sq + 1e-10

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_projection_idempotent_and_symmetric(self, seed):
        ds = random_dataset(seed, q=5, n_per=11, d_z=2)
        design = partial_out_exogenous(ds)
        _, bundle = lm_statistic(design, restricted_ols_fit(ds, [0.1]))
        u = np.linalg.cholesky(bundle.omega_inv).T @ bundle.D_hat
        p = u @ np.linalg.solve(u.T @ u, u.T)
        np.testing.assert_allclose(p, p @ p, atol=1e-10)
        np.testing.assert_allclose(p, p.T, atol=1e-10)


class TestCqlrStatistic:
    def test_collapses_to_ar_when_lm_equals_it(self):
        for rk in (0.5, 3.0, 100.0):
            assert cqlr_statistic(2.4, 2.4, rk) == pytest.approx(2.4, abs=1e-12)

    def test_zero_lm_branch(self):
        assert cqlr_statistic(1.5, 0.0, 4.0) == pytest.approx(0.0, abs=1e-12)
        assert cqlr_statistic(5.0, 0.0, 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_large_rk_limit_is_lm(self):
        assert cqlr_statistic(7.0, 2.0, 1e8) == pytest.approx(2.0, abs=1e-5)

    def test_t1x_oracle(self, t1x_dz2):
        design = partial_out_exogenous(t1x_dz2)
        lm, bundle = lm_statistic(design, restricted_ols_fit(t1x_dz2, [0.0]))
        ar_sq = full_quadratic_form(bundle, t1x_dz2.n)
        assert ar_sq == pytest.approx(E.AR_CR_SQ_T1X, abs=1e-8)
        assert cqlr_statistic(ar_sq, lm, bundle.rk) == pytest.approx(E.LR_N_T1X, abs=1e-8)

    def test_negative_inputs_rejected(self):
        with pytest.raises(InputError):
            cqlr_statistic(-1.0, 0.0, 1.0)


class TestLmCqlrBootstrap:
    def test_t1x_distributions_match_oracle(self, t1x_dz2):
        signs = make_sign_set(3, "exhaustive")
        res_lm = lm_cqlr_bootstrap_test(t1x_dz2, [0.0], "lm", signs)
        np.testing.assert_allclose(res_lm.boot_stats, E.LMSTAR_T1X, atol=1e-8)
        assert res_lm.statistic == pytest.approx(E.LM_N_T1X, abs=1e-8)
        res_lr = lm_cqlr_bootstrap_test(t1x_dz2, [0.0], "cqlr", signs)
        np.testing.assert_allclose(res_lr.boot_stats, E.LRSTAR_T1X, atol=1e-8)
        assert res_lr.statistic == pytest.approx(E.LR_N_T1X, abs=1e-8)

    def test_identity_sign_vector(self, t1x_dz2):
        signs = make_sign_set(3, "exhaustive")
        for which in ("lm", "cqlr"):
            res = lm_cqlr_bootstrap_test(t1x_dz2, [0.0], which, signs)
            assert res.boot_stats[-1] == pytest.approx(res.statistic, abs=1e-9)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_sign_flip_symmetry(self, seed):
        ds = random_dataset(seed, q=5, n_per=13, d_z=2)
        design = partial_out_exogenous(ds)
        _, bundle = lm_statistic(design, restricted_ols_fit(ds, [0.0]))
        rng = substream(seed, "flip")
        g = rng.integers(0, 2, size=(1, 5)) * 2.0 - 1.0
        both = np.vstack([g, -g])
        means = at_nulls(signed_means(bundle.pieces, both, ds.n), bundle.beta_0)[0]
        f = means[:, : ds.d_z]
        lm_star = _lm_rows(bundle, means, ds.n)[0]
        ar_sq_star = ar_squares(f, ds.n, bundle.omega_inv)
        assert lm_star[0] == pytest.approx(lm_star[1], abs=1e-10)
        assert ar_sq_star[0] == pytest.approx(ar_sq_star[1], abs=1e-10)

    def test_requires_more_clusters_than_instruments(self, t1_dz2):
        with pytest.raises(InputError, match="q > d_z"):
            lm_cqlr_bootstrap_test(t1_dz2, [0.0], "lm")

    def test_cqlr_rejects_multiple_endogenous(self):
        ds = random_dataset(3, q=6, n_per=15, d_x=2, d_z=2)
        with pytest.raises(InputError, match="single endogenous"):
            lm_cqlr_bootstrap_test(ds, [0.0, 0.0], "cqlr")

    def test_lm_supports_multiple_endogenous(self):
        ds = random_dataset(3, q=6, n_per=15, d_x=2, d_z=3)
        res = lm_cqlr_bootstrap_test(ds, [0.0, 0.0], "lm", make_sign_set(6, "exhaustive"))
        assert res.boot_stats.shape == (64,)

    def test_cqlr_collapses_to_ar_when_just_identified(self):
        # d_x = d_z = 1 with several clusters: LM = AR quadratic form, so the
        # conditional statistic equals it too
        ds = random_dataset(17, q=5, n_per=12)
        design = partial_out_exogenous(ds)
        rols = restricted_ols_fit(ds, [0.0])
        lm, bundle = lm_statistic(design, rols)
        ar_sq = full_quadratic_form(bundle, ds.n)
        assert cqlr_statistic(ar_sq, lm, bundle.rk) == pytest.approx(ar_sq, abs=1e-9)


def _exact_lm_draw(ds, b, g, dps=50):
    """LM*(g) at the null b in mpmath at ``dps`` digits, from the data of
    ``ds``, whose W must be the cluster dummies: partialling is then an
    exact within-cluster demeaning. Every float input is taken as exact."""
    from mpmath import matrix, mp, mpf

    def demeaned(col):
        col = [mpf(float(v)) for v in col]
        mean = mp.fsum(col) / len(col)
        return [v - mean for v in col]

    with mp.workdps(dps):
        sums, cross = [], []  # per cluster: s_j(b) and [Zt X']_j
        for lo, hi in zip(ds.cluster_starts[:-1], ds.cluster_starts[1:]):
            zt = [demeaned(z[lo:hi]) for z in ds.Z.T]
            e = [ey - ex * mpf(b) for ey, ex in zip(demeaned(ds.y[lo:hi]), demeaned(ds.X[lo:hi, 0]))]
            x = [mpf(float(v)) for v in ds.X[lo:hi, 0]]
            sums.append([mp.fsum(u * v for u, v in zip(col, e)) for col in zt])
            cross.append([mp.fsum(u * v for u, v in zip(col, x)) for col in zt])
        n, g, r = ds.n, [mpf(float(v)) for v in g], range(ds.d_z)
        a = matrix([[mp.fsum(s[u] * s[v] for s in sums) / n for v in r] for u in r]) ** -1
        a_f = a * matrix([mp.fsum(gj * s[z] for gj, s in zip(g, sums)) / n for z in r])
        d = matrix([mp.fsum(c[z] for c in cross) / n - mp.fsum(
            mp.fsum(gj * c[z] * s[y] for gj, c, s in zip(g, cross, sums)) / n * a_f[y] for y in r)
            for z in r])
        c = (d.T * a_f)[0]
        return n * c * c / (d.T * a * d)[0]


def test_lm_draw_where_the_score_sums_nearly_cancel():
    # the cs-grid design at b = 0.4: exhaustive row 81 has LM* = 2.5e-5,
    # far below the scale of its terms. Forming the Jacobian correction
    # from its affine pieces, Gamma_a(g) - Gamma_C(g) b, keeps the draw
    # within 3e-10 of the 50-digit value; forming s_j(b) first and then
    # Gamma*(g, b) at each null was 6.1e-10 off. (The d_x >= 2 accuracy of
    # the normal equations D*'A D* is a separate matter, not tested here.)
    ds = simulate_dgp(DgpConfig(q=10, d_z=2, pi0=4, rho=0.5, size_scale=10),
                      np.random.default_rng(3))
    assert np.array_equal(ds.W, (ds.cluster_id[:, None] == np.arange(ds.q)).astype(float))
    signs = make_sign_set(10, "exhaustive")
    got = run_tests(ds, ["lm"], Hypothesis.full_vector([0.4]), sign_set=signs)["lm"]
    exact = _exact_lm_draw(ds, 0.4, signs.vectors[81])
    assert float(exact) == pytest.approx(2.4952047254617e-05, rel=1e-12)
    assert abs(got.boot_stats[81] - exact) <= 3e-10 * exact
