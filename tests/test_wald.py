import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t1_expected as E
from conftest import random_dataset
import wbiv.kclass
from wbiv import (
    Hypothesis,
    InputError,
    ar_bootstrap_test,
    efficient_first_stage,
    fit_method,
    make_sign_set,
    partial_out_exogenous,
    restricted_kclass_fit,
    restricted_ols_fit,
    run_test,
    run_tests,
    wrec_run,
    wrec_wald_test,
)
from wbiv.data import cluster_cross
from wbiv.rng import substream
from wbiv.simulate import DgpConfig, simulate_dgp
from score_reference import score_wald_reference
from wrec_reference import bootstrap_sample, direct_distributions

H0 = Hypothesis.wald(np.eye(1), [0.0])


def assert_engines_agree(ds, hyp, signs, methods):
    """The moment engine against the observation-level refit per sign vector."""
    for method in methods:
        run = wrec_run(ds, hyp, method, signs)
        boot_n, boot_cr, _ = direct_distributions(ds, hyp, method, signs)
        np.testing.assert_allclose(run.boot_stats, boot_n, atol=1e-8, rtol=1e-8)
        np.testing.assert_allclose(run.boot_stats_cr, boot_cr, atol=1e-8, rtol=1e-8)


def tsls_restricted(ds, design, lam0=0.0):
    fit = fit_method(ds, design, "tsls")
    return restricted_kclass_fit(ds, design, fit, Hypothesis.wald(np.eye(1), [lam0]))


class TestEfficientFirstStage:
    def test_exact_linear_x_gives_zero_residual(self):
        rng = substream(2, "exactfs")
        n_per, q = 10, 3
        n = n_per * q
        cluster = np.repeat(np.arange(q), n_per)
        z = rng.standard_normal(n)
        w = np.column_stack([np.ones(n), rng.standard_normal(n)])
        # X exactly linear in the interacted partialled instruments and W
        z_tilde = z - w @ np.linalg.lstsq(w, z, rcond=None)[0]
        slopes = np.array([1.0, -0.5, 2.0])
        x = slopes[cluster] * z_tilde + w @ np.array([0.3, 0.7])
        from wbiv import build_dataset

        ds = build_dataset(rng.standard_normal(n), x, z, w, cluster)
        design = partial_out_exogenous(ds)
        efs = efficient_first_stage(ds, design, rng.standard_normal(n) * 0.1)
        assert np.abs(efs.v_tilde).max() < 1e-10

    def test_t1_oracle(self, t1, t1_design):
        fit = fit_method(t1, t1_design, "tsls")
        efs = efficient_first_stage(t1, t1_design, fit.resid_unrestricted)
        np.testing.assert_allclose(efs.pi_zbar.ravel(), E.PI_ZBAR, atol=1e-10)
        assert efs.pi_w[0, 0] == pytest.approx(E.PI_W, abs=1e-10)
        assert efs.pi_eps[0] == pytest.approx(E.PI_EPS, abs=1e-10)
        np.testing.assert_allclose(efs.v_tilde.ravel(), E.V_TILDE, atol=1e-10)

    def test_regression_residual_orthogonal_to_all_regressors(self, t1, t1_design):
        # v_tilde itself keeps the eps-coefficient term; the OLS residual
        # (v_tilde minus that term) is orthogonal to (Zbar, W, eps)
        fit = fit_method(t1, t1_design, "tsls")
        eps = fit.resid_unrestricted
        efs = efficient_first_stage(t1, t1_design, eps)
        u = efs.v_tilde - np.outer(eps, efs.pi_eps)
        for j in range(t1.q):
            sl = t1.cluster_slice(j)
            assert np.abs(t1_design.Z_tilde[sl].T @ u[sl]).max() < 1e-10
        assert np.abs(t1.W.T @ u).max() < 1e-10
        assert np.abs(eps @ u).max() < 1e-10

    def test_per_cluster_jacobian_error_shrinks_with_cluster_size(self):
        gaps = {}
        for n_per in (80, 640):
            ds = random_dataset(77, q=4, n_per=n_per, d_z=1, rho=0.5)
            design = partial_out_exogenous(ds)
            fit = fit_method(ds, design, "tsls")
            efs = efficient_first_stage(ds, design, fit.resid_unrestricted)
            per_cluster = cluster_cross(design.Z_tilde, efs.v_tilde, design.cluster_starts)
            gaps[n_per] = np.abs(per_cluster / design.cluster_sizes[:, None, None]).max()
        assert gaps[640] < gaps[80]

    def test_too_few_rows_rejected(self, t1):
        # q*d_z + d_w + 1 = 4 <= 6 is fine; inflate d_w to push past n
        from wbiv import build_dataset

        rng = substream(8, "small")
        w = np.column_stack([np.ones(6), rng.standard_normal((6, 3))])
        ds = build_dataset(t1.y, t1.X, t1.Z, w, t1.cluster_id)
        design = partial_out_exogenous(ds)
        with pytest.raises(InputError, match="first stage needs"):
            efficient_first_stage(ds, design, rng.standard_normal(6))


class TestBootstrapSample:
    def test_identity_sign_vector_reproduces_data(self, t1, t1_design):
        rfit = tsls_restricted(t1, t1_design)
        efs = efficient_first_stage(t1, t1_design, rfit.resid_unrestricted)
        y_star, x_star = bootstrap_sample(t1, efs, rfit, np.ones(2))
        np.testing.assert_allclose(x_star.ravel(), t1.X.ravel(), atol=1e-12)
        np.testing.assert_allclose(y_star, t1.y, atol=1e-12)

    def test_full_flip_formula(self, t1, t1_design):
        rfit = tsls_restricted(t1, t1_design)
        efs = efficient_first_stage(t1, t1_design, rfit.resid_unrestricted)
        y_star, x_star = bootstrap_sample(t1, efs, rfit, -np.ones(2))
        np.testing.assert_allclose(x_star, t1.X - 2.0 * efs.v_tilde, atol=1e-12)

    def test_mixed_signs_match_oracle_arrays(self, t1, t1_design):
        rfit = tsls_restricted(t1, t1_design)
        efs = efficient_first_stage(t1, t1_design, rfit.resid_unrestricted)
        y_star, x_star = bootstrap_sample(t1, efs, rfit, np.array([1.0, -1.0]))
        np.testing.assert_allclose(x_star.ravel(), E.XSTAR_PM, atol=1e-10)
        np.testing.assert_allclose(y_star, E.YSTAR_PM, atol=1e-10)

    def test_bad_signs_rejected(self, t1, t1_design):
        rfit = tsls_restricted(t1, t1_design)
        efs = efficient_first_stage(t1, t1_design, rfit.resid_unrestricted)
        with pytest.raises(InputError):
            bootstrap_sample(t1, efs, rfit, np.array([1.0, 0.5]))


class TestWaldStatistic:
    # the sample statistic is wrec_run's g = iota draw
    def test_zero_at_exact_null(self, t1, t1_design):
        fit = fit_method(t1, t1_design, "tsls")
        hyp = Hypothesis.wald(np.eye(1), [fit.beta_hat[0]])
        # the iota draw re-solves beta, which may land a few ulps from beta_hat
        ulps = np.sqrt(t1.n) * np.spacing(abs(fit.beta_hat[0]))
        assert 0.0 <= wrec_run(t1, hyp).statistic <= 4 * ulps

    def test_scalar_norm(self, t1, t1_design):
        fit = fit_method(t1, t1_design, "tsls")
        hyp = Hypothesis.wald(np.eye(1), [fit.beta_hat[0] - 0.5])
        assert wrec_run(t1, hyp).statistic == pytest.approx(np.sqrt(6) * 0.5, abs=1e-12)

    def test_t1_oracle(self, t1):
        assert wrec_run(t1, H0).statistic == pytest.approx(E.T_N, abs=1e-10)


class TestWrecDistributions:
    def test_t1_exhaustive_matches_oracle(self, t1):
        run = wrec_run(t1, H0, "tsls", make_sign_set(2, "exhaustive"))
        assert run.statistic == pytest.approx(E.T_N, abs=1e-10)
        assert run.statistic_cr == pytest.approx(E.T_CR_N, abs=1e-9)
        np.testing.assert_allclose(run.boot_stats, E.TSTAR_N, atol=1e-9)
        np.testing.assert_allclose(run.boot_stats_cr, E.TSTAR_CR_N, atol=1e-8)

    def test_t1_dz2_exhaustive_matches_oracle(self, t1_dz2):
        run = wrec_run(t1_dz2, H0, "tsls", make_sign_set(2, "exhaustive"))
        np.testing.assert_allclose(run.boot_stats, E.TSTAR_N_DZ2, atol=1e-9)
        np.testing.assert_allclose(run.boot_stats_cr, E.TSTAR_CR_N_DZ2, atol=1e-8)
        run_liml = wrec_run(t1_dz2, H0, "liml", make_sign_set(2, "exhaustive"), want_cr=False)
        assert run_liml.statistic == pytest.approx(E.T_N_DZ2_LIML, abs=1e-9)
        np.testing.assert_allclose(run_liml.boot_stats, E.TSTAR_N_DZ2_LIML, atol=1e-9)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_engines_agree(self, seed):
        ds = random_dataset(seed, q=4, n_per=20, d_z=2, d_w=2)
        signs = make_sign_set(4, "exhaustive")
        assert_engines_agree(ds, H0, signs, ("tsls", "liml", "full", "ba"))

    def test_engines_agree_heavy_tailed_design(self):
        # one draw of the weakest just-identified simulation cell, where the
        # studentized size sits below its acceptance window (docs/decisions.md),
        # with the 499 sampled sign vectors of a Monte Carlo replication
        ds = simulate_dgp(
            DgpConfig(q=10, d_z=1, pi0=2.0, rho=0.0), substream(0, "engines-heavy-tailed")
        )
        signs = make_sign_set(10, "sampled", B=499, seed=0)
        assert_engines_agree(ds, H0, signs, ("tsls", "liml", "full", "ba"))

    def test_engines_agree_multivariate(self):
        # two endogenous regressors exercise the generic matrix paths; the
        # full-vector null (d_r = 2) exercises the 2x2 studentizing inverse
        ds = random_dataset(123, q=4, n_per=30, d_x=2, d_z=3, d_w=2)
        signs = make_sign_set(4, "exhaustive")
        one = Hypothesis.wald(np.array([[1.0], [0.5]]), [0.0])
        for hyp in (one, Hypothesis.full_vector([0, 0])):
            assert_engines_agree(ds, hyp, signs, ("tsls", "liml", "full", "ba"))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_identity_sign_vector_for_every_method(self, seed):
        ds = random_dataset(seed, q=3, n_per=25, d_z=2, d_w=2)
        signs = make_sign_set(3, "exhaustive")
        for method in ("tsls", "liml", "full", "ba"):
            run = wrec_run(ds, H0, method, signs)
            tol = 1e-9 * max(1.0, run.statistic)
            assert abs(run.boot_stats[-1] - run.statistic) <= tol
            tol_cr = 1e-9 * max(1.0, run.statistic_cr)
            assert abs(run.boot_stats_cr[-1] - run.statistic_cr) <= tol_cr

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_minus_iota_draw_ties_the_statistic_when_just_identified(self, seed):
        # at d_z = d_x with kappa = 1 the unrestricted residual has Zt'e = 0,
        # so U_Zt'v = 0 and the unstudentized draw at g = -iota equals the
        # statistic in exact arithmetic: TSLS, LIML (whose kappa is 1 when
        # just identified) and BA at d_z = 2 (n / (n - d_z + 2) = 1). Every
        # exhaustive set holds -iota (its first row), and the pass writes the
        # statistic's bits into that draw, so strict exceedance decides the
        # tie as it does for iota (docs/decisions.md, "A rows-last draw
        # stack"). FULL's kappa is not 1, and at d_z = 2 > d_x there is no
        # such identity: no rule
        ds = random_dataset(seed, q=6, n_per=15)
        signs = make_sign_set(6, "exhaustive")
        assert np.all(signs.vectors[0] == -1.0)
        hyp = Hypothesis.wald(np.eye(1), [0.5])
        for method in ("tsls", "liml"):
            run = wrec_run(ds, hyp, method, signs, want_cr=False)
            assert run.boot_stats[0] == run.statistic, method
        run = wrec_run(ds, hyp, "full", signs, want_cr=False)
        assert run.boot_stats[0] != run.statistic
        square = random_dataset(seed, q=6, n_per=15, d_x=2, d_z=2)
        over = random_dataset(seed, q=6, n_per=15, d_z=2)
        for method in ("tsls", "liml", "ba"):
            for block in (Hypothesis.full_vector([0.5, -0.2]),
                          Hypothesis.wald(np.array([[1.0], [0.5]]), [0.3])):
                run = wrec_run(square, block, method, signs, want_cr=False)
                assert run.boot_stats[0] == run.statistic, (method, block.d_r)
            run = wrec_run(over, hyp, method, signs, want_cr=False)
            assert run.boot_stats[0] != run.statistic, method

    def test_clamped_sample_kappa_warns_once(self, monkeypatch):
        # with the clamp tolerance at -10 every LIML kappa is clamped: the
        # sample fit reports its own, and the draws' warning counts the sign
        # rows without the appended g = iota row
        monkeypatch.setattr(wbiv.kclass, "LIML_CLAMP_TOL", -10.0)
        ds = random_dataset(3, q=3, n_per=25, d_z=2)
        signs = make_sign_set(3, "exhaustive")
        with pytest.warns(RuntimeWarning) as caught:
            wrec_run(ds, H0, "liml", signs)
        assert [str(w.message) for w in caught] == [
            "clamped 1 LIML kappa value(s) below 1 to 1 (numerical noise)",
            f"clamped {len(signs.vectors)} LIML kappa value(s) below 1 to 1 (numerical noise)",
        ]

    def test_clamped_draws_are_counted_per_null(self, monkeypatch):
        # just identified (d_z = d_x = 1), LIML's kappa is 1 up to the
        # pencil root's rounding; with the clamp tolerance at 0 every draw
        # whose root rounds below 1 is clamped. Each null counts its own
        # draws without the g = iota row, the count the block's warning
        # gives, and a record carries the count only when it is not zero
        monkeypatch.setattr(wbiv.kclass, "LIML_CLAMP_TOL", 0.0)
        ds = random_dataset(4, q=8, n_per=15)
        signs = make_sign_set(8, "exhaustive")

        def clamped(nulls):
            with pytest.warns(RuntimeWarning) as caught:
                out = run_tests(ds, ["wald", "wald-cr"], Hypothesis.wald(np.eye(1), nulls),
                                estimator="liml", sign_set=signs)
            # the draws' warning comes last, after the sample fit's own
            draws = re.fullmatch(r"clamped (\d+) LIML kappa value\(s\) below 1 to 1 \(numerical "
                                 r"noise\)", str(caught[-1].message))
            return out, int(draws.group(1))

        block, total = clamped([[-0.5], [0.0], [0.5]])
        counts = [null["wald"].n_clamped for null in block]
        assert sum(counts) == total and 0 < min(counts) and max(counts) < signs.size
        for b, null, k in zip((-0.5, 0.0, 0.5), block, counts):
            assert null["wald-cr"].n_clamped == k
            assert null["wald"].to_record()["n_clamped"] == k
            alone, n = clamped([b])
            assert alone["wald"].n_clamped == alone["wald-cr"].n_clamped == n == k
        monkeypatch.setattr(wbiv.kclass, "LIML_CLAMP_TOL", 1e-8)
        res = run_tests(ds, ["wald"], Hypothesis.wald(np.eye(1), [0.0]), estimator="liml",
                        sign_set=signs)["wald"]
        assert res.n_clamped == 0 and "n_clamped" not in res.to_record()

    def test_a_clamped_sample_kappa_is_in_the_record(self, monkeypatch):
        # with the clamp tolerance at -10 every LIML kappa is clamped, the
        # statistic's own (its g = iota row) among them: each null's record
        # says so. At the default tolerance none is, and the key is absent,
        # as it is for TSLS, whose kappa is never clamped
        ds = random_dataset(3, q=3, n_per=25, d_z=2)
        signs = make_sign_set(3, "exhaustive")
        block = Hypothesis.wald(np.eye(1), [[-0.5], [0.0], [0.5]])
        names = ["wald", "wald-cr"]
        monkeypatch.setattr(wbiv.kclass, "LIML_CLAMP_TOL", -10.0)
        with pytest.warns(RuntimeWarning):
            clamped = run_tests(ds, names, block, estimator="liml", sign_set=signs)
        monkeypatch.setattr(wbiv.kclass, "LIML_CLAMP_TOL", 1e-8)
        plain = run_tests(ds, names, block, estimator="liml", sign_set=signs)
        tsls = run_tests(ds, names, block, sign_set=signs)
        for null in clamped:
            for name in names:
                assert null[name].kappa_clamped is True
                assert null[name].to_record()["kappa_clamped"] is True
        for null in plain + tsls:
            for name in names:
                assert null[name].kappa_clamped is False
                assert "kappa_clamped" not in null[name].to_record()


class TestWrecWaldTest:
    def test_small_q_never_rejects_when_statistic_is_in_distribution(self, t1):
        # q = 2: the bootstrap distribution contains T_n itself (g = +-iota),
        # and ceil(4 * 0.9) = 4 picks the maximum, so ties block rejection
        res = wrec_wald_test(t1, H0, sign_set=make_sign_set(2, "exhaustive"), alpha=0.10)
        assert res.critical_value >= res.statistic
        assert not res.reject

    def test_studentize_needs_enough_clusters(self):
        # d_r = q = 2 fails the q > d_r gate; q = 2 > d_r = 1 passes it
        ds = random_dataset(5, q=2, n_per=30, d_x=2, d_z=3)
        hyp2 = Hypothesis.wald(np.eye(2), [0.0, 0.0])
        with pytest.raises(InputError, match="q > d_r"):
            wrec_wald_test(ds, hyp2, studentize=True, sign_set=make_sign_set(2, "exhaustive"))
        ds1 = random_dataset(5, q=2, n_per=30)
        res = wrec_wald_test(ds1, H0, studentize=True, sign_set=make_sign_set(2, "exhaustive"))
        assert res.test == "wald-cr"

    def test_result_record(self, t1):
        res = wrec_wald_test(t1, H0, sign_set=make_sign_set(2, "exhaustive"), alpha=0.25)
        assert res.boot_stats.shape == (4,)
        assert res.reject == (res.statistic > res.critical_value)
        assert 0.0 <= res.pvalue <= 1.0


class TestScoreBootstrap:
    def test_t1_statistic_and_distribution_match_oracle(self, t1):
        res = run_test(t1, "score-wald", H0, sign_set=make_sign_set(2, "exhaustive"))
        assert res.statistic == pytest.approx(E.SCORE_STAT, abs=1e-10)
        np.testing.assert_allclose(res.boot_stats, E.SCORE_STAR, atol=1e-10)

    def test_statistic_equals_scaled_ar(self, t1, t1_design):
        res = run_test(t1, "score-wald", H0, sign_set=make_sign_set(2, "exhaustive"))
        scale = abs(1.0 / t1_design.Q_ZX[0, 0])
        assert res.statistic == pytest.approx(scale * E.AR_N, abs=1e-10)

    def test_requires_just_identified(self, t1_dz2):
        with pytest.raises(InputError, match="d_x = d_z = 1"):
            run_test(t1_dz2, "score-wald", H0)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_decision_agrees_with_unstudentized_ar(self, seed):
        ds = random_dataset(seed, q=5, n_per=12, rho=0.6, pi_scale=0.7)
        signs = make_sign_set(5, "exhaustive")
        alpha = 0.15
        score = score_wald_reference(ds, H0, alpha=alpha, sign_set=signs)
        ar = ar_bootstrap_test(ds, [0.0], alpha=alpha, sign_set=signs)
        registry = run_tests(ds, ["score-wald"], H0, sign_set=signs, alpha=alpha)["score-wald"]
        assert score.reject == ar.reject == registry.reject
