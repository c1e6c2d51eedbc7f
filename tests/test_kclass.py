import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t1_expected as E
from conftest import random_dataset
from wbiv import (
    Hypothesis,
    fit_method,
    partial_out_exogenous,
    restricted_kclass_fit,
    restricted_ols_fit,
)
from wbiv.exceptions import InputError
from wbiv.kclass import restricted_betas


def joint_kclass_reference(dataset, kappa):
    """Unpartialled estimator on [X : W] with an explicit annihilator."""
    xvec = np.column_stack([dataset.X, dataset.W])
    zvec = np.column_stack([dataset.Z, dataset.W])
    resid_on_z = xvec - zvec @ np.linalg.lstsq(zvec, xvec, rcond=None)[0]
    y_resid = dataset.y - zvec @ np.linalg.lstsq(zvec, dataset.y, rcond=None)[0]
    lhs = xvec.T @ xvec - kappa * xvec.T @ resid_on_z
    rhs = xvec.T @ dataset.y - kappa * xvec.T @ y_resid
    theta = np.linalg.solve(lhs, rhs)
    return theta[: dataset.d_x], theta[dataset.d_x :]


class TestKappa:
    def test_tsls_is_one(self, t1, t1_design):
        assert fit_method(t1, t1_design, "tsls").kappa == 1.0

    def test_ba_formula(self):
        ds = random_dataset(1, q=5, n_per=62, d_z=3)  # n = 310
        design = partial_out_exogenous(ds)
        assert fit_method(ds, design, "ba").kappa == pytest.approx(310 / 309, abs=1e-15)

    def test_liml_matches_eigen_oracle(self, t1_dz2):
        design = partial_out_exogenous(t1_dz2)
        kappa = fit_method(t1_dz2, design, "liml").kappa
        assert kappa == pytest.approx(E.KAPPA_LIML_DZ2, abs=1e-8)

    def test_full_offset_is_exact(self, t1_dz2):
        design = partial_out_exogenous(t1_dz2)
        k_liml = fit_method(t1_dz2, design, "liml").kappa
        k_full = fit_method(t1_dz2, design, "full", fuller_c=1.0).kappa
        n, d_z, d_w = t1_dz2.n, t1_dz2.d_z, t1_dz2.d_w
        assert k_full == k_liml - 1.0 / (n - d_z - d_w)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_liml_kappa_at_least_one(self, seed):
        ds = random_dataset(seed, q=4, n_per=15, d_z=2, d_w=2)
        design = partial_out_exogenous(ds)
        assert fit_method(ds, design, "liml").kappa >= 1.0 - 1e-10

    def test_unknown_method(self, t1, t1_design):
        with pytest.raises(InputError, match="unknown k-class method"):
            fit_method(t1, t1_design, "ols")


class TestFit:
    def test_t1_tsls_matches_oracle(self, t1, t1_design):
        fit = fit_method(t1, t1_design, "tsls")
        assert fit.beta_hat[0] == pytest.approx(E.TSLS_BETA, abs=1e-10)
        assert fit.gamma_hat[0] == pytest.approx(E.TSLS_GAMMA, abs=1e-10)
        np.testing.assert_allclose(fit.resid_unrestricted, E.TSLS_RESID, atol=1e-10)

    def test_liml_beta_dz2_matches_oracle(self, t1_dz2):
        design = partial_out_exogenous(t1_dz2)
        fit = fit_method(t1_dz2, design, "liml")
        assert fit.beta_hat[0] == pytest.approx(E.LIML_BETA_DZ2, abs=1e-8)

    def test_self_instrumenting_reduces_to_ols(self):
        ds = random_dataset(7, q=3, n_per=20, d_w=2)
        ds = ds.replace_outcome_regressors(ds.y, ds.Z)  # X := Z, exogenous
        design = partial_out_exogenous(ds)
        fit = fit_method(ds, design, "tsls")
        regs = np.column_stack([ds.X, ds.W])
        ols = np.linalg.lstsq(regs, ds.y, rcond=None)[0]
        np.testing.assert_allclose(fit.beta_hat, ols[:1], atol=1e-10)
        np.testing.assert_allclose(fit.gamma_hat, ols[1:], atol=1e-10)

    def test_outcome_scaling_scales_estimates(self, t1, t1_design):
        fit = fit_method(t1, t1_design, "tsls")
        scaled = t1.replace_outcome_regressors(2.0 * t1.y, t1.X)
        fit2 = fit_method(scaled, t1_design, "tsls")
        np.testing.assert_allclose(fit2.beta_hat, 2.0 * fit.beta_hat, atol=1e-12)
        np.testing.assert_allclose(fit2.gamma_hat, 2.0 * fit.gamma_hat, atol=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_partialled_fit_agrees_with_joint_formula(self, seed):
        ds = random_dataset(seed, q=4, n_per=25, d_x=2, d_z=3, d_w=2)
        design = partial_out_exogenous(ds)
        for method in ("tsls", "liml", "full", "ba"):
            fit = fit_method(ds, design, method)
            beta_ref, gamma_ref = joint_kclass_reference(ds, fit.kappa)
            np.testing.assert_allclose(
                fit.beta_hat, beta_ref, rtol=1e-8, atol=1e-10, err_msg=method
            )
            np.testing.assert_allclose(
                fit.gamma_hat, gamma_ref, rtol=1e-8, atol=1e-10, err_msg=method
            )


class TestRestrictedFit:
    def test_restriction_at_estimate_is_fixed_point(self, t1, t1_design):
        fit = fit_method(t1, t1_design, "tsls")
        hyp = Hypothesis.wald(np.eye(1), [fit.beta_hat[0]])
        rfit = restricted_kclass_fit(t1, t1_design, fit, hyp)
        np.testing.assert_allclose(rfit.beta_hat_r, fit.beta_hat, atol=1e-12)

    def test_full_restriction_at_zero(self, t1, t1_design):
        fit = fit_method(t1, t1_design, "tsls")
        rfit = restricted_kclass_fit(t1, t1_design, fit, Hypothesis.wald(np.eye(1), [0.0]))
        assert rfit.beta_hat_r[0] == pytest.approx(0.0, abs=1e-14)
        assert rfit.gamma_hat_r[0] == pytest.approx(t1.y.mean(), abs=1e-12)

    def test_t1_oracle_at_half(self, t1, t1_design):
        fit = fit_method(t1, t1_design, "tsls")
        rfit = restricted_kclass_fit(t1, t1_design, fit, Hypothesis.wald(np.eye(1), [0.5]))
        assert rfit.beta_hat_r[0] == pytest.approx(E.RESTR_BETA_05, abs=1e-10)
        assert rfit.gamma_hat_r[0] == pytest.approx(E.RESTR_GAMMA_05, abs=1e-10)
        np.testing.assert_allclose(rfit.resid_restricted, E.RESTR_RESID_05, atol=1e-10)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_restriction_always_satisfied(self, seed):
        ds = random_dataset(seed, q=4, n_per=25, d_x=2, d_z=3)
        design = partial_out_exogenous(ds)
        lam = np.array([[1.0], [-2.0]])
        hyp = Hypothesis.wald(lam, [0.7])
        for method in ("tsls", "liml"):
            fit = fit_method(ds, design, method)
            rfit = restricted_kclass_fit(ds, design, fit, hyp)
            assert lam.T @ rfit.beta_hat_r == pytest.approx(0.7, abs=1e-10)


    @pytest.mark.parametrize("d_x, lam", [
        pytest.param(1, [[1.0]], id="dx1"),
        pytest.param(2, [[1.0], [-2.0]], id="dx2-dr1"),
        pytest.param(2, [[1.0, 0.5], [0.0, 1.0]], id="dx2-dr2"),
    ])
    def test_one_projection_for_a_null_and_a_block(self, d_x, lam):
        # the projection is written once: restricted_kclass_fit at each null
        # is bitwise that null's row of restricted_betas for the block, and
        # its from-scratch residual is e_y - e_X beta_r, the identity the
        # WREC engine builds its draws on
        lam = np.array(lam)
        nulls = np.array([[-0.9, 0.4], [0.0, 0.0], [0.31, -1.2], [1.7, 0.05]])[:, : lam.shape[1]]
        for seed in range(3):
            ds = random_dataset(seed, q=5, n_per=20, d_x=d_x, d_z=3)
            design = partial_out_exogenous(ds)
            for method in ("tsls", "liml"):
                fit = fit_method(ds, design, method)
                block = restricted_betas(fit, lam, nulls)
                assert block.shape == (len(nulls), d_x)
                for lam0, row in zip(nulls, block):
                    rfit = restricted_kclass_fit(ds, design, fit, Hypothesis.wald(lam, lam0))
                    assert np.array_equal(rfit.beta_hat_r, row), (seed, method, lam0)
                    np.testing.assert_allclose(lam.T @ row, lam0, atol=1e-10)
                    e = restricted_ols_fit(ds, row, design)
                    resid = e.e_y - e.e_X @ row
                    scale = np.abs(resid).max()
                    assert np.abs(rfit.resid_restricted - resid).max() <= 1e-12 * scale


class TestRestrictedOls:
    def test_intercept_only_demeans(self, t1):
        rols = restricted_ols_fit(t1, [0.0])
        assert rols.gamma_bar_r[0] == pytest.approx(t1.y.mean(), abs=1e-14)
        np.testing.assert_allclose(rols.resid, t1.y - t1.y.mean(), atol=1e-14)

    def test_t1_oracle_at_03(self, t1):
        rols = restricted_ols_fit(t1, [0.3])
        assert rols.gamma_bar_r[0] == pytest.approx(E.ROLS_GAMMA_03, abs=1e-10)
        np.testing.assert_allclose(rols.resid, E.ROLS_RESID_03, atol=1e-10)

    def test_w_orthogonality(self):
        ds = random_dataset(9, q=4, n_per=12, d_w=3)
        rols = restricted_ols_fit(ds, [0.4])
        assert np.abs(ds.W.T @ rols.resid).max() < 1e-9

    def test_equals_restricted_tsls_when_just_identified(self, t1, t1_design):
        # single endogenous regressor, single instrument: the two restricted
        # residuals coincide exactly
        beta0 = 0.25
        rols = restricted_ols_fit(t1, [beta0])
        fit = fit_method(t1, t1_design, "tsls")
        rfit = restricted_kclass_fit(t1, t1_design, fit, Hypothesis.wald(np.eye(1), [beta0]))
        np.testing.assert_allclose(rfit.resid_restricted, rols.resid, atol=1e-10)
