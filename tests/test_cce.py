import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t1_expected as E
from conftest import random_dataset
from wbiv import (
    Hypothesis,
    NumericalError,
    bootstrap_cce_matrix,
    bootstrap_sample,
    cce_matrix,
    efficient_first_stage,
    kclass_fit,
    partial_out_exogenous,
    restricted_kclass_fit,
    wrec_run,
)
from wbiv.cce import cluster_score_sums
from wbiv.inference import SignSet


def triple_sum_omega(design, resid):
    """Brute-force triple sum over (i, k) pairs within each cluster."""
    zt = design.Z_tilde
    d_z = zt.shape[1]
    omega = np.zeros((d_z, d_z))
    for j in range(design.q):
        sl = design.cluster_slice(j)
        for i in range(sl.start, sl.stop):
            for k in range(sl.start, sl.stop):
                omega += np.outer(zt[i], zt[k]) * resid[i] * resid[k]
    return omega / design.n


class TestCceMatrix:
    def test_t1_oracle(self, t1, t1_design):
        fit = kclass_fit(t1, t1_design, 1.0)
        bundle = cce_matrix(t1_design, fit.resid_unrestricted, np.eye(1))
        assert bundle.Omega_CR[0, 0] == pytest.approx(E.OMEGA_CR, abs=1e-12)
        assert bundle.V_hat[0, 0] == pytest.approx(E.V_HAT, abs=1e-9)
        assert bundle.A_r_CR[0, 0] == pytest.approx(E.A_R_CR, abs=1e-8)
        assert bundle.Q_hat[0, 0] == pytest.approx(E.Q_HAT, abs=1e-12)

    def test_zero_residuals_error(self, t1_design):
        with pytest.raises(NumericalError):
            cce_matrix(t1_design, np.zeros(t1_design.n), np.eye(1))

    def test_single_observation_clusters_reduce_to_hc_form(self):
        rng = np.random.default_rng(4)
        n = 8
        ds_resid = rng.standard_normal(n)
        from wbiv import build_dataset

        ds = build_dataset(
            rng.standard_normal(n),
            rng.standard_normal(n),
            rng.standard_normal(n),
            np.ones(n),
            np.arange(n),
        )
        design = partial_out_exogenous(ds)
        bundle = cce_matrix(design, ds_resid, np.eye(1))
        hc = (design.Z_tilde.ravel() ** 2 * ds_resid**2).sum() / n
        assert bundle.Omega_CR[0, 0] == pytest.approx(hc, abs=1e-14)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_score_sum_identity_vs_triple_sum(self, seed):
        ds = random_dataset(seed, q=4, n_per=9, d_z=2)
        design = partial_out_exogenous(ds)
        resid = np.asarray(ds.y) - np.median(ds.y)
        s = cluster_score_sums(design, resid)
        omega = s.T @ s / design.n
        np.testing.assert_allclose(omega, triple_sum_omega(design, resid), atol=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_omega_psd(self, seed):
        ds = random_dataset(seed, q=5, n_per=8, d_z=3)
        design = partial_out_exogenous(ds)
        fit = kclass_fit(ds, design, 1.0)
        bundle = cce_matrix(design, fit.resid_unrestricted, np.eye(1))
        eigs = np.linalg.eigvalsh(bundle.Omega_CR)
        assert eigs[0] >= -1e-10 * np.trace(bundle.Omega_CR)


class TestBootstrapCce:
    def _restricted(self, t1, t1_design):
        fit = kclass_fit(t1, t1_design, 1.0, method="tsls")
        return restricted_kclass_fit(t1, t1_design, fit, Hypothesis.wald(np.eye(1), [0.0]))

    def test_identity_sign_vector_reproduces_sample(self, t1, t1_design):
        rfit = self._restricted(t1, t1_design)
        efs = efficient_first_stage(t1, t1_design, rfit.resid_unrestricted)
        y_star, x_star = bootstrap_sample(t1, efs, rfit, np.ones(2))
        fit_star = kclass_fit(t1.replace_outcome_regressors(y_star, x_star), t1_design, 1.0)
        boot = bootstrap_cce_matrix(t1_design, x_star, fit_star.resid_unrestricted, np.eye(1))
        sample = cce_matrix(t1_design, rfit.resid_unrestricted, np.eye(1))
        assert boot.A_r_CR[0, 0] == pytest.approx(sample.A_r_CR[0, 0], abs=1e-10)

    def test_oracle_at_plus_minus(self, t1, t1_design):
        rfit = self._restricted(t1, t1_design)
        efs = efficient_first_stage(t1, t1_design, rfit.resid_unrestricted)
        y_star, x_star = bootstrap_sample(t1, efs, rfit, np.array([1.0, -1.0]))
        fit_star = kclass_fit(t1.replace_outcome_regressors(y_star, x_star), t1_design, 1.0)
        boot = bootstrap_cce_matrix(t1_design, x_star, fit_star.resid_unrestricted, np.eye(1))
        q_zx_star = t1_design.Z_tilde.T @ x_star / t1.n
        assert q_zx_star[0, 0] == pytest.approx(E.QZX_STAR_PM, abs=1e-8)
        assert boot.A_r_CR[0, 0] == pytest.approx(E.A_R_CR_STAR_PM, abs=1e-8)

    def test_outcome_scaling_leaves_studentized_statistic_invariant(self, t1):
        # scaling (y, lambda_0) jointly by c scales the weighting by c^{-2}
        # and leaves the studentized statistic and decision unchanged
        hyp = Hypothesis.wald(np.eye(1), [0.0])
        signs = SignSet(mode="exhaustive", q=2, vectors=np.array([[1.0, 1.0], [1.0, -1.0]]))
        base = wrec_run(t1, hyp, "tsls", signs)
        scaled_ds = t1.replace_outcome_regressors(3.0 * t1.y, t1.X)
        scaled = wrec_run(scaled_ds, hyp, "tsls", signs)
        assert scaled.statistic_cr == pytest.approx(base.statistic_cr, rel=1e-9)
        np.testing.assert_allclose(scaled.boot_stats_cr, base.boot_stats_cr, rtol=1e-9)

    def test_outcome_scaling_scales_bootstrap_weighting(self, t1, t1_design):
        rfit = self._restricted(t1, t1_design)
        efs = efficient_first_stage(t1, t1_design, rfit.resid_unrestricted)
        y_star, x_star = bootstrap_sample(t1, efs, rfit, np.array([1.0, -1.0]))
        fit_star = kclass_fit(t1.replace_outcome_regressors(y_star, x_star), t1_design, 1.0)
        boot = bootstrap_cce_matrix(t1_design, x_star, fit_star.resid_unrestricted, np.eye(1))
        scaled = bootstrap_cce_matrix(
            t1_design, x_star, 3.0 * fit_star.resid_unrestricted, np.eye(1)
        )
        assert scaled.A_r_CR[0, 0] == pytest.approx(boot.A_r_CR[0, 0] / 9.0, rel=1e-10)
