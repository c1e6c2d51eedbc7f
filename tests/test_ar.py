import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t1_expected as E
from conftest import random_dataset
from wbiv import (
    InputError,
    ar_asymptotic_cr_test,
    ar_bootstrap_test,
    ar_statistics,
    build_dataset,
    chi2_quantile,
    critical_value,
    make_sign_set,
    partial_out_exogenous,
    restricted_ols_fit,
)
from wbiv.ar import ar_bootstrap_distribution
from wbiv.rng import substream

# 90%, 95%, 99% chi-squared quantiles for df = 1, 2, 3, 5, 10 (standard
# tabulated values).
CHI2_TABLE = {
    (1, 0.90): 2.70554345,
    (1, 0.95): 3.84145882,
    (2, 0.90): 4.60517019,
    (3, 0.90): 6.25138863,
    (3, 0.99): 11.34486673,
    (5, 0.95): 11.07049769,
    (10, 0.90): 15.98717917,
}


class TestArStatistics:
    def test_t1_oracle(self, t1, t1_design):
        stats = ar_statistics(t1_design, restricted_ols_fit(t1, [0.0]))
        assert stats.ar_n == pytest.approx(E.AR_N, abs=1e-10)
        assert stats.ar_cr_n == pytest.approx(E.AR_CR_N, abs=1e-10)

    def test_t1_dz2_oracle(self, t1_dz2):
        design = partial_out_exogenous(t1_dz2)
        stats = ar_statistics(design, restricted_ols_fit(t1_dz2, [0.0]))
        assert stats.ar_n == pytest.approx(E.AR_N_DZ2, abs=1e-10)
        assert stats.ar_cr_n == pytest.approx(E.AR_CR_N_DZ2, abs=1e-10)

    def test_exact_null_fit_gives_zero(self):
        rng = substream(6, "null-exact")
        n = 12
        x = rng.standard_normal(n)
        w = np.ones(n)
        y = 0.7 * x + 2.0  # exactly beta0 = 0.7 with intercept 2
        ds = build_dataset(y, x, rng.standard_normal(n), w, np.repeat([0, 1], 6))
        design = partial_out_exogenous(ds)
        stats = ar_statistics(design, restricted_ols_fit(ds, [0.7]))
        assert stats.ar_n == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("q", [2, 5])
    def test_degenerate_when_instruments_equal_clusters(self, q):
        # d_z = q: the squared CCE-weighted statistic is exactly d_z
        rng = substream(13, "dzq", q)
        n_per = 7
        n = q * n_per
        ds = build_dataset(
            rng.standard_normal(n),
            rng.standard_normal(n),
            rng.standard_normal((n, q)),
            np.ones(n),
            np.repeat(np.arange(q), n_per),
        )
        stats = ar_statistics(partial_out_exogenous(ds), restricted_ols_fit(ds, [0.0]))
        assert stats.ar_cr_sq == pytest.approx(q, abs=1e-8)


class TestArBootstrap:
    def test_identity_and_flip_symmetry_exact(self, t1, t1_design):
        stats = ar_statistics(t1_design, restricted_ols_fit(t1, [0.0]))
        signs = make_sign_set(2, "exhaustive")
        for studentize in (False, True):
            boot = ar_bootstrap_distribution(stats, signs.vectors, t1.n, studentize)
            sample = stats.ar_cr_n if studentize else stats.ar_n
            assert boot[-1] == pytest.approx(sample, abs=1e-12)  # g = iota
            np.testing.assert_array_equal(boot, boot[::-1])  # AR*(-g) = AR*(g)

    def test_t1_distributions_match_oracle(self, t1, t1_design):
        stats = ar_statistics(t1_design, restricted_ols_fit(t1, [0.0]))
        signs = make_sign_set(2, "exhaustive")
        np.testing.assert_allclose(
            ar_bootstrap_distribution(stats, signs.vectors, t1.n, False), E.ARSTAR_N, atol=1e-10
        )
        np.testing.assert_allclose(
            ar_bootstrap_distribution(stats, signs.vectors, t1.n, True), E.ARSTAR_CR_N, atol=1e-10
        )

    def test_t1_dz2_studentized_distribution_is_constant(self, t1_dz2):
        # q = d_z: no variation across sign vectors, so the test cannot reject
        design = partial_out_exogenous(t1_dz2)
        stats = ar_statistics(design, restricted_ols_fit(t1_dz2, [0.0]))
        signs = make_sign_set(2, "exhaustive")
        boot = ar_bootstrap_distribution(stats, signs.vectors, t1_dz2.n, True)
        np.testing.assert_allclose(boot, E.ARSTAR_CR_N_DZ2, atol=1e-10)
        assert np.ptp(boot) < 1e-12

    def test_full_test_record(self, t1):
        res = ar_bootstrap_test(t1, [0.0], sign_set=make_sign_set(2, "exhaustive"), alpha=0.2)
        assert res.test == "ar"
        assert res.statistic == pytest.approx(E.AR_N, abs=1e-10)
        assert res.reject == (res.statistic > res.critical_value)

    def test_studentize_gate(self, t1_dz2):
        with pytest.raises(InputError, match="q > d_z"):
            ar_bootstrap_test(t1_dz2, [0.0], studentize=True)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_exchangeable_exceedance_bound(self, seed):
        # with exhaustive signs, at most floor(alpha 2^q) + 2 sign vectors can
        # strictly exceed the critical value
        q, d_z, alpha = 6, 2, 0.1
        rng = substream(seed, "exch")
        scores = rng.standard_normal((q, d_z))
        signs = make_sign_set(q, "exhaustive").vectors
        f_star = signs @ scores
        ar_star = np.sqrt(np.einsum("mz,mz->m", f_star, f_star))
        cv = critical_value(ar_star, alpha)
        assert np.sum(ar_star > cv) <= int(alpha * 2**q) + 2


class TestAsymptoticAr:
    def test_chi2_quantiles_match_tabulated(self):
        for (df, p), expected in CHI2_TABLE.items():
            assert chi2_quantile(p, df) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, t1, alpha):
        with pytest.raises(InputError, match="alpha"):
            ar_asymptotic_cr_test(t1, [0.0], alpha=alpha)

    def test_squared_statistic_comparison(self, t1):
        res = ar_asymptotic_cr_test(t1, [0.0], alpha=0.1)
        assert res.statistic_sq == pytest.approx(E.AR_CR_N**2, abs=1e-9)
        assert res.critical_value == pytest.approx(chi2_quantile(0.9, 1), abs=1e-12)
        assert res.reject == (res.statistic_sq > res.critical_value)
