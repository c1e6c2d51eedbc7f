import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t1_expected as E
from conftest import T1_CLUSTER, T1_X, T1_Y, T1_Z, random_dataset
from wbiv import (
    InputError,
    NumericalError,
    assumption_diagnostics,
    build_dataset,
    cluster_first_stage,
    partial_out_exogenous,
)
from wbiv.data import cluster_cross
from wbiv.rng import substream
from wbiv.simulate import DgpConfig, simulate_dgp


class TestBuildDataset:
    def test_t1_metadata(self, t1):
        assert t1.n == 6
        assert t1.q == 2
        assert tuple(t1.cluster_sizes) == (3, 3)
        assert t1.d_x == t1.d_z == t1.d_w == 1

    def test_shuffled_cluster_blocks_give_identical_dataset(self, t1):
        # cluster 2's block first; within-cluster order preserved
        perm = np.r_[3:6, 0:3]
        other = build_dataset(T1_Y[perm], T1_X[perm], T1_Z[perm], np.ones(6), T1_CLUSTER[perm])
        np.testing.assert_array_equal(other.y, t1.y)
        np.testing.assert_array_equal(other.X, t1.X)
        np.testing.assert_array_equal(other.Z, t1.Z)
        np.testing.assert_array_equal(other.cluster_id, t1.cluster_id)
        assert other.cluster_labels == t1.cluster_labels

    def test_string_labels_are_remapped_in_sorted_order(self):
        ds = build_dataset(T1_Y, T1_X, T1_Z, np.ones(6), np.array(["b", "b", "b", "a", "a", "a"]))
        assert ds.cluster_labels == ("a", "b")
        # rows of cluster "a" now come first
        np.testing.assert_allclose(ds.y[:3], T1_Y[3:])

    def test_nan_outcome_rejected(self):
        y = T1_Y.copy()
        y[2] = np.nan
        with pytest.raises(InputError, match="non-finite input"):
            build_dataset(y, T1_X, T1_Z, np.ones(6), T1_CLUSTER)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(cluster_id=np.ones(6)),                # single cluster
            dict(X=np.zeros((5, 1))),                   # length mismatch
            dict(Z=np.zeros((6, 0))),                   # no instruments
            dict(W=np.zeros((6, 0))),                   # no exogenous regressors
        ],
    )
    def test_invalid_inputs(self, bad):
        kw = dict(y=T1_Y, X=T1_X, Z=T1_Z, W=np.ones(6), cluster_id=T1_CLUSTER)
        kw.update(bad)
        with pytest.raises(InputError):
            build_dataset(**kw)

    def test_more_endogenous_than_instruments_rejected(self):
        with pytest.raises(InputError, match="d_z >= d_x"):
            build_dataset(T1_Y, np.column_stack([T1_X, T1_Y]), T1_Z, np.ones(6), T1_CLUSTER)

    def test_arrays_are_immutable(self, t1):
        with pytest.raises(ValueError):
            t1.y[0] = 0.0


class TestPartialling:
    def test_intercept_only_w_demeans(self, t1, t1_design):
        np.testing.assert_allclose(
            t1_design.Z_tilde.ravel(), T1_Z - T1_Z.mean(), atol=1e-14
        )

    def test_already_orthogonal_z_unchanged(self):
        rng = substream(3, "orth")
        w = np.ones(8)
        z = rng.standard_normal(8)
        z -= z.mean()  # exactly orthogonal to the intercept
        ds = build_dataset(rng.standard_normal(8), rng.standard_normal(8), z, w, np.repeat([0, 1], 4))
        design = partial_out_exogenous(ds)
        np.testing.assert_allclose(design.Z_tilde.ravel(), z, atol=1e-15)

    def test_t1_moments_match_oracle(self, t1_design):
        np.testing.assert_allclose(t1_design.Q_ZZ[0, 0], E.Q_ZZ[0], atol=1e-10)
        np.testing.assert_allclose(t1_design.Q_ZX[0, 0], E.Q_ZX[0], atol=1e-10)
        np.testing.assert_allclose(t1_design.Q_ZX_j[0, 0, 0], E.Q_ZX_1, atol=1e-10)
        np.testing.assert_allclose(t1_design.Q_ZX_j[1, 0, 0], E.Q_ZX_2, atol=1e-10)

    def test_collinear_w_rejected(self):
        w = np.column_stack([np.ones(6), np.ones(6) * 2.0])
        with pytest.raises(NumericalError, match="collinear"):
            partial_out_exogenous(build_dataset(T1_Y, T1_X, T1_Z, w, T1_CLUSTER))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_orthogonality_and_aggregation(self, seed):
        ds = random_dataset(seed, q=4, n_per=17, d_z=2, d_w=3)
        design = partial_out_exogenous(ds)
        scale = np.abs(ds.Z).max() * np.abs(ds.W).max() * ds.n
        assert np.abs(design.Z_tilde.T @ ds.W).max() <= 1e-8 * scale
        # weighted per-cluster moments aggregate exactly to the pooled ones
        weights = design.cluster_sizes / ds.n
        np.testing.assert_allclose(
            np.einsum("j,jzx->zx", weights, design.Q_ZX_j), design.Q_ZX, atol=1e-12
        )
        per_cluster = cluster_cross(design.Z_tilde, design.Z_tilde, design.cluster_starts)
        np.testing.assert_allclose(per_cluster.sum(axis=0) / ds.n, design.Q_ZZ, atol=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_within_cluster_permutation_leaves_moments_unchanged(self, seed):
        ds = random_dataset(seed, q=3, n_per=11, d_z=2)
        design = partial_out_exogenous(ds)
        rng = substream(seed, "perm")
        order = np.concatenate(
            [rng.permutation(np.arange(ds.cluster_starts[j], ds.cluster_starts[j + 1]))
             for j in range(ds.q)]
        )
        shuffled = build_dataset(
            ds.y[order], ds.X[order], ds.Z[order], ds.W[order], ds.cluster_id[order]
        )
        design2 = partial_out_exogenous(shuffled)
        np.testing.assert_allclose(design2.Q_ZX_j, design.Q_ZX_j, atol=1e-12)
        np.testing.assert_allclose(design2.Q_ZZ, design.Q_ZZ, atol=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_affine_w_span_invariance(self, seed):
        ds = random_dataset(seed, q=3, n_per=13, d_w=3)
        design = partial_out_exogenous(ds)
        rng = substream(seed, "affine")
        a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        other = build_dataset(ds.y, ds.X, ds.Z, ds.W @ a, ds.cluster_id)
        design2 = partial_out_exogenous(other)
        np.testing.assert_allclose(design2.Z_tilde, design.Z_tilde, atol=1e-10)


class TestDiagnostics:
    def test_t1_values(self, t1_design):
        diag = assumption_diagnostics(t1_design)
        np.testing.assert_allclose(diag.Q_ZW_j[0, 0, 0], E.Q_ZW_1, atol=1e-10)
        np.testing.assert_allclose(diag.Q_ZW_j[1, 0, 0], E.Q_ZW_2, atol=1e-10)
        np.testing.assert_allclose(diag.max_abs, np.abs(diag.Q_ZW_j).max(axis=(1, 2)))

    def test_fully_interacted_w_gives_exact_zeros(self):
        # W = every exogenous variable interacted with the cluster dummies
        rng = substream(11, "interact")
        n_per, q = 12, 3
        n = n_per * q
        cluster = np.repeat(np.arange(q), n_per)
        base_w = np.column_stack([np.ones(n), rng.standard_normal(n)])
        w = np.zeros((n, 2 * q))
        for j in range(q):
            rows = cluster == j
            w[rows, 2 * j : 2 * j + 2] = base_w[rows]
        ds = build_dataset(
            rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n), w, cluster
        )
        diag = assumption_diagnostics(partial_out_exogenous(ds))
        assert diag.max_abs.max() < 1e-12

    def test_max_norm_shrinks_with_cluster_size(self):
        # identical (Z, W) distributions across clusters: the per-cluster
        # cross moments vanish as n_j grows
        maxes = {}
        for n_per in (100, 400):
            rng = substream(21, "shrink", n_per)
            n = 3 * n_per
            w = np.column_stack([np.ones(n), rng.standard_normal(n)])
            z = rng.standard_normal(n) + 0.5 * w[:, 1]
            ds = build_dataset(
                rng.standard_normal(n),
                rng.standard_normal(n),
                z,
                w,
                np.repeat(np.arange(3), n_per),
            )
            maxes[n_per] = assumption_diagnostics(partial_out_exogenous(ds)).max_abs.max()
        assert maxes[400] < maxes[100]


class TestClusterFirstStage:
    def test_t1_slopes_match_oracle(self, t1):
        slopes = cluster_first_stage(t1)
        np.testing.assert_allclose(slopes[0, 0, 0], E.FS_SLOPE_1, atol=1e-10)
        np.testing.assert_allclose(slopes[1, 0, 0], E.FS_SLOPE_2, atol=1e-10)

    def test_matches_pooled_ols_on_the_cluster_sample(self, t1):
        # the per-cluster regression is plain OLS on that cluster's rows
        sl = t1.cluster_slice(0)
        regs = np.column_stack([t1.Z[sl], t1.W[sl]])
        coef = np.linalg.lstsq(regs, t1.X[sl], rcond=None)[0]
        np.testing.assert_allclose(cluster_first_stage(t1)[0], coef[:1], atol=1e-12)

    def test_dgp_strong_cluster_slope_near_truth(self):
        config = DgpConfig(q=10, d_z=1, pi0=4.0, rho=0.3)
        ds = simulate_dgp(config, substream(5, "fs-slope"))
        slopes = cluster_first_stage(ds)
        assert abs(slopes[0, 0, 0] - 4.0) < 1.0  # within 25% at n_1 = 100

    def test_intercept_and_own_dummy_give_intercept_only_slopes(self):
        # W = [1, d_2, ..., d_q]: inside cluster j > 1 the intercept and d_j
        # are one column, and inside cluster 1 the intercept stands alone
        ds = random_dataset(3, q=4, n_per=15, d_z=2, d_w=1)
        dummies = (ds.cluster_id[:, None] == np.arange(1, ds.q)).astype(float)
        w = np.column_stack([ds.W, dummies])
        with_dummies = build_dataset(ds.y, ds.X, ds.Z, w, ds.cluster_id)
        np.testing.assert_allclose(
            cluster_first_stage(with_dummies), cluster_first_stage(ds), rtol=1e-10, atol=1e-12
        )

    def test_rank_deficient_cluster_rejected(self):
        z = np.array([1.0, 1.0, 1.0, 0.5, 1.9, 1.1])  # constant inside cluster 1
        ds = build_dataset(T1_Y, T1_X, z, np.ones(6), T1_CLUSTER)
        with pytest.raises(NumericalError, match="rank-deficient within-cluster"):
            cluster_first_stage(ds)
