import numpy as np
import pytest

from wbiv import InputError, cluster_first_stage, run_size_experiment, simulate_dgp
from wbiv.rng import substream
from wbiv.simulate import DgpConfig, _replicate, default_power_grid, run_power_experiment


class TestDgpConfig:
    def test_q10_sizes_fixed(self):
        config = DgpConfig(q=10)
        assert config.cluster_sizes == (100, 40, 40, 30, 30, 30, 20, 20, 10, 10)
        # the design's stated sizes; their sum is what n actually is
        assert config.n == 330

    def test_q14_appends_four_clusters(self):
        config = DgpConfig(q=14)
        assert config.cluster_sizes[10:] == (20, 20, 10, 10)
        assert config.n == 330 + 60

    def test_pi_pattern(self):
        np.testing.assert_allclose(
            DgpConfig(q=10, pi0=4.0).pi_by_cluster,
            4.0 * np.array([1, 0.4, 0.4, 0.3, 0.3, 0.3, -0.2, -0.2, -0.1, -0.1]),
        )
        np.testing.assert_allclose(
            DgpConfig(q=14, pi0=2.0).pi_by_cluster[10:],
            2.0 * np.array([0.2, 0.2, 0.1, 0.1]),
        )

    def test_strong_cluster_promotion(self):
        pis = DgpConfig(q=10, pi0=6.0, strong_clusters=3).pi_by_cluster
        np.testing.assert_allclose(pis[:3], [6.0, 6.0, 6.0])
        assert pis[3] == pytest.approx(1.8)
        pis6 = DgpConfig(q=10, pi0=6.0, strong_clusters=6).pi_by_cluster
        np.testing.assert_allclose(pis6[:6], 6.0)

    def test_invalid_configs(self):
        with pytest.raises(InputError):
            DgpConfig(q=12)
        with pytest.raises(InputError):
            DgpConfig(strong_clusters=2)
        with pytest.raises(InputError):
            DgpConfig(rho=1.0)


class TestSimulateDgp:
    def test_shapes_and_w_dummies(self):
        config = DgpConfig(q=10, d_z=3)
        ds = simulate_dgp(config, substream(0, "shape"))
        assert ds.n == config.n
        assert ds.d_z == 3 and ds.d_w == 10 and ds.d_x == 1
        np.testing.assert_array_equal(ds.W.sum(axis=1), np.ones(ds.n))
        assert tuple(ds.cluster_sizes) == config.cluster_sizes

    def test_deterministic_given_stream(self):
        config = DgpConfig(q=10, rho=0.5)
        a = simulate_dgp(config, substream(0, "det"))
        b = simulate_dgp(config, substream(0, "det"))
        np.testing.assert_array_equal(a.y, b.y)
        c = simulate_dgp(config, substream(1, "det"))
        assert not np.array_equal(a.y, c.y)

    def test_instrument_covariance_pattern(self):
        # graded diag(1..d_z) scaling in cluster 1, identity scaling in
        # cluster 9 (scale 0.5)
        config = DgpConfig(q=10, d_z=2, size_scale=40)
        ds = simulate_dgp(config, substream(3, "cov"))
        z1 = ds.Z[ds.cluster_slice(0)]
        v1 = z1.var(axis=0)
        assert v1[0] == pytest.approx(2.5, rel=0.15)
        assert v1[1] == pytest.approx(5.0, rel=0.15)
        z9 = ds.Z[ds.cluster_slice(8)]
        np.testing.assert_allclose(z9.var(axis=0), [0.5, 0.5], rtol=0.25)

    def test_shock_correlation_matches_rho(self):
        # regenerate the structural and first-stage shocks implicitly via the
        # model residuals: corr(eps, v) should be near rho
        rho = 0.6
        config = DgpConfig(q=10, d_z=1, pi0=4.0, rho=rho, size_scale=30)
        ds = simulate_dgp(config, substream(9, "rho"))
        # within cluster 1: eps*sig = y - gamma - x*beta, v*sig = x - gamma - z*pi
        sl = ds.cluster_slice(0)
        e = ds.y[sl] - 1.0 - ds.X[sl, 0] * 0.0
        v = ds.X[sl, 0] - 1.0 - ds.Z[sl, 0] * 4.0
        r = np.corrcoef(e, v)[0, 1]
        assert r == pytest.approx(rho, abs=0.1)

    def test_rho_zero_gives_uncorrelated_shocks(self):
        config = DgpConfig(q=10, d_z=1, pi0=4.0, rho=0.0, size_scale=30)
        ds = simulate_dgp(config, substream(10, "rho0"))
        sl = ds.cluster_slice(0)
        e = ds.y[sl] - 1.0
        v = ds.X[sl, 0] - 1.0 - ds.Z[sl, 0] * 4.0
        assert abs(np.corrcoef(e, v)[0, 1]) < 0.05

    def test_no_signal_when_pi_zero(self):
        config = DgpConfig(q=10, d_z=1, pi0=0.0, size_scale=4)
        ds = simulate_dgp(config, substream(12, "nosig"))
        slopes = cluster_first_stage(ds)[:, 0, 0]
        assert np.abs(np.mean(slopes)) < 0.5

    def test_normal_generator_moments(self):
        draws = substream(0, "normcheck").standard_normal(10**6)
        se_mean = 1.0 / np.sqrt(10**6)
        assert abs(draws.mean()) < 4 * se_mean
        se_var = np.sqrt(2.0 / 10**6)
        assert abs(draws.var() - 1.0) < 4 * se_var


class TestExperiments:
    def test_replication_keys_and_determinism(self):
        config = DgpConfig(q=10, d_z=1, pi0=6.0, rho=0.2)
        tests = [("WB-US", "tsls"), ("WB-S", "tsls"), ("WB-AR-US", "-")]
        a = _replicate(config, tests, 0, "cell", 7, 99, 0.1)
        b = _replicate(config, tests, 0, "cell", 7, 99, 0.1)
        assert a == b
        assert set(a) == {"WB-US:tsls", "WB-S:tsls", "WB-AR-US:-"}

    def test_size_experiment_table(self):
        table = run_size_experiment(
            [DgpConfig(q=10, d_z=1, pi0=6.0, rho=0.0)],
            ["WB-US:tsls"],
            mc_reps=100,
            boot_reps=49,
            seed=0,
        )
        assert table.kind == "size"
        row = table.rows[0]
        assert row.test == "WB-US" and row.estimator == "tsls"
        assert 0.0 <= row.reject_rate <= 1.0
        assert row.mc_std_err == pytest.approx(
            np.sqrt(row.reject_rate * (1 - row.reject_rate) / row.mc_reps)
        )

    def test_worker_count_does_not_change_rates(self):
        configs = [DgpConfig(q=10, d_z=1, pi0=4.0, rho=0.5)]
        kw = dict(tests=["WB-US:tsls"], mc_reps=100, boot_reps=29, seed=3)
        one = run_size_experiment(configs, workers=1, **kw)
        two = run_size_experiment(configs, workers=2, **kw)
        assert one == two

    def test_power_table_has_beta_column(self):
        table = run_power_experiment(
            [DgpConfig(q=10, d_z=1, pi0=6.0, rho=0.2)],
            ["WB-US:tsls"],
            beta_grid=[-0.2, 0.0, 0.2],
            mc_reps=100,
            boot_reps=29,
            seed=1,
        )
        assert table.kind == "power"
        assert [row.beta for row in table.rows] == [-0.2, 0.0, 0.2]

    def test_power_at_zero_matches_size_run(self):
        config = DgpConfig(q=10, d_z=1, pi0=6.0, rho=0.2)
        size = run_size_experiment([config], ["WB-US:tsls"], mc_reps=100, boot_reps=29, seed=2)
        power = run_power_experiment(
            [config], ["WB-US:tsls"], beta_grid=[0.0], mc_reps=100, boot_reps=29, seed=2
        )
        assert size.rows[0].reject_rate == power.rows[0].reject_rate

    def test_default_power_grid_scales_with_pi0(self):
        grid = default_power_grid(4.0)
        assert len(grid) == 41
        assert grid[0] == pytest.approx(-0.05 / 4.0)

    def test_alpha_outside_unit_interval_rejected(self):
        with pytest.raises(InputError, match="alpha"):
            run_size_experiment([DgpConfig()], ["WB-AR-US"], mc_reps=100, alpha=1.5)

    def test_too_few_reps_rejected(self):
        with pytest.raises(InputError):
            run_size_experiment([DgpConfig()], ["WB-US:tsls"], mc_reps=50)
