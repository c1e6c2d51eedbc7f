import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from wbiv import InputError, fit_method, invert_confidence_set, partial_out_exogenous
from wbiv.confidence import TestSpec, mask_to_intervals


def intervals_to_mask(grid: np.ndarray, intervals) -> np.ndarray:
    mask = np.zeros(grid.shape[0], dtype=bool)
    for lo, hi in intervals:
        mask |= (grid >= lo) & (grid <= hi)
    return mask


class TestIntervals:
    def test_basic_merge(self):
        grid = np.arange(6, dtype=float)
        accepted = np.array([1, 1, 0, 1, 0, 1], dtype=bool)
        assert mask_to_intervals(grid, accepted) == ((0.0, 1.0), (3.0, 3.0), (5.0, 5.0))

    @given(mask=st.lists(st.booleans(), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_mask_interval_round_trip(self, mask):
        mask = np.array(mask, dtype=bool)
        grid = np.arange(len(mask), dtype=float)
        intervals = mask_to_intervals(grid, mask)
        np.testing.assert_array_equal(intervals_to_mask(grid, intervals), mask)
        # intervals are disjoint and sorted
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi < lo


class TestInversion:
    def test_grid_arithmetic(self):
        ds = random_dataset(1, q=3, n_per=10)
        cs = invert_confidence_set(ds, "ar", grid_lo=-10, grid_hi=10, step=0.01, B=8)
        assert cs.grid.shape == (2001,)

    def test_strong_id_set_contains_estimate(self):
        ds = random_dataset(11, q=5, n_per=40, rho=0.3, pi_scale=2.0)
        design = partial_out_exogenous(ds)
        beta_hat = fit_method(ds, design, "tsls").beta_hat[0]
        cs = invert_confidence_set(
            ds, "ar", grid_lo=beta_hat - 2, grid_hi=beta_hat + 2, step=0.02, alpha=0.1
        )
        assert not cs.is_empty
        nearest = cs.grid[np.argmin(np.abs(cs.grid - beta_hat))]
        assert any(lo <= nearest <= hi for lo, hi in cs.intervals)

    def test_raising_alpha_never_enlarges_the_set(self):
        ds = random_dataset(13, q=5, n_per=25, pi_scale=1.5)
        design = partial_out_exogenous(ds)
        masks = {}
        for alpha in (0.05, 0.10, 0.20):
            cs = invert_confidence_set(
                ds, "wald", grid_lo=-2.0, grid_hi=4.0, step=0.1, alpha=alpha, design=design
            )
            masks[alpha] = cs.accepted
        assert np.all(masks[0.10] <= masks[0.05])
        assert np.all(masks[0.20] <= masks[0.10])

    def test_worker_count_does_not_change_the_set(self):
        ds = random_dataset(17, q=4, n_per=20)
        kw = dict(grid_lo=-1.0, grid_hi=3.0, step=0.05, alpha=0.1, seed=5)
        one = invert_confidence_set(ds, "ar", workers=1, **kw)
        two = invert_confidence_set(ds, "ar", workers=2, **kw)
        np.testing.assert_array_equal(one.accepted, two.accepted)
        assert one.intervals == two.intervals

    def test_rejects_bad_options(self):
        ds = random_dataset(1, q=3, n_per=10)
        with pytest.raises(InputError):
            invert_confidence_set(ds, "ar", step=0.0)
        with pytest.raises(InputError):
            TestSpec(test="nope")
        ds2 = random_dataset(1, q=3, n_per=12, d_x=2, d_z=2)
        with pytest.raises(InputError, match="single endogenous"):
            invert_confidence_set(ds2, "ar", grid_lo=0, grid_hi=1, step=0.5)

    def test_empty_set_is_reported_not_raised(self):
        # an absurd grid far from the estimate: every point rejected
        ds = random_dataset(19, q=6, n_per=60, rho=0.2, pi_scale=3.0)
        cs = invert_confidence_set(
            ds, "wald", grid_lo=50.0, grid_hi=51.0, step=0.25, alpha=0.2
        )
        assert cs.is_empty
        assert cs.intervals == ()
        assert cs.to_record()["intervals"] == []
