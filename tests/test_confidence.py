import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from wbiv import (
    Hypothesis, InputError, fit_method, invert_confidence_set, make_sign_set,
    partial_out_exogenous,
)
import wbiv.rng
from wbiv import confidence
from wbiv.confidence import TestSpec, mask_to_intervals
from wbiv.registry import run_test
from wbiv.simulate import DgpConfig, simulate_dgp


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

    def test_worker_count_does_not_change_the_set(self, monkeypatch):
        ds = random_dataset(17, q=4, n_per=20)
        kw = dict(grid_lo=-1.0, grid_hi=3.0, step=0.05, alpha=0.1, seed=5)
        one = invert_confidence_set(ds, "ar", workers=1, **kw)
        two = invert_confidence_set(ds, "ar", workers=2, **kw)
        np.testing.assert_array_equal(one.accepted, two.accepted)
        assert one.intervals == two.intervals
        # a pool starts at most one process per non-empty chunk: a 3-point
        # grid at 8 workers asks for 3, from an executor that records its
        # size and maps in this process
        sizes = []

        class InProcess:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, parts):
                return map(func, parts)

        monkeypatch.setattr(wbiv.rng, "ProcessPoolExecutor", InProcess)
        kw.update(grid_lo=0.0, grid_hi=1.0, step=0.5)
        few = invert_confidence_set(ds, "ar", workers=8, **kw)
        assert sizes == [3]
        assert few.accepted.tobytes() == invert_confidence_set(ds, "ar", **kw).accepted.tobytes()
        with pytest.raises(InputError, match="workers must be at least 1, got 0"):
            invert_confidence_set(ds, "ar", workers=0, **kw)

    @pytest.mark.parametrize("test, q", [
        ("ar", 6), ("ar-cr", 6), ("lm", 6), ("cqlr", 6), ("score-wald", 6), ("ar", 13),
        ("lm", 13), ("cqlr", 13),
        ("wald", 6), ("wald-cr", 6), ("wald", 13),
    ])
    def test_block_size_and_workers_do_not_change_the_set(self, monkeypatch, test, q):
        # the grid runs in blocks of nulls; each point's decision is that of
        # run_test at the point alone, with the exhaustive set or, at q = 13,
        # the fresh set keyed by its grid index
        ds = random_dataset(28, q=q, n_per=6)
        kw = dict(grid_lo=-1.0, grid_hi=2.0, step=0.125, alpha=0.1, B=19, seed=3)
        want = invert_confidence_set(ds, test, **kw)
        # keyed by the grid index as a Python int
        signs = [make_sign_set(q, "auto", B=19, seed=(3, "cs", i)) for i in range(want.grid.size)]
        alone = [
            not run_test(ds, test, Hypothesis.full_vector([b]), sign_set=s, alpha=0.1).reject
            for b, s in zip(want.grid, signs)
        ]
        np.testing.assert_array_equal(want.accepted, alone)
        assert 0 < want.accepted.sum() < want.grid.size
        rows = (2**q if q <= 12 else 19) + 1
        for per_block in (1, 7, want.grid.size):
            monkeypatch.setattr(confidence, "BLOCK_ITEMS", per_block * rows)
            got = invert_confidence_set(ds, test, **kw)
            assert got.accepted.tobytes() == want.accepted.tobytes(), per_block
        monkeypatch.undo()
        two = invert_confidence_set(ds, test, workers=2, **kw)
        assert two.accepted.tobytes() == want.accepted.tobytes()

    def test_blocks_hold_the_rows_the_pass_runs(self, monkeypatch):
        # the full-vector pass runs half of a complete set plus iota, 513 of
        # the 1025 rows at q = 10, so a 401-point ar set runs 4 blocks of at
        # most BLOCK_ITEMS // 513 = 127 nulls; the 7 blocks of half that
        # budget, which counting all 1025 rows gave, accept the same points
        config = DgpConfig(q=10, d_z=2, pi0=4.0, rho=0.5, size_scale=10)
        ds = simulate_dgp(config, np.random.default_rng(1))
        blocks = []
        run_tests = confidence.run_tests

        def counted(dataset, names, hypothesis, **options):
            blocks.append(len(hypothesis.lambda_0))
            return run_tests(dataset, names, hypothesis, **options)

        monkeypatch.setattr(confidence, "run_tests", counted)
        got = invert_confidence_set(ds, "ar", -2.0, 2.0, 0.01)
        assert blocks == [127, 127, 127, 20]
        del blocks[:]
        monkeypatch.setattr(confidence, "BLOCK_ITEMS", confidence.BLOCK_ITEMS // 2)
        want = invert_confidence_set(ds, "ar", -2.0, 2.0, 0.01)
        assert blocks == [63] * 6 + [23]
        assert 0 < got.accepted.sum() < got.grid.size
        assert got.accepted.tobytes() == want.accepted.tobytes()

    def test_shared_mode_tests_every_point_with_one_sign_set(self):
        # q = 13 forces sampled signs; shared mode reuses the (seed, "cs-shared") draw
        ds = random_dataset(28, q=13, n_per=6)
        kw = dict(grid_lo=-1.0, grid_hi=2.0, step=0.125, alpha=0.1, B=19, seed=3)
        cs = invert_confidence_set(ds, "ar", sign_mode="shared", **kw)
        signs = make_sign_set(13, "sampled", B=19, seed=(3, "cs-shared"))
        expected = [
            not run_test(ds, "ar", Hypothesis.full_vector([b]), sign_set=signs, alpha=0.1).reject
            for b in cs.grid
        ]
        np.testing.assert_array_equal(cs.accepted, expected)
        # fresh draws per point accept another set here, so the mask pins the shared set
        fresh = invert_confidence_set(ds, "ar", sign_mode="fresh", **kw)
        assert not np.array_equal(fresh.accepted, cs.accepted)

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
