"""Confidence sets by grid inversion of the bootstrap tests.

Scalar-parameter only: every grid value b is tested as a null (lambda = 1,
lambda_0 = b for the Wald family; beta_0 = b for the score side), and the
accepted values are reported as a union of closed intervals. The set can be
empty or disconnected under weak identification; both are reported as-is.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import ClusteredDataset, Hypothesis, PartialledDesign, partial_out_exogenous
from .exceptions import InputError
from .inference import AUTO_EXHAUSTIVE_MAX_Q, SignSet, make_sign_set, result_or_raise
from .registry import TESTS, lookup, run_tests


@dataclass(frozen=True)
class TestSpec:
    """Which test to invert and with which estimator options."""

    __test__ = False  # not a pytest class

    test: str = "wald"
    estimator: str = "tsls"
    fuller_c: float = 1.0

    def __post_init__(self):
        lookup(self.test, TESTS)


@dataclass(frozen=True)
class ConfidenceSet:
    """Accepted grid values merged into maximal closed intervals."""

    grid: np.ndarray
    accepted: np.ndarray
    intervals: tuple
    test_kind: str
    alpha: float

    @property
    def is_empty(self) -> bool:
        return not bool(self.accepted.any())

    def to_record(self, include_distribution: bool = False) -> dict:
        return {
            "test": self.test_kind,
            "alpha": self.alpha,
            "grid_lo": float(self.grid[0]),
            "grid_hi": float(self.grid[-1]),
            "grid_points": int(self.grid.shape[0]),
            "n_accepted": int(self.accepted.sum()),
            "intervals": [[float(lo), float(hi)] for lo, hi in self.intervals],
        }


def mask_to_intervals(grid: np.ndarray, accepted: np.ndarray) -> tuple:
    """Maximal runs of accepted grid points as [lo, hi] pairs."""
    intervals = []
    start = None
    for i, ok in enumerate(accepted):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            intervals.append((float(grid[start]), float(grid[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(grid[start]), float(grid[len(accepted) - 1])))
    return tuple(intervals)


def intervals_to_mask(grid: np.ndarray, intervals) -> np.ndarray:
    mask = np.zeros(grid.shape[0], dtype=bool)
    for lo, hi in intervals:
        mask |= (grid >= lo) & (grid <= hi)
    return mask


def _grid_signs(q: int, B: int, seed, sign_mode: str, index: int) -> SignSet:
    if q <= AUTO_EXHAUSTIVE_MAX_Q:
        return make_sign_set(q, "exhaustive")
    if sign_mode == "shared":
        return make_sign_set(q, "sampled", B=B, seed=(seed, "cs-shared"))
    return make_sign_set(q, "sampled", B=B, seed=(seed, "cs", index))


def _test_one(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    spec: TestSpec,
    b: float,
    alpha: float,
    sign_set: SignSet,
) -> bool:
    """True when H0: beta = b is *not* rejected."""
    results = run_tests(
        dataset, [spec.test], Hypothesis.full_vector([b]),
        estimator=spec.estimator, fuller_c=spec.fuller_c, sign_set=sign_set, alpha=alpha,
        design=design,
    )
    return not result_or_raise(results[spec.test]).reject


def _grid_chunk(args) -> list[bool]:
    dataset, design, spec, values, indices, alpha, B, seed, sign_mode, q = args
    out = []
    for b, i in zip(values, indices):
        signs = _grid_signs(q, B, seed, sign_mode, i)
        out.append(_test_one(dataset, design, spec, float(b), alpha, signs))
    return out


def invert_confidence_set(
    dataset: ClusteredDataset,
    test_spec: TestSpec | str,
    grid_lo: float = -10.0,
    grid_hi: float = 10.0,
    step: float = 0.01,
    alpha: float = 0.1,
    B: int = 2000,
    seed: int = 0,
    sign_mode: str = "fresh",
    workers: int = 1,
    design: PartialledDesign | None = None,
) -> ConfidenceSet:
    """Collect every grid value whose null survives the level-alpha test.

    When the cluster count forces sampled sign sets, ``sign_mode`` chooses
    between a fresh draw per grid point (keyed by the grid index, the
    default) and one shared draw, which is what exact test-equivalence
    comparisons need. For small q the exhaustive set is used everywhere and
    the two modes coincide.
    """
    if isinstance(test_spec, str):
        test_spec = TestSpec(test=test_spec)
    if step <= 0.0:
        raise InputError("step must be positive")
    if grid_hi < grid_lo:
        raise InputError("empty grid (grid_hi < grid_lo)")
    if dataset.d_x != 1:
        raise InputError("grid inversion supports a single endogenous regressor")
    if sign_mode not in ("fresh", "shared"):
        raise InputError(f"unknown sign_mode {sign_mode!r}")
    if design is None:
        design = partial_out_exogenous(dataset)

    npts = int(round((grid_hi - grid_lo) / step)) + 1
    grid = np.linspace(grid_lo, grid_hi, npts)

    indices = np.arange(npts)
    if workers > 1:
        chunks = np.array_split(indices, workers * 4)
        tasks = [
            (dataset, design, test_spec, grid[c], c, alpha, B, seed, sign_mode, dataset.q)
            for c in chunks
            if c.size
        ]
        accepted = np.empty(npts, dtype=bool)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk, result in zip([t[4] for t in tasks], pool.map(_grid_chunk, tasks)):
                accepted[chunk] = result
    else:
        accepted = np.array(
            _grid_chunk(
                (dataset, design, test_spec, grid, indices, alpha, B, seed, sign_mode, dataset.q)
            )
        )

    return ConfidenceSet(
        grid=grid,
        accepted=accepted,
        intervals=mask_to_intervals(grid, accepted),
        test_kind=test_spec.test,
        alpha=alpha,
    )
