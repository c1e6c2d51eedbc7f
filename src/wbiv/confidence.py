"""Confidence sets by grid inversion of the bootstrap tests.

Scalar-parameter only: every grid value b is tested as a null (lambda = 1,
lambda_0 = b for the Wald family; beta_0 = b for the score side), and the
accepted values are reported as a union of closed intervals. The set can be
empty or disconnected under weak identification; both are reported as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import (
    ClusteredDataset, Hypothesis, PartialledDesign, check_finite, partial_out_exogenous
)
from .exceptions import InputError
from .inference import AUTO_EXHAUSTIVE_MAX_Q, make_sign_set, result_or_raise, sign_rows
from .registry import TESTS, lookup, run_tests
from .rng import map_chunks

# A grid point costs tens of microseconds in a stacked full-vector pass and
# milliseconds in a WREC run; more than a million points is a typo in --step
# or the bounds, refused before linspace allocates its array.
MAX_GRID_POINTS = 1_000_000
# Grid points run in blocks of at most this many stack items (nulls times
# the sign rows a pass runs, iota included), which bounds a pass's memory.
BLOCK_ITEMS = 1 << 16


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
    edges = np.flatnonzero(np.diff(np.concatenate([[False], accepted, [False]])))
    return tuple((float(grid[lo]), float(grid[hi - 1])) for lo, hi in edges.reshape(-1, 2))


def _grid_chunk(dataset, design, spec, grid, alpha, shared, B, seed, indices) -> list[bool]:
    """Whether H0: beta = b survives at the grid points b of ``indices``, run
    in blocks of at most BLOCK_ITEMS stack items, each point tested with the
    ``shared`` sign set or, without one, a fresh draw keyed by its grid index;
    the full-vector pass runs half of a complete set, its draws even in g."""
    even = TESTS[spec.test] == "full-vector"
    rows = sign_rows([shared], even=even).shape[1] if shared else B + 1
    size = max(1, BLOCK_ITEMS // rows)
    out = []
    for block in (indices[start : start + size] for start in range(0, len(indices), size)):
        signs = shared or [make_sign_set(dataset.q, "sampled", B=B, seed=(seed, "cs", int(i)))
                           for i in block]
        results = run_tests(dataset, [spec.test], Hypothesis.full_vector(grid[block, None]),
                            estimator=spec.estimator, fuller_c=spec.fuller_c, sign_set=signs,
                            alpha=alpha, design=design)
        out += [not result_or_raise(res[spec.test]).reject for res in results]
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
    the two modes coincide. A shared or exhaustive set is built once.
    """
    if isinstance(test_spec, str):
        test_spec = TestSpec(test=test_spec)
    check_finite(grid_lo=grid_lo, grid_hi=grid_hi, step=step)
    if step <= 0.0:
        raise InputError("step must be positive")
    if grid_hi < grid_lo:
        raise InputError("empty grid (grid_hi < grid_lo)")
    if dataset.d_x != 1:
        raise InputError("grid inversion supports a single endogenous regressor")
    if sign_mode not in ("fresh", "shared"):
        raise InputError(f"unknown sign_mode {sign_mode!r}")
    steps = (grid_hi - grid_lo) / step
    if steps > MAX_GRID_POINTS - 1:  # an infinite count too
        raise InputError(f"grid of more than {MAX_GRID_POINTS} points; raise step or narrow it")
    if design is None:
        design = partial_out_exogenous(dataset)

    npts = int(round(steps)) + 1
    grid = np.linspace(grid_lo, grid_hi, npts)

    shared = None
    if sign_mode == "shared" or dataset.q <= AUTO_EXHAUSTIVE_MAX_Q:
        shared = make_sign_set(dataset.q, "auto", B=B, seed=(seed, "cs-shared"))
    chunk = partial(_grid_chunk, dataset, design, test_spec, grid, alpha, shared, B, seed)
    accepted = np.array(map_chunks(chunk, np.arange(npts), workers), dtype=bool)
    return ConfidenceSet(
        grid=grid,
        accepted=accepted,
        intervals=mask_to_intervals(grid, accepted),
        test_kind=test_spec.test,
        alpha=alpha,
    )
