"""Randomization machinery shared by every test: sign sets, order-statistic
critical values, p-values, and the common result record."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .data import ClusteredDataset, PartialledDesign, partial_out_exogenous
from .exceptions import InputError
from .rng import substream

# Exhaustive enumeration is the default up to 2^q = 4096 sign vectors.
AUTO_EXHAUSTIVE_MAX_Q = 12
EXHAUSTIVE_HARD_MAX_Q = 20
DEFAULT_B = 499


@dataclass(frozen=True)
class SignSet:
    """A realized set of cluster sign vectors g in {-1,+1}^q.

    Exhaustive mode enumerates all 2^q vectors in lexicographic order with
    -1 ordered before +1; sampled mode draws B vectors i.i.d. uniformly (with
    replacement, the all-ones vector is not forced in).
    """

    mode: str
    q: int
    vectors: np.ndarray  # (m, q), values in {-1.0, +1.0}
    seed: int | tuple | None = None
    B: int | None = None

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def descriptor(self) -> dict:
        out = {"mode": self.mode, "q": self.q, "size": self.size}
        if self.mode == "sampled":
            out["seed"] = self.seed
            out["B"] = self.B
        return out


def exhaustive_signs(q: int) -> np.ndarray:
    idx = np.arange(2**q, dtype=np.int64)
    bits = (idx[:, None] >> (q - 1 - np.arange(q))) & 1
    return bits * 2.0 - 1.0


def make_sign_set(q: int, policy: str = "auto", B: int = DEFAULT_B, seed=0) -> SignSet:
    """Build the sign set for q clusters under the given policy.

    policy "auto" enumerates exhaustively while 2^q <= 4096 and samples B
    vectors otherwise; "exhaustive" and "sampled" force the mode.
    """
    if q < 1:
        raise InputError("need q >= 1 for a sign set")
    if policy not in ("auto", "exhaustive", "sampled"):
        raise InputError(f"unknown sign-set policy {policy!r}")
    if policy == "auto":
        policy = "exhaustive" if q <= AUTO_EXHAUSTIVE_MAX_Q else "sampled"
    if policy == "exhaustive":
        if q > EXHAUSTIVE_HARD_MAX_Q:
            raise InputError(f"sign set too large (2^{q} vectors); use sampled mode")
        vectors = exhaustive_signs(q)
        return SignSet(mode="exhaustive", q=q, vectors=vectors)
    if B < 1:
        raise InputError("sampled sign set needs B >= 1")
    rng = substream(seed, "signset", q, B)
    vectors = rng.integers(0, 2, size=(B, q)) * 2.0 - 1.0
    return SignSet(mode="sampled", q=q, vectors=vectors, seed=seed, B=B)


def prepare_test(
    dataset: ClusteredDataset,
    sign_set: SignSet | None,
    design: PartialledDesign | None,
    alpha: float = 0.1,
) -> tuple[SignSet, PartialledDesign]:
    """Check alpha and the sign set, and fill in the inputs every test shares.

    A missing sign set is the auto-policy set for the dataset's clusters, a
    missing design the dataset's partialled design.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie strictly between 0 and 1")
    if design is None:
        design = partial_out_exogenous(dataset)
    if sign_set is None:
        sign_set = make_sign_set(dataset.q)
    if sign_set.q != dataset.q:
        raise InputError("sign set was built for a different number of clusters")
    return sign_set, design


def result_or_raise(result):
    """A test's result, or the failure it was recorded with raised."""
    if isinstance(result, Exception):
        raise result
    return result


def critical_value(boot_stats: np.ndarray, alpha: float) -> float:
    """The k-th smallest bootstrap statistic with k = ceil(m (1 - alpha)).

    This is the smallest x whose empirical CDF over the sign set reaches
    1 - alpha; ties are handled by the stable order statistics themselves.
    k is computed in exact rational arithmetic on the binary value of alpha:
    the floating-point product can round m (1 - alpha) onto an integer it
    lies just above (m = 6, alpha = 0.3333333333333333 gives 4, not 5).
    """
    stats = np.asarray(boot_stats, dtype=np.float64).ravel()
    m = stats.shape[0]
    if m == 0:
        raise InputError("empty bootstrap distribution")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie strictly between 0 and 1")
    k = math.ceil(m * (1 - Fraction(float(alpha))))
    k = min(max(k, 1), m)
    return float(np.partition(stats, k - 1)[k - 1])


def bootstrap_pvalue(boot_stats: np.ndarray, statistic: float) -> float:
    """Share of bootstrap statistics at or above the sample statistic."""
    stats = np.asarray(boot_stats, dtype=np.float64).ravel()
    return float(np.count_nonzero(stats >= statistic) / stats.size)


@dataclass(frozen=True)
class BootstrapTestResult:
    """Outcome of a sign-flip bootstrap test.

    The decision is taken from the critical-value comparison (strict
    exceedance); the p-value is reported alongside but ties can make the two
    disagree, in which case the critical-value rule is authoritative.
    """

    test: str
    statistic: float
    critical_value: float
    pvalue: float
    reject: bool
    alpha: float
    boot_stats: np.ndarray = field(repr=False)
    sign_set: SignSet = field(repr=False)
    estimator: str | None = None
    n_singular: int = 0

    def to_record(self, include_distribution: bool = False) -> dict:
        out = {
            "test": self.test,
            "estimator": self.estimator,
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "pvalue": self.pvalue,
            "reject": bool(self.reject),
            "alpha": self.alpha,
            "signset": self.sign_set.descriptor(),
        }
        if self.n_singular:
            out["n_singular"] = self.n_singular
        if include_distribution:
            out["boot_stats"] = [float(v) for v in self.boot_stats]
        return out


def finish_test(
    test: str,
    statistic: float,
    boot_stats: np.ndarray,
    sign_set: SignSet,
    alpha: float,
    estimator: str | None = None,
    n_singular: int = 0,
) -> BootstrapTestResult:
    """Assemble the result record from a computed bootstrap distribution."""
    cv = critical_value(boot_stats, alpha)
    return BootstrapTestResult(
        test=test,
        statistic=float(statistic),
        critical_value=cv,
        pvalue=bootstrap_pvalue(boot_stats, statistic),
        reject=bool(statistic > cv),
        alpha=alpha,
        boot_stats=np.asarray(boot_stats, dtype=np.float64),
        sign_set=sign_set,
        estimator=estimator,
        n_singular=n_singular,
    )
