"""Randomization machinery shared by every test: sign sets, order-statistic
critical values, p-values, and the common result record."""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @property
    def complete(self) -> bool:
        """Whether the set is the whole group: all 2^q vectors in exhaustive
        order, so that -g of row i is row 2^q - 1 - i."""
        return self.mode == "exhaustive" and self.size == 2**self.q

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


def sign_rows(
    sign_sets: list[SignSet], width: int | None = None, even: bool = False
) -> np.ndarray:
    """The sign rows of a block of nulls with g = iota appended last: one set
    (1, m + 1, q) when every null shares one sign set, else one per null
    (P, m + 1, q). ``width`` keeps only the first rows of each set (0: iota
    alone). For draws ``even`` in g, a block of complete sets gives only the
    last 2^(q-1) rows of each, those with g_1 = +1, which
    :func:`finish_test` decides as the whole set."""
    shared = all(signs is sign_sets[0] for signs in sign_sets)
    sets = sign_sets[:1] if shared else sign_sets
    start = sets[0].size // 2 if even and all(ss.complete for ss in sets) else 0
    signs = np.array([ss.vectors[start:width] for ss in sets])
    return np.concatenate([signs, np.ones((len(signs), 1, signs.shape[-1]))], axis=1)


def result_or_raise(result):
    """A test's result, or the failure it was recorded with raised."""
    if isinstance(result, Exception):
        raise result
    return result


def critical_value(boot_stats: np.ndarray, alpha: float) -> float | np.ndarray:
    """The k-th smallest bootstrap statistic with k = ceil(m (1 - alpha)),
    over the last axis: a float for one distribution (m,), one value per
    null for a stack (P, m).

    This is the smallest x whose empirical CDF over the sign set reaches
    1 - alpha; ties are handled by the stable order statistics themselves.
    k is computed in exact integer arithmetic on the binary value of alpha,
    num / den: the floating-point product can round m (1 - alpha) onto an
    integer it lies just above (m = 6, alpha = 0.3333333333333333 gives 4,
    not 5).
    """
    stats = np.asarray(boot_stats, dtype=np.float64)
    m = stats.shape[-1]
    if m == 0:
        raise InputError("empty bootstrap distribution")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie strictly between 0 and 1")
    num, den = float(alpha).as_integer_ratio()
    k = -(-m * (den - num) // den)  # in [1, m] for 0 < alpha < 1
    cv = np.partition(stats, k - 1, axis=-1)[..., k - 1]
    return float(cv) if cv.ndim == 0 else cv


def bootstrap_pvalue(boot_stats: np.ndarray, statistic) -> float | np.ndarray:
    """Share of bootstrap statistics at or above the sample statistic, over
    the last axis: per null for a stack (P, m) and statistics (P,). A
    distribution with every draw counted twice has the same share, c / m
    and 2c / 2m rounding to one double."""
    stats = np.asarray(boot_stats, dtype=np.float64)
    share = (stats >= np.asarray(statistic)[..., None]).sum(axis=-1) / stats.shape[-1]
    return float(share) if share.ndim == 0 else share


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
    n_clamped: int = 0
    kappa_clamped: bool = False

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
        if self.n_clamped:
            out["n_clamped"] = self.n_clamped
        if self.kappa_clamped:
            out["kappa_clamped"] = True
        if include_distribution:
            out["boot_stats"] = [float(v) for v in self.boot_stats]
        return out


def finish_test(
    test: str, draws: np.ndarray, sign_sets: list[SignSet], alpha: float,
    estimator: str | None = None, n_singular: np.ndarray | None = None,
    n_clamped: np.ndarray | None = None, kappa_clamped: np.ndarray | None = None,
) -> list[BootstrapTestResult]:
    """The result record of each null of a stack of draws (P, m + 1) whose
    last column, g = iota, is the sample statistic; ``sign_sets``,
    ``n_singular`` and ``n_clamped`` (zeros if omitted) hold each null's
    sign set, count of singular draws and count of draws whose LIML kappa
    was clamped, and ``kappa_clamped`` (False if omitted) whether the
    statistic's own LIML kappa was.

    Draws over half of a complete set, the rows :func:`sign_rows` gives
    when they are even in g, are decided as the whole set: each stands for
    itself and its draw at -g, the mirror of its row. Their counts double,
    and each null's ``boot_stats`` is the whole set's, in its order."""
    boot, stat = draws[:, :-1], draws[:, -1]
    doubled = boot.shape[1] < sign_sets[0].size
    cv = critical_value(boot, alpha)
    pvalues = bootstrap_pvalue(boot, stat)
    if doubled:  # row i of the set is -g of row 2^q - 1 - i
        boot = np.concatenate([boot[:, ::-1], boot], axis=1)
    singular, clamped = ([0] * len(stat) if k is None else (2 * k if doubled else k).tolist()
                         for k in (n_singular, n_clamped))
    own = [False] * len(stat) if kappa_clamped is None else kappa_clamped.tolist()
    return [
        BootstrapTestResult(
            test=test, statistic=s, critical_value=c, pvalue=p, reject=r, alpha=alpha,
            boot_stats=b, sign_set=ss, estimator=estimator, n_singular=k, n_clamped=kc,
            kappa_clamped=ko,
        )
        for s, c, p, r, b, ss, k, kc, ko in zip(
            stat.tolist(), cv.tolist(), pvalues.tolist(),
            (stat > cv).tolist(), boot, sign_sets, singular, clamped, own,
        )
    ]
