"""Full-vector Anderson-Rubin statistics and their sign-flip bootstrap.

The null-imposed scores are f_ij = Zt_ij * eps_bar_ij with eps_bar the
residual from restricted OLS of (y - X beta_0) on W. Both weightings are
invariant to the cluster sign flips, so the bootstrap only flips the
per-cluster score sums s_j into the signed means f*(g) of
:func:`signed_means`. The tests run in :func:`weakiv.full_vector_tests`;
:func:`ar_statistics` (g = iota) and :func:`ar_bootstrap_distribution` are
its rows on their own, bitwise the same by the draw-stack rule of :mod:`data`.

The score-form Wald test of lambda beta = lambda_0 (d_x = d_z = 1) is the
unstudentized AR test at beta_0 = lambda_0 / lambda with its statistic,
critical value and draws scaled by the positive constant |lambda / Q_ZX|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cce import cluster_score_sums
from .data import ClusteredDataset, Hypothesis, PartialledDesign, stack_solve
from .exceptions import InputError
from .kclass import RestrictedOlsFit


@dataclass(frozen=True)
class ArStatistics:
    """AR statistics in norm form: AR = || sqrt(n) f_hat ||_A.

    ``ar_n`` is unweighted (A = I). ``ar_cr_n`` uses the inverse of the
    null-imposed CCE as the weighting and is None when that matrix is
    numerically singular (q < d_z, or degenerate scores). Squared values
    are what the chi-squared comparison and the conditional
    likelihood-ratio combination consume.
    """

    f_hat: np.ndarray
    ar_n: float
    ar_cr_n: float | None
    A_cr: np.ndarray | None
    score_sums: np.ndarray  # (q, d_z) per-cluster sums of f_ij

    @property
    def ar_cr_sq(self) -> float | None:
        return None if self.ar_cr_n is None else self.ar_cr_n**2


def ar_squares(f: np.ndarray, n: int, weight: np.ndarray) -> np.ndarray:
    """n f' A f for every row of the mean scores ``f``: the squared AR
    statistics that the LM side's CQLR combination also reads."""
    return n * np.maximum(np.einsum("mv,mv->m", np.einsum("mz,zv->mv", f, weight), f), 0.0)


def signed_means(score_sums: np.ndarray, signs: np.ndarray, n: int) -> np.ndarray:
    """The signed score means f*(g) = sum_j g_j s_j / n, one row per sign
    row g: the stack every full-vector statistic reads."""
    return np.einsum("mj,jz->mz", signs, score_sums) / n


def null_scores(
    design: PartialledDesign, restricted_ols: RestrictedOlsFit
) -> tuple[np.ndarray, np.ndarray | None]:
    """The per-cluster score sums s (q, d_z) and the inverse of the
    null-imposed CCE s's / n, None when that matrix is singular."""
    s = cluster_score_sums(design, restricted_ols.resid)
    a_cr, ok = stack_solve((s.T @ s / design.n)[None])
    return s, (a_cr[0] if ok[0] else None)


def ar_statistics(design: PartialledDesign, restricted_ols: RestrictedOlsFit) -> ArStatistics:
    """Compute AR_n and, when the null CCE is invertible, AR_CR_n: the
    g = iota row alone."""
    s, a_cr = null_scores(design, restricted_ols)
    f = signed_means(s, np.ones((1, design.q)), design.n)
    ar_n, ar_cr_n = (
        None if w is None else float(np.sqrt(ar_squares(f, design.n, w))[0])
        for w in (np.eye(design.d_z), a_cr)
    )
    return ArStatistics(f_hat=f[0], ar_n=ar_n, ar_cr_n=ar_cr_n, A_cr=a_cr, score_sums=s)


def ar_bootstrap_distribution(
    stats: ArStatistics,
    signs: np.ndarray,
    n: int,
    studentize: bool,
) -> np.ndarray:
    """AR*(g) over the sign set; the weighting stays at its sample value."""
    weight = stats.A_cr if studentize else np.eye(stats.f_hat.shape[0])
    f = signed_means(stats.score_sums, np.asarray(signs, dtype=np.float64), n)
    return np.sqrt(ar_squares(f, n, weight))


@dataclass(frozen=True)
class AsymptoticArResult:
    """Chi-squared comparison for the CCE-weighted AR statistic."""

    statistic_sq: float
    critical_value: float
    reject: bool
    alpha: float
    df: int

    def to_record(self, include_distribution: bool = False) -> dict:
        return {
            "test": "ar-cr-asymptotic",
            "statistic_sq": self.statistic_sq,
            "critical_value": self.critical_value,
            "reject": bool(self.reject),
            "alpha": self.alpha,
            "df": self.df,
        }


def chi2_quantile(p: float, df: int) -> float:
    """Quantile of the chi-squared distribution.

    scipy.stats is imported on first use, not with the module: it is the
    slowest import of the package, and only ar-cr-asymptotic needs it.
    """
    import scipy.stats

    return float(scipy.stats.chi2.ppf(p, df))


def score_wald_null(dataset: ClusteredDataset, hypothesis: Hypothesis) -> np.ndarray:
    """The full-vector null beta_0 = lambda_0 / lambda of score-wald's
    restriction lambda beta = lambda_0, exactly lambda_0 at lambda = 1. An
    InputError unless d_x = d_z = 1."""
    if dataset.d_x != 1 or dataset.d_z != 1:
        raise InputError("score bootstrap requires d_x = d_z = 1")
    return hypothesis.lambda_0 / hypothesis.lambda_beta[0]
