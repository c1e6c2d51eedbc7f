"""Full-vector Anderson-Rubin statistics and their sign-flip bootstrap.

The null-imposed scores are f_ij(b) = Zt_ij (e_y - e_X b)_ij, with e_y and
e_X the residuals of y and X on W, so the cluster score sums are affine in
the null: s_j(b) = a_j - C_j b (:func:`null_scores`). Both weightings are
invariant to cluster sign flips, so the bootstrap flips only those sums:
f*(g, b) = F_a(g) - F_C(g) b, with the signed means F of a and C formed once
per block of nulls (:func:`signed_means`, :func:`at_nulls`). The tests run in
:func:`weakiv.full_vector_tests`; :func:`ar_statistics` (g = iota) and
:func:`ar_bootstrap_distribution` are its rows for one null on their own,
bitwise the same by the draw-stack rule of :mod:`data`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cce import cluster_score_sums
from .data import PartialledDesign, stack_solve
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

    ar_n: float
    ar_cr_n: float | None
    A_cr: np.ndarray | None
    score_pieces: np.ndarray  # (q, d_z, 1 + d_x) per-cluster sums of Zt [e_y : e_X]
    beta_0: np.ndarray

    @property
    def ar_cr_sq(self) -> float | None:
        return None if self.ar_cr_n is None else self.ar_cr_n**2


def ar_squares(f: np.ndarray, n: int, weight: np.ndarray | None = None) -> np.ndarray:
    """n f' A f for every row of the mean scores ``f`` (..., m, d_z), A the
    weighting (..., d_z, d_z) of its null, or I when None: the squared AR norms."""
    quad = np.einsum("...mv,...mv->...m", f, f) if weight is None else sum(
        np.einsum("...mz,...z->...m", f, weight[..., v]) * f[..., v] for v in range(f.shape[-1]))
    return n * np.maximum(quad, 0.0)


def signed_means(score_sums: np.ndarray, signs: np.ndarray, n: int) -> np.ndarray:
    """sum_j g_j x_j / n for every sign row g, of per-cluster sums x (q, ...)
    such as the score sums or their affine pieces. ``signs`` is one set of
    rows (m, q), or one set per null (P or 1, m, q)."""
    x = np.ascontiguousarray(score_sums.reshape(score_sums.shape[0], -1).T)
    out = np.einsum("...mj,kj->...mk", signs, x) / n
    return out.reshape(signs.shape[:-1] + score_sums.shape[1:])


def at_nulls(pieces: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """x_0 - sum_k x_k b_k at each null b, a row of ``beta`` (P, d_x), of an
    affine function of b held as its pieces (..., 1 + d_x) over two data
    axes, with or without a leading null axis: shape (P, ., .). The sum
    accumulates in place, into the one array of that shape it returns."""
    out = pieces[..., 1] * beta[:, None, None, 0]
    for k in range(1, beta.shape[1]):
        out += pieces[..., k + 1] * beta[:, None, None, k]
    return np.subtract(pieces[..., 0], out, out=out)


def null_scores(design: PartialledDesign, restricted_ols: RestrictedOlsFit):
    """The pieces a : C (q, d_z, 1 + d_x), cluster sums of Zt [e_y : e_X]; the
    score sums s(b) = a - C b (P, q, d_z) at each null b of the fit; and the
    inverse null-imposed CCE (s's / n)^{-1} of each null, I where singular, with ok flags."""
    pieces = cluster_score_sums(design, np.column_stack([restricted_ols.e_y, restricted_ols.e_X]))
    s = at_nulls(pieces, np.atleast_2d(restricted_ols.beta_0))
    a_cr, ok = stack_solve(np.moveaxis(np.einsum("...jz,...jy->...zy", s, s) / design.n, 0, -1))
    a_cr = np.moveaxis(np.where(ok, a_cr, np.eye(design.d_z)[..., None]), -1, 0)
    return pieces, s, np.ascontiguousarray(a_cr), ok


def ar_statistics(design: PartialledDesign, restricted_ols: RestrictedOlsFit) -> ArStatistics:
    """Compute AR_n and, when the null CCE is invertible, AR_CR_n at the fit's
    one null: the g = iota row alone."""
    pieces, _, a_cr, ok = null_scores(design, restricted_ols)
    beta = np.atleast_2d(restricted_ols.beta_0)
    f = at_nulls(signed_means(pieces, np.ones((1, design.q)), design.n), beta)
    ar_n = float(np.sqrt(ar_squares(f, design.n))[0, 0])
    ar_cr_n = float(np.sqrt(ar_squares(f, design.n, a_cr))[0, 0]) if ok[0] else None
    return ArStatistics(ar_n=ar_n, ar_cr_n=ar_cr_n, A_cr=a_cr[0] if ok[0] else None,
                        score_pieces=pieces, beta_0=beta[0])


def ar_bootstrap_distribution(
    stats: ArStatistics,
    signs: np.ndarray,
    n: int,
    studentize: bool,
) -> np.ndarray:
    """AR*(g) over the sign set; the weighting stays at its sample value."""
    f = at_nulls(signed_means(stats.score_pieces, np.asarray(signs, dtype=np.float64), n),
                 stats.beta_0[None])
    return np.sqrt(ar_squares(f, n, stats.A_cr[None] if studentize else None))[0]


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
