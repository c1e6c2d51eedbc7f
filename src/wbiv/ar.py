"""Full-vector Anderson-Rubin tests and their sign-flip bootstrap.

The null-imposed scores are f_ij = Zt_ij * eps_bar_ij with eps_bar the
residual from restricted OLS of (y - X beta_0) on W. Both weightings are
invariant to the cluster sign flips, so the bootstrap only flips the
per-cluster score sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.stats

from .cce import _inv_psd, cluster_score_sums
from .data import ClusteredDataset, PartialledDesign
from .exceptions import InputError, NumericalError
from .inference import BootstrapTestResult, SignSet, finish_test, prepare_test, result_or_raise
from .kclass import RestrictedOlsFit, restricted_ols_fit


@dataclass(frozen=True)
class ArStatistics:
    """AR statistics in norm form: AR = || sqrt(n) f_hat ||_A.

    ``ar_cr_n`` uses the inverse of the null-imposed CCE as the weighting and
    is None when that matrix is numerically singular (q < d_z, or degenerate
    scores). Squared values are what the chi-squared comparison and the
    conditional likelihood-ratio combination consume.
    """

    f_hat: np.ndarray
    ar_n: float
    ar_cr_n: float | None
    A_z: np.ndarray
    A_cr: np.ndarray | None
    score_sums: np.ndarray  # (q, d_z) per-cluster sums of f_ij

    @property
    def ar_cr_sq(self) -> float | None:
        return None if self.ar_cr_n is None else self.ar_cr_n**2


def signed_score_sums(signs: np.ndarray, score_sums: np.ndarray) -> np.ndarray:
    """sum_j g_j s_j for every sign row, accumulated in fixed cluster order.

    Elementwise accumulation (never a matmul) so rows with identical signs
    produce bitwise-identical sums; the all-ones row therefore reproduces the
    sample value exactly, which is what makes ties between a statistic and
    its own bootstrap draw resolve consistently.
    """
    out = np.zeros((signs.shape[0], score_sums.shape[1]))
    for j in range(score_sums.shape[0]):
        out += signs[:, j : j + 1] * score_sums[j]
    return out


def _row_quadratic(f: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Row-wise f' A f with a fixed accumulation order (same bitwise caveat)."""
    d = weight.shape[0]
    out = np.zeros(f.shape[0])
    for z in range(d):
        for v in range(d):
            out += f[:, z] * weight[z, v] * f[:, v]
    return out


def _ar_norms(score_sums: np.ndarray, signs: np.ndarray, n: int, weight: np.ndarray) -> np.ndarray:
    f = signed_score_sums(signs, score_sums) / n
    return np.sqrt(n * np.maximum(_row_quadratic(f, weight), 0.0))


def check_weighting(weight: np.ndarray | None, d: int) -> np.ndarray:
    """A d x d symmetric positive definite weighting matrix; identity when None."""
    if weight is None:
        return np.eye(d)
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != (d, d):
        raise InputError(f"weighting matrix must be {d}x{d}")
    if not np.allclose(weight, weight.T, atol=1e-12):
        raise InputError("weighting matrix must be symmetric")
    if np.linalg.eigvalsh(weight)[0] <= 0.0:
        raise InputError("weighting matrix must be positive definite")
    return weight


def ar_statistics(
    design: PartialledDesign,
    restricted_ols: RestrictedOlsFit,
    A_z: np.ndarray | None = None,
) -> ArStatistics:
    """Compute AR_n and, when the null CCE is invertible, AR_CR_n."""
    a_z = check_weighting(A_z, design.d_z)
    s = cluster_score_sums(design, restricted_ols.resid)
    n = design.n
    iota = np.ones((1, design.q))
    f_hat = signed_score_sums(iota, s)[0] / n
    # computed through the bootstrap pipeline so AR*(iota) == AR_n bitwise
    ar_n = float(_ar_norms(s, iota, n, a_z)[0])

    try:
        a_cr = _inv_psd(s.T @ s / n, "null-imposed CCE")
        ar_cr_n = float(_ar_norms(s, iota, n, a_cr)[0])
    except NumericalError:
        a_cr, ar_cr_n = None, None
    return ArStatistics(
        f_hat=f_hat,
        ar_n=ar_n,
        ar_cr_n=ar_cr_n,
        A_z=a_z,
        A_cr=a_cr,
        score_sums=s,
    )


def ar_bootstrap_distribution(
    stats: ArStatistics,
    signs: np.ndarray,
    n: int,
    studentize: bool,
) -> np.ndarray:
    """AR*(g) over the sign set; the weighting stays at its sample value."""
    weight = stats.A_cr if studentize else stats.A_z
    return _ar_norms(stats.score_sums, np.asarray(signs, dtype=np.float64), n, weight)


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
    """Quantile of the chi-squared distribution."""
    return float(scipy.stats.chi2.ppf(p, df))


def ar_tests(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    beta_0,
    names,
    sign_set: SignSet,
    alpha: float,
    A_z: np.ndarray | None,
) -> dict:
    """The ar, ar-cr and ar-cr-asymptotic tests among ``names`` from one set
    of AR statistics. ar-cr maps to an InputError unless q > d_z, and the
    CCE-weighted tests map to a NumericalError when the null-imposed CCE is
    singular."""
    stats = ar_statistics(design, restricted_ols_fit(dataset, beta_0), A_z)
    out = {}
    for name in names:
        if name == "ar-cr" and dataset.q <= dataset.d_z:
            out[name] = InputError("studentized AR needs more clusters than instruments (q > d_z)")
        elif name != "ar" and stats.ar_cr_n is None:
            out[name] = NumericalError("singular null-imposed CCE (q <= d_z or degenerate scores)")
        elif name == "ar-cr-asymptotic":
            df = stats.f_hat.shape[0]
            cv = chi2_quantile(1.0 - alpha, df)
            stat_sq = stats.ar_cr_n**2
            out[name] = AsymptoticArResult(
                statistic_sq=float(stat_sq), critical_value=cv, reject=bool(stat_sq > cv),
                alpha=alpha, df=df,
            )
        else:
            studentize = name == "ar-cr"
            statistic = stats.ar_cr_n if studentize else stats.ar_n
            boot = ar_bootstrap_distribution(stats, sign_set.vectors, dataset.n, studentize)
            out[name] = finish_test(name, statistic, boot, sign_set, alpha)
    return out


def ar_bootstrap_test(
    dataset: ClusteredDataset,
    beta_0,
    studentize: bool = False,
    sign_set: SignSet | None = None,
    alpha: float = 0.1,
    A_z: np.ndarray | None = None,
    design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """Sign-flip bootstrap AR test of the full-vector null beta = beta_0."""
    sign_set, design = prepare_test(dataset, sign_set, design, alpha)
    name = "ar-cr" if studentize else "ar"
    return result_or_raise(ar_tests(dataset, design, beta_0, [name], sign_set, alpha, A_z)[name])


def ar_asymptotic_cr_test(
    dataset: ClusteredDataset,
    beta_0,
    alpha: float = 0.1,
    design: PartialledDesign | None = None,
) -> AsymptoticArResult:
    """Reject when the squared CCE-weighted AR statistic exceeds the
    chi-squared quantile with d_z degrees of freedom."""
    sign_set, design = prepare_test(dataset, None, design, alpha)
    name = "ar-cr-asymptotic"
    return result_or_raise(ar_tests(dataset, design, beta_0, [name], sign_set, alpha, None)[name])
