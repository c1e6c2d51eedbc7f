"""Full-vector Anderson-Rubin tests and their sign-flip bootstrap.

The null-imposed scores are f_ij = Zt_ij * eps_bar_ij with eps_bar the
residual from restricted OLS of (y - X beta_0) on W. Both weightings are
invariant to the cluster sign flips, so the bootstrap only flips the
per-cluster score sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cce import cluster_score_sums
from .data import ClusteredDataset, PartialledDesign, stack_solve
from .exceptions import InputError, NumericalError
from .inference import BootstrapTestResult, SignSet, finish_test, prepare_test, result_or_raise
from .kclass import RestrictedOlsFit, restricted_ols_fit


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


def ar_squares(f: np.ndarray, n: int, weight: np.ndarray) -> np.ndarray:
    """n f' A f for every row of the mean scores ``f``: the squared AR
    statistics that the LM side's CQLR combination also reads."""
    return n * np.maximum(_row_quadratic(f, weight), 0.0)


def _ar_norms(score_sums: np.ndarray, signs: np.ndarray, n: int, weight: np.ndarray) -> np.ndarray:
    return np.sqrt(ar_squares(signed_score_sums(signs, score_sums) / n, n, weight))


def ar_statistics(design: PartialledDesign, restricted_ols: RestrictedOlsFit) -> ArStatistics:
    """Compute AR_n and, when the null CCE is invertible, AR_CR_n."""
    s = cluster_score_sums(design, restricted_ols.resid)
    n = design.n
    iota = np.ones((1, design.q))
    f_hat = signed_score_sums(iota, s)[0] / n
    # computed through the bootstrap pipeline so AR*(iota) == AR_n bitwise
    ar_n = float(_ar_norms(s, iota, n, np.eye(design.d_z))[0])

    a_cr, ok = stack_solve((s.T @ s / n)[None])
    a_cr = a_cr[0] if ok[0] else None
    ar_cr_n = None if a_cr is None else float(_ar_norms(s, iota, n, a_cr)[0])
    return ArStatistics(f_hat=f_hat, ar_n=ar_n, ar_cr_n=ar_cr_n, A_cr=a_cr, score_sums=s)


def ar_bootstrap_distribution(
    stats: ArStatistics,
    signs: np.ndarray,
    n: int,
    studentize: bool,
) -> np.ndarray:
    """AR*(g) over the sign set; the weighting stays at its sample value."""
    weight = stats.A_cr if studentize else np.eye(stats.f_hat.shape[0])
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
    """Quantile of the chi-squared distribution.

    scipy.stats is imported on first use, not with the module: it is the
    slowest import of the package, and only ar-cr-asymptotic needs it.
    """
    import scipy.stats

    return float(scipy.stats.chi2.ppf(p, df))


def ar_tests(
    dataset: ClusteredDataset,
    stats: ArStatistics,
    names,
    sign_set: SignSet,
    alpha: float,
) -> dict:
    """The ar, ar-cr and ar-cr-asymptotic tests among ``names`` from one set
    of AR statistics. ar-cr maps to an InputError unless q > d_z, and the
    CCE-weighted tests map to a NumericalError when the null-imposed CCE is
    singular."""
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
    design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """Sign-flip bootstrap AR test of the full-vector null beta = beta_0."""
    sign_set, design = prepare_test(dataset, sign_set, design, alpha)
    name = "ar-cr" if studentize else "ar"
    stats = ar_statistics(design, restricted_ols_fit(dataset, beta_0))
    return result_or_raise(ar_tests(dataset, stats, [name], sign_set, alpha)[name])


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
    stats = ar_statistics(design, restricted_ols_fit(dataset, beta_0))
    return result_or_raise(ar_tests(dataset, stats, [name], sign_set, alpha)[name])
