"""k-class IV estimators: TSLS, LIML, FULL, and bias-adjusted TSLS.

Estimates are computed in partialled form,

    beta = (X'P_Zt X - mu X'M_[Z:W] X)^{-1} (X'P_Zt y - mu X'M_[Z:W] y),

with mu = kappa - 1 and Zt the full-sample residual of Z on W, which is
algebraically identical to the joint regression of y on [X:W] but never forms
an n-by-n projection. The exogenous coefficients then satisfy the W-block
normal equation gamma = (W'W)^{-1} W'(y - X beta) for every kappa.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .data import ClusteredDataset, Hypothesis, PartialledDesign
from .exceptions import InputError, NumericalError

METHODS = ("tsls", "liml", "full", "ba")

# LIML kappa below 1 - LIML_CLAMP_TOL is impossible in exact arithmetic
# (span(W) is contained in span([Z:W])) and gets clamped with a warning.
LIML_CLAMP_TOL = 1e-8


@dataclass(frozen=True)
class KClassFit:
    """A fitted k-class estimator, optionally with its null-restricted twin."""

    method: str
    kappa: float
    mu: float
    beta_hat: np.ndarray
    gamma_hat: np.ndarray
    resid_unrestricted: np.ndarray
    beta_hat_r: np.ndarray | None = None
    gamma_hat_r: np.ndarray | None = None
    resid_restricted: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.resid_unrestricted.shape[0]


@dataclass(frozen=True)
class RestrictedOlsFit:
    """Null-restricted OLS of (y - X beta_0) on W."""

    beta_0: np.ndarray
    gamma_bar_r: np.ndarray
    resid: np.ndarray


def _solve_sym(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    try:
        c, low = scipy.linalg.cho_factor(a)
        return scipy.linalg.cho_solve((c, low), b)
    except scipy.linalg.LinAlgError:
        pass
    # Indefinite systems (mu > 0 can make the bracket indefinite): plain solve
    # with a conditioning guard.
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] / s[0] < 1e-13:
        raise NumericalError(f"singular {what}")
    return np.linalg.solve(a, b)


def _kclass_moments(y: np.ndarray, X: np.ndarray, design: PartialledDesign, need_m: bool):
    """Quadratic forms of (X, y) under P_Zt and, when needed, M_[Z:W]."""
    u_zt, u_w = design.basis_Zt, design.basis_W
    a_x = u_zt.T @ X
    a_y = u_zt.T @ y
    xpx = a_x.T @ a_x
    xpy = a_x.T @ a_y
    if not need_m:
        return xpx, xpy, None, None
    b_x = u_w.T @ X
    b_y = u_w.T @ y
    xmx = X.T @ X - b_x.T @ b_x - a_x.T @ a_x
    xmy = X.T @ y - b_x.T @ b_y - a_x.T @ a_y
    return xpx, xpy, xmx, xmy


def smallest_generalized_eigenvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric-definite pencil (a, b).

    Solved through a triangular factorization of b; both matrices are tiny
    ((1 + d_x) square) so the dense path is exact enough and fast. A b that
    is not positive definite, or a non-finite entry, is a NumericalError.
    """
    try:
        vals = scipy.linalg.eigh(a, b, eigvals_only=True)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError("singular residual quadratic form in the LIML eigenproblem") from exc
    return float(vals[0])


def kappa_value(
    method: str,
    dataset: ClusteredDataset,
    design: PartialledDesign,
    fuller_c: float = 1.0,
) -> float:
    """kappa for the requested estimator.

    tsls gives 1, ba gives n/(n - d_z + 2), liml solves the minimum-eigenvalue
    problem, and full subtracts fuller_c/(n - d_z - d_w) from the liml value.
    The default fuller_c = 1 is the usual second-order-unbiased choice.
    """
    if method not in METHODS:
        raise InputError(f"unknown k-class method {method!r}; expected one of {METHODS}")
    n, d_z, d_w = dataset.n, dataset.d_z, dataset.d_w
    if method == "tsls":
        return 1.0
    if method == "ba":
        return n / (n - d_z + 2)
    # LIML: smallest generalized eigenvalue of (Y'M_W Y, Y'M_[Z:W] Y) with
    # Y = [y : X].
    yvec = np.column_stack([dataset.y, dataset.X])
    bw = design.basis_W.T @ yvec
    bt = design.basis_Zt.T @ yvec
    a = yvec.T @ yvec - bw.T @ bw
    b = a - bt.T @ bt
    kappa = smallest_generalized_eigenvalue(a, b)
    if kappa < 1.0 - LIML_CLAMP_TOL:
        warnings.warn(
            f"LIML kappa {kappa!r} below 1; clamping to 1 (numerical noise)",
            RuntimeWarning,
            stacklevel=2,
        )
        kappa = 1.0
    if method == "liml":
        return kappa
    if n <= d_z + d_w:
        raise InputError("FULL requires n > d_z + d_w")
    return kappa - fuller_c / (n - d_z - d_w)


def kclass_fit(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    kappa: float,
    method: str = "custom",
) -> KClassFit:
    """Fit the k-class estimator with an explicit kappa."""
    y, X = dataset.y, dataset.X
    mu = kappa - 1.0
    xpx, xpy, xmx, xmy = _kclass_moments(y, X, design, need_m=(mu != 0.0))
    if mu != 0.0:
        lhs = xpx - mu * xmx
        rhs = xpy - mu * xmy
    else:
        lhs, rhs = xpx, xpy
    beta = _solve_sym(lhs, rhs, "k-class system matrix (near-unidentified model)")
    gamma = design.proj_w_coef(y - X @ beta)
    resid = y - X @ beta - dataset.W @ gamma
    return KClassFit(
        method=method,
        kappa=float(kappa),
        mu=float(mu),
        beta_hat=beta,
        gamma_hat=gamma,
        resid_unrestricted=resid,
    )


def fit_method(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    method: str,
    fuller_c: float = 1.0,
) -> KClassFit:
    """Convenience wrapper: compute kappa for ``method`` and fit."""
    return kclass_fit(dataset, design, kappa_value(method, dataset, design, fuller_c), method)


def restricted_kclass_fit(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    fit: KClassFit,
    hypothesis: Hypothesis,
) -> KClassFit:
    """Add the null-restricted estimates to a fit.

    beta_r projects the unrestricted estimate onto the restriction set using
    the metric X'P_Zt X - mu X'M_[Z:W] X, after which gamma_r re-solves the
    exogenous block and the restricted residual is recomputed from scratch.
    """
    lam = hypothesis.lambda_beta
    lam0 = hypothesis.lambda_0
    y, X, W = dataset.y, dataset.X, dataset.W
    xpx, _, xmx, _ = _kclass_moments(y, X, design, need_m=(fit.mu != 0.0))
    mmat = xpx if fit.mu == 0.0 else xpx - fit.mu * xmx
    k = _solve_sym(mmat, lam, "k-class system matrix (near-unidentified model)")
    denom = lam.T @ k
    try:
        gap = np.linalg.solve(denom, lam.T @ fit.beta_hat - lam0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular restriction projection") from exc
    beta_r = fit.beta_hat - k @ gap
    gamma_r = design.proj_w_coef(y - X @ beta_r)
    resid_r = y - X @ beta_r - W @ gamma_r
    return replace(fit, beta_hat_r=beta_r, gamma_hat_r=gamma_r, resid_restricted=resid_r)


def restricted_ols_fit(dataset: ClusteredDataset, beta_0) -> RestrictedOlsFit:
    """OLS of (y - X beta_0) on W; the residual is W-orthogonal by construction."""
    b0 = np.atleast_1d(np.asarray(beta_0, dtype=np.float64))
    if b0.shape != (dataset.d_x,):
        raise InputError(f"beta_0 must have length d_x={dataset.d_x}")
    u = dataset.y - dataset.X @ b0
    gamma, _, rank, _ = np.linalg.lstsq(dataset.W, u, rcond=None)
    if rank < dataset.d_w:
        raise NumericalError("singular W'W (collinear exogenous regressors)")
    return RestrictedOlsFit(beta_0=b0, gamma_bar_r=gamma, resid=u - dataset.W @ gamma)
