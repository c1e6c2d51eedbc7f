"""k-class IV estimators: TSLS, LIML, FULL, and bias-adjusted TSLS.

Estimates are computed in partialled form,

    beta = (X'P_Zt X - mu X'M_[Z:W] X)^{-1} (X'P_Zt y - mu X'M_[Z:W] y),

with mu = kappa - 1 and Zt the full-sample residual of Z on W, which is
algebraically identical to the joint regression of y on [X:W] but never forms
an n-by-n projection. The exogenous coefficients then satisfy the W-block
normal equation gamma = (W'W)^{-1} W'(y - X beta) for every kappa.

kappa and beta are computed for a stack of Gram blocks of Y = [X : y]
(Y'Y, U_W'Y and U_Zt'Y, with U_W and U_Zt orthonormal bases of span(W) and
span(Zt)), held rows-last as :mod:`data`'s draw-stack rule says: each block
is (rows, columns, R) over R items. The sample is a stack of one; the WREC
bootstrap passes one item per draw row through the same code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    ClusteredDataset,
    Hypothesis,
    PartialledDesign,
    check_finite,
    exogenous_basis,
    exogenous_step,
    nonsingular,
    raise_singular,
    stack_solve,
)
from .exceptions import InputError

METHODS = ("tsls", "liml", "full", "ba")

# LIML kappa below 1 - LIML_CLAMP_TOL is impossible in exact arithmetic
# (span(W) is contained in span([Z:W])) and gets clamped with a warning.
LIML_CLAMP_TOL = 1e-8

# What is singular when a stack item fails, as NumericalError messages name it.
LIML_PENCIL = "residual quadratic form in the LIML eigenproblem"
KCLASS_SYSTEM = "k-class system matrix (near-unidentified model)"


@dataclass(frozen=True)
class KClassFit:
    """A fitted k-class estimator, optionally with its null-restricted twin."""

    method: str
    kappa: float
    beta_hat: np.ndarray
    gamma_hat: np.ndarray
    resid_unrestricted: np.ndarray
    system: np.ndarray = field(repr=False)  # (d_x, d_x) X'P_Zt X - mu X'M_[Z:W] X
    exogenous: np.ndarray = field(repr=False)  # (n, 1 + d_x) M_W [y : X]
    beta_hat_r: np.ndarray | None = None
    gamma_hat_r: np.ndarray | None = None
    resid_restricted: np.ndarray | None = None


@dataclass(frozen=True)
class RestrictedOlsFit:
    """Null-restricted OLS of (y - X b) on W at the null b = ``beta_0`` or each
    row of a block (P, d_x): its residual is e_y - e_X b for every b."""

    beta_0: np.ndarray
    gamma_bar_r: np.ndarray
    e_y: np.ndarray    # (n,) M_W y
    e_X: np.ndarray    # (n, d_x) M_W X

    @property
    def resid(self) -> np.ndarray:
        return self.e_y - self.beta_0 @ self.e_X.T


def kclass_forms(ut: np.ndarray, cross: np.ndarray | None = None, uw: np.ndarray | None = None):
    """(Y'P_Zt Y, Y'M_W Y) for a stack of Gram blocks ut = U_Zt'Y (d_z, d_x
    + 1, R), cross = Y'Y (d_x + 1, d_x + 1, R) and uw = U_W'Y (d_w, d_x + 1,
    R). Without ``cross`` the M_W form is None: TSLS needs only the P_Zt
    form."""
    p = np.einsum("zaR,zbR->abR", ut, ut)
    if cross is None:
        return p, None
    return p, cross - np.einsum("waR,wbR->abR", uw, uw)


def _smallest_pencil_root(a: np.ndarray, b: np.ndarray):
    """Smallest root of det(a - lambda b) = 0 for a stack of symmetric
    pencils (d, d, R) with b positive definite: (lambda, ok).

    A 2 x 2 pencil has a closed-form root; a larger one is reduced to the
    eigenvalues of b^{-1} a in one stacked solve and one stacked eigvals,
    its items moved to the front for LAPACK.
    """
    if a.shape[0] == 2:
        ok = nonsingular(b)
        det_b = b[0, 0] * b[1, 1] - b[0, 1] ** 2
        c1 = a[0, 0] * b[1, 1] + a[1, 1] * b[0, 0] - 2.0 * a[0, 1] * b[0, 1]
        det_a = a[0, 0] * a[1, 1] - a[0, 1] ** 2
        disc = np.maximum(c1 * c1 - 4.0 * det_b * det_a, 0.0)
        # the smaller root (c1 - sqrt(disc)) / (2 det_b), written without
        # the cancellation of c1 - sqrt(disc) when the roots are far apart
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = 2.0 * det_a / (c1 + np.sqrt(disc))
    else:
        c, ok = stack_solve(b, a)
        lam = np.linalg.eigvals(np.moveaxis(c, -1, 0)).real.min(axis=1)
    ok &= np.isfinite(lam)
    return np.where(ok, lam, 0.0), ok


def kclass_kappa(
    method: str,
    p: np.ndarray,
    mw: np.ndarray | None,
    n: int,
    d_z: int,
    d_w: int,
    fuller_c: float = 1.0,
):
    """kappa of ``method`` for each item of a stack of :func:`kclass_forms`:
    (kappa, ok, clamped).

    tsls gives 1, ba gives n/(n - d_z + 2), liml the smallest root of the
    pencil (Y'M_W Y, Y'M_[Z:W] Y), and full subtracts fuller_c/(n - d_z - d_w)
    from the liml value. The default fuller_c = 1 is the usual
    second-order-unbiased choice. A liml value below 1 - LIML_CLAMP_TOL is
    set to 1 and flagged in ``clamped``, which :func:`warn_clamped` reports.
    """
    m = p.shape[-1]
    none = np.zeros(m, dtype=bool)
    if method == "tsls":
        return np.ones(m), ~none, none
    if method == "ba":
        return np.full(m, n / (n - d_z + 2)), ~none, none
    kappa, ok = _smallest_pencil_root(mw, mw - p)
    clamped = ok & (kappa < 1.0 - LIML_CLAMP_TOL)
    kappa = np.where(clamped, 1.0, kappa)
    if method == "full":
        if n <= d_z + d_w:
            raise InputError("FULL requires n > d_z + d_w")
        check_finite(fuller_c=fuller_c)
        kappa = kappa - fuller_c / (n - d_z - d_w)
    return kappa, ok, clamped


def warn_clamped(clamped: np.ndarray) -> None:
    """One RuntimeWarning for the LIML kappa values :func:`kclass_kappa`
    clamped to 1."""
    if clamped.any():
        warnings.warn(
            f"clamped {int(clamped.sum())} LIML kappa value(s) below 1 to 1 (numerical noise)",
            RuntimeWarning,
            stacklevel=3,
        )


def kclass_system(kappa: np.ndarray, p: np.ndarray, mw: np.ndarray | None):
    """The k-class normal equations per item of a stack of forms (d_x + 1,
    d_x + 1, R): (X'P_Zt X - mu X'M_[Z:W] X, X'P_Zt y - mu X'M_[Z:W] y) with
    mu = kappa - 1, of shapes (d_x, d_x, R) and (d_x, R). Without ``mw``
    every kappa is 1."""
    d_x = p.shape[0] - 1
    if mw is None:
        return p[:d_x, :d_x], p[:d_x, d_x]
    mu = kappa - 1.0
    m_zw = mw - p
    return p[:d_x, :d_x] - mu * m_zw[:d_x, :d_x], p[:d_x, d_x] - mu * m_zw[:d_x, d_x]


def fit_method(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    method: str,
    fuller_c: float = 1.0,
) -> KClassFit:
    """The sample fit of ``method``: kappa (see :func:`kclass_kappa`) and beta
    from the sample's :func:`kclass_forms`, a stack of one with the M_W form
    unless ``method`` is tsls; gamma and the residual are
    :func:`restricted_ols_fit`'s at the estimate, whose M_W [y : X] the fit
    keeps."""
    if method not in METHODS:
        raise InputError(f"unknown k-class method {method!r}; expected one of {METHODS}")
    yx = np.column_stack([dataset.X, dataset.y])
    ut = (design.basis_Zt.T @ yx)[..., None]
    p, mw = (kclass_forms(ut) if method == "tsls"
             else kclass_forms(ut, (yx.T @ yx)[..., None], (design.basis_W.T @ yx)[..., None]))
    kappa, ok, clamped = kclass_kappa(method, p, mw, dataset.n, dataset.d_z, dataset.d_w,
                                      fuller_c)
    warn_clamped(clamped)
    raise_singular({LIML_PENCIL: ok})
    system, rhs = kclass_system(kappa, p, mw)
    beta, ok = stack_solve(system, rhs)
    raise_singular({KCLASS_SYSTEM: ok})
    ols = restricted_ols_fit(dataset, beta[:, 0], design)
    return KClassFit(method=method, kappa=float(kappa[0]), beta_hat=beta[:, 0],
                     gamma_hat=ols.gamma_bar_r, resid_unrestricted=ols.resid,
                     system=system[..., 0], exogenous=np.column_stack([ols.e_y, ols.e_X]))


def restricted_betas(fit: KClassFit, lambda_beta: np.ndarray, lambda_0: np.ndarray) -> np.ndarray:
    """The null-restricted estimate at each null of a block, the rows of
    ``lambda_0`` (P, d_r): (P, d_x), the unrestricted estimate projected onto
    lambda' b = lambda_0 in the metric of the fit's system matrix X'P_Zt X -
    mu X'M_[Z:W] X. Each null is an item of one stacked solve and its
    correction a sum over d_r in order, so its bits do not depend on the block."""
    k, ok = stack_solve(fit.system[..., None], lambda_beta[..., None])
    raise_singular({KCLASS_SYSTEM: ok})
    k, d_r = k[..., 0], lambda_beta.shape[1]
    metric = np.broadcast_to((lambda_beta.T @ k)[..., None], (d_r, d_r, len(lambda_0)))
    gap, ok = stack_solve(metric, (lambda_beta.T @ fit.beta_hat - lambda_0).T)
    raise_singular({"restriction projection": [ok.all()]})
    return fit.beta_hat - sum(k[:, r] * gap[r, :, None] for r in range(d_r))


def restricted_kclass_fit(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    fit: KClassFit,
    hypothesis: Hypothesis,
) -> KClassFit:
    """Add the null-restricted estimates to a fit: beta_r of
    :func:`restricted_betas` at the hypothesis's one null, with gamma_r and
    the restricted residual from :func:`restricted_ols_fit` at beta_r.
    """
    beta_r = restricted_betas(fit, hypothesis.lambda_beta, hypothesis.lambda_0[None])[0]
    ols = restricted_ols_fit(dataset, beta_r, design)
    return replace(fit, beta_hat_r=beta_r, gamma_hat_r=ols.gamma_bar_r,
                   resid_restricted=ols.resid)


def restricted_ols_fit(dataset: ClusteredDataset, beta_0, design=None) -> RestrictedOlsFit:
    """OLS of [y : X] on W for the null ``beta_0`` (d_x,) or a block of nulls (P, d_x),
    by :func:`data.exogenous_step` on the basis of span(W) that ``design`` holds or
    else on :func:`data.exogenous_basis`'s (the same bits); residuals are W-orthogonal."""
    b0 = np.atleast_1d(np.asarray(beta_0, dtype=np.float64))
    if b0.ndim > 2 or b0.shape[-1] != dataset.d_x:
        raise InputError(f"beta_0 must have length d_x={dataset.d_x}")
    check_finite(beta_0=b0)
    u_w, coef_map, k = (exogenous_basis(dataset) if design is None
                        else (design.basis_W, design.w_coef_map, design.k_within))
    e, coords = exogenous_step(np.column_stack([dataset.y, dataset.X]), u_w, k,
                               dataset.cluster_starts)
    coef = coef_map @ coords
    return RestrictedOlsFit(b0, coef[:, 0] - b0 @ coef[:, 1:].T, e_y=e[:, 0], e_X=e[:, 1:])
