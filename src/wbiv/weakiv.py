"""Cluster-robust LM and conditional QLR statistics with their sign-flip
bootstrap.

Both statistics orthogonalize the sample Jacobian against the null-imposed
scores before projecting, so they stay usable when identification is weak.
The bootstrap flips only the score side: the Jacobian G_hat, the score
covariance Omega_hat, and the conditioning scalar rk are held at their sample
values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cce import cluster_score_sums
from .data import ClusteredDataset, PartialledDesign
from .exceptions import InputError, NumericalError
from .inference import BootstrapTestResult, SignSet, finish_test, prepare_test
from .kclass import RestrictedOlsFit, restricted_ols_fit

# Relative eigenvalue floor for the symmetric inverse square root of Omega.
OMEGA_EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class JacobianBundle:
    """Sample Jacobian, its score-orthogonalized version, and helpers.

    ``Gamma_hat[l]`` is the d_z x d_z cross moment between the l-th Jacobian
    column scores and the null-imposed scores; ``rk`` is the scalar
    conditioning statistic n D' Omega^{-1} D, only defined for d_x = 1.
    """

    G_hat: np.ndarray        # (d_z, d_x)
    Gamma_hat: np.ndarray    # (d_x, d_z, d_z)
    Omega_hat: np.ndarray    # (d_z, d_z)
    D_hat: np.ndarray        # (d_z, d_x)
    rk: float | None
    omega_inv_sqrt: np.ndarray
    score_sums: np.ndarray       # (q, d_z)
    jacobian_sums: np.ndarray    # (q, d_z, d_x) per-cluster sums of Zt X'


def _sym_inv_sqrt(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    floor = OMEGA_EIG_FLOOR * np.trace(a)
    if floor <= 0.0:
        raise NumericalError("singular score covariance")
    vals = np.maximum(vals, floor)
    return (vecs / np.sqrt(vals)) @ vecs.T


def _jacobian_bundle(
    design: PartialledDesign, restricted_ols: RestrictedOlsFit
) -> JacobianBundle:
    n = design.n
    d_x = design.Q_ZX.shape[1]
    s = cluster_score_sums(design, restricted_ols.resid)   # (q, d_z)
    omega = s.T @ s / n
    if np.all(s == 0.0):
        # Exact null fit: every projection of the (zero) mean score is zero,
        # so the statistic is 0 in the limit convention regardless of the
        # (undefined) weighting.
        return JacobianBundle(
            G_hat=design.Q_ZX,
            Gamma_hat=np.zeros((d_x, design.d_z, design.d_z)),
            Omega_hat=omega,
            D_hat=design.Q_ZX,
            rk=0.0 if d_x == 1 else None,
            omega_inv_sqrt=np.zeros_like(omega),
            score_sums=s,
            jacobian_sums=design.Q_ZX_j * design.cluster_sizes[:, None, None],
        )
    sv = np.linalg.svd(omega, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < 1e-13:
        raise NumericalError("singular score covariance (q < d_z or degenerate scores)")
    # Per-cluster Jacobian score sums: [sum_i Zt X_l]_j.
    gsums = design.Q_ZX_j * design.cluster_sizes[:, None, None]
    g_hat = design.Q_ZX
    gamma = np.einsum("jzl,jy->lzy", gsums, s) / n         # (d_x, d_z, d_z)
    f_hat = s.sum(axis=0) / n
    omega_inv_f = np.linalg.solve(omega, f_hat)
    d_hat = g_hat - np.einsum("lzy,y->zl", gamma, omega_inv_f)
    rk = float(n * d_hat[:, 0] @ np.linalg.solve(omega, d_hat[:, 0])) if d_x == 1 else None
    return JacobianBundle(
        G_hat=g_hat,
        Gamma_hat=gamma,
        Omega_hat=omega,
        D_hat=d_hat,
        rk=rk,
        omega_inv_sqrt=_sym_inv_sqrt(omega),
        score_sums=s,
        jacobian_sums=gsums,
    )


def _jacobian_scale(bundle: "JacobianBundle", f_vec: np.ndarray) -> float:
    """Magnitude of the two terms whose difference is the orthogonalized
    Jacobian, in Omega^{-1/2} coordinates.

    The difference cancels identically when q = d_z (the scores span the
    whole instrument space), leaving pure rounding noise whose direction is
    meaningless; rank checks must be relative to this scale, not to the
    cancelled matrix itself.
    """
    isq = bundle.omega_inv_sqrt
    lead = np.linalg.norm(isq @ bundle.G_hat)
    corr = np.einsum("lzy,y->zl", bundle.Gamma_hat, np.linalg.solve(bundle.Omega_hat, f_vec))
    return lead + np.linalg.norm(isq @ corr)


def _lm_from(
    f_hat: np.ndarray,
    d_hat: np.ndarray,
    omega_inv_sqrt: np.ndarray,
    n: int,
    scale: float,
) -> float:
    """n || P_{Omega^{-1/2} D} Omega^{-1/2} f ||^2 via a thin QR."""
    u = omega_inv_sqrt @ d_hat
    qr_q, qr_r = np.linalg.qr(u)
    diag = np.abs(np.diag(qr_r))
    if diag.min() <= 1e-12 * max(scale, 1e-300):
        raise NumericalError("rank-deficient orthogonalized Jacobian")
    h = omega_inv_sqrt @ f_hat
    proj = qr_q.T @ h
    return float(n * proj @ proj)


def lm_statistic(
    design: PartialledDesign, restricted_ols: RestrictedOlsFit
) -> tuple[float, JacobianBundle]:
    """Score statistic projecting the standardized mean score onto the
    standardized orthogonalized Jacobian."""
    bundle = _jacobian_bundle(design, restricted_ols)
    if np.all(bundle.score_sums == 0.0):
        return 0.0, bundle
    f_hat = bundle.score_sums.sum(axis=0) / design.n
    scale = _jacobian_scale(bundle, f_hat)
    lm = _lm_from(f_hat, bundle.D_hat, bundle.omega_inv_sqrt, design.n, scale)
    return lm, bundle


def cqlr_statistic(ar_cr_sq, lm, rk: float):
    """Closed-form conditional QLR combination, elementwise over draws.

    ``ar_cr_sq`` is the squared CCE-weighted AR statistic (the quadratic
    form). Collapses to ar_cr_sq when lm equals it, and to lm as rk grows.
    """
    if min(np.min(ar_cr_sq), np.min(lm), rk) < 0.0:
        raise InputError("cqlr inputs must be nonnegative")
    gap = ar_cr_sq - rk
    return 0.5 * (gap + np.sqrt(gap * gap + 4.0 * lm * rk))


def _lm_boot_distribution(
    bundle: JacobianBundle, signs: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """LM*(g) and the squared AR*(g) quadratic forms over the sign set."""
    s, gsums = bundle.score_sums, bundle.jacobian_sums
    omega, isq = bundle.Omega_hat, bundle.omega_inv_sqrt
    m = signs.shape[0]
    if np.all(s == 0.0):
        # zero scores flip to zero scores; matches the limit convention
        return np.zeros(m), np.zeros(m), 0
    f_star = signs @ s / n                                        # (m, d_z)
    gamma_star = np.einsum("mj,jzl,jy->mlzy", signs, gsums, s) / n
    omega_inv_f = np.linalg.solve(omega, f_star.T).T              # (m, d_z)
    d_star = bundle.G_hat[None] - np.einsum("mlzy,my->mzl", gamma_star, omega_inv_f)
    h = f_star @ isq.T                                            # (m, d_z)
    ar_sq = n * np.einsum("mz,mz->m", f_star, omega_inv_f)

    lead = np.linalg.norm(isq @ bundle.G_hat)
    corr = np.einsum("mlzy,my->mzl", gamma_star, omega_inv_f)
    scales = lead + np.linalg.norm(np.einsum("zy,myl->mzl", isq, corr), axis=(1, 2))

    lm_star = np.zeros(m)
    n_singular = 0
    for i in range(m):
        u = isq @ d_star[i]
        qr_q, qr_r = np.linalg.qr(u)
        diag = np.abs(np.diag(qr_r))
        if diag.min() <= 1e-12 * max(scales[i], 1e-300):
            n_singular += 1
            continue
        proj = qr_q.T @ h[i]
        lm_star[i] = n * proj @ proj
    return lm_star, ar_sq, n_singular


def score_tests(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    beta_0,
    names,
    sign_set: SignSet,
    alpha: float,
) -> dict:
    """The lm and cqlr tests among ``names`` from one LM statistic and one
    set of score-side draws; the CQLR draws condition on the sample rk."""
    if "cqlr" in names and dataset.d_x != 1:
        raise InputError("cqlr is only defined for a single endogenous regressor here")
    if dataset.q <= dataset.d_z:
        raise InputError("score-projection bootstrap needs q > d_z")
    lm, bundle = lm_statistic(design, restricted_ols_fit(dataset, beta_0))
    lm_star, ar_sq_star, n_singular = _lm_boot_distribution(
        bundle, sign_set.vectors, dataset.n
    )
    out = {}
    if "lm" in names:
        out["lm"] = finish_test("lm", lm, lm_star, sign_set, alpha, n_singular=n_singular)
    if "cqlr" in names:
        f_hat = bundle.score_sums.sum(axis=0) / dataset.n
        ar_sq = dataset.n * f_hat @ np.linalg.solve(bundle.Omega_hat, f_hat)
        lr = cqlr_statistic(ar_sq, lm, bundle.rk)
        lr_star = cqlr_statistic(ar_sq_star, lm_star, bundle.rk)
        out["cqlr"] = finish_test("cqlr", lr, lr_star, sign_set, alpha, n_singular=n_singular)
    return out


def lm_cqlr_bootstrap_test(
    dataset: ClusteredDataset,
    beta_0,
    statistic: str = "lm",
    sign_set: SignSet | None = None,
    alpha: float = 0.1,
    design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """Sign-flip bootstrap LM or conditional QLR test of beta = beta_0."""
    if statistic not in ("lm", "cqlr"):
        raise InputError(f"statistic must be 'lm' or 'cqlr', got {statistic!r}")
    sign_set, design = prepare_test(dataset, sign_set, design, alpha)
    return score_tests(dataset, design, beta_0, [statistic], sign_set, alpha)[statistic]
