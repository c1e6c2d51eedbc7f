"""Cluster-robust LM and conditional QLR statistics with their sign-flip
bootstrap.

Both statistics orthogonalize the sample Jacobian against the null-imposed
scores before projecting, so they stay usable when identification is weak.
They share the AR statistics' pass: the restricted fit, the cluster score
sums and the inverse of the null-imposed CCE. The bootstrap flips only the
score side: the Jacobian G_hat, the weighting Omega_hat^{-1} and the
conditioning scalar rk are held at their sample values. Each sample
statistic is the g = iota row of its own draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ar import ArStatistics, ar_squares, ar_statistics, signed_score_sums
from .data import ClusteredDataset, PartialledDesign
from .exceptions import InputError, NumericalError
from .inference import BootstrapTestResult, SignSet, finish_test, prepare_test
from .kclass import RestrictedOlsFit, restricted_ols_fit


@dataclass(frozen=True)
class JacobianBundle:
    """Sample pieces the score draws hold fixed, and the g = iota row of the
    orthogonalized Jacobian draws with its conditioning statistic
    rk = n D_hat' omega_inv D_hat (d_x = 1 only).

    ``omega_inv`` is the inverse null-imposed CCE of :class:`ArStatistics`
    and ``omega_inv_sqrt`` its Cholesky root L (L'L = omega_inv); the LM
    statistic and its rank rule do not depend on which root is used.
    """

    G_hat: np.ndarray            # (d_z, d_x)
    omega_inv: np.ndarray        # (d_z, d_z)
    omega_inv_sqrt: np.ndarray   # (d_z, d_z)
    score_sums: np.ndarray       # (q, d_z)
    jacobian_sums: np.ndarray    # (q, d_z, d_x) per-cluster sums of Zt X'
    D_hat: np.ndarray | None = None   # (d_z, d_x)
    rk: float | None = None


def _apply(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x[i] for every row x[i] of x (shape (m, k, ...)).

    Like every reduction over the draws here, the sum runs elementwise in a
    fixed order, so a row's bits do not depend on the other rows and the
    g = iota draw reproduces the sample value exactly.
    """
    shape = (1, -1) + (1,) * (x.ndim - 2)
    return sum(mat[:, k].reshape(shape) * x[:, k, None] for k in range(mat.shape[1]))


def _corrections(bundle: JacobianBundle, signs: np.ndarray, n: int):
    """Mean scores f*(g) and the corrections Gamma*(g) Omega^{-1} f*(g) that
    D*(g) = G - Gamma*(g) Omega^{-1} f*(g) subtracts, per sign row;
    Gamma*(g) = sum_j g_j [Zt X']_j s_j' / n."""
    s, gsums = bundle.score_sums, bundle.jacobian_sums
    q, d_z, d_x = gsums.shape
    f = signed_score_sums(signs, s) / n                                   # (m, d_z)
    cross = (gsums[:, :, :, None] * s[:, None, None, :]).reshape(q, -1)
    gamma = (signed_score_sums(signs, cross) / n).reshape(-1, d_z, d_x, d_z)
    omega_inv_f = _apply(bundle.omega_inv, f)
    return f, sum(gamma[..., y] * omega_inv_f[:, y, None, None] for y in range(d_z))


def _jacobian_bundle(design: PartialledDesign, stats: ArStatistics) -> JacobianBundle:
    singular = "singular score covariance (q < d_z or degenerate scores)"
    omega_inv = stats.A_cr
    if omega_inv is None:
        if stats.score_sums.any():
            raise NumericalError(singular)
        # Exact null fit: every score is zero, so every statistic and draw is
        # 0 under any weighting; the identity stands in for the missing
        # inverse CCE and keeps the Jacobian's rank.
        omega_inv = np.eye(design.d_z)
    try:
        root = np.linalg.cholesky(omega_inv).T
    except np.linalg.LinAlgError:
        raise NumericalError(singular) from None
    bundle = JacobianBundle(
        G_hat=design.Q_ZX,
        omega_inv=omega_inv,
        omega_inv_sqrt=root,
        score_sums=stats.score_sums,
        jacobian_sums=design.Q_ZX_j * design.cluster_sizes[:, None, None],
    )
    d_hat = design.Q_ZX - _corrections(bundle, np.ones((1, design.q)), design.n)[1][0]
    rk = float(ar_squares(d_hat.T, design.n, omega_inv)[0]) if d_hat.shape[1] == 1 else None
    return replace(bundle, D_hat=d_hat, rk=rk)


def _lm_boot_distribution(
    bundle: JacobianBundle, signs: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """LM*(g) and the squared AR*(g) quadratic forms over the sign set.

    LM*(g) = n || P_{L D*(g)} L f*(g) ||^2 with L the root of Omega^{-1},
    through one stacked thin QR. A draw whose orthogonalized Jacobian is
    rank deficient relative to the size of the two terms it is the
    difference of (they cancel identically when q = d_z) counts as 0 and in
    the returned number of singular draws.
    """
    root = bundle.omega_inv_sqrt
    f, corr = _corrections(bundle, signs, n)
    root_g = root @ bundle.G_hat
    root_corr = _apply(root, corr)
    scale = np.linalg.norm(root_g) + np.sqrt(sum(c * c for c in root_corr.reshape(len(f), -1).T))
    qr_q, qr_r = np.linalg.qr(root_g - root_corr)
    diag = np.abs(np.diagonal(qr_r, axis1=1, axis2=2)).min(axis=1)
    singular = diag <= 1e-12 * np.maximum(scale, 1e-300)
    h = _apply(root, f)
    proj = sum(qr_q[:, z] * h[:, z, None] for z in range(h.shape[1]))    # (m, d_x)
    lm = n * sum(p * p for p in proj.T)
    return np.where(singular, 0.0, lm), ar_squares(f, n, bundle.omega_inv), int(singular.sum())


def _iota_row(bundle: JacobianBundle, n: int) -> tuple[float, float]:
    """The sample LM and squared AR statistics: the g = iota draw. Its
    rank-deficient Jacobian fails the test."""
    lm, ar_sq, n_singular = _lm_boot_distribution(bundle, np.ones((1, len(bundle.score_sums))), n)
    if n_singular:
        raise NumericalError("rank-deficient orthogonalized Jacobian")
    return float(lm[0]), float(ar_sq[0])


def lm_statistic(
    design: PartialledDesign, restricted_ols: RestrictedOlsFit
) -> tuple[float, JacobianBundle]:
    """Score statistic projecting the standardized mean score onto the
    standardized orthogonalized Jacobian."""
    bundle = _jacobian_bundle(design, ar_statistics(design, restricted_ols))
    return _iota_row(bundle, design.n)[0], bundle


def cqlr_statistic(ar_cr_sq, lm, rk: float):
    """Closed-form conditional QLR combination, elementwise over draws.

    ``ar_cr_sq`` is the squared CCE-weighted AR statistic (the quadratic
    form). Collapses to ar_cr_sq when lm equals it, and to lm as rk grows.
    """
    if min(np.min(ar_cr_sq), np.min(lm), rk) < 0.0:
        raise InputError("cqlr inputs must be nonnegative")
    gap = ar_cr_sq - rk
    return 0.5 * (gap + np.sqrt(gap * gap + 4.0 * lm * rk))


def score_tests(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    stats: ArStatistics,
    names,
    sign_set: SignSet,
    alpha: float,
) -> dict:
    """The lm and cqlr tests among ``names`` from the AR statistics' scores
    and one set of score-side draws; the CQLR draws condition on the
    sample rk."""
    if "cqlr" in names and dataset.d_x != 1:
        raise InputError("cqlr is only defined for a single endogenous regressor here")
    if dataset.q <= dataset.d_z:
        raise InputError("score-projection bootstrap needs q > d_z")
    bundle = _jacobian_bundle(design, stats)
    lm, ar_sq = _iota_row(bundle, dataset.n)
    lm_star, ar_sq_star, n_singular = _lm_boot_distribution(
        bundle, sign_set.vectors, dataset.n
    )
    out = {}
    if "lm" in names:
        out["lm"] = finish_test("lm", lm, lm_star, sign_set, alpha, n_singular=n_singular)
    if "cqlr" in names:
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
    stats = ar_statistics(design, restricted_ols_fit(dataset, beta_0))
    return score_tests(dataset, design, stats, [statistic], sign_set, alpha)[statistic]
