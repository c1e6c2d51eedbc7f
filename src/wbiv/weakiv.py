"""Cluster-robust LM and conditional QLR statistics with their sign-flip
bootstrap.

Both statistics orthogonalize the sample Jacobian against the null-imposed
scores before projecting, so they stay usable when identification is weak.
They share the AR statistics' pass: the restricted fit, the cluster score
sums and the inverse of the null-imposed CCE. The bootstrap flips only the
score side: the Jacobian G_hat, the weighting Omega_hat^{-1} and the
conditioning scalar rk are held at their sample values. All draws'
Gram matrices D*'A D* go through one :func:`data.stack_solve`, and each
sample statistic is the g = iota row that :func:`score_tests` appends;
every sum over a draw row follows the draw-stack rule of :mod:`data`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ar import ArStatistics, ar_squares, ar_statistics
from .data import ClusteredDataset, PartialledDesign, raise_singular, stack_solve
from .exceptions import InputError, NumericalError
from .inference import SignSet, finish_test
from .kclass import RestrictedOlsFit

# What is singular when the iota row fails, as the NumericalError names it.
JACOBIAN_GRAM = "orthogonalized Jacobian quadratic form (near-unidentified model)"


@dataclass(frozen=True)
class JacobianBundle:
    """Sample pieces the score draws hold fixed, and the g = iota row of the
    orthogonalized Jacobian draws with its conditioning statistic
    rk = n D_hat' omega_inv D_hat (d_x = 1 only).

    ``omega_inv`` is the inverse null-imposed CCE of :class:`ArStatistics`,
    the weighting A of every draw's Gram matrix D*'A D* and of D*'A f*.
    """

    G_hat: np.ndarray            # (d_z, d_x)
    omega_inv: np.ndarray        # (d_z, d_z)
    score_sums: np.ndarray       # (q, d_z)
    jacobian_sums: np.ndarray    # (q, d_z, d_x) per-cluster sums of Zt X'
    D_hat: np.ndarray | None = None   # (d_z, d_x)
    rk: float | None = None


def _orthogonalized(bundle: JacobianBundle, signs: np.ndarray, n: int):
    """Per sign row: the mean scores f*(g), Omega^{-1} f*(g) and the
    orthogonalized Jacobian D*(g) = G - Gamma*(g) Omega^{-1} f*(g), with
    Gamma*(g) = sum_j g_j [Zt X']_j s_j' / n."""
    s = bundle.score_sums
    f = np.einsum("mj,jz->mz", signs, s) / n
    cross = bundle.jacobian_sums[:, :, :, None] * s[:, None, None, :]   # (q, d_z, d_x, d_z)
    gamma = np.einsum("mj,jzxy->mzxy", signs, cross) / n
    omega_inv_f = np.einsum("zy,my->mz", bundle.omega_inv, f)
    corr = np.einsum("mzxy,my->mzx", gamma, omega_inv_f)
    return f, omega_inv_f, bundle.G_hat[None] - corr


def _jacobian_bundle(design: PartialledDesign, stats: ArStatistics) -> JacobianBundle:
    if design.q <= design.d_z:
        # q = d_z makes Gamma_hat Omega^{-1} f_hat = G_hat an identity, so
        # D_hat is rounding noise; below it Omega is singular
        raise NumericalError("rank-deficient orthogonalized Jacobian (q <= d_z)")
    omega_inv = stats.A_cr
    if omega_inv is None:
        if stats.score_sums.any():
            raise NumericalError("singular score covariance (degenerate scores)")
        # Exact null fit: every score is zero, so every statistic and draw is
        # 0 under any weighting; the identity stands in for the missing
        # inverse CCE and keeps the Jacobian's rank.
        omega_inv = np.eye(design.d_z)
    bundle = JacobianBundle(
        G_hat=design.Q_ZX,
        omega_inv=omega_inv,
        score_sums=stats.score_sums,
        jacobian_sums=design.Q_ZX_j * design.cluster_sizes[:, None, None],
    )
    d_hat = _orthogonalized(bundle, np.ones((1, design.q)), design.n)[2][0]
    rk = float(ar_squares(d_hat.T, design.n, omega_inv)[0]) if d_hat.shape[1] == 1 else None
    return replace(bundle, D_hat=d_hat, rk=rk)


def _lm_boot_distribution(
    bundle: JacobianBundle, signs: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LM*(g) = n b'(D*'A D*)^{-1} b with b = D*'A f* and A = Omega^{-1},
    the squared AR*(g) quadratic forms and the ok flags of the stacked
    solve over the sign rows. A draw whose Gram matrix is singular reads 0.0.
    """
    f, a_f, d = _orthogonalized(bundle, signs, n)
    a_d = np.einsum("zy,myx->mzx", bundle.omega_inv, d)
    gram = np.einsum("mza,mzb->mab", d, a_d)
    b = np.einsum("mzx,mz->mx", d, a_f)
    x, ok = stack_solve(gram, b)
    lm = n * np.maximum(np.einsum("mk,mk->m", b, x), 0.0)
    return lm, ar_squares(f, n, bundle.omega_inv), ok


def _iota_draws(bundle: JacobianBundle, signs: np.ndarray, n: int):
    """The draws over ``signs`` and, appended as the last row, the sample's
    g = iota draw: (LM, squared AR, number of singular draws other than
    iota). A singular iota row is a NumericalError."""
    rows = np.vstack([signs, np.ones((1, signs.shape[1]))])
    lm, ar_sq, ok = _lm_boot_distribution(bundle, rows, n)
    raise_singular({JACOBIAN_GRAM: ok}, row=-1)
    return lm, ar_sq, int((~ok[:-1]).sum())


def lm_statistic(
    design: PartialledDesign, restricted_ols: RestrictedOlsFit
) -> tuple[float, JacobianBundle]:
    """Score statistic projecting the standardized mean score onto the
    standardized orthogonalized Jacobian: the draw at g = iota alone."""
    bundle = _jacobian_bundle(design, ar_statistics(design, restricted_ols))
    return float(_iota_draws(bundle, np.empty((0, design.q)), design.n)[0][-1]), bundle


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
    dataset: ClusteredDataset, design: PartialledDesign, stats: ArStatistics, names,
    sign_set: SignSet, alpha: float,
) -> dict:
    """The lm and cqlr tests among ``names`` from the AR statistics' scores
    and one set of score-side draws; the CQLR draws condition on the
    sample rk."""
    if "cqlr" in names and dataset.d_x != 1:
        raise InputError("cqlr is only defined for a single endogenous regressor here")
    if dataset.q <= dataset.d_z:
        raise InputError("score-projection bootstrap needs q > d_z")
    bundle = _jacobian_bundle(design, stats)
    lm, ar_sq, n_singular = _iota_draws(bundle, sign_set.vectors, dataset.n)
    draws = {"lm": lm}
    if "cqlr" in names:
        draws["cqlr"] = cqlr_statistic(ar_sq, lm, bundle.rk)
    return {
        name: finish_test(
            name, float(draws[name][-1]), draws[name][:-1], sign_set, alpha, n_singular=n_singular
        )
        for name in names
    }
