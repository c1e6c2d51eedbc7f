"""The one full-vector pass, and the cluster-robust LM and conditional QLR
statistics it runs beside the AR tests.

:func:`full_vector_tests` stacks the sign rows with g = iota last and forms
the signed score means f*(g) once. Every statistic comes from that stack:
the AR norms under I and the inverse null-imposed CCE, and the
orthogonalized Jacobian D*(g), LM and CQLR. Each test's statistic is its
last row, and D_hat and rk are read from that row.

LM and CQLR orthogonalize the Jacobian against the null-imposed scores
before projecting, so they stay usable under weak identification. Their
draws hold G_hat, Omega_hat^{-1} and rk at their sample values and solve
all Gram matrices D*'A D* in one :func:`data.stack_solve`. Every sum over a
draw row follows the draw-stack rule of :mod:`data`, so :func:`lm_statistic`
(g = iota alone) gives the pass's last row bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .ar import AsymptoticArResult, ar_squares, chi2_quantile, null_scores, signed_means
from .data import ClusteredDataset, PartialledDesign, raise_singular, stack_solve
from .exceptions import InputError, NumericalError
from .inference import SignSet, finish_test
from .kclass import RestrictedOlsFit, restricted_ols_fit

# What is singular when the iota row fails, as the NumericalError names it.
JACOBIAN_GRAM = "orthogonalized Jacobian quadratic form (near-unidentified model)"
# The tests whose draws come from the orthogonalized Jacobian.
SCORE = ("lm", "cqlr")
# The AR tests weighted by the inverse null-imposed CCE.
CCE_WEIGHTED = ("ar-cr", "ar-cr-asymptotic")


@dataclass(frozen=True)
class JacobianBundle:
    """Sample pieces the score draws hold fixed, and the g = iota row of the
    orthogonalized Jacobian draws with its conditioning statistic
    rk = n D_hat' omega_inv D_hat (d_x = 1 only).

    ``omega_inv`` is the inverse null-imposed CCE, the weighting A of every
    draw's Gram matrix D*'A D* and of D*'A f*.
    """

    G_hat: np.ndarray            # (d_z, d_x)
    omega_inv: np.ndarray        # (d_z, d_z)
    score_sums: np.ndarray       # (q, d_z)
    jacobian_sums: np.ndarray    # (q, d_z, d_x) per-cluster sums of Zt X'
    D_hat: np.ndarray | None = None   # (d_z, d_x)
    rk: float | None = None


def _jacobian_bundle(
    design: PartialledDesign, score_sums: np.ndarray, omega_inv: np.ndarray | None
) -> JacobianBundle:
    if design.q <= design.d_z:
        # q = d_z makes Gamma_hat Omega^{-1} f_hat = G_hat an identity, so
        # D_hat is rounding noise; below it Omega is singular
        raise NumericalError("rank-deficient orthogonalized Jacobian (q <= d_z)")
    if omega_inv is None:
        if score_sums.any():
            raise NumericalError("singular score covariance (degenerate scores)")
        # Exact null fit: every score is zero, so every statistic and draw is
        # 0 under any weighting; the identity stands in for the missing
        # inverse CCE and keeps the Jacobian's rank.
        omega_inv = np.eye(design.d_z)
    return JacobianBundle(
        G_hat=design.Q_ZX,
        omega_inv=omega_inv,
        score_sums=score_sums,
        jacobian_sums=design.Q_ZX_j * design.cluster_sizes[:, None, None],
    )


def _lm_rows(bundle: JacobianBundle, rows: np.ndarray, f: np.ndarray, n: int):
    """Per sign row g with mean scores f*(g): LM*(g) = n b'(D*'A D*)^{-1} b
    with b = D*'A f*, the ok flags of the stacked solve, and the
    orthogonalized Jacobian D*(g) = G - Gamma*(g) A f*(g), where
    A = Omega^{-1} and Gamma*(g) = sum_j g_j [Zt X']_j s_j' / n. A draw
    whose Gram matrix is singular reads 0.0."""
    s = bundle.score_sums
    cross = bundle.jacobian_sums[:, :, :, None] * s[:, None, None, :]   # (q, d_z, d_x, d_z)
    gamma = np.einsum("mj,jzxy->mzxy", rows, cross) / n
    a_f = np.einsum("zy,my->mz", bundle.omega_inv, f)
    d = bundle.G_hat[None] - np.einsum("mzxy,my->mzx", gamma, a_f)
    a_d = np.einsum("zy,myx->mzx", bundle.omega_inv, d)
    gram = np.einsum("mza,mzb->mab", d, a_d)
    b = np.einsum("mzx,mz->mx", d, a_f)
    x, ok = stack_solve(gram, b)
    return n * np.maximum(np.einsum("mk,mk->m", b, x), 0.0), ok, d


def _score_draws(bundle: JacobianBundle, rows: np.ndarray, f: np.ndarray, n: int):
    """LM*(g) over ``rows``, whose last row is g = iota; the number of
    singular draws other than iota; and the bundle with D_hat and rk read
    from the iota row. A singular iota row is a NumericalError."""
    lm, ok, d = _lm_rows(bundle, rows, f, n)
    raise_singular({JACOBIAN_GRAM: ok}, row=-1)
    d_hat = d[-1]
    rk = float(ar_squares(d_hat.T, n, bundle.omega_inv)[0]) if d_hat.shape[1] == 1 else None
    return lm, int((~ok[:-1]).sum()), replace(bundle, D_hat=d_hat, rk=rk)


def lm_statistic(
    design: PartialledDesign, restricted_ols: RestrictedOlsFit
) -> tuple[float, JacobianBundle]:
    """Score statistic projecting the standardized mean score onto the
    standardized orthogonalized Jacobian: the draw at g = iota alone."""
    s, omega_inv = null_scores(design, restricted_ols)
    iota = np.ones((1, design.q))
    bundle = _jacobian_bundle(design, s, omega_inv)
    lm, _, bundle = _score_draws(bundle, iota, signed_means(s, iota, design.n), design.n)
    return float(lm[-1]), bundle


def cqlr_statistic(ar_cr_sq, lm, rk: float):
    """Closed-form conditional QLR combination, elementwise over draws.

    ``ar_cr_sq`` is the squared CCE-weighted AR statistic (the quadratic
    form). Collapses to ar_cr_sq when lm equals it, and to lm as rk grows.
    """
    if min(np.min(ar_cr_sq), np.min(lm), rk) < 0.0:
        raise InputError("cqlr inputs must be nonnegative")
    gap = ar_cr_sq - rk
    return 0.5 * (gap + np.sqrt(gap * gap + 4.0 * lm * rk))


def full_vector_tests(
    dataset: ClusteredDataset, design: PartialledDesign, beta_0: np.ndarray, names,
    sign_set: SignSet, alpha: float, lam: float,
) -> dict:
    """The full-vector tests among ``names`` from one restricted fit at
    ``beta_0`` and one stack f*(g) over the sign rows and g = iota.

    ar-cr maps to an InputError unless q > d_z, score-wald (restriction
    lam beta = lam beta_0) to one when Q_ZX = 0, and the CCE-weighted AR
    tests to a NumericalError when the null-imposed CCE is singular. A
    score-side failure fails lm and cqlr only. score-wald is decided on
    the unscaled norms, where a tie resolves as in ar, then scaled by
    |lam / Q_ZX|.
    """
    n, d_z = dataset.n, dataset.d_z
    s, a_cr = null_scores(design, restricted_ols_fit(dataset, beta_0))
    rows = np.vstack([sign_set.vectors, np.ones((1, dataset.q))])
    f = signed_means(s, rows, n)
    # squared AR norms under A_cr (True) or I (False), each formed once
    ar_sq = cache(lambda cr: ar_squares(f, n, a_cr if cr else np.eye(d_z)))

    out, draws, n_singular = {}, {}, 0
    for name in names:
        if name == "ar-cr" and dataset.q <= d_z:
            out[name] = InputError("studentized AR needs more clusters than instruments (q > d_z)")
        elif name == "score-wald" and design.Q_ZX[0, 0] == 0.0:
            out[name] = InputError("unidentified Jacobian (Zt'X = 0)")
        elif name in CCE_WEIGHTED and a_cr is None:
            out[name] = NumericalError("singular null-imposed CCE (q <= d_z or degenerate scores)")
        elif name not in SCORE:
            draws[name] = np.sqrt(ar_sq(name in CCE_WEIGHTED))
    if score := [name for name in names if name in SCORE]:
        try:
            if "cqlr" in score and dataset.d_x != 1:
                raise InputError("cqlr is only defined for a single endogenous regressor here")
            if dataset.q <= d_z:
                raise InputError("score-projection bootstrap needs q > d_z")
            bundle = _jacobian_bundle(design, s, a_cr)
            draws["lm"], n_singular, bundle = _score_draws(bundle, rows, f, n)
            if "cqlr" in score:
                # at an exact null fit the identity stands in for A_cr
                draws["cqlr"] = cqlr_statistic(ar_sq(a_cr is not None), draws["lm"], bundle.rk)
        except (NumericalError, InputError) as exc:
            out.update(dict.fromkeys(score, exc))

    for name in [name for name in names if name not in out]:
        stat, boot = float(draws[name][-1]), draws[name][:-1]
        if name == "ar-cr-asymptotic":
            cv = chi2_quantile(1.0 - alpha, d_z)
            out[name] = AsymptoticArResult(
                statistic_sq=stat**2, critical_value=cv, reject=bool(stat**2 > cv),
                alpha=alpha, df=d_z,
            )
            continue
        out[name] = finish_test(name, stat, boot, sign_set, alpha,
                                n_singular=n_singular if name in SCORE else 0)
        if name == "score-wald":
            res, scale = out[name], abs(lam / float(design.Q_ZX[0, 0]))
            out[name] = replace(
                res, statistic=scale * res.statistic, boot_stats=scale * res.boot_stats,
                critical_value=scale * res.critical_value, estimator="tsls",
            )
    return {name: out[name] for name in names}
