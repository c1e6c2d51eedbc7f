"""The one full-vector pass, and the cluster-robust LM and conditional QLR
statistics it runs beside the AR tests.

:func:`full_vector_tests` runs a block of nulls from one restricted fit and
one stack of signed means over the nulls and the sign rows, g = iota last.
Every statistic reads it: the AR norms under I and the inverse null-imposed
CCE read the signed score means f*(g, b), and LM and CQLR also read the
Jacobian correction Gamma*(g, b). Each test's statistic, and D_hat and rk,
are read from the last row.

LM and CQLR orthogonalize the Jacobian against the null-imposed scores
before projecting, so they stay usable under weak identification. Their
draws hold G_hat (the design's Q_ZX), Omega_hat^{-1} and rk at their
sample values, which the helpers below take as arrays. Like
f*(g, b), Gamma*(g, b) = sum_j g_j [Zt X']_j s_j(b)' / n is affine in the
null: Gamma_a(g) - Gamma_C(g) b, with pieces [Zt X']_j (x) [a_j : C_j]
(:func:`_jacobian_pieces`) contracted with the sign rows in the same
:func:`ar.signed_means` call as the score pieces, once per block. Each null
then costs elementwise work only, and all Gram matrices D*'A D* are solved
in one :func:`data.stack_solve`. Every sum over a draw row follows the
draw-stack rule of :mod:`data`, so :func:`lm_statistic` (g = iota alone)
gives the pass's last row bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .ar import (
    AsymptoticArResult, ar_squares, at_nulls, chi2_quantile, null_scores, signed_means
)
from .data import ClusteredDataset, Hypothesis, PartialledDesign, stack_solve
from .exceptions import InputError, NumericalError
from .inference import finish_test, sign_rows
from .kclass import RestrictedOlsFit, restricted_ols_fit

# What is singular when the iota row fails, as the NumericalError names it.
JACOBIAN_GRAM = "orthogonalized Jacobian quadratic form (near-unidentified model)"
# The tests whose draws come from the orthogonalized Jacobian.
SCORE = ("lm", "cqlr")
# The AR tests weighted by the inverse null-imposed CCE.
CCE_WEIGHTED = ("ar-cr", "ar-cr-asymptotic")


def _jacobian_pieces(design: PartialledDesign, pieces: np.ndarray) -> np.ndarray:
    """Per cluster, the score pieces [a_j : C_j] of :func:`ar.null_scores`
    (``pieces``, (q, d_z, 1 + d_x)) stacked over the Jacobian pieces
    [Zt X']_j (x) [a_j : C_j] (d_z d_x d_z rows): (q, d_z (1 + d_z d_x),
    1 + d_x), each row affine in the null with 1 + d_x coefficients. At the
    nulls ``beta_0`` their signed means, ``at_nulls(signed_means(stacked,
    rows, n), beta_0)``, are [f*(g, b) : Gamma*(g, b)]."""
    if design.q <= design.d_z:
        # q = d_z makes Gamma_hat Omega^{-1} f_hat = G_hat an identity, so
        # D_hat is rounding noise; below it Omega is singular
        raise NumericalError("rank-deficient orthogonalized Jacobian (q <= d_z)")
    zx = design.Q_ZX_j * design.cluster_sizes[:, None, None]   # (q, d_z, d_x) [Zt X']_j
    jacobian = zx[..., None, None] * pieces[:, None, None]      # (q, d_z, d_x, d_z, 1 + d_x)
    return np.concatenate([pieces, jacobian.reshape(design.q, -1, pieces.shape[-1])], axis=1)


def _lm_rows(g_hat: np.ndarray, omega_inv: np.ndarray, means: np.ndarray, n: int):
    """Per sign row g with signed means [f*(g) : Gamma*(g)] (``means``, of
    the stacked pieces at the nulls): LM*(g) = n c'(D*'A D*)^{-1} c with
    c = D*'A f*, the ok flags of the stacked solve, and the orthogonalized
    Jacobian D*(g) = G - Gamma*(g) A f*(g), where G = ``g_hat`` (d_z, d_x),
    A = Omega^{-1} = ``omega_inv`` and Gamma*(g) = sum_j g_j [Zt X']_j s_j' / n.
    A draw whose Gram matrix is singular reads 0.0. For a block, ``means``
    and ``omega_inv`` take a leading null axis.

    Each entry of f*, Gamma*, A f*, D* and the Gram matrix is an array over
    the nulls and draw rows, the rows innermost, and every product is a sum
    over d_z or d_x of elementwise products, taken in order."""
    d_z, d_x = g_hat.shape
    r = range(d_z)
    terms = np.ascontiguousarray(np.moveaxis(means, -1, 0))
    f, gamma = terms[:d_z], terms[d_z:].reshape((d_z, d_x, d_z) + terms.shape[1:])
    a = np.moveaxis(omega_inv, (-2, -1), (0, 1))[..., None]          # A[z, y] per null
    a_f = sum(a[:, y] * f[y] for y in r)
    g_hat = g_hat.reshape(g_hat.shape + (1,) * (means.ndim - 1))
    d = g_hat - sum(gamma[:, :, y] * a_f[y] for y in r)                  # D*[z, x]
    a_d = sum(a[:, y, None] * d[y] for y in r)
    gram = sum(d[z][:, None] * a_d[z] for z in r)                     # D*'A D*[x, x']
    c = sum(d[z] * a_f[z] for z in r)
    x, ok = stack_solve(gram, c)
    lm = n * np.maximum(sum(c[k] * x[k] for k in range(d_x)), 0.0)
    return lm, ok, np.moveaxis(d, (0, 1), (-2, -1))


def _score_draws(g_hat, omega_inv, score_sums, means: np.ndarray, n: int, cce_ok=True):
    """LM*(g) over the rows of ``means``, whose last row is g = iota (see
    :func:`_lm_rows`); the number of singular draws other than iota; D_hat,
    the iota row of D*, and rk = n D_hat' omega_inv D_hat (None unless
    d_x = 1); and the NumericalError that fails the score tests (a singular
    iota row, or a singular null-imposed CCE, ``cce_ok`` False, with
    ``score_sums`` not zero), or None: each per null for a block."""
    lm, ok, d = _lm_rows(g_hat, omega_inv, means, n)
    d_hat = d[..., -1, :, :]
    one_x = d_hat.shape[-1] == 1
    rk = ar_squares(np.swapaxes(d_hat, -1, -2), n, omega_inv)[..., 0] if one_x else None
    degenerate = ~np.asarray(cce_ok) & score_sums.any(axis=(-2, -1))
    failure = np.where(degenerate, NumericalError("singular score covariance (degenerate scores)"),
                       np.where(ok[..., -1], None, NumericalError(f"singular {JACOBIAN_GRAM}")))
    return lm, (~ok[..., :-1]).sum(axis=-1), d_hat, rk, failure


def lm_statistic(design: PartialledDesign, restricted_ols: RestrictedOlsFit):
    """Score statistic projecting the standardized mean score onto the
    standardized orthogonalized Jacobian: the draw at g = iota alone, at the
    fit's one null. Returns (LM, D_hat (d_z, d_x), rk), rk None unless
    d_x = 1."""
    pieces, s, omega_inv, ok = null_scores(design, restricted_ols)
    beta_0 = np.atleast_2d(restricted_ols.beta_0)
    stacked = _jacobian_pieces(design, pieces)
    means = at_nulls(signed_means(stacked, np.ones((1, design.q)), design.n), beta_0)
    lm, _, d_hat, rk, failure = _score_draws(design.Q_ZX, omega_inv[0], s[0], means[0], design.n,
                                             ok[0])
    if failure.item() is not None:
        raise failure.item()
    return float(lm[-1]), d_hat, None if rk is None else float(rk)


def cqlr_statistic(ar_cr_sq, lm, rk):
    """Closed-form conditional QLR combination, elementwise over draws.

    ``ar_cr_sq`` is the squared CCE-weighted AR statistic (the quadratic
    form). Collapses to ar_cr_sq when lm equals it, and to lm as rk grows.
    """
    if min(np.min(ar_cr_sq), np.min(lm), np.min(rk)) < 0.0:
        raise InputError("cqlr inputs must be nonnegative")
    gap = ar_cr_sq - rk
    return 0.5 * (gap + np.sqrt(gap * gap + 4.0 * lm * rk))


def full_vector_tests(
    dataset: ClusteredDataset, design: PartialledDesign, block: Hypothesis, names,
    sign_sets: list, alpha: float,
) -> list[dict]:
    """The full-vector tests among ``names`` at each null beta_0 of the rows
    of ``block.lambda_0`` (P, d_x), one dict per null; ``sign_sets`` holds
    each null's sign set, all of one size. score-wald (d_x = 1) reads lambda
    beta = lambda_0 as beta_0 = lambda_0 / lambda, is decided as ar on the
    unscaled norms, then scaled by |lambda / Q_ZX|.

    ar-cr maps to an InputError unless q > d_z, score-wald to one when
    Q_ZX = 0, and the CCE-weighted AR tests to a NumericalError at a null
    whose null-imposed CCE is singular. A score-side failure fails lm and
    cqlr only. ar-cr-asymptotic alone reads only the g = iota row.
    """
    n, q, d_z, P = dataset.n, dataset.q, dataset.d_z, len(block.lambda_0)
    beta_0, lam = block.lambda_0, float(block.lambda_beta[0, 0])
    if "score-wald" in names:
        beta_0 = beta_0 / lam
    pieces, s, a_cr, cr_ok = null_scores(design, restricted_ols_fit(dataset, beta_0, design))
    # every draw is even in g, so a complete set runs on half its rows
    rows = sign_rows(sign_sets, 0 if set(names) == {"ar-cr-asymptotic"} else None, even=True)

    failed, n_singular, stacked = {}, None, None
    if score := [name for name in names if name in SCORE]:
        try:
            if "cqlr" in score and dataset.d_x != 1:
                raise InputError("cqlr is only defined for a single endogenous regressor here")
            if q <= d_z:
                raise InputError("score-projection bootstrap needs q > d_z")
            stacked = _jacobian_pieces(design, pieces)
        except (NumericalError, InputError) as exc:
            failed.update(dict.fromkeys(score, [exc] * P))
    # [f*(g, b) : Gamma*(g, b)], with the Jacobian correction only for lm and cqlr
    means = at_nulls(signed_means(pieces if stacked is None else stacked, rows, n), beta_0)
    f = means[..., :d_z]
    # squared AR norms under A_cr (True) or I (False), each formed once
    ar_sq = {cr: ar_squares(f, n, a_cr if cr else None)
             for cr in {name in CCE_WEIGHTED + ("cqlr",) for name in names if name != "lm"}}
    draws = {name: np.sqrt(ar_sq[name in CCE_WEIGHTED]) for name in names if name not in SCORE}

    if "ar-cr" in names and q <= d_z:
        exc = InputError("studentized AR needs more clusters than instruments (q > d_z)")
        failed["ar-cr"] = [exc] * P
    if "score-wald" in names and design.Q_ZX[0, 0] == 0.0:
        failed["score-wald"] = [InputError("unidentified Jacobian (Zt'X = 0)")] * P
    for name in set(CCE_WEIGHTED).intersection(names).difference(failed):
        failed[name] = np.where(cr_ok, None, NumericalError(
            "singular null-imposed CCE (q <= d_z or degenerate scores)"))
    if stacked is not None:
        draws["lm"], n_singular, _, rk, failure = _score_draws(design.Q_ZX, a_cr, s, means, n,
                                                               cr_ok)
        failed.update(dict.fromkeys(score, failure))
        if "cqlr" in score:
            # at an exact null fit the identity stands in for A_cr
            draws["cqlr"] = cqlr_statistic(ar_sq[True], draws["lm"], rk[:, None])

    # each test decides all nulls at once; a null's failure takes the place
    # of its result
    decided = {name: finish_test(name, draws[name], sign_sets, alpha,
                                 n_singular=n_singular if name in SCORE else None)
               for name in draws.keys() & set(names) - {"ar-cr-asymptotic"}}
    if "ar-cr-asymptotic" in names:
        chi2 = chi2_quantile(1.0 - alpha, d_z)
        decided["ar-cr-asymptotic"] = [
            AsymptoticArResult(statistic_sq=stat**2, critical_value=chi2,
                               reject=bool(stat**2 > chi2), alpha=alpha, df=d_z)
            for stat in draws["ar-cr-asymptotic"][:, -1].tolist()
        ]
    if "score-wald" in names and "score-wald" not in failed:
        scale = abs(lam / float(design.Q_ZX[0, 0]))
        decided["score-wald"] = [
            replace(r, statistic=scale * r.statistic, estimator="tsls",
                    boot_stats=scale * r.boot_stats, critical_value=scale * r.critical_value)
            for r in decided["score-wald"]
        ]
    none = [None] * P
    return [{name: failed.get(name, none)[p] or decided[name][p] for name in names}
            for p in range(P)]
