"""Wild restricted efficient cluster (WREC) bootstrap for Wald statistics.

The procedure, for a fitted k-class estimator and a linear restriction:

1. compute the null-restricted estimates and residuals, plus the unrestricted
   residuals;
2. interact the partialled instruments with the cluster dummies (Zbar);
3. regress X on (Zbar, W, unrestricted residual) over the full sample and form
   the first-stage residual v excluding the residual-coefficient term;
4. for each cluster sign vector g, rebuild X*(g) and y*(g) with the signs
   applied to v and to the restricted structural residual, then re-estimate
   with the original uninteracted instruments, re-solving kappa per draw;
5. compare the sample statistic with the ceil(m(1-alpha))-th order statistic
   of the bootstrap distribution, rejecting on strict exceedance.

Step 4 never forms X*(g) and y*(g). With h the first-stage fit,
[X* : y*] = P + diag(g) S columnwise for P = [h : h b_r + W gamma_r] and
S = [v : v b_r + eps_r], so every moment a draw needs is affine in g (the
signs are constant within a cluster and g_j^2 = 1): per-cluster cross
moments are formed once, and each sign vector costs a few q-term
contractions (the reduction of Roodman, Nielsen, MacKinnon and Webb's
"Fast and wild"). P and S are also linear in the restricted estimate b_r,
since W gamma_r = P_W (y - X b_r) and eps_r = M_W (y - X b_r):

    P = A_P T(b_r),  A_P = [h : P_W y : v - M_W X],
    S = A_S T(b_r),  A_S = [v : M_W y : M_W X - v],
    T(b) = [[I, 0], [0, 1], [0, -b]], of shape (2 d_x + 1, d_x + 1).

So a block of nulls is one pass (:func:`_wrec_draws`): the cross moments of
A_P and A_S are formed once, and T(b) carries them to each null, on the
right, and on both sides of the Gram blocks. The test suite checks the
draws against an observation-level refit per sign vector
(``tests/wrec_reference.py``).

The draws go through the same stacked algebra as a sample fit: the k-class
routine of :mod:`kclass` and the CCE sandwich of :mod:`cce`, with the one
singular rule of :func:`data.stack_solve`, held rows-last (the R = P M
draw rows of a block innermost). The sample statistics are the draw at g =
iota, which every WREC pass appends to the sign rows, and every sum over a
draw row follows the draw-stack rule of :mod:`data`, so each statistic is
bitwise its own iota draw, as in the randomization-test view of Canay,
Santos and Shaikh (2021); the plain draw at g = -iota, equal to it where
d_z = d_x and kappa = 1, takes its bits too. A singular draw reads 0.0 and
counts in ``n_singular``; a singular iota draw is a NumericalError.

The score-form Wald bootstrap (score-wald) is not a WREC test: it is the
unstudentized AR test scaled by a constant, and runs in
:func:`weakiv.full_vector_tests`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cce import cce_sandwich
from .data import ClusteredDataset, Hypothesis, PartialledDesign, cluster_cross, stack_solve
from .exceptions import InputError, NumericalError
from .inference import SignSet, finish_test, prepare_test, result_or_raise, sign_rows
from .kclass import (
    KCLASS_SYSTEM,
    LIML_PENCIL,
    KClassFit,
    fit_method,
    kclass_forms,
    kclass_kappa,
    kclass_system,
    restricted_betas,
    warn_clamped,
)


@dataclass(frozen=True)
class EfficientFirstStage:
    """Coefficients and residual of the interacted-instrument first stage.

    ``v_tilde`` drops the residual-coefficient term on purpose: the bootstrap
    regenerates X from the (Zbar, W) fit plus sign-flipped v, while ``pi_eps``
    is estimated only so the remaining coefficients are efficient.
    """

    pi_zbar: np.ndarray  # (q * d_z, d_x)
    pi_w: np.ndarray     # (d_w, d_x)
    pi_eps: np.ndarray   # (d_x,)
    v_tilde: np.ndarray  # (n, d_x)
    fitted: np.ndarray   # (n, d_x), equals X - v_tilde


def efficient_first_stage(
    dataset: ClusteredDataset, design: PartialledDesign, resid_unrestricted: np.ndarray,
) -> EfficientFirstStage:
    """Full-sample OLS of X on (Zbar, W, unrestricted residual), Zbar the
    instruments interacted with the cluster dummies.

    The residual regressor must be the unrestricted one; swapping in the
    null-restricted residual breaks the power properties of the test. It is
    therefore the same at every null of a block. Zbar is block-diagonal, so
    [Zbar : W : e : X] = blockdiag(Q_j) R, with R stacking the QR factors of
    each cluster's [Z_tilde_j : W_j : e_j : X_j]. ``lstsq`` on the small R
    gives the coefficients, singular values and rank rule of the n-row fit.
    """
    n, q, d_z, d_w = dataset.n, dataset.q, dataset.d_z, dataset.d_w
    qz, cols = q * d_z, q * d_z + d_w + 1
    if n < cols:
        raise InputError(f"first stage needs n >= q*d_z + d_w + 1 = {cols} rows, have {n}")
    zt, starts = design.Z_tilde, design.cluster_starts
    blocks = np.column_stack([zt, dataset.W, resid_unrestricted, dataset.X])
    r_j = [np.linalg.qr(blocks[a:b], mode="r") for a, b in zip(starts[:-1], starts[1:])]
    r = np.vstack(r_j)
    r_z = np.zeros((len(r), q, d_z))  # each R_j's Z_tilde columns in Zbar's block j
    r_z[np.arange(len(r)), np.repeat(np.arange(q), [len(rj) for rj in r_j])] = r[:, :d_z]
    r = np.column_stack([r_z.reshape(len(r), qz), r[:, d_z:]])
    coef, _, rank, _ = np.linalg.lstsq(r[:, :cols], r[:, cols:], rcond=n * np.finfo(float).eps)
    if rank < cols:
        raise NumericalError("rank-deficient first-stage regressor matrix")
    pi_zbar, pi_w = coef[:qz], coef[qz : qz + d_w]
    pi_by_row = np.repeat(pi_zbar.reshape(q, d_z, -1), design.cluster_sizes, axis=0)
    fitted = np.einsum("nz,nzx->nx", zt, pi_by_row) + dataset.W @ pi_w
    return EfficientFirstStage(pi_zbar=pi_zbar, pi_w=pi_w, pi_eps=coef[qz + d_w],
                               v_tilde=dataset.X - fitted, fitted=fitted)


# ---------------------------------------------------------------------------
# Bootstrap engine
# ---------------------------------------------------------------------------


def _wrec_draws(
    dataset: ClusteredDataset, design: PartialledDesign, fit: KClassFit,
    first_stage: EfficientFirstStage, beta_r: np.ndarray, block: Hypothesis, rows: np.ndarray,
    fuller_c: float, want_cr: bool,
):
    """The moment engine of a block of nulls: the plain and, with
    ``want_cr``, the CCE-studentized statistic of ``fit``'s method at each
    null of ``block``, whose restricted estimate is a row of ``beta_r`` (P,
    d_x), for each sign row of ``rows`` (1 or P, M, q), and the singular
    checks (what -> ok flags), each of shape (P, M); and per null, its
    count of clamped LIML kappas and whether its iota kappa was clamped.
    M_W [y : X] is the sample fit's.

    Every coefficient is a cross moment of A_P or A_S, pooled or per
    cluster, formed once for the block; the per-null work is the T(b)
    products and the draw rows, held rows-last (R = P M), and Zt'X* is
    contracted once per sign set. A singular row reads 0.0. The last row is
    g = iota, the sample, whose clamped LIML kappa the sample fit has
    already reported; the clamp warning and the counts take the other rows
    of every null, once.
    """
    n, q, d_x, d_z, d_w = dataset.n, dataset.q, dataset.d_x, dataset.d_z, dataset.d_w
    P, M, k, method = len(beta_r), rows.shape[1], 2 * d_x + 1, fit.method
    lam, zt, starts = block.lambda_beta, design.Z_tilde, design.cluster_starts
    h, v = first_stage.fitted, first_stage.v_tilde
    e_y, e_x = fit.exogenous[:, 0], fit.exogenous[:, 1:]
    # A = [A_P : A_S]
    a = np.column_stack([h, dataset.y - e_y, v - e_x, v, e_y, e_x - v])
    # per-cluster cross moments [U_Zt : Zt : A]'A and U_W'[A : Zt]
    by = cluster_cross(np.column_stack([design.basis_Zt, zt, a]), a, starts)
    by_w = cluster_cross(design.basis_W, np.column_stack([a, zt]), starts)
    u_a = np.concatenate([by[:, :d_z], by_w[..., : 2 * k]], axis=1)  # [U_Zt : U_W]'A
    zt_a, a_a = by[:, d_z : 2 * d_z], by[:, 2 * d_z :]

    # A coefficient of the draws stacks its pooled A_P term (A_P'A_P +
    # A_S'A_S for the Gram block) over its per-cluster A_S terms, (q + 1,
    # ...), so the sign rows led by a row of ones contract it to base +
    # sum_j g_j by[j]. T(b) takes it to each null, (P, q + 1, ...).
    signs = np.ones((len(rows), q + 1, M))
    signs[:, 1:] = rows.transpose(0, 2, 1)
    t = np.zeros((P, 1, k, d_x + 1))
    t[..., : d_x + 1, :] = np.eye(d_x + 1)
    t[:, 0, d_x + 1 :, d_x] = -beta_r

    def stacked(pooled, by_j):
        return np.concatenate([pooled.sum(axis=0)[None], by_j])

    def draws_of(coef):
        # coefficients (L, q + 1, ...), L = 1 or P, at every draw row of the
        # L sign sets: (..., L M). With the columns outermost in the operand,
        # numpy lays the output out rows-last and sweeps each output row once
        lead = len(coef)
        x = np.ascontiguousarray(np.moveaxis(coef.reshape(lead, q + 1, -1), -1, 0))
        out = np.einsum("cpj,pjm->cpm", x, np.broadcast_to(signs, (lead, q + 1, M)))
        return out.reshape(coef.shape[2:] + (lead * M,))

    # U_Zt'[X* : y*], U_W'[X* : y*] when read, and [X* : y*]'[X* : y*] unless TSLS
    basis = slice(0, d_z + d_w if want_cr or method != "tsls" else d_z)
    u_coef = stacked(u_a[:, basis, :k], u_a[:, basis, k:]) @ t
    coefs = [u_coef.reshape(P, q + 1, -1)]
    if method != "tsls":
        ps = a_a[:, :k, k:]
        gram = stacked(a_a[:, :k, :k] + a_a[:, k:, k:], ps + ps.transpose(0, 2, 1))
        coefs.append((t.swapaxes(-1, -2) @ gram @ t).reshape(P, q + 1, -1))
    drawn = draws_of(np.concatenate(coefs, axis=2))
    d_u, R = u_coef.shape[2], P * M
    u_all = drawn[: d_u * (d_x + 1)].reshape(d_u, d_x + 1, R)
    cross = None if method == "tsls" else drawn[d_u * (d_x + 1) :].reshape(d_x + 1, d_x + 1, R)
    ut_all, uw_all = u_all[:d_z], u_all[d_z:]
    p, m_w = kclass_forms(ut_all, cross, uw_all)
    kappa, ok_kappa, clamped = kclass_kappa(method, p, m_w, n, d_z, d_w, fuller_c)
    clamped = clamped.reshape(P, M)
    warn_clamped(clamped[:, :-1])
    beta, ok_beta = stack_solve(*kclass_system(kappa, p, m_w))
    checks = {LIML_PENCIL: ok_kappa, KCLASS_SYSTEM: ok_beta}
    dev = np.einsum("ar,aR->rR", lam, beta) - np.repeat(block.lambda_0.T, M, axis=1)
    valid = ok_kappa & ok_beta
    stats = np.sqrt(n * np.maximum(np.einsum("rR,rR->R", dev, dev), 0.0))
    stats = np.where(valid, stats, 0.0).reshape(P, M)
    if d_z == d_x and (method in ("tsls", "liml") or (method, d_z) == ("ba", 2)):
        # kappa = 1: each -iota draw is the statistic (docs/decisions.md)
        stats = np.where((rows == -1.0).all(axis=2) & valid.reshape(P, M), stats[:, -1:], stats)
    stats_cr = None
    if want_cr:
        # r* = y* - X* beta* has coefficients (-beta*, 1) on [X* : y*] and
        # T(b) (-beta*, 1) on A; the residual r* - W gamma* = r* - P_W r*
        # then has cluster scores [Zt'A]_j T(b) (-beta*, 1) - [Zt'U_W]_j U_W'r*:
        # coefficients (T(b) (-beta*, 1), U_W'r*) on [Zt'A_P : -Zt'U_W]_j, U_W
        # without its k_within columns D_j / sqrt(n_j), each cluster's Zt' 1 = 0
        kw = design.k_within
        coef = np.empty((k + d_w - kw, R))
        coef[:d_x], coef[d_x], coef[d_x + 1 : k] = -beta, 1.0, np.repeat(-beta_r.T, M, axis=1)
        np.einsum("wkR,kR->wR", uw_all[kw:], coef[: d_x + 1], out=coef[k:])
        zt_pw = np.concatenate([zt_a[..., :k], -by_w[:, kw:, 2 * k :].transpose(0, 2, 1)], axis=2)
        scores = np.einsum("jzk,kR->jzR", zt_pw, coef)
        # the A_S part flipped by the own-cluster sign, (q, 1, L, M) of the rows
        flipped = np.einsum("jzk,kR->jzR", zt_a[..., k:], coef[:k])
        flipped.reshape(q, d_z, P, M)[...] *= signs[:, 1:].transpose(1, 0, 2)[:, None]
        scores += flipped
        omega = np.einsum("jaR,jbR->abR", scores, scores) / n
        # Zt'X* = Zt'h + sum_j g_j [Zt'v]_j does not depend on the null: one
        # contraction per sign set, broadcast against each null's Omega
        zx = stacked(zt_a[..., :d_x], zt_a[..., k : k + d_x])
        q_zx = draws_of(np.broadcast_to(zx, (len(signs),) + zx.shape)) / n
        bundle, cce_checks = cce_sandwich(q_zx.reshape(d_z, d_x, len(signs), M), design.Q_ZZ,
                                          omega.reshape(d_z, d_z, P, M), lam)
        for what, ok in cce_checks.items():
            checks[what] = np.broadcast_to(ok, (P, M)).reshape(-1)
            valid &= checks[what]
        a_dev = np.einsum("rR,rsR->sR", dev, bundle.A_r_CR.reshape(block.d_r, block.d_r, R))
        stats_cr = np.sqrt(n * np.maximum(np.einsum("sR,sR->R", a_dev, dev), 0.0))
        stats_cr = np.where(valid, stats_cr, 0.0).reshape(P, M)
    checks = {what: ok.reshape(P, M) for what, ok in checks.items()}
    return stats, stats_cr, checks, clamped[:, :-1].sum(axis=1), clamped[:, -1]


@dataclass(frozen=True)
class WrecRun:
    """Everything one WREC pass produces; both statistics share the draws."""

    statistic: float
    statistic_cr: float | None
    boot_stats: np.ndarray
    boot_stats_cr: np.ndarray | None
    n_singular: int


def wrec_run(
    dataset: ClusteredDataset, hypothesis: Hypothesis, method: str = "tsls",
    sign_set: SignSet | None = None, fuller_c: float = 1.0,
    design: PartialledDesign | None = None, want_cr: bool = True,
) -> WrecRun:
    """One full WREC pass computing the plain and CCE-studentized statistics:
    :func:`wald_tests` at one null, its failure raised."""
    sign_set, design = prepare_test(dataset, sign_set, design)
    block = Hypothesis(hypothesis.lambda_beta, hypothesis.lambda_0[None])
    names = ["wald", "wald-cr"] if want_cr else ["wald"]
    out = wald_tests(dataset, design, block, names, [sign_set], 0.1, method, fuller_c)[0]
    plain = result_or_raise(out["wald"])
    cr = result_or_raise(out["wald-cr"]) if want_cr else None
    return WrecRun(statistic=plain.statistic, boot_stats=plain.boot_stats,
                   statistic_cr=None if cr is None else cr.statistic,
                   boot_stats_cr=None if cr is None else cr.boot_stats, n_singular=plain.n_singular)


def wald_tests(
    dataset: ClusteredDataset, design: PartialledDesign, block: Hypothesis, names,
    sign_sets: list, alpha: float, method: str, fuller_c: float,
) -> list[dict]:
    """The wald and wald-cr tests among ``names`` at each null of ``block``
    (lambda_0 of shape (P, d_r)), one dict per null, with ``sign_sets``
    holding each null's sign set. wald-cr with q <= d_r is an InputError.
    The block is one WREC pass: the k-class fit, the efficient first stage
    and the restricted estimates, then the moment engine once, with the CCE
    side only when wald-cr is asked for; each test decides all nulls at
    once. A null whose g = iota draw is singular maps both tests to a
    NumericalError naming the first check that draw fails.
    """
    want_cr = "wald-cr" in names
    if want_cr and dataset.q <= block.d_r:
        raise InputError("studentized Wald needs more clusters than restrictions (q > d_r)")
    fit = fit_method(dataset, design, method, fuller_c)
    first_stage = efficient_first_stage(dataset, design, fit.resid_unrestricted)
    beta_r = restricted_betas(fit, block.lambda_beta, block.lambda_0)
    stats, stats_cr, checks, n_clamped, kappa_clamped = _wrec_draws(
        dataset, design, fit, first_stage, beta_r, block, sign_rows(sign_sets), fuller_c, want_cr)
    iota = np.array([ok[:, -1] for ok in checks.values()])
    errors = np.array([None] + [NumericalError(f"singular {what}") for what in checks])
    failed = errors[np.where(iota.all(axis=0), 0, iota.argmin(axis=0) + 1)].tolist()
    n_singular = (~np.logical_and.reduce(list(checks.values()))[:, :-1]).sum(axis=1)
    draws = {"wald": stats, "wald-cr": stats_cr}
    # a failed null's draws are decided too, then its failure reported
    decided = {name: finish_test(name, draws[name], sign_sets, alpha, method, n_singular,
                                 n_clamped, kappa_clamped) for name in names}
    return [{name: exc or decided[name][p] for name in names} for p, exc in enumerate(failed)]
