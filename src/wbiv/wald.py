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

Step 4 never forms X*(g) and y*(g). Every moment a draw needs is affine in
g, because the signs are constant within a cluster and g_j^2 = 1, so
:class:`_MomentEngine` computes per-cluster cross moments once and each sign
vector costs a few q-term contractions (the reduction of Roodman, Nielsen,
MacKinnon and Webb's "Fast and wild"). The test suite checks it against an
observation-level refit per sign vector (``tests/wrec_reference.py``).

The draws go through the same stacked algebra as a sample fit: the k-class
routine of :mod:`kclass` and the CCE sandwich of :mod:`cce`, with the one
singular rule of :func:`data.stack_solve`. The sample statistics are the
draw at g = iota, which :func:`wrec_run` appends to the sign rows, and every
sum over a draw row follows the draw-stack rule of :mod:`data`, so each
statistic is bitwise its own iota draw, as in the randomization-test view
of Canay, Santos and Shaikh (2021). A singular draw reads 0.0 and counts in
``n_singular``; a singular iota draw is a NumericalError.

The score-form Wald bootstrap (score-wald) is not a WREC test: it is the
unstudentized AR test scaled by a constant, and lives in :mod:`ar`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cce import cce_sandwich
from .data import ClusteredDataset, Hypothesis, PartialledDesign, cluster_cross, raise_singular
from .exceptions import InputError, NumericalError
from .inference import SignSet, finish_test, prepare_test
from .kclass import (
    KCLASS_SYSTEM,
    LIML_PENCIL,
    KClassFit,
    fit_method,
    kclass_beta,
    kclass_forms,
    kclass_kappa,
    restricted_kclass_fit,
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


def _build_zbar(dataset: ClusteredDataset, design: PartialledDesign) -> np.ndarray:
    n, q, d_z = dataset.n, dataset.q, dataset.d_z
    zbar = np.zeros((n, q * d_z))
    for j in range(q):
        sl = dataset.cluster_slice(j)
        zbar[sl, j * d_z : (j + 1) * d_z] = design.Z_tilde[sl]
    return zbar


def efficient_first_stage(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    resid_unrestricted: np.ndarray,
) -> EfficientFirstStage:
    """Full-sample OLS of X on (Zbar, W, unrestricted residual).

    The residual regressor must be the unrestricted one; swapping in the
    null-restricted residual breaks the power properties of the test.
    """
    n, q, d_z, d_w = dataset.n, dataset.q, dataset.d_z, dataset.d_w
    cols = q * d_z + d_w + 1
    if n < cols:
        raise InputError(
            f"first stage needs n >= q*d_z + d_w + 1 = {cols} rows, have {n}"
        )
    zbar = _build_zbar(dataset, design)
    regs = np.column_stack([zbar, dataset.W, resid_unrestricted])
    coef, _, rank, _ = np.linalg.lstsq(regs, dataset.X, rcond=None)
    if rank < cols:
        raise NumericalError("rank-deficient first-stage regressor matrix")
    pi_zbar = coef[: q * d_z]
    pi_w = coef[q * d_z : q * d_z + d_w]
    pi_eps = coef[q * d_z + d_w]
    fitted = zbar @ pi_zbar + dataset.W @ pi_w
    return EfficientFirstStage(
        pi_zbar=pi_zbar,
        pi_w=pi_w,
        pi_eps=np.atleast_1d(pi_eps),
        v_tilde=dataset.X - fitted,
        fitted=fitted,
    )


# ---------------------------------------------------------------------------
# Bootstrap engine
# ---------------------------------------------------------------------------


class _MomentEngine:
    """Per-cluster cross-moment reduction of the bootstrap.

    With P = [fitted : fitted@beta_r + W@gamma_r] and S = [v : v@beta_r +
    eps_r], the bootstrap data are [X* : y*] = P + diag(g) S columnwise, so
    every Gram block the k-class solve and the bootstrap CCE need is an
    affine function of g with per-cluster matrix coefficients. Those
    coefficients are computed once; each sign vector then costs a handful
    of q-term contractions, and the draws go through the stacked k-class
    routine and CCE sandwich that the sample uses.
    """

    def __init__(
        self,
        dataset: ClusteredDataset,
        design: PartialledDesign,
        first_stage: EfficientFirstStage,
        restricted_fit: KClassFit,
        method: str,
        fuller_c: float,
    ):
        self.design = design
        self.n = dataset.n
        self.d_x = dataset.d_x
        self.d_z = dataset.d_z
        self.d_w = dataset.d_w
        self.method = method
        self.fuller_c = fuller_c

        h = first_stage.fitted
        v = first_stage.v_tilde
        beta_r = restricted_fit.beta_hat_r
        p_mat = np.column_stack([h, h @ beta_r + dataset.W @ restricted_fit.gamma_hat_r])
        s_mat = np.column_stack([v, v @ beta_r + restricted_fit.resid_restricted])

        zt, u_w, u_t = design.Z_tilde, design.basis_W, design.basis_Zt
        starts = design.cluster_starts
        self.zt_p = zt.T @ p_mat
        self.zt_s_by = cluster_cross(zt, s_mat, starts)
        self.zpw_by = cluster_cross(zt, np.column_stack([p_mat, dataset.W]), starts)
        self.uw_p = u_w.T @ p_mat
        self.uw_s_by = cluster_cross(u_w, s_mat, starts)
        self.ut_p = u_t.T @ p_mat
        self.ut_s_by = cluster_cross(u_t, s_mat, starts)
        self.pp_ss = p_mat.T @ p_mat + s_mat.T @ s_mat
        ps_by = cluster_cross(p_mat, s_mat, starts)
        self.ps_sym_by = ps_by + ps_by.transpose(0, 2, 1)

    def distributions(self, signs: np.ndarray, hypothesis: Hypothesis, want_cr: bool):
        """The plain and, with ``want_cr``, the CCE-studentized statistic for
        each sign row, and the singular checks of every row (what -> ok
        flags). A singular row reads 0.0. The last row is g = iota, the
        sample, whose clamped LIML kappa the sample fit has already
        reported; the clamp warning counts the other rows."""
        n, d_x = self.n, self.d_x
        lam, lam0 = hypothesis.lambda_beta, hypothesis.lambda_0
        g = np.asarray(signs, dtype=np.float64)

        # U_Zt'[X* : y*], U_W'[X* : y*] and [X* : y*]'[X* : y*]: base + sum_j g_j by[j]
        ut_all = self.ut_p + np.einsum("mj,j...->m...", g, self.ut_s_by)
        uw_all = cross = None
        if want_cr or self.method != "tsls":
            uw_all = self.uw_p + np.einsum("mj,j...->m...", g, self.uw_s_by)
        if self.method != "tsls":
            cross = self.pp_ss + np.einsum("mj,j...->m...", g, self.ps_sym_by)
        p, mw = kclass_forms(ut_all, cross, uw_all)
        kappa, ok_kappa, clamped = kclass_kappa(
            self.method, p, mw, n, self.d_z, self.d_w, self.fuller_c
        )
        warn_clamped(clamped[:-1])
        beta, ok_beta = kclass_beta(kappa, p, mw)
        checks = {LIML_PENCIL: ok_kappa, KCLASS_SYSTEM: ok_beta}
        dev = np.einsum("ma,ar->mr", beta, lam) - lam0[None]
        valid = ok_kappa & ok_beta
        stats = np.sqrt(n * np.maximum(np.einsum("mr,mr->m", dev, dev), 0.0))
        stats[~valid] = 0.0
        if not want_cr:
            return stats, None, checks

        # y* - X* beta* - W gamma* has coefficients (-beta*, 1, -gamma*) on
        # [X* : y* : W], with gamma* from U_W'(y* - X* beta*) as in
        # design.proj_w_coef
        coef = np.column_stack([-beta, np.ones(len(beta))])
        gamma = self.design.w_coef((uw_all @ coef[:, :, None])[:, :, 0])
        # Per-cluster bootstrap scores: only the own-cluster sign enters.
        flipped = g[:, :, None] * np.einsum("jzk,mk->mjz", self.zt_s_by, coef)
        scores = np.einsum("jzk,mk->mjz", self.zpw_by, np.column_stack([coef, -gamma])) + flipped
        omega = scores.transpose(0, 2, 1) @ scores / n
        zt_x_by = self.zt_s_by[:, :, :d_x]
        q_zx = (self.zt_p[:, :d_x] + np.einsum("mj,j...->m...", g, zt_x_by)) / n
        bundle, cce_checks = cce_sandwich(q_zx, self.design.Q_ZZ, omega, lam)
        checks.update(cce_checks)
        valid &= np.logical_and.reduce(list(cce_checks.values()))
        a_dev = np.einsum("mr,mrs->ms", dev, bundle.A_r_CR)
        stats_cr = np.sqrt(n * np.maximum(np.einsum("ms,ms->m", a_dev, dev), 0.0))
        stats_cr[~valid] = 0.0
        return stats, stats_cr, checks


@dataclass(frozen=True)
class WrecRun:
    """Everything one WREC pass produces; both statistics share the draws."""

    fit: KClassFit
    statistic: float
    statistic_cr: float | None
    boot_stats: np.ndarray
    boot_stats_cr: np.ndarray | None
    sign_set: SignSet
    n_singular: int


def wrec_run(
    dataset: ClusteredDataset,
    hypothesis: Hypothesis,
    method: str = "tsls",
    sign_set: SignSet | None = None,
    fuller_c: float = 1.0,
    design: PartialledDesign | None = None,
    want_cr: bool = True,
) -> WrecRun:
    """One full WREC pass computing the plain and CCE-studentized statistics.

    Each sample statistic is the draw at g = iota, appended to the sign rows
    and computed with them. A singular iota draw is a NumericalError.
    """
    sign_set, design = prepare_test(dataset, sign_set, design)
    fit = fit_method(dataset, design, method, fuller_c)
    fit = restricted_kclass_fit(dataset, design, fit, hypothesis)
    first_stage = efficient_first_stage(dataset, design, fit.resid_unrestricted)
    eng = _MomentEngine(dataset, design, first_stage, fit, method, fuller_c)
    signs = np.vstack([sign_set.vectors, np.ones((1, dataset.q))])
    stats, stats_cr, checks = eng.distributions(signs, hypothesis, want_cr)
    raise_singular(checks, row=-1)
    singular = ~np.logical_and.reduce(list(checks.values()))[:-1]
    return WrecRun(
        fit=fit,
        statistic=float(stats[-1]),
        statistic_cr=None if stats_cr is None else float(stats_cr[-1]),
        boot_stats=stats[:-1],
        boot_stats_cr=None if stats_cr is None else stats_cr[:-1],
        sign_set=sign_set,
        n_singular=int(singular.sum()),
    )


def wald_tests(
    dataset: ClusteredDataset, design: PartialledDesign, hypothesis: Hypothesis, names,
    sign_set: SignSet, alpha: float, method: str, fuller_c: float,
) -> dict:
    """The wald and wald-cr tests among ``names`` from one WREC pass, which
    computes the CCE side only when wald-cr is asked for."""
    want_cr = "wald-cr" in names
    if want_cr and dataset.q <= hypothesis.d_r:
        raise InputError("studentized Wald needs more clusters than restrictions (q > d_r)")
    run = wrec_run(dataset, hypothesis, method, sign_set, fuller_c, design, want_cr=want_cr)
    draws = {
        "wald": (run.statistic, run.boot_stats),
        "wald-cr": (run.statistic_cr, run.boot_stats_cr),
    }
    return {
        name: finish_test(
            name, *draws[name], sign_set, alpha, estimator=method, n_singular=run.n_singular
        )
        for name in names
    }
