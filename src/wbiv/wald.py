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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ar import _ar_norms, check_weighting
from .cce import cce_matrix, cluster_score_sums
from .data import ClusteredDataset, Hypothesis, PartialledDesign, cluster_cross
from .exceptions import InputError, NumericalError
from .inference import (
    BootstrapTestResult,
    SignSet,
    bootstrap_pvalue,
    critical_value,
    finish_test,
    prepare_test,
)
from .kclass import (
    LIML_CLAMP_TOL,
    KClassFit,
    fit_method,
    restricted_kclass_fit,
    smallest_generalized_eigenvalue,
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


def wald_statistic(fit: KClassFit, hypothesis: Hypothesis, A_r: np.ndarray | None = None) -> float:
    """|| sqrt(n) (lambda' beta_hat - lambda_0) ||_{A_r}."""
    a_r = check_weighting(A_r, hypothesis.d_r)
    dev = hypothesis.lambda_beta.T @ fit.beta_hat - hypothesis.lambda_0
    return float(np.sqrt(fit.n * dev @ a_r @ dev))


# ---------------------------------------------------------------------------
# Bootstrap engine
# ---------------------------------------------------------------------------


def _stack_inv(a: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Invert a stack of small matrices where valid; mark failures in place."""
    if a.shape[-1] > 1:
        return _stack_solve(a, np.broadcast_to(np.eye(a.shape[-1]), a.shape).copy(), valid)
    out = np.zeros_like(a)
    vals = a[:, 0, 0]
    ok = valid & np.isfinite(vals) & (np.abs(vals) > 1e-300)
    out[ok, 0, 0] = 1.0 / vals[ok]
    valid &= ok
    return out


def _stack_solve(a: np.ndarray, b: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Solve a[i] x = b[i] for a stack of small systems; flag singular items."""
    out = np.zeros_like(b)
    if a.shape[-1] == 1:
        denom = a[:, 0, 0]
        ok = valid & np.isfinite(denom) & (np.abs(denom) > 1e-300)
        out[ok, 0] = b[ok, 0] / denom[ok]
        valid &= ok
        return out
    for i in np.nonzero(valid)[0]:
        try:
            x = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            valid[i] = False
            continue
        if not np.all(np.isfinite(x)):
            valid[i] = False
            continue
        out[i] = x
    return out


def _smallest_pencil_eig_2x2(a: np.ndarray, b: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Smallest generalized eigenvalue for stacks of symmetric 2x2 pencils."""
    det_b = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] ** 2
    c1 = a[:, 0, 0] * b[:, 1, 1] + a[:, 1, 1] * b[:, 0, 0] - 2.0 * a[:, 0, 1] * b[:, 0, 1]
    det_a = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] ** 2
    scale = np.abs(det_b)
    ok = valid & np.isfinite(det_b) & (scale > 1e-300)
    disc = np.maximum(c1 * c1 - 4.0 * det_b * det_a, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (c1 - np.sqrt(disc)) / (2.0 * det_b)
    lam = np.where(ok, lam, 0.0)
    valid &= ok & np.isfinite(lam)
    return lam


def _smallest_pencil_eig_loop(a: np.ndarray, b: np.ndarray, valid: np.ndarray) -> np.ndarray:
    lam = np.zeros(a.shape[0])
    for i in np.nonzero(valid)[0]:
        try:
            lam[i] = smallest_generalized_eigenvalue(a[i], b[i])
        except NumericalError:
            valid[i] = False
    return lam


class _MomentEngine:
    """Per-cluster cross-moment reduction of the bootstrap.

    With P = [fitted : fitted@beta_r + W@gamma_r] and S = [v : v@beta_r +
    eps_r], the bootstrap data are (X*, y*) = P + diag(g) S columnwise, so
    every Gram or cross moment needed by the k-class solve, the LIML pencil,
    and the bootstrap CCE is an affine function of g with per-cluster matrix
    coefficients. Those coefficients are computed once; each sign vector then
    costs a handful of q-term contractions.
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
        w = dataset.W
        starts = design.cluster_starts
        self.zt_p = zt.T @ p_mat
        self.zt_s_by = cluster_cross(zt, s_mat, starts)
        self.zp_by = cluster_cross(zt, p_mat, starts)
        self.uw_p = u_w.T @ p_mat
        self.uw_s_by = cluster_cross(u_w, s_mat, starts)
        self.ut_p = u_t.T @ p_mat
        self.ut_s_by = cluster_cross(u_t, s_mat, starts)
        self.w_p = w.T @ p_mat
        self.w_s_by = cluster_cross(w, s_mat, starts)
        self.zw_by = cluster_cross(zt, w, starts)
        self.pp = p_mat.T @ p_mat
        self.ss = s_mat.T @ s_mat
        ps_by = cluster_cross(p_mat, s_mat, starts)
        self.ps_sym_by = ps_by + ps_by.transpose(0, 2, 1)
        self.ww_factor = scipy.linalg.cho_factor(w.T @ w)
        self.q_zz_factor = scipy.linalg.cho_factor(design.Q_ZZ)

    def _combine(self, base: np.ndarray, by: np.ndarray, g: np.ndarray) -> np.ndarray:
        return base[None] + np.tensordot(g, by, axes=(1, 0))

    def kappa_star(self, g, cross, uw_all, ut_all, valid):
        """Bootstrap kappa per sign vector."""
        n, d_x, d_z = self.n, self.d_x, self.d_z
        m = g.shape[0]
        if self.method == "tsls":
            return np.ones(m)
        if self.method == "ba":
            return np.full(m, n / (n - d_z + 2))
        # LIML pencil on [y* : X*]: permute the combined-column order.
        perm = np.r_[d_x, np.arange(d_x)]
        uw_quad = np.einsum("mrk,mrl->mkl", uw_all, uw_all)
        ut_quad = np.einsum("mrk,mrl->mkl", ut_all, ut_all)
        a = (cross - uw_quad)[:, perm][:, :, perm]
        b = a - ut_quad[:, perm][:, :, perm]
        if d_x == 1:
            kappa = _smallest_pencil_eig_2x2(a, b, valid)
        else:
            kappa = _smallest_pencil_eig_loop(a, b, valid)
        n_clamped = int(np.sum(valid & (kappa < 1.0 - LIML_CLAMP_TOL)))
        if n_clamped:
            warnings.warn(
                f"clamped {n_clamped} bootstrap LIML kappa values below 1",
                RuntimeWarning,
                stacklevel=3,
            )
        kappa = np.where(valid & (kappa < 1.0 - LIML_CLAMP_TOL), 1.0, kappa)
        if self.method == "full":
            kappa = kappa - self.fuller_c / (n - d_z - self.d_w)
        return kappa

    def distributions(
        self,
        signs: np.ndarray,
        hypothesis: Hypothesis,
        a_r: np.ndarray,
        want_cr: bool,
    ) -> tuple[np.ndarray, np.ndarray | None, int]:
        n, d_x = self.n, self.d_x
        lam, lam0 = hypothesis.lambda_beta, hypothesis.lambda_0
        g = np.asarray(signs, dtype=np.float64)
        m = g.shape[0]
        valid = np.ones(m, dtype=bool)

        zt_all = self._combine(self.zt_p, self.zt_s_by, g)   # (m, d_z, d_x+1)
        ut_all = self._combine(self.ut_p, self.ut_s_by, g)
        cross = self.pp[None] + self.ss[None] + np.tensordot(g, self.ps_sym_by, axes=(1, 0))

        xpx = np.einsum("mza,mzb->mab", ut_all[:, :, :d_x], ut_all[:, :, :d_x])
        xpy = np.einsum("mza,mz->ma", ut_all[:, :, :d_x], ut_all[:, :, d_x])

        if self.method == "tsls":
            lhs, rhs = xpx, xpy
            uw_all = None
        else:
            uw_all = self._combine(self.uw_p, self.uw_s_by, g)
            kappa = self.kappa_star(g, cross, uw_all, ut_all, valid)
            mu = kappa - 1.0
            uw_x = uw_all[:, :, :d_x]
            xmx = cross[:, :d_x, :d_x] - np.einsum("mra,mrb->mab", uw_x, uw_x) - xpx
            xmy = (
                cross[:, :d_x, d_x]
                - np.einsum("mra,mr->ma", uw_x, uw_all[:, :, d_x])
                - xpy
            )
            lhs = xpx - mu[:, None, None] * xmx
            rhs = xpy - mu[:, None] * xmy

        beta = _stack_solve(lhs, rhs, valid)                 # (m, d_x)
        dev = beta @ lam - lam0[None]                        # (m, d_r)
        boot_n = np.sqrt(n * np.maximum(np.einsum("ma,ab,mb->m", dev, a_r, dev), 0.0))
        boot_n[~valid] = 0.0

        if not want_cr:
            return boot_n, None, int(np.sum(~valid))

        valid_cr = valid.copy()
        w_all = self._combine(self.w_p, self.w_s_by, g)      # (m, d_w, d_x+1)
        w_rhs = w_all[:, :, d_x] - np.einsum("mwa,ma->mw", w_all[:, :, :d_x], beta)
        gamma = scipy.linalg.cho_solve(self.ww_factor, w_rhs.T).T

        # Per-cluster bootstrap scores: only the own-cluster sign enters.
        zp_x, zp_y = self.zp_by[:, :, :d_x], self.zp_by[:, :, d_x]
        zs_x, zs_y = self.zt_s_by[:, :, :d_x], self.zt_s_by[:, :, d_x]
        scores = (
            zp_y[None]
            + g[:, :, None] * zs_y[None]
            - np.einsum("jza,ma->mjz", zp_x, beta)
            - np.einsum("mj,jza,ma->mjz", g, zs_x, beta)
            - np.einsum("jzw,mw->mjz", self.zw_by, gamma)
        )
        omega = np.einsum("mjz,mjy->mzy", scores, scores) / n
        q_zx_star = zt_all[:, :, :d_x] / n                   # (m, d_z, d_x)
        ziq = scipy.linalg.cho_solve(
            self.q_zz_factor, q_zx_star.transpose(1, 0, 2).reshape(self.d_z, -1)
        ).reshape(self.d_z, m, d_x).transpose(1, 0, 2)
        q_star = np.einsum("mza,mzb->mab", q_zx_star, ziq)
        q_star_inv = _stack_inv(q_star, valid_cr)
        mid = np.einsum("mza,mzy,myb->mab", ziq, omega, ziq)
        v_star = q_star_inv @ mid @ q_star_inv
        lvl = np.einsum("ar,mab,bs->mrs", lam, v_star, lam)
        a_star = _stack_inv(lvl, valid_cr)
        boot_cr = np.sqrt(n * np.maximum(np.einsum("mr,mrs,ms->m", dev, a_star, dev), 0.0))
        boot_cr[~valid_cr] = 0.0
        # valid_cr only ever shrinks from valid, so this is the union count
        return boot_n, boot_cr, int(np.sum(~valid_cr))


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
    A_r: np.ndarray | None = None,
    fuller_c: float = 1.0,
    design: PartialledDesign | None = None,
    want_cr: bool = True,
) -> WrecRun:
    """One full WREC pass computing the plain and CCE-studentized statistics."""
    sign_set, design = prepare_test(dataset, sign_set, design)
    a_r = check_weighting(A_r, hypothesis.d_r)

    fit = fit_method(dataset, design, method, fuller_c)
    fit = restricted_kclass_fit(dataset, design, fit, hypothesis)
    t_n = wald_statistic(fit, hypothesis, a_r)
    t_cr = None
    if want_cr:
        bundle = cce_matrix(design, fit.resid_unrestricted, hypothesis.lambda_beta)
        dev = hypothesis.lambda_beta.T @ fit.beta_hat - hypothesis.lambda_0
        t_cr = float(np.sqrt(dataset.n * dev @ bundle.A_r_CR @ dev))

    first_stage = efficient_first_stage(dataset, design, fit.resid_unrestricted)
    eng = _MomentEngine(dataset, design, first_stage, fit, method, fuller_c)
    boot_n, boot_cr, n_singular = eng.distributions(sign_set.vectors, hypothesis, a_r, want_cr)
    return WrecRun(
        fit=fit,
        statistic=t_n,
        statistic_cr=t_cr,
        boot_stats=boot_n,
        boot_stats_cr=boot_cr,
        sign_set=sign_set,
        n_singular=n_singular,
    )


def wald_tests(
    dataset: ClusteredDataset,
    design: PartialledDesign,
    hypothesis: Hypothesis,
    names,
    sign_set: SignSet,
    alpha: float,
    method: str,
    fuller_c: float,
    A_r: np.ndarray | None,
) -> dict:
    """The wald and wald-cr tests among ``names`` from one WREC pass, which
    computes the CCE side only when wald-cr is asked for."""
    want_cr = "wald-cr" in names
    if want_cr and dataset.q <= hypothesis.d_r:
        raise InputError("studentized Wald needs more clusters than restrictions (q > d_r)")
    run = wrec_run(dataset, hypothesis, method, sign_set, A_r, fuller_c, design, want_cr=want_cr)
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


def wrec_wald_test(
    dataset: ClusteredDataset,
    hypothesis: Hypothesis,
    method: str = "tsls",
    studentize: bool = False,
    sign_set: SignSet | None = None,
    alpha: float = 0.1,
    A_r: np.ndarray | None = None,
    fuller_c: float = 1.0,
    design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """WREC bootstrap Wald test of lambda' beta = lambda_0.

    With ``studentize`` the statistic and every bootstrap draw are weighted
    by their own CCE inverse (which requires q > d_r); otherwise the fixed
    weighting ``A_r`` (identity by default) is used throughout.
    """
    sign_set, design = prepare_test(dataset, sign_set, design, alpha)
    name = "wald-cr" if studentize else "wald"
    return wald_tests(
        dataset, design, hypothesis, [name], sign_set, alpha, method, fuller_c, A_r
    )[name]


def score_bootstrap_wald_test(
    dataset: ClusteredDataset,
    hypothesis: Hypothesis,
    alpha: float = 0.1,
    sign_set: SignSet | None = None,
    design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """Score-form bootstrap for the unstudentized TSLS Wald statistic.

    Only defined for d_x = d_z = 1: the Jacobian is a scalar that multiplies
    both the statistic and every bootstrap draw, which is what makes the
    decision identical to the unstudentized AR bootstrap on a shared sign
    set.
    """
    if dataset.d_x != 1 or dataset.d_z != 1:
        raise InputError("score bootstrap requires d_x = d_z = 1")
    sign_set, design = prepare_test(dataset, sign_set, design, alpha)
    lam = float(hypothesis.lambda_beta[0, 0])
    if lam == 0.0:
        raise InputError("degenerate restriction (lambda = 0)")
    q_zx = float(design.Q_ZX[0, 0])
    if q_zx == 0.0:
        raise InputError("unidentified Jacobian (Zt'X = 0)")

    fit = fit_method(dataset, design, "tsls")
    fit = restricted_kclass_fit(dataset, design, fit, hypothesis)
    s = cluster_score_sums(design, fit.resid_restricted)

    # The statistic is |lambda / Q_ZtX| times an AR-form norm; decide on the
    # unscaled values (computed through the shared fixed-order pipeline, so
    # ties against the g = iota draw resolve exactly as in the AR test) and
    # scale afterwards for reporting.
    one = np.eye(1)
    stat0 = float(_ar_norms(s, np.ones((1, dataset.q)), dataset.n, one)[0])
    boot0 = _ar_norms(s, sign_set.vectors, dataset.n, one)
    cv0 = critical_value(boot0, alpha)
    scale = abs(lam / q_zx)
    return BootstrapTestResult(
        test="score-wald",
        statistic=scale * stat0,
        critical_value=scale * cv0,
        pvalue=bootstrap_pvalue(boot0, stat0),
        reject=bool(stat0 > cv0),
        alpha=alpha,
        boot_stats=scale * boot0,
        sign_set=sign_set,
        estimator="tsls",
    )
