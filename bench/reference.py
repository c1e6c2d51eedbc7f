"""Independent reference computations for the benchmark's output checks.

Plain numpy/scipy from the textbook formulas; nothing here imports wbiv.
The k-class fit is the joint (unpartialled) regression of y on [X:W] with
instruments [Z:W], the WREC bootstrap rebuilds (y*, X*) explicitly for every
sign vector and refits it, and the AR and LM statistics are the sign-flip
forms of the cluster score sums. Only one endogenous regressor (d_x = 1) and
the restriction beta = b0 are covered: every workload has that shape.

``self_check`` compares these functions with the 60-digit mpmath oracle
values frozen in ``tests/t1_expected.py`` before any workload runs.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg

# The T1 fixture of scripts/t1_oracle.py: two clusters of three rows with an
# intercept as W; T1X appends a third cluster.
T1_Y = [1.0, 2.0, 1.5, 0.5, 1.8, 1.2]
T1_X = [0.5, 1.0, 0.8, 0.2, 1.1, 0.7]
T1_Z = [1.0, 2.0, 1.5, 0.5, 1.9, 1.1]
T1_CLUSTERS = [0, 0, 0, 1, 1, 1]
T1X_Y = T1_Y + [0.9, 1.6, 1.1]
T1X_X = T1_X + [0.4, 0.9, 0.6]
T1X_Z = T1_Z + [0.8, 1.7, 1.0]
T1X_CLUSTERS = T1_CLUSTERS + [2, 2, 2]

SELF_CHECK_RTOL = 1e-9


class Data:
    """y (n,), x (n,), Z (n, d_z), W (n, d_w) and cluster codes 0..q-1."""

    def __init__(self, y, x, Z, W, clusters):
        self.y = np.asarray(y, dtype=np.float64).ravel()
        self.x = np.asarray(x, dtype=np.float64).ravel()
        self.Z = np.asarray(Z, dtype=np.float64).reshape(self.y.size, -1)
        self.W = np.asarray(W, dtype=np.float64).reshape(self.y.size, -1)
        self.clusters = np.asarray(clusters).ravel()
        self.n = self.y.size
        self.q = int(self.clusters.max()) + 1
        self.onehot = (self.clusters[None, :] == np.arange(self.q)[:, None]).astype(np.float64)
        self.q_zw = np.linalg.qr(np.column_stack([self.Z, self.W]))[0]
        self.q_w = np.linalg.qr(self.W)[0]
        # Z residualized on W, the instruments of the score side and the CCE
        self.Zt = self.Z - self.W @ np.linalg.lstsq(self.W, self.Z, rcond=None)[0]


def exhaustive_signs(q: int) -> np.ndarray:
    """All 2^q sign vectors in lexicographic order, -1 before +1."""
    idx = np.arange(2**q)
    return np.array([[1.0 if (i >> (q - 1 - k)) & 1 else -1.0 for k in range(q)] for i in idx])


def critical_value(stats, alpha: float) -> float:
    """The ceil(m (1 - alpha))-th order statistic, k in exact rationals."""
    values = np.sort(np.asarray(stats, dtype=np.float64))
    m = values.size
    k = min(max(math.ceil(m * (1 - Fraction(alpha))), 1), m)
    return float(values[k - 1])


def pvalue(stats, statistic: float) -> float:
    """Share of draws at or above the statistic, as an exact fraction."""
    stats = np.asarray(stats, dtype=np.float64)
    return float(Fraction(int(np.sum(stats >= statistic)), stats.size))


def _proj_out(basis: np.ndarray, a: np.ndarray) -> np.ndarray:
    return a - basis @ (basis.T @ a)


def liml_kappa(d: Data, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Smallest root of det(Y'M_W Y - k Y'M_[Z:W] Y) = 0 with Y = [y : x],
    for every column of y and x (one column per draw)."""
    kappa = np.empty(y.shape[1])
    for i in range(y.shape[1]):
        yv = np.column_stack([y[:, i], x[:, i]])
        a_w = _proj_out(d.q_w, yv)
        a_zw = _proj_out(d.q_zw, yv)
        kappa[i] = scipy.linalg.eigh(yv.T @ a_w, yv.T @ a_zw, eigvals_only=True)[0]
    return kappa


def kclass_joint(d: Data, y: np.ndarray, x: np.ndarray, kappa: np.ndarray):
    """theta = (C'C - k C'M_[Z:W] C)^{-1} (C'y - k C'M_[Z:W] y) with C = [x : W],
    one column of y and x per draw; returns beta (m,), gamma (m, d_w) and the
    residuals (n, m). The blocks of C'C are formed separately so that W is
    never copied per draw."""
    W = d.W
    m, d_w = y.shape[1], W.shape[1]
    qx, qy, qw = d.q_zw.T @ x, d.q_zw.T @ y, d.q_zw.T @ W
    gram = np.empty((m, 1 + d_w, 1 + d_w))
    gram[:, 0, 0] = np.einsum("nm,nm->m", x, x)
    gram[:, 1:, 0] = (W.T @ x).T
    gram[:, 0, 1:] = gram[:, 1:, 0]
    gram[:, 1:, 1:] = W.T @ W
    proj = np.empty_like(gram)
    proj[:, 0, 0] = np.einsum("km,km->m", qx, qx)
    proj[:, 1:, 0] = (qw.T @ qx).T
    proj[:, 0, 1:] = proj[:, 1:, 0]
    proj[:, 1:, 1:] = qw.T @ qw
    cy = np.column_stack([np.einsum("nm,nm->m", x, y), (W.T @ y).T])
    c_py = np.column_stack([np.einsum("km,km->m", qx, qy), (qw.T @ qy).T])
    # C'M C = C'C - C'P C and C'M y = C'y - C'P y
    lhs = gram - kappa[:, None, None] * (gram - proj)
    rhs = cy - kappa[:, None] * (cy - c_py)
    theta = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
    beta, gamma = theta[:, 0], theta[:, 1:]
    resid = y - x * beta[None] - W @ gamma.T
    return beta, gamma, resid


def _cce_var(d: Data, x: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """V = Q^{-1} Q_ZX' Q_ZZ^{-1} Omega Q_ZZ^{-1} Q_ZX Q^{-1} per column, with
    Omega = sum_j s_j s_j' / n from the cluster sums of Zt * resid."""
    n, d_z = d.n, d.Zt.shape[1]
    q_zz = d.Zt.T @ d.Zt / n
    q_zx = d.Zt.T @ x / n                                   # (d_z, m)
    scores = np.stack([d.onehot @ (d.Zt[:, [k]] * resid) for k in range(d_z)], axis=1)
    omega = np.einsum("jzm,jym->mzy", scores, scores) / n   # (m, d_z, d_z)
    ziq = np.linalg.solve(q_zz, q_zx)                       # (d_z, m)
    q_hat = np.einsum("zm,zm->m", q_zx, ziq)
    mid = np.einsum("zm,mzy,ym->m", ziq, omega, ziq)
    return mid / q_hat**2


def wrec(d: Data, method: str, b0: float, signs: np.ndarray, want_cr: bool = True) -> dict:
    """WREC bootstrap of H0: beta = b0, rebuilding (y*, X*) per sign vector.

    Returns the plain and CCE-studentized statistics and their bootstrap
    distributions over the rows of ``signs``.
    """
    n = d.n
    y, x = d.y[:, None], d.x[:, None]
    kappa = np.ones(1) if method == "tsls" else liml_kappa(d, y, x)
    beta, _, eps = kclass_joint(d, y, x, kappa)
    out = {"kappa": float(kappa[0]), "beta": float(beta[0])}
    out["t_n"] = float(np.sqrt(n) * abs(beta[0] - b0))
    if want_cr:
        out["t_cr_n"] = float(np.sqrt(n * (beta[0] - b0) ** 2 / _cce_var(d, x, eps)[0]))

    # Restricted fit: beta_r = beta - K (lambda'K)^{-1} (lambda'beta - b0) is b0
    # itself for lambda = 1, and gamma_r re-solves the W block.
    gamma_r = np.linalg.lstsq(d.W, d.y - d.x * b0, rcond=None)[0]
    eps_r = d.y - d.x * b0 - d.W @ gamma_r
    # Efficient first stage: x on (Zbar, W, eps_hat); v drops the eps_hat term.
    zbar = np.concatenate([d.onehot[j][:, None] * d.Zt for j in range(d.q)], axis=1)
    regs = np.column_stack([zbar, d.W, eps[:, 0]])
    coef = np.linalg.lstsq(regs, d.x, rcond=None)[0]
    fitted = regs[:, :-1] @ coef[:-1]
    v = d.x - fitted

    g = np.asarray(signs, dtype=np.float64)[:, d.clusters].T   # (n, m)
    x_star = fitted[:, None] + g * v[:, None]
    y_star = x_star * b0 + (d.W @ gamma_r)[:, None] + g * eps_r[:, None]
    kappa_star = np.ones(g.shape[1]) if method == "tsls" else liml_kappa(d, y_star, x_star)
    beta_star, _, resid_star = kclass_joint(d, y_star, x_star, kappa_star)
    out["boot_n"] = np.sqrt(n) * np.abs(beta_star - b0)
    if want_cr:
        var = _cce_var(d, x_star, resid_star)
        out["boot_cr"] = np.sqrt(n * (beta_star - b0) ** 2 / var)
    return out


def _null_scores(d: Data, b0: float) -> np.ndarray:
    """Cluster sums s_j of Zt * eps_bar, eps_bar the residual of y - x b0 on W."""
    u = d.y - d.x * b0
    eps_bar = u - d.W @ np.linalg.lstsq(d.W, u, rcond=None)[0]
    return d.onehot @ (d.Zt * eps_bar[:, None])


def ar(d: Data, b0: float, signs: np.ndarray, studentize: bool) -> tuple[float, np.ndarray]:
    """AR(g) = sqrt(n f(g)' A f(g)), f(g) = sum_j g_j s_j / n, A = I or Omega^{-1}."""
    s = _null_scores(d, b0)
    weight = np.linalg.inv(s.T @ s / d.n) if studentize else np.eye(s.shape[1])
    f = np.vstack([np.ones(d.q), np.asarray(signs, dtype=np.float64)]) @ s / d.n
    vals = np.sqrt(d.n * np.einsum("mz,zy,my->m", f, weight, f))
    return float(vals[0]), vals[1:]


def lm(d: Data, b0: float, signs: np.ndarray) -> tuple[float, np.ndarray]:
    """LM(g) = n (D'Omega^{-1} f)^2 / (D'Omega^{-1} D) with the orthogonalized
    Jacobian D(g) = G - Gamma(g) Omega^{-1} f(g), Gamma(g) = sum_j g_j h_j s_j' / n
    and h_j the cluster sums of Zt * x."""
    n = d.n
    s = _null_scores(d, b0)
    h = d.onehot @ (d.Zt * d.x[:, None])
    omega_inv = np.linalg.inv(s.T @ s / n)
    jac = d.Zt.T @ d.x / n
    g = np.vstack([np.ones(d.q), np.asarray(signs, dtype=np.float64)])
    f = g @ s / n
    gamma = np.einsum("mj,jz,jy->mzy", g, h, s) / n
    dd = jac[None] - np.einsum("mzy,yk,mk->mz", gamma, omega_inv, f)
    num = np.einsum("mz,zy,my->m", dd, omega_inv, f)
    den = np.einsum("mz,zy,my->m", dd, omega_inv, dd)
    vals = n * num**2 / den
    return float(vals[0]), vals[1:]


def _t1_data(dz2: bool, extended: bool = False) -> Data:
    y, x, z, cl = (T1X_Y, T1X_X, T1X_Z, T1X_CLUSTERS) if extended else (T1_Y, T1_X, T1_Z, T1_CLUSTERS)
    z = np.asarray(z)
    if dz2:
        z = np.column_stack([z, z**2])
    return Data(y, x, z, np.ones(len(y)), cl)


def load_expected(path: Path) -> dict:
    """Literal assignments of the frozen oracle file, read without importing it."""
    tree = ast.parse(path.read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            out[node.targets[0].id] = ast.literal_eval(node.value)
    return out


def self_check(expected_path: Path) -> int:
    """Compare the reference with the oracle values; returns how many matched.

    Raises AssertionError naming the first value that disagrees.
    """
    e = load_expected(expected_path)
    got = {}
    signs2 = exhaustive_signs(2)

    t1 = _t1_data(dz2=False)
    r = wrec(t1, "tsls", 0.0, signs2)
    got.update(T_N=r["t_n"], T_CR_N=r["t_cr_n"], TSTAR_N=r["boot_n"], TSTAR_CR_N=r["boot_cr"],
               TSLS_BETA=r["beta"])
    got["AR_N"], got["ARSTAR_N"] = ar(t1, 0.0, signs2, False)
    got["AR_CR_N"], got["ARSTAR_CR_N"] = ar(t1, 0.0, signs2, True)

    t1z2 = _t1_data(dz2=True)
    r = wrec(t1z2, "tsls", 0.0, signs2)
    got.update(T_N_DZ2=r["t_n"], T_CR_N_DZ2=r["t_cr_n"], TSTAR_N_DZ2=r["boot_n"],
               TSTAR_CR_N_DZ2=r["boot_cr"])
    r = wrec(t1z2, "liml", 0.0, signs2, want_cr=False)
    got.update(KAPPA_LIML_DZ2=r["kappa"], LIML_BETA_DZ2=r["beta"], T_N_DZ2_LIML=r["t_n"],
               TSTAR_N_DZ2_LIML=r["boot_n"])
    got["AR_N_DZ2"], got["ARSTAR_N_DZ2"] = ar(t1z2, 0.0, signs2, False)

    t1x = _t1_data(dz2=True, extended=True)
    got["LM_N_T1X"], got["LMSTAR_T1X"] = lm(t1x, 0.0, exhaustive_signs(3))

    for key, value in got.items():
        want = np.asarray(e[key], dtype=np.float64)
        if not np.allclose(value, want, rtol=SELF_CHECK_RTOL, atol=0.0):
            raise AssertionError(f"reference disagrees with oracle {key}: {value} vs {want}")
    return len(got)
