"""Clustered IV dataset, instrument partialling, and cluster-level moments.

All inference routines work off two immutable containers: a canonicalized
:class:`ClusteredDataset` (rows grouped by cluster) and a
:class:`PartialledDesign` holding the instruments residualized on the
exogenous regressors together with every per-cluster and pooled cross-moment
matrix the test statistics need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import InputError, NumericalError

# Reciprocal condition number below which a regressor block is treated as
# collinear.
RCOND_MIN = 1e-12
# Reciprocal condition number below which a square system is singular.
SINGULAR_RCOND = 1e-13


def _as_matrix(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2:
        raise InputError(f"{name} must be 1- or 2-dimensional, got ndim={out.ndim}")
    return out


def check_finite(**values) -> None:
    """InputError naming the first of ``values`` (name -> number or array)
    that holds a NaN or an infinity."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise InputError(f"non-finite input in {name}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ClusteredDataset:
    """Outcome, endogenous regressors, instruments, exogenous regressors.

    Rows are sorted by cluster (stable within cluster) and ``cluster_id``
    holds integer codes ``0..q-1`` assigned in sorted order of the original
    labels, so the canonical form does not depend on input row order.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    cluster_id: np.ndarray
    cluster_labels: tuple
    cluster_starts: np.ndarray  # q+1 offsets into the row dimension

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def q(self) -> int:
        return len(self.cluster_labels)

    @property
    def d_x(self) -> int:
        return self.X.shape[1]

    @property
    def d_z(self) -> int:
        return self.Z.shape[1]

    @property
    def d_w(self) -> int:
        return self.W.shape[1]

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.diff(self.cluster_starts)

    def cluster_slice(self, j: int) -> slice:
        return slice(self.cluster_starts[j], self.cluster_starts[j + 1])

    def replace_outcome_regressors(self, y: np.ndarray, X: np.ndarray) -> "ClusteredDataset":
        """Same clustering and (Z, W), new outcome and endogenous block."""
        return replace(self, y=_freeze(np.asarray(y, dtype=np.float64).reshape(-1)),
                       X=_freeze(_as_matrix(X, "X")))

    def append_exogenous(self, columns: np.ndarray) -> "ClusteredDataset":
        """Same data with ``columns``, rows in this dataset's order, appended to W."""
        return replace(self, W=_freeze(np.column_stack([self.W, columns])))


def build_dataset(y, X, Z, W, cluster_id) -> ClusteredDataset:
    """Validate and canonicalize raw arrays into a :class:`ClusteredDataset`.

    Parameters
    ----------
    y : array-like, shape (n,)
    X, Z, W : array-like, shape (n, d) or (n,)
        Endogenous regressors, instruments, exogenous regressors.
    cluster_id : array-like, shape (n,)
        Cluster labels; any consistently typed, sortable values. Labels are
        remapped to ``0..q-1`` in sorted order and rows are stably sorted by
        the mapped code, so datasets built from reordered cluster blocks are
        identical.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    X = _as_matrix(X, "X")
    Z = _as_matrix(Z, "Z")
    W = _as_matrix(W, "W")
    labels = np.asarray(cluster_id)
    n = y.shape[0]
    for name, arr in (("X", X), ("Z", Z), ("W", W)):
        if arr.shape[0] != n:
            raise InputError(f"{name} has {arr.shape[0]} rows, expected {n}")
    if labels.shape != (n,):
        raise InputError(f"cluster_id has shape {labels.shape}, expected ({n},)")
    check_finite(y=y, X=X, Z=Z, W=W)

    if X.shape[1] < 1 or Z.shape[1] < X.shape[1]:
        raise InputError(f"need d_z >= d_x >= 1, got d_x={X.shape[1]}, d_z={Z.shape[1]}")
    if W.shape[1] < 1:
        raise InputError("need at least one exogenous regressor (d_w >= 1)")

    uniq, codes = np.unique(labels, return_inverse=True)
    q = uniq.shape[0]
    if q < 2:
        raise InputError(f"need at least 2 clusters, got {q}")
    if n < q:
        raise InputError("fewer rows than clusters")
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    sizes = np.bincount(codes, minlength=q)
    if np.any(sizes == 0):
        raise InputError("empty cluster")
    starts = np.concatenate([[0], np.cumsum(sizes)])

    return ClusteredDataset(
        y=_freeze(y[order]),
        X=_freeze(X[order]),
        Z=_freeze(Z[order]),
        W=_freeze(W[order]),
        cluster_id=_freeze(codes.astype(np.int64)),
        cluster_labels=tuple(uniq.tolist()),
        cluster_starts=_freeze(starts.astype(np.int64)),
    )


@dataclass(frozen=True)
class PartialledDesign:
    """Instruments residualized on W plus all cluster-level moment matrices.

    ``Q_ZX_j`` carries the per-cluster 1/n_j scaling; the pooled
    ``Q_ZZ``, ``Q_ZX`` carry 1/n. The orthonormal bases of span(W) and
    span(Z_tilde) are kept so projection quadratic forms never require an
    explicit inverse of W'W. Only ``Q_ZX`` and ``Q_ZX_j`` depend on X, none on y;
    the fits read only the W and Z parts, so one design serves every dataset
    that ``replace_outcome_regressors`` derives.
    """

    Z_tilde: np.ndarray
    Q_ZX_j: np.ndarray  # (q, d_z, d_x)
    Q_ZZ: np.ndarray
    Q_ZX: np.ndarray
    cluster_sizes: np.ndarray
    cluster_starts: np.ndarray
    basis_W: np.ndarray   # orthonormal, spans W columns
    basis_Zt: np.ndarray  # orthonormal, spans Z_tilde columns
    # maps U_W-coordinates back to W-coefficients: gamma = w_coef_map @ (U_W' u)
    w_coef_map: np.ndarray = field(repr=False)
    k_within: int  # leading D_j / sqrt(n_j) columns of basis_W (exogenous_basis's k)

    @property
    def n(self) -> int:
        return self.Z_tilde.shape[0]

    @property
    def q(self) -> int:
        return self.cluster_sizes.shape[0]

    @property
    def d_z(self) -> int:
        return self.Z_tilde.shape[1]

    def cluster_slice(self, j: int) -> slice:
        return slice(self.cluster_starts[j], self.cluster_starts[j + 1])


def cluster_cross(A: np.ndarray, B: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Stack of per-cluster cross products [A' B]_j, unnormalized.

    Rows are grouped by cluster with block j at ``starts[j]:starts[j+1]``;
    each block is one matmul, so [A' B]_j is bitwise what ``A_j.T @ B_j``
    gives.
    """
    q = starts.shape[0] - 1
    out = np.empty((q, A.shape[1], B.shape[1]))
    for j in range(q):
        sl = slice(starts[j], starts[j + 1])
        out[j] = A[sl].T @ B[sl]
    return out


def nonsingular(a: np.ndarray) -> np.ndarray:
    """The package's one singular rule, per item of a rows-last stack (d, d,
    ...) of symmetric matrices: False where an item has a non-finite entry
    or its reciprocal condition number s_min / s_max is below SINGULAR_RCOND.

    The singular values of a symmetric matrix are the absolute values of its
    eigenvalues, which one stacked ``eigvalsh`` gives at a fraction of the
    cost of an SVD on the small items the bootstrap draws stack. A 1 x 1 or
    2 x 2 item has them in closed form. A 2 x 2 item [[a, b], [b, c]], read
    from the lower triangle as ``eigvalsh`` reads it, is first divided by
    its largest absolute entry, so that subnormal entries keep their ratio
    and 1e308 entries do not overflow; then s_max = |m| + hypot((a - c)/2,
    b) with m = (a + c)/2, and s_min = |ac - b^2| / s_max.
    """
    ok = np.isfinite(a).all(axis=(0, 1))
    if a.shape[0] == 1:  # s_min = s_max = |a|: finite and non-zero decides
        return ok & (a[0, 0] != 0.0)
    if not ok.all():
        a = np.where(ok, a, 0.0)
    if a.shape[0] == 2:
        entries = a[0, 0], a[1, 0], a[1, 1]
        scale = np.maximum(np.maximum(np.abs(a[0, 0]), np.abs(a[1, 0])), np.abs(a[1, 1]))
        ok &= scale > 0.0
        a, b, c = (e / np.where(ok, scale, 1.0) for e in entries)
        s_max = np.abs((a + c) / 2.0) + np.hypot((a - c) / 2.0, b)  # in [1, 2] where ok
        return ok & (np.abs(a * c - b * b) >= SINGULAR_RCOND * s_max * s_max)
    s = np.abs(np.linalg.eigvalsh(np.moveaxis(a, (0, 1), (-2, -1))))
    s_min, s_max = s.min(axis=-1), s.max(axis=-1)
    ok &= s_max > 0.0
    return ok & (s_min / np.where(ok, s_max, 1.0) >= SINGULAR_RCOND)


# The draw-stack rule. A bootstrap statistic is its own g = iota draw, so a
# draw row's bits must not depend on the other rows or on how many rows
# share its stack, nor on the other nulls of a stack with a null axis.
# WREC draw stacks are rows-last: each coefficient is an array (..., R) whose
# innermost, contiguous axis runs over the P M draw rows of a block. Every
# reduction over a draw row is therefore a two-operand np.einsum at numpy's
# default optimize=False, a product taken item by item (:func:`stack_solve`
# moves items of d >= 2 to the front only for LAPACK), or a Python sum over
# a small axis (d_z or d_x) of elementwise products taken in a fixed order
# (as weakiv._lm_rows forms A f*, A D* and D*'A D*). An einsum that keeps
# the rows innermost, such as "zaR,zbR->abR" or the sign contraction
# "cpj,pjm->cpm", runs its inner loop over the rows, so each element is a
# sequential sum in index order whatever the stack's length or the output's
# width. The full-vector family keeps its rows first and reduces over the
# innermost axis; there a one-column output rounds differently from the same
# column inside a wider one (300 of 300 probes), so it keeps its own call.
# It is never a BLAS product across the draw or null axis, and never an
# einsum of three or more operands: at d = 2, "mz,zv,mv->m" gave a 1-row
# stack other bits than the same row of a longer stack in a fifth of cases.


def stack_solve(a: np.ndarray, b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Solve a x = b for each item of a rows-last stack of symmetric systems:
    (x, ok).

    ``a`` has shape (d, d, ...), and ``b`` holds one vector (d, ...) or one
    matrix (d, k, ...) per item; without it x is the inverse of a. An item is
    singular, with ok False and x zero, when :func:`nonsingular` flags it or
    its x is not finite. Each item is solved on its own, a 1 x 1 one as b /
    a, so its bits do not depend on the other items.
    """
    vector = b is not None and b.ndim == a.ndim - 1
    if vector:
        b = b[:, None]
    ok = nonsingular(a)
    # a singular item is replaced by the identity, and its x by 0
    a = np.where(ok, a, np.eye(a.shape[0]).reshape(a.shape[:2] + (1,) * (a.ndim - 2)))
    if a.shape[0] > 1:
        a = np.moveaxis(a, (0, 1), (-2, -1))
        x = np.linalg.inv(a) if b is None else np.linalg.solve(a, np.moveaxis(b, (0, 1), (-2, -1)))
        x = np.moveaxis(x, (-2, -1), (0, 1))
    elif b is not None:
        x = b / a
    else:
        with np.errstate(over="ignore"):  # bitwise LAPACK's inverse, which warns of nothing
            x = 1.0 / a
    ok &= np.isfinite(x).all(axis=(0, 1))
    x = np.where(ok, x, 0.0)
    return (x[:, 0] if vector else x), ok


def raise_singular(checks: dict, row: int = 0) -> None:
    """NumericalError("singular <what>") for the first entry of ``checks``
    (what -> ok flags of a stack) that flags item ``row``."""
    for what, ok in checks.items():
        if not ok[row]:
            raise NumericalError(f"singular {what}")


def _orthonormal_basis(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-revealing SVD basis; errors if the block is numerically collinear."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0 or s[-1] / s[0] < RCOND_MIN:
        raise NumericalError(f"collinear {what} (reciprocal condition number below {RCOND_MIN:g})")
    return u, s, vt


def exogenous_basis(dataset: ClusteredDataset) -> tuple[np.ndarray, np.ndarray, int]:
    """(U_W, inv(U_W'W), k): an orthonormal basis of span(W), the map from U_W'u
    to W-coefficients, and the number k of leading columns D_j / sqrt(n_j), D
    the cluster dummies. If all but q columns of W vary within a cluster, the
    other q span D, and U_W = [D_j / sqrt(n_j) : U_rest] costs O(n d_w), U_rest
    from the varying columns demeaned within clusters (k = q); else an SVD of W
    gives U_W (k = 0). U_W'W has W's singular values: the same RCOND_MIN rule."""
    W, q, d_w = dataset.W, dataset.q, dataset.d_w
    starts, sizes = dataset.cluster_starts, dataset.cluster_sizes
    varies = (W != np.repeat(W[starts[:-1]], sizes, axis=0)).any(axis=0)
    if q + varies.sum() != d_w:
        u, s, vt = _orthonormal_basis(W, "exogenous regressors")
        return u, vt.T / s, 0
    means = np.add.reduceat(W, starts[:-1], axis=0) / sizes[:, None]
    w_rest = W[:, varies] - np.repeat(means[:, varies], sizes, axis=0)
    rest = np.linalg.svd(w_rest, full_matrices=False)[0]
    root = np.sqrt(sizes)[:, None]
    uw_w = np.vstack([root * means, np.zeros((d_w - q, d_w))])  # [D_j / sqrt(n_j) : U_rest]'W
    uw_w[q:, varies] = rest.T @ w_rest
    a, s, vt = _orthonormal_basis(uw_w, "exogenous regressors")
    u_w = np.column_stack([np.repeat(np.eye(q) / root.T, sizes, axis=0), rest])
    return u_w, (vt.T / s) @ a.T, q


def exogenous_step(a: np.ndarray, u_w: np.ndarray, k: int,
                   starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M_W a, U_W'a) for an (n, m) block ``a``, (U_W, k) from :func:`exogenous_basis`:
    the package's one application of M_W. With k = q (Frisch-Waugh-Lovell) ``a``
    is demeaned within clusters, whose sums over sqrt(n_j) are the first q
    coordinates, then projected off U_W's other columns; no n-row product with D."""
    coords = []
    if k:
        sizes = starts[1:] - starts[:-1]
        sums = np.add.reduceat(a, starts[:-1], axis=0)
        a = a - np.repeat(sums / sizes[:, None], sizes, axis=0)
        coords.append(sums / np.sqrt(sizes)[:, None])
    if u_w.shape[1] > k:
        coords.append(u_w[:, k:].T @ a)
        a = a - u_w[:, k:] @ coords[-1]
    return a, np.concatenate(coords)


def partial_out_exogenous(dataset: ClusteredDataset) -> PartialledDesign:
    """Residualize Z on W over the full sample and assemble all moments.

    The residual is computed through an orthonormal basis of span(W) rather
    than (W'W)^{-1}, which keeps cluster-dummy-heavy W well conditioned.
    """
    X, n, starts, sizes = dataset.X, dataset.n, dataset.cluster_starts, dataset.cluster_sizes

    u_w, w_coef_map, k = exogenous_basis(dataset)
    z_tilde = exogenous_step(dataset.Z, u_w, k, starts)[0]
    u_zt, _, _ = _orthonormal_basis(z_tilde, "instruments after partialling")

    return PartialledDesign(
        Z_tilde=_freeze(z_tilde),
        Q_ZX_j=_freeze(cluster_cross(z_tilde, X, starts) / sizes[:, None, None]),
        Q_ZZ=_freeze(z_tilde.T @ z_tilde / n),
        Q_ZX=_freeze(z_tilde.T @ X / n),
        cluster_sizes=sizes,
        cluster_starts=starts,
        basis_W=_freeze(u_w),
        basis_Zt=_freeze(u_zt),
        w_coef_map=_freeze(w_coef_map),
        k_within=k,
    )


@dataclass(frozen=True)
class OrthogonalityDiagnostics:
    """Per-cluster Z_tilde-W cross moments and their max-absolute summaries."""

    Q_ZW_j: np.ndarray   # (q, d_z, d_w)
    max_abs: np.ndarray  # (q,)


def assumption_diagnostics(
    dataset: ClusteredDataset, design: PartialledDesign
) -> OrthogonalityDiagnostics:
    """Report how far each cluster is from Z_tilde-W orthogonality.

    The pooled cross moment is zero by construction of the partialling; these
    per-cluster values should be close to zero for the cluster-level
    orthogonality condition backing the bootstrap tests to be plausible. They
    are zero identically when W interacts every exogenous variable with the
    cluster dummies.
    """
    q_zw = cluster_cross(design.Z_tilde, dataset.W, design.cluster_starts)
    q_zw /= design.cluster_sizes[:, None, None]
    return OrthogonalityDiagnostics(Q_ZW_j=q_zw, max_abs=np.abs(q_zw).max(axis=(1, 2)))


def cluster_first_stage(dataset: ClusteredDataset) -> np.ndarray:
    """Cluster-by-cluster OLS of X on (Z, W); returns the Z coefficient blocks.

    Within each cluster the regression drops W columns that are identically
    zero there (cluster dummies for the other clusters). Of the rest it keeps,
    in their order, the columns a pivoted QR picks to span them, cut with the
    RCOND_MIN rule: inside a cluster an intercept and that cluster's dummy are
    one column. The Z slopes do not depend on which spanning columns are kept.
    The regressor matrix must then have full column rank.

    Returns
    -------
    ndarray, shape (q, d_z, d_x)
    """
    # imported here, not with the module: `import wbiv.cli` then leaves out
    # scipy.linalg, a few tenths of a second that only `wbiv fit` needs
    import scipy.linalg

    out = np.empty((dataset.q, dataset.d_z, dataset.d_x))
    for j in range(dataset.q):
        sl = dataset.cluster_slice(j)
        w_j = dataset.W[sl]
        w_j = w_j[:, np.any(w_j != 0.0, axis=0)]
        r, piv = scipy.linalg.qr(w_j, mode="r", pivoting=True)
        diag = np.abs(np.diag(r))
        span = np.sort(piv[: np.sum(diag > RCOND_MIN * diag.max(initial=0.0))])
        regs = np.column_stack([dataset.Z[sl], w_j[:, span]])
        coef, _, rank, _ = np.linalg.lstsq(regs, dataset.X[sl], rcond=None)
        if rank < regs.shape[1]:
            raise NumericalError(
                f"rank-deficient within-cluster design in cluster {dataset.cluster_labels[j]!r}"
                " (cluster too small or collinear)"
            )
        out[j] = coef[: dataset.d_z]
    return out


@dataclass(frozen=True)
class Hypothesis:
    """Linear restriction lambda_beta' beta = lambda_0; the full-vector null
    beta = beta_0 is the case lambda_beta = I, lambda_0 = beta_0. A
    lambda_0 of shape (P, d_r) is a block of P nulls under one lambda_beta."""

    lambda_beta: np.ndarray  # (d_x, d_r)
    lambda_0: np.ndarray     # (d_r,) or (P, d_r)

    @property
    def d_r(self) -> int:
        return self.lambda_beta.shape[1]

    @staticmethod
    def wald(lambda_beta, lambda_0) -> "Hypothesis":
        lam = _as_matrix(lambda_beta, "lambda_beta")
        lam0 = np.atleast_1d(np.asarray(lambda_0, dtype=np.float64))
        check_finite(lambda_beta=lam, lambda_0=lam0)
        if lam0.ndim > 2 or lam0.size == 0:
            raise InputError("lambda_0 must be one null (d_r,) or a block of them (P, d_r)")
        if lam.shape[1] != lam0.shape[-1]:
            raise InputError("lambda_beta and lambda_0 disagree on the number of restrictions")
        if not 1 <= lam.shape[1] <= lam.shape[0]:
            raise InputError("need 1 <= d_r <= d_x restrictions")
        if np.linalg.matrix_rank(lam) < lam.shape[1]:
            raise InputError("lambda_beta must have full column rank")
        return Hypothesis(lambda_beta=_freeze(lam), lambda_0=_freeze(lam0))

    @staticmethod
    def full_vector(beta_0) -> "Hypothesis":
        b0 = np.atleast_1d(np.asarray(beta_0, dtype=np.float64))
        check_finite(beta_0=b0)
        if b0.ndim > 2 or b0.size == 0:
            raise InputError("beta_0 must be one null (d_x,) or a block of them (P, d_x)")
        lam = np.eye(b0.shape[-1])
        return Hypothesis(lambda_beta=_freeze(lam), lambda_0=_freeze(b0.copy()))
