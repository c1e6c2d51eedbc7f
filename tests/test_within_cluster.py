"""The within-cluster routes against the dense ones they replace.

When all but q columns of W vary within a cluster, span(W) holds the
cluster dummies and ``partial_out_exogenous`` takes its basis from a
within-cluster demeaning and an SVD of the varying columns only; otherwise
it takes the SVD of W. ``efficient_first_stage`` reduces its n-row least
squares to one on stacked per-cluster QR factors. Each test here runs a W
that meets the count and one with the same span that does not (W times a
dense invertible matrix), or compares against the dense reference routes
kept in this module.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from wbiv import (
    Hypothesis,
    NumericalError,
    assumption_diagnostics,
    build_dataset,
    efficient_first_stage,
    fit_method,
    partial_out_exogenous,
    restricted_kclass_fit,
    restricted_ols_fit,
)
from wbiv.data import (
    RCOND_MIN,
    SINGULAR_RCOND,
    cluster_cross,
    exogenous_basis,
    nonsingular,
    stack_solve,
)
from wbiv.rng import substream

TOL = 1e-10
DESIGNS = ("dummies", "intercept+dummies", "intercept+dummies+covariate")
SHAPES = ((1, 1), (2, 2), (1, 3), (2, 3))  # (d_x, d_z) by seed


def dense_first_stage(dataset, design, resid):
    """OLS of X on (Zbar, W, resid) by ``lstsq`` on the dense n-row matrix:
    (coefficients, fitted values from Zbar and W, rank, regressor matrix)."""
    n, q, d_z = dataset.n, dataset.q, dataset.d_z
    zbar = np.zeros((n, q * d_z))
    for j in range(q):
        sl = dataset.cluster_slice(j)
        zbar[sl, j * d_z : (j + 1) * d_z] = design.Z_tilde[sl]
    regs = np.column_stack([zbar, dataset.W, resid])
    coef, _, rank, _ = np.linalg.lstsq(regs, dataset.X, rcond=None)
    return coef, regs[:, :-1] @ coef[:-1], rank, regs


def svd_partialling(dataset):
    """Z_tilde, the basis of span(W) and the coefficient map from one SVD of
    the n-row W, as the partialling computed them before the within route."""
    u, s, vt = np.linalg.svd(dataset.W, full_matrices=False)
    return dataset.Z - u @ (u.T @ dataset.Z), u, vt.T / s


def mixed(w, seed):
    """W times a dense, well-conditioned matrix: the same span, and every
    column varies within a cluster as soon as one of W's does."""
    a = np.eye(w.shape[1]) + 0.3 * substream(seed, "mix").standard_normal((w.shape[1],) * 2)
    return w @ a


def fe_dataset(seed, kind, d_x=1, d_z=2, q=6, extra=None, mix=False):
    """A dataset with unequal clusters whose W spans the cluster dummies.
    ``extra`` columns, a function of (cluster, covariate), are appended to W;
    ``mix`` replaces W by :func:`mixed`."""
    rng = substream(seed, "within", kind, d_x, d_z, q)
    sizes = rng.integers(d_z + 4, 40, size=q)
    cluster = np.repeat(np.arange(q), sizes)
    n = cluster.size
    dummies = (cluster[:, None] == np.arange(q)).astype(np.float64)
    covariate = rng.standard_normal(n) * 2.0 + 1.0
    w = {
        "dummies": dummies,
        "intercept+dummies": np.column_stack([np.ones(n), dummies[:, 1:]]),
        "intercept+dummies+covariate": np.column_stack([np.ones(n), dummies[:, 1:], covariate]),
    }[kind]
    if extra is not None:
        w = np.column_stack([w, extra(cluster, covariate)])
    z = rng.standard_normal((n, d_z)) + dummies @ rng.standard_normal((q, d_z))
    z += 0.5 * covariate[:, None]
    x = z @ rng.standard_normal((d_z, d_x)) + w @ rng.standard_normal((w.shape[1], d_x))
    x += rng.standard_normal((n, d_x))
    y = x @ rng.standard_normal(d_x) + w @ rng.standard_normal(w.shape[1]) + rng.standard_normal(n)
    return build_dataset(y, x, z, mixed(w, seed) if mix else w, cluster)


def within(dataset, basis):
    """Whether ``basis`` is the within route's: it starts with D_j / sqrt(n_j)."""
    head = basis[dataset.cluster_starts[:-1], : dataset.q]
    return basis.shape[1] >= dataset.q and np.array_equal(
        head, np.diag(1.0 / np.sqrt(dataset.cluster_sizes)))


def rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("mix", [False, True])
@pytest.mark.parametrize("kind", DESIGNS)
@pytest.mark.parametrize("seed", range(4))
def test_partialling_matches_the_svd_of_w(kind, seed, mix):
    ds = fe_dataset(seed, kind, *SHAPES[seed], mix=mix)
    design = partial_out_exogenous(ds)
    # mixing a varying column into every column leaves no q constant ones
    assert within(ds, design.basis_W) == (not mix or "covariate" not in kind)
    z_tilde, u, coef_map = svd_partialling(ds)
    starts, sizes = ds.cluster_starts, ds.cluster_sizes
    want = {
        "Z_tilde": z_tilde,
        "Q_ZX_j": cluster_cross(z_tilde, ds.X, starts) / sizes[:, None, None],
        "Q_ZZ": z_tilde.T @ z_tilde / ds.n,
        "Q_ZX": z_tilde.T @ ds.X / ds.n,
    }
    for field, value in want.items():
        assert rel(getattr(design, field), value) < TOL, field
    # Q_ZW_j of the diagnostics is zero up to rounding in some clusters:
    # relative to the data's scale
    scale = np.abs(ds.Z).max() * np.abs(ds.W).max()
    q_zw = cluster_cross(z_tilde, ds.W, starts) / sizes[:, None, None]
    assert np.abs(assumption_diagnostics(ds, design).Q_ZW_j - q_zw).max() < TOL * scale
    # the bases differ; the projections onto them do not
    v = substream(seed, "project").standard_normal((ds.n, 3))
    b = design.basis_W
    assert rel(b @ (b.T @ v), u @ (u.T @ v)) < TOL
    u_vec = substream(seed, "coef").standard_normal(ds.n)
    coef = design.w_coef_map @ (b.T @ u_vec)
    assert rel(coef, coef_map @ (u.T @ u_vec)) < TOL
    assert rel(coef, np.linalg.lstsq(ds.W, u_vec, rcond=None)[0]) < TOL


@pytest.mark.parametrize("extra", [
    lambda cluster, c: 2.0 * c - 3.0,                  # a multiple of the covariate
    lambda cluster, c: np.sin(cluster.astype(float)),  # constant within every cluster
    lambda cluster, c: 2.0 * c + (cluster == 2),       # with the covariate and a dummy
])
def test_a_collinear_covariate_raises_the_svd_routes_message(extra):
    messages = []
    for mix in (False, True):
        ds = fe_dataset(3, "intercept+dummies+covariate", extra=extra, mix=mix)
        with pytest.raises(NumericalError) as info:
            partial_out_exogenous(ds)
        messages.append(str(info.value))
    assert messages == [f"collinear exogenous regressors (reciprocal condition number below "
                        f"{RCOND_MIN:g})"] * 2


@pytest.mark.parametrize("mix", [False, True])
@pytest.mark.parametrize("kind", DESIGNS)
@pytest.mark.parametrize("seed", range(4))
def test_first_stage_matches_dense_lstsq(kind, seed, mix):
    ds = fe_dataset(seed, kind, *SHAPES[seed], mix=mix)
    resid = substream(seed, "resid").standard_normal(ds.n)
    design = partial_out_exogenous(ds)
    efs = efficient_first_stage(ds, design, resid)
    coef, fitted, _, _ = dense_first_stage(ds, design, resid)
    assert rel(np.vstack([efs.pi_zbar, efs.pi_w, efs.pi_eps]), coef) < TOL
    assert rel(efs.fitted, fitted) < TOL
    np.testing.assert_array_equal(efs.v_tilde, ds.X - efs.fitted)


def test_first_stage_matches_dense_lstsq_without_dummies():
    from conftest import random_dataset

    for seed in range(4):
        ds = random_dataset(seed, q=4, n_per=20, d_x=2, d_z=3, d_w=3)
        design = partial_out_exogenous(ds)
        resid = substream(seed, "resid").standard_normal(ds.n)
        efs = efficient_first_stage(ds, design, resid)
        coef, fitted, _, _ = dense_first_stage(ds, design, resid)
        assert rel(np.vstack([efs.pi_zbar, efs.pi_w, efs.pi_eps]), coef) < TOL
        assert rel(efs.fitted, fitted) < TOL


@pytest.mark.parametrize("mix", [False, True])
@pytest.mark.parametrize("kind", DESIGNS)
def test_restricted_ols_is_the_same_with_and_without_a_design(kind, mix):
    ds = fe_dataset(5, kind, d_x=2, mix=mix)
    block = [[0.3, -1.0], [0.0, 0.0], [2.0, 0.5]]
    plain = restricted_ols_fit(ds, block)
    with_design = restricted_ols_fit(ds, block, partial_out_exogenous(ds))
    # bitwise: the Monte Carlo replay recomputes decisions through the call without a design
    for field in ("gamma_bar_r", "e_y", "e_X", "resid"):
        np.testing.assert_array_equal(getattr(with_design, field), getattr(plain, field), field)
    # against a dense least-squares fit of y - X b on W
    b = np.array(block[0])
    coef = np.linalg.lstsq(ds.W, ds.y - ds.X @ b, rcond=None)[0]
    assert rel(plain.gamma_bar_r[0], coef) < TOL
    assert rel(plain.resid[0], ds.y - ds.X @ b - ds.W @ coef) < TOL


@pytest.mark.parametrize("mix", [False, True])
@pytest.mark.parametrize("method", ["tsls", "liml"])
def test_a_design_serves_new_outcome_and_regressors(method, mix):
    # the references fit replace_outcome_regressors(y*, X*) with the original design
    ds = fe_dataset(7, "intercept+dummies+covariate", d_x=2, d_z=3, mix=mix)
    rng = substream(7, "new-y-x")
    other = ds.replace_outcome_regressors(ds.y + rng.standard_normal(ds.n),
                                          ds.X + rng.standard_normal(ds.X.shape))
    hyp = Hypothesis.wald([[1.0], [0.5]], [0.2])
    fits = []
    for design in (partial_out_exogenous(ds), partial_out_exogenous(other)):
        fit = fit_method(other, design, method)
        fits.append(restricted_kclass_fit(other, design, fit, hyp))
    for field in dataclasses.fields(fits[0]):
        np.testing.assert_array_equal(getattr(fits[0], field.name), getattr(fits[1], field.name),
                                      field.name)


def test_replace_outcome_regressors_carries_every_field():
    ds = fe_dataset(6, "intercept+dummies")
    y, x = 2.0 * ds.y, ds.X[:, ::-1] + 1.0
    got, want = ds.replace_outcome_regressors(y, x), dataclasses.replace(ds, y=y, X=x)
    for field in dataclasses.fields(ds):
        np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name))
    # the within route survives both derived datasets
    covariate = substream(6, "covariate").standard_normal(ds.n)
    for other in (got, ds.append_exogenous(covariate)):
        assert within(other, exogenous_basis(other)[0])


def _collinear_cluster(delta):
    """A dataset whose second instrument is 3 times the first in cluster 2,
    plus ``delta`` times noise, with a design and a residual regressor."""
    rng = substream(9, "first-stage-rank")
    q, n_per = 4, 60  # n well above the 4 x 8 rows of the stacked QR factors
    cluster = np.repeat(np.arange(q), n_per)
    n = q * n_per
    z = rng.standard_normal((n, 2))
    rows = cluster == 2
    z[rows, 1] = 3.0 * z[rows, 0] + delta * rng.standard_normal(n_per)
    w = np.column_stack([np.ones(n), (cluster[:, None] == np.arange(1, q)).astype(float)])
    x = z.sum(axis=1) + rng.standard_normal(n)
    ds = build_dataset(rng.standard_normal(n), x, z, w, cluster)
    return ds, partial_out_exogenous(ds), rng.standard_normal(n)


def _singular_ratio(regs):
    s = np.linalg.svd(regs, compute_uv=False)
    return s[-1] / s[0]


def test_an_exactly_collinear_cluster_is_rank_deficient():
    ds, design, resid = _collinear_cluster(0.0)
    with pytest.raises(NumericalError, match="rank-deficient first-stage regressor matrix"):
        efficient_first_stage(ds, design, resid)
    assert dense_first_stage(ds, design, resid)[2] < ds.q * ds.d_z + ds.d_w + 1


def test_first_stage_rule_on_each_side_of_the_threshold():
    # lstsq's rule: rank-deficient when s_min <= n eps s_max; the ratio scales as delta
    ds, design, resid = _collinear_cluster(1e-3)
    bound = ds.n * np.finfo(float).eps
    ratio = _singular_ratio(dense_first_stage(ds, design, resid)[3])
    for factor, accepted in ((2.0, True), (0.5, False)):
        ds, design, resid = _collinear_cluster(1e-3 * factor * bound / ratio)
        _, _, rank, regs = dense_first_stage(ds, design, resid)
        got = _singular_ratio(regs)
        assert (got > 1.5 * bound) if accepted else (got < 0.67 * bound)
        assert (rank == regs.shape[1]) == accepted
        if accepted:
            efficient_first_stage(ds, design, resid)
        else:
            with pytest.raises(NumericalError, match="rank-deficient first-stage"):
                efficient_first_stage(ds, design, resid)


def test_the_first_stage_keeps_lstsqs_decision_at_every_column_scale():
    # lstsq's rank rule depends on the columns' scale: a residual regressor
    # at rounding level, as when y is fitted exactly, is rank-deficient to it
    ds, design, resid = _collinear_cluster(1.0)
    refused = []
    for factor in [0.0] + [10.0 ** k for k in range(-20, 21, 2)]:
        rank, regs = dense_first_stage(ds, design, factor * resid)[2:]
        if rank < regs.shape[1]:
            refused.append(factor)
            with pytest.raises(NumericalError, match="rank-deficient first-stage"):
                efficient_first_stage(ds, design, factor * resid)
        else:
            efficient_first_stage(ds, design, factor * resid)
    assert 0.0 in refused and 1e-20 in refused and 1e20 in refused and 1.0 not in refused


def test_nonsingular_one_by_one_gives_the_eigvalsh_decision():
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf, np.nan, 1e308, -1e-300]
    values = np.concatenate([special, substream(2, "one-by-one").standard_normal(199)
                             * 10.0 ** np.arange(-100, 99)])
    a = values[:, None, None]
    ok = np.isfinite(a).all(axis=(-2, -1))
    s = np.abs(np.linalg.eigvalsh(np.where(ok[..., None, None], a, 0.0)))
    want = ok & (s.max(axis=-1) > 0.0) & (s.min(axis=-1) >= SINGULAR_RCOND * s.max(axis=-1))
    np.testing.assert_array_equal(nonsingular(a), want)
    np.testing.assert_array_equal(nonsingular(values.reshape(-1, 3, 1, 1)), want.reshape(-1, 3))


def eigvalsh_rule(a):
    """The singular rule by one stacked ``eigvalsh``: (decision, rcond), with
    rcond = s_min / s_max taken as a ratio (0 for an all-zero item)."""
    ok = np.isfinite(a).all(axis=(-2, -1))
    s = np.abs(np.linalg.eigvalsh(np.where(ok[..., None, None], a, 0.0)))
    s_min, s_max = s.min(axis=-1), s.max(axis=-1)
    rcond = s_min / np.where(s_max > 0.0, s_max, 1.0)
    return ok & (s_max > 0.0) & (rcond >= SINGULAR_RCOND), rcond


def test_nonsingular_two_by_two_gives_the_eigvalsh_decision():
    rng = substream(3, "two-by-two")
    # random symmetric items, each at its own scale from 1e-150 to 1e150
    a = rng.standard_normal((20000, 2, 2)) * 10.0 ** rng.uniform(-150, 150, (20000, 1, 1))
    symmetric = (a + a.swapaxes(1, 2)) / 2.0
    # PSD items with rcond log-uniform in [1e-16, 1e-10], around SINGULAR_RCOND
    angle = rng.uniform(0.0, np.pi, 20000)
    c, s = np.cos(angle), np.sin(angle)
    u = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-1)
    rcond = 10.0 ** rng.uniform(-16, -10, 20000)
    eig = np.column_stack([np.ones(20000), rcond]) * 10.0 ** rng.uniform(-100, 100, (20000, 1))
    psd = (u * eig[:, None, :]) @ u.swapaxes(1, 2)
    psd = (psd + psd.swapaxes(1, 2)) / 2.0
    # every symmetric item over zero, +-subnormal, 1e-310, 1e308 and
    # non-finite entries: all-1e308 items and subnormal diagonals among them
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1.0, -1e-300, 1e308, -1e308,
               np.inf, -np.inf, np.nan]
    special = np.array([[[x, y], [y, z]] for x, y, z in itertools.product(special, repeat=3)])
    for what, items in (("symmetric", symmetric), ("psd", psd), ("special", special)):
        want, rcond = eigvalsh_rule(items)
        got = nonsingular(items)
        # eigvalsh's own s_min is exact only to about eps s_max, 2e-3 of the
        # threshold: an item within 1e-2 relative of it may be decided
        # either way, and at most 2 of these 60 000 items are
        near = np.abs(rcond / SINGULAR_RCOND - 1.0) < 1e-2
        excepted = (got != want) & near
        assert excepted.sum() <= (2 if what == "psd" else 0), what
        np.testing.assert_array_equal(got[~excepted], want[~excepted], err_msg=what)
        np.testing.assert_array_equal(nonsingular(items[None]), got[None], err_msg=what)
    # the rule's rcond is a ratio, so a subnormal item is judged like any
    # other: SINGULAR_RCOND * s_max underflowing to zero does not pass it
    for d in (2, 3):
        assert not nonsingular(np.diag([0.0] + [tiny] * (d - 1))[None])[0]
        assert nonsingular((1e-310 * np.eye(d))[None])[0]


def test_stack_solve_one_by_one_is_lapacks_inverse():
    # without a right-hand side, a (N, 1, 1) stack gives bitwise the x and
    # ok flags of np.linalg.inv on the items the singular rule keeps
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e-300, 1e300, 1e308, -1e308,
               np.inf, -np.inf, np.nan]
    rng = substream(4, "one-by-one-inverse")
    values = np.concatenate([special, rng.choice([-1.0, 1.0], 20000)
                             * 10.0 ** rng.uniform(-300, 300, 20000)])
    a = values[:, None, None]
    ok = nonsingular(a)
    want = np.linalg.inv(np.where(ok[:, None, None], a, 1.0))
    ok &= np.isfinite(want[:, 0, 0])
    want = np.where(ok[:, None, None], want, 0.0)
    x, got = stack_solve(a)
    np.testing.assert_array_equal(got, ok)
    assert x.tobytes() == want.tobytes()
    assert got[len(special):].all() and got[:len(special)].tolist() == [
        False, False, False, False, False, False, True, True, True, True, False, False, False]
