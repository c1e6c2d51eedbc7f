"""The test registry: every test by name, for the CLI, confidence-set
inversion and the Monte Carlo harness alike.

Tests come in two families, each run by one call over a block of nulls (a
:class:`Hypothesis` with a null axis) whose members share one pass over
the data and decide every null at once; each pass reads its sample
statistics from the g = iota row it appends to the sign rows:
:func:`wald.wald_tests`, one k-class fit, one efficient first stage and
one WREC pass per block for wald and wald-cr, and
:func:`weakiv.full_vector_tests`, one restricted fit and one stack of
signed score means for ar, ar-cr, ar-cr-asymptotic, lm, cqlr and
score-wald, the ar test at beta_0 = lambda_0 / lambda scaled by
|lambda / Q_ZX|. The simulation study's labels are aliases of
registry names. :func:`run_test` runs one of them, as the CLI and
confidence sets do; the per-test functions at the end wrap it under their
own argument names for the benchmark's probes.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .data import ClusteredDataset, Hypothesis, PartialledDesign
from .exceptions import InputError, NumericalError
from .inference import BootstrapTestResult, SignSet, prepare_test, result_or_raise
from .kclass import METHODS
from .wald import wald_tests
from .weakiv import SCORE, full_vector_tests

# Tests whose null is the full vector beta = beta_0, read as lambda_0 of a
# hypothesis with lambda = I, and families that fit the chosen estimator.
FULL_VECTOR = ("ar", "ar-cr", "ar-cr-asymptotic", "lm", "cqlr")
ESTIMATOR = ("wald",)
FAMILIES = {"wald": ("wald", "wald-cr"), "full-vector": FULL_VECTOR + ("score-wald",)}
TESTS = {name: fam for fam, names in FAMILIES.items() for name in names}

ALIASES = {
    "WB-US": "wald", "WB-S": "wald-cr", "WB-AR-US": "ar", "WB-AR-S": "ar-cr",
    "ASY-AR-S": "ar-cr-asymptotic", "WB-LM": "lm", "WB-CQLR": "cqlr",
}


def lookup(name: str, table: dict) -> str:
    """The entry of ``name`` in ``table``: its family in TESTS, its registry
    name in ALIASES. An unknown name is an InputError."""
    if name not in table:
        raise InputError(f"unknown test {name!r}; expected one of {', '.join(table)}")
    return table[name]


def run_tests(
    dataset: ClusteredDataset,
    names: Sequence[str],
    hypothesis: Hypothesis,
    *,
    estimator: str = "tsls",
    fuller_c: float = 1.0,
    sign_set: SignSet | list | None = None,
    alpha: float = 0.1,
    design: PartialledDesign | None = None,
) -> dict | list:
    """Run the named tests of one hypothesis on one dataset: name -> result.

    A hypothesis whose lambda_0 is (P, d_r) is a block of P nulls under one
    lambda, one dict per null, with one sign set or a list of one per null
    (all of one size). Each family runs the block in one pass. A null's
    results do not depend on the block.

    Invalid arguments raise InputError: an unknown name or estimator, alpha
    outside (0, 1), a sign set for another cluster count, a lambda whose
    row count is not d_x (a beta_0 whose length is not, for a full-vector
    test), a full-vector test of a hypothesis whose lambda is not the
    identity, or score-wald unless d_x = d_z = 1. Otherwise a
    test that fails maps to the NumericalError or InputError it raised, and
    a failure in a family's shared pass fails all of its tests; the other
    tests still report.
    """
    for name in names:
        lookup(name, TESTS)
    full_vector = [name for name in names if name in FULL_VECTOR]
    d_lam = hypothesis.lambda_beta.shape[0]
    if d_lam != dataset.d_x:
        if full_vector:
            raise InputError(f"beta_0 must have length d_x={dataset.d_x}")
        raise InputError(f"lambda has {d_lam} row(s) but the data have d_x = {dataset.d_x}")
    if full_vector and not np.array_equal(hypothesis.lambda_beta, np.eye(dataset.d_x)):
        raise InputError(f"{full_vector[0]} tests the full vector beta = beta_0 (lambda = I)")
    if estimator not in METHODS:
        raise InputError(f"unknown k-class method {estimator!r}; expected one of {METHODS}")
    if "score-wald" in names and (dataset.d_x != 1 or dataset.d_z != 1):
        raise InputError("score bootstrap requires d_x = d_z = 1")
    block = Hypothesis(hypothesis.lambda_beta, np.atleast_2d(hypothesis.lambda_0))
    P = len(block.lambda_0)
    sets = sign_set if isinstance(sign_set, list) else [sign_set] * P
    first, design = prepare_test(dataset, sets[0] if sets else None, design, alpha)
    sets = [first if s is sets[0] else prepare_test(dataset, s, design, alpha)[0] for s in sets]
    if len(sets) != P or len({s.size for s in sets}) > 1:
        raise InputError("a block takes one sign set per null, all of one size")

    runs = {"wald": partial(wald_tests, method=estimator, fuller_c=fuller_c),
            "full-vector": full_vector_tests}
    out = [{} for _ in range(P)]
    for fam in dict.fromkeys(TESTS[name] for name in names):
        members = [name for name in names if TESTS[name] == fam]
        try:
            results = runs[fam](dataset, design, block, members, sets, alpha)
        except (NumericalError, InputError) as exc:  # the family's shared pass failed
            results = [dict.fromkeys(members, exc)] * P
        out = [{**res, **got} for res, got in zip(out, results)]
    return out if hypothesis.lambda_0.ndim == 2 else out[0]


def run_test(dataset: ClusteredDataset, name: str, hypothesis: Hypothesis, **options):
    """:func:`run_tests` of the one test ``name``, with the same options; its
    failure is raised."""
    return result_or_raise(run_tests(dataset, [name], hypothesis, **options)[name])


def ar_bootstrap_test(
    dataset: ClusteredDataset, beta_0, studentize: bool = False, sign_set: SignSet | None = None,
    alpha: float = 0.1, design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """Sign-flip bootstrap AR test of the full-vector null beta = beta_0."""
    name, hyp = "ar-cr" if studentize else "ar", Hypothesis.full_vector(beta_0)
    return run_test(dataset, name, hyp, sign_set=sign_set, alpha=alpha, design=design)


def lm_cqlr_bootstrap_test(
    dataset: ClusteredDataset, beta_0, statistic: str = "lm", sign_set: SignSet | None = None,
    alpha: float = 0.1, design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """Sign-flip bootstrap LM or conditional QLR test of beta = beta_0."""
    if statistic not in SCORE:
        raise InputError(f"statistic must be 'lm' or 'cqlr', got {statistic!r}")
    hyp = Hypothesis.full_vector(beta_0)
    return run_test(dataset, statistic, hyp, sign_set=sign_set, alpha=alpha, design=design)


def wrec_wald_test(
    dataset: ClusteredDataset, hypothesis: Hypothesis, method: str = "tsls",
    studentize: bool = False, sign_set: SignSet | None = None, alpha: float = 0.1,
    fuller_c: float = 1.0, design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """WREC bootstrap Wald test of lambda' beta = lambda_0: unweighted or,
    with ``studentize`` (which requires q > d_r), weighted by its own CCE
    inverse A_r_CR, as is every bootstrap draw."""
    return run_test(
        dataset, "wald-cr" if studentize else "wald", hypothesis, estimator=method,
        fuller_c=fuller_c, sign_set=sign_set, alpha=alpha, design=design,
    )
