"""The test registry: every test by name, for the CLI, confidence-set
inversion and the Monte Carlo harness alike.

Tests come in families whose members share one pass over the data: one
WREC run for wald and wald-cr (with the CCE side only when wald-cr is asked
for), one set of AR statistics for ar, ar-cr and ar-cr-asymptotic, and one
set of score-side draws for lm and cqlr. The simulation study's labels are
aliases of registry names.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ar import ar_tests
from .data import ClusteredDataset, Hypothesis, PartialledDesign
from .exceptions import InputError, NumericalError
from .inference import SignSet, prepare_test
from .kclass import METHODS
from .wald import score_bootstrap_wald_test, wald_tests
from .weakiv import score_tests

FAMILIES = {
    "wald": ("wald", "wald-cr"),
    "ar": ("ar", "ar-cr", "ar-cr-asymptotic"),
    "score": ("lm", "cqlr"),
    "score-wald": ("score-wald",),
}
TESTS = {name: fam for fam, names in FAMILIES.items() for name in names}
# Families whose null is the full vector beta = beta_0, read as lambda_0 of a
# hypothesis with lambda = I, and families that fit the chosen estimator.
FULL_VECTOR = ("ar", "score")
ESTIMATOR = ("wald",)

ALIASES = {
    "WB-US": "wald",
    "WB-S": "wald-cr",
    "WB-AR-US": "ar",
    "WB-AR-S": "ar-cr",
    "ASY-AR-S": "ar-cr-asymptotic",
    "WB-LM": "lm",
    "WB-CQLR": "cqlr",
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
    sign_set: SignSet | None = None,
    alpha: float = 0.1,
    design: PartialledDesign | None = None,
) -> dict:
    """Run the named tests of one hypothesis on one dataset: name -> result.

    Invalid arguments raise InputError: an unknown name or estimator, alpha
    outside (0, 1), a sign set for another cluster count, or a full-vector
    test of a hypothesis whose lambda is not the identity. Otherwise a test
    that fails maps to the NumericalError or InputError it raised, and a
    failure in a family's shared pass fails all of its tests; the other
    tests still report.
    """
    identity = np.array_equal(hypothesis.lambda_beta, np.eye(dataset.d_x))
    for name in names:
        if lookup(name, TESTS) in FULL_VECTOR and not identity:
            raise InputError(f"{name} tests the full vector beta = beta_0 (lambda = I)")
    if estimator not in METHODS:
        raise InputError(f"unknown k-class method {estimator!r}; expected one of {METHODS}")
    sign_set, design = prepare_test(dataset, sign_set, design, alpha)
    beta_0 = hypothesis.lambda_0
    passes = {
        "wald": lambda members: wald_tests(
            dataset, design, hypothesis, members, sign_set, alpha, estimator, fuller_c, None
        ),
        "ar": lambda members: ar_tests(dataset, design, beta_0, members, sign_set, alpha, None),
        "score": lambda members: score_tests(dataset, design, beta_0, members, sign_set, alpha),
        "score-wald": lambda members: {
            "score-wald": score_bootstrap_wald_test(dataset, hypothesis, alpha, sign_set, design)
        },
    }
    out = {}
    for fam in dict.fromkeys(TESTS[name] for name in names):
        members = [name for name in names if TESTS[name] == fam]
        try:
            out.update(passes[fam](members))
        except (NumericalError, InputError) as exc:
            out.update(dict.fromkeys(members, exc))
    return out
