from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbiv import InputError, bootstrap_pvalue, critical_value, make_sign_set
from wbiv.inference import finish_test


class TestSignSets:
    def test_q3_exhaustive_order(self):
        ss = make_sign_set(3, "exhaustive")
        assert ss.size == 8
        np.testing.assert_array_equal(ss.vectors[0], [-1, -1, -1])
        np.testing.assert_array_equal(ss.vectors[-1], [1, 1, 1])
        # strictly increasing lexicographically with -1 < +1
        as_bits = ((ss.vectors + 1) // 2).astype(int)
        codes = as_bits @ (2 ** np.arange(2, -1, -1))
        assert list(codes) == list(range(8))

    def test_q10_exhaustive_count(self):
        assert make_sign_set(10, "exhaustive").size == 1024

    def test_auto_policy_thresholds(self):
        assert make_sign_set(12, "auto").mode == "exhaustive"
        assert make_sign_set(13, "auto", B=99).mode == "sampled"

    def test_sampled_reproducible(self):
        a = make_sign_set(10, "sampled", B=499, seed=42)
        b = make_sign_set(10, "sampled", B=499, seed=42)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        c = make_sign_set(10, "sampled", B=499, seed=43)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_exhaustive_too_large(self):
        with pytest.raises(InputError, match="sign set too large"):
            make_sign_set(21, "exhaustive")

    def test_values_are_signs(self):
        ss = make_sign_set(6, "sampled", B=200, seed=1)
        assert set(np.unique(ss.vectors)) == {-1.0, 1.0}


class TestCriticalValue:
    def test_index_arithmetic_1024(self):
        stats = np.arange(1, 1025, dtype=float)
        # k* = ceil(1024 * 0.9) = 922
        assert critical_value(stats, 0.10) == 922.0

    def test_index_arithmetic_499(self):
        stats = np.arange(1, 500, dtype=float)
        assert critical_value(stats, 0.05) == 475.0

    def test_all_ties(self):
        assert critical_value(np.full(31, 2.5), 0.1) == 2.5

    @given(
        stats=st.lists(st.floats(-100, 100), min_size=1, max_size=200),
        alpha=st.floats(0.01, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    # m (1 - alpha) lies just above 4, but rounds to 4.0 in floating point
    @example(stats=[0, 0, 0, 0, 1, 1], alpha=0.3333333333333333)
    def test_matches_naive_inf_scan(self, stats, alpha):
        stats = np.array(stats)
        cv = critical_value(stats, alpha)
        # smallest x among the values with empirical CDF >= 1 - alpha, in
        # exact arithmetic so the reference carries no rounding of its own
        candidates = [
            x for x in sorted(stats)
            if Fraction(int(np.count_nonzero(stats <= x)), stats.size) >= 1 - Fraction(alpha)
        ]
        assert cv == candidates[0]

    def test_rejects_bad_alpha(self):
        with pytest.raises(InputError):
            critical_value(np.ones(5), 0.0)


class TestResults:
    def test_reject_iff_strictly_above(self):
        boot = np.arange(10, dtype=float)  # k* = ceil(10 * 0.8) = 8 -> cv = 7.0
        res = finish_test("wald", 7.0, boot, make_sign_set(3, "exhaustive"), 0.2)
        assert res.critical_value == 7.0
        assert not res.reject  # ties do not reject
        res2 = finish_test("wald", 7.5, boot, make_sign_set(3, "exhaustive"), 0.2)
        assert res2.reject

    def test_pvalue_counts_weak_exceedance(self):
        boot = np.array([1.0, 2.0, 3.0, 4.0])
        assert bootstrap_pvalue(boot, 3.0) == 0.5
        assert bootstrap_pvalue(boot, 0.5) == 1.0

    def test_record_shape(self):
        ss = make_sign_set(3, "exhaustive")
        res = finish_test("ar", 1.0, np.ones(8), ss, 0.1)
        rec = res.to_record()
        assert set(rec) == {
            "test", "estimator", "statistic", "critical_value",
            "pvalue", "reject", "alpha", "signset",
        }
        assert rec["signset"] == {"mode": "exhaustive", "q": 3, "size": 8}
