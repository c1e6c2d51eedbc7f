import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbiv import InputError, bootstrap_pvalue, critical_value, make_sign_set
from wbiv.inference import finish_test
from wbiv.rng import substream


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

    def test_k_is_the_exact_ceiling_next_to_every_boundary(self):
        # the @example above swept: alpha at and one ulp either side of every
        # j / m (m = 6, j = 2 gives 0.3333333333333333), against the ceiling
        # of m (1 - alpha) in exact rational arithmetic. A stack of nulls
        # (P, m), ties included, gets row by row what each row gets alone
        rng = substream(3, "stacked-critical-values")
        for m in range(2, 120):
            stats = np.arange(m, dtype=float)  # the k-th smallest is k - 1
            stack = rng.integers(0, 5, size=(3, m)).astype(float)
            statistic = rng.integers(0, 5, size=3).astype(float)
            pvalues = bootstrap_pvalue(stack, statistic)
            assert pvalues.tolist() == [bootstrap_pvalue(*row) for row in zip(stack, statistic)]
            for j in range(1, m):
                for alpha in (np.nextafter(j / m, 0.0), j / m, np.nextafter(j / m, 1.0)):
                    k = math.ceil(m * (1 - Fraction(float(alpha))))
                    assert critical_value(stats, alpha) == k - 1, (m, alpha)
                    rows = [critical_value(row, alpha) for row in stack]
                    assert critical_value(stack, alpha).tolist() == rows, (m, alpha)

    def test_a_doubled_distribution_is_decided_on_its_half(self):
        # the draws at g and -g of a complete set are equal, so the whole
        # distribution is a half counted twice: its k-th smallest, k =
        # ceil(2h (1 - alpha)), is the ceil(k / 2)-th of the half, which is
        # the half's own ceil(h (1 - alpha))-th, and its shares are the
        # half's. Halves of small integers carry ties; the statistics sit
        # on, between and outside the draws
        rng = substream(4, "doubled-distributions")
        statistics = np.arange(-1.0, 12.0, 0.5)
        for h in range(1, 601):
            half = rng.integers(0, 11, size=h).astype(float)
            whole = np.concatenate([half[::-1], half])
            for alpha in (0.1, 0.05, 0.3333333333333333, 0.5, 0.999):
                got = critical_value(half, alpha)
                assert np.float64(got).tobytes() == np.float64(
                    critical_value(whole, alpha)).tobytes(), (h, alpha)
            shares = [bootstrap_pvalue(whole, s) for s in statistics]
            assert bootstrap_pvalue(np.tile(half, (len(statistics), 1)), statistics).tolist() \
                == shares, h

    def test_rejects_bad_alpha(self):
        with pytest.raises(InputError):
            critical_value(np.ones(5), 0.0)


class TestResults:
    def test_reject_iff_strictly_above(self):
        boot = np.arange(10, dtype=float)  # k* = ceil(10 * 0.8) = 8 -> cv = 7.0
        # a stack of two nulls, the sample statistic (g = iota) last
        draws = np.column_stack([[boot, boot], [7.0, 7.5]])
        res, res2 = finish_test("wald", draws, [make_sign_set(3, "exhaustive")] * 2, 0.2)
        assert res.critical_value == 7.0
        assert not res.reject  # ties do not reject
        assert res2.reject

    def test_pvalue_counts_weak_exceedance(self):
        boot = np.array([1.0, 2.0, 3.0, 4.0])
        assert bootstrap_pvalue(boot, 3.0) == 0.5
        assert bootstrap_pvalue(boot, 0.5) == 1.0

    def test_draws_on_half_a_complete_set_are_decided_as_the_whole_set(self):
        # a stack over the 4 rows with g_1 = +1 of the q = 3 set, iota last:
        # the critical value and p-value are the doubled distribution's, the
        # counts double, and boot_stats is the whole set's in its order
        ss = make_sign_set(3, "exhaustive")
        half = np.array([[1.0, 5.0, 2.0, 4.0, 3.0]])
        (res,) = finish_test("lm", half, [ss], 0.3, n_singular=np.array([1]))
        whole = [4.0, 2.0, 5.0, 1.0, 1.0, 5.0, 2.0, 4.0]
        assert res.boot_stats.tolist() == whole
        assert res.critical_value == critical_value(np.array(whole), 0.3) == 4.0
        assert res.pvalue == bootstrap_pvalue(np.array(whole), 3.0) == 0.5
        assert not res.reject and res.n_singular == 2

    def test_record_shape(self):
        ss = make_sign_set(3, "exhaustive")
        (res,) = finish_test("ar", np.ones((1, 9)), [ss], 0.1)
        rec = res.to_record()
        assert set(rec) == {
            "test", "estimator", "statistic", "critical_value",
            "pvalue", "reject", "alpha", "signset",
        }
        assert rec["signset"] == {"mode": "exhaustive", "q": 3, "size": 8}
