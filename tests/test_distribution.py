"""Distribution tests: top-k compatibility test, histograms, smoothing, KL."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigseq.distribution import (
    AlternativeTestReason,
    Histogram,
    Quadrant,
    TokenDistribution,
    alternative_consideration_test,
    build_density_histogram,
    classify_tokens,
    gaussian_smooth,
    group_logprobs_by_quadrant,
    kl_divergence_bits,
    parse_numeral_token,
    shared_edges,
)
from ambigseq.funcspace import MAX_NUMERAL_DIGITS


def dist(*pairs):
    return TokenDistribution.from_pairs(pairs)


class TestTokenDistribution:
    def test_rejects_positive_logprob(self):
        with pytest.raises(ValueError):
            dist(("19", 0.1))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            dist(("19", -2.0), ("15", -1.0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            dist(("19", -1.0), ("19", -2.0))

    def test_rejects_oversized(self):
        pairs = [(str(i), -float(i + 1)) for i in range(6)]
        with pytest.raises(ValueError):
            dist(*pairs)

    def test_top(self):
        d = dist(("19", -0.5), ("15", -1.5))
        assert d.entries[0].token == "19"


class TestParseNumeralToken:
    @pytest.mark.parametrize(
        "token,base,expected",
        [
            ("19", 10, 19),
            (" 19 ", 10, 19),
            ("0", 10, 0),
            ("0b101", 2, 5),
            ("101", 2, 5),
            ("19", 2, None),
            ("1 9", 10, None),
            ("-3", 10, None),
            ("abc", 10, None),
            ("", 10, None),
            ("1.5", 10, None),
        ],
    )
    def test_cases(self, token, base, expected):
        assert parse_numeral_token(token, base) == expected

    @pytest.mark.parametrize("base,prefix", [(10, ""), (2, ""), (2, "0b")])
    def test_digit_bound(self, base, prefix):
        longest = "1" * MAX_NUMERAL_DIGITS
        assert parse_numeral_token(prefix + longest, base) == int(longest, base)
        assert parse_numeral_token(prefix + longest + "1", base) is None
        # base 2 is outside Python's own int-string limit, so the bound is
        # what keeps a 20,000-digit answer out of the results file
        assert parse_numeral_token(prefix + "1" * 20_000, base) is None


class TestAlternativeConsiderationTest:
    """Fixtures follow the stated rule; C = {19, 15} unless noted."""

    C = {19, 15}

    def test_all_alternatives_ranked_first_passes(self):
        d = dist(("19", -0.5), ("15", -1.0), ("23", -3.0))
        res = alternative_consideration_test(d, self.C)
        assert res.passed
        assert res.reason is AlternativeTestReason.ALL_ALTERNATIVES_RANKED_FIRST

    def test_no_incorrect_listed_passes_even_partial(self):
        d = dist(("19", -0.5), ("the", -2.0))
        res = alternative_consideration_test(d, self.C)
        assert res.passed
        assert res.reason is AlternativeTestReason.NO_INCORRECT_LISTED
        assert res.correct_listed == (19,)

    def test_incorrect_above_correct_fails(self):
        d = dist(("23", -0.5), ("19", -1.0), ("15", -2.0))
        res = alternative_consideration_test(d, self.C)
        assert not res.passed
        assert res.reason is AlternativeTestReason.INCORRECT_LISTED

    def test_incorrect_with_missing_alternative_fails(self):
        d = dist(("19", -0.5), ("23", -3.0))
        res = alternative_consideration_test(d, self.C)
        assert not res.passed
        assert res.reason is AlternativeTestReason.MISSING_ALTERNATIVE
        assert res.incorrect_listed == (23,)

    def test_tied_rank_fails(self):
        d = dist(("19", -1.0), ("15", -1.0), ("23", -1.0))
        res = alternative_consideration_test(d, self.C)
        assert not res.passed

    def test_non_numeral_tokens_ignored(self):
        d = dist(("sure", -0.1), ("19", -0.5), ("15", -1.0))
        res = alternative_consideration_test(d, self.C)
        assert res.passed

    def test_base2_numerals(self):
        d = dist(("0b10011", -0.5), ("0b1111", -1.0))
        res = alternative_consideration_test(d, self.C, base=2)
        assert res.passed
        assert res.correct_listed == (15, 19)

    def test_empty_correct_set_rejected(self):
        with pytest.raises(ValueError):
            alternative_consideration_test(dist(("19", -0.5)), set())

    def test_prefix_promotion_unique(self):
        # "1" is a prefix of both 19 and 15 -> ambiguous, stays incorrect
        d = dist(("1", -0.5), ("19", -1.0), ("15", -2.0))
        res = alternative_consideration_test(d, self.C)
        assert not res.passed
        # "2024" has unique correct completion within {2024576, 15}
        d = dist(("2024", -0.5), ("15", -1.0))
        res = alternative_consideration_test(d, {2024576, 15})
        assert res.passed

    def test_monotonicity_randomized(self):
        """Demoting an incorrect token below all correct ones never breaks a pass."""
        rng = random.Random(42)
        checked = 0
        for _ in range(1000):
            correct = sorted(rng.sample(range(10, 99), rng.randint(1, 3)))
            wrong = rng.choice([v for v in range(10, 99) if v not in correct])
            # place all correct values plus one incorrect at random ranks
            tokens = [(str(v), None) for v in correct] + [(str(wrong), None)]
            rng.shuffle(tokens)
            lps = sorted((-rng.uniform(0.1, 9.9) for _ in tokens), reverse=True)
            d1 = TokenDistribution.from_pairs(
                [(t, lp) for (t, _), lp in zip(tokens, lps)]
            )
            res1 = alternative_consideration_test(d1, correct)
            # now force the incorrect token to the bottom
            reordered = [t for t, _ in tokens if t != str(wrong)] + [str(wrong)]
            d2 = TokenDistribution.from_pairs(list(zip(reordered, lps)))
            res2 = alternative_consideration_test(d2, correct)
            if res1.passed:
                assert res2.passed
            checked += 1
        assert checked == 1000


class TestQuadrants:
    def test_group_logprobs_partition(self):
        d = dist(("19", -0.5), ("yes", -0.9), ("15", -1.0), ("23", -2.0))
        groups = group_logprobs_by_quadrant(d, {19, 15})
        assert groups[Quadrant.CORRECT_PREDICTED] == [-0.5]
        assert groups[Quadrant.CORRECT_NOT_PREDICTED] == [-1.0]
        assert groups[Quadrant.INCORRECT_NOT_PREDICTED] == [-2.0]
        assert groups[Quadrant.INCORRECT_PREDICTED] == []
        total = sum(len(v) for v in groups.values())
        assert total == 3  # "yes" is ignored

    def test_top1_non_numeral_means_nothing_predicted(self):
        d = dist(("answer:", -0.1), ("19", -0.5))
        groups = group_logprobs_by_quadrant(d, {19})
        assert groups[Quadrant.CORRECT_PREDICTED] == []
        assert groups[Quadrant.CORRECT_NOT_PREDICTED] == [-0.5]

    def test_classify_tokens_tags(self):
        d = dist(("19", -0.5), ("nope", -1.0), ("23", -2.0))
        tagged = classify_tokens(d, {19, 15})
        assert [t.correct for t in tagged] == [True, False, False]
        assert tagged[1].value is None
        assert tagged[2].value == 23


class TestHistogram:
    def test_masses_sum_to_one(self):
        h = build_density_histogram([1.0, 2.0, 2.5, 4.0], n_bins=10)
        assert math.isclose(h.masses.sum(), 1.0, rel_tol=1e-12)

    def test_default_forty_bins(self):
        h = build_density_histogram(np.linspace(-5, 0, 200))
        assert len(h.densities) == 40

    def test_single_value_degenerates_gracefully(self):
        h = build_density_histogram([3.0, 3.0, 3.0], n_bins=40)
        assert math.isclose(h.masses.sum(), 1.0, rel_tol=1e-12)
        assert np.isfinite(h.densities).all()

    def test_shared_edges_span_pool(self):
        edges = shared_edges([[-3.0, -1.0], [-7.0, -2.0]], n_bins=40)
        assert edges[0] == -7.0 and edges[-1] == -1.0
        assert len(edges) == 41

    def test_shared_edges_make_comparable_histograms(self):
        a, b = [-3.0, -1.0, -2.0], [-7.0, -2.0, -2.5]
        edges = shared_edges([a, b])
        ha = build_density_histogram(a, edges=edges)
        hb = build_density_histogram(b, edges=edges)
        assert np.array_equal(ha.edges, hb.edges)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_density_histogram([])

    def test_edge_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Histogram(np.ones(3), np.arange(3))


class TestGaussianSmooth:
    def test_mass_preserved(self):
        h = build_density_histogram([-1.0, -2.0, -2.1, -5.0], n_bins=40)
        s = gaussian_smooth(h, sigma=1.0)
        assert math.isclose(s.masses.sum(), 1.0, rel_tol=1e-12)

    def test_full_support(self):
        # a delta in the first bin must still reach the last bin
        h = build_density_histogram([0.0] * 5, n_bins=40,
                                    edges=np.linspace(0, 40, 41))
        s = gaussian_smooth(h, sigma=1.0)
        assert (s.masses > 0).all()

    def test_tiny_sigma_approaches_identity(self):
        h = build_density_histogram([1.0, 1.0, 7.0, 9.5], n_bins=20)
        s = gaussian_smooth(h, sigma=1e-6)
        assert np.allclose(s.masses, h.masses, atol=1e-9)

    def test_smoothing_reduces_peaks(self):
        h = build_density_histogram([5.0] * 100, n_bins=11,
                                    edges=np.linspace(0, 11, 12))
        s = gaussian_smooth(h, sigma=2.0)
        assert s.masses.max() < h.masses.max()

    def test_sigma_validation(self):
        h = build_density_histogram([1.0, 2.0])
        with pytest.raises(ValueError):
            gaussian_smooth(h, sigma=0.0)

    def test_symmetric_input_stays_symmetric(self):
        masses = np.zeros(9)
        masses[4] = 1.0
        h = Histogram(masses, np.arange(10).astype(float))
        s = gaussian_smooth(h, sigma=1.5)
        assert np.allclose(s.masses, s.masses[::-1])


class TestKL:
    def test_self_divergence_zero(self):
        h = build_density_histogram([-1.0, -2.0, -3.5, -2.2], n_bins=40)
        s = gaussian_smooth(h)
        assert kl_divergence_bits(s, s) < 1e-9

    def test_known_value(self):
        # KL([.5,.5] || [.25,.75]) = .5*log2(2) + .5*log2(2/3)
        expected = 0.5 * math.log2(2.0) + 0.5 * math.log2(0.5 / 0.75)
        assert math.isclose(kl_divergence_bits([0.5, 0.5], [0.25, 0.75]), expected)

    def test_asymmetry(self):
        p, q = [0.9, 0.1], [0.5, 0.5]
        assert kl_divergence_bits(p, q) != kl_divergence_bits(q, p)

    def test_support_violation_raises(self):
        with pytest.raises(ValueError):
            kl_divergence_bits([0.5, 0.5], [1.0, 0.0])

    def test_zero_p_bins_contribute_nothing(self):
        assert kl_divergence_bits([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_normalizes_inputs(self):
        assert kl_divergence_bits([2.0, 2.0], [1.0, 3.0]) == pytest.approx(
            kl_divergence_bits([0.5, 0.5], [0.25, 0.75])
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence_bits([0.5, 0.5], [0.2, 0.3, 0.5])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_smoothed_random_pairs_nonnegative_and_zero_on_self(self, seed):
        rng = np.random.RandomState(seed)
        a = rng.normal(-3, 1.2, size=60)
        b = rng.normal(-4, 0.8, size=60)
        edges = shared_edges([a, b])
        pa = gaussian_smooth(build_density_histogram(a, edges=edges))
        pb = gaussian_smooth(build_density_histogram(b, edges=edges))
        kl = kl_divergence_bits(pa, pb)
        assert kl >= 0.0
        assert kl_divergence_bits(pa, pa) < 1e-9

    def test_oracle_summation_crosscheck(self):
        """Replicate the bin-mass sum with plain numpy as an independent check."""
        rng = np.random.RandomState(7)
        a = rng.normal(-2, 1, 80)
        b = rng.normal(-3, 1, 80)
        edges = shared_edges([a, b])
        pa = gaussian_smooth(build_density_histogram(a, edges=edges))
        pb = gaussian_smooth(build_density_histogram(b, edges=edges))
        p, q = pa.masses, pb.masses
        expected = float(np.sum(np.where(p != 0, p * np.log2(p / q), 0.0)))
        assert kl_divergence_bits(pa, pb) == pytest.approx(expected, rel=1e-12)
