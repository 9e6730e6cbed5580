"""Distribution tests: top-k compatibility test, histograms, smoothing, KL."""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambigseq import analysis
from ambigseq.campaign import (
    LOGPROBS_UNAVAILABLE_NOTE,
    config_space,
    dataset_filename,
    load_campaign_datasets,
    mine_datasets,
    plan_queries,
    read_results,
    run_campaign,
)
from ambigseq.config import CampaignConfig
from ambigseq.distribution import (
    AlternativeTestReason,
    Histogram,
    MAX_TOP_K,
    Quadrant,
    TokenDistribution,
    _numpy_sum,
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
from ambigseq.prompting import COMPLETION_INSTRUCTIONS, Task, Variant


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

    def test_classify_tokens_reads_base2_values(self):
        d = dist(("0b10011", -0.5), ("0b1111", -1.0))
        tagged = classify_tokens(d, {19, 15}, base=2)
        assert [(t.value, t.correct) for t in tagged] == [(19, True), (15, True)]


    @given(data=st.data(), base=st.sampled_from([10, 2]))
    @settings(max_examples=300, deadline=None)
    def test_raw_pairs_classify_as_their_distribution(self, data, base):
        # the analysis groups a results line's checked [token, logprob] pairs
        # without building a TokenDistribution of them
        def render(value):
            return str(value) if base == 10 else format(value, "b")

        correct = data.draw(st.sets(st.integers(0, 300), min_size=1, max_size=4))
        renders = sorted(map(render, correct))
        token = st.one_of(
            st.integers(0, 300).map(render),
            # a strict prefix of a correct rendering, promoted when of one only
            st.sampled_from(renders).flatmap(
                lambda r: st.integers(1, len(r)).map(lambda k: r[:k])
            ),
            st.integers(0, 300).map(lambda v: f" {'0b' if base == 2 else ''}{render(v)} "),
            st.sampled_from(["yes", "answer:", " ", "0b", "-3", "1.5", "٣"]),
        )
        tokens = data.draw(st.lists(token, min_size=1, max_size=MAX_TOP_K, unique=True))
        logprob = st.one_of(st.floats(-50, 0), st.integers(-50, 0))
        logprobs = data.draw(st.lists(logprob, min_size=len(tokens), max_size=len(tokens)))
        pairs = [[t, lp] for t, lp in zip(tokens, sorted(logprobs, reverse=True))]
        distribution = TokenDistribution.from_pairs(pairs)
        assert classify_tokens(pairs, correct, base) == classify_tokens(
            distribution, correct, base
        )
        assert group_logprobs_by_quadrant(pairs, correct, base) == group_logprobs_by_quadrant(
            distribution, correct, base
        )


class TestHistogram:
    def test_masses_sum_to_one(self):
        h = build_density_histogram([1.0, 2.0, 2.5, 4.0], n_bins=10)
        assert math.isclose(math.fsum(h.masses), 1.0, rel_tol=1e-12)

    def test_default_forty_bins(self):
        np = pytest.importorskip("numpy")
        h = build_density_histogram(np.linspace(-5, 0, 200))
        assert len(h.densities) == 40

    def test_single_value_degenerates_gracefully(self):
        h = build_density_histogram([3.0, 3.0, 3.0], n_bins=40)
        assert math.isclose(math.fsum(h.masses), 1.0, rel_tol=1e-12)
        assert all(map(math.isfinite, h.densities))

    def test_shared_edges_span_pool(self):
        edges = shared_edges([[-3.0, -1.0], [-7.0, -2.0]], n_bins=40)
        assert edges[0] == -7.0 and edges[-1] == -1.0
        assert len(edges) == 41

    def test_shared_edges_make_comparable_histograms(self):
        a, b = [-3.0, -1.0, -2.0], [-7.0, -2.0, -2.5]
        edges = shared_edges([a, b])
        ha = build_density_histogram(a, edges=edges)
        hb = build_density_histogram(b, edges=edges)
        assert ha.edges == hb.edges

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_density_histogram([])

    def test_edges_that_do_not_increase_are_rejected(self):
        edges = [-1.0, -1.0, math.nextafter(-1.0, 0.0)]
        with pytest.raises(ValueError, match="bin edges must increase strictly"):
            build_density_histogram([-1.0], edges=edges)

    def test_a_span_narrower_than_the_bins_is_widened_like_a_point(self):
        # fewer than 40 steps of the float grid would collapse the edges
        lo, hi = -1.0, math.nextafter(-1.0, 0.0)
        edges = shared_edges([[lo], [hi]])
        assert edges == shared_edges([[lo - 0.5, hi + 0.5]])
        assert all(a < b for a, b in zip(edges, edges[1:]))
        for values in ([lo], [hi]):
            h = build_density_histogram(values, edges=edges)
            assert math.isclose(math.fsum(h.masses), 1.0, rel_tol=1e-12)

    def test_a_point_beyond_half_a_float_step_is_widened_until_the_edges_part(self):
        # at -1e17 the float step is 16: padding by 0.5 leaves 41 equal edges
        edges = shared_edges([[-1e17]])
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert edges[0] < -1e17 < edges[-1]
        h = build_density_histogram([-1e17], edges=edges)
        assert math.isclose(math.fsum(h.masses), 1.0, rel_tol=1e-12)

    def test_a_point_at_the_float_limit_is_an_error(self):
        # no finite padding parts its edges, so widening must stop
        with pytest.raises(ValueError, match="cannot bin values spanning"):
            shared_edges([[-sys.float_info.max]])

    def test_values_outside_the_edges_are_rejected(self):
        with pytest.raises(ValueError, match="no value lies within the bin edges"):
            build_density_histogram([5.0], edges=[0.0, 1.0, 2.0])

    def test_edge_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0, 1.0), (0.0, 1.0, 2.0))


class TestGaussianSmooth:
    def test_mass_preserved(self):
        h = build_density_histogram([-1.0, -2.0, -2.1, -5.0], n_bins=40)
        s = gaussian_smooth(h, sigma=1.0)
        assert math.isclose(math.fsum(s.masses), 1.0, rel_tol=1e-12)

    def test_full_support(self):
        # a delta in the first bin must still reach the last bin
        np = pytest.importorskip("numpy")
        h = build_density_histogram([0.0] * 5, n_bins=40,
                                    edges=np.linspace(0, 40, 41))
        s = gaussian_smooth(h, sigma=1.0)
        assert all(m > 0 for m in s.masses)

    def test_tiny_sigma_approaches_identity(self):
        h = build_density_histogram([1.0, 1.0, 7.0, 9.5], n_bins=20)
        s = gaussian_smooth(h, sigma=1e-6)
        assert s.masses == pytest.approx(h.masses, abs=1e-9)

    def test_smoothing_reduces_peaks(self):
        np = pytest.importorskip("numpy")
        h = build_density_histogram([5.0] * 100, n_bins=11,
                                    edges=np.linspace(0, 11, 12))
        s = gaussian_smooth(h, sigma=2.0)
        assert max(s.masses) < max(h.masses)

    def test_sigma_validation(self):
        h = build_density_histogram([1.0, 2.0])
        with pytest.raises(ValueError):
            gaussian_smooth(h, sigma=0.0)

    def test_symmetric_input_stays_symmetric(self):
        masses = (0.0,) * 4 + (1.0,) + (0.0,) * 4
        h = Histogram(masses, tuple(map(float, range(10))))
        s = gaussian_smooth(h, sigma=1.5)
        assert s.masses == pytest.approx(s.masses[::-1])


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
        np = pytest.importorskip("numpy")
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
        np = pytest.importorskip("numpy")
        rng = np.random.RandomState(7)
        a = rng.normal(-2, 1, 80)
        b = rng.normal(-3, 1, 80)
        edges = shared_edges([a, b])
        pa = gaussian_smooth(build_density_histogram(a, edges=edges))
        pb = gaussian_smooth(build_density_histogram(b, edges=edges))
        p, q = np.array(pa.masses), np.array(pb.masses)
        expected = float(np.sum(np.where(p != 0, p * np.log2(p / q), 0.0)))
        assert kl_divergence_bits(pa, pb) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# The port against the numpy code it replaced (tests/density_reference.py)
# ---------------------------------------------------------------------------

def quadrant_groups(results_file) -> list[list[list[float]]]:
    """The occupied quadrant groups of each length, as the analysis of
    ``results_file`` hands them to ``shared_edges``."""
    seen = []

    def record(groups, *args):
        seen.append([list(g) for g in groups])
        return shared_edges(groups, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "shared_edges", record)
        analysis.analyze_results(results_file)
    return seen


def compare_with_reference(groups, exact_smoothing=True):
    """Edges and histograms equal the reference's to the last bit; smoothed
    masses and the KL of every ordered pair of groups too, or where
    ``exact_smoothing`` is false, the masses to a relative 1e-12 and each KL
    to 1e-12 of the sum of its terms' magnitudes: a KL near 0 is a sum of
    terms that nearly cancel, so a last-bit difference of the masses moves
    it by more than 1e-12 of itself."""
    reference = pytest.importorskip("density_reference")  # needs numpy
    edges, ref_edges = shared_edges(groups), reference.shared_edges(groups)
    assert edges == tuple(ref_edges.tolist())
    ours = [build_density_histogram(g, edges=edges) for g in groups]
    theirs = [reference.build_density_histogram(g, edges=ref_edges) for g in groups]
    assert [h.densities for h in ours] == [tuple(h.densities.tolist()) for h in theirs]
    ours = [gaussian_smooth(h) for h in ours]
    theirs = [reference.gaussian_smooth(h) for h in theirs]
    pairs = [(i, j) for i in range(len(groups)) for j in range(len(groups)) if i != j]
    kl = [kl_divergence_bits(ours[i], ours[j]) for i, j in pairs]
    ref_kl = [reference.kl_divergence_bits(theirs[i], theirs[j]) for i, j in pairs]
    if exact_smoothing:
        assert [h.masses for h in ours] == [tuple(h.masses.tolist()) for h in theirs]
        assert kl == ref_kl
    else:
        for h, ref in zip(ours, theirs):
            assert h.masses == pytest.approx(ref.masses.tolist(), rel=1e-12, abs=0)
        for (i, j), value, ref_value in zip(pairs, kl, ref_kl):
            p, q = ours[i].masses, ours[j].masses
            p, q = [a / sum(p) for a in p], [b / sum(q) for b in q]
            terms = sum(abs(a * math.log2(a / b)) for a, b in zip(p, q) if a > 0)
            assert abs(value - ref_value) <= 1e-12 * terms, (i, j)


@pytest.fixture(scope="module")
def oracle_groups(tmp_path_factory):
    """Quadrant groups of the oracle campaign at lengths 3 and 4, 3 runs."""
    config = CampaignConfig(
        lengths=(3, 4), n_runs=3, output_dir=str(tmp_path_factory.mktemp("oracle"))
    )
    mine_datasets(config)
    return quadrant_groups(run_campaign(config).results_file)


def scripted_groups(tmp_path, mined_l3, top_logprobs):
    """Quadrant groups of a 2-run scripted campaign at length 3, 12 sequences a split,
    whose completion of ``record`` carries ``top_logprobs(record)``, and the
    number of logprob fallbacks."""
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(mined_l3, out / dataset_filename(3))
    fixtures_file = tmp_path / "fixtures.json"
    config = CampaignConfig(
        lengths=(3,), limit_sequences=12, n_runs=2, backend="scripted",
        fixtures_file=str(fixtures_file), output_dir=str(out),
    )
    instruction = COMPLETION_INSTRUCTIONS[Variant.PLAIN]
    fixtures = {}
    for query in plan_queries(config, load_campaign_datasets(config, config_space(config))):
        key = f"For the sequence: {query.record.sequence.render()}\n{instruction}"
        if query.task is Task.COMPLETION and key not in fixtures:
            top = top_logprobs(query.record)
            fixtures[key] = {"text": top[0][0] if top else "7", "top_logprobs": top}
    fixtures_file.write_text(json.dumps({"fixtures": fixtures, "default": "7"}))
    outcome = run_campaign(config)
    assert not outcome.failed, outcome.error
    notes = [line["note"] for line in read_results(outcome.results_file)[1]]
    return quadrant_groups(outcome.results_file), notes.count(LOGPROBS_UNAVAILABLE_NOTE)


class TestNumpyReference:
    def test_oracle_campaign_groups_match_exactly(self, oracle_groups):
        assert len(oracle_groups) == 2  # one set of groups per length
        for groups in oracle_groups:
            assert len(groups) >= 2
            compare_with_reference(groups)

    def test_recorded_scripted_campaign_groups_match_exactly(self, tmp_path, mined_l3):
        """Two logprob values, as a recorded fixture often has, and one
        completion without logprobs, which falls back."""
        targets = itertools.count()

        def top_logprobs(record):
            return None if next(targets) == 3 else [["7", -0.1], ["8", -2.5]]

        all_groups, fallbacks = scripted_groups(tmp_path, mined_l3, top_logprobs)
        assert fallbacks == 1
        assert len(all_groups) == 1 and len(all_groups[0]) >= 2
        compare_with_reference(all_groups[0])

    def test_spread_scripted_campaign_groups_match_to_the_last_bits(self, tmp_path, mined_l3):
        """Logprobs that spread over many bins: the kernel product is a BLAS
        ``dgemv`` in the reference, so smoothed masses and KL may differ from
        it in the last bits; edges and histograms may not."""
        rng = random.Random(3)

        def top_logprobs(record):
            tokens = [str(c) for c in record.continuations[:2]]
            tokens += [str(rng.randint(0, 60)), "x", str(rng.randint(0, 60))]
            tokens = list(dict.fromkeys(tokens))
            rng.shuffle(tokens)
            logprobs = sorted((-rng.expovariate(0.7) for _ in tokens), reverse=True)
            return [list(pair) for pair in zip(tokens, logprobs)]

        all_groups, _ = scripted_groups(tmp_path, mined_l3, top_logprobs)
        assert [len(g) for g in all_groups[0]] == [22, 52, 18, 72]
        compare_with_reference(all_groups[0], exact_smoothing=False)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(
            st.tuples(
                st.floats(min_value=-20.0, max_value=0.0),
                st.floats(min_value=0.01, max_value=5.0),
                st.integers(min_value=1, max_value=80),
            ),
            min_size=2,
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    @example(seed=4, shapes=[(0.0, 0.09375, 77), (-0.5, 3.5, 6), (0.0, 0.09375, 61)])
    def test_random_continuous_groups_match_to_the_last_bits(self, seed, shapes):
        rng = random.Random(seed)
        groups = [[rng.gauss(mu, sd) for _ in range(n)] for mu, sd, n in shapes]
        compare_with_reference(groups, exact_smoothing=False)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 40, 127, 128, 129, 300, 1000])
    def test_sum_is_numpys_to_the_last_bit(self, n):
        np = pytest.importorskip("numpy")
        rng = random.Random(n)
        values = [rng.random() * 10 ** rng.randint(-8, 8) for _ in range(n)]
        assert _numpy_sum(values) == float(np.sum(np.array(values)))
