"""Scoring tests: parsers, accuracy, consistency measures, random baseline."""

from __future__ import annotations

import json
import math
import shutil
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mc_reference import reference_monte_carlo

from ambigseq import evaluation
from ambigseq.analysis import (
    accuracy,
    analyze_results,
    cross_context_consistency,
    judged_consistency,
)
from ambigseq.backends import (
    NO_VALID_ANSWER,
    CompletionRequest,
    OracleBackend,
    ScriptedBackend,
)
from ambigseq.campaign import (
    NO_PAIR_NOTE,
    PlannedQuery,
    _result_line,
    config_space,
    dataset_filename,
    load_campaign_datasets,
    plan_queries,
    run_campaign,
)
from ambigseq.config import CampaignConfig, canonical_json
from ambigseq.evaluation import (
    EvalRecord,
    aggregate_runs,
    annotate_correctness,
    build_eval_record,
    eval_record_to_json,
    expected_random_consistency,
    verbalization_scores,
)
from ambigseq.funcspace import (
    MAX_NUMERAL_DIGITS,
    TEMPLATE_TEXTS,
    ConcreteFunction,
    TemplateKind,
    enumerate_space,
    parse,
)
from ambigseq.mining import (
    AmbiguityRecord,
    Dataset,
    DatasetParameters,
    Generator,
    SequenceRecord,
    continuations_of,
    format_int,
    mine,
)
from ambigseq.prompting import PromptSpec, Task, build_prompt, parse_response

ARITH43 = ConcreteFunction(TemplateKind.ARITHMETIC, 4, 3)
BITOR33 = ConcreteFunction(TemplateKind.BIT_OR, 3, 3)
AMBIG = SequenceRecord((7, 11, 15))


@pytest.fixture(scope="module")
def space():
    return enumerate_space()


@pytest.fixture(scope="module")
def dataset(space):
    return mine(space, length=3)


def _record(dataset, values):
    """The dataset's record of the value prefix ``values``, or None."""
    return next((r for r in dataset.records() if r.sequence.values == tuple(values)), None)


def result_line(dataset, task, sequence, text, run_id=0):
    """The results-file line the campaign's writer builds for the answer
    ``text`` to ``task`` on the dataset's record of ``sequence``."""
    query = PlannedQuery(len(sequence.values), run_id, task, _record(dataset, sequence.values))
    return _result_line(query, text, None, None, None)


def by_task(lines, task):
    return [line for line in lines if line["task"] == task.value]


@st.composite
def explanation_texts(draw, depth=0):
    """An explanation answer: a function of literals (with leading zeros),
    the variable and the five operators, with blanks and redundant
    parentheses, its variable named freely, in a base-2 ``bin(...)`` and
    after the ``Explanation:`` marker at will; or a template's text."""
    if depth == 0:
        if draw(st.booleans()):
            kind = draw(st.sampled_from(list(TemplateKind)))
            return TEMPLATE_TEXTS[kind].format(*draw(st.tuples(*[st.integers(0, 99)] * 2)))
        name = draw(st.sampled_from(["x", "n", "value"]))
        body = draw(explanation_texts(depth=1)).replace("x", name)
        if draw(st.booleans()):
            body = f"bin({body})"
        marker = draw(st.sampled_from(["", "Explanation: ", "explanation:"]))
        return f"{marker}lambda {name}: {body}"
    if depth > 4 or draw(st.booleans()):
        text = draw(st.sampled_from(["x", "0", "7", "007", "12"]))
    else:
        op = draw(st.sampled_from(["+", "*", "**", "|", "%"]))
        left, right = (draw(explanation_texts(depth=depth + 1)) for _ in "lr")
        text = f"{left}{draw(st.sampled_from(['', ' ', '  ']))}{op} {right}"
    return f"({text})" if draw(st.booleans()) else text


class TestParsers:
    @pytest.mark.parametrize(
        "text,base,expected",
        [
            ("19", 10, 19),
            (" 19 ", 10, 19),
            ("0b10011", 2, 19),
            ("probably 19 or 15", 10, None),
            ("19.", 10, None),
            ("", 10, None),
            ("-3", 10, None),
        ],
    )
    def test_completion(self, text, base, expected):
        assert parse_response(Task.COMPLETION, text, base) == expected

    def test_explanation_with_marker(self):
        text = "Explanation: lambda x: (4 * x) + 3"
        assert parse_response(Task.EXPLANATION, text) == ARITH43

    def test_explanation_bare(self):
        assert parse_response(Task.EXPLANATION, "lambda x: (4 * x) + 3") == ARITH43

    def test_explanation_prose_invalid(self):
        assert parse_response(Task.EXPLANATION, "Explanation: I think x+2") is None

    def test_explanation_sentinel_invalid(self):
        assert parse_response(Task.EXPLANATION, NO_VALID_ANSWER) is None

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("consistent", True),
            ("inconsistent", False),
            ("Consistent.", True),
            ("'inconsistent'", False),
            ("maybe", None),
            ("the pair is consistent", None),
            ("", None),
        ],
    )
    def test_judgment(self, text, expected):
        assert parse_response(Task.CONSISTENCY_JUDGMENT, text) == expected

    @pytest.mark.parametrize(
        "text,base,expected",
        [
            ("15 \\n 19 \\n", 10, (15, 19)),
            ("15\n19", 10, (15, 19)),
            ("19", 10, (19,)),
            ("", 10, ()),
            ("0b1111 \\n 0b10011", 2, (15, 19)),
            ("15 \\n maybe 19", 10, None),
        ],
    )
    def test_verbalized(self, text, base, expected):
        assert parse_response(Task.VERBALIZE_ALTERNATIVES, text, base) == expected

    @pytest.mark.parametrize("base", [10, 2])
    @pytest.mark.parametrize("task", list(Task))
    def test_overlong_numerals_are_invalid(self, task, base):
        numeral = "1" * 5000 if base == 10 else "0b" + "1" * 20_000
        text = {
            Task.COMPLETION: numeral,
            Task.EXPLANATION: f"Explanation: lambda x: ({'1' * 5000} * x) + 1",
            Task.CONSISTENCY_JUDGMENT: f"consistent {numeral}",
            Task.VERBALIZE_ALTERNATIVES: f"{format_int(15, base)} \\n {numeral} \\n",
        }[task]
        record = build_eval_record(task, text, base)
        assert record.valid is (task is Task.CONSISTENCY_JUDGMENT)
        canonical_json(eval_record_to_json(record))  # the answer's fields encode

    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([10, 2]))
    def test_parse_render_identity(self, value, base):
        assert parse_response(Task.COMPLETION, format_int(value, base), base) == value


class TestEvalRecord:
    def test_build_valid_completion(self):
        record = build_eval_record(Task.COMPLETION, "19", 10)
        assert record.valid and record.parsed == 19 and record.correct is None

    def test_build_invalid(self):
        record = build_eval_record(Task.COMPLETION, "dunno", 10)
        assert not record.valid and record.parsed is None

    def test_invalid_cannot_be_correct(self):
        with pytest.raises(ValueError):
            EvalRecord(Task.COMPLETION, "x", None, False, correct=True)

    def test_valid_flag_must_track_parse(self):
        with pytest.raises(ValueError):
            EvalRecord(Task.COMPLETION, "19", 19, False)

    def test_parsed_type_checked(self):
        with pytest.raises(ValueError):
            EvalRecord(Task.COMPLETION, "19", True, True)
        with pytest.raises(ValueError):
            EvalRecord(Task.EXPLANATION, "19", 19, True)

    # the parsed answer as a results line stores it; analysis reads it back
    JSON_PARSED = {
        (Task.COMPLETION, "19"): {"kind": "int", "value": 19},
        (Task.COMPLETION, "garbage"): {"kind": "invalid"},
        (Task.EXPLANATION, "Explanation: lambda x: (4 * x) + 3"): {
            "kind": "function",
            "value": "lambda x: (4 * x) + 3",
        },
        (Task.CONSISTENCY_JUDGMENT, "inconsistent"): {"kind": "bool", "value": False},
        (Task.VERBALIZE_ALTERNATIVES, "15 \\n 19 \\n"): {
            "kind": "ints",
            "value": [15, 19],
        },
        (Task.VERBALIZE_ALTERNATIVES, ""): {"kind": "ints", "value": []},
    }

    @pytest.mark.parametrize("task,text", list(JSON_PARSED))
    def test_json_round_trip(self, task, text):
        record = build_eval_record(task, text, 10)
        assert eval_record_to_json(record)["parsed"] == self.JSON_PARSED[task, text]

    def test_json_round_trip_base2(self):
        record = build_eval_record(Task.COMPLETION, "0b10011", 2)
        assert eval_record_to_json(record)["parsed"] == {"kind": "int", "value": 19}

    @settings(max_examples=300, deadline=None)
    @given(explanation_texts(), st.sampled_from([10, 2]))
    @example("Explanation: lambda x: " + "(" * 100 + "x" + ")" * 100, 10)
    @example("lambda x: " + " + ".join(["x"] * 101), 10)
    @example(f"lambda x: x * 0{'0' * (MAX_NUMERAL_DIGITS - 2)}7", 10)
    @example(f"lambda y: bin({TEMPLATE_TEXTS[TemplateKind.RECURSIVE].format(3, 4)}(y))", 2)
    @example(TEMPLATE_TEXTS[TemplateKind.INDEXING_CRITERIA].format(3, 4).replace("x", "y"), 10)
    def test_every_recorded_explanation_parses_back(self, text, base):
        # a valid explanation line's parsed value is parsed again, unguarded,
        # by the judgments of a run and by the analysis
        record = build_eval_record(Task.EXPLANATION, text, base)
        if record.valid:
            assert parse(eval_record_to_json(record)["parsed"]["value"]) == record.parsed


def unambiguous_sample(dataset, n=25):
    return dataset.unambiguous[:n]


class TestAccuracy:
    def test_perfect_oracle_is_100(self, space, dataset):
        explanations, completions = [], []
        for ds_record in unambiguous_sample(dataset):
            seq = ds_record.sequence
            (answer,) = ds_record.continuations
            completions.append(result_line(dataset, Task.COMPLETION, seq, str(answer)))
            explanations.append(
                result_line(
                    dataset,
                    Task.EXPLANATION,
                    seq,
                    f"Explanation: {ds_record.functions[0].text}",
                )
            )
        metrics = accuracy(explanations, completions)
        assert metrics["completion_accuracy"] == 100.0
        assert metrics["explanation_accuracy"] == 100.0
        assert metrics["valid_fraction"] == 100.0

    def test_always_invalid_is_0(self, dataset):
        completions = [
            result_line(dataset, Task.COMPLETION, r.sequence, "no idea")
            for r in unambiguous_sample(dataset)
        ]
        metrics = accuracy([], completions)
        assert metrics["completion_accuracy"] == 0.0
        assert metrics["valid_fraction"] == 0.0
        assert metrics["explanation_accuracy"] is None

    def test_wrong_but_valid_counts_invalid_fraction_separately(self, dataset):
        ds_record = unambiguous_sample(dataset)[0]
        (answer,) = ds_record.continuations
        completions = [
            result_line(dataset, Task.COMPLETION, ds_record.sequence, str(answer + 1)),
            result_line(dataset, Task.COMPLETION, ds_record.sequence, str(answer)),
        ]
        metrics = accuracy([], completions)
        assert metrics["completion_accuracy"] == 50.0
        assert metrics["valid_fraction"] == 100.0

    def test_explanation_requires_exact_form(self, space, dataset):
        # find an unambiguous sequence with a single generating function,
        # then answer with some other parseable function
        target = next(r for r in dataset.unambiguous if len(r.functions) == 1)
        other = ARITH43 if ARITH43 not in target.functions else BITOR33
        explanations = [result_line(dataset, Task.EXPLANATION, target.sequence, other.text)]
        metrics = accuracy(explanations, [])
        assert metrics["explanation_accuracy"] == 0.0
        assert metrics["valid_fraction"] == 100.0

    def test_ambiguous_sequence_rejected(self, tmp_path, mined_l3):
        """Only a run's unambiguous explanation and completion lines count
        toward accuracy: in an oracle campaign's results, answering every
        ambiguous completion and explanation, every judgment and every
        verbalization with an invalid text leaves the figures at 100%. With
        no valid pair to judge, a judgment line is the one the writer files
        without asking the backend."""
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(mined_l3, out / dataset_filename(3))
        config = CampaignConfig(lengths=(3,), limit_sequences=2, n_runs=2, output_dir=str(out))
        results = run_campaign(config).results_file
        header, *rows = results.read_text().splitlines()
        queries = plan_queries(config, load_campaign_datasets(config, config_space(config)))
        scored = ("explanation", "completion")
        lines = [
            _result_line(query, "", None, None, NO_PAIR_NOTE)
            if query.task is Task.CONSISTENCY_JUDGMENT
            else _result_line(query, "banana", None, None, None)
            if query.record.is_ambiguous or query.task.value not in scored
            else json.loads(row)
            for query, row in zip(queries, rows)
        ]
        assert {line["task"] for line in lines if not line["valid"]} == {
            *scored, "consistency_judgment", "verbalize_alternatives"
        }
        results.write_text("\n".join([header, *map(canonical_json, lines)]) + "\n")

        per_run = analyze_results(results)["per_length"]["3"]["per_run"]
        for run in per_run:
            explanations, completions = (
                [r for r in lines if (r["run_id"], r["task"], r["ambiguous"])
                 == (run["run_id"], task, False)]
                for task in scored
            )
            figures = accuracy(explanations, completions)
            assert figures == {
                "explanation_accuracy": 100.0,
                "completion_accuracy": 100.0,
                "valid_fraction": 100.0,
            }
            assert {key: run[key] for key in figures} == figures
            assert run["cross_context"]["invalid"] == 2
        assert len(per_run) == 2

    def test_annotate_correctness(self, dataset):
        ds_record = unambiguous_sample(dataset)[0]
        (answer,) = ds_record.continuations
        cases = [
            (str(answer), ds_record),
            (str(answer + 1), ds_record),
            ("garbage", ds_record),
            ("19", _record(dataset, AMBIG.values)),
        ]
        annotated = [
            annotate_correctness(build_eval_record(Task.COMPLETION, text, 10), rec)
            for text, rec in cases
        ]
        assert [r.correct for r in annotated] == [True, False, None, None]
        judgment = build_eval_record(Task.CONSISTENCY_JUDGMENT, "consistent", 10)
        assert annotate_correctness(judgment, ds_record) is judgment


class TestCrossContext:
    @pytest.mark.parametrize(
        "completion,explanation,expected",
        [
            (19, ARITH43, True),
            (15, BITOR33, True),
            (15, ARITH43, False),
        ],
    )
    def test_reference_cases(self, space, completion, explanation, expected):
        assert (completion in continuations_of(explanation, AMBIG.values, space)) == expected

    def test_score_buckets(self, space, dataset):
        answers = {
            0: ("19", ARITH43.text),
            1: ("15", ARITH43.text),
            2: ("19", "not a function"),
        }
        per_run = {}
        for run_id, (completion, explanation) in answers.items():
            per_run[run_id] = cross_context_consistency(
                [result_line(dataset, Task.COMPLETION, AMBIG, completion, run_id)],
                [result_line(dataset, Task.EXPLANATION, AMBIG, explanation, run_id)],
                space,
            )
        assert per_run == {
            0: {"consistent": 1, "inconsistent": 0, "invalid": 0, "rate": 100.0},
            1: {"consistent": 0, "inconsistent": 1, "invalid": 0, "rate": 0.0},
            2: {"consistent": 0, "inconsistent": 0, "invalid": 1, "rate": None},
        }
        mean = aggregate_runs(
            [{"cross_context_consistency": s["rate"]} for s in per_run.values()]
        )
        assert mean == {"cross_context_consistency": 50.0, "n_runs": 3}

    def test_rate_none_when_all_invalid(self, space, dataset):
        summary = cross_context_consistency(
            [result_line(dataset, Task.COMPLETION, AMBIG, "??")],
            [result_line(dataset, Task.EXPLANATION, AMBIG, "??")],
            space,
        )
        assert summary["rate"] is None and summary["invalid"] == 1

    @staticmethod
    def oracle_lines(backend, space, dataset, sample):
        lines = []
        for ds_record in sample:
            for task in (Task.COMPLETION, Task.EXPLANATION):
                prompt = build_prompt(
                    PromptSpec(task=task, n_shots=0), ds_record.sequence, space
                )
                text = backend.complete(CompletionRequest(prompt)).text
                lines.append(result_line(dataset, task, ds_record.sequence, text))
        return lines

    def test_consistent_oracle_everywhere(self, space, dataset):
        sample = dataset.ambiguous[:6] + dataset.unambiguous[:6]
        lines = self.oracle_lines(OracleBackend(space), space, dataset, sample)
        summary = cross_context_consistency(
            by_task(lines, Task.COMPLETION),
            by_task(lines, Task.EXPLANATION),
            space,
        )
        assert summary["rate"] == 100.0
        assert summary["invalid"] == 0

    def test_adversarial_oracle_zero_on_ambiguous(self, space, dataset):
        backend = OracleBackend(space, mode="adversarial")
        lines = self.oracle_lines(backend, space, dataset, dataset.ambiguous[:8])
        summary = cross_context_consistency(
            by_task(lines, Task.COMPLETION),
            by_task(lines, Task.EXPLANATION),
            space,
        )
        assert summary["rate"] == 0.0
        assert summary["invalid"] == 0


def judge(backend, space, completion, explanation):
    """The backend's parsed verdict on one (explanation, completion) pair."""
    prompt = build_prompt(
        PromptSpec(task=Task.CONSISTENCY_JUDGMENT),
        AMBIG,
        space,
        judged=(explanation, completion),
    )
    text = backend.complete(CompletionRequest(prompt)).text
    return parse_response(Task.CONSISTENCY_JUDGMENT, text)


class TestModelJudged:
    def test_oracle_judge_agrees_with_execution(self, space):
        backend = OracleBackend(space)
        assert judge(backend, space, 19, ARITH43) is True
        assert judge(backend, space, 15, ARITH43) is False

    def test_unparseable_verdict_is_invalid(self, space):
        backend = ScriptedBackend({}, default="hard to say")
        assert judge(backend, space, 19, ARITH43) is None

    def test_summary(self, dataset):
        lines = [
            result_line(dataset, Task.CONSISTENCY_JUDGMENT, AMBIG, text)
            for text in ("consistent", "consistent", "inconsistent", "hard to say")
        ]
        assert judged_consistency(lines) == {
            "consistent": 2,
            "inconsistent": 1,
            "invalid": 1,
            "rate": 100.0 * 2 / 3,
        }


def two_way_record(values, fn_a, off_a, cont_a, fn_b, off_b, cont_b, base=10):
    return AmbiguityRecord(
        sequence=SequenceRecord(tuple(values), base),
        generators=(
            Generator(fn_a, off_a, cont_a),
            Generator(fn_b, off_b, cont_b),
        ),
    )


@pytest.fixture(scope="module")
def fifty_fifty_dataset():
    """Every sequence has two single-continuation generators: exactly half of
    the explanation/continuation pairings align, so expected consistency at
    full validity is 50%."""
    records = [
        two_way_record([7, 11, 15], ARITH43, 0, 19, BITOR33, 1, 15),
        two_way_record(
            [1, 2, 3],
            ConcreteFunction(TemplateKind.ARITHMETIC, 1, 0),
            0,
            4,
            ConcreteFunction(TemplateKind.INDEXING_CRITERIA, 0, 2),
            0,
            5,
        ),
    ]
    params = DatasetParameters(sequence_length=3)
    return Dataset(parameters=params, ambiguous=tuple(records), unambiguous=())


def chance(p_expl, p_compl, records, n_samples=1000, rng_seed=0):
    return expected_random_consistency(
        p_expl, p_compl, records, n_samples=n_samples, rng_seed=rng_seed
    )


class TestExpectedRandomConsistency:
    def test_closed_form_fifty_fifty(self, fifty_fifty_dataset):
        closed, _ = chance(100, 100, fifty_fifty_dataset.ambiguous)
        assert closed == pytest.approx(50.0)

    def test_monte_carlo_matches_closed_form(self, fifty_fifty_dataset):
        n = 10_000
        _, mc = chance(100, 100, fifty_fifty_dataset.ambiguous, n_samples=n, rng_seed=1)
        # mean of 2 record-level binomial rates: sigma <= 0.5/sqrt(2n)
        sigma = 100 * 0.5 / math.sqrt(2 * n)
        assert abs(mc - 50.0) < 3 * sigma

    def test_zero_explanation_probability(self, fifty_fifty_dataset):
        assert chance(0, 100, fifty_fifty_dataset.ambiguous) == (0.0, 0.0)

    def test_unambiguous_only_is_100(self, dataset):
        closed, mc = chance(100, 100, dataset.unambiguous[:20], n_samples=200)
        assert closed == pytest.approx(100.0)
        assert mc == pytest.approx(100.0)

    def test_probability_scaling(self, fifty_fifty_dataset):
        records = fifty_fifty_dataset.ambiguous
        (full, _), (half, _), (quarter, _) = (
            chance(p_expl, p_compl, records)
            for p_expl, p_compl in ((100, 100), (50, 100), (50, 50))
        )
        assert half == pytest.approx(full / 2)
        assert quarter == pytest.approx(full / 4)

    def test_monte_carlo_on_real_dataset_agrees(self, dataset):
        n = 4000
        closed, mc = chance(100, 100, dataset.ambiguous, n_samples=n, rng_seed=7)
        sigma = 100 * 0.5 / math.sqrt(len(dataset.ambiguous) * n)
        assert abs(mc - closed) < 3 * sigma

    def test_deterministic_per_seed(self, fifty_fifty_dataset):
        records = fifty_fifty_dataset.ambiguous
        assert chance(80, 90, records, rng_seed=5) == chance(80, 90, records, rng_seed=5)

    def test_wrong_branch_scores_inconsistent_when_materialized(self, space, dataset):
        # the sampler's shortcut: any function outside the generator set fails
        # the execution check, so scoring the branch False is exact
        ds_record = dataset.ambiguous[0]
        non_generating = next(
            fn for fn in space if fn not in ds_record.functions
        )
        assert not continuations_of(non_generating, ds_record.sequence.values, space)

    def test_validates_inputs(self, fifty_fifty_dataset):
        with pytest.raises(ValueError, match="percentages"):
            chance(101, 100, fifty_fifty_dataset.ambiguous)
        with pytest.raises(ValueError, match="no records to estimate over"):
            chance(100, 100, ())


@pytest.fixture(scope="module")
def pinning_dataset(dataset):
    """Every ambiguous length-3 record, plus the first unambiguous record
    with each number of generating functions from 1 to 4 that occurs."""
    unambiguous = {}
    for record in dataset.unambiguous:
        unambiguous.setdefault(len(record.functions), record)
    return Dataset(
        parameters=dataset.parameters,
        ambiguous=dataset.ambiguous,
        unambiguous=tuple(unambiguous[n] for n in sorted(unambiguous) if n <= 4),
    )


class TestMonteCarloMatchesReference:
    """The index sampler reads the reference loop's ``Random`` stream draw
    for draw, so their estimates are the same floats."""

    N_SAMPLES = 300

    def test_dataset_covers_rejection_sizes(self, pinning_dataset):
        # Sizes 1, 2 and 4 reject half of their getrandbits words.
        records = tuple(pinning_dataset.records())
        for size in (1, 2, 3, 4):
            assert any(len(r.functions) == size for r in records)
            assert any(len(r.continuations) == size for r in records)

    @pytest.mark.parametrize("rng_seed", [0, 1, 7, 123])
    @pytest.mark.parametrize(
        "p_expl,p_compl",
        [(0, 100), (100, 0), (100, 100), (31.18, 65.95), (50, 30)],
    )
    @pytest.mark.parametrize("which", ["all", "ambiguous", "unambiguous"])
    def test_exact_equality(self, pinning_dataset, rng_seed, p_expl, p_compl, which):
        records = {
            "all": tuple(pinning_dataset.records()),
            "ambiguous": pinning_dataset.ambiguous,
            "unambiguous": pinning_dataset.unambiguous,
        }[which]
        expected = reference_monte_carlo(
            p_expl, p_compl, records, self.N_SAMPLES, rng_seed
        )
        _, value = chance(p_expl, p_compl, records, self.N_SAMPLES, rng_seed)
        assert value == expected

    def test_second_draw_made_when_first_fails(self, monkeypatch, pinning_dataset):
        draws = []

        class CountingRandom(Random):
            def random(self):
                draws.append(None)
                return super().random()

        monkeypatch.setattr(evaluation, "Random", CountingRandom)
        records = tuple(pinning_dataset.records())
        # p_expl 0 fails every first draw
        chance(0, 100, records, n_samples=50)
        assert len(draws) == 2 * 50 * len(records)


class TestVerbalization:
    @pytest.mark.parametrize(
        "answers,valid,expected",
        [
            ((19, 15), {19, 15}, (1.0, 1.0)),
            ((19, 15, 21), {19, 15}, (2 / 3, 1.0)),
            ((19, 15, 15), {19, 15}, (1.0, 1.0)),
            ((), {19, 15}, (0.0, 0.0)),
            ((21,), {19, 15}, (0.0, 0.0)),
            ((19,), {19, 15}, (1.0, 0.5)),
        ],
    )
    def test_scores(self, answers, valid, expected):
        precision, recall = verbalization_scores(answers, valid)
        assert (precision, recall) == pytest.approx(expected)

    def test_cap_at_five(self):
        answers = (1, 2, 3, 4, 5, 19)
        precision, recall = verbalization_scores(answers, {19, 15})
        assert precision == 0.0 and recall == 0.0

    def test_empty_valid_set_rejected(self):
        with pytest.raises(ValueError):
            verbalization_scores((19,), set())


class TestAggregateRuns:
    def test_identical_runs(self):
        run = {"completion_accuracy": 80.0, "valid_fraction": 100.0}
        agg = aggregate_runs([run, run, run])
        assert agg == {"completion_accuracy": 80.0, "valid_fraction": 100.0, "n_runs": 3}

    def test_mean_of_extremes(self):
        runs = [
            {"cross_context_consistency": 0.0},
            {"cross_context_consistency": 100.0},
        ]
        assert aggregate_runs(runs)["cross_context_consistency"] == 50.0

    def test_missing_fields_stay_missing(self):
        runs = [
            {"precision": 0.5, "recall": 1.0, "completion_accuracy": None},
            {"precision": 1.0, "recall": None, "completion_accuracy": None},
        ]
        agg = aggregate_runs(runs)
        assert agg["precision"] == 0.75
        assert agg["recall"] == 1.0
        assert agg["completion_accuracy"] is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])
