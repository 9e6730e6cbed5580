"""Analysis of results files: metrics, baselines, quadrants, file output."""

import json
import math
import re
import shutil

import pytest

from ambigseq.analysis import (
    REFERENCE_KL_BITS,
    REFERENCE_RANDOM_CONSISTENCY,
    analyze_results,
    load_analysis,
    metrics_table,
    write_analysis,
)
from ambigseq import campaign, funcspace
from ambigseq.campaign import (
    CampaignError,
    dataset_filename,
    read_results,
    run_campaign,
)
from ambigseq.config import CampaignConfig, canonical_json
from ambigseq.distribution import MIN_LOGPROB
from ambigseq.evaluation import expected_random_consistency
from ambigseq.mining import load_dataset


def campaign_results(tmp_path, mined_l3, **overrides):
    out = tmp_path / "out"
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(mined_l3, out / dataset_filename(3))
    defaults = dict(
        lengths=(3,), limit_sequences=2, n_runs=2, output_dir=str(out)
    )
    defaults.update(overrides)
    config = CampaignConfig(**defaults)
    outcome = run_campaign(config)
    assert not outcome.failed
    return config, outcome.results_file


@pytest.fixture(scope="module")
def analysis(tmp_path_factory, mined_l3):
    tmp = tmp_path_factory.mktemp("oracle_analysis")
    config, results_file = campaign_results(tmp, mined_l3)
    doc = analyze_results(results_file)
    return config, doc


class TestOracleAnalysis:
    def test_document_identity(self, analysis):
        config, doc = analysis
        assert doc["config_digest"] == config.digest()
        assert doc["backend"] == "oracle"
        assert doc["n_records"] == 24

    def test_aggregate_is_perfect(self, analysis):
        _, doc = analysis
        agg = doc["per_length"]["3"]["aggregate"]
        assert agg["explanation_accuracy"] == 100.0
        assert agg["completion_accuracy"] == 100.0
        assert agg["valid_fraction"] == 100.0
        assert agg["cross_context_consistency"] == 100.0
        assert agg["model_judged_consistency"] == 100.0
        assert agg["precision"] == 1.0
        assert agg["recall"] == 1.0
        assert agg["alternative_test_pass_rate"] == 100.0
        assert agg["n_runs"] == 2

    def test_per_run_blocks(self, analysis):
        _, doc = analysis
        per_run = doc["per_length"]["3"]["per_run"]
        assert [f["run_id"] for f in per_run] == [0, 1]
        for fields in per_run:
            assert fields["cross_context"] == {
                "consistent": 2, "inconsistent": 0, "invalid": 0, "rate": 100.0,
            }
            assert fields["model_judged"]["rate"] == 100.0
            assert fields["verbalization"]["scored"] == 2
            assert fields["alternative_test"]["failed"] == 0

    def test_random_baseline_matches_direct_computation(
        self, analysis, mined_l3
    ):
        _, doc = analysis
        baseline = doc["per_length"]["3"]["random_baseline"]
        records = load_dataset(mined_l3).ambiguous
        expected, _ = expected_random_consistency(
            100, 100, records, n_samples=1, rng_seed=0
        )
        assert baseline["closed_form"] == pytest.approx(expected)
        assert abs(baseline["monte_carlo"] - expected) < 3 * baseline["sigma_bound"]

    def test_reference_rows(self, analysis):
        _, doc = analysis
        rows = doc["reference_random_consistency"]
        assert len(rows) == len(REFERENCE_RANDOM_CONSISTENCY)
        for row, ref in zip(rows, REFERENCE_RANDOM_CONSISTENCY):
            assert row["reported"] == ref["reported"]
            assert row["lengths"] == [3]
            assert row["gap"] == pytest.approx(
                row["computed_closed_form"] - ref["reported"]
            )
        assert doc["reference_kl_bits"] == REFERENCE_KL_BITS

    def test_quadrant_block_shape(self, analysis):
        _, doc = analysis
        quadrants = doc["per_length"]["3"]["quadrants"]
        assert set(quadrants["kl_bits"]) == set(REFERENCE_KL_BITS)
        assert all(count >= 0 for count in quadrants["counts"].values())
        # the oracle answers correctly and ranks its answer first, so the
        # incorrect-predicted quadrant never fills
        assert quadrants["counts"]["incorrect_predicted"] == 0


class TestAdversarialAnalysis:
    def test_inconsistency_is_visible(self, tmp_path, mined_l3):
        _, results_file = campaign_results(
            tmp_path, mined_l3, backend="adversarial", n_runs=1
        )
        doc = analyze_results(results_file)
        agg = doc["per_length"]["3"]["aggregate"]
        # wrong completions, but explanations are genuine generators
        assert agg["completion_accuracy"] == 0.0
        assert agg["explanation_accuracy"] == 100.0
        assert agg["cross_context_consistency"] == 0.0
        assert agg["model_judged_consistency"] == 0.0


class TestValuesComeFromTheSpace:
    def test_judgments_and_analysis_evaluate_nothing_past_enumeration(
        self, tmp_path, mined_l3, monkeypatch
    ):
        # every oracle answer is a space member, so each judged pair is read
        # from the rows enumerate_space filled: only enumerations evaluate
        evaluate, enumerate_space = funcspace.evaluate, campaign.enumerate_space
        enumerating, calls = [], []

        def counted_evaluate(fn, x):
            calls.append(bool(enumerating))
            return evaluate(fn, x)

        def counted_enumerate(*args, **kwargs):
            enumerating.append(True)
            try:
                return enumerate_space(*args, **kwargs)
            finally:
                enumerating.pop()

        monkeypatch.setattr(funcspace, "evaluate", counted_evaluate)
        monkeypatch.setattr(campaign, "enumerate_space", counted_enumerate)
        _, results_file = campaign_results(tmp_path, mined_l3, limit_sequences=8, n_runs=1)
        _, lines = read_results(results_file)
        assert any(line["task"] == "consistency_judgment" and line["valid"] for line in lines)
        doc = analyze_results(results_file)
        assert doc["per_length"]["3"]["per_run"][0]["cross_context"]["consistent"] > 0
        assert True in calls and False not in calls


class TestScriptedHandScored:
    """A campaign with hand-written responses must reproduce hand-computed
    metrics through the whole pipeline (prompts, parsing, analysis)."""

    def test_mixed_quality_answers(self, tmp_path, mined_l3):
        from ambigseq.campaign import (
            PlannedQuery,
            config_space,
            prompt_seed,
        )
        from ambigseq.funcspace import render_function
        from ambigseq.mining import continuations_of
        from ambigseq.prompting import PromptSpec, Task, build_prompt

        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(mined_l3, out / dataset_filename(3))
        fixtures_path = tmp_path / "fixtures.json"
        config = CampaignConfig(
            lengths=(3,),
            limit_sequences=2,
            n_runs=1,
            tasks=("completion", "explanation"),
            backend="scripted",
            fixtures_file=str(fixtures_path),
            want_top_logprobs=0,
            output_dir=str(out),
        )
        space = config_space(config)
        dataset = load_dataset(mined_l3)
        amb = dataset.ambiguous[:2]
        unamb = dataset.unambiguous[:2]

        def test_query(record, task):
            query = PlannedQuery(3, 0, task, record)
            spec = PromptSpec(
                task=task,
                variant=config.variant_enum,
                base=config.base,
                n_shots=config.n_shots,
                shot_sampling=config.shot_sampling_enum,
                rng_seed=prompt_seed(config, query),
            )
            prompt = build_prompt(spec, record.sequence, space)
            return prompt.test_query

        # ambiguous 0: completion and explanation that agree under execution
        agree_fn = amb[0].generators[0].function
        agree_value = amb[0].generators[0].continuation
        # ambiguous 1: a completion no explanation can generate
        rogue_value = max(amb[1].continuations) + 999
        assert rogue_value not in continuations_of(
            amb[1].generators[0].function, amb[1].sequence.values, space
        )
        fixtures = {
            test_query(amb[0], Task.COMPLETION): str(agree_value),
            test_query(amb[0], Task.EXPLANATION): render_function(agree_fn, 10),
            test_query(amb[1], Task.COMPLETION): str(rogue_value),
            test_query(amb[1], Task.EXPLANATION): render_function(
                amb[1].generators[0].function, 10
            ),
            # unambiguous 0: wrong completion, unparseable explanation
            test_query(unamb[0], Task.COMPLETION): str(
                unamb[0].continuations[0] + 1
            ),
            test_query(unamb[0], Task.EXPLANATION): "I could not say.",
            # unambiguous 1: both answers exactly right
            test_query(unamb[1], Task.COMPLETION): str(
                unamb[1].continuations[0]
            ),
            test_query(unamb[1], Task.EXPLANATION): render_function(
                unamb[1].generators[0].function, 10
            ),
        }
        fixtures_path.write_text(json.dumps({"fixtures": fixtures}))

        outcome = run_campaign(config)
        assert not outcome.failed
        doc = analyze_results(outcome.results_file)
        agg = doc["per_length"]["3"]["aggregate"]
        assert agg["completion_accuracy"] == 50.0
        assert agg["explanation_accuracy"] == 50.0
        assert agg["valid_fraction"] == 75.0
        run0 = doc["per_length"]["3"]["per_run"][0]
        assert run0["cross_context"] == {
            "consistent": 1, "inconsistent": 1, "invalid": 0, "rate": 50.0,
        }
        assert agg["model_judged_consistency"] is None
        assert agg["precision"] is None


class TestQuadrantEdges:
    def test_logprobs_a_few_float_steps_apart_are_compared(self, tmp_path, mined_l3):
        # a pooled span of fewer than 40 float steps once collapsed the shared
        # bin edges, and the whole analysis failed
        config, results = campaign_results(
            tmp_path, mined_l3, n_runs=1, tasks=("completion", "explanation")
        )
        header, *lines = results.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        completions = [r for r in records if r["task"] == "completion"]
        for i, record in enumerate(completions):
            logprob = -1.0 if i == 0 else math.nextafter(-1.0, 0.0)
            record["top_logprobs"] = [[record["top_logprobs"][0][0], logprob]]
        results.write_text(
            "\n".join([header, *(canonical_json(r) for r in records)]) + "\n"
        )
        quadrants = analyze_results(results)["per_length"]["3"]["quadrants"]
        assert sum(quadrants["counts"].values()) == len(completions) > 1

    def test_a_logprob_beyond_half_a_float_step_is_compared(self, tmp_path, mined_l3):
        # at MIN_LOGPROB (-1e15) the float step is 0.125, so widening the
        # point span by 0.5 each way once left edges that repeat, and the
        # whole analysis failed
        _, results = campaign_results(
            tmp_path, mined_l3, n_runs=1, tasks=("completion", "explanation")
        )
        header, *lines = results.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        completions = [r for r in records if r["task"] == "completion"]
        for record in completions[1:]:
            record["top_logprobs"] = None
        first = completions[0]
        first["top_logprobs"] = [[first["top_logprobs"][0][0], MIN_LOGPROB]]
        results.write_text(
            "\n".join([header, *(canonical_json(r) for r in records)]) + "\n"
        )
        write_analysis(analyze_results(results), results.parent)
        doc = load_analysis(results.parent / "analysis.json")
        assert sum(doc["per_length"]["3"]["quadrants"]["counts"].values()) == 1


class TestAnalysisDeterminism:
    def test_same_results_same_document(self, tmp_path, mined_l3):
        _, results_file = campaign_results(tmp_path, mined_l3)
        first = analyze_results(results_file)
        second = analyze_results(results_file)
        assert canonical_json(first) == canonical_json(second)

    def test_duplicated_line_is_an_error(self, tmp_path, mined_l3):
        # a copy would count twice in accuracy, judged consistency and
        # verbalization but once in cross-context pairing
        _, results_file = campaign_results(tmp_path, mined_l3)
        lines = results_file.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        judgment = next(
            i for i, r in enumerate(records, start=2)
            if r["task"] == "consistency_judgment" and r["run_id"] == 0
        )
        completion = next(
            i for i, r in enumerate(records, start=2) if r["task"] == "completion"
        )
        with results_file.open("a") as fh:
            fh.write(lines[judgment - 1] + "\n" + lines[completion - 1] + "\n")
        with pytest.raises(
            CampaignError,
            match=rf":{len(lines) + 1}: malformed record line \(past the last planned query\)$",
        ):
            analyze_results(results_file)

    @pytest.mark.parametrize("key", ["config", "config_digest", "datasets"])
    def test_header_without_a_campaign_key_is_an_error(self, tmp_path, mined_l3, key):
        _, results_file = campaign_results(tmp_path, mined_l3)
        header, *rest = results_file.read_text().splitlines()
        stripped = json.loads(header)
        del stripped[key]
        results_file.write_text("\n".join([json.dumps(stripped), *rest]) + "\n")
        with pytest.raises(
            CampaignError, match=rf"results\.jsonl: results header lacks {key}$"
        ):
            analyze_results(results_file)

    @staticmethod
    def damage_first_line(results_file, task, edit):
        """Apply ``edit`` to the first ambiguous ``task`` line of run 0; its
        line number."""
        lines = results_file.read_text().splitlines()
        n, record = next(
            (n, r)
            for n, r in enumerate(map(json.loads, lines[1:]), start=2)
            if r["task"] == task and r["ambiguous"] and r["run_id"] == 0
        )
        edit(record)
        lines[n - 1] = json.dumps(record)
        results_file.write_text("\n".join(lines) + "\n")
        return n, record["sequence"]["values"]

    def test_unparseable_explanation_is_an_error(self, tmp_path, mined_l3):
        _, results_file = campaign_results(tmp_path, mined_l3)
        n, values = self.damage_first_line(
            results_file, "explanation", lambda r: r["parsed"].update(value="lambda x: ((")
        )
        with pytest.raises(
            CampaignError,
            match=rf"results\.jsonl:{n}: malformed record line \(the explanation line "
            rf"of run 0 for sequence \[{', '.join(map(str, values))}\] at length 3: "
            "its parsed value does not parse",
        ):
            analyze_results(results_file)

    @pytest.mark.parametrize("top", [[["7"]], [["7", -0.5], ["8", -0.1]], [["7", "high"]]])
    def test_malformed_top_logprobs_is_an_error(self, tmp_path, mined_l3, top):
        _, results_file = campaign_results(tmp_path, mined_l3)
        n, values = self.damage_first_line(
            results_file, "completion", lambda r: r.update(top_logprobs=top)
        )
        with pytest.raises(
            CampaignError,
            match=rf"results\.jsonl:{n}: malformed record line \(the completion line "
            rf"of run 0 for sequence \[{', '.join(map(str, values))}\] at length 3: "
            "malformed top_logprobs: ",
        ):
            analyze_results(results_file)

    def test_missing_dataset_file_is_an_error(self, tmp_path, mined_l3):
        _, results_file = campaign_results(tmp_path, mined_l3)
        (results_file.parent / dataset_filename(3)).unlink()
        with pytest.raises(CampaignError, match="missing"):
            analyze_results(results_file)


class TestFileOutput:
    def test_metrics_table_layout(self, tmp_path, mined_l3):
        config, results_file = campaign_results(tmp_path, mined_l3)
        doc = analyze_results(results_file)
        table = metrics_table(doc)
        lines = table.splitlines()
        assert lines[0] == f"# config_digest={config.digest()}"
        header = lines[1].split("\t")
        assert header[:2] == ["length", "run"]
        assert len(lines) == 2 + 2 + 1  # comment, header, 2 runs, 1 mean row
        mean_row = lines[-1].split("\t")
        assert mean_row[0] == "3"
        assert mean_row[1] == "mean"
        assert mean_row[2] == "100.0000"

    def test_none_cells_render_empty(self):
        doc = {
            "config_digest": "abc",
            "per_length": {
                "3": {
                    "per_run": [
                        {
                            "run_id": 0,
                            "explanation_accuracy": None,
                            "completion_accuracy": 50.0,
                            "valid_fraction": 100.0,
                            "cross_context": {"rate": None},
                            "model_judged": {"rate": None},
                            "verbalization": {"precision": None, "recall": None},
                            "alternative_test": {"pass_rate": None},
                        }
                    ],
                    "aggregate": None,
                }
            },
        }
        lines = metrics_table(doc).splitlines()
        assert lines[2].split("\t") == [
            "3", "0", "", "50.0000", "100.0000", "", "", "", "", "",
        ]

    def test_write_and_load_round_trip(self, tmp_path, mined_l3):
        _, results_file = campaign_results(tmp_path, mined_l3)
        doc = analyze_results(results_file)
        analysis_path, table_path = write_analysis(doc, tmp_path / "out")
        assert analysis_path.name == "analysis.json"
        assert table_path.name == "metrics.tsv"
        assert load_analysis(analysis_path) == json.loads(canonical_json(doc))

    @pytest.mark.parametrize(
        "text, why",
        [("{not json", "unreadable analysis file"), ("[1]", "not an analysis document")],
        ids=["not_json", "not_an_object"],
    )
    def test_load_refuses_a_file_that_is_no_analysis(self, tmp_path, text, why):
        path = tmp_path / "analysis.json"
        path.write_text(text)
        with pytest.raises(CampaignError, match=re.escape(f"{path}: {why}")):
            load_analysis(path)

    def test_load_refuses_a_document_without_a_key_analyze_writes(
        self, tmp_path, analysis
    ):
        _, doc = analysis
        path = tmp_path / "analysis.json"
        for key in doc:
            path.write_text(canonical_json({k: v for k, v in doc.items() if k != key}))
            with pytest.raises(CampaignError, match=re.escape(f"{path}: ") + f".*{key}"):
                load_analysis(path)
