"""Campaign execution: planning, the results file, resume, failure recovery,
concurrent dispatch."""

import dataclasses
import gc
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

try:
    import fcntl
except ImportError:
    fcntl = None

from ambigseq.backends import (
    BackendError,
    CachingBackend,
    CompletionResponse,
    HttpBackend,
    OracleBackend,
    RandomValidBackend,
    ScriptedBackend,
    load_scripted_fixtures,
)
from ambigseq.campaign import (
    AUDIT_FILENAME,
    LOGPROBS_UNAVAILABLE_NOTE,
    NO_PAIR_NOTE,
    RESULTS_FORMAT,
    RESULTS_VERSION,
    CampaignError,
    PlannedQuery,
    config_space,
    dataset_filename,
    load_campaign_datasets,
    make_backend,
    mine_datasets,
    plan_queries,
    prompt_seed,
    read_results,
    results_path,
    run_campaign,
    _PLAN_FIELDS,
    _result_line,
)
from ambigseq import campaign, mining
from ambigseq.analysis import analyze_results
from ambigseq.config import CHOICES, CampaignConfig, canonical_json
from ambigseq.distribution import TokenDistribution
from ambigseq.prompting import (
    ANSWERS,
    COMPLETION_INSTRUCTIONS,
    EXPLANATION_INSTRUCTIONS,
    Task,
    Variant,
)
from ambigseq.funcspace import FunctionSpace, parse
from test_artifact_bytes import scripted_fixtures

ISO_STAMP = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}")
#: The fields of every record line (``canonical_json`` writes them sorted).
RESULT_FIELDS = (
    "sequence", "task", "raw_response", "parsed", "valid", "correct", "run_id",
    "length", "ambiguous", "continuations", "top_logprobs", "judged", "note",
)


def small_config(tmp_path, mined_l3, **overrides) -> CampaignConfig:
    out = tmp_path / "out"
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(mined_l3, out / dataset_filename(3))
    defaults = dict(
        lengths=(3,), limit_sequences=2, n_runs=2, output_dir=str(out)
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class CountingBackend:
    """Wraps a backend and counts complete() calls, keeping the
    ``want_top_logprobs`` of each request in ``asked``."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = 0
        self.asked: list[int] = []

    def complete(self, request) -> CompletionResponse:
        self.calls += 1
        self.asked.append(request.want_top_logprobs)
        return self.inner.complete(request)


class FailAfter:
    """Passes through n calls, then simulates a persistent outage."""

    def __init__(self, inner, n: int):
        self.inner = inner
        self.n = n
        self.calls = 0
        self.backend_id = inner.backend_id

    def complete(self, request) -> CompletionResponse:
        if self.calls >= self.n:
            raise BackendError("synthetic outage")
        self.calls += 1
        return self.inner.complete(request)


# ---------------------------------------------------------------------------
# mining stage + dataset loading


class TestDatasets:
    def test_mine_writes_dataset_with_digest(self, tmp_path):
        config = CampaignConfig(lengths=(3,), output_dir=str(tmp_path))
        datasets = mine_datasets(config)
        assert set(datasets) == {3}
        path = tmp_path / dataset_filename(3)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["config_digest"] == config.digest()

    def test_load_round_trip(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        datasets = load_campaign_datasets(config, config_space(config))
        assert len(datasets[3].ambiguous) == 12

    def test_load_missing_file(self, tmp_path):
        config = CampaignConfig(lengths=(3,), output_dir=str(tmp_path))
        with pytest.raises(CampaignError, match="mine stage"):
            load_campaign_datasets(config, config_space(config))

    def test_load_rejects_parameter_mismatch(self, tmp_path, mined_l3):
        out = tmp_path / "out"
        out.mkdir()
        # a length-4 config pointed at a length-3 file
        shutil.copy(mined_l3, out / dataset_filename(4))
        config = CampaignConfig(lengths=(4,), output_dir=str(out))
        with pytest.raises(ValueError, match="mined with parameters"):
            load_campaign_datasets(config, config_space(config))

    def test_load_rejects_another_value_bound(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        path = Path(config.output_dir) / dataset_filename(3)
        header, *records = path.read_text().splitlines()
        changed = json.loads(header)
        changed["parameters"]["max_function_value"] = 1000
        path.write_text("\n".join([json.dumps(changed), *records]) + "\n")
        with pytest.raises(
            ValueError,
            match=r"mined with parameters \(\(0, 4\), 3, 1, 4, 10, 1000\), "
            rf"config wants \(\(0, 4\), 3, 1, 4, 10, {2**63 - 1}\)$",
        ):
            load_campaign_datasets(config, config_space(config))


# ---------------------------------------------------------------------------
# planning


class TestPlanning:
    def test_plan_counts(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        datasets = load_campaign_datasets(config, config_space(config))
        plan = list(plan_queries(config, datasets))
        # per run: completion and explanation visit 2 ambiguous + 2
        # unambiguous, judgment and verbalization the 2 ambiguous only
        assert len(plan) == 2 * (4 + 4 + 2 + 2)
        assert len({q.key for q in plan}) == len(plan)

    def test_plan_without_limit_covers_dataset(self, tmp_path, mined_l3):
        config = small_config(
            tmp_path, mined_l3, limit_sequences=None, n_runs=1,
            tasks=("completion",),
        )
        datasets = load_campaign_datasets(config, config_space(config))
        plan = list(plan_queries(config, datasets))
        assert len(plan) == 12 + 370

    def test_plan_order_is_stable(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        datasets = load_campaign_datasets(config, config_space(config))
        first = [q.key for q in plan_queries(config, datasets)]
        second = [q.key for q in plan_queries(config, datasets)]
        assert first == second

    def test_judgment_targets_ambiguous_only(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3, limit_sequences=None)
        datasets = load_campaign_datasets(config, config_space(config))
        judgments = [
            q for q in plan_queries(config, datasets)
            if q.task.value == "consistency_judgment"
        ]
        assert all(q.record.is_ambiguous for q in judgments)
        assert len(judgments) == 12 * config.n_runs

    def test_prompt_seed_depends_on_run_task_and_sequence(
        self, tmp_path, mined_l3
    ):
        config = small_config(tmp_path, mined_l3)
        datasets = load_campaign_datasets(config, config_space(config))
        plan = list(plan_queries(config, datasets))
        seeds = [prompt_seed(config, q) for q in plan]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [prompt_seed(config, q) for q in plan]

    def test_prompt_seed_changes_with_campaign_seed(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        datasets = load_campaign_datasets(config, config_space(config))
        query = next(iter(plan_queries(config, datasets)))
        reseeded = config.override(rng_seed=1)
        assert prompt_seed(config, query) != prompt_seed(reseeded, query)


# ---------------------------------------------------------------------------
# results file


class TestReadResults:
    def run_small(self, tmp_path, mined_l3, **overrides):
        config = small_config(tmp_path, mined_l3, **overrides)
        outcome = run_campaign(config)
        assert not outcome.failed
        return config, outcome

    def test_header_and_records(self, tmp_path, mined_l3):
        config, outcome = self.run_small(tmp_path, mined_l3)
        header, records = read_results(outcome.results_file)
        assert header["format"] == RESULTS_FORMAT
        assert header["version"] == RESULTS_VERSION
        assert header["config_digest"] == config.digest()
        assert "output_dir" not in header["config"]
        assert header["datasets"] == {"3": dataset_filename(3)}
        assert len(records) == outcome.queried == 24

    def test_records_share_their_key_strings(self, tmp_path, mined_l3):
        # each json.loads call makes its own; the read rebuilds every line
        # with one set
        _, outcome = self.run_small(tmp_path, mined_l3)
        _, records = read_results(outcome.results_file)
        assert {id(key) for r in records for key in r} == {id(key) for key in records[0]}

    def test_records_share_their_plan_fields(self, tmp_path, mined_l3):
        # the lines of a record hold the plan's one sequence and one
        # continuations object, and the lines of a task one task text
        _, outcome = self.run_small(tmp_path, mined_l3)
        _, records = read_results(outcome.results_file)
        by_record = {}
        for r in records:
            by_record.setdefault(tuple(r["sequence"]["values"]), []).append(r)
        assert len(by_record) == 4
        for lines in by_record.values():
            assert len({id(r["sequence"]) for r in lines}) == 1
            assert len({id(r["continuations"]) for r in lines}) == 1
        for texts in ([r["task"] for r in records], [r["parsed"]["kind"] for r in records]):
            assert len({id(text) for text in texts}) == len(set(texts))
        assert all(
            r["parsed"]["kind"] is ANSWERS[Task(r["task"])].kind for r in records if r["valid"]
        )

    def test_lines_with_a_repeated_answer_share_its_objects(self, tmp_path, mined_l3):
        # the oracle answers a record's task alike in both runs: the two
        # lines hold one raw_response text and one parsed object
        _, outcome = self.run_small(tmp_path, mined_l3)
        _, records = read_results(outcome.results_file)
        by_query = {}
        for r in records:
            by_query.setdefault((r["task"], tuple(r["sequence"]["values"])), []).append(r)
        assert len(by_query) == 12
        for first, second in by_query.values():
            assert first["raw_response"] is second["raw_response"]
            assert first["parsed"] is second["parsed"]

    @pytest.mark.parametrize(
        "kind",
        ["oracle", "scripted_with_a_logprob_fallback", "base_2", "a_line_as_raw_response"],
    )
    def test_lines_read_are_the_lines_written(self, tmp_path, mined_l3, kind):
        # sharing the plan's objects changes no value a line holds
        if kind == "scripted_with_a_logprob_fallback":
            fixtures_file = tmp_path / "fixtures.json"
            config = small_config(
                tmp_path, mined_l3, backend="scripted", fixtures_file=str(fixtures_file)
            )
            dataset = load_campaign_datasets(config, config_space(config))[3]
            fixtures = scripted_fixtures(config, dataset)
            fixtures_file.write_text(json.dumps({"fixtures": fixtures}))
        elif kind == "base_2":
            config = CampaignConfig(
                lengths=(3,), limit_sequences=2, n_runs=2, base=2, output_dir=str(tmp_path)
            )
            mine_datasets(config)
        else:
            config = small_config(tmp_path, mined_l3)
        path = run_campaign(config).results_file
        header, *lines = path.read_text().splitlines()
        if kind == "scripted_with_a_logprob_fallback":
            assert sum(LOGPROBS_UNAVAILABLE_NOTE in line for line in lines) == 1
        if kind == "a_line_as_raw_response":
            # a raw response holding a whole line, on a line of an
            # unambiguous record, which no judgment reads
            lines[6] = rewritten(config, 6, lines[6], lines[7])
            path.write_text("\n".join([header, *lines]) + "\n")
        _, records = read_results(path)
        assert [canonical_json(r) for r in records] == lines

    def test_lines_read_hold_less_than_one_decode_of_the_file(self, ten_runs):
        # one json.loads of the joined lines shares its key strings only
        path, datasets = ten_runs
        body = path.read_text().split("\n", 1)[1].splitlines()
        text = "[" + ",".join(body) + "]"

        def held(make):
            gc.collect()
            tracemalloc.start()
            try:
                value = make()
                return tracemalloc.get_traced_memory()[0], value
            finally:
                tracemalloc.stop()

        joined, decoded = held(lambda: json.loads(text))
        read, (_, records) = held(lambda: read_results(path, datasets))
        assert records == decoded
        assert read <= 0.8 * joined, (read, joined)

    def test_torn_trailing_line_is_dropped(self, tmp_path, mined_l3):
        _, outcome = self.run_small(tmp_path, mined_l3)
        path = outcome.results_file
        text = path.read_text()
        path.write_text(text[:-30])  # chop mid-record
        _, records = read_results(path)
        assert len(records) == 23

    def test_malformed_middle_line_raises(self, tmp_path, mined_l3):
        config, outcome = self.run_small(tmp_path, mined_l3)
        path = outcome.results_file
        lines = path.read_text().splitlines()
        no_sequence = json.loads(lines[3])
        del no_sequence["sequence"]
        for bad in ("{broken", "{}", "[1]", json.dumps(no_sequence)):
            lines[3] = bad
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(CampaignError, match=":4: malformed record line"):
                read_results(path)
            # resume reads the same lines and refuses them the same way
            with pytest.raises(CampaignError, match=":4: malformed record line"):
                run_campaign(config)

    @pytest.mark.parametrize("key", ["config", "config_digest", "datasets"])
    def test_header_without_a_campaign_key_raises(self, tmp_path, mined_l3, key):
        config, outcome = self.run_small(tmp_path, mined_l3)
        path = outcome.results_file
        header, *rest = path.read_text().splitlines()
        stripped = json.loads(header)
        del stripped[key]
        path.write_text("\n".join([json.dumps(stripped), *rest]) + "\n")
        for read in (read_results, lambda _: run_campaign(config)):
            with pytest.raises(
                CampaignError, match=rf"results\.jsonl: results header lacks {key}$"
            ):
                read(path)

    def test_line_without_note_is_refused_on_resume(self, tmp_path, mined_l3):
        # every line is written with its note; a resume that wants top
        # logprobs reads it to tell whether capture was already dropped
        config, outcome = self.run_small(tmp_path, mined_l3)
        assert config.want_top_logprobs > 0
        path = outcome.results_file
        lines = path.read_text().splitlines()
        no_note = json.loads(lines[3])
        del no_note["note"]
        lines[3] = json.dumps(no_note)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CampaignError, match=r":4: malformed record line \(no note\)"):
            run_campaign(config)

    def test_unparseable_explanation_is_refused_on_resume(self, tmp_path, mined_l3):
        # refused as the resume reads it, before a judgment parses it
        config, outcome = self.run_small(tmp_path, mined_l3)
        path = outcome.results_file
        header, *lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        first_judgment = next(
            i for i, r in enumerate(records) if r["task"] == "consistency_judgment"
        )
        judged = records[first_judgment]["sequence"]["values"]
        explanation = next(
            i for i, r in enumerate(records)
            if r["task"] == "explanation" and r["sequence"]["values"] == judged
        )
        assert records[explanation]["valid"]
        records[explanation]["parsed"]["value"] = "lambda x: (("
        kept = [canonical_json(r) for r in records[:first_judgment]]
        path.write_text("\n".join([header, *kept]) + "\n")
        with pytest.raises(
            CampaignError,
            match=rf"results\.jsonl:{explanation + 2}: malformed record line "
            rf"\(the explanation line of run 0 for sequence \[{', '.join(map(str, judged))}\] at length 3: "
            r'parsed is \{"kind":"function","value":"lambda x: \(\("\}, where this version of '
            r"ambigseq scores its raw_response",
        ):
            run_campaign(config)

    def test_result_line_writes_the_result_fields(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        datasets = load_campaign_datasets(config, config_space(config))
        query = next(plan_queries(config, datasets))
        line = _result_line(query, "7", None, None, None)
        assert line.keys() == set(RESULT_FIELDS)

    def test_result_line_holds_its_querys_plan_fields(self, tmp_path, mined_l3):
        # the writer takes a line's plan half from the query, as the reader
        # checks it: the lines of a record share its sequence and
        # continuations objects when written, as they do when read
        config = small_config(tmp_path, mined_l3)
        datasets = load_campaign_datasets(config, config_space(config))
        for query in plan_queries(config, datasets):
            line = _result_line(query, "7", None, None, None)
            sequence, continuations = query.record.json_fields
            assert line["sequence"] is sequence
            assert line["continuations"] is continuations
            assert {f: line[f] for f in _PLAN_FIELDS} == {
                "sequence": {"values": list(query.record.sequence.values),
                             "base": query.record.sequence.base},
                "task": query.task.value,
                "run_id": query.run_id,
                "length": query.length,
                "ambiguous": query.record.is_ambiguous,
                "continuations": sorted(query.record.continuations),
            }

    @pytest.mark.parametrize(
        "field",
        [f for f in RESULT_FIELDS if f not in ("sequence", "task", "run_id", "length")],
    )
    def test_line_without_a_result_field_is_refused(self, tmp_path, mined_l3, field):
        # the query-key fields are refused as "no query key" above
        config, outcome = self.run_small(tmp_path, mined_l3)
        path = outcome.results_file
        lines = path.read_text().splitlines()
        stripped = json.loads(lines[3])
        del stripped[field]
        lines[3] = json.dumps(stripped)
        path.write_text("\n".join(lines[:-1]) + "\n")
        for read in (read_results, analyze_results, lambda _: run_campaign(config)):
            with pytest.raises(
                CampaignError, match=rf":4: malformed record line \(no {field}\)$"
            ):
                read(path)

    def test_undecodable_header_line_raises(self, tmp_path, mined_l3):
        config, outcome = self.run_small(tmp_path, mined_l3)
        path = outcome.results_file
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"config"', b'"\xffconfig"', 1))
        for read in (read_results, analyze_results, lambda _: run_campaign(config)):
            with pytest.raises(CampaignError, match=r"results\.jsonl: unreadable header line"):
                read(path)

    def test_undecodable_record_line_raises(self, tmp_path, mined_l3):
        config, outcome = self.run_small(tmp_path, mined_l3)
        path = outcome.results_file
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b'"task"', b'"\xfftask"', 1)
        path.write_bytes(b"\n".join(lines))
        for read in (read_results, analyze_results, lambda _: run_campaign(config)):
            with pytest.raises(
                CampaignError,
                match=r"results\.jsonl:4: malformed record line \(not UTF-8\)$",
            ):
                read(path)

    def test_duplicated_line_raises(self, tmp_path, mined_l3):
        _, outcome = self.run_small(tmp_path, mined_l3)
        path = outcome.results_file
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[3]]) + "\n")
        with pytest.raises(
            CampaignError,
            match=rf":{len(lines) + 1}: malformed record line \(past the last planned query\)$",
        ):
            read_results(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "results.jsonl"
        for header in ('{"format": "something.else", "version": 1}', "[1]"):
            path.write_text(header + "\n")
            with pytest.raises(CampaignError, match="not a results file"):
                read_results(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(
            json.dumps({"format": RESULTS_FORMAT, "version": 999}) + "\n"
        )
        with pytest.raises(CampaignError, match="version"):
            read_results(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("")
        with pytest.raises(CampaignError, match="empty"):
            read_results(path)


def _lone_line_error(path, n: int, text: str) -> str:
    """The error a results file gives for line ``n`` when that line, read
    alone, is not JSON."""
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    return f"{path}:{n}: malformed record line ({exc.value})"


#: A damage to a line, and the refusal's words for it, naming the line's
#: query as ``{query}``.
DAMAGES = {
    "run_id_as_text": (
        lambda r: r.update(run_id=str(r["run_id"])),
        'the plan puts {query} here, not a line whose run_id is "0"',
    ),
    "continuations_not_a_list": (
        lambda r: r.update(continuations=5),
        "the plan puts {query} here, not a line whose continuations is 5",
    ),
    "length_as_a_float": (
        lambda r: r.update(length=3.0),
        "the plan puts {query} here, not a line whose length is 3.0",
    ),
    "parsed_null_on_a_valid_line": (
        lambda r: r.update(parsed=None),
        "{query}: parsed is null, where this version of ambigseq scores its raw_response "
        "{parsed}",
    ),
    "valid_as_text": (
        lambda r: r.update(valid="no"),
        '{query}: valid is "no", where this version of ambigseq scores its raw_response true',
    ),
    "valid_without_a_value": (
        lambda r: r.update(parsed={"kind": "invalid"}),
        '{query}: parsed is {{"kind":"invalid"}}, where this version of ambigseq scores its '
        "raw_response {parsed}",
    ),
    "judged_on_a_completion": (
        lambda r: r.update(judged={"explanation": "lambda x: x", "completion": 1}),
        "{query}: judged is not null, nor a judgment line's explanation and completion",
    ),
    "unknown_field": (lambda r: r.update(extra=[{}]), "unknown field 'extra'"),
}


#: A damage to the answer of a line scored correct, the field the refusal
#: names, and what the line's raw_response scores that field to (None: the
#: line's own parsed).
ANSWER_DAMAGES = {
    "correct_true_to_false": (lambda r: r.update(correct=False), "correct", "true"),
    "raw_response_to_banana": (
        lambda r: r.update(raw_response="banana"), "parsed", '{"kind":"invalid"}'
    ),
    "valid_as_1": (lambda r: r.update(valid=1), "valid", "true"),
    "correct_as_0": (lambda r: r.update(correct=0), "correct", "true"),
    "correct_as_1": (lambda r: r.update(correct=1), "correct", "true"),
    "int_answer_as_true": (lambda r: r["parsed"].update(value=True), "parsed", None),
    "int_answer_as_a_float": (
        lambda r: r["parsed"].update(value=float(r["parsed"]["value"])), "parsed", None
    ),
}


def rewritten(config, i: int, line: str, text: str) -> str:
    """Record line ``i`` (from 0) of ``config``'s results file, ``line``,
    as the writer writes it for the answer ``text`` with the same capture."""
    datasets = load_campaign_datasets(config, config_space(config))
    query = next(islice(plan_queries(config, datasets), i, None))
    record = json.loads(line)
    top = record["top_logprobs"] and TokenDistribution.from_pairs(record["top_logprobs"])
    judged = record["judged"] and (
        parse(record["judged"]["explanation"]), record["judged"]["completion"]
    )
    return canonical_json(_result_line(query, text, top, judged, record["note"]))


@pytest.fixture(scope="module")
def ten_runs(tmp_path_factory, mined_l3):
    """(results path, datasets) of a finished 10-run oracle campaign over
    every length-3 sequence (7,880 lines): one real run's records once per
    run id."""
    tmp_path = tmp_path_factory.mktemp("ten_runs")
    one_run = small_config(tmp_path / "one", mined_l3, limit_sequences=None, n_runs=1)
    _, records = read_results(run_campaign(one_run).results_file)
    config = small_config(tmp_path / "ten", mined_l3, limit_sequences=None, n_runs=10)
    lines = [canonical_json(campaign._results_header(config))]
    lines += [canonical_json({**r, "run_id": run}) for run in range(10) for r in records]
    path = results_path(config.output_dir)
    path.write_text("\n".join(lines) + "\n")
    return path, load_campaign_datasets(config, config_space(config))


class TestPlanCheckedRead:
    """Line N of a results file answers query N of its plan, with every field
    of its type; ``run`` and ``analyze`` refuse any other line by its number,
    as that line read alone shows its fault. Some files below are valid JSON
    once their lines are joined into one array; each is still refused by the
    line that holds its fault."""

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory, mined_l3) -> bytes:
        config = small_config(tmp_path_factory.mktemp("finished"), mined_l3)
        return run_campaign(config).results_file.read_bytes()

    @pytest.fixture()
    def campaign_dir(self, tmp_path, mined_l3, finished):
        """(config, results path, header line, record lines) of a copy."""
        config = small_config(tmp_path, mined_l3)
        path = results_path(config.output_dir)
        path.write_bytes(finished)
        header, *lines = finished.decode().splitlines()
        return config, path, header, lines

    @staticmethod
    def readers(config, path):
        return {
            "read_results": lambda: read_results(path),
            "run": lambda: run_campaign(config),
            "analyze": lambda: analyze_results(path),
        }

    def refused(self, config, path, match):
        damaged = path.read_bytes()
        for name, read in self.readers(config, path).items():
            with pytest.raises(CampaignError, match=match):
                read()
            assert path.read_bytes() == damaged, name

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_a_damaged_field_is_refused_by_its_line(self, campaign_dir, damage):
        config, path, header, lines = campaign_dir
        edit, problem = DAMAGES[damage]
        records = [json.loads(line) for line in lines]
        i = next(
            i for i, r in enumerate(records)
            if r["task"] == "completion" and r["ambiguous"] and r["run_id"] == 0
        )
        parsed = canonical_json(records[i]["parsed"])
        edit(records[i])
        lines[i] = canonical_json(records[i])
        path.write_text("\n".join([header, *lines]) + "\n")
        query = (
            f"the completion line of run 0 for sequence {records[i]['sequence']['values']} "
            "at length 3"
        )
        where = f"results.jsonl:{i + 2}: malformed record line "
        problem = problem.format(query=query, parsed=parsed)
        self.refused(config, path, re.escape(where + f"({problem})") + "$")

    @pytest.mark.parametrize("damage", ANSWER_DAMAGES)
    def test_an_answer_field_its_raw_response_does_not_score_to_is_refused(
        self, campaign_dir, damage
    ):
        # on an unambiguous completion line, scored correct; the refusal
        # names the first of parsed, valid and correct that differs
        config, path, header, lines = campaign_dir
        edit, field, scored = ANSWER_DAMAGES[damage]
        records = [json.loads(line) for line in lines]
        i, record = next(
            (i, r) for i, r in enumerate(records)
            if r["task"] == "completion" and not r["ambiguous"] and r["run_id"] == 0
        )
        assert record["valid"] and record["correct"] is True
        scored = scored or canonical_json(record["parsed"])
        edit(record)
        lines[i] = canonical_json(record)
        path.write_text("\n".join([header, *lines]) + "\n")
        problem = (
            f"the completion line of run 0 for sequence {record['sequence']['values']} at "
            f"length 3: {field} is {canonical_json(record[field])}, where this version of "
            f"ambigseq scores its raw_response {scored}"
        )
        where = f"results.jsonl:{i + 2}: malformed record line "
        self.refused(config, path, re.escape(where + f"({problem})") + "$")

    @pytest.mark.parametrize("field", ["sequence", "valid"])
    def test_a_field_nested_near_the_recursion_limit_is_refused_by_its_line(
        self, campaign_dir, field
    ):
        # some depths decode, but are too deep to write into the refusal
        config, path, header, lines = campaign_dir
        record = json.loads(lines[2])
        limit = sys.getrecursionlimit()
        for depth in range(limit - 60, limit + 5, 2):
            record[field] = "X"
            lines[2] = canonical_json(record).replace('"X"', "[" * depth + "]" * depth)
            path.write_text("\n".join([header, *lines]) + "\n")
            self.refused(config, path, r"results\.jsonl:4: malformed record line \(")

    def test_a_line_answering_another_query_is_refused(self, campaign_dir):
        config, path, header, lines = campaign_dir
        lines[4], lines[5] = lines[5], lines[4]
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(config, path, r"results\.jsonl:6: malformed record line \(the plan puts ")

    def test_an_object_inside_a_list_across_lines(self, campaign_dir):
        # joined, the three lines are three objects, the first holding the
        # second line's in a list
        config, path, header, lines = campaign_dir
        lines[3:6] = ['{"a":[{}', "{}]}", "{},{}"]
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(config, path, re.escape(_lone_line_error(path, 5, lines[3])) + "$")

    def test_a_line_holding_two_records(self, campaign_dir):
        # joined, the lines are every record in plan order
        config, path, header, lines = campaign_dir
        lines[3:5] = [lines[3] + "," + lines[4]]
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(config, path, re.escape(_lone_line_error(path, 5, lines[3])) + "$")

    def test_a_string_split_next_to_a_line_holding_two(self, campaign_dir):
        # joined with raw newlines let into strings, the three lines are the
        # three records in plan order, the last with a longer answer
        config, path, header, lines = campaign_dir
        record = json.loads(lines[5])
        record["raw_response"] = "1\n{2"
        split = canonical_json(record).replace("\\n", "\n").split("\n")
        lines[3:6] = [lines[3] + "," + lines[4], *split]
        assert split[1].startswith("{")
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(config, path, re.escape(_lone_line_error(path, 5, lines[3])) + "$")

    def test_a_split_record_next_to_a_line_holding_two(self, campaign_dir):
        # joined, the three lines are the three records in plan order, each
        # as it should be
        config, path, header, lines = campaign_dir
        records = [json.loads(line) for line in lines]
        i = next(
            i for i, r in enumerate(records[2:], start=2)
            if r["top_logprobs"] and len(r["top_logprobs"]) > 1
        )
        first_pair = json.dumps(records[i]["top_logprobs"][0], separators=(",", ":"))
        split = lines[i].index(first_pair) + len(first_pair)
        lines[i - 2:i + 1] = [
            lines[i - 2] + "," + lines[i - 1], lines[i][:split], lines[i][split + 1:]
        ]
        assert lines[i][0] == "["
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(config, path, re.escape(_lone_line_error(path, i, lines[i - 2])) + "$")

    def test_spaces_around_a_line_are_read(self, campaign_dir):
        # read, and refused: a line is the text the writer writes, so one
        # with blanks before it, or spaces inside, is not a record line
        config, path, header, lines = campaign_dir
        lines[3] = " " + lines[3]
        lines[7] = json.dumps(json.loads(lines[7])) + "  "
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(
            config, path,
            r"results\.jsonl:5: malformed record line \(the \w+ line of run 0 for "
            r"sequence \[[\d, ]+\] at length 3: not the text ambigseq writes for these "
            r"fields\)$",
        )

    @pytest.mark.parametrize("blanks", [" ", "\t", "\r", " \t\r "])
    def test_blanks_after_a_line_are_read(self, campaign_dir, blanks):
        # read, and refused at the first line with blanks after its value
        config, path, header, lines = campaign_dir
        lines[3] += blanks
        lines[-1] += blanks
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(
            config, path,
            r"results\.jsonl:5: malformed record line \(.*: not the text ambigseq "
            r"writes for these fields\)$",
        )

    def test_a_line_that_starts_with_a_byte_order_mark_is_refused_by_its_line(
        self, campaign_dir
    ):
        config, path, header, lines = campaign_dir
        lines[3] = "\ufeff" + lines[3]
        path.write_text("\n".join([header, *lines]) + "\n")
        error = _lone_line_error(path, 5, lines[3])
        assert "(Unexpected UTF-8 BOM" in error
        self.refused(config, path, re.escape(error) + "$")

    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_a_damaged_end_line_is_refused_by_its_line(self, campaign_dir, edge):
        # the first or the last record line; the lines beside it are sound
        config, path, header, lines = campaign_dir
        i = 0 if edge == "first" else len(lines) - 1
        not_json = lines[i][:-1] + ",}"
        with_extra = canonical_json({**json.loads(lines[i]), "extra": [{}]})
        for damaged, error in [
            (not_json, _lone_line_error(path, i + 2, not_json)),
            (with_extra, f"results.jsonl:{i + 2}: malformed record line (unknown field 'extra')"),
        ]:
            path.write_text("\n".join([header, *lines[:i], damaged, *lines[i + 1:]]) + "\n")
            self.refused(config, path, re.escape(error) + "$")

    def test_objects_in_a_top_logprobs_list_across_lines(self, campaign_dir):
        # joined, the three lines are the three records in plan order, the
        # last with two objects for its top logprobs
        config, path, header, lines = campaign_dir
        records = [json.loads(line) for line in lines]
        i = next(i for i, r in enumerate(records[2:], start=2) if r["top_logprobs"])
        records[i]["top_logprobs"] = [{"0": -0.2}, {"3": -0.3}]
        text = canonical_json(records[i])
        split = text.index('{"0":-0.2}') + len('{"0":-0.2}')
        lines[i - 2:i + 1] = [lines[i - 2] + "," + lines[i - 1], text[:split], text[split + 1:]]
        assert lines[i - 1].endswith("}") and lines[i].startswith('{"3":-0.3}],')
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(config, path, re.escape(_lone_line_error(path, i, lines[i - 2])) + "$")

    @staticmethod
    def hide_a_join(lines, key, anchor, blank=""):
        """The record lines with line i - 2 holding two records, and the
        record of line i split in two around a first value of ``key``, given
        right after ``anchor`` in it, that holds objects in a list. Joined,
        the three lines are the three records in plan order: the record's
        own value of ``key`` comes later and replaces the first. ``blank``
        parts three keys of the two records from their colons, as many as
        the hidden value adds. Returns (i, the new lines)."""
        records = [json.loads(line) for line in lines]
        i = next(i for i, r in enumerate(records[2:], start=2) if r["top_logprobs"])
        two = (lines[i - 2] + "," + lines[i - 1]).replace('":', f'"{blank}:', 3)
        at = lines[i].index(anchor) + len(anchor)
        split = [lines[i][:at] + f'"{key}":[{{"a":1}}', '{"b":2}],' + lines[i][at:]]
        return i, [*lines[:i - 2], two, *split, *lines[i + 1:]]

    @pytest.mark.parametrize(
        "key, anchor",
        [("note", "{"), ("top_logprobs", "{"), ("base", '"sequence":{'),
         ("kind", '"parsed":{')],
    )
    def test_a_join_hidden_in_a_duplicated_key(self, campaign_dir, key, anchor):
        config, path, header, lines = campaign_dir
        i, lines = self.hide_a_join(lines, key, anchor)
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(config, path, re.escape(_lone_line_error(path, i, lines[i - 2])) + "$")

    @pytest.mark.parametrize("blank", [" ", "\t", "\r"])
    def test_a_join_hidden_in_a_duplicated_key_beside_blanks(self, campaign_dir, blank):
        # blanks part three keys of the two records from their colons
        config, path, header, lines = campaign_dir
        i, lines = self.hide_a_join(lines, "note", "{", blank)
        path.write_text("\n".join([header, *lines]) + "\n")
        self.refused(config, path, re.escape(_lone_line_error(path, i, lines[i - 2])) + "$")

    def test_a_raw_response_holding_a_join_is_read(self, campaign_dir):
        config, path, header, lines = campaign_dir
        lines[3] = rewritten(
            config, 3, lines[3], "},{" + lines[4].replace('":', '",') + "\n,{"
        )
        path.write_text("\n".join([header, *lines]) + "\n")
        expected = [json.loads(line) for line in lines]
        assert read_results(path)[1] == expected
        assert analyze_results(path)["n_records"] == len(lines)
        assert run_campaign(config).skipped == len(lines)

    def test_a_raw_response_holding_a_record_is_read(self, campaign_dir):
        config, path, header, lines = campaign_dir
        lines[3] = rewritten(config, 3, lines[3], lines[4])
        path.write_text("\n".join([header, *lines]) + "\n")
        assert read_results(path)[1] == [json.loads(line) for line in lines]
        assert analyze_results(path)["n_records"] == len(lines)
        assert run_campaign(config).skipped == len(lines)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_resume_after_every_line_is_byte_identical(
        self, tmp_path, mined_l3, finished, workers
    ):
        self.resume_after_every_line(tmp_path, mined_l3, finished, workers)

    @staticmethod
    def resume_after_every_line(tmp_path, mined_l3, finished, workers):
        # a resume keeps only the run it resumes in: each cut lands in run 0
        # or run 1, before or after the run's judgments
        ends = [i + 1 for i, byte in enumerate(finished) if byte == ord("\n")]
        for n, end in enumerate(ends):
            config = small_config(tmp_path / str(n), mined_l3, concurrency=workers)
            path = results_path(config.output_dir)
            path.write_bytes(finished[:end - 5 if n else end])
            outcome = run_campaign(config)
            assert not outcome.failed
            assert path.read_bytes() == finished
            assert outcome.skipped == max(n - 1, 0)

    def test_an_edited_judged_pair_is_refused(self, tmp_path, mined_l3):
        # line 766 of a lengths-3, 2-run oracle campaign is a judgment; its
        # judged pair is the one its run's completion and explanation give
        config = small_config(tmp_path, mined_l3, limit_sequences=None)
        path = run_campaign(config).results_file
        header, *lines = path.read_text().splitlines()
        assert len(lines) == 1576
        record = json.loads(lines[764])
        assert record["task"] == "consistency_judgment"
        assert record["judged"]["completion"] == 0
        given = canonical_json(record["judged"])
        record["judged"] = {"completion": 7, "explanation": "lambda x: (2 * x) + 3"}
        lines[764] = canonical_json(record)
        path.write_text("\n".join([header, *lines]) + "\n")
        problem = (
            "the consistency_judgment line of run 0 for sequence "
            f"{record['sequence']['values']} at length 3: judged is "
            f"{canonical_json(record['judged'])}, where its run's completion and "
            f"explanation lines give {given}"
        )
        self.refused(
            config, path, re.escape(f"results.jsonl:766: malformed record line ({problem})") + "$"
        )

    def test_a_judgment_without_a_pair_is_the_line_filed_for_it(self, tmp_path, mined_l3):
        # with no valid pair to judge, the writer files an empty answer with
        # its note, without asking the backend; no other line stands there
        config = small_config(
            tmp_path, mined_l3, backend="scripted", fixtures_file="unused.json",
            tasks=("completion", "explanation", "consistency_judgment"), n_runs=1,
        )
        backend = ScriptedBackend({}, default="gibberish")
        path = run_campaign(config, backend=backend).results_file
        header, *lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if NO_PAIR_NOTE in line)
        for field, value in [("note", None), ("raw_response", "yes"), ("top_logprobs", [["yes", 0]])]:
            record = json.loads(lines[i])
            record[field] = value
            damaged = [*lines[:i], canonical_json(record), *lines[i + 1:]]
            path.write_text("\n".join([header, *damaged]) + "\n")
            with pytest.raises(
                CampaignError,
                match=re.escape(f"results.jsonl:{i + 2}: malformed record line (")
                + rf".*: {field} is {re.escape(canonical_json(value))}, where a "
                "judgment with no parseable pair to judge has",
            ):
                read_results(path)


#: Logprobs as a backend may report them: floats and integers, at most 0.
LOGPROBS = st.one_of(
    st.integers(-5, 0), st.floats(min_value=-1e15, max_value=0, allow_nan=False)
)
#: Answer, token and note texts, with what JSON escapes: quotes, backslashes,
#: control characters and non-ASCII text; and texts holding the keys the
#: reader finds a line's raw_response by.
TEXTS = st.one_of(
    st.text(
        st.one_of(st.sampled_from('"\\\n\t/{}[],:\u00e9\u20ac\U0001f600 0123456789abcxyz'),
                  st.characters(exclude_categories=("Cs",))),
        max_size=12,
    ),
    st.sampled_from([',"raw_response":"', ',"run_id":1,', "null", '"}\n{"']),
)
TOP_LOGPROBS = st.lists(
    st.tuples(TEXTS, LOGPROBS), min_size=1, max_size=5, unique_by=lambda pair: pair[0]
).map(lambda pairs: TokenDistribution.from_pairs(sorted(pairs, key=lambda p: -p[1])))


class TestTheWritersText:
    """A record line passes the reader exactly when it is the text the
    writer writes for its query: every line ``_result_line`` builds reads
    back as it was written, and a rewrite of it that JSON reads as the same
    values is refused by its line number."""

    @pytest.fixture(scope="class")
    def campaign_plan(self, tmp_path_factory, mined_l3):
        """(results path, header line, datasets, the plan, the oracle's
        answer to each query)."""
        config = small_config(tmp_path_factory.mktemp("writers_text"), mined_l3)
        path = run_campaign(config).results_file
        header, *lines = path.read_text().splitlines()
        datasets = load_campaign_datasets(config, config_space(config))
        plan = list(plan_queries(config, datasets))
        return path, header, datasets, plan, [json.loads(line)["raw_response"] for line in lines]

    @staticmethod
    def rewrites(text: str) -> dict[str, str]:
        """``text``, a record line of run 1, rewritten in ways that JSON
        reads as the same values, or as the same numbers."""
        valid = text.rindex(',"valid":')
        return {
            "spaces": json.dumps(json.loads(text), sort_keys=True),
            "a_key_moved": "{" + text[valid + 1:-1] + "," + text[1:valid] + "}",
            "an_escaped_ascii_character": text.replace('"task":', '"\\u0074ask":', 1),
            "1.0_for_1": text.replace('"run_id":1,', '"run_id":1.0,', 1),
            "true_for_1": text.replace('"run_id":1,', '"run_id":true,', 1),
        }

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lines_read_back_as_written_and_rewrites_are_refused(self, campaign_plan, data):
        path, header, datasets, plan, oracle = campaign_plan
        run = campaign._RunLines()
        written = []
        for query, answer in zip(plan, oracle):
            judged = None
            if query.task is Task.CONSISTENCY_JUDGMENT:
                judged = campaign._judged_pair(run, query)
            if query.task is Task.CONSISTENCY_JUDGMENT and judged is None:
                line = _result_line(query, "", None, None, NO_PAIR_NOTE)
            else:
                text = data.draw(st.one_of(st.just(answer), TEXTS))
                top = data.draw(st.none() | TOP_LOGPROBS)
                note = data.draw(st.none() | TEXTS)
                line = _result_line(query, text, top, judged, note)
            run.add(query, line)
            written.append(line)
        texts = [canonical_json(line) for line in written]
        path.write_text("\n".join([header, *texts]) + "\n")
        _, read = read_results(path, datasets)
        assert read == written
        assert [canonical_json(line) for line in read] == texts

        i = data.draw(st.integers(len(texts) // 2, len(texts) - 1), label="line of run 1")
        assert written[i]["run_id"] == 1
        for name, rewritten_text in self.rewrites(texts[i]).items():
            assert json.loads(rewritten_text) == written[i], name
            damaged = [*texts[:i], rewritten_text, *texts[i + 1:]]
            path.write_text("\n".join([header, *damaged]) + "\n")
            with pytest.raises(
                CampaignError, match=rf"results\.jsonl:{i + 2}: malformed record line \("
            ):
                read_results(path, datasets)


#: JSON values of every type, a few levels deep.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | TEXTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXTS, inner, max_size=3),
    max_leaves=6,
)


class TestRefusalWords:
    """A record line with one field set to a value the writer would not
    write there is refused by its number, in words that name that field:
    the plan's words for a plan field."""

    @pytest.fixture(scope="class")
    def campaign_lines(self, tmp_path_factory, mined_l3):
        """(results path, header line, datasets, record lines, the lines to
        damage): the first line of each task and record kind, among them a
        completion that does not parse, so that its run's judgment of that
        record has no pair, and a judgment with a pair."""
        config = small_config(tmp_path_factory.mktemp("refusal_words"), mined_l3)
        path = run_campaign(config).results_file
        header, *lines = path.read_text().splitlines()
        datasets = load_campaign_datasets(config, config_space(config))
        plan = list(plan_queries(config, datasets))
        assert plan[0].task is Task.COMPLETION and plan[0].record.is_ambiguous
        lines[0] = rewritten(config, 0, lines[0], "banana")
        judgments = [i for i, query in enumerate(plan) if query.task is Task.CONSISTENCY_JUDGMENT]
        assert plan[judgments[0]].record is plan[0].record
        lines[judgments[0]] = canonical_json(
            _result_line(plan[judgments[0]], "", None, None, NO_PAIR_NOTE)
        )
        firsts = {}
        for i, query in enumerate(plan):
            firsts.setdefault((query.task, query.record.is_ambiguous), i)
        targets = sorted({*firsts.values(), *judgments[:2]})
        records = [json.loads(lines[i]) for i in targets]
        assert [r["note"] for r in records].count(NO_PAIR_NOTE) == 1
        assert sum(r["judged"] is not None for r in records) == 1
        return path, header, datasets, lines, targets

    @staticmethod
    def writable(record: dict, field: str, value) -> bool:
        """Whether the writer could write ``value`` as ``record``'s
        ``field``, the line otherwise as it stands."""
        if canonical_json(value) == canonical_json(record[field]):
            return True
        if record["note"] == NO_PAIR_NOTE or field not in ("raw_response", "top_logprobs", "note"):
            return False
        if field == "raw_response":
            return type(value) is str  # another text scores the same or moves parsed
        if field == "note":
            return value is None or type(value) is str
        try:
            return value is None or bool(TokenDistribution.from_pairs(value))
        except ValueError:
            return False

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_value_the_writer_would_not_write_is_named(self, campaign_lines, data):
        path, header, datasets, lines, targets = campaign_lines
        i = data.draw(st.sampled_from(targets), label="line")
        field = data.draw(st.sampled_from(campaign._FIELDS), label="field")
        others = [json.loads(lines[j])[field] for j in targets]
        value = data.draw(JSON_VALUES | st.sampled_from(others), label="value")
        record = json.loads(lines[i])
        assume(not self.writable(record, field, value))
        record[field] = value
        damaged = [*lines[:i], canonical_json(record), *lines[i + 1:]]
        path.write_text("\n".join([header, *damaged]) + "\n")
        words = re.escape(f"results.jsonl:{i + 2}: malformed record line (")
        if field in _PLAN_FIELDS:
            words += rf"the plan puts .* here, not a line whose {field} is "
        else:
            words += (
                r"the \w+ line of run \d for sequence \[[\d, ]+\] at length 3: "
                rf"(malformed {field}: |{field} is )"
            )
        with pytest.raises(CampaignError, match=words):
            read_results(path, datasets)


class TestSharedTopLogprobs:
    """The top_logprobs lists a read shares among the lines of a (length,
    run) are held no longer than that run, so a read of captures that all
    differ, as a real model's do, holds no more for more runs."""

    @pytest.fixture(scope="class")
    def one_run(self, tmp_path_factory, mined_l3):
        """(config, records) of a one-run oracle campaign over every length-3
        sequence."""
        config = small_config(
            tmp_path_factory.mktemp("one_run"), mined_l3, limit_sequences=None, n_runs=1
        )
        _, records = read_results(run_campaign(config).results_file)
        return config, records

    @staticmethod
    def distinct_captures(tmp_path, config, records, n_runs):
        """(results path, datasets) of an ``n_runs``-run campaign: ``records``
        once per run id, each completion's logprobs lowered by its own step,
        so no two captures are the same text, as a real model's would be."""
        tmp_path.mkdir()
        shutil.copy(Path(config.output_dir) / dataset_filename(3), tmp_path)
        config = config.override(output_dir=str(tmp_path), n_runs=n_runs)
        lines = [canonical_json(campaign._results_header(config))]
        step = 0
        for run_id in range(n_runs):
            for r in records:
                top = r["top_logprobs"]
                if top:
                    step += 1
                    top = [[token, logprob - step / 2**20] for token, logprob in top]
                lines.append(canonical_json({**r, "run_id": run_id, "top_logprobs": top}))
        path = results_path(tmp_path)
        path.write_text("\n".join(lines) + "\n")
        return path, load_campaign_datasets(config, config_space(config))

    def test_read_memory_does_not_grow_with_the_runs(self, tmp_path, one_run):
        # the top_logprobs lists a run's lines share are let go when the
        # next run begins; with a capture per completion, nothing else the
        # read holds is per run
        config, records = one_run
        peaks = {}
        for n_runs in (2, 8):
            path, datasets = self.distinct_captures(tmp_path / str(n_runs), config, records, n_runs)
            read_results(path, datasets, lambda line: None)  # fills the caches a read fills
            gc.collect()
            tracemalloc.start()
            try:
                read_results(path, datasets, lambda line: None)
                peaks[n_runs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= peaks[2] * 1.05, peaks

    def test_shared_top_logprobs_are_let_go_when_the_next_run_begins(self, tmp_path, one_run):
        # a consumer that keeps the lists of one run holds the only
        # references to them once the next run's first line is read
        config, records = one_run
        path, datasets = self.distinct_captures(tmp_path / "3", config, records, 3)
        kept: dict[int, list] = {}
        counts = []

        def consume(line):
            if line["run_id"] not in kept:
                if kept:
                    # the control list is held by `listed` alone
                    listed = [[], *kept.pop(line["run_id"] - 1)]
                    counts.append(
                        {sys.getrefcount(lst) for lst in listed[1:]}
                        == {sys.getrefcount(lst) for lst in listed[:1]}
                    )
                kept[line["run_id"]] = []
            if line["top_logprobs"]:
                kept[line["run_id"]].append(line["top_logprobs"])

        read_results(path, datasets, consume)
        assert counts == [True, True]


class TestCollectorPaused:
    """Reading and analysing a results file leave the cyclic collector as
    they found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_restored(self, tmp_path, mined_l3, enabled):
        config = small_config(tmp_path, mined_l3)
        path = run_campaign(config).results_file
        good = path.read_text()
        lines = good.splitlines()
        lines[3] = "{broken"
        bad = "\n".join(lines) + "\n"
        for read in (read_results, analyze_results):
            for text in (good, bad):
                path.write_text(text)
                gc.enable() if enabled else gc.disable()
                if text is bad:
                    with pytest.raises(CampaignError, match=":4: malformed record line"):
                        read(path)
                else:
                    read(path)
                assert gc.isenabled() is enabled


# ---------------------------------------------------------------------------
# the run loop


class TestRunCampaign:
    def test_oracle_end_to_end(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        outcome = run_campaign(config)
        assert not outcome.failed
        assert outcome.queried == 24
        assert outcome.skipped == 0
        assert outcome.queried + outcome.skipped == 24
        _, records = read_results(outcome.results_file)
        assert all(r["valid"] for r in records)
        completions = [r for r in records if r["task"] == "completion"]
        assert all(r["correct"] for r in completions if not r["ambiguous"])
        # logprob capture asked for completion queries only
        assert all(r["top_logprobs"] for r in completions)
        others = [r for r in records if r["task"] != "completion"]
        assert all(r["top_logprobs"] is None for r in others)
        judgments = [r for r in records if r["task"] == "consistency_judgment"]
        assert all(r["judged"] is not None for r in judgments)
        assert all(r["raw_response"] == "consistent" for r in judgments)

    def test_resume_skips_everything(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        first = run_campaign(config)
        before = first.results_file.read_bytes()
        second = run_campaign(config)
        assert second.queried == 0
        assert second.skipped == 24
        assert second.results_file.read_bytes() == before

    def test_repeat_runs_are_byte_identical(self, tmp_path, mined_l3):
        config_a = small_config(tmp_path / "a", mined_l3)
        config_b = small_config(tmp_path / "b", mined_l3)
        bytes_a = run_campaign(config_a).results_file.read_bytes()
        bytes_b = run_campaign(config_b).results_file.read_bytes()
        assert bytes_a == bytes_b

    def test_digest_mismatch_refuses_to_append(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        run_campaign(config)
        reseeded = config.override(rng_seed=99)
        with pytest.raises(CampaignError, match="fresh output directory"):
            run_campaign(reseeded)

    def test_interrupted_write_recovers_byte_identically(
        self, tmp_path, mined_l3
    ):
        config_full = small_config(tmp_path / "full", mined_l3)
        reference = run_campaign(config_full).results_file.read_bytes()

        config = small_config(tmp_path / "torn", mined_l3)
        path = run_campaign(config).results_file
        # simulate a crash mid-write: record 23 torn mid-line, record 24 gone
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][:20])
        outcome = run_campaign(config)
        assert outcome.queried == 2  # the torn record and the missing one
        assert outcome.skipped == 22
        assert path.read_bytes() == reference

    @pytest.mark.parametrize(
        "cut",
        [
            lambda data: data.index(b"\n") // 2,  # inside the header
            lambda data: data.index(b"\n", len(data) // 2) - 40,  # mid-record
            lambda data: data.index(b"\n", len(data) // 2) + 1,  # exactly at a \n
            lambda data: len(data) - 1,  # just before the final \n
        ],
        ids=["inside_header", "mid_record", "at_newline", "before_final_newline"],
    )
    def test_resume_after_cut_is_byte_identical(self, tmp_path, mined_l3, cut):
        config_full = small_config(tmp_path / "full", mined_l3)
        reference = run_campaign(config_full).results_file.read_bytes()

        config = small_config(tmp_path / "cut", mined_l3)
        path = results_path(config.output_dir)
        path.write_bytes(reference[: cut(reference)])
        outcome = run_campaign(config)
        assert not outcome.failed
        assert path.read_bytes() == reference
        assert len(read_results(path)[1]) == outcome.queried + outcome.skipped == 24

    def test_resume_holds_only_the_lines_of_ambiguous_records(
        self, tmp_path, mined_l3, monkeypatch
    ):
        # judgments are asked of ambiguous records alone, so what a resume
        # keeps of the run it resumes in is their completion and explanation
        config = small_config(tmp_path, mined_l3, n_runs=3)
        run_campaign(config)
        made = []

        class Recorded(campaign._RunLines):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(campaign, "_RunLines", Recorded)
        assert run_campaign(config).queried == 0
        (run,) = made
        dataset = load_campaign_datasets(config, config_space(config))[3]
        ambiguous = {r.sequence.values for r in dataset.ambiguous[:2]}
        assert run.run == (3, 2)
        assert run.completions.keys() == run.explanations.keys() == ambiguous
        for line in (*run.completions.values(), *run.explanations.values()):
            assert line["ambiguous"] and line["run_id"] == 2

    def test_resume_refuses_a_duplicated_line(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        path = run_campaign(config).results_file
        lines = path.read_text().splitlines()
        # a finished campaign with one answer filed twice, then cut short
        damaged = "\n".join(lines[:-3] + [lines[2]]) + "\n"
        path.write_text(damaged)
        with pytest.raises(
            CampaignError,
            match=rf":{len(lines) - 2}: malformed record line \(the plan puts the ",
        ):
            run_campaign(config)
        assert path.read_text() == damaged

    def test_resume_refuses_a_foreign_unterminated_file(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        path = results_path(config.output_dir)
        path.write_text('{"format": "something.else"')
        with pytest.raises(CampaignError, match="fresh output directory"):
            run_campaign(config)
        assert path.read_text() == '{"format": "something.else"'

    def test_config_space_leaves_lookup_cache_cold(self):
        # the benchmark times cold processes and aborts on a warm cache
        script = (
            "from ambigseq import campaign, mining\n"
            "from ambigseq.config import CampaignConfig\n"
            "space = campaign.config_space(CampaignConfig())\n"
            "assert mining._matching_generators.cache_info().currsize == 0\n"
            "assert '_prefix_indexes' not in vars(space)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def test_backend_failure_preserves_partial_results(
        self, tmp_path, mined_l3
    ):
        from ambigseq.campaign import config_space

        config = small_config(tmp_path, mined_l3)
        oracle = OracleBackend(config_space(config))
        outcome = run_campaign(config, backend=FailAfter(oracle, 5))
        assert outcome.failed
        assert "synthetic outage" in outcome.error
        assert outcome.queried == 5
        _, records = read_results(outcome.results_file)
        assert len(records) == 5

    def test_resume_after_failure_matches_uninterrupted(
        self, tmp_path, mined_l3
    ):
        from ambigseq.campaign import config_space

        config_full = small_config(tmp_path / "full", mined_l3)
        reference = run_campaign(config_full).results_file.read_bytes()

        config = small_config(tmp_path / "flaky", mined_l3)
        oracle = OracleBackend(config_space(config))
        failed = run_campaign(config, backend=FailAfter(oracle, 7))
        assert failed.failed
        resumed = run_campaign(config)
        assert not resumed.failed
        assert resumed.skipped == 7
        assert resumed.results_file.read_bytes() == reference

    def test_judgment_without_parseable_pair_skips_backend(
        self, tmp_path, mined_l3
    ):
        config = small_config(
            tmp_path,
            mined_l3,
            backend="scripted",
            fixtures_file="unused-but-required.json",
            tasks=("completion", "explanation", "consistency_judgment"),
            n_runs=1,
            want_top_logprobs=0,
        )
        backend = CountingBackend(ScriptedBackend({}, default="gibberish"))
        outcome = run_campaign(config, backend=backend)
        assert not outcome.failed
        # 4 completion + 4 explanation calls; judgment never hits the backend
        assert backend.calls == 8
        _, records = read_results(outcome.results_file)
        judgments = [r for r in records if r["task"] == "consistency_judgment"]
        assert len(judgments) == 2
        for r in judgments:
            assert not r["valid"]
            assert r["parsed"] == {"kind": "invalid"}
            assert "no parseable completion/explanation pair" in r["note"]

    def test_logprobs_unsupported_disables_capture(self, tmp_path, mined_l3):
        config = small_config(
            tmp_path,
            mined_l3,
            backend="scripted",
            fixtures_file="unused-but-required.json",
            tasks=("completion",),
            n_runs=1,
            want_top_logprobs=5,
        )
        backend = CountingBackend(ScriptedBackend({}, default="42"))
        outcome = run_campaign(config, backend=backend)
        assert not outcome.failed
        _, records = read_results(outcome.results_file)
        assert len(records) == 4
        # one request a query: the first asks and is answered without top
        # logprobs, then capture turns off
        assert backend.calls == 4
        assert backend.asked == [5, 0, 0, 0]
        noted = [r for r in records if r["note"]]
        assert noted == records[:1]
        assert "top logprobs unavailable" in noted[0]["note"]
        assert all(r["top_logprobs"] is None for r in records)

    def test_random_valid_files_the_fallback_on_its_first_completion(
        self, tmp_path, mined_l3
    ):
        config = small_config(
            tmp_path,
            mined_l3,
            backend="random_valid",
            tasks=("completion", "explanation"),
            want_top_logprobs=5,
        )
        backend = CountingBackend(make_backend(config, config_space(config)))
        outcome = run_campaign(config, backend=backend)
        assert not outcome.failed and outcome.queried == 16
        _, records = read_results(outcome.results_file)
        completions = [r for r in records if r["task"] == "completion"]
        assert [r for r in records if r["note"]] == completions[:1]
        assert completions[0]["note"] == LOGPROBS_UNAVAILABLE_NOTE
        # only the first completion asks; capture is off for every later one
        assert sorted(backend.asked) == [0] * 15 + [5]
        assert all(r["top_logprobs"] is None for r in records)

    def test_timestamps_confined_to_audit_log(self, tmp_path, mined_l3):
        config = small_config(tmp_path, mined_l3)
        outcome = run_campaign(config)
        run_campaign(config)  # a resume, to log more audit lines
        audit = (outcome.results_file.parent / AUDIT_FILENAME).read_text()
        assert ISO_STAMP.search(audit)
        assert not ISO_STAMP.search(outcome.results_file.read_text())
        assert "resume" in audit and "finish" in audit


class TestAnswersTooDeepToHandle:
    """An explanation nested too deep for the interpreter's stack is filed as
    an invalid line; the campaign finishes, and resumes byte-identically."""

    NESTED = "Explanation: lambda x: " + "(" * 500 + "x" + ")" * 500
    CHAIN = "Explanation: lambda x: " + " + ".join(["x"] * 3000)

    @staticmethod
    def config(tmp_path, mined_l3) -> CampaignConfig:
        return small_config(
            tmp_path,
            mined_l3,
            backend="scripted",
            fixtures_file="unused-but-required.json",
            tasks=("completion", "explanation", "consistency_judgment"),
            n_runs=1,
            want_top_logprobs=0,
        )

    @classmethod
    def backend(cls, config) -> ScriptedBackend:
        """Alternates the two answers over the explanation targets; "7" to
        everything else."""
        queries = plan_queries(config, load_campaign_datasets(config, config_space(config)))
        targets = [q.record.sequence for q in queries if q.task is Task.EXPLANATION]
        instruction = EXPLANATION_INSTRUCTIONS[Variant.PLAIN]
        fixtures = {
            f"For the sequence: {target.render()}\n{instruction}": answer
            for target, answer in zip(targets, [cls.NESTED, cls.CHAIN] * len(targets))
        }
        return ScriptedBackend(fixtures, default="7")

    def test_lines_are_invalid_and_resume_is_byte_identical(self, tmp_path, mined_l3):
        config = self.config(tmp_path / "full", mined_l3)
        outcome = run_campaign(config, backend=self.backend(config))
        assert not outcome.failed
        reference = outcome.results_file.read_bytes()
        _, records = read_results(outcome.results_file)
        explanations = [r for r in records if r["task"] == "explanation"]
        assert {r["raw_response"] for r in explanations} == {self.NESTED, self.CHAIN}
        assert not any(r["valid"] for r in explanations)

        # kill the run halfway through writing each explanation line
        lines = reference.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if b'"task":"explanation"' not in line:
                continue
            config = self.config(tmp_path / f"cut{i}", mined_l3)
            path = results_path(config.output_dir)
            path.write_bytes(b"".join(lines[:i]) + line[: len(line) // 2])
            assert not run_campaign(config, backend=self.backend(config)).failed
            assert path.read_bytes() == reference


class TestOverlongNumerals:
    """An answer holding a numeral longer than ``MAX_NUMERAL_DIGITS`` is filed
    as an invalid line; the campaign finishes, and resumes byte-identically
    after a cut inside such a line."""

    @staticmethod
    def config(out_dir, base: int) -> CampaignConfig:
        config = CampaignConfig(
            lengths=(3,),
            base=base,
            limit_sequences=2,
            n_runs=1,
            backend="scripted",
            fixtures_file="unused-but-required.json",
            want_top_logprobs=0,
            output_dir=str(out_dir),
        )
        mine_datasets(config)
        return config

    @staticmethod
    def backend(base: int) -> ScriptedBackend:
        # base 2 lies outside Python's int-string limit, which is what let
        # such an answer reach the results file's JSON encoder
        numeral = "1" * 5000 if base == 10 else "0b" + "1" * 20_000
        return ScriptedBackend(
            {
                "possible and valid answers": f"{numeral} \\n",
                EXPLANATION_INSTRUCTIONS[Variant.PLAIN]: (
                    f"Explanation: lambda x: ({'1' * 5000} * x) + 1"
                ),
                COMPLETION_INSTRUCTIONS[Variant.PLAIN]: numeral,
            },
            default="consistent",
        )

    @pytest.mark.parametrize("base", [10, 2])
    def test_lines_are_invalid_and_resume_is_byte_identical(self, tmp_path, base):
        config = self.config(tmp_path / "full", base)
        outcome = run_campaign(config, backend=self.backend(base))
        assert not outcome.failed
        reference = outcome.results_file.read_bytes()
        _, records = read_results(outcome.results_file)
        asked = [r for r in records if r["task"] != "consistency_judgment"]
        assert {r["task"] for r in asked} == {
            "completion", "explanation", "verbalize_alternatives"
        }
        assert all(len(r["raw_response"]) >= 5000 and not r["valid"] for r in asked)

        # kill the run halfway through writing each over-long line
        lines = reference.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if len(line) < 5000:
                continue
            config = self.config(tmp_path / f"cut{i}", base)
            path = results_path(config.output_dir)
            path.write_bytes(b"".join(lines[:i]) + line[: len(line) // 2])
            assert not run_campaign(config, backend=self.backend(base)).failed
            assert path.read_bytes() == reference


class TestClassBasedShotSampling:
    """Under ``same_class`` every function shown in a demonstration has a
    template kind of the query record's generators; under ``exclude_class``
    none has."""

    class Recorder:
        def __init__(self, inner):
            self.inner = inner
            self.backend_id = inner.backend_id
            self.prompts = []

        def complete(self, request) -> CompletionResponse:
            self.prompts.append(request.prompt)
            return self.inner.complete(request)

    @staticmethod
    def demo_functions(prompt):
        """The functions the prompt's demonstrations show."""
        if prompt.task is Task.EXPLANATION:
            return [parse(answer.removeprefix("Explanation: "))
                    for _, answer in prompt.demonstrations]
        if prompt.task is Task.CONSISTENCY_JUDGMENT:
            return [parse(query.splitlines()[1].removeprefix("Explanation: "))
                    for query, _ in prompt.demonstrations]
        return []

    @pytest.mark.parametrize("sampling", ["same_class", "exclude_class"])
    def test_demo_kinds_follow_the_query_record(self, tmp_path, mined_l3, sampling):
        config = small_config(
            tmp_path, mined_l3, n_runs=1, limit_sequences=4, shot_sampling=sampling
        )
        recorder = self.Recorder(OracleBackend(config_space(config)))
        assert not run_campaign(config, backend=recorder).failed
        records = {
            r.sequence.values: r for r in load_campaign_datasets(config, config_space(config))[3].records()
        }
        checked = 0
        for prompt in recorder.prompts:
            kinds = {fn.kind for fn in records[prompt.target.values].functions}
            for fn in self.demo_functions(prompt):
                assert (fn.kind in kinds) is (sampling == "same_class")
                checked += 1
        assert checked == 8 * 6 + 4 * 6  # explanation and judgment demos


class TestResumeAfterAnyCut:
    """A finished results file cut at any byte resumes to the same bytes."""

    @staticmethod
    def config(tmp_path, mined_l3) -> CampaignConfig:
        return small_config(tmp_path, mined_l3, n_runs=1, limit_sequences=1)

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory, mined_l3) -> bytes:
        config = self.config(tmp_path_factory.mktemp("full"), mined_l3)
        return run_campaign(config).results_file.read_bytes()

    # the cut lies ``back`` bytes before the end of line ``line`` (taken
    # modulo the line count, its newline included), but not before its start
    @given(line=st.integers(0, 20), back=st.integers(0, 4000))
    @example(line=0, back=10**6)  # offset 0: an empty file
    @example(line=0, back=100)  # inside the header
    @example(line=2, back=0)  # exactly at a newline
    @example(line=-1, back=1)  # one byte before the final newline
    @settings(max_examples=50, deadline=None)
    def test_byte_identical(self, uninterrupted, mined_l3, line, back):
        ends = [i + 1 for i, byte in enumerate(uninterrupted) if byte == ord("\n")]
        i = line % len(ends)
        cut = max(ends[i - 1] if i else 0, ends[i] - back)
        with tempfile.TemporaryDirectory() as tmp:
            config = self.config(Path(tmp), mined_l3)
            path = results_path(config.output_dir)
            path.write_bytes(uninterrupted[:cut])
            assert not run_campaign(config).failed
            assert path.read_bytes() == uninterrupted


@pytest.mark.skipif(fcntl is None, reason="no fcntl: results files are not locked")
class TestOneWriter:
    """A run holds its results file's lock from before it reads the file to
    its end; a second run, or a mine, is refused while it is held."""

    @pytest.fixture()
    def cut(self, tmp_path, mined_l3) -> CampaignConfig:
        # a finished campaign cut after its fifth line, with work left to do
        config = small_config(tmp_path, mined_l3)
        path = run_campaign(config).results_file
        path.write_bytes(b"".join(path.read_bytes().splitlines(True)[:5]))
        return config

    @staticmethod
    def held(path: Path):
        fh = path.open("a")
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return fh

    def test_a_second_run_is_refused(self, cut):
        path = results_path(cut.output_dir)
        audit = Path(cut.output_dir) / AUDIT_FILENAME
        before, logged = path.read_bytes(), audit.read_bytes()
        with self.held(path):
            with pytest.raises(CampaignError, match="is being written by another run"):
                run_campaign(cut)
        assert path.read_bytes() == before
        assert audit.read_bytes() == logged
        assert run_campaign(cut).skipped == 4

    def test_mine_is_refused(self, cut):
        path = results_path(cut.output_dir)
        dataset = Path(cut.output_dir) / dataset_filename(3)
        dataset.unlink()
        before = path.read_bytes()
        with self.held(path):
            with pytest.raises(CampaignError, match="is being written by another run"):
                mine_datasets(cut)
        assert path.read_bytes() == before
        assert not dataset.exists()
        mine_datasets(cut)
        assert dataset.exists()

    def test_without_fcntl_nothing_is_locked(self, cut, monkeypatch):
        monkeypatch.setattr(campaign, "fcntl", None)
        with self.held(results_path(cut.output_dir)):
            assert run_campaign(cut).skipped == 4


# ---------------------------------------------------------------------------
# concurrent dispatch


def _digest_int(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class FakeEndpoint:
    """A chat-completions transport for ``HttpBackend``.

    Each answer is a function of the prompt alone and well formed for its
    task; it comes after a sleep of 0-2 ms drawn from the prompt, so
    concurrent requests finish out of order. The first attempt of about one
    prompt in six is answered 429. Top logprobs are sent until the
    ``lose_from``-th answered request that asks for them, counted by arrival,
    and the ``fail_at``-th request of all is answered 401.
    """

    def __init__(self, lose_from: int | None = None, fail_at: int | None = None):
        self.lose_from = lose_from
        self.fail_at = fail_at
        self.requests: list[tuple[str, list]] = []  # (thread, messages)
        self.rejected: list | None = None  # messages answered 401
        self._logprob_requests = 0
        self._limited: set[str] = set()
        self._lock = threading.Lock()

    def __call__(self, url, headers, payload, timeout):
        messages = payload["messages"]
        user = messages[-1]["content"]
        h = _digest_int(user)
        with self._lock:
            self.requests.append((threading.current_thread().name, messages))
            if len(self.requests) == self.fail_at:
                self.rejected = messages
                return 401, {}
            if h % 6 == 0 and user not in self._limited:
                self._limited.add(user)
                return 429, {}
            k = 0
            if payload.get("logprobs"):
                self._logprob_requests += 1
                if self.lose_from is None or self._logprob_requests < self.lose_from:
                    k = payload["top_logprobs"]
        time.sleep(h % 3 / 1000)
        block = user.rsplit("\n\n", 1)[-1]
        if "'consistent' or 'inconsistent'" in block:
            text = ("consistent", "inconsistent")[h % 2]
        elif "Explanation: <function>" in block:
            text = f"Explanation: lambda x: ({h % 4} * x) + {h // 4 % 5}"
        elif "possible and valid answers" in block:
            text = f"{h % 7} \\n {h % 7 + 1} \\n"
        else:
            text = str(h % 40)
        choice: dict = {"message": {"content": text}}
        if k:
            top = [{"token": str(h % 40 + i), "logprob": -0.1 - i} for i in range(k)]
            choice["logprobs"] = {"content": [{"top_logprobs": top}]}
        return 200, {"choices": [choice]}


class InFlight:
    """Wraps a transport and counts the calls in it at once: ``peak`` of
    all, ``lane_peak`` of those asking for top logprobs, whose user
    messages ``asked_logprobs`` keeps in arrival order. Each call is held
    ``hold`` seconds before it goes on."""

    def __init__(self, inner, hold: float = 0.0):
        self.inner = inner
        self.hold = hold
        self.asked_logprobs: list[str] = []
        self.peak = self.lane_peak = 0
        self._now = self._lane_now = 0
        self._lock = threading.Lock()

    def __call__(self, url, headers, payload, timeout):
        lane = bool(payload.get("logprobs"))
        with self._lock:
            self._now += 1
            self.peak = max(self.peak, self._now)
            if lane:
                self._lane_now += 1
                self.lane_peak = max(self.lane_peak, self._lane_now)
                self.asked_logprobs.append(payload["messages"][-1]["content"])
        try:
            time.sleep(self.hold)
            return self.inner(url, headers, payload, timeout)
        finally:
            with self._lock:
                self._now -= 1
                self._lane_now -= lane


class TestMalformedTopLogprobs:
    """A top-logprobs entry without a finite logprob fails the campaign with
    a ``MalformedResponseError``; the lines before it stay on disk, and no
    line holds a non-JSON number."""

    @staticmethod
    def endpoint(entry):
        """Well-formed answers, except that the second request asking for
        top logprobs gets ``entry`` among them."""
        asked = []

        def transport(url, headers, payload, timeout):
            choice: dict = {"message": {"content": "15"}}
            if payload.get("logprobs"):
                asked.append(payload)
                top = [{"token": "15", "logprob": -0.1}]
                if len(asked) == 2:
                    top.append(entry)
                choice["logprobs"] = {"content": [{"top_logprobs": top}]}
            return 200, {"choices": [choice]}

        return transport

    @pytest.mark.parametrize(
        "entry",
        [{"token": "19"}, None, {"token": "19", "logprob": float("nan")}],
        ids=["no_logprob", "null", "nan"],
    )
    def test_campaign_fails_at_the_entry(self, tmp_path, mined_l3, monkeypatch, entry):
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "test-key")
        config = small_config(
            tmp_path,
            mined_l3,
            backend="http",
            http_base_url="http://endpoint.invalid/v1",
            http_model="fake",
            tasks=("completion",),
        )
        backend = HttpBackend(
            config.http_base_url, config.http_model, transport=self.endpoint(entry)
        )
        outcome = run_campaign(config, backend)
        assert outcome.failed and "malformed top_logprobs" in outcome.error
        assert outcome.queried == 1

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        lines = outcome.results_file.read_text().splitlines()
        assert len(lines) == 2  # the header and the first completion
        for line in lines:
            json.loads(line, parse_constant=refuse)


class TestConcurrentDispatch:
    """Backend calls overlap, result lines are committed in plan order."""

    # each run of the campaign below asks 6 completions, so the endpoint
    # loses top logprobs on run 1's second completion
    LOSE_FROM = 8

    @pytest.fixture(autouse=True)
    def api_key(self, monkeypatch):
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "test-key")

    @pytest.fixture()
    def fast_switching(self):
        # thread switches far more often than by default, so that an
        # ordering fault in the run loop shows in a short campaign
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def run(tmp_path, mined_l3, endpoint, concurrency, **overrides):
        config = small_config(
            tmp_path,
            mined_l3,
            backend="http",
            http_base_url="http://endpoint.invalid/v1",
            http_model="fake",
            limit_sequences=3,
            concurrency=concurrency,
            **overrides,
        )
        backend = HttpBackend(
            config.http_base_url,
            config.http_model,
            transport=endpoint,
            sleep=lambda seconds: None,
        )
        return run_campaign(config, backend)

    @pytest.mark.parametrize(
        "lose_from, concurrency",
        [
            # the first two keep the ids they had before lose_from varied
            pytest.param(LOSE_FROM, 2, id="2"),
            pytest.param(LOSE_FROM, 8, id="8"),
            *(
                pytest.param(lose_from, concurrency, id=f"lose{lose_from}-{concurrency}")
                for lose_from in (1, 6, 7, 12, None)
                for concurrency in (1, 2, 8)
            ),
            pytest.param(LOSE_FROM, 1, id=f"lose{LOSE_FROM}-1"),
        ],
    )
    def test_results_identical_for_every_worker_count(
        self, tmp_path, mined_l3, fast_switching, lose_from, concurrency
    ):
        serial = FakeEndpoint(lose_from=lose_from)
        reference = self.run(tmp_path / "serial", mined_l3, serial, 1)
        pooled = FakeEndpoint(lose_from=lose_from)
        outcome = self.run(tmp_path / "pooled", mined_l3, pooled, concurrency)
        assert not reference.failed and not outcome.failed
        assert outcome.queried == reference.queried == 36
        assert (
            outcome.results_file.read_bytes() == reference.results_file.read_bytes()
        )
        # one worker calls the backend inline; more call it on the pool (or
        # the lane) only
        assert {thread for thread, _ in serial.requests} == {"MainThread"}
        if concurrency == 1:
            assert {thread for thread, _ in pooled.requests} == {"MainThread"}
        else:
            assert all(
                thread.startswith("ambigseq-backend") for thread, _ in pooled.requests
            )

    @pytest.mark.parametrize("concurrency", [2, 8])
    def test_calls_in_flight_never_exceed_the_concurrency(
        self, tmp_path, mined_l3, concurrency
    ):
        calls = InFlight(FakeEndpoint(lose_from=self.LOSE_FROM), hold=0.01)
        outcome = self.run(tmp_path, mined_l3, calls, concurrency)
        assert not outcome.failed and outcome.queried == 36
        assert calls.asked_logprobs  # the lane was open
        assert 1 < calls.peak <= concurrency

    def test_other_requests_run_while_a_lane_request_is_out(self, tmp_path, mined_l3):
        # the first request asking for top logprobs is answered only once a
        # request that does not ask for them has arrived, or after 5 s
        overlapped = threading.Event()
        endpoint = FakeEndpoint(lose_from=self.LOSE_FROM)
        first: list = []

        def transport(url, headers, payload, timeout):
            if not payload.get("logprobs"):
                overlapped.set()
            elif not first:
                first.append(overlapped.wait(5))
            return endpoint(url, headers, payload, timeout)

        outcome = self.run(tmp_path, mined_l3, transport, 8)
        assert not outcome.failed and outcome.queried == 36
        assert first == [True]

    def test_lane_requests_arrive_one_at_a_time_in_plan_order(
        self, tmp_path, mined_l3, fast_switching
    ):
        serial = InFlight(FakeEndpoint(lose_from=self.LOSE_FROM), hold=0.002)
        self.run(tmp_path / "serial", mined_l3, serial, 1)
        pooled = InFlight(FakeEndpoint(lose_from=self.LOSE_FROM), hold=0.002)
        outcome = self.run(tmp_path / "pooled", mined_l3, pooled, 8)
        assert not outcome.failed and outcome.queried == 36
        # a 429 is asked again at once, so its prompt arrives twice in a row
        assert len(pooled.asked_logprobs) >= self.LOSE_FROM
        assert pooled.asked_logprobs == serial.asked_logprobs
        assert pooled.lane_peak == 1

    def test_without_top_logprobs_no_worker_is_reserved(self, tmp_path, mined_l3):
        # eight calls must be in the endpoint together to pass the barrier
        barrier = threading.Barrier(8, timeout=5)
        endpoint = FakeEndpoint()
        arrivals = itertools.count()
        met: list[bool] = []

        def transport(url, headers, payload, timeout):
            if next(arrivals) < 8:
                try:
                    met.append(barrier.wait() >= 0)
                except threading.BrokenBarrierError:
                    met.append(False)
            return endpoint(url, headers, payload, timeout)

        outcome = self.run(tmp_path, mined_l3, transport, 8, want_top_logprobs=0)
        assert not outcome.failed and outcome.queried == 36
        assert met == [True] * 8

    def test_oracle_results_identical_off_the_inline_path(
        self, tmp_path, mined_l3, fast_switching, monkeypatch
    ):
        # the pooled oracle answers from a copy of the campaign's space that
        # holds no rows yet, so its rows and prefix index are built by workers
        readers = []
        sequence = FunctionSpace.sequence

        def recording(space, fn, offset, length):
            if space is cold:
                readers.append(threading.current_thread().name)
            return sequence(space, fn, offset, length)

        serial = small_config(tmp_path / "serial", mined_l3, limit_sequences=3)
        reference = run_campaign(serial)
        pooled = small_config(
            tmp_path / "pooled", mined_l3, limit_sequences=3, concurrency=4
        )
        cold = dataclasses.replace(config_space(pooled))
        mining._matching_generators.cache_clear()
        monkeypatch.setattr(FunctionSpace, "sequence", recording)
        outcome = run_campaign(pooled, OracleBackend(cold, tie_break=pooled.tie_break))
        assert pooled.backend == "oracle" and pooled.workers == 4
        assert not reference.failed and not outcome.failed
        assert outcome.queried == reference.queried == 36
        assert (
            outcome.results_file.read_bytes() == reference.results_file.read_bytes()
        )
        assert "_prefix_indexes" in vars(cold)
        assert readers and all(name.startswith("ambigseq-backend") for name in readers)

    def test_fallback_note_lands_on_the_same_completion(self, tmp_path, mined_l3):
        outcome = self.run(
            tmp_path, mined_l3, FakeEndpoint(lose_from=self.LOSE_FROM), 8
        )
        _, records = read_results(outcome.results_file)
        completions = [r for r in records if r["task"] == "completion"]
        noted = [r for r in records if r["note"] == LOGPROBS_UNAVAILABLE_NOTE]
        assert noted == [completions[self.LOSE_FROM - 1]]
        assert all(r["top_logprobs"] for r in completions[: self.LOSE_FROM - 1])
        assert not any(r["top_logprobs"] for r in completions[self.LOSE_FROM - 1 :])

    @pytest.mark.parametrize("concurrency", [1, 8])
    def test_one_request_per_query(self, tmp_path, mined_l3, concurrency):
        # the fallback asks nothing again: the only requests past one a
        # query are the endpoint's 429s
        endpoint = FakeEndpoint(lose_from=4)
        outcome = self.run(tmp_path, mined_l3, endpoint, concurrency)
        assert not outcome.failed and outcome.queried == 36
        _, records = read_results(outcome.results_file)
        assert [r["note"] for r in records].count(LOGPROBS_UNAVAILABLE_NOTE) == 1
        assert len(endpoint.requests) == outcome.queried + len(endpoint._limited)

    def test_judgments_see_their_own_runs_pair(self, tmp_path, mined_l3):
        outcome = self.run(tmp_path, mined_l3, FakeEndpoint(), 8)
        _, records = read_results(outcome.results_file)
        by_task: dict = {}
        for r in records:
            key = (r["run_id"], tuple(r["sequence"]["values"]))
            by_task.setdefault(r["task"], {})[key] = r
        judgments = by_task["consistency_judgment"]
        assert len(judgments) == 6
        for key, judgment in judgments.items():
            assert judgment["judged"] == {
                "explanation": by_task["explanation"][key]["parsed"]["value"],
                "completion": by_task["completion"][key]["parsed"]["value"],
            }
        # the two runs answer differently, so a crossed pair would show
        pairs = [tuple(j["judged"].values()) for j in judgments.values()]
        assert len(set(pairs)) > len(pairs) // 2

    @pytest.mark.parametrize("concurrency", [1, 8])
    def test_resume_after_the_fallback_keeps_capture_off(
        self, tmp_path, mined_l3, concurrency
    ):
        # an endpoint that never sends top logprobs: the first completion
        # files the fallback note and no later one asks for them again
        full = self.run(tmp_path / "full", mined_l3, FakeEndpoint(lose_from=1), 1)
        expected = full.results_file.read_bytes()
        cut = self.run(tmp_path / "cut", mined_l3, FakeEndpoint(lose_from=1), 1)
        lines = expected.split(b"\n")
        cut.results_file.write_bytes(b"\n".join(lines[:4]) + b"\n")
        resumed = self.run(
            tmp_path / "cut", mined_l3, FakeEndpoint(lose_from=1), concurrency
        )
        assert resumed.skipped == 3
        assert resumed.results_file.read_bytes() == expected

    @pytest.mark.parametrize("concurrency", [1, 8])
    def test_any_error_is_logged_as_the_abort_and_raised(
        self, tmp_path, mined_l3, concurrency
    ):
        reference = self.run(tmp_path / "full", mined_l3, FakeEndpoint(), 1)
        expected = reference.results_file.read_bytes()

        # the backend raises a RuntimeError at its tenth call
        endpoint = FakeEndpoint()
        arrivals = itertools.count(1)
        crashed: list = []

        def transport(url, headers, payload, timeout):
            if next(arrivals) == 10:
                crashed.append(payload["messages"])
                raise RuntimeError("transport crashed")
            return endpoint(url, headers, payload, timeout)

        with pytest.raises(RuntimeError, match="transport crashed"):
            self.run(tmp_path / "crash", mined_l3, transport, concurrency)
        out = tmp_path / "crash" / "out"
        kept = (out / "results.jsonl").read_bytes()
        assert expected.startswith(kept) and kept.endswith(b"\n")
        last = (out / AUDIT_FILENAME).read_text().splitlines()[-1]
        assert "abort campaign=" in last
        committed = len(kept.splitlines()) - 1
        assert last.endswith(f" after {committed} queries: RuntimeError('transport crashed')")
        # both executors are shut down
        assert not [
            t for t in threading.enumerate() if t.name.startswith("ambigseq-backend")
        ]
        # the lines kept are every line before the crashed call's query
        healthy = FakeEndpoint()
        resumed = self.run(tmp_path / "crash", mined_l3, healthy, 1)
        assert healthy.requests[0][1] == crashed[0]
        assert resumed.results_file.read_bytes() == expected

    @pytest.mark.parametrize("fail_at", [1, 10, 22])
    def test_crash_keeps_the_plan_order_prefix(self, tmp_path, mined_l3, fail_at):
        reference = self.run(tmp_path / "full", mined_l3, FakeEndpoint(), 1)
        expected = reference.results_file.read_bytes()

        crashing = FakeEndpoint(fail_at=fail_at)
        failed = self.run(tmp_path / "crash", mined_l3, crashing, 8)
        assert failed.failed and "rejected credentials" in failed.error
        kept = failed.results_file.read_bytes()
        assert expected.startswith(kept) and kept.endswith(b"\n")
        assert kept.count(b"\n") == 1 + failed.queried

        # resumed one call at a time, the first request is the one that was
        # rejected: every line before its query was kept, none after it
        healthy = FakeEndpoint()
        resumed = self.run(tmp_path / "crash", mined_l3, healthy, 1)
        assert not resumed.failed and resumed.skipped == failed.queried
        assert healthy.requests[0][1] == crashing.rejected
        assert resumed.results_file.read_bytes() == expected


# ---------------------------------------------------------------------------
# backend construction


class TestMakeBackend:
    def space_and_config(self, **overrides):
        from ambigseq.campaign import config_space

        config = CampaignConfig(**overrides)
        return config, config_space(config)

    def test_oracle(self):
        config, space = self.space_and_config(backend="oracle")
        backend = make_backend(config, space)
        assert isinstance(backend, OracleBackend)
        assert backend.mode == "consistent"

    def test_adversarial(self):
        config, space = self.space_and_config(backend="adversarial")
        backend = make_backend(config, space)
        assert isinstance(backend, OracleBackend)
        assert backend.mode == "adversarial"

    def test_random_valid_carries_seed(self):
        config, space = self.space_and_config(
            backend="random_valid",
            backend_seed=17,
            tasks=("completion", "explanation"),
        )
        backend = make_backend(config, space)
        assert isinstance(backend, RandomValidBackend)
        assert backend.seed == 17

    def test_scripted_from_fixtures_file(self, tmp_path):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({"fixtures": {"q": "a"}, "default": "d"}))
        config, space = self.space_and_config(
            backend="scripted", fixtures_file=str(fixtures)
        )
        backend = make_backend(config, space)
        assert isinstance(backend, ScriptedBackend)
        assert backend.fixtures == {"q": CompletionResponse("a")}
        assert backend.default == CompletionResponse("d")

    def test_http_carries_endpoint_and_key_variable(self):
        config, space = self.space_and_config(
            backend="http",
            http_base_url="http://127.0.0.1:9/v1/",
            http_model="some-model",
            api_key_env="SOME_KEY",
        )
        backend = make_backend(config, space)  # builds a client, sends nothing
        assert isinstance(backend, HttpBackend)
        assert (backend.base_url, backend.model, backend.api_key_env) == (
            "http://127.0.0.1:9/v1", "some-model", "SOME_KEY"
        )

    @pytest.mark.parametrize("tie_break", CHOICES["tie_break"])
    @pytest.mark.parametrize("name", CHOICES["backend"])
    def test_every_choice_builds(self, tmp_path, name, tie_break):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({"fixtures": {}}))
        config, space = self.space_and_config(
            backend=name,
            tie_break=tie_break,
            fixtures_file=str(fixtures),
            http_base_url="http://127.0.0.1:9",
            http_model="some-model",
            tasks=("completion", "explanation"),
        )
        backend = make_backend(config, space)
        assert backend.backend_id and callable(backend.complete)
        if isinstance(backend, OracleBackend):
            assert backend.tie_break == tie_break

    def test_cache_dir_wraps_backend(self, tmp_path):
        config, space = self.space_and_config(
            backend="oracle", cache_dir=str(tmp_path / "cache")
        )
        backend = make_backend(config, space)
        assert isinstance(backend, CachingBackend)
        assert isinstance(backend.inner, OracleBackend)


class TestReplayFromCache:
    """A campaign run with ``cache_dir`` replays from a copy of its cache,
    with no fixtures left, and writes the same record lines."""

    @staticmethod
    def config(tmp_path, mined_l3, name, fixtures, cache_dir) -> CampaignConfig:
        fixtures_file = tmp_path / f"{name}-fixtures.json"
        fixtures_file.write_text(json.dumps(fixtures))
        return small_config(
            tmp_path / name,
            mined_l3,
            limit_sequences=12,
            backend="scripted",
            fixtures_file=str(fixtures_file),
            cache_dir=str(cache_dir),
        )

    def test_logprob_fallback_replays(self, tmp_path, mined_l3):
        probe = small_config(tmp_path / "probe", mined_l3, limit_sequences=12)
        completions = [
            q.record.sequence
            for q in plan_queries(probe, load_campaign_datasets(probe, config_space(probe)))
            if q.task is Task.COMPLETION
        ]
        instruction = COMPLETION_INSTRUCTIONS[Variant.PLAIN]
        recorded = {
            "fixtures": {f"For the sequence: {completions[3].render()}\n{instruction}": "7"},
            "default": {"text": "7", "top_logprobs": [["7", -0.1], ["8", -2.5]]},
        }
        config = self.config(tmp_path, mined_l3, "recorded", recorded, tmp_path / "cache")
        outcome = run_campaign(config)
        assert not outcome.failed and outcome.queried == 144
        _, records = read_results(outcome.results_file)
        assert [r["note"] for r in records].count(LOGPROBS_UNAVAILABLE_NOTE) == 1

        shutil.copytree(tmp_path / "cache", tmp_path / "copy")
        replay = self.config(tmp_path, mined_l3, "replay", {"fixtures": {}}, tmp_path / "copy")
        replayed = run_campaign(replay)
        assert not replayed.failed and replayed.queried == 144
        body = outcome.results_file.read_text().split("\n", 1)[1]
        assert replayed.results_file.read_text().split("\n", 1)[1] == body


class TestScriptedFixturesFile:
    def test_string_and_structured_answers(self, tmp_path):
        path = tmp_path / "fixtures.json"
        path.write_text(
            json.dumps(
                {
                    "fixtures": {
                        "plain": "just text",
                        "rich": {
                            "text": "answer",
                            "top_logprobs": [["answer", -0.1], ["other", -2.5]],
                        },
                    },
                    "default": {"text": "fallback"},
                }
            )
        )
        backend = load_scripted_fixtures(path)
        assert backend.fixtures["plain"] == CompletionResponse("just text")
        rich = backend.fixtures["rich"]
        assert rich.text == "answer"
        assert rich.first_token_top_logprobs == TokenDistribution.from_pairs(
            [("answer", -0.1), ("other", -2.5)]
        )
        assert backend.default == CompletionResponse("fallback")

    def test_no_default(self, tmp_path):
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps({"fixtures": {"q": "a"}}))
        backend = load_scripted_fixtures(path)
        assert backend.default is None

    @pytest.mark.parametrize(
        "data",
        [
            [{"fixtures": {}}],
            {"default": "a"},
            {"fixtures": {"q": {"top_logprobs": [["7", -0.1]]}}},
            {"fixtures": {"q": "a"}, "default": {"text": 7}},
            {"fixtures": {"q": {"text": "7", "top_logprobs": [["7", -2], ["8", -1]]}}},
            {"fixtures": {"q": {"text": "7", "top_logprobs": [["7", "high"]]}}},
        ],
        ids=[
            "list_file",
            "no_fixtures",
            "answer_without_text",
            "default_text_not_a_string",
            "unsorted_top_logprobs",
            "logprob_not_a_number",
        ],
    )
    def test_malformed_file_is_a_value_error_naming_it(self, tmp_path, data):
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            load_scripted_fixtures(path)
