"""A top-logprob list is checked in one place, ``TokenDistribution``, so every
reader refuses the same damaged lists: an answer object, a scripted fixtures
file, a cache entry and a ``results.jsonl`` line read by ``analyze``. An HTTP
endpoint's logprobs are clamped into ``[MIN_LOGPROB, 0]`` instead."""

import json
import math
import shutil

import pytest

from ambigseq.analysis import analyze_results, write_analysis
from ambigseq.backends import (
    CachingBackend,
    CompletionRequest,
    HttpBackend,
    MalformedResponseError,
    ScriptedBackend,
    _response_from_json,
    load_scripted_fixtures,
    parse_chat_response,
)
from ambigseq.campaign import dataset_filename, read_results, results_path, run_campaign
from ambigseq.cli import main
from ambigseq.config import CampaignConfig
from ambigseq.distribution import MAX_TOP_K, MIN_LOGPROB
from ambigseq.funcspace import enumerate_space
from ambigseq.mining import SequenceRecord
from ambigseq.prompting import PromptSpec, Task, build_prompt

#: Each damaged list, by name; every reader refuses each one.
BAD_LISTS = {
    "int_token": [[7, -0.1]],
    "bool_logprob": [["7", False]],
    "nan": [["7", math.nan]],
    "plus_inf": [["7", math.inf]],
    "minus_inf": [["7", -math.inf]],
    "below_floor": [["7", 2 * MIN_LOGPROB]],
    "unsorted": [["7", -2.0], ["8", -1.0]],
    "duplicate_token": [["7", -1.0], ["7", -2.0]],
    "six_entries": [[str(i), -1.0 - i] for i in range(MAX_TOP_K + 1)],
    "non_pair": [["7", -0.1], 7],
}


def _answer_object(top, **_):
    with pytest.raises(ValueError):
        _response_from_json({"text": "7", "top_logprobs": top})


def _fixtures_file(top, tmp_path, **_):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({"fixtures": {}, "default": {"text": "7", "top_logprobs": top}}))
    with pytest.raises(ValueError, match=f"{path}: bad scripted fixtures file"):
        load_scripted_fixtures(path)


def _cache_entry(top, tmp_path, **_):
    inner = ScriptedBackend({}, default={"text": "15", "top_logprobs": [["15", -0.1]]})
    backend = CachingBackend(inner, tmp_path)
    prompt = build_prompt(PromptSpec(task=Task.COMPLETION, n_shots=0),
                          SequenceRecord((7, 11, 15)), enumerate_space())
    request = CompletionRequest(prompt, want_top_logprobs=1)
    fresh = backend.complete(request)
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(json.dumps({"text": "7", "top_logprobs": top}))
    calls = []
    complete = inner.complete
    inner.complete = lambda r: calls.append(r) or complete(r)
    assert backend.complete(request) == fresh
    assert calls == [request]
    assert json.loads(entry.read_text())["text"] == "15"


def cli_flags(out_dir):
    return ["--output-dir", str(out_dir), "--lengths", "3",
            "--limit-sequences", "2", "--n-runs", "1"]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory, mined_l3):
    out = tmp_path_factory.mktemp("finished") / "out"
    out.mkdir()
    shutil.copy(mined_l3, out / dataset_filename(3))
    assert main(["run", *cli_flags(out)]) == 0
    return out


def _results_line(top, tmp_path, finished_run, capfd):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    path = results_path(out)
    lines = path.read_text().splitlines()
    n = next(n for n, line in enumerate(lines[1:], start=2)
             if json.loads(line)["task"] == "completion")
    record = json.loads(lines[n - 1])
    record["top_logprobs"] = top
    lines[n - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    capfd.readouterr()
    assert main(["analyze", *cli_flags(out)]) == 1
    err = capfd.readouterr().err
    assert f"error: {path}:{n}: malformed record line" in err
    assert "Traceback" not in err


READERS = {
    "answer_object": _answer_object,
    "fixtures_file": _fixtures_file,
    "cache_entry": _cache_entry,
    "results_line": _results_line,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("name", BAD_LISTS)
def test_every_reader_refuses_a_damaged_list(tmp_path, finished_run, capfd, reader, name):
    READERS[reader](BAD_LISTS[name], tmp_path=tmp_path, finished_run=finished_run, capfd=capfd)


def _chat_body(*top_logprobs):
    return {"choices": [{
        "message": {"content": "7"},
        "logprobs": {"content": [{"top_logprobs": [
            {"token": token, "logprob": logprob} for token, logprob in top_logprobs
        ]}]},
    }]}


@pytest.mark.parametrize("logprob", [True, "-0.5", "  -2 ", -10**400],
                         ids=["bool", "text", "padded_text", "huge_int"])
def test_an_endpoint_logprob_that_is_not_a_number_is_malformed(logprob):
    with pytest.raises(MalformedResponseError):
        parse_chat_response(_chat_body(("7", -0.1), ("8", logprob)), 2)


def test_an_endpoint_integer_logprob_is_read_as_a_float():
    _, dist = parse_chat_response(_chat_body(("7", 0), ("8", -1)), 2)
    assert dist.to_pairs() == [["7", 0.0], ["8", -1.0]]
    assert all(type(lp) is float for _, lp in dist.to_pairs())


def test_an_endpoint_logprob_below_the_floor_is_recorded_at_it(tmp_path, mined_l3, monkeypatch):
    body = _chat_body(("7", -0.1), ("8", -1e18))
    monkeypatch.setenv("AMBIGSEQ_API_KEY", "sk-test")
    monkeypatch.setattr(HttpBackend, "_post", lambda self, *args: (200, body))
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(mined_l3, out / dataset_filename(3))
    config = CampaignConfig(
        lengths=(3,), limit_sequences=2, n_runs=1, output_dir=str(out),
        backend="http", http_base_url="http://127.0.0.1:9", http_model="m",
        tasks=("completion",),
    )
    outcome = run_campaign(config)
    assert not outcome.failed
    _, records = read_results(outcome.results_file)
    assert records and all(
        r["top_logprobs"] == [["7", -0.1], ["8", MIN_LOGPROB]] for r in records
    )
    write_analysis(analyze_results(outcome.results_file), out)
    assert (out / "analysis.json").exists()
