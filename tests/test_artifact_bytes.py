"""The bytes of what ``analyze`` and ``report`` write, pinned for two small
campaigns run through the CLI: an oracle one, and a scripted one whose
completions carry top logprobs until one answer lacks them (a logprob
fallback). A refactor of the analysis or the report must leave every digest
as it is."""

import hashlib
import json
import shutil

from ambigseq.campaign import (
    LOGPROBS_UNAVAILABLE_NOTE,
    PlannedQuery,
    config_space,
    dataset_filename,
    prompt_seed,
    read_results,
)
from ambigseq.cli import main
from ambigseq.config import CampaignConfig
from ambigseq.mining import mine
from ambigseq.prompting import PromptSpec, Task, build_prompt

ARTIFACTS = ("analysis.json", "metrics.tsv", "report.txt")


def digests(out):
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
        for name in ARTIFACTS
    }


def run_cli(out, *extra):
    argv = ["--output-dir", str(out), "--lengths", "3", "--limit-sequences", "2",
            "--n-runs", "2", *extra]
    for command in ("run", "analyze", "report"):
        assert main([command, *argv]) == 0


def campaign_dir(tmp_path, mined_l3):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(mined_l3, out / dataset_filename(3))
    return out


def test_oracle_campaign_artifacts(tmp_path, mined_l3, capfd):
    out = campaign_dir(tmp_path, mined_l3)
    run_cli(out)
    capfd.readouterr()
    assert digests(out) == {
        "analysis.json": "68379b187b9251cb",
        "metrics.tsv": "26403165bdef6d49",
        "report.txt": "a4bf3b1e66c1e2d3",
    }


def scripted_fixtures(config, dataset):
    """Answers keyed by test query: completions with top logprobs, except
    the first ambiguous record's, which has none; one verdict and one list of
    alternatives, keyed by their instruction lines, answer the other tasks."""
    space = config_space(config)

    def test_query(record, task):
        spec = PromptSpec(
            task=task,
            variant=config.variant_enum,
            base=config.base,
            n_shots=config.n_shots,
            shot_sampling=config.shot_sampling_enum,
            rng_seed=prompt_seed(config, PlannedQuery(3, 0, task, record)),
        )
        return build_prompt(spec, record.sequence, space).test_query

    fixtures = {}
    records = (*dataset.ambiguous[:2], *dataset.unambiguous[:2])
    for i, record in enumerate(records):
        value = record.continuations[-1] + (i == 2)  # one wrong completion
        top = [[str(value), -0.25], [str(value + 1), -1.5], ["x", -3.0]]
        fixtures[test_query(record, Task.COMPLETION)] = {
            "text": str(value),
            "top_logprobs": None if i == 0 else top,
        }
        fixtures[test_query(record, Task.EXPLANATION)] = (
            "Explanation: " + record.generators[-1].function.text
        )
    fixtures["State whether the explanation and continuation"] = "consistent"
    fixtures["Consider up to 5 possible and valid answers"] = "3 \\n 5 \\n 8"
    return fixtures


def test_scripted_campaign_with_a_logprob_fallback_artifacts(
    tmp_path, mined_l3, monkeypatch, capfd
):
    # a relative fixtures path keeps the config digest the same in any directory
    monkeypatch.chdir(tmp_path)
    out = campaign_dir(tmp_path, mined_l3)
    config = CampaignConfig(
        lengths=(3,), limit_sequences=2, n_runs=2, output_dir=str(out),
        backend="scripted", fixtures_file="fixtures.json",
    )
    fixtures = scripted_fixtures(config, mine(config_space(config), 3))
    (tmp_path / "fixtures.json").write_text(json.dumps({"fixtures": fixtures}))
    run_cli(out, "--backend", "scripted", "--fixtures-file", "fixtures.json")
    capfd.readouterr()

    _, lines = read_results(out / "results.jsonl")
    completions = [r for r in lines if r["task"] == "completion"]
    assert sum(r["note"] == LOGPROBS_UNAVAILABLE_NOTE for r in completions) == 1
    assert any(r["top_logprobs"] for r in completions)
    assert all(r["valid"] for r in lines)
    assert digests(out) == {
        "analysis.json": "2f2bbb245ff535d0",
        "metrics.tsv": "3f15b92390983c41",
        "report.txt": "3c798ca33b4b3d1e",
    }

