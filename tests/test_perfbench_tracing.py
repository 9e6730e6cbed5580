"""The benchmark's traced mode rebinds layer boundaries by attribute name.

``perfbench/child.py:install_tracer`` looks up functions on the ambigseq
modules by name and wraps them; renaming or deleting one of those names would
only show up as a crash in a traced benchmark run. This keeps it a test
failure instead, and so is a traced repetition that leaves a per-layer
metric of BENCHMARK.json without a value.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from ambigseq import (
    analysis,
    backends,
    campaign,
    evaluation,
    funcspace,
    mining,
    prompting,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCHMARK = PERFBENCH.parent / "BENCHMARK.json"


def test_install_tracer_finds_every_rebinding_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import tracer

    modules = (analysis, backends, campaign, evaluation, funcspace, mining, prompting)
    before = [dict(vars(m)) for m in modules]
    recorder = tracer.Tracer()
    try:
        child.install_tracer(recorder)
    finally:
        recorder.restore()
    assert [dict(vars(m)) for m in modules] == before


def test_tracer_sees_the_write_path(monkeypatch, tmp_path):
    # each scored answer must pass through the rebound evaluation functions;
    # a direct reference that bypasses the module attribute would leave
    # evaluation.score_ms empty in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import tracer

    from ambigseq.config import CampaignConfig

    recorder = tracer.Tracer()
    child.install_tracer(recorder)
    try:
        config = CampaignConfig(
            lengths=(3,), n_runs=1, limit_sequences=2, output_dir=str(tmp_path)
        )
        campaign.mine_datasets(config)
        outcome = campaign.run_campaign(config)
    finally:
        recorder.restore()
    assert not outcome.failed and outcome.queried > 0
    names = [span[0] for span in recorder.finished()]
    for name in (
        "evaluation.build_eval_record",
        "evaluation.annotate_correctness",
        "evaluation.eval_record_to_json",
    ):
        assert names.count(name) == outcome.queried, name
    assert recorder.counts["evaluation.scored"] == outcome.queried


def test_tracer_sees_the_read_path(monkeypatch, tmp_path):
    # analysis parses and checks each valid ambiguous completion/explanation
    # pair through the rebound names; a direct reference would leave the pair
    # check out of a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import tracer

    from ambigseq.config import CampaignConfig

    recorder = tracer.Tracer()
    child.install_tracer(recorder)
    try:
        config = CampaignConfig(
            lengths=(3,), n_runs=2, limit_sequences=3, output_dir=str(tmp_path)
        )
        campaign.mine_datasets(config)
        outcome = campaign.run_campaign(config)
        analysis.analyze_results(outcome.results_file)
    finally:
        recorder.restore()
    _, lines = campaign.read_results(outcome.results_file)
    valid = {
        (line["run_id"], line["task"], tuple(line["sequence"]["values"]))
        for line in lines
        if line["ambiguous"] and line["valid"]
    }
    pairs = sum(
        (run_id, "explanation", values) in valid
        for run_id, task, values in valid
        if task == "completion"
    )
    assert pairs > 0
    names = [span[0] for span in recorder.finished()]
    assert names.count("funcspace.parse") == pairs
    assert names.count("mining.continuations_of") == pairs


def test_a_traced_repetition_has_every_per_layer_metric(tmp_path):
    # each per-layer metric BENCHMARK.json names must come out of a traced
    # repetition as a number; one left null (say, a stage that reuses a space
    # enumerated before the tracer was installed leaves
    # funcspace.enumerate_ms null) makes the repetition's result unusable
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    report, trace = tmp_path / "report.json", tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "rep", "oracle_cycle", "0",
         str(tmp_path / "out"), str(report), str(trace)],
        check=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    per_layer = json.loads(report.read_text())["per_layer"]
    assert {
        name: per_layer.get(name)
        for name in names
        if type(per_layer.get(name)) not in (int, float)
    } == {}
