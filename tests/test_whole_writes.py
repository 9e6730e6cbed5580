"""Every artifact is written whole: a write that dies part way through leaves
the previous file, or no file, and no temporary file behind."""

from __future__ import annotations

import errno
import json
import shutil
from pathlib import Path

import pytest

from ambigseq.analysis import write_analysis
from ambigseq.backends import CachingBackend, CompletionRequest, OracleBackend, request_digest
from ambigseq.campaign import dataset_filename
from ambigseq.cli import build_parser, cmd_report, main, resolve_config
from ambigseq.funcspace import enumerate_space
from ambigseq.mining import SequenceRecord, mine, save_dataset, write_atomic
from ambigseq.prompting import PromptSpec, Task, build_prompt


@pytest.fixture()
def tear_writes(monkeypatch):
    """``install(n)``: from the (n+1)-th call on, ``Path.write_text`` writes
    half its text and then fails as a full disk would."""

    def install(n_whole: int = 0) -> None:
        real = Path.write_text
        calls = []

        def write_text(self, data, *args, **kwargs):
            calls.append(self)
            if len(calls) <= n_whole:
                return real(self, data, *args, **kwargs)
            real(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_text)

    return install


@pytest.mark.parametrize("previous", [True, False], ids=["over_a_file", "no_file"])
def test_write_atomic(tmp_path, tear_writes, previous):
    path = tmp_path / "artifact.txt"
    if previous:
        write_atomic(path, "old\n")
    tear_writes()
    with pytest.raises(OSError):
        write_atomic(path, "new and longer\n")
    assert [p.name for p in tmp_path.iterdir()] == (["artifact.txt"] if previous else [])
    if previous:
        assert path.read_text() == "old\n"


def flags(out_dir):
    return ["--output-dir", str(out_dir), "--lengths", "3",
            "--limit-sequences", "2", "--n-runs", "1"]


@pytest.fixture()
def campaign_dir(tmp_path, mined_l3):
    """A reported oracle campaign: dataset, results, analysis, metrics, report."""
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(mined_l3, out / dataset_filename(3))
    for command in ("run", "analyze", "report"):
        assert main([command, *flags(out)]) == 0
    return out


def _rewrite_dataset(out):
    path = out / dataset_filename(3)
    save_dataset(mine(enumerate_space(), 3), path)


def _rewrite_analysis(out):
    write_analysis(json.loads((out / "analysis.json").read_text()), out)


def _rewrite_report(out):
    cmd_report(resolve_config(build_parser().parse_args(["report", *flags(out)])))


# (target file, writes that complete before the torn one, rewrite)
WRITERS = {
    "dataset": (dataset_filename(3), 0, _rewrite_dataset),
    "analysis": ("analysis.json", 0, _rewrite_analysis),
    "metrics": ("metrics.tsv", 1, _rewrite_analysis),
    "report": ("report.txt", 0, _rewrite_report),
}


@pytest.mark.parametrize("previous", [True, False], ids=["over_a_file", "no_file"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_artifact_writer(campaign_dir, tear_writes, writer, previous):
    name, n_whole, rewrite = WRITERS[writer]
    target = campaign_dir / name
    if not previous:
        target.unlink()
    before = {p.name: p.read_bytes() for p in campaign_dir.iterdir()}
    tear_writes(n_whole)
    with pytest.raises(OSError):
        rewrite(campaign_dir)
    after = {p.name: p.read_bytes() for p in campaign_dir.iterdir()}
    assert after == before


@pytest.mark.parametrize("previous", [True, False], ids=["over_a_file", "no_file"])
def test_cache_entry(tmp_path, tear_writes, previous):
    space = enumerate_space()
    backend = CachingBackend(OracleBackend(space), tmp_path)
    spec = PromptSpec(Task.COMPLETION, n_shots=0)
    request = CompletionRequest(build_prompt(spec, SequenceRecord((7, 11, 15)), space))
    entry = tmp_path / f"{request_digest(request, backend.backend_id)}.json"
    if previous:
        entry.write_text("[1, 2]")  # a wrong-shape entry the next call refreshes
    tear_writes()
    with pytest.raises(OSError):
        backend.complete(request)
    assert [p.name for p in tmp_path.iterdir()] == ([entry.name] if previous else [])
    if previous:
        assert entry.read_text() == "[1, 2]"
