"""The benchmark's traced mode rebinds layer boundaries by attribute name.

``perfbench/child.py:install_tracer`` looks up functions on the ambigseq
modules by name and wraps them; renaming or deleting one of those names would
only show up as a crash in a traced benchmark run. This keeps it a test
failure instead.
"""

from __future__ import annotations

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
