"""Every ambigseq name the benchmark scripts use resolves.

The scripts under ``perfbench/`` import ambigseq names directly or reach
them as attributes of an imported ambigseq module; a name that moved or was
renamed would only show up when the benchmark runs. This reads each script's
syntax tree and looks every such name up. The names the traced mode rebinds
are checked by ``test_perfbench_tracing.py``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def ambigseq_uses(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each ``from ambigseq.X import a`` and each
    ``m.attr`` on a module bound by ``from ambigseq import m``."""
    uses, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "ambigseq":
                for alias in node.names:
                    modules[alias.asname or alias.name] = f"ambigseq.{alias.name}"
            elif (node.module or "").startswith("ambigseq."):
                uses.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            uses.add((modules[node.value.id], node.attr))
    return uses


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_every_ambigseq_name_a_script_uses_resolves(path):
    uses = ambigseq_uses(ast.parse(path.read_text(), filename=str(path)))
    missing = sorted(
        f"{module}.{name}"
        for module, name in uses
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, f"{path.name} uses names ambigseq lacks: {missing}"


def test_the_scripts_use_names_of_both_kinds():
    uses = set().union(*(ambigseq_uses(ast.parse(p.read_text())) for p in SCRIPTS))
    assert ("ambigseq.evaluation", "parse_response") in uses  # from-import
    assert ("ambigseq.campaign", "run_campaign") in uses  # module attribute
