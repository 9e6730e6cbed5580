"""The modules are the import surface: each imports only what it uses,
importing one loads only the layers beneath it (and never numpy), and the
third-party packages they import are the runtime dependencies."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "ambigseq").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used_in_its_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line for name, line in _imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: imported but never used: {unused}"


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("funcspace", ["ambigseq.funcspace"]),
        ("mining", ["ambigseq.funcspace", "ambigseq.mining"]),
        ("config", ["ambigseq.backends", "ambigseq.config", "ambigseq.distribution",
                    "ambigseq.funcspace", "ambigseq.mining", "ambigseq.prompting"]),
        ("campaign", ["ambigseq.backends", "ambigseq.campaign", "ambigseq.config",
                      "ambigseq.distribution", "ambigseq.evaluation",
                      "ambigseq.funcspace", "ambigseq.mining", "ambigseq.prompting"]),
        ("analysis", ["ambigseq.analysis", "ambigseq.backends", "ambigseq.campaign",
                      "ambigseq.config", "ambigseq.distribution", "ambigseq.evaluation",
                      "ambigseq.funcspace", "ambigseq.mining", "ambigseq.prompting"]),
        ("cli", ["ambigseq.analysis", "ambigseq.backends", "ambigseq.campaign",
                 "ambigseq.cli", "ambigseq.config", "ambigseq.distribution",
                 "ambigseq.evaluation", "ambigseq.funcspace", "ambigseq.mining",
                 "ambigseq.prompting"]),
    ],
)
def test_a_module_loads_only_the_layers_beneath_it(module, loaded):
    script = (
        "import json, sys\n"
        f"import ambigseq.{module}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'numpy' or m.startswith('ambigseq.'))))\n"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == loaded


def _ambigseq_imports(tree: ast.Module) -> set[str]:
    """The ambigseq modules a module imports, at any depth of its code."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("ambigseq.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: ``from .x import y`` or ``from . import x``
                module = f"ambigseq.{module}".rstrip(".")
            if module == "ambigseq":
                found.update(alias.name for alias in node.names)
            elif module.startswith("ambigseq."):
                found.add(module.split(".")[1])
    return found


# config reads its backend and tie-break choices from backends, so config
# sits above every layer backends stands on
BENEATH_CONFIG = ("backends", "evaluation", "prompting", "mining", "distribution", "funcspace")


@pytest.mark.parametrize("module", BENEATH_CONFIG)
def test_no_module_beneath_config_imports_it(module):
    path = SRC / "ambigseq" / f"{module}.py"
    imported = _ambigseq_imports(ast.parse(path.read_text(), filename=str(path)))
    assert "config" not in imported


def test_the_third_party_imports_are_the_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    imported = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "ambigseq"}
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in project["dependencies"]}
    assert third_party == declared
