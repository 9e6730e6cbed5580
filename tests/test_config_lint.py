"""What a backend needs of a config is said in its ``backends.BACKENDS``
entry, so ``config`` names no backend: the only backend name written in
``config.py`` is the default of the ``backend`` field."""

import ast
from pathlib import Path

from ambigseq.backends import BACKENDS

CONFIG = Path(__file__).resolve().parents[1] / "src" / "ambigseq" / "config.py"


def _backend_default(tree: ast.Module) -> ast.Constant:
    """The default value node of ``CampaignConfig.backend``."""
    (node,) = [
        stmt.value
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "CampaignConfig"
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "backend"
    ]
    return node


def test_config_names_no_backend_but_the_default():
    tree = ast.parse(CONFIG.read_text(), filename=str(CONFIG))
    default = _backend_default(tree)
    named = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in BACKENDS
        and node is not default
    ]
    assert not named, f"config.py names backends outside their BACKENDS entries: {named}"
    assert default.value in BACKENDS
