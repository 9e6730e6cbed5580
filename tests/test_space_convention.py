"""A function space carries its index convention and its prefix index, so no
query against a space takes a second, possibly different, convention or
prefix lookup (a mined dataset) beside it."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re

import ambigseq


def _callables():
    """(qualified name, callable) of every function, method and constructor
    defined in the ambigseq modules, private ones included."""
    for info in pkgutil.iter_modules(ambigseq.__path__):
        module = importlib.import_module(f"ambigseq.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # static/class methods
                    if callable(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def _takes(param: inspect.Parameter, name: str, type_name: str) -> bool:
    return param.name == name or re.search(rf"\b{type_name}\b", str(param.annotation))


def _takers_of_a_space_and(name: str, type_name: str) -> list[str]:
    """Every callable taking a space and a ``name``/``type_name`` parameter."""
    both, walked = [], set()
    for qualname, fn in _callables():
        walked.add(qualname)
        try:
            params = inspect.signature(fn).parameters.values()
        except (TypeError, ValueError):
            continue
        if any(_takes(p, "space", "FunctionSpace") for p in params) and any(
            _takes(p, name, type_name) for p in params
        ):
            both.append(qualname)
    assert {
        "ambigseq.mining.mine",
        "ambigseq.mining._matching_generators",
        "ambigseq.backends.OracleBackend.__init__",
        "ambigseq.prompting._build_demo",
        "ambigseq.prompting.build_prompt",
        "ambigseq.campaign._execute_query",
    } <= walked
    return both


def test_no_callable_takes_both_a_space_and_a_convention():
    assert _takers_of_a_space_and("convention", "IndexConvention") == []


def test_no_callable_takes_both_a_space_and_a_dataset():
    # a target's generators come from the space's prefix index alone
    assert _takers_of_a_space_and("dataset", "Dataset") == []
