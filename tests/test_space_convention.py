"""A function space carries its index convention, so no query against a space
takes a second, possibly different, convention beside it."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

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
    return param.name == name or type_name in str(param.annotation)


def test_no_callable_takes_both_a_space_and_a_convention():
    both, walked = [], set()
    for qualname, fn in _callables():
        walked.add(qualname)
        try:
            params = inspect.signature(fn).parameters.values()
        except (TypeError, ValueError):
            continue
        if any(_takes(p, "space", "FunctionSpace") for p in params) and any(
            _takes(p, "convention", "IndexConvention") for p in params
        ):
            both.append(qualname)
    assert {
        "ambigseq.mining.mine",
        "ambigseq.mining._matching_generators",
        "ambigseq.backends.OracleBackend.__init__",
        "ambigseq.prompting._build_demo",
    } <= walked
    assert both == []
