"""Independent brute-force oracle used by the test suite.

Everything here goes through Python's own evaluator (``eval`` on the surface
text) rather than the package's AST interpreter, so agreement between the two
is a meaningful check. The template strings are deliberately duplicated from
the package; a test asserts the copies match so drift is caught.

:func:`pairwise_ambiguities` is the exception: it reads the package's own
rows, and audits its prefix index with the literal pairwise scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from ambigseq.mining import Generator

ORACLE_TEMPLATES = {
    "arithmetic": "lambda x: ({0} * x) + {1}",
    "geometric": "lambda x: ({0} * x) * {1}",
    "exponential": "lambda x: ({0} * x) ** {1}",
    "power": "lambda x: {0} ** ({1} * x)",
    "bit_or": "lambda x: ({0} * x) | {1}",
    "modular": "lambda x: (x * {0}) % ({1}+1)",
    "indexing_criteria": (
        "lambda x: [i for i in range(100) if i % ({0} + 1) or i % ({1} + 1)][x]"
    ),
    "recursive": (
        "(lambda a: lambda v: a(a,v))"
        "(lambda fn,x: 1 if x==0 else {0} * x * fn(fn,x-1) + {1})"
    ),
}

INT64_MAX = 2**63 - 1


def oracle_function(text: str):
    """Python's own reading of a function's surface text."""
    return eval(text, {"__builtins__": {}, "range": range})


@lru_cache(maxsize=None)
def oracle_callable(kind: str, c1: int, c2: int):
    return oracle_function(ORACLE_TEMPLATES[kind].format(c1, c2))


def oracle_value(kind: str, c1: int, c2: int, x: int) -> int:
    return oracle_callable(kind, c1, c2)(x)


def oracle_valid(kind: str, c1: int, c2: int, probes=range(1, 11)) -> bool:
    fn = oracle_callable(kind, c1, c2)
    for x in probes:
        try:
            v = fn(x)
        except Exception:
            return False
        if abs(v) > INT64_MAX:
            return False
    return True


def oracle_space(constants=range(5), probes=range(1, 11)):
    """All valid (kind, c1, c2) triples, in template enumeration order."""
    return [
        (kind, c1, c2)
        for kind in ORACLE_TEMPLATES
        for c1, c2 in product(constants, constants)
        if oracle_valid(kind, c1, c2, probes)
    ]


def oracle_sequence(kind: str, c1: int, c2: int, offset: int, length: int,
                    start: int = 1) -> list[int]:
    fn = oracle_callable(kind, c1, c2)
    return [fn(start + offset + j) for j in range(length)]


def oracle_mine(space, length: int, max_offset: int = 4, start: int = 1):
    """Group prefixes by value tuple; return {prefix: [(kind,c1,c2,offset,cont)]}."""
    table: dict[tuple[int, ...], list[tuple[str, int, int, int, int]]] = {}
    for kind, c1, c2 in space:
        fn = oracle_callable(kind, c1, c2)
        for offset in range(max_offset + 1):
            first = start + offset
            prefix = tuple(fn(first + j) for j in range(length))
            cont = fn(first + length)
            table.setdefault(prefix, []).append((kind, c1, c2, offset, cont))
    return table


def oracle_continuations(values, space, max_offset: int = 4, start: int = 1):
    """Every continuation any space function assigns to the given prefix."""
    values = tuple(values)
    out = set()
    for kind, c1, c2 in space:
        fn = oracle_callable(kind, c1, c2)
        for offset in range(max_offset + 1):
            first = start + offset
            if tuple(fn(first + j) for j in range(len(values))) == values:
                out.add(fn(first + len(values)))
    return out


def oracle_continuations_of(fn, values, max_offset: int = 4, start: int = 1) -> set[int]:
    """Every continuation the callable ``fn`` assigns to the given prefix, over
    the offsets at which Python evaluates it without error."""
    values = tuple(values)
    out = set()
    for offset in range(max_offset + 1):
        first = start + offset
        try:
            seq = tuple(fn(first + j) for j in range(len(values) + 1))
        except (IndexError, ZeroDivisionError):  # an empty filtered list, a zero modulus
            continue
        if seq[:-1] == values:
            out.add(seq[-1])
    return out


@dataclass(frozen=True)
class PairAmbiguity:
    """Two instances that share a prefix but continue differently."""

    first: Generator
    second: Generator
    prefix: tuple[int, ...]


def pairwise_ambiguities(space, length: int = 4) -> tuple[PairAmbiguity, ...]:
    """Literal pairwise scan over all (function, offset) instances of a
    package ``FunctionSpace``: quadratic in the instance count, it compares
    value prefixes element by element exactly as the definition reads, and
    never reads the prefix index."""
    instances = []
    for fn in space:
        for offset in space.convention.offsets:
            seq = space.sequence(fn, offset, length + 1)
            instances.append((seq[:length], Generator(fn, offset, seq[length])))
    return tuple(
        PairAmbiguity(a, b, prefix)
        for (prefix, a), (other, b) in combinations(instances, 2)
        if prefix == other and a.continuation != b.continuation
    )
