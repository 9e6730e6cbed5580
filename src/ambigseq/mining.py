"""Mining ambiguous sequences from the function space.

A length-L prefix is *ambiguous* when at least two (function, offset) pairs
generate it with different continuations at step L+1. Every (function,
offset) instance is a slice of its function's row on the space
(:meth:`FunctionSpace.sequence`). Instances are grouped by value prefix once
per (space, length), into a prefix index kept on the space and built on first
use. :func:`mine` and every query against a space (:func:`matching_generators`
and what sits on it) read that index; the test suite audits it with the
literal O(n²) pair scan (``tests/bruteforce.py``). :func:`continuations_of`,
the execution check of a (function, completion) pair, reads any function's
values the same way, from the space, and evaluates nothing itself.

The fields of :class:`DatasetParameters`, typed by :func:`check_fields`, are
a dataset file's header, as :func:`save_dataset` writes and
:func:`load_dataset` reads it. A record's continuations and functions are
derived once, when it is made, and :meth:`Dataset.from_records` is the one
split of records by ambiguity.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Iterable, Iterator, get_args, get_origin, get_type_hints

from .funcspace import (
    BASES,
    ConcreteFunction,
    DEFAULT_MAX_VALUE,
    EvaluationError,
    FunctionLike,
    FunctionSpace,
    IndexConvention,
    ParseError,
    parse,
)

DATASET_FORMAT = "ambigseq.dataset"
DATASET_VERSION = 1


def format_int(value: int, base: int = 10) -> str:
    if base == 10:
        return str(value)
    if base not in BASES:
        raise ValueError(f"unsupported base: {base}")
    return bin(value) if value >= 0 else "-" + bin(-value)


@dataclass(frozen=True, order=True)
class SequenceRecord:
    """An integer sequence plus the base its numerals are rendered in."""

    values: tuple[int, ...]
    base: int = 10

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("sequence must be non-empty")
        if self.base not in BASES:
            raise ValueError(f"unsupported base: {self.base}")

    @property
    def length(self) -> int:
        return len(self.values)

    def render(self) -> str:
        return ",".join(format_int(v, self.base) for v in self.values)

    def rebase(self, base: int) -> "SequenceRecord":
        return SequenceRecord(self.values, base)


@dataclass(frozen=True)
class Generator:
    """One way of producing a sequence: a function, an offset, a continuation."""

    function: ConcreteFunction
    offset: int
    continuation: int

    def sort_key(self) -> tuple:
        return (*self.function.sort_key(), self.offset)


@dataclass(frozen=True)
class AmbiguityRecord:
    """A mined sequence together with everything in the space that explains it."""

    sequence: SequenceRecord
    generators: tuple[Generator, ...]
    # derived from the generators once: the distinct continuations, ascending,
    # and the distinct functions, in generator order
    continuations: tuple[int, ...] = field(init=False, compare=False)
    functions: tuple[ConcreteFunction, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("a mined record must have at least one generator")
        ordered = tuple(sorted(self.generators, key=Generator.sort_key))
        object.__setattr__(self, "generators", ordered)
        continuations = tuple(sorted({g.continuation for g in ordered}))
        object.__setattr__(self, "continuations", continuations)
        object.__setattr__(self, "functions", tuple(dict.fromkeys(g.function for g in ordered)))

    @property
    def is_ambiguous(self) -> bool:
        return len(self.continuations) > 1


@dataclass(frozen=True)
class DatasetParameters:
    """What a dataset was mined with; a dataset file's header holds these fields."""

    constant_range: tuple[int, int] = (0, 4)
    sequence_length: int = 4
    start_index: int = 1
    max_offset: int = 4
    base: int = 10
    max_function_value: int | None = DEFAULT_MAX_VALUE

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def convention(self) -> IndexConvention:
        return IndexConvention(self.start_index, self.max_offset)


@dataclass(frozen=True)
class DatasetCounts:
    """The same mining run tallied three ways.

    ``sequences_*`` counts distinct value tuples (the canonical unit);
    ``functions_*`` counts space functions by whether they generate at least
    one ambiguous sequence; ``ambiguous_function_pairs`` counts unordered
    pairs of distinct functions that disagree on some shared prefix; and
    ``self_ambiguous_functions`` counts functions that disagree with
    themselves across offsets (possible at short lengths).
    """

    sequences_ambiguous: int
    sequences_unambiguous: int
    functions_ambiguous: int
    functions_unambiguous: int
    ambiguous_function_pairs: int
    self_ambiguous_functions: int


@dataclass(frozen=True)
class Dataset:
    ambiguous: tuple[AmbiguityRecord, ...]
    unambiguous: tuple[AmbiguityRecord, ...]
    parameters: DatasetParameters

    def __post_init__(self) -> None:
        if not all(r.is_ambiguous for r in self.ambiguous):
            raise ValueError("the ambiguous split holds an unambiguous record")
        if any(r.is_ambiguous for r in self.unambiguous):
            raise ValueError("the unambiguous split holds an ambiguous record")

    @classmethod
    def from_records(
        cls, records: Iterable[AmbiguityRecord], parameters: DatasetParameters
    ) -> "Dataset":
        """``records`` split by ambiguity, each split in the given order."""
        records = tuple(records)
        return cls(
            tuple(r for r in records if r.is_ambiguous),
            tuple(r for r in records if not r.is_ambiguous),
            parameters,
        )

    def records(self) -> Iterator[AmbiguityRecord]:
        yield from self.ambiguous
        yield from self.unambiguous

    def counts(self, space: FunctionSpace) -> DatasetCounts:
        ambiguous_fns = {f for r in self.ambiguous for f in r.functions}
        all_fns = {f for r in self.records() for f in r.functions} | set(space.functions)
        pairs = set()
        self_ambiguous = set()
        for r in self.ambiguous:
            by_cont: dict[ConcreteFunction, set[int]] = {}
            for g in r.generators:
                by_cont.setdefault(g.function, set()).add(g.continuation)
            for f1, f2 in combinations(sorted(by_cont, key=ConcreteFunction.sort_key), 2):
                if len(by_cont[f1] | by_cont[f2]) > 1:
                    pairs.add((f1, f2))
            for fn, conts in by_cont.items():
                if len(conts) > 1:
                    self_ambiguous.add(fn)
        return DatasetCounts(
            sequences_ambiguous=len(self.ambiguous),
            sequences_unambiguous=len(self.unambiguous),
            functions_ambiguous=len(ambiguous_fns),
            functions_unambiguous=len(all_fns) - len(ambiguous_fns),
            ambiguous_function_pairs=len(pairs),
            self_ambiguous_functions=len(self_ambiguous),
        )


# ---------------------------------------------------------------------------
# Mining
# ---------------------------------------------------------------------------

def _prefix_index(
    space: FunctionSpace, length: int
) -> dict[tuple[int, ...], tuple[Generator, ...]]:
    """Length-``length`` prefix → its generators in canonical order, built from
    one pass over the space's (function, offset) instances and kept on the
    space instance."""
    indexes = vars(space).setdefault("_prefix_indexes", {})  # not a field: eq/hash skip it
    if length not in indexes:
        groups: dict[tuple[int, ...], list[Generator]] = {}
        for fn in space:
            for offset in space.convention.offsets:
                seq = space.sequence(fn, offset, length + 1)
                groups.setdefault(seq[:length], []).append(Generator(fn, offset, seq[length]))
        indexes[length] = {p: tuple(sorted(g, key=Generator.sort_key)) for p, g in groups.items()}
    return indexes[length]


def mine(space: FunctionSpace, length: int = 4, base: int = 10) -> Dataset:
    """Mine every distinct length-``length`` sequence the space can generate.

    Each distinct value tuple becomes one record carrying all of its
    generators; records whose generators disagree on the continuation are the
    ambiguous split.
    """
    index = _prefix_index(space, length)
    records = (AmbiguityRecord(SequenceRecord(p, base), index[p]) for p in sorted(index))
    params = DatasetParameters(
        constant_range=space.constant_range,
        sequence_length=length,
        start_index=space.convention.start_index,
        max_offset=space.convention.max_offset,
        base=base,
        max_function_value=space.max_value,
    )
    return Dataset.from_records(records, params)


# ---------------------------------------------------------------------------
# Queries against a space
# ---------------------------------------------------------------------------

def matching_generators(
    values: Iterable[int], space: FunctionSpace
) -> tuple[Generator, ...]:
    """Every (function, offset) in the space that generates the given prefix."""
    return _matching_generators(tuple(values), space)


@lru_cache(maxsize=4096)
def _matching_generators(
    values: tuple[int, ...], space: FunctionSpace
) -> tuple[Generator, ...]:
    return _prefix_index(space, len(values)).get(values, ())


def valid_continuations(
    values: Iterable[int], space: FunctionSpace
) -> frozenset[int]:
    return frozenset(g.continuation for g in matching_generators(values, space))


def valid_explanations(
    values: Iterable[int], space: FunctionSpace
) -> tuple[ConcreteFunction, ...]:
    return tuple(dict.fromkeys(g.function for g in matching_generators(values, space)))


def continuations_of(
    fn: FunctionLike, values: Iterable[int], space: FunctionSpace
) -> frozenset[int]:
    """Continuations ``fn`` assigns to the prefix, over the offsets of the
    space's convention at which its values can be read: the execution check
    of a (function, completion) pair. ``fn`` may lie outside the space (say,
    parsed from an answer); :meth:`FunctionSpace.sequence` reads it either way."""
    values = tuple(values)
    out = set()
    for offset in space.convention.offsets:
        try:
            seq = space.sequence(fn, offset, len(values) + 1)
        except EvaluationError:
            continue
        if seq[:-1] == values:
            out.add(seq[-1])
    return frozenset(out)


# ---------------------------------------------------------------------------
# Serialization (line-oriented JSON; header first, then one record per line)
# ---------------------------------------------------------------------------

def canonical_json(data: Any) -> str:
    """The one JSON writer of artifacts and digests: sorted keys, no spaces."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def check_fields(record: Any) -> None:
    """Check each field of the dataclass ``record`` against its annotation:
    ``int`` (never a ``bool``), ``str``, ``X | None``, ``tuple[X, ...]`` or
    ``tuple[X, Y]``. A list, as JSON reads a tuple, is checked and kept as
    that tuple; a mistyped value is a ``TypeError`` naming its field."""
    for name, annotation, fits in _field_checks(type(record)):
        value = getattr(record, name)
        checked = tuple(value) if isinstance(value, list) else value
        if not fits(checked):
            raise TypeError(f"{name} must be {annotation}, got {value!r}")
        if checked is not value:
            object.__setattr__(record, name, checked)


@lru_cache(maxsize=None)  # one entry per record class: resolving is slow
def _field_checks(cls: type) -> tuple[tuple[str, Any, Callable[[Any], bool]], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, f.type, _type_test(hints[f.name])) for f in fields(cls))


def _type_test(hint: Any) -> Callable[[Any], bool]:
    """The test of whether a value has the type ``hint``, built once per field
    (a dataset load runs it on every record and generator)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        tests = [_type_test(arg) for arg in args]
        return lambda value: any(test(value) for test in tests)
    if origin is tuple and args[-1] is Ellipsis:
        item = _type_test(args[0])
        return lambda value: type(value) is tuple and all(map(item, value))
    if origin is tuple:
        tests = [_type_test(arg) for arg in args]
        return lambda value: (
            type(value) is tuple
            and len(value) == len(tests)
            and all(test(v) for test, v in zip(tests, value))
        )
    # a class admits no subclass: ``int`` refuses a ``bool``
    return lambda value: type(value) is hint


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: into a temporary file
    in the same directory, unique to this writer, then renamed over ``path``.
    A write that fails part way leaves the previous file, or none."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{uuid.uuid4().hex}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(
    dataset: Dataset, path: str | Path, config_digest: str | None = None
) -> None:
    """Write ``dataset`` to ``path`` whole: a header (format, version, the
    fields of its :class:`DatasetParameters` and, if given, the digest of the
    config it was mined for), then one line per record in value order."""
    header: dict[str, Any] = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "parameters": asdict(dataset.parameters),
    }
    if config_digest is not None:
        header["config_digest"] = config_digest
    lines = [canonical_json(header)]
    for record in sorted(dataset.records(), key=lambda r: r.sequence.values):
        lines.append(
            canonical_json(
                {
                    "values": list(record.sequence.values),
                    "base": record.sequence.base,
                    "ambiguous": record.is_ambiguous,
                    "generators": [
                        {
                            "function": g.function.text,
                            "offset": g.offset,
                            "continuation": g.continuation,
                        }
                        for g in record.generators
                    ],
                }
            )
        )
    write_atomic(path, "\n".join(lines) + "\n")


def utf8_lines(path: Path, data: bytes) -> list[str]:
    """The bytes ``data`` of the line file at ``path``, split on ``"\\n"`` alone
    (so no other break in a damaged line moves a line number); the last item
    follows the last newline. A byte that is not UTF-8 is a ``ValueError``
    naming the header line, or ``path:N``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        n = data.count(b"\n", 0, exc.start) + 1
        if n == 1:
            raise ValueError(f"{path}: unreadable header line ({exc})") from exc
        raise ValueError(f"{path}:{n}: malformed record line (not UTF-8)") from exc
    return text.split("\n")


def load_dataset(path: str | Path) -> Dataset:
    """The dataset :func:`save_dataset` wrote to ``path``. A file of any other
    shape is a ``ValueError`` naming it, and ``path:N`` for a record line;
    so is a last line without its newline, which a whole write never leaves.
    A record line's sequence and generators are typed by :func:`check_fields`."""
    path = Path(path)
    *lines, tail = utf8_lines(path, path.read_bytes())
    if tail:
        raise ValueError(f"{path}:{len(lines) + 1}: unterminated last line (a torn write)")
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: unreadable header line ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise ValueError(f"{path}: not a dataset file (header {lines[0][:80]!r})")
    if header.get("version") != DATASET_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {header.get('version')!r}")
    try:
        hp = header["parameters"]
        params = DatasetParameters(**{f.name: hp[f.name] for f in fields(DatasetParameters)})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed dataset header ({exc!r})") from exc
    records: list[AmbiguityRecord] = []
    for n, line in enumerate(lines[1:], start=2):
        try:
            raw = json.loads(line)
            sequence = SequenceRecord(raw["values"], raw["base"])
            gens = tuple(
                Generator(_as_concrete(g["function"]), g["offset"], g["continuation"])
                for g in raw["generators"]
            )
            for part in (sequence, *gens):
                check_fields(part)
            record = AmbiguityRecord(sequence, gens)
            if raw["ambiguous"] is not record.is_ambiguous:
                raise ValueError(
                    f"ambiguous must be {record.is_ambiguous}, got {raw['ambiguous']!r}"
                )
        except (KeyError, TypeError, ValueError, ParseError) as exc:
            raise ValueError(f"{path}:{n}: malformed record line ({exc!r})") from exc
        records.append(record)
    return Dataset.from_records(records, params)


@lru_cache(maxsize=4096)  # a dataset repeats each function text across its records
def _as_concrete(text: str) -> ConcreteFunction:
    fn = parse(text)
    if not isinstance(fn, ConcreteFunction):
        raise ValueError(f"dataset function is not a template instance: {text!r}")
    return fn
