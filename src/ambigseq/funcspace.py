"""Restricted lambda-function space: templates, parsing, evaluation, enumeration.

The space consists of eight single-variable integer function templates, each
instantiated with two small nonnegative constants. Functions are written in
Python lambda syntax, and the surface syntax accepted by :func:`parse` is
exactly the language these templates inhabit: the binary operators
``+ * ** | %`` over nonnegative integer literals and one variable, plus two
fixed special forms (a filtered-list indexing comprehension and a recursive
combinator) and an optional ``bin(...)`` wrapper for base-2 output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Union


class FuncspaceError(Exception):
    """Base class for function-space errors."""


class ParseError(FuncspaceError):
    """Raised when text is not a well-formed function in the restricted language."""


class EvaluationError(FuncspaceError):
    """Raised when a function cannot be evaluated at a given index."""


class TemplateKind(Enum):
    ARITHMETIC = "arithmetic"
    GEOMETRIC = "geometric"
    EXPONENTIAL = "exponential"
    POWER = "power"
    BIT_OR = "bit_or"
    MODULAR = "modular"
    INDEXING_CRITERIA = "indexing_criteria"
    RECURSIVE = "recursive"

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"TemplateKind.{self.name}"


#: Canonical surface form of each template, with {0}/{1} constant slots.
TEMPLATE_TEXTS: dict[TemplateKind, str] = {
    TemplateKind.ARITHMETIC: "lambda x: ({0} * x) + {1}",
    TemplateKind.GEOMETRIC: "lambda x: ({0} * x) * {1}",
    TemplateKind.EXPONENTIAL: "lambda x: ({0} * x) ** {1}",
    TemplateKind.POWER: "lambda x: {0} ** ({1} * x)",
    TemplateKind.BIT_OR: "lambda x: ({0} * x) | {1}",
    TemplateKind.MODULAR: "lambda x: (x * {0}) % ({1}+1)",
    TemplateKind.INDEXING_CRITERIA: (
        "lambda x: [i for i in range(100) if i % ({0} + 1) or i % ({1} + 1)][x]"
    ),
    TemplateKind.RECURSIVE: (
        "(lambda a: lambda v: a(a,v))"
        "(lambda fn,x: 1 if x==0 else {0} * x * fn(fn,x-1) + {1})"
    ),
}

#: Template enumeration order (also the sort order for generators, reports, ...).
TEMPLATE_ORDER: tuple[TemplateKind, ...] = tuple(TEMPLATE_TEXTS)

DEFAULT_CONSTANT_RANGE: tuple[int, int] = (0, 4)

#: Largest magnitude a valid function may produce at a probed index.  Chosen to
#: match a signed 64-bit integer pipeline; see enumerate_space().
DEFAULT_MAX_VALUE: int = 2**63 - 1

#: Longest sequence length whose indices :func:`enumerate_space` probes.
PROBE_LENGTH = 5

#: Deepest expression :func:`parse` accepts, counting each operator and each
#: pair of parentheses as a level. Templates nest three levels; far deeper
#: text (an answer, not a template) would exhaust the interpreter's stack in
#: parsing, rendering or evaluation.
MAX_PARSE_DEPTH: int = 100

#: Bit-length bound on ``a ** b``, checked as ``b * a.bit_length()`` before
#: computing: far above any template value (POWER 19, 19 at index 12 has
#: about 1,140 bits), far below a power tower such as ``9 ** 9 ** 9 ** x``,
#: whose value at x = 2 has more bits than any memory holds.
MAX_POWER_BITS: int = 1 << 16

#: Most digits a numeral may have: an integer literal in :func:`parse`, and a
#: numeral in an answer (``distribution.parse_numeral_token``). It is Python's
#: default limit on integer-string conversion, so every accepted value
#: converts to and from decimal text, the results file's JSON included; a
#: longer numeral makes its answer invalid.
MAX_NUMERAL_DIGITS: int = 4300

#: The bases a sequence's numerals, and the functions shown with it, may be
#: written in: decimal, and binary with a ``0b`` prefix.
BASES: tuple[int, ...] = (10, 2)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    """The single bound variable of the lambda."""


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + * ** | %
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class FilteredIndex:
    """``[i for i in range(100) if i % (c1+1) or i % (c2+1)][x]``"""

    c1: int
    c2: int


@dataclass(frozen=True)
class Recursive:
    """Factorial-style recursion: f(0)=1, f(x) = c1 * x * f(x-1) + c2."""

    c1: int
    c2: int


Expr = Union[Lit, Var, BinOp, FilteredIndex, Recursive]

# precedence: | < + < * % < ** (right-associative)
_PRECEDENCE = {"|": 1, "+": 2, "*": 3, "%": 3, "**": 4}
_RIGHT_ASSOC = {"**"}


@dataclass(frozen=True)
class ConcreteFunction:
    """A template instantiated with concrete constants.

    ``text`` is the canonical surface form; two ConcreteFunctions are equal
    iff they are the same template with the same constants.
    """

    kind: TemplateKind
    c1: int
    c2: int

    @property
    def text(self) -> str:
        return TEMPLATE_TEXTS[self.kind].format(self.c1, self.c2)

    @property
    def ast(self) -> Expr:
        return _template_ast(self.kind, self.c1, self.c2)

    def sort_key(self) -> tuple[int, int, int]:
        return (TEMPLATE_ORDER.index(self.kind), self.c1, self.c2)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class ParsedFunction:
    """A well-formed function that does not match any template shape.

    Its AST holds only ``Lit``, ``Var`` and ``BinOp`` nodes: :func:`parse`
    turns either special form into a :class:`ConcreteFunction`."""

    ast: Expr

    @property
    def text(self) -> str:
        return "lambda x: " + _render_expr(self.ast)

    def __str__(self) -> str:
        return self.text


FunctionLike = Union[ConcreteFunction, ParsedFunction]


@lru_cache(maxsize=4096)
def _template_ast(kind: TemplateKind, c1: int, c2: int) -> Expr:
    x = Var()
    if kind is TemplateKind.ARITHMETIC:
        return BinOp("+", BinOp("*", Lit(c1), x), Lit(c2))
    if kind is TemplateKind.GEOMETRIC:
        return BinOp("*", BinOp("*", Lit(c1), x), Lit(c2))
    if kind is TemplateKind.EXPONENTIAL:
        return BinOp("**", BinOp("*", Lit(c1), x), Lit(c2))
    if kind is TemplateKind.POWER:
        return BinOp("**", Lit(c1), BinOp("*", Lit(c2), x))
    if kind is TemplateKind.BIT_OR:
        return BinOp("|", BinOp("*", Lit(c1), x), Lit(c2))
    if kind is TemplateKind.MODULAR:
        return BinOp("%", BinOp("*", x, Lit(c1)), BinOp("+", Lit(c2), Lit(1)))
    if kind is TemplateKind.INDEXING_CRITERIA:
        return FilteredIndex(c1, c2)
    if kind is TemplateKind.RECURSIVE:
        return Recursive(c1, c2)
    raise ValueError(f"unknown template kind: {kind!r}")


def recognize_template(ast: Expr) -> ConcreteFunction | None:
    """Match an AST against the template shapes; None if it is a free-form expr."""
    match ast:
        case BinOp("+", BinOp("*", Lit(a), Var()), Lit(b)):
            return ConcreteFunction(TemplateKind.ARITHMETIC, a, b)
        case BinOp("*", BinOp("*", Lit(a), Var()), Lit(b)):
            return ConcreteFunction(TemplateKind.GEOMETRIC, a, b)
        case BinOp("**", BinOp("*", Lit(a), Var()), Lit(b)):
            return ConcreteFunction(TemplateKind.EXPONENTIAL, a, b)
        case BinOp("**", Lit(a), BinOp("*", Lit(b), Var())):
            return ConcreteFunction(TemplateKind.POWER, a, b)
        case BinOp("|", BinOp("*", Lit(a), Var()), Lit(b)):
            return ConcreteFunction(TemplateKind.BIT_OR, a, b)
        case BinOp("%", BinOp("*", Var(), Lit(a)), BinOp("+", Lit(b), Lit(1))):
            return ConcreteFunction(TemplateKind.MODULAR, a, b)
    return None


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_expr(ast: Expr, parent_prec: int = 0, right_side: bool = False) -> str:
    match ast:
        case Lit(v):
            return str(v)
        case Var():
            return "x"
        case BinOp(op, left, right):
            prec = _PRECEDENCE[op]
            if op in _RIGHT_ASSOC:
                text = "{} {} {}".format(
                    _render_expr(left, prec + 1, False),
                    op,
                    _render_expr(right, prec, True),
                )
            else:
                text = "{} {} {}".format(
                    _render_expr(left, prec, False),
                    op,
                    _render_expr(right, prec + 1, True),
                )
            if prec < parent_prec or (prec == parent_prec and right_side):
                return f"({text})"
            return text
    raise ValueError(f"unknown AST node: {ast!r}")


def render_function(fn: FunctionLike, base: int = 10) -> str:
    """Canonical text of a function; base 2 wraps the output in ``bin(...)``."""
    if base == 10:
        return fn.text
    if base not in BASES:
        raise ValueError(f"unsupported base: {base}")
    if isinstance(fn, ConcreteFunction) and fn.kind is TemplateKind.RECURSIVE:
        return f"lambda x: bin({fn.text}(x))"
    body = fn.text.split(":", 1)[1].strip()
    return f"lambda x: bin({body})"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|==|[+*|%()\[\]:,\-]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"illegal character at position {pos}: {text[pos]!r}")
        pos = m.end()
        if m.group("int") is not None:
            if len(m.group("int")) > MAX_NUMERAL_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_NUMERAL_DIGITS} digits")
            tokens.append(("int", m.group("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _TokenStream:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, got {tok[1]!r}")

    def expect_name(self, name: str | None = None) -> str:
        tok = self.next()
        if tok[0] != "name" or (name is not None and tok[1] != name):
            raise ParseError(f"expected identifier{'' if name is None else ' ' + name!r}, got {tok[1]!r}")
        return tok[1]

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


#: Names the language keeps for itself; none can be the lambda's variable.
_RESERVED = ("lambda", "if", "else", "for", "in", "or", "range", "bin")

# The two special forms as token shapes, read off their template texts with
# the constant slots named _0 and _1; the indexing form is its lambda's body.
_RECURSIVE_FORM = _tokenize(TEMPLATE_TEXTS[TemplateKind.RECURSIVE].format("_0", "_1"))
_INDEXING_FORM = _tokenize(
    TEMPLATE_TEXTS[TemplateKind.INDEXING_CRITERIA].format("_0", "_1").split(": ", 1)[1]
)


def _match_form(
    ts: _TokenStream, form: list[tuple[str, str]], names: dict[str, str]
) -> tuple[int, int] | None:
    """The two constants of the special form at the current position, or None
    (and the position unmoved) when the tokens do not fit it. The form's
    variables may be spelled freely but consistently; ``names`` holds those
    already bound."""
    start, constants = ts.pos, []
    for want_kind, want in form:
        kind, text = ts.peek() or ("end", "")
        ts.pos += 1
        if want in ("_0", "_1"):
            fits = kind == "int"
            constants.append(text)
        elif want_kind == "name" and want not in _RESERVED:
            fits = kind == "name" and names.setdefault(want, text) == text
        elif want_kind == "int":
            fits = kind == "int" and int(text) == int(want)
        else:
            fits = (kind, text) == (want_kind, want)
        if not fits:
            ts.pos = start
            return None
    return int(constants[0]), int(constants[1])


def _check_depth(levels: int) -> None:
    if levels > MAX_PARSE_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_PARSE_DEPTH} levels")


def _parse_expr(
    ts: _TokenStream, param: str, min_prec: int = 1, depth: int = 0
) -> tuple[Expr, int]:
    """The expression and its height in operators; ``depth`` counts the
    operators and parentheses that enclose it."""
    _check_depth(depth)
    left, height = _parse_atom(ts, param, depth)
    while True:
        tok = ts.peek()
        if tok is None or tok[0] != "op" or tok[1] not in _PRECEDENCE:
            return left, height
        op = tok[1]
        prec = _PRECEDENCE[op]
        if prec < min_prec:
            return left, height
        ts.next()
        next_prec = prec if op in _RIGHT_ASSOC else prec + 1
        right, right_height = _parse_expr(ts, param, next_prec, depth + 1)
        left, height = BinOp(op, left, right), max(height, right_height) + 1
        _check_depth(depth + height)


def _parse_atom(ts: _TokenStream, param: str, depth: int) -> tuple[Expr, int]:
    tok = ts.next()
    if tok[0] == "int":
        return Lit(int(tok[1])), 0
    if tok[0] == "name":
        if tok[1] == param:
            return Var(), 0
        raise ParseError(f"unknown name {tok[1]!r} (variable is {param!r})")
    if tok == ("op", "("):
        inner = _parse_expr(ts, param, depth=depth + 1)
        ts.expect_op(")")
        return inner
    raise ParseError(f"unexpected token {tok[1]!r}")


def parse(text: str) -> FunctionLike:
    """Parse function text, whitespace-insensitively.

    Returns a :class:`ConcreteFunction` when the expression matches a template
    shape (any nonnegative constants), otherwise a :class:`ParsedFunction`.
    Raises :class:`ParseError` for anything outside the restricted language,
    including expressions nested deeper than :data:`MAX_PARSE_DEPTH` and
    integer literals longer than :data:`MAX_NUMERAL_DIGITS`.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
    ts = _TokenStream(_tokenize(text))
    if ts.at_end():
        raise ParseError("empty input")

    constants = _match_form(ts, _RECURSIVE_FORM, {})
    if constants is not None:
        if not ts.at_end():
            raise ParseError("trailing input after recursive form")
        return ConcreteFunction(TemplateKind.RECURSIVE, *constants)

    ts.expect_name("lambda")
    param = ts.expect_name()
    if param in _RESERVED:
        raise ParseError(f"reserved word {param!r} cannot be the variable")
    ts.expect_op(":")

    wrapped = False
    nxt = ts.peek()
    if nxt == ("name", "bin"):
        ts.next()
        ts.expect_op("(")
        wrapped = True

    if ts.peek() == ("op", "["):
        constants = _match_form(ts, _INDEXING_FORM, {"x": param})
        if constants is None:
            raise ParseError("malformed filtered-list index")
        fn: FunctionLike = ConcreteFunction(TemplateKind.INDEXING_CRITERIA, *constants)
    elif (constants := _match_form(ts, _RECURSIVE_FORM, {})) is not None:
        # applied combinator inside a bin() wrapper: ...(x)
        ts.expect_op("(")
        ts.expect_name(param)
        ts.expect_op(")")
        fn = ConcreteFunction(TemplateKind.RECURSIVE, *constants)
    else:
        ast, _ = _parse_expr(ts, param)
        fn = recognize_template(ast) or ParsedFunction(ast)

    if wrapped:
        ts.expect_op(")")
    if not ts.at_end():
        raise ParseError(f"trailing input at token {ts.pos}")
    return fn


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _filtered_list(c1: int, c2: int) -> tuple[int, ...]:
    return tuple(i for i in range(100) if i % (c1 + 1) or i % (c2 + 1))


def evaluate(fn: FunctionLike | Expr, x: int) -> int:
    """Evaluate a function at index ``x`` (exact integer arithmetic).

    Raises :class:`EvaluationError` for anything that does not produce an
    integer: negative indices, out-of-range list indexing, zero modulus, a
    power past :data:`MAX_POWER_BITS`.
    """
    ast = fn.ast if isinstance(fn, (ConcreteFunction, ParsedFunction)) else fn
    if not isinstance(x, int) or isinstance(x, bool):
        raise EvaluationError(f"index must be an int, got {x!r}")
    if x < 0:
        raise EvaluationError(f"index must be nonnegative, got {x}")
    return _eval(ast, x)


def _eval(ast: Expr, x: int) -> int:
    match ast:
        case Lit(v):
            return v
        case Var():
            return x
        case BinOp(op, left, right):
            a = _eval(left, x)
            b = _eval(right, x)
            if op == "+":
                return a + b
            if op == "*":
                return a * b
            if op == "**":
                if b < 0:
                    raise EvaluationError(f"negative exponent {b}")
                if b * a.bit_length() > MAX_POWER_BITS:
                    raise EvaluationError(f"power exceeds {MAX_POWER_BITS} bits")
                return a**b
            if op == "|":
                return a | b
            if op == "%":
                if b == 0:
                    raise EvaluationError("modulo by zero")
                return a % b
            raise EvaluationError(f"unknown operator {op!r}")
        case FilteredIndex(c1, c2):
            lst = _filtered_list(c1, c2)
            if x >= len(lst):
                raise EvaluationError(
                    f"index {x} out of range for filtered list of length {len(lst)}"
                )
            return lst[x]
        case Recursive(c1, c2):
            acc = 1
            for k in range(1, x + 1):
                acc = c1 * k * acc + c2
            return acc
    raise EvaluationError(f"cannot evaluate node {ast!r}")


# ---------------------------------------------------------------------------
# Index convention
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexConvention:
    """Where sequences start and how far they may be offset.

    A sequence of length L generated at offset o reads
    ``f(start_index + o), ..., f(start_index + o + L - 1)``.
    """

    start_index: int = 1
    max_offset: int = 4

    def __post_init__(self) -> None:
        if self.start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {self.start_index}")
        if self.max_offset < 0:
            raise ValueError(f"max_offset must be >= 0, got {self.max_offset}")

    @property
    def offsets(self) -> range:
        return range(self.max_offset + 1)


DEFAULT_CONVENTION = IndexConvention()


# ---------------------------------------------------------------------------
# Space enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcludedCandidate:
    function: ConcreteFunction
    reason: str


@dataclass(frozen=True)
class FunctionSpace:
    """The enumerated space of valid template instances.

    Iterable over the valid functions, in template-enumeration order.
    ``excluded`` records candidates dropped by the validity probe and why.
    ``convention`` is the start index and offsets every query against it uses.
    Each function keeps one row of values from ``start_index`` on, read
    through :meth:`sequence`; ``enumerate_space`` fills it from the probes.
    :meth:`sequence` reads any other function's values too, unstored.
    """

    functions: tuple[ConcreteFunction, ...]
    excluded: tuple[ExcludedCandidate, ...]
    constant_range: tuple[int, int]
    probe_indices: tuple[int, ...]
    max_value: int | None
    convention: IndexConvention = DEFAULT_CONVENTION

    def __post_init__(self) -> None:
        # the rows are not a field, so eq, hash and dataclasses.replace skip them
        object.__setattr__(self, "_rows", dict.fromkeys(self.functions, ()))
        fields = (self.functions, self.excluded, self.constant_range, self.probe_indices)
        object.__setattr__(self, "_hash", hash((*fields, self.max_value, self.convention)))

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[ConcreteFunction]:
        return iter(self.functions)

    def __len__(self) -> int:
        return len(self.functions)

    def texts(self, base: int = 10) -> list[str]:
        return [render_function(f, base) for f in self.functions]

    def sequence(self, fn: FunctionLike, offset: int, length: int) -> tuple[int, ...]:
        """``fn``'s values ``f(start_index + offset), ...``: the one reader of
        any function's values. A member's are sliced from its row; a read past
        the row evaluates the rest and replaces the row whole, never in place:
        threads share it, and a racing write costs only a second evaluation.
        Any other function (parsed from an answer, an excluded candidate,
        constants outside the range) is evaluated on each read and never
        stored. A value that cannot be evaluated is an EvaluationError."""
        if offset < 0 or offset > self.convention.max_offset:
            raise ValueError(f"offset {offset} outside [0, {self.convention.max_offset}]")
        end = offset + length
        first = self.convention.start_index
        row = self._rows.get(fn)
        if row is None:
            return tuple(evaluate(fn, first + i) for i in range(offset, end))
        if len(row) < end:
            row += tuple(evaluate(fn, first + i) for i in range(len(row), end))
            self._rows[fn] = row
        return row[offset:end]


def enumerate_space(
    constant_range: tuple[int, int] = DEFAULT_CONSTANT_RANGE,
    convention: IndexConvention = DEFAULT_CONVENTION,
    max_value: int | None = DEFAULT_MAX_VALUE,
) -> FunctionSpace:
    """Enumerate every template instance and keep the ones that are usable.

    A candidate is valid iff it evaluates without error at every probe index
    ``start_index .. start_index + max_offset + PROBE_LENGTH`` and (when
    ``max_value`` is set) every probed value has magnitude at most
    ``max_value``. The probes cover the indices mining reads for lengths up to
    :data:`PROBE_LENGTH`; longer lengths read past them, where a valid function
    may exceed ``max_value``. Each valid function's probed values become its
    row in the space, so no later reader evaluates them again. No prefix
    index is built here: mining builds one per length on first use.
    """
    lo, hi = constant_range
    if lo > hi or lo < 0:
        raise ValueError(f"bad constant range: {constant_range}")
    first = convention.start_index
    last = convention.start_index + convention.max_offset + PROBE_LENGTH
    probes = tuple(range(first, last + 1))

    rows: dict[ConcreteFunction, tuple[int, ...]] = {}
    excluded: list[ExcludedCandidate] = []
    for kind in TEMPLATE_ORDER:
        for c1 in range(lo, hi + 1):
            for c2 in range(lo, hi + 1):
                fn = ConcreteFunction(kind, c1, c2)
                try:
                    rows[fn] = _probe_row(fn, probes, max_value)
                except EvaluationError as err:
                    excluded.append(ExcludedCandidate(fn, str(err)))
    space = FunctionSpace(
        functions=tuple(rows),
        excluded=tuple(excluded),
        constant_range=(lo, hi),
        probe_indices=probes,
        max_value=max_value,
        convention=convention,
    )
    space._rows.update(rows)  # the probes start at start_index, as a row does
    return space


def _probe_row(
    fn: ConcreteFunction, probes: tuple[int, ...], max_value: int | None
) -> tuple[int, ...]:
    """``fn``'s values at the probes, or an EvaluationError saying why it is invalid."""
    row = []
    for x in probes:
        try:
            v = evaluate(fn, x)
        except EvaluationError as err:
            raise EvaluationError(f"evaluation error at index {x}: {err}") from None
        if max_value is not None and abs(v) > max_value:
            raise EvaluationError(f"value at index {x} exceeds magnitude bound ({v})")
        row.append(v)
    return tuple(row)
