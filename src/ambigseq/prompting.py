"""Prompt construction: system prompt, few-shot demonstrations, task blocks,
and the answer text of every task.

Every prompt is assembled the same way: a system prompt enumerating the
function space, then zero or more demonstration blocks, then the test block.
A block always opens with ``For the sequence: <numerals>`` followed by the
task's instruction lines; demonstration blocks additionally carry the answer.
Rendering is deterministic: the same spec and target always produce the same
text, byte for byte.

``_query_block`` is the one writer of query text, for demonstration and test
blocks alike; a consistency judgment's pair arrives as values (a function
and a completion) and is rendered there. Each task's answer format is one
entry of :data:`ANSWERS`: its writer, for the demonstrations here and the
synthetic backends, its reader, for every scored answer, and how a results
line records the value read.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Sequence

from .distribution import parse_numeral_token
from .funcspace import (
    BASES,
    ConcreteFunction,
    EvaluationError,
    FunctionLike,
    FunctionSpace,
    ParseError,
    ParsedFunction,
    TemplateKind,
    parse,
    render_function,
)
from .mining import (
    SequenceRecord,
    continuations_of,
    format_int,
    valid_continuations,
    valid_explanations,
)


#: A consistency judgment's pair under test: (explanation, completion value).
JudgedPair = tuple[FunctionLike, int]


class PromptingError(ValueError):
    """Raised when a prompt cannot be built as specified."""


class Task(Enum):
    COMPLETION = "completion"
    EXPLANATION = "explanation"
    CONSISTENCY_JUDGMENT = "consistency_judgment"
    VERBALIZE_ALTERNATIVES = "verbalize_alternatives"


class Variant(Enum):
    PLAIN = "plain"
    RANDOM = "random"
    SELF_CONSISTENT = "self_consistent"
    MOST_LIKELY = "most_likely"


class ShotSampling(Enum):
    RANDOM = "random"
    SAME_CLASS = "same_class"
    EXCLUDE_CLASS = "exclude_class"


DEFAULT_N_SHOTS = {
    Task.COMPLETION: 8,
    Task.EXPLANATION: 6,
    Task.CONSISTENCY_JUDGMENT: 6,
    Task.VERBALIZE_ALTERNATIVES: 2,
}

#: Number-format instruction shared by the completion-style tasks.
NUMBER_FORMAT_LINE = (
    "Give the response as a number (with a base prefix if appropriate), "
    "with no additional commentary."
)

_EXPLANATION_TAIL = (
    "Assume the first number was generated by f(0), the second by f(1), and so on.\n"
    "The function should output numbers in the same representation as the sequence.\n"
    "Give the response in the format:\n"
    "Explanation: <function>"
)

COMPLETION_INSTRUCTIONS = {
    Variant.PLAIN: (
        "Complete the next number and only the next number.\n" + NUMBER_FORMAT_LINE
    ),
    Variant.RANDOM: (
        "Choose a continuation of the following sequence.\n"
        "Assume the sequence is generated by some deterministic function.\n"
        "If multiple functions could generate the sequence, "
        "choose the corresponding continuation randomly."
    ),
    Variant.SELF_CONSISTENT: (
        "Choose a continuation of the following sequence.\n"
        "Note that you will be separately asked to choose a function "
        "which generated the sequence.\n"
        "Please choose a continuation which is consistent with the function "
        "you will choose.\n" + NUMBER_FORMAT_LINE
    ),
    Variant.MOST_LIKELY: (
        "What is the most likely continuation of the following sequence?\n"
        + NUMBER_FORMAT_LINE
    ),
}

EXPLANATION_INSTRUCTIONS = {
    Variant.PLAIN: (
        "Give a function which generates the following sequence.\n"
        + _EXPLANATION_TAIL
    ),
    Variant.RANDOM: (
        "Pick a function which generates the following sequence.\n"
        "If there are multiple possible functions, choose randomly.\n"
        + _EXPLANATION_TAIL
    ),
    Variant.SELF_CONSISTENT: (
        "Choose a function which generates the following sequence.\n"
        "Note that you will be separately asked to choose a continuation "
        "of the sequence.\n"
        "Please choose a function which is consistent with the continuation "
        "you will choose.\n" + _EXPLANATION_TAIL
    ),
    Variant.MOST_LIKELY: (
        "What is the most likely function which generated the following sequence?\n"
        "Assume the first number was generated by f(0), the second by f(1), "
        "the third by f(2), and so on.\n"
        "The function should output the number in the same representation "
        "as the sequence.\n"
        "Give the response in the format:\n"
        "Explanation: <function>"
    ),
}

AFFIRMATIVE_VERDICT = "consistent"
NEGATIVE_VERDICT = "inconsistent"

JUDGMENT_INSTRUCTION = (
    "State whether the explanation and continuation are consistent "
    "with one another.\n"
    f"Give the response as either '{AFFIRMATIVE_VERDICT}' or '{NEGATIVE_VERDICT}', "
    "with no additional commentary."
)

VERBALIZE_DEMO_INSTRUCTION = (
    "Complete the next possible number.\n"
    "Consider up to 5 possible and valid answers separated by escape character "
    "'\\n', as determined by you, {model_name}."
)

VERBALIZE_TEST_INSTRUCTION = (
    "Complete the next number and only the next number.\n"
    "Consider up to 5 possible and valid answers separated by escape character "
    "'\\n', as determined by you, {model_name}."
)

VERBALIZE_SEPARATOR = " \\n "

SYSTEM_INTRO = (
    "Every sequence you are shown was generated by one of the following "
    "Python lambda functions:"
)

OFFSET_NOTE = (
    "Sequences are not always 0 indexed , "
    "they may be offset by an arbitrary i-index value."
)

#: Cap on how many alternatives a verbalization answer may list.
MAX_VERBALIZED_ALTERNATIVES = 5


def build_system_prompt(
    space: FunctionSpace, base: int = 10, role_text: str | None = None
) -> str:
    """The context-level prompt: intro, the full function space, offset note."""
    lines: list[str] = []
    if role_text:
        lines.append(role_text)
        lines.append("")
    lines.append(SYSTEM_INTRO)
    lines.extend(space.texts(base))
    lines.append(OFFSET_NOTE)
    return "\n".join(lines)


@lru_cache(maxsize=16)
def _system_prompt(space: FunctionSpace, base: int, role_text: str | None) -> str:
    """build_system_prompt, rendered once per (space, base, role_text): every
    query of a campaign shares it."""
    return build_system_prompt(space, base, role_text)


@dataclass(frozen=True)
class PromptSpec:
    """Everything that determines how a prompt is rendered for one target."""

    task: Task
    variant: Variant = Variant.PLAIN
    base: int = 10
    n_shots: int | None = None  # None = task default
    shot_sampling: ShotSampling = ShotSampling.RANDOM
    rng_seed: int = 0
    role_text: str | None = None
    model_name: str | None = None

    def __post_init__(self) -> None:
        if self.n_shots is not None and self.n_shots < 0:
            raise ValueError(f"n_shots must be >= 0, got {self.n_shots}")
        if self.base not in BASES:
            raise ValueError(f"unsupported base: {self.base}")

    @property
    def resolved_n_shots(self) -> int:
        return DEFAULT_N_SHOTS[self.task] if self.n_shots is None else self.n_shots


@dataclass(frozen=True)
class RenderedPrompt:
    """A fully rendered prompt, split into the parts chat backends need."""

    task: Task
    system: str
    demonstrations: tuple[tuple[str, str], ...]
    test_query: str
    target: SequenceRecord
    rng_seed: int
    judged: JudgedPair | None = None

    def user_text(self) -> str:
        blocks = [f"{q}\n{a}" for q, a in self.demonstrations]
        blocks.append(self.test_query)
        return "\n\n".join(blocks)

    def full_text(self) -> str:
        return f"{self.system}\n\n{self.user_text()}"


def sample_few_shot(
    space: FunctionSpace,
    k: int,
    mode: ShotSampling,
    target_kinds: frozenset[TemplateKind],
    rng: random.Random,
) -> list[ConcreteFunction]:
    """Draw k distinct demonstration functions from the space.

    ``same_class`` restricts the pool to the target's template classes,
    ``exclude_class`` to everything else; both need a non-empty target class
    set. Raises :class:`PromptingError` when the pool is too small.
    """
    if mode is ShotSampling.RANDOM:
        pool = list(space.functions)
    else:
        if not target_kinds:
            raise PromptingError(
                f"{mode.value} sampling needs a target with known generator classes"
            )
        if mode is ShotSampling.SAME_CLASS:
            pool = [f for f in space if f.kind in target_kinds]
        else:
            pool = [f for f in space if f.kind not in target_kinds]
    if k > len(pool):
        raise PromptingError(
            f"cannot draw {k} demonstrations from a pool of {len(pool)} "
            f"({mode.value})"
        )
    return rng.sample(pool, k)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_explanation(text: str, base: int) -> FunctionLike | None:
    """A function answer, with or without the ``Explanation:`` marker;
    :func:`parse` reads a base-2 function's ``bin(...)`` wrapper itself."""
    body = text.strip()
    if body.lower().startswith("explanation:"):
        body = body[len("explanation:"):].strip()
    try:
        return parse(body)
    except ParseError:
        return None


_VERDICTS = {AFFIRMATIVE_VERDICT: True, NEGATIVE_VERDICT: False}


def _read_verdict(text: str, base: int) -> bool | None:
    """True or False by the leading verdict word; None when none leads.

    The judgment instruction demands a single verdict word, so only the first
    word counts: a hedged sentence is unparseable rather than guessed at.
    """
    word = re.search(r"[a-z]+", text.lower())
    return _VERDICTS.get(word[0]) if word else None


def _read_alternatives(text: str, base: int) -> tuple[int, ...] | None:
    """Alternatives separated by '\\n' escapes or newlines. Every non-empty
    segment must be a numeral, or the whole answer is invalid; an empty
    answer offers no alternatives, which is a valid, scoreable answer."""
    values = [
        parse_numeral_token(segment, base)
        for segment in re.split(r"\\n|\n", text)
        if segment.strip()
    ]
    return None if None in values else tuple(values)


def _write_alternatives(values: Sequence[int], base: int) -> str:
    kept = values[:MAX_VERBALIZED_ALTERNATIVES]
    return VERBALIZE_SEPARATOR.join(format_int(v, base) for v in kept) + " \\n"


_INVALID_RECORD = {"kind": "invalid"}


@dataclass(frozen=True)
class AnswerFormat:
    """One task's answer: its text written from a value, the value read back
    (None when the text is invalid), and how a results line records a value:
    the ``kind`` it is tagged with, the type test it passes and its
    encoding."""

    write: Callable[[Any, int], str]
    read: Callable[[str, int], Any]
    kind: str
    fits: Callable[[Any], bool]
    encode: Callable[[Any], Any] = lambda value: value

    def recorded(self, value: Any) -> dict:
        """The ``parsed`` field of a results line for a value read (or None)."""
        if value is None:
            return dict(_INVALID_RECORD)
        return {"kind": self.kind, "value": self.encode(value)}


#: The answer format of every task: a numeral (completion), a function
#: (explanation), a verdict, true when the judged pair is consistent
#: (judgment), or the first alternatives of a sorted list (verbalized
#: alternatives). A results line records a function as its base-10 text.
ANSWERS: dict[Task, AnswerFormat] = {
    Task.COMPLETION: AnswerFormat(
        write=format_int, read=parse_numeral_token, kind="int", fits=_is_int
    ),
    Task.EXPLANATION: AnswerFormat(
        write=lambda fn, base: f"Explanation: {render_function(fn, base)}",
        read=_read_explanation,
        kind="function",
        fits=lambda fn: isinstance(fn, (ConcreteFunction, ParsedFunction)),
        encode=lambda fn: render_function(fn, 10),
    ),
    Task.CONSISTENCY_JUDGMENT: AnswerFormat(
        write=lambda consistent, base: AFFIRMATIVE_VERDICT if consistent else NEGATIVE_VERDICT,
        read=_read_verdict,
        kind="bool",
        fits=lambda verdict: isinstance(verdict, bool),
    ),
    Task.VERBALIZE_ALTERNATIVES: AnswerFormat(
        write=_write_alternatives,
        read=_read_alternatives,
        kind="ints",
        fits=lambda values: isinstance(values, tuple) and all(map(_is_int, values)),
        encode=list,
    ),
}


def render_answer(
    task: Task, value: int | FunctionLike | bool | Sequence[int], base: int
) -> str:
    """The answer text of a task's value, as :data:`ANSWERS` writes it."""
    return ANSWERS[task].write(value, base)


def parse_response(task: Task, text: str, base: int = 10) -> Any:
    """The value a task's answer text was written from; None means invalid."""
    return ANSWERS[task].read(text, base)


def _query_block(
    spec: PromptSpec, seq: SequenceRecord, judged: JudgedPair | None, demo: bool
) -> str:
    """The query text of one block, demonstration or test: the sequence line,
    a judgment's pair under test, then the task's instruction. The two kinds
    of block differ only in the verbalization instruction."""
    lines = [f"For the sequence: {seq.render()}"]
    if spec.task is Task.COMPLETION:
        lines.append(COMPLETION_INSTRUCTIONS[spec.variant])
    elif spec.task is Task.EXPLANATION:
        lines.append(EXPLANATION_INSTRUCTIONS[spec.variant])
    elif spec.task is Task.CONSISTENCY_JUDGMENT:
        if judged is None:
            raise PromptingError(
                "consistency judgments need a judged (function, completion) pair"
            )
        fn, completion = judged
        lines.append(f"Explanation: {render_function(fn, seq.base)}")
        lines.append(f"Continuation: {format_int(completion, seq.base)}")
        lines.append(JUDGMENT_INSTRUCTION)
    elif spec.task is Task.VERBALIZE_ALTERNATIVES:
        instruction = VERBALIZE_DEMO_INSTRUCTION if demo else VERBALIZE_TEST_INSTRUCTION
        if spec.model_name is not None:
            instruction = instruction.replace("{model_name}", spec.model_name)
        lines.append(instruction)
    else:
        raise PromptingError(f"unknown task: {spec.task!r}")
    return "\n".join(lines)


def build_prompt(
    spec: PromptSpec,
    target: SequenceRecord,
    space: FunctionSpace,
    judged: JudgedPair | None = None,
) -> RenderedPrompt:
    """Render the prompt for one target sequence.

    Class-based shot sampling reads the target's template classes from the
    functions that generate it, :func:`valid_explanations` over the space's
    prefix index (the index :func:`mining.mine` builds its records from).
    Consistency judgments additionally need ``judged``, the (explanation
    function, completion value) pair under test.
    """
    if target.base != spec.base:
        target = target.rebase(spec.base)
    rng = random.Random(spec.rng_seed)
    system = _system_prompt(space, spec.base, spec.role_text)

    target_kinds: frozenset[TemplateKind] = frozenset()
    if spec.shot_sampling is not ShotSampling.RANDOM:
        target_kinds = frozenset(
            f.kind for f in valid_explanations(target.values, space)
        )

    shots = sample_few_shot(
        space, spec.resolved_n_shots, spec.shot_sampling, target_kinds, rng
    )

    demos: list[tuple[str, str]] = []
    for i, fn in enumerate(shots):
        demos.append(
            _build_demo(spec, fn, target.length, space, rng, flip=i % 2 == 1)
        )

    return RenderedPrompt(
        task=spec.task,
        system=system,
        demonstrations=tuple(demos),
        test_query=_query_block(spec, target, judged, demo=False),
        target=target,
        rng_seed=spec.rng_seed,
        judged=judged,
    )


def _build_demo(
    spec: PromptSpec,
    fn: ConcreteFunction,
    length: int,
    space: FunctionSpace,
    rng: random.Random,
    flip: bool,
) -> tuple[str, str]:
    for _ in range(50):
        offset = rng.randrange(space.convention.max_offset + 1)
        try:
            *values, continuation = space.sequence(fn, offset, length + 1)
        except EvaluationError:
            continue
        break
    else:
        raise PromptingError(f"could not generate a demonstration from {fn.text}")
    seq = SequenceRecord(tuple(values), spec.base)

    judged = None
    if spec.task is Task.COMPLETION:
        answer = continuation
    elif spec.task is Task.EXPLANATION:
        answer = fn
    elif spec.task is Task.CONSISTENCY_JUDGMENT:
        # alternate consistent and inconsistent examples
        shown = continuation
        if flip:
            own = continuations_of(fn, seq.values, space)
            while shown in own:
                shown += 1
        judged = (fn, shown)
        answer = not flip
    elif spec.task is Task.VERBALIZE_ALTERNATIVES:
        answer = sorted(valid_continuations(seq.values, space))
    else:
        raise PromptingError(f"unknown task: {spec.task!r}")
    query = _query_block(spec, seq, judged, demo=True)
    return query, render_answer(spec.task, answer, spec.base)
