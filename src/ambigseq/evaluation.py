"""Per-answer records and scoring.

Turns raw model text into typed, validated records, marks answers on
unambiguous sequences correct or incorrect, and supplies the analysis's
scoring primitives: verbalization precision/recall, the expected
consistency of a random-but-valid answerer (closed form and Monte Carlo,
both from one pass over the records given), and the key-wise mean of
per-run figures. Aggregating result lines into per-run figures is
:mod:`ambigseq.analysis`; a run's figures stay plain dicts from there to
``analysis.json``. The execution check of a completion/explanation pair is
:func:`ambigseq.mining.continuations_of`, which the oracle's judgments and
the analysis both call.

A record is the answer alone. A results line is its query's
:func:`ambigseq.campaign._plan_half`, then the answer's four
fields that :func:`eval_record_to_json` writes, then the backend's capture:
:func:`ambigseq.campaign._result_line` joins them.

Each task's answer format is one entry of :data:`ambigseq.prompting.ANSWERS`,
and this module holds none: it reads answers through the entry, applies its
type test and records each value as the entry encodes it.

Conventions: accuracy, validity, and consistency figures are percentages in
[0, 100]; verbalization precision/recall are fractions in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random
from statistics import fmean
from typing import Iterable, Sequence

from .funcspace import FunctionLike
from .mining import AmbiguityRecord
from .prompting import ANSWERS, MAX_VERBALIZED_ALTERNATIVES, Task, parse_response

# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class EvalRecord:
    """One scored response to one task query."""

    task: Task
    raw_response: str
    parsed: int | FunctionLike | bool | tuple[int, ...] | None
    valid: bool
    correct: bool | None = None

    def __post_init__(self) -> None:
        if self.valid == (self.parsed is None):
            raise ValueError("valid must mean exactly: parsed is present")
        if not self.valid and self.correct is not None:
            raise ValueError("an invalid record cannot be scored correct/incorrect")
        if self.parsed is not None and not ANSWERS[self.task].fits(self.parsed):
            raise ValueError(
                f"parsed value {self.parsed!r} does not fit task {self.task.value}"
            )


def build_eval_record(task: Task, raw_response: str, base: int) -> EvalRecord:
    """The answer ``raw_response`` to a ``task`` query, its numbers read in
    ``base``; not yet scored."""
    parsed = parse_response(task, raw_response, base)
    return EvalRecord(task, raw_response, parsed, valid=parsed is not None)


def eval_record_to_json(record: EvalRecord) -> dict:
    """The answer's fields of its results line."""
    return {
        "raw_response": record.raw_response,
        "parsed": ANSWERS[record.task].recorded(record.parsed),
        "valid": record.valid,
        "correct": record.correct,
    }


# ---------------------------------------------------------------------------
# correctness


def annotate_correctness(
    record: EvalRecord, ds_record: AmbiguityRecord
) -> EvalRecord:
    """Fill in ``correct`` for a valid completion/explanation record on an
    unambiguous sequence; any other record is returned untouched."""
    if (
        record.task in (Task.COMPLETION, Task.EXPLANATION)
        and record.valid
        and not ds_record.is_ambiguous
    ):
        return replace(record, correct=_is_correct(record, ds_record))
    return record


def _is_correct(record: EvalRecord, ds_record: AmbiguityRecord) -> bool:
    if record.task is Task.COMPLETION:
        (answer,) = ds_record.continuations
        return record.parsed == answer
    # exact template-form match: equality holds iff the canonical texts match
    return record.parsed in ds_record.functions


# ---------------------------------------------------------------------------
# expected consistency of a random-but-valid answerer


def _consistency_table(record: AmbiguityRecord) -> tuple[tuple[bool, ...], ...]:
    """Row i, column j: whether the record's continuation j (ascending)
    follows from its function i (in :attr:`AmbiguityRecord.functions` order)."""
    pairs = {(g.function, g.continuation) for g in record.generators}
    continuations = record.continuations
    return tuple(
        tuple((fn, value) in pairs for value in continuations)
        for fn in record.functions
    )


def expected_random_consistency(
    p_expl: float,
    p_compl: float,
    records: Sequence[AmbiguityRecord],
    *,
    n_samples: int,
    rng_seed: int,
) -> tuple[float, float]:
    """(closed form, Monte Carlo): the consistency (percent) expected from
    answers sampled at given validity on ``records``.

    With probability ``p_expl`` (percent) the explanation is a uniform draw
    over the sequence's generating functions, otherwise a non-generating one;
    likewise ``p_compl`` for the completion over valid continuations versus a
    wrong value. A wrong explanation cannot generate the sequence and a wrong
    completion lies outside every generator's continuation set, so both wrong
    branches score inconsistent by construction; the Monte Carlo sampler
    scores them as such without materializing the wrong draw. The closed
    form is the exact expectation

        (p_expl/100) * (p_compl/100) * mean_seq mean_fn |cont(fn)| / |C|

    which cross-validates the sampled estimate. One pass over ``records``
    builds each record's consistency table once and reads it for both.

    Only the Monte Carlo estimate draws random numbers: it is a fixed
    function of one ``Random(rng_seed)`` stream, which the figures in
    ``analysis.json`` depend on. Records are visited in the order given,
    ``n_samples`` samples each. A sample draws ``random()`` for the
    explanation and then ``random()`` for the completion, both always. Only
    when both fall below their thresholds does it draw a function index and
    then a continuation index, each as ``Random.choice`` does:
    ``getrandbits(n.bit_length())``, redrawn while it is ``n`` or more.
    Functions are in :attr:`AmbiguityRecord.functions` order and
    continuations ascending.
    """
    if not 0.0 <= p_expl <= 100.0 or not 0.0 <= p_compl <= 100.0:
        raise ValueError("probabilities are percentages in [0, 100]")
    if not records:
        raise ValueError("no records to estimate over")

    rng = Random(rng_seed)
    random, getrandbits = rng.random, rng.getrandbits
    expl_threshold, compl_threshold = p_expl / 100.0, p_compl / 100.0
    row_means, per_record_rates = [], []
    for record in records:
        table = _consistency_table(record)
        row_means.append(fmean(sum(row) / len(row) for row in table))
        n_fn, n_cont = len(table), len(table[0])
        fn_bits, cont_bits = n_fn.bit_length(), n_cont.bit_length()
        hits = 0
        for _ in range(n_samples):
            expl_ok = random() < expl_threshold
            if random() < compl_threshold and expl_ok:
                i = getrandbits(fn_bits)
                while i >= n_fn:
                    i = getrandbits(fn_bits)
                j = getrandbits(cont_bits)
                while j >= n_cont:
                    j = getrandbits(cont_bits)
                hits += table[i][j]
        per_record_rates.append(hits / n_samples)
    closed_form = expl_threshold * compl_threshold * fmean(row_means) * 100.0
    return closed_form, 100.0 * fmean(per_record_rates)


# ---------------------------------------------------------------------------
# verbalized alternatives


def verbalization_scores(
    answers: Iterable[int],
    valid_set: Iterable[int],
) -> tuple[float, float]:
    """(precision, recall) of verbalized alternatives against the valid set.

    Duplicates collapse before scoring and at most five distinct alternatives
    count. An empty answer list scores (0, 0).
    """
    valid = frozenset(valid_set)
    if not valid:
        raise ValueError("the valid set cannot be empty")
    kept: list[int] = []
    for value in answers:
        if value not in kept:
            kept.append(value)
    kept = kept[:MAX_VERBALIZED_ALTERNATIVES]
    if not kept:
        return 0.0, 0.0
    overlap = len(valid.intersection(kept))
    return overlap / len(kept), overlap / len(valid)


# ---------------------------------------------------------------------------
# aggregation


def aggregate_runs(per_run: Sequence[dict]) -> dict:
    """Key-wise mean of per-run figure dicts, plus ``n_runs``; a figure that
    is None in every run stays None."""
    if not per_run:
        raise ValueError("need at least one run to aggregate")

    def mean_of(name: str) -> float | None:
        values = [v for run in per_run if (v := run[name]) is not None]
        return fmean(values) if values else None

    return {**{name: mean_of(name) for name in per_run[0]}, "n_runs": len(per_run)}
