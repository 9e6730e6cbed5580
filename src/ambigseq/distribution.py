"""Top-k token distributions: alternative-consideration test, histograms, KL.

The alternative-consideration test asks whether a model's top-k numeral
candidates are compatible with the full set of valid continuations: every
valid continuation must be present and every correct candidate must outrank
every incorrect one; listing any incorrect numeral above (or at all, once
coverage fails) fails the test.

:class:`TokenDistribution` checks every top-logprob list: a backend's, a
scripted fixture's, a cache entry's and a results line's.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from operator import add, truediv
from typing import Iterable, Iterator, NamedTuple, Sequence

from .funcspace import MAX_NUMERAL_DIGITS

MAX_TOP_K = 5

#: The lowest logprob a top-k list may hold: far below the -9999.0 OpenAI
#: gives a token of no chance, and far above the spans (past about 3.6e17,
#: bins wider than 2**53) whose smoothed densities underflow to 0 and leave
#: the KL divergence without a value.
MIN_LOGPROB = -1e15


class TokenLogprob(NamedTuple):
    token: str
    logprob: float


@dataclass(frozen=True)
class TokenDistribution:
    """A top-k list of tokens with log probabilities, highest first: 1 to
    ``MAX_TOP_K`` entries, distinct ``str`` tokens, logprobs ``int`` or
    ``float`` (not ``bool``) within ``[MIN_LOGPROB, 0]``. Anything else is a
    ``ValueError``: this is the one check of a top-logprob list."""

    entries: tuple[TokenLogprob, ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if not 1 <= len(entries) <= MAX_TOP_K:
            raise ValueError(f"expected 1..{MAX_TOP_K} entries, got {len(entries)}")
        # one pass; a bad entry is refused before the order or a duplicate
        last, ordered = 0, True
        for t, lp in entries:
            if not (
                isinstance(t, str)
                and (type(lp) is float or type(lp) is int
                     or isinstance(lp, (int, float)) and not isinstance(lp, bool))
                and MIN_LOGPROB <= lp <= 0
            ):
                raise ValueError(f"{[t, lp]} is not a text token and a number in [{MIN_LOGPROB:g}, 0]")
            ordered = ordered and lp <= last
            last = lp
        if not ordered:
            probs = [e.logprob for e in entries]
            raise ValueError(f"entries must be sorted by descending logprob: {probs}")
        if len({t for t, _ in entries}) != len(entries):
            raise ValueError(f"duplicate tokens in distribution: {[e.token for e in entries]}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, float]]) -> "TokenDistribution":
        """The distribution of ``[(token, logprob), ...]``; a non-pair is a
        ``ValueError`` too."""
        try:
            # tuple.__new__ builds each entry as TokenLogprob(t, lp) does, in C
            entries = tuple([tuple.__new__(TokenLogprob, (t, lp)) for t, lp in pairs])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"not a list of [token, logprob] pairs ({exc})") from exc
        return cls(entries)

    def __iter__(self) -> Iterator[TokenLogprob]:
        """The entries, highest first: a distribution is a top-k list of
        (token, logprob) pairs wherever one is read."""
        return iter(self.entries)

    def to_pairs(self) -> list[list]:
        """The entries as JSON ``[[token, logprob], ...]``."""
        return [[e.token, e.logprob] for e in self.entries]


# ---------------------------------------------------------------------------
# Numeral interpretation of tokens
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)  # a campaign's answers repeat a few numerals
def parse_numeral_token(token: str, base: int = 10) -> int | None:
    """Interpret a token as a nonnegative numeral in the given base, if possible;
    None past :data:`~ambigseq.funcspace.MAX_NUMERAL_DIGITS` digits."""
    text = token.strip()
    if base == 2 and text.lower().startswith("0b"):
        text = text[2:]
    if not text or len(text) > MAX_NUMERAL_DIGITS:
        return None
    digits = "0123456789" if base == 10 else "01"
    if not all(ch in digits for ch in text):
        return None
    return int(text, base)


def _render_plain(value: int, base: int) -> str:
    return str(value) if base == 10 else format(value, "b")


class ClassifiedToken(NamedTuple):
    token: str
    logprob: float
    value: int | None  # None when the token is not a numeral
    correct: bool  # also true for a strict prefix of one correct numeral


def classify_tokens(
    pairs: Iterable[tuple[str, float]],
    correct_values: Iterable[int],
    base: int = 10,
) -> tuple[ClassifiedToken, ...]:
    """Tag each listed token as a correct numeral, incorrect numeral, or other.

    ``pairs`` is a checked top-k list: a :class:`TokenDistribution`, or
    (token, logprob) pairs that one takes, highest first. Tokenizers may
    split a long numeral, so a numeral token that is a strict prefix of
    exactly one correct value's rendering counts as that value (promotion).
    Ambiguous prefixes stay incorrect.
    """
    correct = set(correct_values)
    renders = None  # each correct value's rendering, once a token needs them
    out = []
    for token, logprob in pairs:
        value = parse_numeral_token(token, base)
        if value is not None and value not in correct:
            if renders is None:
                renders = {_render_plain(v, base): v for v in correct}
            stripped = token.strip()
            if base == 2 and stripped.lower().startswith("0b"):
                stripped = stripped[2:]
            hits = [v for r, v in renders.items() if r.startswith(stripped) and r != stripped]
            if len(hits) == 1:
                value = hits[0]  # promoted
        out.append(ClassifiedToken(token, logprob, value, value in correct))
    return tuple(out)


# ---------------------------------------------------------------------------
# Alternative-consideration test
# ---------------------------------------------------------------------------

class AlternativeTestReason(Enum):
    ALL_ALTERNATIVES_RANKED_FIRST = "all_alternatives_ranked_first"
    NO_INCORRECT_LISTED = "no_incorrect_listed"
    INCORRECT_LISTED = "incorrect_listed"
    MISSING_ALTERNATIVE = "missing_alternative"


@dataclass(frozen=True)
class AlternativeTestResult:
    passed: bool
    reason: AlternativeTestReason


def alternative_consideration_test(
    dist: TokenDistribution,
    correct_values: Iterable[int],
    base: int = 10,
) -> AlternativeTestResult:
    """Check whether a top-k numeral list is compatible with the valid set.

    Passes when no incorrect numeral is listed at all, or when every valid
    continuation appears and every correct one outranks every incorrect one.
    """
    correct = set(correct_values)
    if not correct:
        raise ValueError("correct_values must be non-empty")
    tagged = classify_tokens(dist, correct, base)
    numerals = [t for t in tagged if t.value is not None]
    correct_listed = [t for t in numerals if t.correct]
    incorrect_listed = [t for t in numerals if not t.correct]

    if not incorrect_listed:
        return AlternativeTestResult(True, AlternativeTestReason.NO_INCORRECT_LISTED)
    if {t.value for t in correct_listed} != correct:
        return AlternativeTestResult(False, AlternativeTestReason.MISSING_ALTERNATIVE)
    worst_correct = min(t.logprob for t in correct_listed)
    best_incorrect = max(t.logprob for t in incorrect_listed)
    if worst_correct > best_incorrect:
        return AlternativeTestResult(True, AlternativeTestReason.ALL_ALTERNATIVES_RANKED_FIRST)
    return AlternativeTestResult(False, AlternativeTestReason.INCORRECT_LISTED)


# ---------------------------------------------------------------------------
# Quadrants
# ---------------------------------------------------------------------------

class Quadrant(Enum):
    CORRECT_PREDICTED = "correct_predicted"
    CORRECT_NOT_PREDICTED = "correct_not_predicted"
    INCORRECT_PREDICTED = "incorrect_predicted"
    INCORRECT_NOT_PREDICTED = "incorrect_not_predicted"

    # members are singletons: hash by identity, not by name as Enum does
    __hash__ = object.__hash__


_QUADRANTS = tuple(Quadrant)  # iterating an Enum class runs Python code


def group_logprobs_by_quadrant(
    pairs: Iterable[tuple[str, float]],
    correct_values: Iterable[int],
    base: int = 10,
) -> dict[Quadrant, list[float]]:
    """Partition the listed numeral tokens' logprobs into the four quadrants.

    ``pairs`` is read as :func:`classify_tokens` reads it. Top-1 status
    refers to the head of the full list, numeral or not. Non-numeral tokens
    are never assigned a quadrant.
    """
    groups: dict[Quadrant, list[float]] = {q: [] for q in _QUADRANTS}
    tagged = classify_tokens(pairs, correct_values, base)
    for i, t in enumerate(tagged):
        if t.value is None:
            continue
        q = (
            (Quadrant.CORRECT_PREDICTED if i == 0 else Quadrant.CORRECT_NOT_PREDICTED)
            if t.correct
            else (Quadrant.INCORRECT_PREDICTED if i == 0 else Quadrant.INCORRECT_NOT_PREDICTED)
        )
        groups[q].append(t.logprob)
    return groups


# ---------------------------------------------------------------------------
# Histograms, smoothing, KL divergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Histogram:
    """Density histogram: ``densities[i]`` over ``[edges[i], edges[i+1])``."""

    densities: tuple[float, ...]
    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.densities) + 1:
            raise ValueError("edges must have exactly one more element than densities")

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.edges, self.edges[1:]))

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(d * w for d, w in zip(self.densities, self.widths))


# The arithmetic below is that of the numpy code it replaced, operation for
# operation, except where numpy's result depended on the machine: the kernel
# product, which numpy left to BLAS, is added in bin order, and exp and log2
# are ``math``'s (the C library's), not numpy's SIMD loops. So the figures
# depend on no BLAS build and no CPU feature. Floats are added with
# ``reduce(add, ...)``, in order on every Python (``sum`` of floats
# compensates from 3.12 on).

def shared_edges(groups: Iterable[Sequence[float]], n_bins: int = 40) -> tuple[float, ...]:
    """Bin edges spanning the pooled range ``[lo, hi]`` of several samples:
    edge ``i`` is ``i*step + lo`` with ``step = (hi - lo) / n_bins``, and the
    last is ``hi``, as ``np.linspace`` computes them. When those edges do not
    increase strictly (a point, or a span too narrow for ``n_bins`` steps of
    the float grid), the range is widened by 0.5 each way, then by 1, 2, 4
    and so on until they do; a ``ValueError`` if the step overflows first.
    The samples are read in place, never copied."""
    spans = [(min(map(float, g)), max(map(float, g))) for g in groups if len(g)]
    if not spans:
        raise ValueError("cannot build edges from empty data")
    lo, hi = min(lo for lo, _ in spans), max(hi for _, hi in spans)
    a, b, pad = lo, hi, 0.5
    while True:
        step = (b - a) / n_bins
        edges = (*(i * step + a for i in range(n_bins)), b)
        if all(x < y for x, y in zip(edges, edges[1:])):
            return edges
        if not math.isfinite(step):
            raise ValueError(f"cannot bin values spanning {lo} to {hi}")
        a, b, pad = lo - pad, hi + pad, pad * 2


def build_density_histogram(
    values: Sequence[float],
    n_bins: int = 40,
    edges: Sequence[float] | None = None,
) -> Histogram:
    """Histogram normalized so that total mass (density x width) is 1.

    Bin ``i`` counts the values in ``[edges[i], edges[i+1])``, and the last
    bin is closed; values outside the edges are not counted. Each value is
    placed by ``bisect_right`` on the inner edges, in one pass over
    ``values`` that copies nothing, and density ``i`` is
    ``count / width / total count``: ``np.histogram(values, edges,
    density=True)``, which takes its searchsorted path for explicit edges.
    """
    if not len(values):
        raise ValueError("cannot histogram empty data")
    edges = shared_edges([values], n_bins) if edges is None else tuple(map(float, edges))
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"bin edges must increase strictly, from {edges[0]} to {edges[-1]}")
    first, inner, last = edges[0], edges[1:-1], edges[-1]
    counts = [0] * (len(edges) - 1)
    for v in map(float, values):
        if counts and first <= v <= last:
            counts[bisect_right(inner, v) if v < last else -1] += 1
    total = sum(counts)
    if not total:
        raise ValueError("no value lies within the bin edges")
    densities = tuple(
        n / (b - a) / total for n, a, b in zip(counts, edges, edges[1:])
    )
    return Histogram(densities, edges)


def gaussian_smooth(hist: Histogram, sigma: float = 1.0) -> Histogram:
    """Smooth a histogram with a full-support Gaussian kernel over bin indices.

    Every output bin receives weight from every input bin (no truncation), and
    the result is floored at the smallest normal float before renormalizing,
    so smoothed distributions are strictly positive everywhere even when the
    kernel tail underflows; total mass stays 1. Output mass ``i`` is the dot
    product of kernel row ``i`` with the masses, added in bin order (a zero
    mass adds nothing and is skipped), floored at ``sys.float_info.min`` and
    divided by the :func:`_numpy_sum` of all of them.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    masses = hist.masses
    support = [(j, m) for j, m in enumerate(masses) if m]
    smoothed = [
        max(reduce(add, (row[j] * m for j, m in support), 0.0), sys.float_info.min)
        for row in _gaussian_kernel(len(masses), sigma)
    ]
    total = _numpy_sum(smoothed)
    return Histogram(
        tuple(s / total / w for s, w in zip(smoothed, hist.widths)), hist.edges
    )


@lru_cache(maxsize=16)  # keyed by (bins, sigma); the analysis uses one
def _gaussian_kernel(n: int, sigma: float) -> tuple[tuple[float, ...], ...]:
    """``kernel[i][j]``, the weight bin ``j`` gives bin ``i``:
    ``math.exp(-0.5 * d*d)`` with ``d = (i - j) / sigma``, divided by the sum
    of column ``j`` added in row order, so that each input bin's mass is
    fully redistributed."""
    raw = [[math.exp(-0.5 * (d * d)) for d in ((i - j) / sigma for j in range(n))]
           for i in range(n)]
    column_sums = [reduce(add, column) for column in zip(*raw)]
    return tuple(tuple(map(truediv, row, column_sums)) for row in raw)


def kl_divergence_bits(
    p: Histogram | Sequence[float], q: Histogram | Sequence[float]
) -> float:
    """KL(p || q) in bits over matching bins.

    Inputs are normalized to probability masses first, so histograms and raw
    density/mass vectors are both accepted. Bins where q is zero but p is not
    make the divergence undefined and raise. The figure is the
    :func:`_numpy_sum` of ``p * math.log2(p / q)`` over the bins where p > 0.
    """
    pm = _as_masses(p)
    qm = _as_masses(q)
    if len(pm) != len(qm):
        raise ValueError(f"length mismatch: {len(pm)} vs {len(qm)}")
    violations = sum(1 for a, b in zip(pm, qm) if b == 0 and a > 0)
    if violations:
        raise ValueError(f"q has zero mass on {violations} bins where p > 0")
    return _numpy_sum([a * math.log2(a / b) for a, b in zip(pm, qm) if a > 0])


def _as_masses(h: Histogram | Sequence[float]) -> tuple[float, ...]:
    """``h``'s masses (or the given vector) divided by their :func:`_numpy_sum`."""
    m = h.masses if isinstance(h, Histogram) else tuple(map(float, h))
    if any(x < 0 for x in m):
        raise ValueError("negative mass")
    total = _numpy_sum(m)
    if total <= 0 or not math.isfinite(total):
        raise ValueError(f"cannot normalize mass vector with total {total}")
    return tuple(x / total for x in m)


def _numpy_sum(values: Sequence[float]) -> float:
    """``np.sum`` of a float vector, to the last bit: 0.0 plus numpy's pairwise
    sum. That sum adds fewer than 8 values in order from -0.0; up to 128 in 8
    accumulators (accumulator ``k`` adds values ``k, k+8, ...`` of the longest
    multiple-of-8 prefix), combined as ``((r0+r1) + (r2+r3)) + ((r4+r5) +
    (r6+r7))``, then the rest in order; and a longer vector as the sum of its
    two halves, split at a multiple of 8."""

    def pairwise(v: Sequence[float]) -> float:
        n = len(v)
        if n < 8:
            return reduce(add, v, -0.0)
        if n <= 128:
            stop = n - n % 8
            r = [reduce(add, v[k:stop:8]) for k in range(8)]
            head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            return reduce(add, v[stop:], head)
        half = n // 2 - n // 2 % 8
        return pairwise(v[:half]) + pairwise(v[half:])

    return 0.0 + pairwise(values)
