"""Top-k token distributions: alternative-consideration test, histograms, KL.

The alternative-consideration test asks whether a model's top-k numeral
candidates are compatible with the full set of valid continuations: every
valid continuation must be present and every correct candidate must outrank
every incorrect one; listing any incorrect numeral above (or at all, once
coverage fails) fails the test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .funcspace import MAX_NUMERAL_DIGITS

MAX_TOP_K = 5


@dataclass(frozen=True)
class TokenLogprob:
    token: str
    logprob: float


@dataclass(frozen=True)
class TokenDistribution:
    """A top-k list of tokens with log probabilities, highest first."""

    entries: tuple[TokenLogprob, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.entries) <= MAX_TOP_K:
            raise ValueError(
                f"expected 1..{MAX_TOP_K} entries, got {len(self.entries)}"
            )
        probs = [e.logprob for e in self.entries]
        if any(lp > 0 for lp in probs):
            raise ValueError(f"logprobs must be <= 0: {probs}")
        if probs != sorted(probs, reverse=True):
            raise ValueError(f"entries must be sorted by descending logprob: {probs}")
        tokens = [e.token for e in self.entries]
        if len(set(tokens)) != len(tokens):
            raise ValueError(f"duplicate tokens in distribution: {tokens}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, float]]) -> "TokenDistribution":
        return cls(tuple(TokenLogprob(t, lp) for t, lp in pairs))

    def to_pairs(self) -> list[list]:
        """The entries as JSON ``[[token, logprob], ...]``."""
        return [[e.token, e.logprob] for e in self.entries]


# ---------------------------------------------------------------------------
# Numeral interpretation of tokens
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class ClassifiedToken:
    token: str
    logprob: float
    value: int | None  # None when the token is not a numeral
    correct: bool  # also true for a strict prefix of one correct numeral


def classify_tokens(
    dist: TokenDistribution,
    correct_values: Iterable[int],
    base: int = 10,
) -> tuple[ClassifiedToken, ...]:
    """Tag each listed token as a correct numeral, incorrect numeral, or other.

    Tokenizers may split a long numeral, so a numeral token that is a strict
    prefix of exactly one correct value's rendering counts as that value
    (promotion). Ambiguous prefixes stay incorrect.
    """
    correct = set(correct_values)
    renders = {_render_plain(v, base): v for v in correct}
    out = []
    for entry in dist.entries:
        value = parse_numeral_token(entry.token, base)
        if value is not None and value not in correct:
            stripped = entry.token.strip()
            if base == 2 and stripped.lower().startswith("0b"):
                stripped = stripped[2:]
            hits = [v for r, v in renders.items() if r.startswith(stripped) and r != stripped]
            if len(hits) == 1:
                value = hits[0]  # promoted
        out.append(ClassifiedToken(entry.token, entry.logprob, value, value in correct))
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
    correct_listed: tuple[int, ...]
    incorrect_listed: tuple[int, ...]


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

    listed_values = tuple(sorted({t.value for t in correct_listed}))
    wrong_values = tuple(v for t in incorrect_listed if (v := t.value) is not None)

    if not incorrect_listed:
        return AlternativeTestResult(
            True, AlternativeTestReason.NO_INCORRECT_LISTED, listed_values, ()
        )
    if set(listed_values) != correct:
        return AlternativeTestResult(
            False, AlternativeTestReason.MISSING_ALTERNATIVE,
            listed_values, wrong_values,
        )
    worst_correct = min(t.logprob for t in correct_listed)
    best_incorrect = max(t.logprob for t in incorrect_listed)
    if worst_correct > best_incorrect:
        return AlternativeTestResult(
            True, AlternativeTestReason.ALL_ALTERNATIVES_RANKED_FIRST,
            listed_values, wrong_values,
        )
    return AlternativeTestResult(
        False, AlternativeTestReason.INCORRECT_LISTED, listed_values, wrong_values
    )


# ---------------------------------------------------------------------------
# Quadrants
# ---------------------------------------------------------------------------

class Quadrant(Enum):
    CORRECT_PREDICTED = "correct_predicted"
    CORRECT_NOT_PREDICTED = "correct_not_predicted"
    INCORRECT_PREDICTED = "incorrect_predicted"
    INCORRECT_NOT_PREDICTED = "incorrect_not_predicted"


def group_logprobs_by_quadrant(
    dist: TokenDistribution,
    correct_values: Iterable[int],
    base: int = 10,
) -> dict[Quadrant, list[float]]:
    """Partition the listed numeral tokens' logprobs into the four quadrants.

    Top-1 status refers to the head of the full distribution, numeral or not.
    Non-numeral tokens are never assigned a quadrant.
    """
    groups: dict[Quadrant, list[float]] = {q: [] for q in Quadrant}
    tagged = classify_tokens(dist, correct_values, base)
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

    densities: np.ndarray
    edges: np.ndarray

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.densities) + 1:
            raise ValueError("edges must have exactly one more element than densities")

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def masses(self) -> np.ndarray:
        return self.densities * self.widths

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Histogram)
            and np.array_equal(self.densities, other.densities)
            and np.array_equal(self.edges, other.edges)
        )


def shared_edges(groups: Iterable[Sequence[float]], n_bins: int = 40) -> np.ndarray:
    """Bin edges spanning the pooled range of several samples."""
    pooled = np.concatenate([np.asarray(g, dtype=float) for g in groups if len(g)])
    if pooled.size == 0:
        raise ValueError("cannot build edges from empty data")
    lo, hi = float(pooled.min()), float(pooled.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, n_bins + 1)


def build_density_histogram(
    values: Sequence[float],
    n_bins: int = 40,
    edges: np.ndarray | None = None,
) -> Histogram:
    """Histogram normalized so that total mass (density x width) is 1."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("cannot histogram empty data")
    if edges is None:
        edges = shared_edges([data], n_bins)
    densities, edges = np.histogram(data, bins=edges, density=True)
    return Histogram(densities, edges)


def gaussian_smooth(hist: Histogram, sigma: float = 1.0) -> Histogram:
    """Smooth a histogram with a full-support Gaussian kernel over bin indices.

    Every output bin receives weight from every input bin (no truncation), and
    the result is floored at the smallest normal float before renormalizing,
    so smoothed distributions are strictly positive everywhere even when the
    kernel tail underflows; total mass stays 1.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    masses = hist.masses
    n = len(masses)
    idx = np.arange(n)
    # kernel[i, j]: weight bin j contributes to bin i, column-normalized so
    # each input bin's mass is fully redistributed
    kernel = np.exp(-0.5 * ((idx[:, None] - idx[None, :]) / sigma) ** 2)
    kernel /= kernel.sum(axis=0, keepdims=True)
    smoothed_mass = np.maximum(kernel @ masses, np.finfo(float).tiny)
    smoothed_mass = smoothed_mass / smoothed_mass.sum()
    densities = smoothed_mass / hist.widths
    return Histogram(densities, hist.edges)


def kl_divergence_bits(
    p: Histogram | Sequence[float], q: Histogram | Sequence[float]
) -> float:
    """KL(p || q) in bits over matching bins.

    Inputs are normalized to probability masses first, so histograms and raw
    density/mass vectors are both accepted. Bins where q is zero but p is not
    make the divergence undefined and raise.
    """
    pm = _as_masses(p)
    qm = _as_masses(q)
    if pm.shape != qm.shape:
        raise ValueError(f"shape mismatch: {pm.shape} vs {qm.shape}")
    support_violation = (qm == 0) & (pm > 0)
    if support_violation.any():
        raise ValueError(
            f"q has zero mass on {int(support_violation.sum())} bins where p > 0"
        )
    nonzero = pm > 0
    return float(np.sum(pm[nonzero] * np.log2(pm[nonzero] / qm[nonzero])))


def _as_masses(h: Histogram | Sequence[float]) -> np.ndarray:
    if isinstance(h, Histogram):
        m = h.masses
    else:
        m = np.asarray(h, dtype=float)
    if m.ndim != 1:
        raise ValueError("expected a 1-d vector of masses or densities")
    if (m < 0).any():
        raise ValueError("negative mass")
    total = m.sum()
    if total <= 0 or not math.isfinite(total):
        raise ValueError(f"cannot normalize mass vector with total {total}")
    return m / total
