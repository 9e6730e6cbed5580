"""Reference numpy implementation of the quadrant density test.

This is the numpy code that :mod:`ambigseq.distribution`'s pure-Python
histograms, smoothing and KL replaced: ``np.linspace`` edges,
``np.histogram(..., density=True)``, a column-normalized Gaussian kernel
applied with ``kernel @ masses``, and ``np.sum``/``np.log2`` for the KL. The
package follows numpy's arithmetic order, so on the quadrant groups of a
campaign the two agree to the last bit; ``kernel @ masses`` is a BLAS
``dgemv`` and ``np.log2`` may take a SIMD path, so on arbitrary inputs they
agree to a relative 1e-12. The tests pin them against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


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
