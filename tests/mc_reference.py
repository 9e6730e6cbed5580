"""Reference Monte Carlo sampler for the random-consistency baseline.

This is the straightforward loop that :func:`ambigseq.evaluation.
expected_random_consistency` replaced: it draws with ``Random.choice`` and
scores a sample by looking the drawn continuation up in the drawn function's
continuation set. The package's sampler reads the same ``Random`` stream
through index draws and a consistency table, so the two must agree to the
last bit; the tests pin them against each other.
"""

from __future__ import annotations

from random import Random
from statistics import fmean


def reference_monte_carlo(p_expl, p_compl, records, n_samples, rng_seed):
    """Consistency (percent) of random-but-valid answers over ``records``."""
    rng = Random(rng_seed)
    per_record_rates = []
    for record in records:
        functions = record.functions
        continuations = sorted(record.continuations)
        cont_by_fn = {
            fn: frozenset(
                g.continuation for g in record.generators if g.function == fn
            )
            for fn in functions
        }
        hits = 0
        for _ in range(n_samples):
            expl_ok = rng.random() < p_expl / 100.0
            compl_ok = rng.random() < p_compl / 100.0
            if not (expl_ok and compl_ok):
                continue
            fn = rng.choice(functions)
            value = rng.choice(continuations)
            hits += value in cont_by_fn[fn]
        per_record_rates.append(hits / n_samples)
    return 100.0 * fmean(per_record_rates)
