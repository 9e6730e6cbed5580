"""Ambiguous integer sequences: mining, prompting, and consistency evaluation.

The package splits into layers that can be used independently; import from
the modules (``from ambigseq.mining import mine``), as the package root holds
only this docstring and ``__version__``:

- :mod:`ambigseq.funcspace` — the restricted lambda mini-language: templates,
  parsing, evaluation, and enumeration of the valid function space.
- :mod:`ambigseq.mining` — finding which sequences several functions generate
  with conflicting continuations, and the cross-context execution check
  (``continuations_of``) that the oracle's judgments and the analysis share.
- :mod:`ambigseq.prompting` — rendering task prompts with few-shot
  demonstrations.
- :mod:`ambigseq.backends` — model access: HTTP chat endpoints plus synthetic
  oracle/random backends for harness validation, with response caching.
- :mod:`ambigseq.evaluation` — response parsing, correctness marking, and
  the scoring primitives: verbalization precision/recall and the
  random-answerer consistency baseline.
- :mod:`ambigseq.distribution` — top-token logprob analysis: the
  alternative-consideration test and histogram/KL comparisons.
- :mod:`ambigseq.campaign` / :mod:`ambigseq.cli` — batch orchestration over
  a config file.
- :mod:`ambigseq.analysis` — the one scorer of result lines: accuracy,
  cross-context and judged consistency, verbalization, and the distribution
  analyses, per run and averaged.
"""

__version__ = "0.1.0"
