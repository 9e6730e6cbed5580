"""Ambiguous integer sequences: mining, prompting, and consistency evaluation.

The package splits into layers that can be used independently:

- :mod:`ambigseq.funcspace` — the restricted lambda mini-language: templates,
  parsing, evaluation, and enumeration of the valid function space.
- :mod:`ambigseq.mining` — finding which sequences several functions generate
  with conflicting continuations.
- :mod:`ambigseq.prompting` — rendering task prompts with few-shot
  demonstrations.
- :mod:`ambigseq.backends` — model access: HTTP chat endpoints plus synthetic
  oracle/random backends for harness validation, with response caching.
- :mod:`ambigseq.evaluation` — response parsing, correctness marking, and
  the scoring primitives: the cross-context execution check (the oracle
  backend's judgment verdict), verbalization precision/recall, and the
  random-answerer consistency baseline.
- :mod:`ambigseq.distribution` — top-token logprob analysis: the
  alternative-consideration test and histogram/KL comparisons.
- :mod:`ambigseq.campaign` / :mod:`ambigseq.cli` — batch orchestration over
  a config file.
- :mod:`ambigseq.analysis` — the one scorer of result lines: accuracy,
  cross-context and judged consistency, verbalization, and the distribution
  analyses, per run and averaged.
"""

from .funcspace import (
    ConcreteFunction,
    EvaluationError,
    FunctionSpace,
    IndexConvention,
    ParseError,
    ParsedFunction,
    TemplateKind,
    enumerate_space,
    evaluate,
    instantiate,
    parse,
    render_function,
)
from .mining import (
    AmbiguityRecord,
    Dataset,
    DatasetCounts,
    DatasetParameters,
    Generator,
    SequenceRecord,
    continuations_of,
    load_dataset,
    matching_generators,
    mine,
    pairwise_ambiguities,
    save_dataset,
    valid_continuations,
    valid_explanations,
)
from .prompting import (
    PromptSpec,
    RenderedPrompt,
    ShotSampling,
    Task,
    Variant,
    build_prompt,
    build_system_prompt,
)
from .backends import (
    NO_VALID_ANSWER,
    Backend,
    BackendError,
    CachingBackend,
    CompletionRequest,
    CompletionResponse,
    HttpBackend,
    OracleBackend,
    RandomValidBackend,
    ScriptedBackend,
)
from .distribution import (
    AlternativeTestResult,
    Histogram,
    Quadrant,
    TokenDistribution,
    alternative_consideration_test,
    build_density_histogram,
    gaussian_smooth,
    group_logprobs_by_quadrant,
    kl_divergence_bits,
)
from .evaluation import (
    EvalRecord,
    aggregate_runs,
    check_cross_context_consistency,
    expected_random_consistency,
    parse_completion_response,
    parse_explanation_response,
    verbalization_scores,
)
from .config import CampaignConfig
from .campaign import run_campaign
from .analysis import analyze_results

__version__ = "0.1.0"

__all__ = [
    "AlternativeTestResult",
    "AmbiguityRecord",
    "Backend",
    "BackendError",
    "CachingBackend",
    "CampaignConfig",
    "CompletionRequest",
    "CompletionResponse",
    "ConcreteFunction",
    "Dataset",
    "DatasetCounts",
    "DatasetParameters",
    "EvalRecord",
    "EvaluationError",
    "FunctionSpace",
    "Generator",
    "Histogram",
    "HttpBackend",
    "IndexConvention",
    "NO_VALID_ANSWER",
    "OracleBackend",
    "ParseError",
    "ParsedFunction",
    "PromptSpec",
    "Quadrant",
    "RandomValidBackend",
    "RenderedPrompt",
    "ScriptedBackend",
    "SequenceRecord",
    "ShotSampling",
    "Task",
    "TemplateKind",
    "TokenDistribution",
    "Variant",
    "aggregate_runs",
    "alternative_consideration_test",
    "analyze_results",
    "build_density_histogram",
    "build_prompt",
    "build_system_prompt",
    "check_cross_context_consistency",
    "continuations_of",
    "enumerate_space",
    "evaluate",
    "expected_random_consistency",
    "gaussian_smooth",
    "group_logprobs_by_quadrant",
    "instantiate",
    "kl_divergence_bits",
    "load_dataset",
    "matching_generators",
    "mine",
    "pairwise_ambiguities",
    "parse",
    "parse_completion_response",
    "parse_explanation_response",
    "render_function",
    "run_campaign",
    "save_dataset",
    "valid_continuations",
    "valid_explanations",
    "verbalization_scores",
]
