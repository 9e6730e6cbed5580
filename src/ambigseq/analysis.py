"""Analysis of a results file: metrics tables, baselines, distributions.

Everything here is a pure, deterministic function of the results file (plus
the dataset files its header names) — no backend is ever queried. The output
is a JSON document and a delimited table ready for plotting. A run's
completion/explanation pairs are checked by
:func:`ambigseq.mining.continuations_of` on the config's function space, the
check the oracle's judgments make, so a space member's values come from its
row and only an answer outside the space is evaluated.

:data:`FIGURES` describes the eight headline figures of a run once: the
aggregate block, the ``metrics.tsv`` columns and the report's metrics section
all read it. The random answerer's expected consistency on a length's
ambiguous records comes from one call of
:func:`ambigseq.evaluation.expected_random_consistency`, as a (closed form,
Monte Carlo) pair.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import fmean
from typing import Any, Callable, NamedTuple

from .campaign import (
    CampaignError,
    check_dataset,
    collector_paused,
    config_space,
    line_error,
    read_header,
    read_results,
)
from .config import canonical_json
from .distribution import (
    Quadrant,
    TokenDistribution,
    alternative_consideration_test,
    build_density_histogram,
    gaussian_smooth,
    group_logprobs_by_quadrant,
    kl_divergence_bits,
    shared_edges,
)
from .evaluation import (
    aggregate_runs,
    expected_random_consistency,
    verbalization_scores,
)
from .funcspace import FunctionSpace, ParseError, parse
from .mining import Dataset, continuations_of, load_dataset, write_atomic
from .prompting import Task

ANALYSIS_FILENAME = "analysis.json"
METRICS_FILENAME = "metrics.tsv"
#: Monte Carlo draws per record for the random-answerer baselines.
MC_SAMPLES = 2000
#: The top-level keys of the document :func:`analyze_results` builds.
_ANALYSIS_KEYS = ("config_digest", "backend", "n_records", "per_length",
                  "reference_random_consistency", "reference_kl_bits")

#: Published reference points for the random-consistency baseline: mean
#: explanation/completion accuracy (percent) reported per model alongside the
#: expected consistency of a random valid answerer at that accuracy level.
REFERENCE_RANDOM_CONSISTENCY = (
    {"label": "reference-model-a", "p_expl": 31.18, "p_compl": 65.95, "reported": 8.50},
    {"label": "reference-model-b", "p_expl": 50.25, "p_compl": 77.56, "reported": 10.02},
    {"label": "reference-model-c", "p_expl": 59.05, "p_compl": 78.64, "reported": 15.22},
)

#: Reference KL values (bits) published for the two headline quadrant pairs;
#: context only — they came from a specific model's output distributions.
REFERENCE_KL_BITS = {
    "correct_predicted||correct_not_predicted": 1.71,
    "correct_predicted||incorrect_not_predicted": 3.45,
}


class _UnreadableLine(ValueError):
    """(result line, problem): a line whose content analysis cannot read;
    :func:`analyze_results` names its file, line number and query."""


def _pct(outcomes: list[bool]) -> float | None:
    if not outcomes:
        return None
    return 100.0 * sum(outcomes) / len(outcomes)


def _consistency(consistent: int, inconsistent: int, invalid: int) -> dict:
    """Bucket counts plus the percent consistent among evaluated pairs;
    invalid ones are excluded from the denominator."""
    evaluated = consistent + inconsistent
    return {
        "consistent": consistent,
        "inconsistent": inconsistent,
        "invalid": invalid,
        "rate": 100.0 * consistent / evaluated if evaluated else None,
    }


def accuracy(explanations: list[dict], completions: list[dict]) -> dict[str, Any]:
    """Accuracy of one run's explanation and completion lines on unambiguous
    sequences; an invalid answer scores incorrect."""
    return {
        "explanation_accuracy": _pct([bool(r["correct"]) for r in explanations]),
        "completion_accuracy": _pct([bool(r["correct"]) for r in completions]),
        "valid_fraction": _pct([r["valid"] for r in explanations + completions]),
    }


def cross_context_consistency(
    completions: list[dict], explanations: list[dict], space: FunctionSpace
) -> dict:
    """Execution-checked consistency of one run's completion/explanation
    pairs, paired by sequence values (``read_results`` gives each query of
    the plan at most one line), by :func:`continuations_of` on ``space``."""
    compl_by_values = {tuple(r["sequence"]["values"]): r for r in completions}
    expl_by_values = {tuple(r["sequence"]["values"]): r for r in explanations}
    consistent = inconsistent = invalid = 0
    for values in sorted(compl_by_values.keys() & expl_by_values.keys()):
        compl, expl = compl_by_values[values], expl_by_values[values]
        if not (compl["valid"] and expl["valid"]):
            invalid += 1
            continue
        try:
            fn = parse(expl["parsed"]["value"])
        except ParseError as exc:
            raise _UnreadableLine(expl, f"its parsed value does not parse: {exc}") from exc
        if compl["parsed"]["value"] in continuations_of(fn, values, space):
            consistent += 1
        else:
            inconsistent += 1
    return _consistency(consistent, inconsistent, invalid)


def judged_consistency(judgments: list[dict]) -> dict:
    """The model's own verdicts on its completion/explanation pairs."""
    verdicts = [r["parsed"]["value"] if r["valid"] else None for r in judgments]
    return _consistency(
        verdicts.count(True), verdicts.count(False), verdicts.count(None)
    )


def verbalization(lines: list[dict]) -> dict:
    """Mean precision/recall of verbalized alternatives over valid lines."""
    scores = [
        verbalization_scores(r["parsed"]["value"], r["continuations"])
        for r in lines
        if r["valid"]
    ]
    return {
        "precision": fmean(p for p, _ in scores) if scores else None,
        "recall": fmean(r for _, r in scores) if scores else None,
        "scored": len(scores),
        "invalid": len(lines) - len(scores),
    }


def alternative_test(completions: list[dict], base: int) -> dict:
    """The alternative-consideration test over completion lines that carry
    top logprobs."""
    passed = failed = 0
    reasons: dict[str, int] = {}
    for line in completions:
        if not line["top_logprobs"]:
            continue
        result = alternative_consideration_test(
            TokenDistribution.from_pairs(line["top_logprobs"]), line["continuations"], base
        )
        passed += result.passed
        failed += not result.passed
        reasons[result.reason.value] = reasons.get(result.reason.value, 0) + 1
    total = passed + failed
    return {
        "passed": passed,
        "failed": failed,
        "reasons": dict(sorted(reasons.items())),
        "pass_rate": 100.0 * passed / total if total else None,
    }


def _quadrant_analysis(completions: list[dict], base: int) -> dict:
    """Pool completion-task logprob captures across runs, bucket by quadrant,
    and compare the smoothed per-quadrant densities."""
    groups: dict[Quadrant, list[float]] = {q: [] for q in Quadrant}
    for line in completions:
        if not line["top_logprobs"]:
            continue
        for quadrant, values in group_logprobs_by_quadrant(
            TokenDistribution.from_pairs(line["top_logprobs"]), line["continuations"], base
        ).items():
            groups[quadrant].extend(values)

    counts = {q.value: len(groups[q]) for q in Quadrant}
    occupied = [g for g in groups.values() if g]
    # the headline pairs are the published ones, each named "a||b"
    kl: dict[str, float | None] = dict.fromkeys(REFERENCE_KL_BITS)
    if occupied:
        edges = shared_edges(occupied)
        smoothed = {
            q: gaussian_smooth(build_density_histogram(g, edges=edges))
            for q, g in groups.items()
            if g
        }
        for pair in kl:
            a, b = map(Quadrant, pair.split("||"))
            if a in smoothed and b in smoothed:
                kl[pair] = kl_divergence_bits(smoothed[a], smoothed[b])
    return {"counts": counts, "kl_bits": kl}


def _random_baseline(dataset: Dataset, rng_seed: int) -> dict:
    closed, mc = expected_random_consistency(100, 100, dataset.ambiguous,
                                             n_samples=MC_SAMPLES, rng_seed=rng_seed)
    return {"closed_form": closed, "monte_carlo": mc, "n_samples": MC_SAMPLES,
            "sigma_bound": 100 * 0.5 / math.sqrt(len(dataset.ambiguous) * MC_SAMPLES)}


def _reference_comparison(datasets: dict[int, Dataset], rng_seed: int) -> list[dict]:
    """Expected random consistency at the published accuracy points, averaged
    over the campaign's sequence lengths, with the gap to the published value."""
    rows = []
    for ref in REFERENCE_RANDOM_CONSISTENCY:
        closed, mc = map(fmean, zip(
            *(expected_random_consistency(ref["p_expl"], ref["p_compl"], datasets[n].ambiguous,
                                          n_samples=MC_SAMPLES, rng_seed=rng_seed)
              for n in sorted(datasets))
        ))
        rows.append({**ref, "computed_closed_form": closed, "computed_monte_carlo": mc,
                     "gap": closed - ref["reported"], "lengths": sorted(datasets)})
    return rows


class Figure(NamedTuple):
    """A headline figure: its aggregate key and ``metrics.tsv`` column, its
    report label and unit, and its value in a per-run block."""

    name: str
    label: str
    unit: str
    value: Callable[[dict], float | None]


#: The headline figures, in metrics-table column order.
FIGURES = (
    Figure("explanation_accuracy", "explanation accuracy", "%",
           lambda run: run["explanation_accuracy"]),
    Figure("completion_accuracy", "completion accuracy", "%",
           lambda run: run["completion_accuracy"]),
    Figure("valid_fraction", "valid fraction", "%", lambda run: run["valid_fraction"]),
    Figure("cross_context_consistency", "cross-context consistency", "%",
           lambda run: run["cross_context"]["rate"]),
    Figure("model_judged_consistency", "model-judged consistency", "%",
           lambda run: run["model_judged"]["rate"]),
    Figure("precision", "verbalization precision", "",
           lambda run: run["verbalization"]["precision"]),
    Figure("recall", "verbalization recall", "", lambda run: run["verbalization"]["recall"]),
    Figure("alternative_test_pass_rate", "alternative-consideration pass rate", "%",
           lambda run: run["alternative_test"]["pass_rate"]),
)


def _figures(run: dict[str, Any]) -> dict[str, float | None]:
    """The headline figures of one per-run block, by name."""
    return {figure.name: figure.value(run) for figure in FIGURES}


@collector_paused()
def analyze_results(results_file: str | Path) -> dict[str, Any]:
    """Build the full analysis document for one results file.

    Runs with the cyclic collector paused: a pure, single-threaded read of
    the files whose records are dead by the time it returns.
    """
    results_file = Path(results_file)
    header, config = read_header(results_file)
    datasets: dict[int, Dataset] = {}
    for length_str, filename in header["datasets"].items():
        path = results_file.parent / filename
        if not path.exists():
            raise CampaignError(
                f"dataset file {path} named by the results header is missing"
            )
        length = int(length_str)
        datasets[length] = check_dataset(config, length, path, load_dataset(path))
    _, lines = read_results(results_file, datasets)
    space = config_space(config)

    # one pass over the file; each bucket keeps its lines in file order
    buckets: dict[tuple, list[dict]] = {}
    for line in lines:
        key = (line["length"], line["run_id"], line["task"], line["ambiguous"])
        buckets.setdefault(key, []).append(line)

    per_length: dict[str, Any] = {}
    try:
        for length in config.lengths:
            run_ids = sorted({key[1] for key in buckets if key[0] == length})
            per_run = []
            for run_id in run_ids:

                def bucket(task: Task, ambiguous: bool) -> list[dict]:
                    return buckets.get((length, run_id, task.value, ambiguous), [])

                completions = bucket(Task.COMPLETION, True)
                per_run.append({
                    **accuracy(bucket(Task.EXPLANATION, False), bucket(Task.COMPLETION, False)),
                    "run_id": run_id,
                    "cross_context": cross_context_consistency(
                        completions, bucket(Task.EXPLANATION, True), space
                    ),
                    "model_judged": judged_consistency(bucket(Task.CONSISTENCY_JUDGMENT, True)),
                    "verbalization": verbalization(bucket(Task.VERBALIZE_ALTERNATIVES, True)),
                    "alternative_test": alternative_test(completions, config.base),
                })
            per_length[str(length)] = {
                "per_run": per_run,
                "aggregate": (
                    aggregate_runs([_figures(f) for f in per_run]) if per_run else None
                ),
                "random_baseline": _random_baseline(datasets[length], config.rng_seed),
                "quadrants": _quadrant_analysis(
                    [
                        line
                        for (line_length, _, task, _), group in buckets.items()
                        if line_length == length and task == Task.COMPLETION.value
                        for line in group
                    ],
                    config.base,
                ),
            }
    except _UnreadableLine as exc:
        line, problem = exc.args
        raise line_error(f"{results_file}:{lines.index(line) + 2}", line, problem) from exc

    return {
        "config_digest": header["config_digest"],
        "backend": config.backend,
        "n_records": len(lines),
        "per_length": per_length,
        "reference_random_consistency": _reference_comparison(datasets, config.rng_seed),
        "reference_kl_bits": dict(REFERENCE_KL_BITS),
    }


# ---------------------------------------------------------------------------
# file output


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def metrics_table(analysis: dict[str, Any]) -> str:
    """Per-run and aggregate metrics as a tab-separated table."""
    columns = ("length", "run", *(figure.name for figure in FIGURES))
    rows = [f"# config_digest={analysis['config_digest']}", "\t".join(columns)]
    for length in sorted(analysis["per_length"], key=int):
        block = analysis["per_length"][length]
        for f in block["per_run"]:
            cells = (length, f["run_id"], *_figures(f).values())
            rows.append("\t".join(_cell(v) for v in cells))
        agg = block["aggregate"]
        if agg:
            cells = (length, "mean", *(agg[figure.name] for figure in FIGURES))
            rows.append("\t".join(_cell(v) for v in cells))
    return "\n".join(rows) + "\n"


def write_analysis(
    analysis: dict[str, Any], out_dir: str | Path
) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis_path = out_dir / ANALYSIS_FILENAME
    write_atomic(analysis_path, canonical_json(analysis) + "\n")
    table_path = out_dir / METRICS_FILENAME
    write_atomic(table_path, metrics_table(analysis))
    return analysis_path, table_path


def load_analysis(path: str | Path) -> dict[str, Any]:
    """A stored analysis document; a :class:`CampaignError` naming the file
    unless it is a JSON object with every key :func:`analyze_results` writes."""
    path = Path(path)
    try:
        analysis = json.loads(path.read_text())
    except ValueError as exc:
        raise CampaignError(f"{path}: unreadable analysis file ({exc})") from exc
    if not isinstance(analysis, dict):
        raise CampaignError(f"{path}: not an analysis document (not an object)")
    missing = [key for key in _ANALYSIS_KEYS if key not in analysis]
    if missing:
        raise CampaignError(f"{path}: analysis document lacks {', '.join(missing)}")
    return analysis
