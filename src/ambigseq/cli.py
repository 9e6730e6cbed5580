"""Command-line entry point: mine | run | analyze | report.

A single JSON config file drives every stage; each of its keys is also a
flag, derived from the fields of ``CampaignConfig``, that overrides it. All
artifacts land in the config's output directory and carry the config digest
so mixed-up files are detectable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path
from types import UnionType
from typing import Callable, get_args, get_origin, get_type_hints

from .analysis import (
    FIGURES,
    REFERENCE_KL_BITS,
    analyze_results,
    write_analysis,
)
from .campaign import (
    CampaignError,
    config_space,
    dataset_filename,
    load_campaign_datasets,
    mine_datasets,
    read_header,
    results_path,
    run_campaign,
)
from .config import CHOICES, CampaignConfig, ConfigError
from .funcspace import FunctionSpace
from .mining import DatasetCounts, write_atomic

REPORT_FILENAME = "report.txt"

#: Independently published counts for the default protocol (8 templates,
#: constants 0..4, offsets 0..4). The miner prints its own counts next to
#: these and flags any divergence rather than papering over it.
REFERENCE_FUNCTION_COUNT = 197
REFERENCE_SEQUENCE_COUNTS = {4: (57, 140)}
REFERENCE_AMBIGUOUS_ONLY = {2: 196, 3: 76}


def _comma_items(item: type) -> Callable[[str], tuple]:
    """The parser of a flag for a tuple of ``item``: comma-separated items,
    each stripped; an empty text item is dropped."""
    def parse(text: str) -> tuple:
        parts = [part.strip() for part in text.split(",")]
        if item is str:
            return tuple(filter(None, parts))
        try:
            return tuple(map(item, parts))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambigseq",
        description=(
            "Mine ambiguous integer sequences from a lambda-template function "
            "space and evaluate model consistency on them."
        ),
        allow_abbrev=False,  # a new flag must not change what an old argv means
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", type=Path, help="JSON config file; each key is also a flag below"
    )
    hints = get_type_hints(CampaignConfig)
    for field in fields(CampaignConfig):
        hint = hints[field.name]
        if get_origin(hint) is UnionType:  # ``X | None`` reads as ``X``
            hint = get_args(hint)[0]
        listed = get_origin(hint) is tuple  # its items are checked by ``validate``
        common.add_argument(
            "--" + field.name.replace("_", "-"),
            type=_comma_items(get_args(hint)[0]) if listed else hint,
            choices=None if listed else CHOICES.get(field.name),
        )

    add = partial(sub.add_parser, parents=[common], allow_abbrev=False)
    add("mine", help="mine datasets and report counts")
    add("run", help="run the evaluation campaign")
    add("analyze", help="compute metrics from results")
    add("report", help="render a readable report")
    return parser


def resolve_config(args: argparse.Namespace) -> CampaignConfig:
    """The config file (or the defaults) with every flag given on the
    command line applied; each ``common`` flag's dest is a config field."""
    config = (
        CampaignConfig.from_file(args.config) if args.config else CampaignConfig()
    )
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "config") and value is not None
    }
    return config.override(**overrides) if overrides else config


# ---------------------------------------------------------------------------
# subcommands


def _space_summary_lines(space: FunctionSpace) -> list[str]:
    n = len(space)
    verdict = (
        "matches" if n == REFERENCE_FUNCTION_COUNT
        else f"DIVERGES from reference {REFERENCE_FUNCTION_COUNT}"
    )
    lines = [f"function space: {n} valid functions ({verdict})"]
    if space.excluded:
        lines.append(
            "candidates excluded by the value-bound validity rule "
            f"(|f(x)| <= {space.max_value} error-free at x = "
            f"{space.probe_indices[0]}..{space.probe_indices[-1]}):"
        )
        for candidate in space.excluded:
            lines.append(f"  - {candidate.function.text}: {candidate.reason}")
    return lines


def _dataset_count_lines(length: int, counts) -> list[str]:
    lines = [
        f"length {length}: "
        f"{counts.sequences_ambiguous} ambiguous / "
        f"{counts.sequences_unambiguous} unambiguous sequences; "
        f"{counts.functions_ambiguous} ambiguous / "
        f"{counts.functions_unambiguous} unambiguous functions; "
        f"{counts.ambiguous_function_pairs} ambiguous function pairs; "
        f"{counts.self_ambiguous_functions} self-ambiguous functions"
    ]
    if length in REFERENCE_SEQUENCE_COUNTS:
        ref_amb, ref_unamb = REFERENCE_SEQUENCE_COUNTS[length]
        match = (
            counts.sequences_ambiguous == ref_amb
            and counts.sequences_unambiguous == ref_unamb
        )
        verdict = "matches" if match else "DIVERGES under every counting unit above"
        lines.append(
            f"  reference: {ref_amb} ambiguous / {ref_unamb} unambiguous "
            f"sequences — {verdict}"
        )
    if length in REFERENCE_AMBIGUOUS_ONLY:
        ref = REFERENCE_AMBIGUOUS_ONLY[length]
        units = {
            "sequences": counts.sequences_ambiguous,
            "functions": counts.functions_ambiguous,
            "function pairs": counts.ambiguous_function_pairs,
        }
        closest = min(units, key=lambda u: abs(units[u] - ref))
        lines.append(
            f"  reference: {ref} ambiguous (counting unit unstated) — observed "
            + ", ".join(f"{v} {u}" for u, v in units.items())
            + f"; closest unit: {closest}"
        )
    return lines


def cmd_mine(config: CampaignConfig, out=None) -> int:
    out = out or sys.stdout
    space = config_space(config)
    for line in _space_summary_lines(space):
        print(line, file=out)
    datasets = mine_datasets(config)
    for length in config.lengths:
        counts = datasets[length].counts(space)
        for line in _dataset_count_lines(length, counts):
            print(line, file=out)
        print(
            f"  wrote {Path(config.output_dir) / dataset_filename(length)}", file=out
        )
    return 0


def cmd_run(config: CampaignConfig, out=None) -> int:
    out = out or sys.stdout
    outcome = run_campaign(config)
    if outcome.failed:
        print(
            f"campaign {config.digest()} aborted after {outcome.queried} queries: "
            f"{outcome.error}",
            file=sys.stderr,
        )
        print(f"partial results preserved in {outcome.results_file}", file=sys.stderr)
        return 1
    print(
        f"campaign {config.digest()}: {outcome.queried} queried, "
        f"{outcome.skipped} already present",
        file=out,
    )
    print(f"results: {outcome.results_file}", file=out)
    return 0


def cmd_analyze(config: CampaignConfig, out=None) -> int:
    out = out or sys.stdout
    analysis = analyze_results(results_path(config.output_dir))
    analysis_path, table_path = write_analysis(analysis, config.output_dir)
    for line in _metrics_lines(analysis):
        print(line, file=out)
    print(f"analysis: {analysis_path}", file=out)
    print(f"metrics table: {table_path}", file=out)
    return 0


def _metrics_lines(analysis: dict) -> list[str]:
    """The report's metrics section, which ``analyze`` prints too: the mean
    over runs of each headline figure that has one, per length."""
    lines = ["== metrics (mean over runs) =="]
    for length_str in sorted(analysis["per_length"], key=int):
        agg = analysis["per_length"][length_str]["aggregate"]
        if not agg:
            continue
        lines.append(f"length {length_str} ({agg['n_runs']} runs):")
        lines.extend(
            f"  {figure.label}: {agg[figure.name]:.2f}{figure.unit}"
            for figure in FIGURES
            if agg[figure.name] is not None
        )
    return lines


def _report_text(
    analysis: dict, space: FunctionSpace, counts: dict[int, DatasetCounts]
) -> str:
    lines: list[str] = []
    push = lines.append
    push(f"campaign {analysis['config_digest']} — backend {analysis['backend']}")
    push("")

    push("== function space ==")
    lines.extend(_space_summary_lines(space))
    push("")

    push("== datasets ==")
    for length, dataset_counts in sorted(counts.items()):
        lines.extend(_dataset_count_lines(length, dataset_counts))
    push("")

    lines.extend(_metrics_lines(analysis))
    push("")

    push("== random-consistency baseline (ambiguous sequences, full validity) ==")
    for length_str in sorted(analysis["per_length"], key=int):
        baseline = analysis["per_length"][length_str]["random_baseline"]
        push(
            f"length {length_str}: closed form {baseline['closed_form']:.2f}%, "
            f"Monte Carlo {baseline['monte_carlo']:.2f}% "
            f"({baseline['n_samples']} samples, sigma bound "
            f"{baseline['sigma_bound']:.3f})"
        )
    push("")
    push("reference points (expected consistency at published accuracy levels):")
    for row in analysis["reference_random_consistency"]:
        push(
            f"  ({row['p_expl']:.2f}% expl, {row['p_compl']:.2f}% compl): "
            f"reported {row['reported']:.2f}%, computed "
            f"{row['computed_closed_form']:.2f}% closed form / "
            f"{row['computed_monte_carlo']:.2f}% Monte Carlo "
            f"over lengths {row['lengths']} — gap "
            f"{row['gap']:+.2f} points"
        )
    push(
        "  (the reference derivation is unpublished; the gap is reported, "
        "not reconciled)"
    )
    push("")

    push("== output-distribution quadrants ==")
    for length_str in sorted(analysis["per_length"], key=int):
        quadrants = analysis["per_length"][length_str]["quadrants"]
        counts = ", ".join(f"{k} {v}" for k, v in sorted(quadrants["counts"].items()))
        push(f"length {length_str}: {counts}")
        for pair, value in sorted(quadrants["kl_bits"].items()):
            reference = REFERENCE_KL_BITS.get(pair)
            shown = "n/a (a group is empty)" if value is None else f"{value:.2f} bits"
            push(f"  KL {pair}: {shown} (reference {reference:.2f} bits)")
    return "\n".join(lines) + "\n"


def cmd_report(config: CampaignConfig, out=None) -> int:
    out = out or sys.stdout
    source = results_path(config.output_dir)
    header, _ = read_header(source)
    if header["config_digest"] != config.digest():
        raise CampaignError(
            f"{source} belongs to campaign {header['config_digest']}, "
            f"this config is {config.digest()} — report from this config's "
            "output directory"
        )
    # the datasets the analysis reads, mined once, give the report's counts
    space = config_space(config)
    datasets = load_campaign_datasets(config, space)
    analysis = analyze_results(source, datasets)
    counts = {length: dataset.counts(space) for length, dataset in datasets.items()}
    text = _report_text(analysis, space, counts)
    report_file = Path(config.output_dir) / REPORT_FILENAME
    write_atomic(report_file, text)
    print(text, end="", file=out)
    print(f"(written to {report_file})", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "mine": cmd_mine,
        "run": cmd_run,
        "analyze": cmd_analyze,
        "report": cmd_report,
    }[args.command]
    try:
        return handler(resolve_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (CampaignError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
