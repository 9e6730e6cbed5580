"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py rep WORKLOAD SEED OUT_DIR REPORT [TRACE_FILE]
    python3 perfbench/child.py setup WORKLOAD SEED OUT_DIR REPORT
    python3 perfbench/child.py fixture SEED CACHE_DIR INPUT_DIR REPORT

``rep`` imports ambigseq from this checkout's ``src/``, enumerates the
workload's function space (the set-up every CLI stage pays), then drives the
public stage functions a CLI user hits and writes a JSON report of stage
times, CPU, peak memory and output digests. With a TRACE_FILE it also rebinds
the layer boundaries to record spans (see ``tracer.py``) and writes them
there. ``setup`` stops after the set-up, to sample its time alone.
``fixture`` builds the analyze_10x results fixture (see ``run.py``).

The parent process only ever passes paths and the seed; every input is made
here from the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import fmean

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SIM_BASE_URL = "http://simulated-endpoint.invalid/v1"
# the note run_campaign files on the query where the backend stopped
# supplying top logprobs
FALLBACK_NOTE = "top logprobs unavailable from backend"


def short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_digests(path: Path) -> dict[str, str]:
    """Digest of a line-oriented artifact, whole and without its header line."""
    data = path.read_bytes()
    return {"full": short_digest(data), "body": short_digest(data.split(b"\n", 1)[1])}


def import_ambigseq():
    sys.path.insert(0, str(SRC))
    import ambigseq

    location = Path(ambigseq.__file__).resolve()
    if location.parent != (SRC / "ambigseq").resolve():
        raise SystemExit(f"ambigseq imported from {location}, not from {SRC}")
    return ambigseq


def workload_config(workload: str, seed: int, out_dir: str):
    from ambigseq.config import CampaignConfig

    if workload == "oracle_cycle":
        return CampaignConfig(
            lengths=(3, 4), n_runs=3, limit_sequences=20, rng_seed=seed, output_dir=out_dir
        )
    if workload == "oracle_anchor":
        return CampaignConfig(lengths=(3, 4), n_runs=3, rng_seed=seed, output_dir=out_dir)
    if workload == "http_sim":
        return CampaignConfig(
            backend="http",
            http_base_url=SIM_BASE_URL,
            http_model="simulated",
            lengths=(3, 4),
            n_runs=1,
            limit_sequences=20,
            rng_seed=seed,
            output_dir=out_dir,
        )
    if workload == "analyze_10x":
        return CampaignConfig(lengths=(3, 4), n_runs=30, rng_seed=seed, output_dir=out_dir)
    if workload == "mine_wide":
        return CampaignConfig(
            constant_range=(0, 19), lengths=(2, 3, 4, 5, 6), rng_seed=seed, output_dir=out_dir
        )
    raise SystemExit(f"unknown workload {workload!r}")


class RecordingSleep:
    """HttpBackend's backoff sleep, remembering each wait."""

    def __init__(self) -> None:
        self.waits: list[float] = []

    def __call__(self, seconds: float) -> None:
        self.waits.append(seconds)
        time.sleep(seconds)


# ---------------------------------------------------------------------------
# tracing


class TracedBackend:
    """A Backend whose ``complete`` is a span; counts logprob fallbacks."""

    def __init__(self, inner, tracer):
        from ambigseq.backends import LogprobsUnsupportedError

        self.backend_id = inner.backend_id
        self._complete = tracer.wrap("backends.complete", inner.complete)
        self._unsupported = LogprobsUnsupportedError
        self._counts = tracer.counts

    def complete(self, request):
        try:
            return self._complete(request)
        except self._unsupported:
            self._counts["backends.logprob_fallbacks"] += 1
            raise


def install_tracer(tracer) -> None:
    """Rebind every layer boundary the stages cross to a recording wrapper."""
    from ambigseq import analysis, backends, campaign, evaluation, funcspace, mining, prompting

    tr = tracer
    tr.patch(funcspace, "evaluate", tr.counted("funcspace.evaluate", funcspace.evaluate))
    tr.span_attr(campaign, "enumerate_space", "funcspace.enumerate_space")
    tr.span_attr(analysis, "parse", "funcspace.parse")

    tr.span_attr(mining, "mine", "mining.mine")
    tr.span_attr(mining, "save_dataset", "mining.save_dataset")
    tr.span_attr(campaign, "load_dataset", "mining.load_dataset")
    tr.span_attr(analysis, "load_dataset", "mining.load_dataset")
    tr.span_attr(mining, "matching_generators", "mining.matching_generators")
    tr.span_attr(backends, "matching_generators", "mining.matching_generators")
    tr.span_attr(analysis, "continuations_of", "mining.continuations_of")

    tr.span_attr(
        campaign,
        "build_prompt",
        "prompting.build_prompt",
        after=lambda prompt: tr.sample("prompt_bytes", len(prompt.full_text().encode())),
    )
    tr.span_attr(prompting, "build_system_prompt", "prompting.build_system_prompt")

    make_backend = campaign.make_backend
    tr.patch(campaign, "make_backend", lambda *a, **k: TracedBackend(make_backend(*a, **k), tr))

    def count_invalid(record) -> None:
        tr.counts["evaluation.scored"] += 1
        tr.counts["evaluation.invalid"] += not record.valid

    tr.span_attr(campaign, "build_eval_record", "evaluation.build_eval_record", after=count_invalid)
    tr.span_attr(campaign, "annotate_correctness", "evaluation.annotate_correctness")
    tr.span_attr(evaluation, "eval_record_to_json", "evaluation.eval_record_to_json")
    for name in ("expected_random_consistency", "verbalization_scores", "aggregate_runs"):
        tr.span_attr(analysis, name, f"evaluation.{name}")

    query_span = tr.wrap("campaign.query", campaign._execute_query)

    def execute_query(config, query, *rest):
        tr.request_id = list(query.key)
        try:
            return query_span(config, query, *rest)
        finally:
            tr.request_id = None

    tr.patch(campaign, "_execute_query", execute_query)
    tr.span_attr(campaign, "_append_line", "campaign.append_line")
    tr.span_attr(campaign, "read_results", "campaign.read_results")
    tr.span_attr(analysis, "read_results", "campaign.read_results")

    for name in (
        "alternative_consideration_test",
        "build_density_histogram",
        "gaussian_smooth",
        "group_logprobs_by_quadrant",
        "kl_divergence_bits",
        "shared_edges",
    ):
        tr.span_attr(analysis, name, f"distribution.{name}")

    class TokenDistribution:  # analysis only calls from_pairs on it
        from_pairs = staticmethod(
            tr.wrap("distribution.from_pairs", analysis.TokenDistribution.from_pairs)
        )

    tr.patch(analysis, "TokenDistribution", TokenDistribution)


def layer_metrics(tracer, stages: dict, hits_misses: tuple[int, int], sleeps, endpoint) -> dict:
    """Every per-layer metric; None where the workload never reached the layer."""
    from tracer import percentile

    tr = tracer
    table = tr.layer_table()

    def total_of(layer: str) -> float | None:
        return table[layer]["total_ms"] if layer in table else None

    match = tr.durations_ms("mining.matching_generators")
    builds = tr.durations_ms("prompting.build_prompt")
    complete = tr.durations_ms("backends.complete")
    hits, misses = hits_misses
    scored = tr.counts["evaluation.scored"]
    prompt_bytes = tr.samples.get("prompt_bytes", [])

    def total(*names: str) -> float | None:
        durations = [d for name in names for d in tr.durations_ms(name)]
        return sum(durations) if durations else None

    return {
        "funcspace.enumerate_ms": total("funcspace.enumerate_space"),
        "funcspace.evaluate_calls": tr.counts["funcspace.evaluate"],
        "mining.mine_ms": total("mining.mine"),
        "mining.match_calls": len(match),
        "mining.match_ms": total("mining.matching_generators"),
        "mining.match_cache_hit_ratio": hits / (hits + misses) if hits + misses else None,
        "prompting.build_calls": len(builds),
        "prompting.build_ms": total("prompting.build_prompt"),
        "prompting.build_us_p50": percentile(builds, 50) * 1e3 if builds else None,
        "prompting.build_us_p99": percentile(builds, 99) * 1e3 if builds else None,
        "prompting.system_prompt_renders": len(tr.durations_ms("prompting.build_system_prompt")),
        "prompting.prompt_bytes_mean": fmean(prompt_bytes) if prompt_bytes else None,
        "backends.complete_calls": len(complete),
        "backends.complete_ms_p50": percentile(complete, 50) if complete else None,
        "backends.complete_ms_p99": percentile(complete, 99) if complete else None,
        "backends.transport_attempts": endpoint.attempts if endpoint else 0,
        "backends.retries": len(sleeps.waits) if sleeps else 0,
        "backends.backoff_s": sum(sleeps.waits) if sleeps else None,
        "backends.logprob_fallbacks": tr.counts["backends.logprob_fallbacks"],
        "backends.busy_ratio": (
            sum(complete) / 1e3 / stages["run_s"] if complete and "run_s" in stages else None
        ),
        "evaluation.score_ms": total(
            "evaluation.build_eval_record",
            "evaluation.annotate_correctness",
            "evaluation.eval_record_to_json",
        ),
        "evaluation.invalid_ratio": tr.counts["evaluation.invalid"] / scored if scored else None,
        "campaign.self_ms": table["campaign"]["self_ms"],
        "campaign.lines_written": len(tr.durations_ms("campaign.append_line")),
        "campaign.read_results_ms": total("campaign.read_results"),
        "analysis.analyze_ms": total("analysis.analyze_results"),
        "analysis.self_ms": table["analysis"]["self_ms"] if "analysis" in table else None,
        "distribution.ms": total_of("distribution"),
    }


# ---------------------------------------------------------------------------
# modes


def set_up(workload: str, seed: int, out_dir: Path):
    """The set-up every CLI stage pays: import, config, space enumeration."""
    import_ambigseq()
    from ambigseq import campaign

    config = workload_config(workload, seed, str(out_dir))
    campaign.config_space(config)
    return config


def run_rep(workload: str, seed: int, out_dir: Path, trace_file: Path | None) -> dict:
    config = set_up(workload, seed, out_dir)
    report: dict = {"ready": time.perf_counter()}
    from ambigseq import campaign, mining

    if mining._matching_generators.cache_info().currsize != 0:
        raise SystemExit("matching-generator cache is warm before the first stage")

    sys.path.insert(0, str(HERE))
    from ambigseq import analysis
    from ambigseq.backends import HttpBackend

    tracer = None
    if trace_file is not None:
        from tracer import Tracer

        tracer = Tracer()
        install_tracer(tracer)
        call = tracer.call
    else:
        call = lambda _name, fn, *args: fn(*args)  # noqa: E731

    stages: dict[str, float] = {}
    cpu: dict[str, float] = {}

    def stage(key: str, span: str | None, fn, *args):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = fn(*args) if span is None else call(span, fn, *args)
        stages[key] = time.perf_counter() - wall0
        cpu[key] = time.process_time() - cpu0
        return result

    endpoint = sleeps = backend = None
    if workload == "http_sim":
        from simendpoint import SimulatedEndpoint

        os.environ.setdefault(config.api_key_env, "simulated")
        endpoint, sleeps = SimulatedEndpoint(seed), RecordingSleep()
        backend = HttpBackend(
            config.http_base_url,
            config.http_model,
            api_key_env=config.api_key_env,
            backoff_base=0.01,
            transport=endpoint,
            sleep=sleeps,
        )
        if tracer is not None:
            backend = TracedBackend(backend, tracer)

    results = campaign.results_path(out_dir)
    size_before = results.stat().st_size if results.exists() else 0
    outcome = None
    if workload != "analyze_10x":
        datasets = stage("mine_s", "campaign.mine_datasets", campaign.mine_datasets, config)
        report["counts"] = {
            str(n): [len(d.ambiguous), len(d.unambiguous)] for n, d in datasets.items()
        }
    if workload in ("oracle_cycle", "oracle_anchor", "http_sim"):
        outcome = stage("run_s", "campaign.run_campaign", campaign.run_campaign, config, backend)
    elif workload == "analyze_10x":
        outcome = stage("resume_s", "campaign.run_campaign", campaign.run_campaign, config)
    if outcome is not None:
        def analyze():
            doc = call("analysis.analyze_results", analysis.analyze_results, outcome.results_file)
            call("analysis.write_analysis", analysis.write_analysis, doc, out_dir)
            return doc

        doc = stage("analyze_s", None, analyze)
        report["aggregate"] = {
            n: block["aggregate"] for n, block in doc["per_length"].items()
        }
        report.update(
            queried=outcome.queried,
            skipped=outcome.skipped,
            failed=outcome.failed,
            error=outcome.error,
        )
    info = mining._matching_generators.cache_info()

    report.update(
        stages=stages,
        cpu=cpu,
        cycle_s=sum(stages.values()),
        cycle_cpu_s=sum(cpu.values()),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    digests: dict = {
        f"dataset_L{n}": file_digests(out_dir / campaign.dataset_filename(n))
        for n in config.lengths
    }
    if outcome is not None:
        digests["results"] = file_digests(results)
        digests["analysis"] = short_digest((out_dir / analysis.ANALYSIS_FILENAME).read_bytes())
    report["digests"] = digests
    if tracer is not None:
        tracer.restore()
        per_layer = layer_metrics(tracer, stages, (info.hits, info.misses), sleeps, endpoint)
        per_layer["campaign.bytes_written"] = (
            results.stat().st_size - size_before if outcome is not None else 0
        )
        report["per_layer"] = per_layer
        report["layers"] = tracer.layer_table()
        tracer.write(trace_file)
    if outcome is not None and workload != "analyze_10x":
        _, records = campaign.read_results(results)
        report["logprob_fallbacks"] = sum(r.get("note") == FALLBACK_NOTE for r in records)
    return report


def build_fixture(seed: int, cache_dir: Path, input_dir: Path) -> dict:
    """The analyze_10x inputs for ``seed``: datasets mined for that seed's
    config plus a finished 30-run results file.

    The oracle answers every query from the target sequence alone, so its
    records do not depend on the run id or on rng_seed (which only picks
    few-shot demonstrations, and the results file does not record those).
    The cache therefore holds one real single-run oracle campaign, and the
    30-run file is its records once per run id, under the header of this
    seed's config. The parent checks the records' digest against that of a
    real 30-run campaign; in each repetition the resume re-checks the file,
    because a wrong header raises and a missing record would be queried.
    """
    import_ambigseq()
    from ambigseq import campaign
    from ambigseq.config import canonical_json

    single_run = campaign.results_path(cache_dir)
    if not single_run.exists():
        for stale in cache_dir.parent.glob(cache_dir.name + ".tmp*"):
            shutil.rmtree(stale)  # left by an interrupted build
        staging = cache_dir.with_name(cache_dir.name + f".tmp{os.getpid()}")
        config = workload_config("analyze_10x", 0, str(staging)).override(n_runs=1)
        campaign.mine_datasets(config)
        campaign.run_campaign(config)
        staging.rename(cache_dir)

    config = workload_config("analyze_10x", seed, str(input_dir))
    campaign.mine_datasets(config)
    _, records = campaign.read_results(single_run)
    lines = [canonical_json(campaign._results_header(config))]
    for length in config.lengths:
        run0 = [r for r in records if r["length"] == length]
        lines += [
            canonical_json({**r, "run_id": run}) for run in range(config.n_runs) for r in run0
        ]
    results = campaign.results_path(input_dir)
    results.write_text("\n".join(lines) + "\n")
    return {"results": file_digests(results)}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "rep":
        workload, seed, out_dir, report_path = argv[1], int(argv[2]), Path(argv[3]), argv[4]
        trace_file = Path(argv[5]) if len(argv) > 5 else None
        report = run_rep(workload, seed, out_dir, trace_file)
    elif mode == "setup":
        set_up(argv[1], int(argv[2]), Path(argv[3]))
        report, report_path = {"ready": time.perf_counter()}, argv[4]
    elif mode == "fixture":
        seed, cache_dir, input_dir, report_path = int(argv[1]), Path(argv[2]), Path(argv[3]), argv[4]
        report = build_fixture(seed, cache_dir, input_dir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
