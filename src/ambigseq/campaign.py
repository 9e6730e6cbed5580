"""Campaign execution: drive one backend over mined datasets, write results.

The results file is line-oriented JSON: a header (format, schema version,
config, config digest, dataset filenames) followed by one record per backend
query. Record lines carry no wall-clock data, so a repeat run with the same
config and a deterministic backend reproduces the file byte for byte;
timestamps go to a sidecar ``audit.log``. Each query has at most one line;
a file holding two lines for the same query is refused. Reruns resume:
records already present are skipped, an unterminated trailing line from an
interrupted run is truncated away (every line is written with its newline),
and the remainder is appended in the same canonical order.

Backend calls may overlap. With ``CampaignConfig.workers`` above 1, only
``backend.complete`` runs on a pool of that many threads; the calling thread
walks the plan, builds prompts, scores answers and commits lines strictly in
plan order, so the file is the same for every worker count. A consistency
judgment is built only once its run's completion and explanation lines are
committed. While top logprobs are still captured, each completion that asks
for them is sent alone, once every line before it is committed (the logprob
lane), so an endpoint that stops sending them stops at the same query every
run. A backend failure surfaces when its query's turn to be committed comes:
the lines before it stay on disk, later answers are dropped. With one
worker each call is made inline as its line is committed, on no thread.
"""

from __future__ import annotations

import gc
import hashlib
import json
from collections import deque
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

from .backends import (
    BACKENDS,
    Backend,
    BackendError,
    CachingBackend,
    CompletionRequest,
    LogprobsUnsupportedError,
)
from .config import CampaignConfig, ConfigError, canonical_json
from .distribution import TokenDistribution
from .evaluation import annotate_correctness, build_eval_record
from .funcspace import FunctionSpace, IndexConvention, enumerate_space, render_function
from .mining import AmbiguityRecord, Dataset, DatasetParameters, load_dataset, utf8_lines
from .prompting import JudgedPair, PromptSpec, RenderedPrompt, Task, build_prompt

RESULTS_FORMAT = "ambigseq.results"
RESULTS_VERSION = 1
RESULTS_FILENAME = "results.jsonl"
AUDIT_FILENAME = "audit.log"

LOGPROBS_UNAVAILABLE_NOTE = "top logprobs unavailable from backend"
#: The fields of every record line, as :func:`_result_line` writes them.
RESULT_FIELDS = (
    "sequence", "task", "raw_response", "parsed", "valid", "correct", "run_id",
    "length", "ambiguous", "continuations", "top_logprobs", "judged", "note",
)
_RESULT_FIELD_SET = frozenset(RESULT_FIELDS)


class CampaignError(RuntimeError):
    pass


def dataset_filename(length: int) -> str:
    return f"dataset_L{length}.jsonl"


def results_path(output_dir: str | Path) -> Path:
    return Path(output_dir) / RESULTS_FILENAME


# ---------------------------------------------------------------------------
# backend construction


def make_backend(config: CampaignConfig, space: FunctionSpace) -> Backend:
    backend = BACKENDS[config.backend].build(config, space)
    if config.cache_dir:
        backend = CachingBackend(backend, config.cache_dir)
    return backend


def config_space(config: CampaignConfig) -> FunctionSpace:
    return enumerate_space(
        constant_range=config.constant_range,
        convention=IndexConvention(config.start_index, config.max_offset),
    )


# ---------------------------------------------------------------------------
# mining stage


def mine_datasets(config: CampaignConfig) -> dict[int, Dataset]:
    """Mine one dataset per configured length and write them to output_dir."""
    from .mining import mine, save_dataset

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    space = config_space(config)
    datasets = {}
    for length in config.lengths:
        dataset = mine(space, length=length, base=config.base)
        save_dataset(dataset, out_dir / dataset_filename(length), config.digest())
        datasets[length] = dataset
    return datasets


def load_campaign_datasets(config: CampaignConfig) -> dict[int, Dataset]:
    out_dir = Path(config.output_dir)
    datasets = {}
    for length in config.lengths:
        path = out_dir / dataset_filename(length)
        if not path.exists():
            raise CampaignError(
                f"dataset file {path} not found — run the mine stage first"
            )
        datasets[length] = check_dataset(config, length, path, load_dataset(path))
    return datasets


def check_dataset(
    config: CampaignConfig, length: int, path: Path, dataset: Dataset
) -> Dataset:
    """``dataset`` (read from ``path``) if it was mined with the config's
    parameters at ``length`` and the default value bound, which
    :func:`config_space` enumerates with; otherwise a :class:`CampaignError`."""
    expected = DatasetParameters(
        constant_range=config.constant_range,
        sequence_length=length,
        start_index=config.start_index,
        max_offset=config.max_offset,
        base=config.base,
    )
    if dataset.parameters != expected:
        raise CampaignError(
            f"{path} was mined with parameters {astuple(dataset.parameters)}, "
            f"config wants {astuple(expected)}"
        )
    return dataset


# ---------------------------------------------------------------------------
# campaign plan


@dataclass(frozen=True)
class PlannedQuery:
    length: int
    run_id: int
    task: Task
    record: AmbiguityRecord

    @property
    def key(self) -> tuple:
        return (
            self.length,
            self.run_id,
            self.task.value,
            self.record.sequence.values,
            self.record.sequence.base,
        )


def _task_targets(dataset: Dataset, task: Task, limit: int | None):
    """Completion/explanation run everywhere; judgment and verbalization only
    make sense where several answers compete."""
    if task in (Task.COMPLETION, Task.EXPLANATION):
        groups = (dataset.ambiguous, dataset.unambiguous)
    else:
        groups = (dataset.ambiguous,)
    for group in groups:
        yield from group[:limit] if limit else group


def plan_queries(
    config: CampaignConfig, datasets: dict[int, Dataset]
) -> Iterator[PlannedQuery]:
    for length in config.lengths:
        dataset = datasets[length]
        for run_id in range(config.n_runs):
            for task in config.task_enums:
                for record in _task_targets(dataset, task, config.limit_sequences):
                    yield PlannedQuery(length, run_id, task, record)


def prompt_seed(config: CampaignConfig, query: PlannedQuery) -> int:
    """Stable per-query seed: distinct few-shot draws per run, reproducible
    across reruns."""
    material = "|".join(
        [
            str(config.rng_seed),
            str(query.length),
            str(query.run_id),
            query.task.value,
            str(query.record.sequence.base),
            ",".join(map(str, query.record.sequence.values)),
        ]
    )
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")


# ---------------------------------------------------------------------------
# results file handling


def _results_header(config: CampaignConfig) -> dict:
    return {
        "format": RESULTS_FORMAT,
        "version": RESULTS_VERSION,
        "config": config.experiment_json(),
        "config_digest": config.digest(),
        "datasets": {str(n): dataset_filename(n) for n in config.lengths},
    }


def _complete_part(data: bytes) -> bytes:
    """The newline-terminated lines of a results file. Every line is written
    with its newline, so an unterminated tail is a torn write."""
    return data[: data.rfind(b"\n") + 1]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with Python's cyclic garbage collector off, then put it
    back as it was (a caller that had it off keeps it off). For reads and
    analysis of a results file: their records hold no reference cycles, so a
    collection frees nothing and only re-scans every container read so far."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def read_results(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a results file; raises on missing/incompatible header.

    A trailing line without its newline (an interrupted write) is dropped,
    even when it holds a whole record; a malformed line elsewhere is an error,
    and so is a second line for the same query.
    """
    path = Path(path)
    header, records, _ = _read_complete(path, _complete_part(path.read_bytes()))
    return header, records


def _read_complete(
    path: Path, complete: bytes
) -> tuple[dict, list[dict], dict[tuple, dict]]:
    """The header, the record lines and the record lines by query key of
    ``complete``, the complete lines of the results file at ``path``; decoded
    and indexed with the collector paused."""
    with collector_paused():
        header, records = _parse_results(path, complete)
        return header, records, _index_results(path, records)


def _parse_results(path: Path, complete: bytes) -> tuple[dict, list[dict]]:
    raw_lines = utf8_lines(path, complete, CampaignError)[:-1]
    if not raw_lines:
        raise CampaignError(f"{path}: empty results file (no complete header line)")
    try:
        header = json.loads(raw_lines[0])
    except json.JSONDecodeError as exc:
        raise CampaignError(f"{path}: unreadable header line ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != RESULTS_FORMAT:
        raise CampaignError(f"{path}: not a results file (header {raw_lines[0][:80]!r})")
    if header.get("version") != RESULTS_VERSION:
        raise CampaignError(
            f"{path}: results schema version {header.get('version')!r} "
            f"unsupported (expected {RESULTS_VERSION})"
        )
    missing = [k for k in ("config", "config_digest", "datasets") if k not in header]
    if missing:
        raise CampaignError(f"{path}: results header lacks {', '.join(missing)}")
    try:
        expected = _results_header(CampaignConfig.from_json(header["config"]))
    except ConfigError as exc:
        raise CampaignError(f"{path}: results header config: {exc}") from exc
    if canonical_json(header) != canonical_json(expected):
        raise CampaignError(f"{path}: results header is not the one its config writes")
    records = []
    for i, line in enumerate(raw_lines[1:], start=2):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise CampaignError(f"{path}:{i}: malformed record line ({exc})") from exc
    return header, records


def _index_results(path: Path, records: list[dict]) -> dict[tuple, dict]:
    """The record lines by query key; a line without one or without any of
    :data:`RESULT_FIELDS`, or two lines for one query, are an error."""
    by_key: dict[tuple, dict] = {}
    for i, record in enumerate(records, start=2):
        try:
            key = _record_key(record)
            seen = key in by_key
        except (KeyError, TypeError) as exc:
            raise CampaignError(
                f"{path}:{i}: malformed record line (no query key: {exc!r})"
            ) from exc
        if not _RESULT_FIELD_SET <= record.keys():
            missing = next(f for f in RESULT_FIELDS if f not in record)
            raise CampaignError(f"{path}:{i}: malformed record line (no {missing})")
        if seen:
            first = records.index(by_key[key]) + 2
            raise CampaignError(
                f"{path}:{i}: duplicate result line; line {first} "
                "already answers the same query"
            )
        by_key[key] = record
    return by_key


def _record_key(line: dict) -> tuple:
    return (
        line["length"],
        line["run_id"],
        line["task"],
        tuple(line["sequence"]["values"]),
        line["sequence"]["base"],
    )


def line_error(where: str | Path, line: dict, problem: str) -> CampaignError:
    """A record line that cannot be read, at ``where`` (its file, or file:N)."""
    length, run_id, task, values, _ = _record_key(line)
    return CampaignError(
        f"{where}: malformed record line (the {task} line of run {run_id} "
        f"for sequence {list(values)} at length {length}: {problem})"
    )


# ---------------------------------------------------------------------------
# the run loop


@dataclass(frozen=True)
class CampaignOutcome:
    results_file: Path
    queried: int
    skipped: int
    failed: bool = False
    error: str | None = None


class _Audit:
    def __init__(self, path: Path):
        self._path = path

    def log(self, message: str) -> None:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        with self._path.open("a") as fh:
            fh.write(f"{stamp} {message}\n")


def run_campaign(
    config: CampaignConfig, backend: Backend | None = None
) -> CampaignOutcome:
    """Execute (or resume) the configured campaign.

    A backend failure mid-run leaves everything recorded so far on disk and
    returns a failed outcome rather than raising.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    space = config_space(config)
    datasets = load_campaign_datasets(config)
    if backend is None:
        backend = make_backend(config, space)
    audit = _Audit(out_dir / AUDIT_FILENAME)

    path = results_path(out_dir)
    header_line = canonical_json(_results_header(config)) + "\n"
    data = path.read_bytes() if path.exists() else b""
    complete = _complete_part(data)
    # every line on file or written by this run, by plan key; judgment
    # queries read their run's completion and explanation from it
    answered: dict[tuple, dict] = {}
    if complete:
        header, _, answered = _read_complete(path, complete)
        if header["config_digest"] != config.digest():
            raise CampaignError(
                f"{path} belongs to campaign {header['config_digest']}, "
                f"this config is {config.digest()} — use a fresh output directory"
            )
        audit.log(
            f"resume campaign={config.digest()} existing_records={len(answered)}"
        )
    elif header_line.encode().startswith(data):
        # absent, or cut inside this campaign's own header line: start over
        audit.log(f"start campaign={config.digest()} backend={backend.backend_id}")
    else:
        raise CampaignError(
            f"{path} has no complete line and is not this campaign's header cut short "
            "— use a fresh output directory"
        )

    queried = skipped = 0
    # capture stays off across a resume once a line on file has recorded the
    # fallback, as it does in an uninterrupted run
    logprobs_available = config.want_top_logprobs > 0 and all(
        line["note"] != LOGPROBS_UNAVAILABLE_NOTE for line in answered.values()
    )
    # queries whose backend call is dispatched but whose line is not yet
    # committed, in plan order: (query, judged pair, answer)
    pending: deque[tuple[PlannedQuery, JudgedPair | None, Callable]] = deque()
    dispatch = _Dispatch(config.workers)

    def commit(fh: TextIO) -> None:
        nonlocal queried, logprobs_available
        query, judged, answer = pending.popleft()
        text, top, note = answer()
        if note == LOGPROBS_UNAVAILABLE_NOTE:
            logprobs_available = False
        line = _result_line(query, text, top, judged, note)
        answered[query.key] = line
        _append_line(fh, line)
        queried += 1

    try:
        with path.open("a") as fh:
            # drop any torn tail so appends start on a line boundary
            fh.truncate(len(complete))
            if not complete:
                fh.write(header_line)
                fh.flush()
            for query in plan_queries(config, datasets):
                if query.key in answered:
                    skipped += 1
                    continue
                # a completion that may ask for top logprobs (the logprob
                # lane), and a judgment whose pair is not yet committed, wait
                # for every line before them
                if (query.task is Task.COMPLETION and logprobs_available) or (
                    query.task is Task.CONSISTENCY_JUDGMENT
                    and not all(key in answered for key in _pair_keys(query))
                ):
                    while pending:
                        commit(fh)
                pending.append(
                    _execute_query(
                        config,
                        query,
                        backend,
                        space,
                        answered,
                        logprobs_available,
                        dispatch.submit,
                    )
                )
                while len(pending) > dispatch.window:
                    commit(fh)
            while pending:
                commit(fh)
    except BackendError as exc:
        audit.log(f"abort campaign={config.digest()} after {queried} queries: {exc}")
        return CampaignOutcome(path, queried, skipped, failed=True, error=str(exc))
    finally:
        dispatch.close()

    audit.log(
        f"finish campaign={config.digest()} queried={queried} skipped={skipped}"
    )
    return CampaignOutcome(path, queried, skipped)


class _Dispatch:
    """Where backend calls run. With one worker a call is made inline when
    its answer is read; with more, on a pool of that many threads, and the
    run loop keeps at most ``window`` queries dispatched ahead of the oldest
    uncommitted line."""

    def __init__(self, workers: int):
        self._pool = None
        self.window = 0
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(workers, "ambigseq-backend")
            self.window = 4 * workers

    def submit(self, fn: Callable, *args) -> Callable[[], Any]:
        """A no-argument callable that returns ``fn(*args)`` or raises what
        it raised."""
        if self._pool is None:
            return partial(fn, *args)
        return self._pool.submit(fn, *args).result

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)


def _append_line(fh: TextIO, line: dict) -> None:
    fh.write(canonical_json(line) + "\n")
    fh.flush()


def _pair_keys(query: PlannedQuery) -> tuple[tuple, tuple]:
    """Plan keys of the completion and explanation a judgment query judges:
    the same run's answers for the same sequence."""
    length, run_id, _, values, base = query.key
    return (
        (length, run_id, Task.COMPLETION.value, values, base),
        (length, run_id, Task.EXPLANATION.value, values, base),
    )


def _judged_pair(answered: dict, query: PlannedQuery, path: Path) -> JudgedPair | None:
    """The model's own (explanation function, completion value) for this
    run+sequence, if both parsed; the run stage's only parse of the
    explanation line. An explanation line of ``path`` (the results file)
    whose parsed value does not parse is a :class:`CampaignError` naming
    ``path:N``: ``answered`` holds the file's record lines in file order."""
    compl_key, expl_key = _pair_keys(query)
    compl, expl = answered.get(compl_key), answered.get(expl_key)
    if not (compl and expl and compl["valid"] and expl["valid"]):
        return None
    from .funcspace import ParseError, parse

    try:
        fn = parse(expl["parsed"]["value"])
    except ParseError as exc:
        where = f"{path}:{list(answered).index(expl_key) + 2}"
        raise line_error(where, expl, f"its parsed value does not parse: {exc}") from exc
    return fn, compl["parsed"]["value"]


def _execute_query(
    config: CampaignConfig,
    query: PlannedQuery,
    backend: Backend,
    space: FunctionSpace,
    answered: dict,
    logprobs_available: bool,
    submit: Callable,
) -> tuple[PlannedQuery, JudgedPair | None, Callable]:
    """Build the query's prompt and hand its backend call to ``submit``.

    Returns the query's pending line: (query, judged pair, answer), where
    ``answer()`` gives the (text, top logprobs, note) to build it from.
    """
    judged = None
    if query.task is Task.CONSISTENCY_JUDGMENT:
        judged = _judged_pair(answered, query, results_path(config.output_dir))
        if judged is None:
            # nothing coherent to judge; the empty answer files as invalid
            note = "no parseable completion/explanation pair to judge"
            return query, None, lambda: ("", None, note)

    spec = PromptSpec(
        task=query.task,
        variant=config.variant_enum,
        base=config.base,
        n_shots=config.n_shots,
        shot_sampling=config.shot_sampling_enum,
        rng_seed=prompt_seed(config, query),
        role_text=config.role_text,
        model_name=config.model_name,
    )
    prompt = build_prompt(spec, query.record.sequence, space, judged)
    want_logprobs = (
        config.want_top_logprobs
        if (query.task is Task.COMPLETION and logprobs_available)
        else 0
    )
    return query, judged, submit(_ask, backend, prompt, want_logprobs)


def _ask(
    backend: Backend, prompt: RenderedPrompt, want_logprobs: int
) -> tuple[str, TokenDistribution | None, str | None]:
    """The backend's (text, top logprobs, note) for ``prompt``; the only
    step of a query that runs on a worker thread."""
    note = None
    try:
        response = backend.complete(
            CompletionRequest(prompt, want_top_logprobs=want_logprobs)
        )
    except LogprobsUnsupportedError:
        # backend cannot report distributions: drop the capture and move on
        note = LOGPROBS_UNAVAILABLE_NOTE
        response = backend.complete(CompletionRequest(prompt))
    return response.text, response.first_token_top_logprobs, note


def _result_line(
    query: PlannedQuery,
    text: str,
    top: TokenDistribution | None,
    judged: JudgedPair | None,
    note: str | None,
) -> dict:
    """The one builder of a result line: the answer ``text`` parsed and
    scored against the query's sequence, plus the query's plan fields and
    whatever the backend captured."""
    # looked up on the module at each call, so a rebinding of it is seen
    from .evaluation import eval_record_to_json

    record = query.record
    scored = annotate_correctness(
        build_eval_record(query.task, record.sequence, text, run_id=query.run_id),
        record,
    )
    return {
        **eval_record_to_json(scored),
        "length": query.length,
        "ambiguous": record.is_ambiguous,
        "continuations": sorted(record.continuations),
        "top_logprobs": top.to_pairs() if top else None,
        "judged": judged and {
            "explanation": render_function(judged[0], record.sequence.base),
            "completion": judged[1],
        },
        "note": note,
    }
