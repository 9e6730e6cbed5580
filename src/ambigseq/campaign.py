"""Campaign execution: drive one backend over mined datasets, write results.

The results file is line-oriented JSON: a header (format, schema version,
config, config digest, dataset filenames) followed by one record per backend
query. Record lines carry no wall-clock data, so a repeat run with the same
config and a deterministic backend reproduces the file byte for byte;
timestamps go to a sidecar ``audit.log``. Lines are committed in plan
order, so the file is a prefix of :func:`plan_queries`: record line N
answers query N, and a reader checks each line against its query (see
:func:`_line_problem`). Reruns resume: the plan continues past the lines
present, an unterminated trailing line from an interrupted run is truncated
away (every line is written with its newline), and the remainder is
appended in the same canonical order. A resume holds only the lines of the
run it resumes in that the run's judgments read.

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
from itertools import takewhile
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, TextIO

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
from .mining import AmbiguityRecord, Dataset, DatasetParameters, load_dataset
from .prompting import ANSWERS, JudgedPair, PromptSpec, RenderedPrompt, Task, build_prompt

RESULTS_FORMAT = "ambigseq.results"
RESULTS_VERSION = 1
RESULTS_FILENAME = "results.jsonl"
AUDIT_FILENAME = "audit.log"

LOGPROBS_UNAVAILABLE_NOTE = "top logprobs unavailable from backend"


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

    @property
    def plan_fields(self) -> tuple:
        """The fields of its results line that the query fixes, as the line
        records them: sequence, task, run id, length, ambiguity and sorted
        continuations."""
        record = self.record
        return (
            {"values": list(record.sequence.values), "base": record.sequence.base},
            self.task.value,
            self.run_id,
            self.length,
            record.is_ambiguous,
            sorted(record.continuations),
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


def read_header(path: str | Path) -> tuple[dict, CampaignConfig]:
    """The header of the results file at ``path`` and the config it holds;
    a :class:`CampaignError` unless it is the header that config writes."""
    path = Path(path)
    with path.open("rb") as fh:
        return _check_header(path, fh.readline())


def read_results(
    path: str | Path, datasets: dict[int, Dataset] | None = None
) -> tuple[dict, list[dict]]:
    """The header and the record lines of a results file, read with the
    collector paused.

    Line N must answer query N of the plan of the header's config over
    ``datasets`` (by default loaded from the dataset files beside ``path``);
    see :func:`_line_problem`. A trailing line without its newline (an
    interrupted write) is dropped, even when it holds a whole record.
    """
    path = Path(path)
    with collector_paused(), path.open("rb") as fh:
        header, config = _check_header(path, fh.readline())
        if datasets is None:
            datasets = load_campaign_datasets(config.override(output_dir=str(path.parent)))
        plan = plan_queries(config, datasets)
        return header, [
            {**_SHARED_KEYS, **line} for _, _, _, line in _record_lines(path, fh, plan)
        ]


def _check_header(path: Path, first: bytes) -> tuple[dict, CampaignConfig]:
    """The header line ``first`` of the results file at ``path`` and its
    config, if it is the header that config writes."""
    if not first.endswith(b"\n"):
        raise CampaignError(f"{path}: empty results file (no complete header line)")
    try:
        text = first[:-1].decode()
        header = json.loads(text)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CampaignError(f"{path}: unreadable header line ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != RESULTS_FORMAT:
        raise CampaignError(f"{path}: not a results file (header {text[:80]!r})")
    if header.get("version") != RESULTS_VERSION:
        raise CampaignError(
            f"{path}: results schema version {header.get('version')!r} "
            f"unsupported (expected {RESULTS_VERSION})"
        )
    missing = [k for k in ("config", "config_digest", "datasets") if k not in header]
    if missing:
        raise CampaignError(f"{path}: results header lacks {', '.join(missing)}")
    try:
        config = CampaignConfig.from_json(header["config"])
    except ConfigError as exc:
        raise CampaignError(f"{path}: results header config: {exc}") from exc
    if canonical_json(header) != canonical_json(_results_header(config)):
        raise CampaignError(f"{path}: results header is not the one its config writes")
    return header, config


#: The fields of a record line, as :func:`_line_problem` reads them: first
#: the plan fields, which the line's query fixes.
_FIELDS = (
    "sequence", "task", "run_id", "length", "ambiguous", "continuations",
    "raw_response", "parsed", "valid", "correct", "top_logprobs", "judged", "note",
)
_PLAN_FIELDS = _FIELDS[:6]
_fields_of = itemgetter(*_FIELDS)
#: The key strings of every line :func:`read_results` returns. Each
#: ``json.loads`` call makes its own, more than a third of a decoded line.
_SHARED_KEYS = dict.fromkeys(_FIELDS)
_INT = {int}


def _record_lines(
    path: Path, fh: BinaryIO, plan: Iterator[PlannedQuery]
) -> Iterator[tuple[int, int, PlannedQuery, dict]]:
    """The record lines of the results file at ``path``, read from ``fh``
    after its header line: (line number, end offset of the line, the query
    it answers, the line). Line N is decoded and checked by
    :func:`_line_problem` against the query ``plan`` gives next; the first
    line that fails is a :class:`CampaignError` naming ``path:N``. An
    unterminated last line (a torn write) is not read."""
    end = fh.tell()
    complete = takewhile(lambda raw: raw.endswith(b"\n"), fh)
    for n, raw in enumerate(complete, start=2):
        query = next(plan, None)
        try:
            line = json.loads(raw[:-1].decode())
        except UnicodeDecodeError:
            problem = "not UTF-8"
        except json.JSONDecodeError as exc:
            problem = str(exc)
        else:
            problem = _line_problem(line, query)
        if problem:
            raise CampaignError(f"{path}:{n}: malformed record line ({problem})")
        end += len(raw)
        yield n, end, query, line


def _line_problem(line: Any, query: PlannedQuery | None) -> str | None:
    """What keeps ``line``, as JSON reads it, from being the results line of
    ``query`` (None past the plan's end); None when nothing does.

    The line must hold :data:`_FIELDS` and no other field. Its plan fields
    must equal the query's, as values of their own types. Its ``parsed``
    must be what the task's :data:`~ambigseq.prompting.ANSWERS` entry
    records, and ``valid`` a boolean, true only if that is a value (the
    analysis reads the value of a valid line); ``correct`` a boolean or
    null, ``note`` text or null; ``top_logprobs`` null or a list
    :class:`TokenDistribution` takes (a line records what the backend
    returned, and a scripted answer may carry them on any task); ``judged``
    null or, on a judgment line, an explanation text and a completion
    integer.
    """
    if query is None:
        return "past the last planned query"
    if type(line) is not dict:
        return "not a JSON object"
    try:
        (sequence, task, run_id, length, ambiguous, continuations,
         raw, parsed, valid, correct, top, judged, note) = _fields_of(line)
    except KeyError as exc:
        return f"no {exc.args[0]}"
    if len(line) != len(_FIELDS):
        return f"unknown field {next(f for f in line if f not in _FIELDS)!r}"
    planned = query.plan_fields
    if (
        (sequence, task, run_id, length, ambiguous, continuations) != planned
        or type(run_id) is not int
        or type(length) is not int
        or type(ambiguous) is not bool
        or type(sequence["base"]) is not int
        or not {*map(type, sequence["values"]), *map(type, continuations)} <= _INT
    ):
        expected = dict(zip(_PLAN_FIELDS, planned))
        field = next(
            f for f in _PLAN_FIELDS if canonical_json(line[f]) != canonical_json(expected[f])
        )
        return (
            f"the plan puts {_query_text(expected)} here, not a line whose "
            f"{field} is {canonical_json(line[field])}"
        )
    is_value = ANSWERS[query.task].records_value(parsed)
    if type(raw) is not str:
        problem = "raw_response is not text"
    elif is_value is None:
        problem = f"parsed is not a {task} answer as a results line records it"
    elif type(valid) is not bool:
        problem = f"valid is {canonical_json(valid)}, not a boolean"
    elif valid and not is_value:
        problem = "valid is true, but parsed records no value"
    elif not (correct is None or type(correct) is bool):
        problem = "correct is neither a boolean nor null"
    elif not (note is None or type(note) is str):
        problem = "note is neither text nor null"
    elif judged is not None and not (
        query.task is Task.CONSISTENCY_JUDGMENT
        and type(judged) is dict
        and judged.keys() == {"explanation", "completion"}
        and type(judged["explanation"]) is str
        and type(judged["completion"]) is int
    ):
        problem = "judged is not null, nor a judgment line's explanation and completion"
    elif top is None:
        return None
    else:
        try:
            TokenDistribution.from_pairs(top)
            return None
        except ValueError as exc:
            problem = f"malformed top_logprobs: {exc}"
    return f"{_query_text(line)}: {problem}"


def _query_text(line: dict) -> str:
    """The query a record line answers, as an error names it."""
    return (
        f"the {line['task']} line of run {line['run_id']} for sequence "
        f"{list(line['sequence']['values'])} at length {line['length']}"
    )


def line_error(where: str | Path, line: dict, problem: str) -> CampaignError:
    """A record line that cannot be read, at ``where`` (its file, or file:N)."""
    return CampaignError(f"{where}: malformed record line ({_query_text(line)}: {problem})")


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
    plan = plan_queries(config, datasets)
    run = _RunLines()
    size, skipped, fallback = _resume_point(path, config, header_line, plan, run)
    if size:
        audit.log(f"resume campaign={config.digest()} existing_records={skipped}")
    else:
        audit.log(f"start campaign={config.digest()} backend={backend.backend_id}")

    queried = 0
    # capture stays off across a resume once a line on file has recorded the
    # fallback, as it does in an uninterrupted run
    logprobs_available = config.want_top_logprobs > 0 and not fallback
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
        run.add(skipped + queried + 2, query, line)
        _append_line(fh, line)
        queried += 1

    try:
        with path.open("a") as fh:
            # drop any torn tail so appends start on a line boundary
            fh.truncate(size)
            if not size:
                fh.write(header_line)
                fh.flush()
            # the plan past the queries the file answers
            for query in plan:
                # a completion that may ask for top logprobs (the logprob
                # lane), and a judgment whose pair is not yet committed, wait
                # for every line before them
                if (query.task is Task.COMPLETION and logprobs_available) or (
                    query.task is Task.CONSISTENCY_JUDGMENT
                    and None in run.pair(query)
                ):
                    while pending:
                        commit(fh)
                pending.append(
                    _execute_query(
                        config,
                        query,
                        backend,
                        space,
                        run,
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


def _resume_point(
    path: Path,
    config: CampaignConfig,
    header_line: str,
    plan: Iterator[PlannedQuery],
    run: _RunLines,
) -> tuple[int, int, bool]:
    """Where ``config``'s campaign resumes the results file at ``path``: the
    byte length of its complete lines (0 to start afresh), its record lines,
    and whether one records the logprob fallback. The lines are read with
    the collector paused, each against the next query of ``plan`` and then
    added to ``run``; ``plan`` is left at the first query they do not
    answer. The file of another campaign is a :class:`CampaignError`."""
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        return 0, 0, False
    with fh, collector_paused():
        first = fh.readline()
        if not first.endswith(b"\n"):
            if header_line.encode().startswith(first):
                # empty, or cut inside this campaign's own header line
                return 0, 0, False
            raise CampaignError(
                f"{path} has no complete line and is not this campaign's header "
                "cut short — use a fresh output directory"
            )
        header, _ = _check_header(path, first)
        if header["config_digest"] != config.digest():
            raise CampaignError(
                f"{path} belongs to campaign {header['config_digest']}, "
                f"this config is {config.digest()} — use a fresh output directory"
            )
        size, count, fallback = len(first), 0, False
        for n, size, query, line in _record_lines(path, fh, plan):
            run.add(n, query, line)
            fallback = fallback or line["note"] == LOGPROBS_UNAVAILABLE_NOTE
            count = n - 1
        return size, count, fallback


class _RunLines:
    """The completion and explanation lines of one run of the plan, by
    sequence values, each with its line number: what the run's judgments
    read. Lines are added in plan order, and the first line of the next run
    drops them."""

    def __init__(self) -> None:
        self.run: tuple[int, int] | None = None
        self.completions: dict[tuple, tuple[int, dict]] = {}
        self.explanations: dict[tuple, tuple[int, dict]] = {}

    def add(self, n: int, query: PlannedQuery, line: dict) -> None:
        """Add ``line``, line ``n`` of the results file, the answer to ``query``."""
        if (query.length, query.run_id) != self.run:
            self.run, self.completions, self.explanations = (query.length, query.run_id), {}, {}
        if query.task is Task.COMPLETION:
            self.completions[query.record.sequence.values] = (n, line)
        elif query.task is Task.EXPLANATION:
            self.explanations[query.record.sequence.values] = (n, line)

    def pair(self, query: PlannedQuery) -> tuple[tuple[int, dict] | None, ...]:
        """The completion and the explanation lines that ``query``, a
        judgment, judges, each with its line number: its run's answers for
        its sequence, or None while not added."""
        if (query.length, query.run_id) != self.run:
            return None, None
        values = query.record.sequence.values
        return self.completions.get(values), self.explanations.get(values)


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


def _judged_pair(run: _RunLines, query: PlannedQuery, path: Path) -> JudgedPair | None:
    """The model's own (explanation function, completion value) for this
    run+sequence, if both parsed; the run stage's only parse of the
    explanation line. An explanation line of ``path`` (the results file)
    whose parsed value does not parse is a :class:`CampaignError` naming
    ``path:N``."""
    compl, expl = run.pair(query)
    if not (compl and expl and compl[1]["valid"] and expl[1]["valid"]):
        return None
    from .funcspace import ParseError, parse

    (_, compl), (n, expl) = compl, expl
    try:
        fn = parse(expl["parsed"]["value"])
    except ParseError as exc:
        raise line_error(f"{path}:{n}", expl, f"its parsed value does not parse: {exc}") from exc
    return fn, compl["parsed"]["value"]


def _execute_query(
    config: CampaignConfig,
    query: PlannedQuery,
    backend: Backend,
    space: FunctionSpace,
    run: _RunLines,
    logprobs_available: bool,
    submit: Callable,
) -> tuple[PlannedQuery, JudgedPair | None, Callable]:
    """Build the query's prompt and hand its backend call to ``submit``.

    Returns the query's pending line: (query, judged pair, answer), where
    ``answer()`` gives the (text, top logprobs, note) to build it from.
    """
    judged = None
    if query.task is Task.CONSISTENCY_JUDGMENT:
        judged = _judged_pair(run, query, results_path(config.output_dir))
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
