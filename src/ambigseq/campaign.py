"""Campaign execution: drive one backend over mined datasets, write results.

The datasets are mined on the config's space, and each is compared with its
``dataset_L*.jsonl`` file in the output directory (see
:func:`ambigseq.mining.load_dataset`): a file that is not what the config's
parameters mine, ``config_digest`` aside, is refused, so a campaign runs over
exactly the mined split.

The results file is line-oriented JSON: a header (format, schema version,
config, config digest, dataset filenames) followed by one record per backend
query. Record lines carry no wall-clock data, so a repeat run with the same
config and a deterministic backend reproduces the file byte for byte;
timestamps go to a sidecar ``audit.log``. Lines are committed in plan
order, so the file is a prefix of :func:`plan_queries`: record line N
answers query N, and a reader checks each line against its query (see
:func:`_record_lines`). Reruns resume: the plan continues past the lines
present, an unterminated trailing line from an interrupted run is truncated
away (every line is written with its newline), and the remainder is
appended in the same canonical order. A resume holds only the lines of the
run it resumes in that the run's judgments read: the completion and
explanation lines of its ambiguous records.

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
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, TextIO

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
from .mining import AmbiguityRecord, Dataset, load_dataset
from .prompting import JudgedPair, PromptSpec, RenderedPrompt, Task, build_prompt

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


def load_campaign_datasets(config: CampaignConfig, space: FunctionSpace) -> dict[int, Dataset]:
    """The config's datasets, mined on ``space`` (the config's) and checked
    against their files by :func:`load_dataset`."""
    out_dir = Path(config.output_dir)
    datasets = {}
    for length in config.lengths:
        path = out_dir / dataset_filename(length)
        if not path.exists():
            raise CampaignError(
                f"dataset file {path} not found — run the mine stage first"
            )
        datasets[length] = load_dataset(path, space, length, config.base)
    return datasets


# ---------------------------------------------------------------------------
# campaign plan


class PlannedQuery(NamedTuple):
    """One backend query of the plan: the ``task`` asked of ``record``'s
    sequence in run ``run_id`` of the dataset of ``length``."""

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
    path: str | Path,
    datasets: dict[int, Dataset] | None = None,
    consume: Callable[[dict], Any] | None = None,
) -> tuple[dict, list[dict]]:
    """The header and the record lines of a results file, read with the
    collector paused.

    Line N must answer query N of the plan of the header's config over
    ``datasets`` (by default mined on the config's space and checked against
    the dataset files beside ``path``); see :func:`_record_lines`. A
    trailing line without its newline (an interrupted write) is dropped,
    even when it holds a whole record.

    Each line is handed to ``consume`` as soon as it is checked, in file
    order, and the whole read (``consume`` included) runs inside this call.
    By default ``consume`` collects the lines into the returned list; with
    one given, the list is empty and the caller keeps what it needs: the
    read itself holds one line at a time.

    The lines are read-only: they share their field-name strings, the
    lines of a record its ``sequence`` and ``continuations`` objects, those
    of a task its ``task`` text, and those that got the same answer to the
    same task on the same record its ``raw_response`` text and ``parsed``
    object (see :func:`_record_lines`). Nothing in ``ambigseq`` edits a line it has
    read.
    """
    path = Path(path)
    lines: list[dict] = []
    consume = consume or lines.append
    with collector_paused(), path.open("rb") as fh:
        header, config = _check_header(path, fh.readline())
        if datasets is None:
            datasets = load_campaign_datasets(
                config.override(output_dir=str(path.parent)), config_space(config)
            )
        plan = plan_queries(config, datasets)
        for _, _, _, line in _record_lines(path, fh, plan):
            consume(line)
        return header, lines


def _check_header(path: Path, first: bytes) -> tuple[dict, CampaignConfig]:
    """The header line ``first`` of the results file at ``path`` and its
    config, if it is the header that config writes."""
    if not first.endswith(b"\n"):
        raise CampaignError(f"{path}: empty results file (no complete header line)")
    try:
        text = first[:-1].decode()
        header = json.loads(text)
        written = canonical_json(header)
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, or nested too deep to decode or to write again
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
    if written != canonical_json(_results_header(config)):
        raise CampaignError(f"{path}: results header is not the one its config writes")
    return header, config


#: The fields of a record line, in the order a refusal names the first at
#: fault: the plan fields, which the line's query fixes (see
#: :func:`_plan_half`), the answer fields, which its ``raw_response`` scores
#: to, and what the backend captured.
_FIELDS = (
    "sequence", "task", "run_id", "length", "ambiguous", "continuations",
    "raw_response", "parsed", "valid", "correct", "top_logprobs", "judged", "note",
)
_PLAN_FIELDS = _FIELDS[:6]
_SCORED_FIELDS = ("parsed", "valid", "correct")
_fields_of = itemgetter(*_FIELDS)
_INT = {int}
_JUDGED = {"explanation", "completion"}
_raw_decode = json.JSONDecoder().raw_decode


def _record_lines(
    path: Path, fh: BinaryIO, plan: Iterator[PlannedQuery]
) -> Iterator[tuple[int, int, PlannedQuery, dict]]:
    """The record lines of the results file at ``path``, read from ``fh``
    after its header line: (line number, end offset of the line, the query
    it answers, the line). An unterminated last line (a torn write) is not
    read.

    Line N is decoded by itself (see :func:`_decoded`) and checked against
    the query ``plan`` gives next by one chain of tests. It passes when it
    holds :data:`_FIELDS` and no other field, and each of these holds with
    the JSON types the writer writes (``True == 1 == 1.0``, so booleans and
    null are compared by identity and the numbers in a list by type):

    - its plan fields are the query's;
    - its ``raw_response`` is text, and its ``parsed``, ``valid`` and
      ``correct`` are what :func:`_answer_fields` scores that text to;
    - ``note`` is text or null;
    - ``judged`` is null or, on a judgment line, an explanation text and a
      completion integer;
    - ``top_logprobs`` is null or a list :class:`TokenDistribution` takes (a
      line records what the backend returned, and a scripted answer may
      carry them on any task).

    The first line that fails is a :class:`CampaignError` naming
    ``path:N``, in the words of :func:`_line_problem`.

    What the chain reads is looked up once per read: each task's text, each
    record's ``json_fields`` and ambiguity, and each score, kept by task,
    text and record (a record is keyed by identity, as hashing it would hash
    every field, and the plan holds each for the read). A line that passes
    is built again, so that every line read shares its field-name strings
    (each decode makes its own). It holds its record's ``json_fields``
    objects, which every line of the record shares, and the answer fields
    scored for the first line read with its task, record and
    ``raw_response``: the check showed that each equals what the line held,
    with the same types. So the lines are read-only; a caller that edits one
    edits every line sharing it."""
    end = fh.tell()
    answers: dict[tuple, dict] = {}
    records: dict[int, tuple[dict, list, bool]] = {}
    # by identity: hashing a Task, as reading its .value, is a Python call
    tasks = {id(task): task.value for task in Task}
    judgment = Task.CONSISTENCY_JUDGMENT
    from_pairs = TokenDistribution.from_pairs

    def checked(line: Any, query: PlannedQuery | None) -> dict | str:
        """``line`` built again if it is the results line of ``query``;
        else the part of the chain it fails, as :func:`_line_problem` takes
        it."""
        if query is None:
            return "past"
        if type(line) is not dict or len(line) != len(_FIELDS):
            return "fields"
        try:
            (sequence, task, run_id, length, ambiguous, continuations,
             text, parsed, valid, correct, top, judged, note) = _fields_of(line)
        except KeyError:
            return "fields"
        record = query.record
        planned = records.get(id(record))
        if planned is None:
            planned = records[id(record)] = (*record.json_fields, record.is_ambiguous)
        planned_sequence, planned_continuations, planned_ambiguous = planned
        task_text = tasks[id(query.task)]
        if not (
            task == task_text
            and run_id == query.run_id and type(run_id) is int
            and length == query.length and type(length) is int
            and ambiguous is planned_ambiguous
            and sequence == planned_sequence and type(sequence["base"]) is int
            and continuations == planned_continuations
            and {*map(type, sequence["values"]), *map(type, continuations)} <= _INT
        ):
            return "plan"
        if type(text) is not str:
            return "answer"
        key = (task_text, text, id(record))
        answer = answers.get(key)
        if answer is None:
            answer = answers[key] = _answer_fields(query, text)
        scored = answer["parsed"]
        if not (
            valid is answer["valid"]
            and correct is answer["correct"]
            and parsed == scored
            and type(value := parsed.get("value")) is type(scored.get("value"))
            and (type(value) is not list or {*map(type, value)} <= _INT)
        ):
            return "answer"
        if not (note is None or type(note) is str):
            return "note"
        if not (judged is None or (
            query.task is judgment
            and type(judged) is dict
            and judged.keys() == _JUDGED
            and type(judged["explanation"]) is str
            and type(judged["completion"]) is int
        )):
            return "judged"
        if top is not None:
            try:
                from_pairs(top)
            except ValueError:
                return "top_logprobs"
        return {
            "sequence": planned_sequence, "task": task_text, "run_id": run_id,
            "length": length, "ambiguous": ambiguous,
            "continuations": planned_continuations, **answer,
            "top_logprobs": top, "judged": judged, "note": note,
        }

    for n, raw in enumerate(fh, 2):
        if not raw.endswith(b"\n"):
            return  # a torn write
        query = next(plan, None)
        try:
            decoded = _decoded(raw)
        except UnicodeDecodeError:
            problem = "not UTF-8"
        except (ValueError, RecursionError) as exc:
            # not JSON, an integer of too many digits, or nested too deep
            problem = str(exc)
        else:
            try:
                line = checked(decoded, query)
                problem = None if type(line) is dict else _line_problem(
                    answers, line, decoded, query
                )
            except RecursionError as exc:  # a value too deep to compare or to name
                problem = str(exc)
        if problem is not None:
            raise CampaignError(f"{path}:{n}: malformed record line ({problem})")
        end += len(raw)
        yield n, end, query, line


def _decoded(raw: bytes) -> Any:
    """The JSON value of ``raw``, a results line with its newline, as
    ``json.loads`` reads it. ``raw_decode`` reads a line as the writer
    writes it in one scan, without ``json.loads``' two whitespace matches. A
    line it refuses, or one with anything after the value, goes through
    ``json.loads``, so blanks around a line are read and every refusal has
    ``json.loads``' words (a byte-order mark, ``Extra data``, nesting too
    deep)."""
    text = raw[:-1].decode()
    try:
        value, stop = _raw_decode(text)
    except (ValueError, RecursionError):
        return json.loads(text)
    return value if stop == len(text) else json.loads(text)


def _line_problem(answers: dict, part: str, line: Any, query: PlannedQuery | None) -> str:
    """The words for the refusal of ``line``, as JSON reads it, as the
    results line of ``query`` by ``part`` of the chain of
    :func:`_record_lines`, with the scored ``answers`` of the read. Where
    the part compares fields with what the writer writes, they name the
    first field whose canonical JSON differs. They decide nothing."""
    if part == "past":
        return "past the last planned query"
    if part == "fields":
        if type(line) is not dict:
            return "not a JSON object"
        missing = [f for f in _FIELDS if f not in line]
        if missing:
            return f"no {missing[0]}"
        return f"unknown field {next(f for f in line if f not in _FIELDS)!r}"
    if part == "plan":
        expected = _plan_half(query)
        field = next(
            f for f in _PLAN_FIELDS if canonical_json(line[f]) != canonical_json(expected[f])
        )
        return (
            f"the plan puts {_query_text(expected)} here, not a line whose "
            f"{field} is {canonical_json(line[field])}"
        )
    if part == "answer" and type(line["raw_response"]) is str:
        answer = answers[line["task"], line["raw_response"], id(query.record)]
        field = next(
            f for f in _SCORED_FIELDS if canonical_json(line[f]) != canonical_json(answer[f])
        )
        problem = (
            f"{field} is {canonical_json(line[field])}, where this version of "
            f"ambigseq scores its raw_response {canonical_json(answer[field])}"
        )
    elif part == "top_logprobs":
        try:
            TokenDistribution.from_pairs(line["top_logprobs"])
        except ValueError as exc:
            problem = f"malformed top_logprobs: {exc}"
    else:
        problem = {
            "answer": "raw_response is not text",
            "note": "note is neither text nor null",
            "judged": "judged is not null, nor a judgment line's explanation and completion",
        }[part]
    return f"{_query_text(line)}: {problem}"


def _query_text(line: dict) -> str:
    """The query a record line answers, as an error names it."""
    return (
        f"the {line['task']} line of run {line['run_id']} for sequence "
        f"{list(line['sequence']['values'])} at length {line['length']}"
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
    datasets = load_campaign_datasets(config, space)
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
    """The completion and explanation lines of one run of the plan's
    ambiguous records, by sequence values, each with its line number: what
    the run's judgments read (:func:`_task_targets` gives judgments only
    ambiguous records). Lines are added in plan order; a line of an
    unambiguous record is not kept, and the first line of the next run drops
    those kept."""

    def __init__(self) -> None:
        self.run: tuple[int, int] | None = None
        self.completions: dict[tuple, tuple[int, dict]] = {}
        self.explanations: dict[tuple, tuple[int, dict]] = {}

    def add(self, n: int, query: PlannedQuery, line: dict) -> None:
        """Add ``line``, line ``n`` of the results file, the answer to ``query``."""
        if (query.length, query.run_id) != self.run:
            self.run, self.completions, self.explanations = (query.length, query.run_id), {}, {}
        if not query.record.is_ambiguous:
            return
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


def _judged_pair(run: _RunLines, query: PlannedQuery) -> JudgedPair | None:
    """The model's own (explanation function, completion value) for this
    run+sequence, if both parsed; the run stage's only parse of the
    explanation line, whose function text the writer wrote (see
    :func:`_record_lines`)."""
    compl, expl = run.pair(query)
    if not (compl and expl and compl[1]["valid"] and expl[1]["valid"]):
        return None
    from .funcspace import parse

    return parse(expl[1]["parsed"]["value"]), compl[1]["parsed"]["value"]


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
        judged = _judged_pair(run, query)
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
    """The one builder of a result line: the query's plan fields (see
    :func:`_plan_half`), the answer ``text`` parsed and scored against the
    query's record, and whatever the backend captured."""
    base = query.record.sequence.base
    return {
        **_plan_half(query),
        **_answer_fields(query, text),
        "top_logprobs": top.to_pairs() if top else None,
        "judged": judged and {
            "explanation": render_function(judged[0], base),
            "completion": judged[1],
        },
        "note": note,
    }


def _plan_half(query: PlannedQuery) -> dict:
    """The fields of ``query``'s results line that the query fixes:
    sequence, task, run id, length, ambiguity and ascending continuations.
    The sequence and the continuations are the record's
    :attr:`~ambigseq.mining.AmbiguityRecord.json_fields`, which every line
    of the record holds, written or read."""
    record = query.record
    sequence, continuations = record.json_fields
    return {
        "sequence": sequence, "task": query.task.value, "run_id": query.run_id,
        "length": query.length, "ambiguous": record.is_ambiguous,
        "continuations": continuations,
    }


def _answer_fields(query: PlannedQuery, text: str) -> dict:
    """The answer half of ``query``'s results line for the answer ``text``:
    the text, parsed and scored against the query's record. The writer
    builds each line's from it, and the reader checks each line's by it."""
    # looked up on the module at each call, so a rebinding of it is seen
    from .evaluation import eval_record_to_json

    record = query.record
    base = record.sequence.base
    return eval_record_to_json(
        annotate_correctness(build_eval_record(query.task, text, base), record)
    )
