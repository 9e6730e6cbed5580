"""Campaign configuration: one serializable object drives every stage.

A config round-trips through JSON; its digest (sha256 of the canonical JSON,
minus storage-location keys) names the campaign and is stamped into every
artifact the campaign or the analysis stage writes, so mismatched files are
detectable. What a backend needs of a config (its settings, the tasks it
answers, its default calls in flight) is read from its ``BACKENDS`` entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any

from .backends import BACKENDS, TIE_BREAKS
from .distribution import MAX_TOP_K
from .funcspace import BASES
from .mining import canonical_json, check_fields, decode_json
from .prompting import ShotSampling, Task, Variant

DEFAULT_TASKS = tuple(task.value for task in Task)

# The allowed values of each field that has a fixed set of them; a tuple
# field's every element must be one. The CLI offers the same sets as choices.
CHOICES: dict[str, tuple] = {
    "base": BASES,
    "variant": tuple(v.value for v in Variant),
    "shot_sampling": tuple(s.value for s in ShotSampling),
    "backend": tuple(BACKENDS),
    "tie_break": tuple(TIE_BREAKS),
    "tasks": DEFAULT_TASKS,
}

# Pure storage locations: they never change what a campaign computes, so they
# are excluded from the campaign digest and from the results-file header.
STORAGE_KEYS = ("output_dir", "cache_dir")
# How a campaign is executed, not what it computes: the results file is the
# same for every value, so these are excluded likewise.
EXECUTION_KEYS = ("concurrency",)

MAX_CONCURRENCY = 64


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a mine/run/analyze cycle needs, in one flat record."""

    # dataset
    constant_range: tuple[int, int] = (0, 4)
    lengths: tuple[int, ...] = (4,)
    base: int = 10
    start_index: int = 1
    max_offset: int = 4

    # prompting
    variant: str = Variant.PLAIN.value
    n_shots: int | None = None  # None = per-task default
    shot_sampling: str = ShotSampling.RANDOM.value
    role_text: str | None = None
    model_name: str | None = None

    # backend
    backend: str = "oracle"
    backend_seed: int = 0
    tie_break: str = "min_value"
    http_base_url: str | None = None
    http_model: str | None = None
    api_key_env: str = "AMBIGSEQ_API_KEY"
    fixtures_file: str | None = None
    cache_dir: str | None = None
    concurrency: int | None = None  # None = by backend, see ``workers``

    # campaign
    tasks: tuple[str, ...] = DEFAULT_TASKS
    n_runs: int = 3
    rng_seed: int = 0
    want_top_logprobs: int = 5
    limit_sequences: int | None = None
    output_dir: str = "results"

    def __post_init__(self) -> None:
        try:
            check_fields(self)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        self.validate()

    def validate(self) -> None:
        lo, hi = self.constant_range
        if lo > hi or lo < 0:
            raise ConfigError(f"bad constant_range {self.constant_range}")
        if not self.lengths or any(n < 1 for n in self.lengths):
            raise ConfigError(f"bad lengths {self.lengths}")
        for name in ("lengths", "tasks"):
            value = getattr(self, name)
            if len(set(value)) < len(value):
                raise ConfigError(f"{name} repeat a value: {value}")
        if self.start_index < 0:
            raise ConfigError(f"bad start_index {self.start_index}")
        if self.max_offset < 0:
            raise ConfigError(f"bad max_offset {self.max_offset}")
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            for item in value if isinstance(value, tuple) else (value,):
                if item not in allowed:
                    raise ConfigError(
                        f"unknown {name} {item!r}; expected one of {allowed}"
                    )
        entry = BACKENDS[self.backend]
        if not all(getattr(self, name) for name in entry.needs):
            raise ConfigError(f"{self.backend} backend needs {' and '.join(entry.needs)}")
        if not self.tasks:
            raise ConfigError("tasks cannot be empty")
        if Task.CONSISTENCY_JUDGMENT.value in self.tasks and not (
            Task.COMPLETION.value in self.tasks
            and Task.EXPLANATION.value in self.tasks
        ):
            raise ConfigError(
                "consistency_judgment needs completion and explanation results "
                "from the same run"
            )
        extra = [t for t in self.tasks if Task(t) not in entry.tasks]
        if extra:
            raise ConfigError(
                f"{self.backend} backend only answers "
                f"{' and '.join(t.value for t in entry.tasks)} tasks; "
                f"remove {extra} or choose another backend"
            )
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.n_shots is not None and self.n_shots < 0:
            raise ConfigError(f"n_shots must be >= 0, got {self.n_shots}")
        if not 0 <= self.want_top_logprobs <= MAX_TOP_K:
            raise ConfigError(f"want_top_logprobs must be within 0..{MAX_TOP_K}")
        if self.limit_sequences is not None and self.limit_sequences < 1:
            raise ConfigError("limit_sequences must be >= 1 when set")
        if self.concurrency is not None and not 1 <= self.concurrency <= MAX_CONCURRENCY:
            raise ConfigError(
                f"concurrency must be within 1..{MAX_CONCURRENCY} or null, "
                f"got {self.concurrency}"
            )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return asdict(self)  # canonical_json writes each tuple as an array

    @classmethod
    def from_json(cls, data: Any) -> "CampaignConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"expected a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignConfig":
        try:
            data = decode_json(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 ({exc})") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_json(data)

    def override(self, **changes: Any) -> "CampaignConfig":
        return replace(self, **changes)

    def experiment_json(self) -> dict[str, Any]:
        """Config keys that define what is run, excluding where artifacts live.

        Two campaigns that differ only in storage locations (output directory,
        response cache) or in how they are executed (concurrency) produce
        identical result content, so those keys do not participate in the
        campaign identity.
        """
        data = self.to_json()
        for key in STORAGE_KEYS + EXECUTION_KEYS:
            data.pop(key, None)
        return data

    def digest(self) -> str:
        """Short stable identifier of the experiment-defining configuration."""
        return hashlib.sha256(
            canonical_json(self.experiment_json()).encode()
        ).hexdigest()[:12]

    # -- derived views ------------------------------------------------------

    @property
    def variant_enum(self) -> Variant:
        return Variant(self.variant)

    @property
    def shot_sampling_enum(self) -> ShotSampling:
        return ShotSampling(self.shot_sampling)

    @property
    def workers(self) -> int:
        """Backend calls a campaign keeps in flight at once: ``concurrency``,
        or by default the backend entry's ``workers``."""
        return self.concurrency or BACKENDS[self.backend].workers

    @property
    def task_enums(self) -> tuple[Task, ...]:
        # canonical execution order, not config order: judgments and
        # verbalizations consume same-run completion/explanation answers
        ordered = [t for t in DEFAULT_TASKS if t in self.tasks]
        return tuple(Task(t) for t in ordered)
