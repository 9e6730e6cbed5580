"""Campaign configuration: validation, serialization, digests."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from ambigseq.config import (
    CHOICES,
    DEFAULT_TASKS,
    CampaignConfig,
    ConfigError,
    canonical_json,
)
from ambigseq.prompting import Task


class TestValidation:
    def test_defaults_are_valid(self):
        CampaignConfig()

    @pytest.mark.parametrize(
        "changes",
        [
            {"constant_range": (4, 0)},
            {"constant_range": (-1, 4)},
            {"lengths": ()},
            {"lengths": (0,)},
            {"base": 16},
            {"max_offset": -1},
            {"variant": "whimsical"},
            {"shot_sampling": "alphabetical"},
            {"backend": "telepathy"},
            {"backend": "http"},  # missing url + model
            {"backend": "http", "http_base_url": "http://x"},  # missing model
            {"backend": "scripted"},  # missing fixtures file
            {"backend": "random_valid"},  # default tasks include judgment
            {
                "backend": "random_valid",
                "tasks": ("completion", "explanation", "verbalize_alternatives"),
            },
            {"tasks": ("completion", "divination")},
            {"tasks": ()},
            {"n_runs": 0},
            {"n_shots": -1},
            {"want_top_logprobs": 6},
            {"want_top_logprobs": -1},
            {"limit_sequences": 0},
            {"start_index": -1},
            {"lengths": (3, 4, 3)},
            {"tasks": ("completion", "completion")},
        ],
    )
    def test_bad_values_rejected(self, changes):
        with pytest.raises((ConfigError, ValueError)):
            CampaignConfig(**changes)

    def test_unknown_tie_break_rejected(self):
        with pytest.raises(ConfigError, match="unknown tie_break 'coin_flip'"):
            CampaignConfig(tie_break="coin_flip")
        for tie_break in CHOICES["tie_break"]:
            CampaignConfig(tie_break=tie_break)

    @pytest.mark.parametrize(
        "changes", [{"variant": "whimsical"}, {"shot_sampling": "alphabetical"}]
    )
    def test_unknown_enum_value_is_a_config_error(self, changes):
        (value,) = changes.values()
        with pytest.raises(ConfigError, match=repr(value)):
            CampaignConfig(**changes)

    @pytest.mark.parametrize("value", [0, -1, 65, "8", True, 2.0])
    def test_bad_concurrency_is_a_config_error(self, value):
        # validation only: no campaign runs, so no pool is ever built
        with pytest.raises(ConfigError, match="concurrency"):
            CampaignConfig(concurrency=value)

    def test_workers_default_by_backend(self):
        http = dict(backend="http", http_base_url="http://x", http_model="m")
        assert CampaignConfig().workers == 1
        assert CampaignConfig(**http).workers == 8
        assert CampaignConfig(**http, concurrency=1).workers == 1
        assert CampaignConfig(concurrency=64).workers == 64

    def test_judgment_requires_completion_and_explanation(self):
        with pytest.raises(ConfigError, match="consistency_judgment"):
            CampaignConfig(tasks=("completion", "consistency_judgment"))
        with pytest.raises(ConfigError, match="consistency_judgment"):
            CampaignConfig(tasks=("explanation", "consistency_judgment"))
        CampaignConfig(
            tasks=("completion", "explanation", "consistency_judgment")
        )

    def test_http_backend_fully_specified_is_valid(self):
        CampaignConfig(
            backend="http", http_base_url="http://localhost:1", http_model="m"
        )

    def test_random_valid_backend_with_supported_tasks_is_valid(self):
        CampaignConfig(
            backend="random_valid", tasks=("completion", "explanation")
        )

    def test_lists_coerced_to_tuples(self):
        config = CampaignConfig(lengths=[2, 3], tasks=["completion"])
        assert config.lengths == (2, 3)
        assert config.tasks == ("completion",)


class TestSerialization:
    def test_json_round_trip(self):
        config = CampaignConfig(
            lengths=(2, 4),
            backend="random_valid",
            backend_seed=7,
            n_shots=2,
            tasks=("completion", "explanation"),
        )
        assert CampaignConfig.from_json(config.to_json()) == config

    def test_unknown_key_rejected(self):
        data = CampaignConfig().to_json()
        data["flux_capacitor"] = True
        with pytest.raises(ConfigError, match="flux_capacitor"):
            CampaignConfig.from_json(data)

    def test_missing_keys_take_defaults(self):
        config = CampaignConfig.from_json({"rng_seed": 9})
        assert config.rng_seed == 9
        assert config.n_runs == CampaignConfig().n_runs

    def test_file_round_trip(self, tmp_path):
        config = CampaignConfig(lengths=(3,), rng_seed=42)
        path = tmp_path / "config.json"
        path.write_text(canonical_json(config.to_json()))
        assert CampaignConfig.from_file(path) == config

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            CampaignConfig.from_file(path)

    def test_from_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            CampaignConfig.from_file(path)

    def test_override_returns_changed_copy(self):
        base = CampaignConfig()
        changed = base.override(rng_seed=5, lengths=(2,))
        assert changed.rng_seed == 5
        assert changed.lengths == (2,)
        assert base.rng_seed == 0

    def test_canonical_json_is_compact_and_sorted(self):
        text = canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}'
        assert json.loads(text) == {"a": [1, 2], "b": 1}


class TestDigest:
    def test_digest_is_stable(self):
        assert CampaignConfig().digest() == CampaignConfig().digest()
        assert len(CampaignConfig().digest()) == 12

    @pytest.mark.parametrize(
        "changes, digest",
        [
            ({}, "5160aa514c4a"),
            ({"lengths": (3,), "limit_sequences": 2, "n_runs": 2}, "eba46e09da05"),
            ({"lengths": (3, 4), "n_runs": 3, "limit_sequences": 20}, "65d7e56688b0"),
            ({"lengths": (3, 4), "n_runs": 3}, "b4513ff2d8bd"),
            ({"lengths": (3, 4), "n_runs": 30}, "139bf1807bd6"),
        ],
        ids=["default", "readme_quick_start", "perfbench_oracle_cycle",
             "perfbench_oracle_anchor", "perfbench_analyze_10x"],
    )
    def test_digest_is_pinned(self, changes, digest):
        # the campaign identity stamped into every artifact written so far
        assert CampaignConfig(**changes).digest() == digest

    def test_readme_example_config_digest_is_pinned(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration\n", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert CampaignConfig.from_json(json.loads(example)).digest() == "f11a580228a3"

    def test_digest_changes_with_experiment_parameters(self):
        base = CampaignConfig()
        assert base.digest() != base.override(rng_seed=1).digest()
        assert base.digest() != base.override(lengths=(2,)).digest()
        assert base.digest() != base.override(backend="adversarial").digest()

    def test_digest_ignores_storage_locations(self):
        base = CampaignConfig()
        moved = base.override(
            output_dir="elsewhere", cache_dir="/tmp/cache", concurrency=4
        )
        assert base.digest() == moved.digest()
        assert base.experiment_json() == moved.experiment_json()

    def test_experiment_json_excludes_storage_keys(self):
        data = CampaignConfig(concurrency=2).experiment_json()
        assert "output_dir" not in data
        assert "cache_dir" not in data
        assert "concurrency" not in data
        assert "rng_seed" in data
        assert "backend" in data


class TestDerivedViews:
    def test_task_enums_follow_canonical_order(self):
        shuffled = tuple(reversed(DEFAULT_TASKS))
        config = CampaignConfig(tasks=shuffled)
        assert [t.value for t in config.task_enums] == list(DEFAULT_TASKS)

    def test_task_enums_subset(self):
        config = CampaignConfig(tasks=("explanation", "completion"))
        assert config.task_enums == (Task.COMPLETION, Task.EXPLANATION)


def test_readme_configuration_table_lists_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n|---|---|---|\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()
    # a row may name several keys: `http_base_url` / `http_model`
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(CampaignConfig))
