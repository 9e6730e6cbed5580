"""Command-line interface: argument handling, stage wiring, exit codes."""

import argparse
import dataclasses
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ambigseq
from ambigseq.campaign import dataset_filename
from ambigseq.cli import (
    REFERENCE_AMBIGUOUS_ONLY,
    REFERENCE_FUNCTION_COUNT,
    REFERENCE_SEQUENCE_COUNTS,
    _dataset_count_lines,
    build_parser,
    cmd_mine,
    main,
    resolve_config,
)
from ambigseq.config import CHOICES, CampaignConfig, canonical_json
from ambigseq.mining import DatasetCounts


COMMANDS = ("mine", "run", "analyze", "report")
#: A JSON array nested too deep for ``json.loads`` on Python 3.11 to 3.13
#: (3.13's decodes 5,000 levels).
TOO_DEEP = "[" * 200_000 + "]" * 200_000


def parse(argv):
    return build_parser().parse_args(argv)


def exit_code(argv):
    """What ``main`` returns for ``argv``, or the status argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def flag(name):
    return "--" + name.replace("_", "-")


def flags(out_dir, *extra):
    return [
        "--output-dir", str(out_dir),
        "--lengths", "3",
        "--limit-sequences", "2",
        "--n-runs", "1",
        *extra,
    ]


@pytest.fixture()
def out_dir(tmp_path, mined_l3):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(mined_l3, out / dataset_filename(3))
    return out


@pytest.fixture(scope="module")
def finished_l34(tmp_path_factory):
    """A finished two-length campaign directory: datasets and results."""
    out = tmp_path_factory.mktemp("finished_l34")
    for stage in ("mine", "run"):
        assert main([stage, *flags(out, "--lengths", "3,4")]) == 0
    return out


class TestArgumentHandling:
    def test_defaults(self):
        config = resolve_config(parse(["mine"]))
        assert config == CampaignConfig()

    def test_flags_override_defaults(self):
        args = parse(
            ["run", "--lengths", "2,3", "--backend", "adversarial",
             "--rng-seed", "7", "--tasks", "completion, explanation"]
        )
        config = resolve_config(args)
        assert config.lengths == (2, 3)
        assert config.backend == "adversarial"
        assert config.rng_seed == 7
        assert config.tasks == ("completion", "explanation")

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(canonical_json(CampaignConfig(rng_seed=3, n_runs=5).to_json()))
        args = parse(["run", "--config", str(path), "--n-runs", "2"])
        config = resolve_config(args)
        assert config.rng_seed == 3  # from the file
        assert config.n_runs == 2  # overridden

    def test_every_flag_names_a_config_field(self):
        # resolve_config applies each parsed flag as the config field of
        # the same name, and every field has its flag
        fields = {f.name for f in dataclasses.fields(CampaignConfig)}
        for command in COMMANDS:
            dests = set(vars(parse([command]))) - {"command", "config"}
            assert dests == fields

    def test_constant_range_flag(self):
        config = resolve_config(parse(["mine", "--constant-range", "0,2"]))
        assert config.constant_range == (0, 2)

    def test_bad_lengths_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(["mine", "--lengths", "two,three"])
        assert exc.value.code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            parse(["run", "--backend", "psychic"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            parse([])


# one valid value of each config field that is not its default: as a flag
# reads it, then as a config file holds it
SAMPLES = {
    "constant_range": ("0, 2", [0, 2]),
    "lengths": ("2,3", [2, 3]),
    "base": ("2", 2),
    "start_index": ("0", 0),
    "max_offset": ("2", 2),
    "variant": ("most_likely", "most_likely"),
    "n_shots": ("2", 2),
    "shot_sampling": ("same_class", "same_class"),
    "role_text": ("You are a mathematician.", "You are a mathematician."),
    "model_name": ("model-x", "model-x"),
    "backend": ("adversarial", "adversarial"),
    "backend_seed": ("7", 7),
    "tie_break": ("enumeration_order", "enumeration_order"),
    "http_base_url": ("http://localhost:1", "http://localhost:1"),
    "http_model": ("m", "m"),
    "api_key_env": ("OTHER_KEY", "OTHER_KEY"),
    "fixtures_file": ("fixtures.json", "fixtures.json"),
    "cache_dir": ("cache", "cache"),
    "concurrency": ("4", 4),
    "tasks": ("completion, explanation", ["completion", "explanation"]),
    "n_runs": ("5", 5),
    "rng_seed": ("9", 9),
    "want_top_logprobs": ("0", 0),
    "limit_sequences": ("2", 2),
    "output_dir": ("elsewhere", "elsewhere"),
}
FIELDS = [f.name for f in dataclasses.fields(CampaignConfig)]


class TestFlagsAreTheConfigFields:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_field_has_exactly_one_flag(self, command):
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        actions = subparsers.choices[command]._actions
        for name in FIELDS:
            options = [a.option_strings for a in actions if a.dest == name]
            assert options == [[flag(name)]], name

    @pytest.mark.parametrize("name", FIELDS)
    def test_a_flag_reads_as_its_json_key(self, tmp_path, name):
        text, value = SAMPLES[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({name: value}))
        from_flag = resolve_config(parse(["run", flag(name), text]))
        from_file = resolve_config(parse(["run", "--config", str(path)]))
        assert from_flag == from_file
        assert getattr(from_flag, name) != getattr(CampaignConfig(), name)

    @pytest.mark.parametrize("name", sorted(CHOICES))
    def test_a_choice_outside_its_set_exits_2(self, tmp_path, capfd, name):
        allowed = CHOICES[name]
        bad = max(allowed) + 1 if isinstance(allowed[0], int) else "bogus"
        listed = isinstance(getattr(CampaignConfig(), name), tuple)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({name: [bad] if listed else bad}))
        assert exit_code(["mine", "--config", str(path)]) == 2
        assert f"config error: unknown {name} {bad!r}" in capfd.readouterr().err
        assert exit_code(["mine", flag(name), str(bad)]) == 2
        assert repr(bad) in capfd.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_flag_is_spelled_in_full(self, tmp_path, capsys, command):
        # an abbreviation that is unique today could become ambiguous, or
        # name another field, once a config field is added
        for argv in ([command, "--rng", "1"], [command, "--shot", "same_class"],
                     ["--he", command]):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments: --" in capsys.readouterr().err
        path = tmp_path / "config.json"
        path.write_text("{}")
        argv = [command, "--config", str(path)]
        for name in FIELDS:
            argv += [flag(name), SAMPLES[name][0]]
        args = parse(argv)
        assert args.config == path
        assert all(getattr(args, name) is not None for name in FIELDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            parse([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(flag(name) in out for name in FIELDS)


class TestMineOutput:
    def test_space_summary_and_counts(self, tmp_path):
        config = CampaignConfig(lengths=(3,), output_dir=str(tmp_path))
        buffer = io.StringIO()
        assert cmd_mine(config, out=buffer) == 0
        text = buffer.getvalue()
        assert f"function space: {REFERENCE_FUNCTION_COUNT} valid functions (matches)" in text
        assert "lambda x: 3 ** (4 * x)" in text
        assert "lambda x: 4 ** (4 * x)" in text
        assert "filtered list of length 0" in text
        assert (
            "length 3: 12 ambiguous / 370 unambiguous sequences; "
            "45 ambiguous / 152 unambiguous functions; "
            "225 ambiguous function pairs; 2 self-ambiguous functions"
        ) in text
        assert "closest unit: functions" in text
        assert (tmp_path / dataset_filename(3)).exists()

    def test_reference_verdict_lines(self):
        matching = DatasetCounts(57, 140, 10, 20, 30, 0)
        lines = _dataset_count_lines(4, matching)
        assert any("57 ambiguous / 140 unambiguous sequences — matches" in l
                   for l in lines)

        divergent = DatasetCounts(9, 389, 33, 164, 106, 0)
        lines = _dataset_count_lines(4, divergent)
        assert any("DIVERGES under every counting unit above" in l for l in lines)

    def test_unstated_unit_reference_line(self):
        counts = DatasetCounts(48, 267, 106, 91, 617, 1)
        lines = _dataset_count_lines(2, counts)
        joined = "\n".join(lines)
        assert f"reference: {REFERENCE_AMBIGUOUS_ONLY[2]} ambiguous (counting unit unstated)" in joined
        assert "closest unit" in joined

    def test_reference_tables_cover_expected_lengths(self):
        assert set(REFERENCE_SEQUENCE_COUNTS) == {4}
        assert set(REFERENCE_AMBIGUOUS_ONLY) == {2, 3}


class TestStageWiring:
    def test_four_stages_end_to_end(self, tmp_path, capfd):
        out = tmp_path / "campaign"
        assert main(["mine", *flags(out)]) == 0
        assert main(["run", *flags(out)]) == 0
        assert main(["analyze", *flags(out)]) == 0
        assert main(["report", *flags(out)]) == 0
        stdout = capfd.readouterr().out
        assert "12 queried, 0 already present" in stdout
        assert "== metrics (mean over runs) ==" in stdout

        analysis = json.loads((out / "analysis.json").read_text())
        agg = analysis["per_length"]["3"]["aggregate"]
        assert agg["completion_accuracy"] == 100.0
        assert agg["cross_context_consistency"] == 100.0

        report = (out / "report.txt").read_text()
        for section in (
            "== function space ==",
            "== datasets ==",
            "== metrics (mean over runs) ==",
            "== random-consistency baseline",
            "== output-distribution quadrants ==",
        ):
            assert section in report
        assert "the reference derivation is unpublished" in report

    def test_analyze_prints_the_reports_metrics_section(self, out_dir, capfd):
        argv = flags(out_dir, "--n-runs", "2")
        assert main(["run", *argv]) == 0
        capfd.readouterr()
        assert main(["analyze", *argv]) == 0
        *summary, analysis_line, table_line = capfd.readouterr().out.splitlines()
        assert analysis_line == f"analysis: {out_dir / 'analysis.json'}"
        assert table_line == f"metrics table: {out_dir / 'metrics.tsv'}"
        assert main(["report", *argv]) == 0
        report = (out_dir / "report.txt").read_text().split("\n\n")
        (section,) = [s for s in report if s.startswith("== metrics (mean over runs) ==")]
        assert summary == section.splitlines()
        assert len(summary) == 1 + 1 + 8  # heading, length line, eight figures

    def test_run_resumes_through_cli(self, out_dir, capfd):
        assert main(["run", *flags(out_dir)]) == 0
        assert main(["run", *flags(out_dir)]) == 0
        stdout = capfd.readouterr().out
        assert "12 queried, 0 already present" in stdout
        assert "0 queried, 12 already present" in stdout

    def test_report_computes_analysis_when_absent(self, out_dir, capfd):
        assert main(["run", *flags(out_dir)]) == 0
        assert not (out_dir / "analysis.json").exists()
        assert main(["report", *flags(out_dir)]) == 0
        assert (out_dir / "report.txt").exists()

    def test_report_mines_each_dataset_as_often_as_analyze(
        self, finished_l34, monkeypatch, capfd
    ):
        # report takes its dataset counts from the datasets its analysis
        # reads, so it loads (and mines) each dataset file once, as analyze does
        from ambigseq import analysis, campaign

        loads = []
        for module in (analysis, campaign):
            load = module.load_dataset
            monkeypatch.setattr(
                module, "load_dataset",
                lambda path, *args, load=load: loads.append(path.name) or load(path, *args),
            )
        calls = {}
        for command in ("analyze", "report"):
            loads.clear()
            assert main([command, *flags(finished_l34, "--lengths", "3,4")]) == 0
            calls[command] = sorted(loads)
        assert calls["report"] == calls["analyze"] == [
            dataset_filename(3), dataset_filename(4)
        ]

    def test_config_file_drives_all_stages(self, tmp_path, capfd):
        out = tmp_path / "campaign"
        config = CampaignConfig(
            lengths=(3,), limit_sequences=2, n_runs=1, output_dir=str(out)
        )
        path = tmp_path / "config.json"
        path.write_text(canonical_json(config.to_json()))
        for command in ("mine", "run", "analyze"):
            assert main([command, "--config", str(path)]) == 0
        header = json.loads((out / "results.jsonl").read_text().splitlines()[0])
        assert header["config_digest"] == config.digest()


class TestFailureExitCodes:
    def test_run_before_mine(self, tmp_path, capfd):
        assert main(["run", *flags(tmp_path / "nothing")]) == 1
        assert "mine stage" in capfd.readouterr().err

    def test_an_interrupted_run_says_so_and_keeps_its_lines(
        self, out_dir, monkeypatch, capfd
    ):
        # Ctrl-C arrives during the fifth backend call
        from ambigseq import campaign

        make_backend = campaign.make_backend

        class Interrupted:
            def __init__(self, inner):
                self.inner, self.backend_id, self.calls = inner, inner.backend_id, 0

            def complete(self, request):
                self.calls += 1
                if self.calls == 5:
                    raise KeyboardInterrupt
                return self.inner.complete(request)

        monkeypatch.setattr(
            campaign, "make_backend", lambda *args: Interrupted(make_backend(*args))
        )
        assert main(["run", *flags(out_dir)]) == 130
        captured = capfd.readouterr()
        assert captured.err == "interrupted\n" and captured.out == ""
        assert len((out_dir / "results.jsonl").read_text().splitlines()) == 1 + 4
        last = (out_dir / "audit.log").read_text().splitlines()[-1]
        assert "abort campaign=" in last
        assert last.endswith(" after 4 queries: KeyboardInterrupt()")

    @pytest.mark.parametrize("stage", ["mine", "run"])
    def test_a_second_writer_is_refused(self, out_dir, capfd, stage):
        fcntl = pytest.importorskip("fcntl")
        assert main(["run", *flags(out_dir)]) == 0
        files = {path: path.read_bytes() for path in out_dir.iterdir()}
        with (out_dir / "results.jsonl").open("a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            capfd.readouterr()
            assert main([stage, *flags(out_dir)]) == 1
        assert capfd.readouterr().err == (
            f"error: {out_dir / 'results.jsonl'} is being written by another run\n"
        )
        assert {path: path.read_bytes() for path in out_dir.iterdir()} == files

    def test_digest_mismatch(self, out_dir, capfd):
        assert main(["run", *flags(out_dir)]) == 0
        assert main(["run", *flags(out_dir), "--rng-seed", "99"]) == 1
        assert "fresh output directory" in capfd.readouterr().err

    def test_bad_config_file(self, tmp_path, capfd):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        assert main(["mine", "--config", str(path)]) == 2
        assert "config error" in capfd.readouterr().err

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda path: None, "cannot read (No such file or directory)"),
            (lambda path: path.mkdir(), "cannot read (Is a directory)"),
            (lambda path: path.write_bytes(b'{"role_text": "\xff"}'), "not UTF-8"),
            (
                lambda path: path.write_text('{"x":' + TOO_DEEP + "}"),
                "not valid JSON (maximum recursion",
            ),
            (
                lambda path: path.write_text('{"n_runs":1' + "0" * 5000 + "}"),
                "not valid JSON (Exceeds the limit (4300 digits)",
            ),
        ],
        ids=["missing", "directory", "not_utf8", "nested_5000_deep", "number_of_5001_digits"],
    )
    def test_an_unreadable_config_file_is_a_config_error(
        self, tmp_path, capfd, make, reason
    ):
        path = tmp_path / "config.json"
        make(path)
        for command in COMMANDS:
            assert main([command, "--config", str(path)]) == 2
            err = capfd.readouterr().err
            assert err.startswith(f"config error: {path}: {reason}")
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, key, value",
        [("mine", "variant", "whimsical"), ("run", "shot_sampling", "alphabetical")],
    )
    def test_unknown_enum_value_in_config_file(
        self, tmp_path, capfd, command, key, value
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value, "output_dir": str(tmp_path)}))
        assert main([command, "--config", str(path)]) == 2
        assert "config error:" in capfd.readouterr().err

    @pytest.mark.parametrize(
        "config, extra",
        [
            ({"lengths": None}, []),
            ({"lengths": 5}, []),
            ({"n_runs": "3"}, []),
            ({"want_top_logprobs": None}, []),
            ({"constant_range": [0]}, []),
            ({}, ["--constant-range", "3"]),
            ({"start_index": "1"}, []),
            # at least one case per field of CampaignConfig
            ({"constant_range": [0.5, 4]}, []),
            ({"lengths": [3.0]}, []),
            ({"lengths": [True]}, []),
            ({"base": 10.0}, []),
            ({"max_offset": 2.0}, []),
            ({"variant": ["plain"]}, []),
            ({"n_shots": 2.0}, []),
            ({"shot_sampling": None}, []),
            ({"role_text": 3}, []),
            ({"model_name": 7}, []),
            ({"backend": ["oracle"]}, []),
            ({"backend_seed": "0"}, []),
            ({"tie_break": 0}, []),
            ({"http_base_url": 1}, []),
            ({"http_model": True}, []),
            ({"api_key_env": None}, []),
            ({"fixtures_file": 5}, []),
            ({"cache_dir": False}, []),
            ({"concurrency": "8"}, []),
            ({"tasks": "completion"}, []),
            ({"rng_seed": "7"}, []),
            ({"limit_sequences": 1.5}, []),
            ({"output_dir": 5}, []),
        ],
        ids=["null_lengths", "int_lengths", "string_n_runs", "null_top_logprobs",
             "short_constant_range", "short_constant_range_flag", "string_start_index",
             "float_constant_range", "float_lengths", "bool_lengths", "float_base",
             "float_max_offset", "list_variant", "float_n_shots", "null_shot_sampling",
             "int_role_text", "int_model_name", "list_backend", "string_backend_seed",
             "int_tie_break", "int_http_base_url", "bool_http_model", "null_api_key_env",
             "int_fixtures_file", "bool_cache_dir", "string_concurrency", "string_tasks",
             "string_rng_seed", "float_limit_sequences", "int_output_dir"],
    )
    def test_a_mistyped_config_value_is_a_config_error(
        self, tmp_path, capfd, config, extra
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"output_dir": str(tmp_path), **config}))
        assert main(["mine", "--config", str(path), *extra]) == 2
        err = capfd.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    def test_a_pool_too_small_for_the_shots_is_an_error(self, tmp_path, capfd):
        small = ["--output-dir", str(tmp_path), "--constant-range", "0,0", "--lengths", "3"]
        assert main(["mine", *small]) == 0
        capfd.readouterr()
        assert main(["run", *small]) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: cannot draw 8 demonstrations from a pool of 7")

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_refuses_datasets_mined_with_other_parameters(
        self, tmp_path, capfd, command
    ):
        out = tmp_path / "campaign"
        for stage in ("mine", "run", "analyze"):
            assert main([stage, *flags(out)]) == 0
        # the datasets are mined again over a wider constant range
        assert main(["mine", *flags(out), "--constant-range", "0,5"]) == 0
        capfd.readouterr()
        assert main([command, *flags(out)]) == 1
        assert "was mined with parameters ((0, 5)" in capfd.readouterr().err

    def test_a_results_header_config_that_is_not_an_object_is_an_error(
        self, tmp_path, capfd
    ):
        for stage in ("mine", "run"):
            assert main([stage, *flags(tmp_path)]) == 0
        path = tmp_path / "results.jsonl"
        header, *rest = path.read_text().splitlines()
        header = json.dumps({**json.loads(header), "config": ["lengths"]})
        path.write_text("\n".join([header, *rest]) + "\n")
        capfd.readouterr()
        assert main(["analyze", *flags(tmp_path)]) == 1
        assert capfd.readouterr().err.startswith(
            f"error: {path}: results header config: expected a JSON object, got list"
        )

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(
                lambda h: h["datasets"].pop("4"), id="datasets-missing-a-length"
            ),
            pytest.param(
                lambda h: h.update(datasets=["dataset_L3.jsonl"]),
                id="datasets-not-an-object",
            ),
            pytest.param(
                lambda h: h["datasets"].update(x="dataset_L3.jsonl"),
                id="datasets-key-not-a-number",
            ),
            pytest.param(lambda h: h["config"].update(n_runs=0), id="config-n-runs-0"),
            pytest.param(
                lambda h: h.update(config_digest="0" * 12), id="digest-not-its-configs"
            ),
        ],
    )
    def test_a_damaged_results_header_is_refused_by_name(
        self, tmp_path, capfd, finished_l34, damage
    ):
        out = tmp_path / "out"
        shutil.copytree(finished_l34, out)
        path = out / "results.jsonl"
        header, *rest = path.read_text().splitlines()
        header = json.loads(header)
        damage(header)
        path.write_text("\n".join([json.dumps(header), *rest]) + "\n")
        capfd.readouterr()
        for stage in ("run", "analyze", "report"):
            assert main([stage, *flags(out, "--lengths", "3,4")]) == 1, stage
            err = capfd.readouterr().err
            assert err.startswith(f"error: {path}"), (stage, err)
            assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_a_record_line_json_cannot_decode_is_refused_by_its_line(
        self, out_dir, capfd, command
    ):
        # json.loads raises a RecursionError for the first, and a ValueError
        # that is no JSONDecodeError for the second
        assert main(["run", *flags(out_dir)]) == 0
        path = out_dir / "results.jsonl"
        header, *records = path.read_text().splitlines()
        assert '"run_id":0,' in records[2]
        damages = {
            "nested_5000_deep": records[2][:-1] + ',"x":' + "[" * 5000 + "]" * 5000 + "}",
            "run_id_of_5001_digits": records[2].replace(
                '"run_id":0,', '"run_id":1' + "0" * 5000 + ","
            ),
        }
        for damage, line in damages.items():
            path.write_text("\n".join([header, *records[:2], line, *records[3:]]) + "\n")
            capfd.readouterr()
            assert main([command, *flags(out_dir)]) == 1, damage
            err = capfd.readouterr().err
            assert err.startswith(f"error: {path}:4: malformed record line ("), (damage, err)
            assert "Traceback" not in err, damage

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_a_header_nested_too_deep_to_decode_is_refused_by_name(
        self, out_dir, capfd, command
    ):
        assert main(["run", *flags(out_dir)]) == 0
        for name in ("results.jsonl", dataset_filename(3)):
            path = out_dir / name
            text = path.read_text()
            header, rest = text.split("\n", 1)
            path.write_text(header[:-1] + ',"x":' + TOO_DEEP + "}\n" + rest)
            capfd.readouterr()
            assert main([command, *flags(out_dir)]) == 1, name
            err = capfd.readouterr().err
            assert err.startswith(f"error: {path}: unreadable header line (maximum recursion"), err
            assert "Traceback" not in err, name
            path.write_text(text)

    def test_a_fixtures_file_too_deep_to_decode_is_refused_by_name(
        self, out_dir, tmp_path, capfd
    ):
        path = tmp_path / "fixtures.json"
        path.write_text('{"fixtures":' + TOO_DEEP + "}")
        scripted = ["--backend", "scripted", "--fixtures-file", str(path)]
        assert main(["run", *flags(out_dir, *scripted)]) == 1
        err = capfd.readouterr().err
        assert err.startswith(f"error: {path}: bad scripted fixtures file (maximum recursion"), err
        assert "Traceback" not in err
        assert not (out_dir / "results.jsonl").exists()

    @pytest.mark.parametrize("value", ["0", "65"])
    def test_out_of_range_concurrency(self, tmp_path, capfd, value):
        assert main(["run", *flags(tmp_path), "--concurrency", value]) == 2
        assert "concurrency must be" in capfd.readouterr().err

    def test_report_refuses_another_campaigns_analysis(self, tmp_path, capfd):
        out = tmp_path / "campaign"
        for stage in ("mine", "run", "analyze"):
            assert main([stage, *flags(out)]) == 0
        capfd.readouterr()
        # report analyzes results.jsonl, which belongs to the narrower
        # campaign; the analysis.json beside it is never read
        assert main(["report", *flags(out), "--constant-range", "0,5"]) == 1
        err = capfd.readouterr().err
        stored = json.loads((out / "analysis.json").read_text())["config_digest"]
        assert f"results.jsonl belongs to campaign {stored}" in err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: "[1]",
            lambda doc: '{"config_digest": "0"}',
            lambda doc: "{not json",
            lambda doc: canonical_json({**doc, "per_length": 5}),
            lambda doc: canonical_json({**doc, "per_length": {"3": 1}}),
            lambda doc: canonical_json({**doc, "per_length": []}),
        ],
        ids=[
            "not_an_object", "without_per_length", "not_json",
            "per_length_5", "per_length_of_ints", "per_length_empty_list",
        ],
    )
    def test_report_ignores_a_damaged_analysis(self, out_dir, capfd, damage):
        for stage in ("run", "analyze", "report"):
            assert main([stage, *flags(out_dir)]) == 0
        report = (out_dir / "report.txt").read_text()
        path = out_dir / "analysis.json"
        damaged = damage(json.loads(path.read_text()))
        path.write_text(damaged)
        (out_dir / "report.txt").unlink()
        capfd.readouterr()
        assert main(["report", *flags(out_dir)]) == 0
        assert capfd.readouterr().err == ""
        assert (out_dir / "report.txt").read_text() == report
        assert path.read_text() == damaged

    def test_run_refuses_a_damaged_dataset(self, out_dir, capfd):
        path = out_dir / dataset_filename(3)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"function":"lambda', '"function":"mu', 1)
        path.write_text("\n".join(lines) + "\n")
        assert main(["run", *flags(out_dir)]) == 1
        assert f"error: {path}:2: malformed record line" in capfd.readouterr().err

    @pytest.mark.parametrize("command", ["run", "analyze", "report"])
    def test_a_torn_dataset_is_refused(self, out_dir, capfd, command):
        # every damage leaves a file that is not what its parameters mine;
        # the first two are valid records, only fewer or less of them.
        for stage in ("run", "analyze"):
            assert main([stage, *flags(out_dir)]) == 0
        path = out_dir / dataset_filename(3)
        text = path.read_text()
        header, *records = text.splitlines()
        n = next(n for n, line in enumerate(records, start=2)
                 if len(json.loads(line)["generators"]) > 1)
        torn = text[: text.index("\n", len(text) // 2)]  # its last line lacks its newline

        def edited(n, change):
            lines = [header, *records]
            raw = json.loads(lines[n - 1])
            change(raw)
            lines[n - 1] = canonical_json(raw)
            return "\n".join(lines) + "\n"

        damages = {
            "cut_at_a_line_boundary": ("\n".join([header, *records[:40]]) + "\n", ":42:"),
            "generator_dropped": (edited(n, lambda raw: raw["generators"].pop()), f":{n}:"),
            "ambiguous_flipped": (
                edited(2, lambda raw: raw.update(ambiguous=not raw["ambiguous"])), ":2:"
            ),
            "blank_line_inserted": (
                "\n".join([header, *records[:2], "", *records[2:]]) + "\n", ":4:"
            ),
            "cut_mid_line": (torn, f":{torn.count(chr(10)) + 1}:"),
            "function_outside_the_language": (
                text.replace('"function":"lambda', '"function":"mu', 1), ":2:"
            ),
            "parameter_changed": (
                text.replace('"max_offset":4', '"max_offset":3', 1), " was mined with"
            ),
        }
        for damage, (damaged, where) in damages.items():
            path.write_text(damaged)
            capfd.readouterr()
            assert main([command, *flags(out_dir)]) == 1, damage
            err = capfd.readouterr().err
            assert err.startswith(f"error: {path}{where}"), (damage, err)
            assert "Traceback" not in err, damage

    @pytest.mark.parametrize(
        "fixtures",
        [
            [],
            {"fixtures": {"q": {"top_logprobs": None}}},
            {"fixtures": {}, "default": {"text": "7", "top_logprobs": [["7", -2], ["8", -1]]}},
        ],
        ids=["list", "answer_without_text", "unsorted_top_logprobs"],
    )
    def test_run_refuses_a_bad_fixtures_file(self, out_dir, tmp_path, capfd, fixtures):
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(fixtures))
        scripted = ["--backend", "scripted", "--fixtures-file", str(path)]
        assert main(["run", *flags(out_dir, *scripted)]) == 1
        assert f"error: {path}: " in capfd.readouterr().err
        assert not (out_dir / "results.jsonl").exists()

    def test_invalid_flag_combination(self, tmp_path, capfd):
        # scripted backend without a fixtures file fails validation
        assert main(["run", "--output-dir", str(tmp_path),
                     "--backend", "scripted"]) == 2
        assert "fixtures_file" in capfd.readouterr().err

    def test_analyze_without_results(self, tmp_path, capfd):
        assert main(["analyze", *flags(tmp_path / "nothing")]) == 1
        assert "error" in capfd.readouterr().err


class TestProcessDeath:
    """A run stopped by a signal resumes to the bytes of one that was not."""

    ANCHOR = "0b7130743ed42a43"  # results.jsonl of these flags at seed 0
    QUERIES = 4806

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGKILL], ids=["SIGINT", "SIGKILL"])
    def test_a_stopped_run_resumes_to_the_anchor(self, tmp_path, signum):
        command = [sys.executable, "-m", "ambigseq"]
        args = ["--output-dir", str(tmp_path), "--lengths", "3,4", "--n-runs", "3"]
        env = {**os.environ, "PYTHONPATH": str(Path(ambigseq.__file__).parents[1])}
        subprocess.run([*command, "mine", *args], env=env, capture_output=True, check=True)
        results = tmp_path / "results.jsonl"
        proc = subprocess.Popen(
            [*command, "run", *args], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            while not (results.exists() and results.read_bytes().count(b"\n") >= 200):
                assert proc.poll() is None, "the run ended before it could be stopped"
                time.sleep(0.001)
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        if signum == signal.SIGINT:
            assert (proc.returncode, out, err) == (130, "", "interrupted\n")
            # the abort line's query count is not asserted: an interrupt
            # between a line's write and its count leaves it one short
            last = (tmp_path / "audit.log").read_text().splitlines()[-1]
            assert "abort campaign=" in last and last.endswith(": KeyboardInterrupt()")
        else:
            assert proc.returncode == -signal.SIGKILL
        present = results.read_bytes().count(b"\n") - 1

        rerun = subprocess.run([*command, "run", *args], env=env, capture_output=True, text=True)
        assert rerun.returncode == 0, rerun.stderr
        assert f": {self.QUERIES - present} queried, {present} already present\n" in rerun.stdout
        assert hashlib.sha256(results.read_bytes()).hexdigest()[:16] == self.ANCHOR


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ambigseq", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "{mine,run,analyze,report}" in proc.stdout
