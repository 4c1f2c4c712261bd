"""Tests for the command-line surface and the run configuration behind it."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from helpers import demo_pool
from holorag.cli import EXIT_OK, EXIT_USER_ERROR, main
from holorag.config import CHOICES, RunConfig
from holorag.errors import ConfigError
from holorag.index import save_snapshot

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "holorag"

ANSWER_FLAGS = {
    "--help",
    "--query",
    "--pool",
    "--trace",
    "--config",
    "--alpha",
    "--h",
    "--k",
    "--max-iters",
    "--pool-mode",
    "--backend",
    "--fixtures",
    "--base-url",
    "--model",
    "--api-key-env",
    "--timeout",
    "--max-retries",
    "--max-tokens",
    "--parallelism",
    "--scoring-mode",
    "--eps",
    "--no-skip-on-error",
}

REMOVED_KEYS = ("tau", "beta", "n_submasks", "seed")


@pytest.fixture
def retrieve_args(tmp_path):
    """Arguments for `retrieve` over the demo pool with a mock query embedding."""
    snapshot = tmp_path / "charts.snap"
    save_snapshot(demo_pool(), snapshot)
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text(
        json.dumps({"embed": "query", "key": "q", "vector": [1.0, 0.05, 0.02, 0.01]}) + "\n",
        encoding="utf-8",
    )
    return ["retrieve", str(snapshot), "--query", "q", "--fixtures", str(fixtures), "--json"]


def write_config(tmp_path, values) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    return str(path)


def test_answer_help_lists_config_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["answer", "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == ANSWER_FLAGS


@pytest.mark.parametrize("name", sorted(CHOICES))
def test_choice_flags_reject_bad_values(name, retrieve_args, capsys):
    flag = "--" + name.replace("_", "-")
    with pytest.raises(SystemExit) as exit_info:
        main(retrieve_args + [flag, "bogus"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_flag_overrides_config_file(retrieve_args, tmp_path, capsys):
    config = write_config(tmp_path, {"k": 1})
    assert main(retrieve_args + ["--config", config]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["k"] == 1
    assert main(retrieve_args + ["--config", config, "--k", "2"]) == EXIT_OK
    ranked = json.loads(capsys.readouterr().out)
    assert ranked["k"] == 2
    assert [e["doc_id"] for e in ranked["entries"]] == ["d1", "d2"]


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_config_keys_rejected(key, retrieve_args, tmp_path, capsys):
    config = write_config(tmp_path, {key: 1})
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_sources(config)
    assert main(retrieve_args + ["--config", config]) == EXIT_USER_ERROR
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_fixture_line_exits_user_error(retrieve_args, tmp_path, capsys):
    fixtures = tmp_path / "fixtures.jsonl"
    with fixtures.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps({"embed": "document", "key": "d1", "vector": [1.0]}) + "\n")
    assert main(retrieve_args) == EXIT_USER_ERROR
    assert "line 2" in capsys.readouterr().err


def test_loss_check_default_arguments_pass(capsys):
    assert main(["loss-check", "--seed", "0"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_loss_check_injected_bug_fails(capsys):
    args = ["loss-check", "--seed", "0", "--oracle-batches", "5", "--gradient-batches", "2"]
    assert main(args + ["--inject-bug", "--json"]) == EXIT_USER_ERROR
    report = json.loads(capsys.readouterr().out)
    assert not report["oracle"]["passed"]
    assert not report["gradient"]["passed"]


def test_every_config_field_is_read():
    """Each RunConfig field is read as config.<name> outside config.py."""
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in SRC_DIR.rglob("*.py")
        if path.name != "config.py"
    )
    unread = [
        f.name for f in fields(RunConfig) if not re.search(rf"\bconfig\.{f.name}\b", sources)
    ]
    assert unread == []
