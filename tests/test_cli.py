"""Tests for the command-line surface and the run configuration behind it."""

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from helpers import demo_pool
from holorag import checks, losses
from holorag.cli import EXIT_BACKEND_ERROR, EXIT_OK, EXIT_USER_ERROR, main
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


def generation(role, docs, text, iteration=0):
    """A mock fixture line for query "q" whose one token has probability 1."""
    fields = dict(role=role, query="q", docs=docs, iteration=iteration, text=text)
    return {**fields, "token_probs": [1.0]}


QUERY_EMBEDDING = {"embed": "query", "key": "q", "vector": [1.0, 0.05, 0.02, 0.01]}
WRONG_DIMENSION_EMBEDDING = {"embed": "query", "key": "q", "vector": [1.0, 0.05, 0.02]}
LQP_UP_TO_SUMMARY = [
    QUERY_EMBEDDING,
    generation("sufficiency_probe", ["d1"], "YES - covered", iteration=1),
    generation("answer", ["d1"], "initial"),
]


def pipeline_args(tmp_path, command, fixture_lines):
    """`answer` or strict e2e `eval` over the demo pool with query "q" and these fixtures."""
    snapshot = tmp_path / "charts.snap"
    save_snapshot(demo_pool(), snapshot)
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text("".join(json.dumps(line) + "\n" for line in fixture_lines), encoding="utf-8")
    if command == "answer":
        return ["answer", str(snapshot), "--query", "q", "--fixtures", str(fixtures)]
    dataset = tmp_path / "dataset.jsonl"
    example = {
        "query_id": "e1",
        "query": "q",
        "gold_doc_ids": [{"pool": "charts", "doc_id": "d1"}],
        "gold_answer": "42",
    }
    dataset.write_text(json.dumps(example) + "\n", encoding="utf-8")
    args = ["eval", str(snapshot), "--dataset", str(dataset), "--mode", "e2e"]
    return args + ["--fixtures", str(fixtures), "--no-skip-on-error"]


def test_garbled_judge_reply_exits_backend_error(tmp_path, capsys):
    """An unparseable judge reply is bad backend output (exit 2), not a user error."""
    judged = ["prediction", "gold"]
    lines = LQP_UP_TO_SUMMARY + [
        generation("summarize", ["d1"], "final"),
        generation("judge_score", judged, "looks right\nscore: excellent"),
        generation("judge_score", judged, "still prose", iteration=1),
    ]
    assert main(pipeline_args(tmp_path, "eval", lines)) == EXIT_BACKEND_ERROR
    assert "expected a bare 1-5" in capsys.readouterr().err


def test_failed_example_keeps_backend_exit_code(tmp_path, capsys):
    """A strict eval aborted by a backend error in the pipeline exits 2 with that error."""
    assert main(pipeline_args(tmp_path, "eval", LQP_UP_TO_SUMMARY)) == EXIT_BACKEND_ERROR
    assert capsys.readouterr().err.startswith("error: no fixture for role=summarize")


@pytest.mark.parametrize("command", ["eval", "answer"])
def test_wrong_dimension_query_exits_user_error(command, tmp_path, capsys):
    """A query embedding that does not fit the pool is a data error (exit 1)."""
    args = pipeline_args(tmp_path, command, [WRONG_DIMENSION_EMBEDDING])
    assert main(args) == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "query dimension (3,) does not match pool dimension 4" in err
    assert "failed:" not in err


CORPUS_LINE = {"doc_id": "d1", "pool": "charts", "embedding": [1.0, 0.0]}
EXAMPLE_LINE = {
    "query_id": "e1",
    "query": "q",
    "gold_doc_ids": [{"pool": "charts", "doc_id": "d1"}],
    "gold_answer": "42",
}
NAN_EMBEDDING = b'{"embed": "query", "key": "q", "vector": [NaN, 0.05, 0.02, 0.01]}'
BAD_LINES = {
    "not-utf8": b"\xff",
    "invalid-json": b"not json",
    "non-object": b"[1]",
    "nan-vector": NAN_EMBEDDING,
}


@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
@pytest.mark.parametrize("kind", ["corpus", "snapshot", "dataset", "fixtures", "config"])
def test_bad_input_line_exits_user_error(kind, bad, retrieve_args, tmp_path, capsys):
    """A bad second line in any input file is an `error:` line and exit 1, never a traceback."""
    snapshot, fixtures = tmp_path / "charts.snap", tmp_path / "fixtures.jsonl"
    corpus, dataset, config = (tmp_path / name for name in ("corpus.jsonl", "data.jsonl", "c.json"))
    ingest_args = ["ingest", str(corpus), "-o", str(tmp_path / "out.snap")]
    eval_args = ["eval", str(snapshot), "--dataset", str(dataset), "--mode", "retrieval"]
    path, first_line, argv = {
        "corpus": (corpus, json.dumps(CORPUS_LINE), ingest_args),
        "snapshot": (snapshot, snapshot.read_bytes().split(b"\n", 1)[0].decode(), retrieve_args),
        "dataset": (dataset, json.dumps(EXAMPLE_LINE), eval_args + ["--fixtures", str(fixtures)]),
        "fixtures": (fixtures, json.dumps(QUERY_EMBEDDING), retrieve_args),
        "config": (config, "", retrieve_args + ["--config", str(config)]),
    }[kind]
    path.write_bytes(first_line.encode() + b"\n" + bad + b"\n")
    assert main(argv) == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if kind != "config":
        assert "line 2" in err


MISTYPED_CONFIGS = {
    "str-int": {"k": "3"},
    "str-float": {"alpha": "x"},
    "null-int": {"parallelism": None},
    "float-int": {"k": 2.5},
    "bool-int": {"k": True},
    "bool-float": {"alpha": True},
    "str-bool": {"skip_on_error": "no"},
    "int-str": {"model": 1},
}


@pytest.mark.parametrize("values", MISTYPED_CONFIGS.values(), ids=MISTYPED_CONFIGS.keys())
def test_mistyped_config_value_exits_user_error(values, retrieve_args, tmp_path, capsys):
    """A config value of the wrong type is a ConfigError (exit 1), whatever its source."""
    (name,) = values
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        RunConfig(**values).validate()
    config = write_config(tmp_path, values)
    assert main(retrieve_args + ["--config", config]) == EXIT_USER_ERROR
    assert capsys.readouterr().err.startswith(f"error: {name} must be")


def test_int_for_float_and_null_for_optional_accepted(retrieve_args, tmp_path, capsys):
    config = write_config(tmp_path, {"alpha": 1, "timeout": 5, "model": None})
    assert main(retrieve_args + ["--config", config]) == EXIT_OK


OUT_OF_RANGE_CONFIGS = {
    "alpha-nan": {"alpha": float("nan")},
    "eps-nan": {"eps": float("nan")},
    "alpha-inf": {"alpha": float("inf")},
    "eps-inf": {"eps": float("inf")},
    "alpha-beyond-float": {"alpha": 10**400},
    "timeout-negative": {"timeout": -1.0},
    "timeout-nan": {"timeout": float("nan")},
    "max-retries-negative": {"max_retries": -1},
}


@pytest.mark.parametrize("values", OUT_OF_RANGE_CONFIGS.values(), ids=OUT_OF_RANGE_CONFIGS.keys())
def test_out_of_range_config_value_exits_user_error(values, retrieve_args, tmp_path, capsys):
    """A non-finite float, a timeout <= 0 or a negative retry count is a ConfigError (exit 1)."""
    ((name, value),) = values.items()
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        RunConfig(**values).validate()
    # json writes NaN and Infinity literals, which json.loads reads back
    config = write_config(tmp_path, values)
    flag = ["--" + name.replace("_", "-"), str(value)]
    for extra in (["--config", config], flag):
        assert main(retrieve_args + ["--scoring-mode", "masked"] + extra) == EXIT_USER_ERROR
        assert capsys.readouterr().err.startswith(f"error: {name} must be")


def test_loss_check_default_arguments_pass(capsys):
    assert main(["loss-check", "--seed", "0"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_loss_check_injected_bug_fails(monkeypatch, capsys):
    """A wrong loss value and a wrong gradient each fail their suite."""
    real_total_loss, real_gradients = losses.total_loss, losses.loss_gradients

    def offset_total_loss(batch, tau, beta):
        report = real_total_loss(batch, tau, beta)
        return replace(report, l_in=report.l_in + 1e-6)

    def offset_gradients(batch, tau, beta):
        grad_q, grad_d = real_gradients(batch, tau, beta)
        return grad_q + 1e-2, grad_d + 1e-2

    monkeypatch.setattr(checks, "total_loss", offset_total_loss)
    monkeypatch.setattr(losses, "loss_gradients", offset_gradients)
    args = ["loss-check", "--seed", "0", "--oracle-batches", "5", "--gradient-batches", "2"]
    assert main(args + ["--json"]) == EXIT_USER_ERROR
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
