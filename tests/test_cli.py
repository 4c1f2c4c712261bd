"""Tests for the command-line surface and the run configuration behind it."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EDGE_ROW, demo_pool, make_pool
from loopback import ClosedPort, LoopbackServer, Reply
from holorag import checks, cli, index, jsonl, losses
from holorag.backends import MockBackend
from holorag.cli import EXIT_BACKEND_ERROR, EXIT_OK, EXIT_USER_ERROR, main
from holorag.config import CHOICES, RunConfig
from holorag.errors import ConfigError
from holorag.evaluation import evaluate_retrieval, load_dataset
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
    "--parallelism",
    "--scoring-mode",
    "--no-skip-on-error",
}

REMOVED_KEYS = (
    "tau", "beta", "n_submasks", "seed", "eps", "fallback_on_probe_error", "max_tokens"
)


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
    assert exit_info.value.code == EXIT_USER_ERROR
    assert "invalid choice" in capsys.readouterr().err


def test_missing_required_flag_exits_user_error(retrieve_args, capsys):
    """A usage error is the user's, so it never exits EXIT_BACKEND_ERROR."""
    at = retrieve_args.index("--query")
    with pytest.raises(SystemExit) as exit_info:
        main(retrieve_args[:at] + retrieve_args[at + 2 :])
    assert exit_info.value.code == EXIT_USER_ERROR
    assert "the following arguments are required: --query" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["charts", "nosuch"])
def test_pool_name_in_all_pool_mode_exits_user_error(name, retrieve_args, capsys):
    """All-pool mode searches every pool, so a --pool name it would ignore is exit 1."""
    assert main(retrieve_args + ["--pool-mode", "all", "--pool", name]) == EXIT_USER_ERROR
    assert capsys.readouterr().err == (
        f"error: --pool {name!r} needs single-pool mode, not pool mode 'all'\n"
    )
    assert main(retrieve_args + ["--pool-mode", "all"]) == EXIT_OK


def test_retrieve_prints_a_table_without_json(retrieve_args, capsys):
    """Without --json, `retrieve` prints one fixed-width row per ranked document."""
    assert main(retrieve_args) == EXIT_OK
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert main(retrieve_args[:-1]) == EXIT_OK
    rows = [
        f"{rank:<5} {'charts':<12} {e['doc_id']:<20} {e['score']:.6f}"
        for rank, e in enumerate(entries, start=1)
    ]
    assert [e["doc_id"] for e in entries] == ["d1", "d2", "d3"]
    assert capsys.readouterr().out == "\n".join(
        [f"{'rank':<5} {'pool':<12} {'doc_id':<20} score"] + rows
    ) + "\n"


@pytest.fixture
def two_snapshots(tmp_path):
    """The demo pool "charts" and a pool "other" whose d9 lies along the query."""
    charts, other = tmp_path / "charts.snap", tmp_path / "other.snap"
    save_snapshot(demo_pool(), charts)
    save_snapshot(make_pool("other", [("d9", [0.0, 1.0, 0.0, 0.0])]), other)
    return str(charts), str(other)


def test_pool_name_picks_one_of_several_snapshots(two_snapshots, retrieve_args, capsys):
    args = retrieve_args[:1] + list(two_snapshots) + retrieve_args[2:]
    assert main(args + ["--pool", "other"]) == EXIT_OK
    ranked = json.loads(capsys.readouterr().out)
    assert [(e["pool"], e["doc_id"]) for e in ranked["entries"]] == [("other", "d9")]


@pytest.mark.parametrize(
    "snapshots, pool, message",
    [
        ((0, 1), [], "single-pool mode over several snapshots needs --pool NAME"),
        ((0, 1), ["--pool", "nosuch"], "no snapshot holds pool 'nosuch'"),
        ((0, 0), ["--pool", "charts"], "two pools named 'charts'"),
    ],
    ids=["no-name", "unknown-name", "repeated-name"],
)
def test_pool_choice_over_several_snapshots_exits_user_error(
    snapshots, pool, message, two_snapshots, retrieve_args, capsys
):
    args = retrieve_args[:1] + [two_snapshots[i] for i in snapshots] + retrieve_args[2:]
    assert main(args + pool) == EXIT_USER_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("command", ["eval", "answer"])
def test_non_string_fixture_text_exits_user_error(command, tmp_path, capsys):
    """A fixture whose text is not a string fails at load (exit 1), not in parse_verdict."""
    lines = [QUERY_EMBEDDING, generation("sufficiency_probe", ["d1"], 5, iteration=1)]
    assert main(pipeline_args(tmp_path, command, lines)) == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: bad fixture (text must be a string")


def test_failed_example_keeps_backend_exit_code(tmp_path, capsys):
    """A strict eval aborted by a backend error in the pipeline exits 2 with that error."""
    assert main(pipeline_args(tmp_path, "eval", LQP_UP_TO_SUMMARY)) == EXIT_BACKEND_ERROR
    assert capsys.readouterr().err.startswith("error: no fixture for role=summarize")


def test_answer_over_empty_snapshot_exits_user_error(tmp_path, capsys):
    """`answer` over the snapshot of an empty corpus is an `error:` line and exit 1."""
    corpus, snapshot = tmp_path / "corpus.jsonl", tmp_path / "empty.snap"
    corpus.write_bytes(b"")
    with pytest.warns(UserWarning, match="contained no records"):
        assert main(["ingest", str(corpus), "-o", str(snapshot)]) == EXIT_OK
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text(json.dumps(QUERY_EMBEDDING) + "\n", encoding="utf-8")
    args = ["answer", str(snapshot), "--query", "q", "--fixtures", str(fixtures)]
    assert main(args) == EXIT_USER_ERROR
    assert capsys.readouterr().err == "error: pipeline needs a nonempty pool\n"


@pytest.mark.parametrize("command", ["eval", "answer"])
def test_wrong_dimension_query_exits_user_error(command, tmp_path, capsys):
    """A query embedding that does not fit the pool is a data error (exit 1)."""
    args = pipeline_args(tmp_path, command, [WRONG_DIMENSION_EMBEDDING])
    assert main(args) == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "query dimension (3,) does not match pool dimension 4" in err
    assert "failed:" not in err


@pytest.mark.parametrize("command", ["retrieve", "answer", "eval"])
@pytest.mark.parametrize(
    "flags, message",
    [
        ([], "mock backend needs --fixtures pointing at a fixture file"),
        (["--backend", "http", "--model", "m"], "http backend needs --base-url and --model"),
        (["--backend", "http", "--base-url", "http://127.0.0.1:9/v1"],
         "http backend needs --base-url and --model"),
    ],
    ids=["mock-no-fixtures", "http-no-base-url", "http-no-model"],
)
def test_backend_without_its_settings_exits_user_error(command, flags, message, tmp_path, capsys):
    """A backend missing a setting it needs is a ConfigError (exit 1), before any call."""
    args = pipeline_args(tmp_path, "eval" if command == "eval" else "answer", [])
    at = args.index("--fixtures")
    args = [command] + args[1:at] + args[at + 2 :] + flags
    assert main(args) == EXIT_USER_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_retrieval_prints_the_table_and_writes_the_report(tmp_path, capsys):
    """`eval --mode retrieval` prints the table and the mean nDCG@5, and --report holds
    the report's JSON and a newline."""
    args = pipeline_args(tmp_path, "eval", [QUERY_EMBEDDING])
    args[args.index("e2e")] = "retrieval"
    report_path = tmp_path / "report.json"
    assert main(args + ["--report", str(report_path)]) == EXIT_OK
    fixtures = args[args.index("--fixtures") + 1]
    config = RunConfig(fixtures=fixtures, skip_on_error=False)
    report = evaluate_retrieval(
        load_dataset(tmp_path / "dataset.jsonl"),
        "single",
        [index.load_snapshot(tmp_path / "charts.snap")],
        MockBackend.from_file(fixtures),
        config,
    )
    assert capsys.readouterr().out == report.render_table() + "\nmean nDCG@5 = 1.0000\n"
    assert report_path.read_text(encoding="utf-8") == report.to_json() + "\n"


# -- answer over the real HTTP transport, against a loopback server ----------


def chat_reply(text):
    """A 200 chat completion whose one token has logprob 0, so the answer routes LQP."""
    logprobs = {"content": [{"token": "t", "logprob": 0.0}]}
    return Reply(200, {"choices": [{"message": {"content": text}, "logprobs": logprobs}]})


# embed, one YES probe over d1, the answer, the summary
HTTP_LQP_REPLIES = [
    Reply(200, {"data": [{"embedding": QUERY_EMBEDDING["vector"]}]}),
    chat_reply("YES - covered"),
    chat_reply("initial"),
    chat_reply("final"),
]


def http_answer_args(tmp_path, base_url, *flags):
    snapshot = tmp_path / "charts.snap"
    save_snapshot(demo_pool(), snapshot)
    args = ["answer", str(snapshot), "--query", "q", "--backend", "http"]
    return args + ["--base-url", base_url, "--model", "m", *flags]


def test_http_answer_exits_ok(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOLORAG_API_KEY", "test-key")
    with LoopbackServer(HTTP_LQP_REPLIES) as server:
        assert main(http_answer_args(tmp_path, server.url)) == EXIT_OK
    assert capsys.readouterr().out == "final\n"
    paths = [request["path"] for request in server.requests]
    assert paths == ["/v1/embeddings"] + ["/v1/chat/completions"] * 3


def test_http_answer_without_key_exits_user_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HOLORAG_API_KEY", raising=False)
    with LoopbackServer(HTTP_LQP_REPLIES) as server:
        assert main(http_answer_args(tmp_path, server.url)) == EXIT_USER_ERROR
    assert capsys.readouterr().err == (
        "error: missing API key: set the HOLORAG_API_KEY environment variable "
        "(or switch to the mock backend)\n"
    )
    assert server.requests == []


def served(*replies):
    return lambda: LoopbackServer(replies)


@pytest.mark.parametrize(
    "endpoint, keep_scheme, flags",
    [
        (ClosedPort, True, []),
        (served(Reply(502, b"<html>Bad Gateway</html>")), True, []),
        (served(Reply(400, {"error": "bad request"})), True, []),
        (served(Reply(200, b"not json")), True, []),
        (served(Reply(200, {}, delay=1.0)), True, ["--timeout", "0.2"]),
        (served(*HTTP_LQP_REPLIES), False, []),
    ],
    ids=["closed-port", "html-502", "400", "non-json", "timeout", "no-scheme"],
)
def test_http_transport_failure_exits_backend_error(
    tmp_path, monkeypatch, capsys, endpoint, keep_scheme, flags
):
    """No failure of the real transport exits 1: each is a backend error (exit 2).

    A base URL without an http scheme is a configuration error instead: exit
    1 before any request.
    """
    monkeypatch.setenv("HOLORAG_API_KEY", "test-key")
    with endpoint() as server:
        url = server.url if keep_scheme else server.url.removeprefix("http://")
        code = main(http_answer_args(tmp_path, url, "--max-retries", "0", *flags))
    if keep_scheme:
        assert code == EXIT_BACKEND_ERROR
    else:
        assert (code, server.requests) == (EXIT_USER_ERROR, [])
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("port", ["abc", "99999"])
def test_http_bad_port_exits_user_error(tmp_path, monkeypatch, capsys, port):
    """A base URL with a bad port fails as configuration (exit 1), before any request."""
    monkeypatch.setenv("HOLORAG_API_KEY", "test-key")
    url = f"http://127.0.0.1:{port}/v1"
    assert main(http_answer_args(tmp_path, url)) == EXIT_USER_ERROR
    assert capsys.readouterr().err.startswith(f"error: malformed base URL {url!r}: ")


@pytest.mark.parametrize("url", ["http://:9/v1", "http://user@/v1"], ids=["port", "user"])
def test_http_base_url_without_host_exits_user_error(tmp_path, monkeypatch, capsys, url):
    """An authority with a port or a user but no host fails as configuration (exit 1)."""
    monkeypatch.setenv("HOLORAG_API_KEY", "test-key")
    assert main(http_answer_args(tmp_path, url)) == EXIT_USER_ERROR
    assert capsys.readouterr().err == (
        f"error: malformed base URL {url!r}: it must be http:// or https:// and a host\n"
    )


def test_http_base_url_query_exits_user_error(tmp_path, monkeypatch, capsys):
    """A base URL with a query would post to "/v1?key=abc/embeddings": exit 1, no request."""
    monkeypatch.setenv("HOLORAG_API_KEY", "test-key")
    with LoopbackServer(HTTP_LQP_REPLIES) as server:
        url = server.url + "?key=abc"
        assert main(http_answer_args(tmp_path, url)) == EXIT_USER_ERROR
    assert server.requests == []
    assert capsys.readouterr().err == (
        f"error: malformed base URL {url!r}: it has a query or fragment\n"
    )


@pytest.mark.parametrize(
    "proxy",
    ["http://[::1", "http://h:abc", "http://", "http://:8080"],
    ids=["unclosed-ipv6", "non-numeric-port", "no-host", "port-only"],
)
def test_http_malformed_proxy_exits_user_error(tmp_path, monkeypatch, capsys, proxy):
    """A malformed proxy URL fails as configuration (exit 1), before any request."""
    monkeypatch.setenv("HOLORAG_API_KEY", "test-key")
    monkeypatch.setenv("http_proxy", proxy)
    with LoopbackServer(HTTP_LQP_REPLIES) as server:
        assert main(http_answer_args(tmp_path, server.url)) == EXIT_USER_ERROR
    assert server.requests == []
    assert capsys.readouterr().err.startswith("error: malformed http proxy URL: ")


def test_http_answer_runs_without_requests(tmp_path):
    """The package needs no third-party HTTP client: `requests` cannot even be imported."""
    script = (
        "import sys; sys.modules['requests'] = None\n"
        "from holorag.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, HOLORAG_API_KEY="test-key", PYTHONPATH=str(SRC_DIR.parent))
    with LoopbackServer(HTTP_LQP_REPLIES) as server:
        done = subprocess.run(
            [sys.executable, "-c", script, *http_answer_args(tmp_path, server.url)],
            env=env, capture_output=True, text=True, timeout=60,
        )
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "final\n", "")


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


def test_ingest_of_a_row_only_the_pool_refuses_exits_user_error(tmp_path):
    """`holorag ingest` of a row whose norm `Embedding` accepts and `Pool` refuses prints
    an `error: line 2` line and exits 1, with no traceback."""
    corpus = tmp_path / "corpus.jsonl"
    edge = {**CORPUS_LINE, "doc_id": "d2", "embedding": EDGE_ROW}
    corpus.write_text(json.dumps(CORPUS_LINE) + "\n" + json.dumps(edge) + "\n", encoding="utf-8")
    script = "from holorag.cli import entrypoint; entrypoint()"
    done = subprocess.run(
        [sys.executable, "-c", script, "ingest", str(corpus), "-o", str(tmp_path / "out.snap")],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR.parent)), capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == EXIT_USER_ERROR
    assert done.stderr.startswith("error: line 2: ")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out.snap").exists()


def test_ingest_refuses_an_existing_output_without_force(tmp_path, capsys):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out.snap"
    corpus.write_text(json.dumps(CORPUS_LINE) + "\n", encoding="utf-8")
    out.write_bytes(b"old")
    assert main(["ingest", str(corpus), "-o", str(out)]) == EXIT_USER_ERROR
    assert capsys.readouterr().err == f"error: {out} exists; pass --force to overwrite\n"
    assert out.read_bytes() == b"old"
    assert main(["ingest", str(corpus), "-o", str(out), "--force"]) == EXIT_OK
    assert capsys.readouterr().out == f"1 records, dim=2 -> {out}\n"
    assert index.load_snapshot(out).keys == (("charts", "d1"),)


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
        RunConfig(**values)
    config = write_config(tmp_path, values)
    assert main(retrieve_args + ["--config", config]) == EXIT_USER_ERROR
    assert capsys.readouterr().err.startswith(f"error: {name} must be")


def test_int_for_float_and_null_for_optional_accepted(retrieve_args, tmp_path, capsys):
    config = write_config(tmp_path, {"alpha": 1, "timeout": 5, "model": None})
    assert main(retrieve_args + ["--config", config]) == EXIT_OK


OUT_OF_RANGE_CONFIGS = {
    "alpha-nan": {"alpha": float("nan")},
    "alpha-inf": {"alpha": float("inf")},
    "alpha-beyond-float": {"alpha": 10**400},
    "timeout-negative": {"timeout": -1.0},
    "timeout-nan": {"timeout": float("nan")},
    "max-retries-negative": {"max_retries": -1},
    "k-zero": {"k": 0},
    "max-iters-zero": {"max_iters": 0},
    "parallelism-zero": {"parallelism": 0},
}


@pytest.mark.parametrize("values", OUT_OF_RANGE_CONFIGS.values(), ids=OUT_OF_RANGE_CONFIGS.keys())
def test_out_of_range_config_value_exits_user_error(values, retrieve_args, tmp_path, capsys):
    """A non-finite float, a timeout <= 0, a negative retry count, or a k, max_iters or
    parallelism below 1 is a ConfigError (exit 1) that names its field alone."""
    ((name, value),) = values.items()
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        RunConfig(**values)
    # json writes NaN and Infinity literals, which json.loads reads back
    config = write_config(tmp_path, values)
    flag = ["--" + name.replace("_", "-"), str(value)]
    for extra in (["--config", config], flag):
        assert main(retrieve_args + ["--scoring-mode", "masked"] + extra) == EXIT_USER_ERROR
        assert capsys.readouterr().err.startswith(f"error: {name} must be")


def test_loss_check_default_arguments_pass(capsys):
    assert main(["loss-check", "--seed", "0"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_loss_check_negative_seed_exits_user_error(capsys):
    """numpy's generators reject a negative seed, so the parser does first."""
    with pytest.raises(SystemExit) as exit_info:
        main(["loss-check", "--seed", "-1"])
    assert exit_info.value.code == EXIT_USER_ERROR
    assert "error: argument --seed: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["oracle", "gradient"])
def test_loss_check_negative_batches_exits_user_error(suite, capsys):
    """A negative batch count is refused by the parser, before any check runs."""
    with pytest.raises(SystemExit) as exit_info:
        main(["loss-check", f"--{suite}-batches", "-1"])
    assert exit_info.value.code == EXIT_USER_ERROR
    assert f"error: argument --{suite}-batches: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0])
@pytest.mark.parametrize("suite", ["oracle", "gradient"])
def test_loss_check_of_no_batches_fails(suite, count, capsys):
    """A suite that ran no batch checked nothing, so it does not pass."""
    args = ["loss-check", "--oracle-batches", "1", "--gradient-batches", "1", "--json"]
    args[args.index(f"--{suite}-batches") + 1] = str(count)
    assert main(args) == EXIT_USER_ERROR
    report = json.loads(capsys.readouterr().out)
    assert not report[suite]["passed"]
    assert report["passed"] is False


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


# -- one property over every input: cli.main never lets an exception out ------

FIXTURE_LINES = LQP_UP_TO_SUMMARY + [
    generation("summarize", ["d1"], "final"),
    generation("judge_score", ["prediction", "gold"], "5"),
]
CONFIG = {"alpha": 0.5, "k": 3, "scoring_mode": "masked"}
OUT_OF_RANGE = {
    "alpha": [0, -1.0, float("inf")],
    "h": [0.0, 1.0, 2.0],
    "k": [0, -3],
    "max_iters": [0],
    "parallelism": [0],
    "timeout": [0.0, -1.0],
    "max_retries": [-1],
    "pool_mode": ["none"],
    "scoring_mode": ["dense"],
}
# a value of each JSON type; a wrong-typed field gets one of another type
JSON_VALUES = [5, 2.5, "x", None, True, [], {}]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def input_files(tmp_path) -> dict:
    """Each input file of the CLI as (JSON objects, bytes after them), all valid."""
    pool, snapshot = demo_pool(), tmp_path / "base.snap"
    save_snapshot(pool, snapshot)
    *lines, tail = snapshot.read_bytes().split(b"\n", len(pool) + 1)
    corpus = [
        {"doc_id": doc_id, "pool": name, "embedding": row.tolist(), "metadata": meta}
        for (name, doc_id), row, meta in zip(pool.keys, pool.matrix, pool.metadata)
    ]
    return {
        "corpus": (corpus, b""),
        "snapshot": ([json.loads(line) for line in lines], tail),
        "fixtures": (FIXTURE_LINES, b""),
        "dataset": ([EXAMPLE_LINE], b""),
        "config": ([CONFIG], b""),
    }


def command_args(command, paths) -> list:
    """argv for ``command`` over the input files in ``paths``."""
    if command == "ingest":
        return ["ingest", str(paths["corpus"]), "-o", str(paths["corpus"].with_suffix(".out"))]
    common = ["--fixtures", str(paths["fixtures"]), "--config", str(paths["config"])]
    snapshot = str(paths["snapshot"])
    return {
        "retrieve": ["retrieve", snapshot, "--query", "q", "--json"],
        "answer": ["answer", snapshot, "--query", "q"],
        "eval": ["eval", snapshot, "--dataset", str(paths["dataset"]), "--mode", "e2e"],
    }[command] + common


COMMAND_INPUTS = {
    "ingest": ["corpus"],
    "retrieve": ["snapshot", "fixtures", "config"],
    "answer": ["snapshot", "fixtures", "config"],
    "eval": ["snapshot", "fixtures", "dataset", "config"],
}


def nodes(value, path=()):
    """(path, value) for every value nested in a JSON object or array."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,), item
        if isinstance(item, (dict, list)):
            yield from nodes(item, path + (key,))


DELETE = object()


def with_value(value, path, new):
    """A copy of the JSON ``value`` with the node at ``path`` set to ``new``, or DELETEd."""
    copy = dict(value) if isinstance(value, dict) else list(value)
    if len(path) > 1:
        copy[path[0]] = with_value(value[path[0]], path[1:], new)
    elif new is DELETE:
        del copy[path[0]]
    else:
        copy[path[0]] = new
    return copy


def edits(kind, value):
    """Every (path, new value) edit of ``kind`` to one JSON object."""
    found = list(nodes(value))
    if kind == "non-finite":
        return [(p, bad) for p, v in found if json_type(v) == "number" for bad in NON_FINITE]
    fields = [(p, v) for p, v in found if isinstance(p[-1], str)]
    if kind == "wrong-type":
        return [(p, new) for p, v in fields for new in JSON_VALUES if json_type(new) != json_type(v)]
    if kind == "missing-field":
        return [(p, DELETE) for p, _ in fields]
    if kind == "wrong-dimension":
        vectors = [(p, v) for p, v in found if v and isinstance(v, list)
                   and all(json_type(x) == "number" for x in v)]
        sizes = [(p, v + 1) for p, v in found if p == ("dimension",)]
        return [(p, v[:-1]) for p, v in vectors] + [(p, v + [0.5]) for p, v in vectors] + sizes
    return [((name,), new) for name, values in OUT_OF_RANGE.items() for new in values]


def encode(objects) -> bytes:
    return b"".join(json.dumps(o).encode() + b"\n" for o in objects)


def corrupt(data, kind, objects, tail) -> bytes:
    """The file of JSON lines ``objects`` and then ``tail``, with one drawn corruption."""
    whole = encode(objects) + tail
    if kind == "empty":
        return b""
    if kind == "truncated":  # cut inside the last line, or inside the tail
        last = len(tail) or len(encode(objects[-1:]))
        return whole[: data.draw(st.integers(len(whole) - last, len(whole) - 1))]
    if kind == "not-utf8":
        at = data.draw(st.integers(0, len(encode(objects)) - 1))
        return whole[:at] + b"\xff" + whole[at:]
    if kind == "duplicate":  # a repeated line repeats its doc_id, fixture or query_id
        i = data.draw(st.integers(0, len(objects) - 1))
        return encode(objects[:i + 1] + objects[i:]) + tail
    choices = [(i, edit) for i, value in enumerate(objects) for edit in edits(kind, value)]
    if not choices:  # e.g. no number to make non-finite
        return whole
    i, (path, new) = data.draw(st.sampled_from(choices))
    return encode(objects[:i] + [with_value(objects[i], path, new)] + objects[i + 1:]) + tail


CORRUPTIONS = [
    "not-utf8", "non-finite", "wrong-type", "missing-field", "empty", "truncated",
    "wrong-dimension", "duplicate",
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def write_inputs(folder, files, corrupted=None, content=b""):
    paths = {}
    for name, (objects, tail) in files.items():
        paths[name] = folder / f"{name}.in"
        paths[name].write_bytes(content if name == corrupted else encode(objects) + tail)
    return paths


@pytest.mark.parametrize("command", sorted(COMMAND_INPUTS))
def test_uncorrupted_inputs_succeed(command, tmp_path):
    paths = write_inputs(tmp_path, input_files(tmp_path))
    assert run_main(command_args(command, paths)) == (EXIT_OK, "")


@pytest.mark.filterwarnings("ignore:corpus file .* contained no records")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupted_input_exits_cleanly(data, tmp_path_factory):
    """Any command over one corrupted input returns 0, 1 or 2; a nonzero return says `error: `."""
    folder = tmp_path_factory.mktemp("corrupted")
    files = input_files(folder)
    command = data.draw(st.sampled_from(sorted(COMMAND_INPUTS)))
    target = data.draw(st.sampled_from(COMMAND_INPUTS[command]))
    kinds = CORRUPTIONS + (["out-of-range"] if target == "config" else [])
    content = corrupt(data, data.draw(st.sampled_from(kinds)), *files[target])
    code, err = run_main(command_args(command, write_inputs(folder, files, target, content)))
    assert code in (EXIT_OK, EXIT_USER_ERROR, EXIT_BACKEND_ERROR)
    if code != EXIT_OK:
        assert "error: " in err


class TornHandle:
    """Writes the first half of what it is given, then fails as a full disk would."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


@contextlib.contextmanager
def torn_write(path):
    with jsonl.atomic_write(path) as handle:
        yield TornHandle(handle)


@pytest.mark.parametrize("command", ["ingest", "answer", "eval"])
def test_interrupted_write_keeps_the_previous_file(command, tmp_path, monkeypatch):
    """The snapshot, the trace and the report are each written beside their path and
    renamed over it, so a write that fails midway leaves the old file whole."""
    folder = tmp_path / "in"
    folder.mkdir()
    args = command_args(command, write_inputs(folder, input_files(folder)))
    out = tmp_path / "out" / "written.json"
    out.parent.mkdir()
    if command == "ingest":
        args[3] = str(out)
    else:
        args += ["--trace" if command == "answer" else "--report", str(out)]
    assert run_main(args) == (EXIT_OK, "")
    before = out.read_bytes()
    writer = index if command == "ingest" else cli
    monkeypatch.setattr(writer, "atomic_write", torn_write)
    force = ["--force"] if command == "ingest" else []
    assert run_main(args + force) == (
        EXIT_USER_ERROR, "error: [Errno 28] No space left on device\n"
    )
    assert out.read_bytes() == before
    assert [p.name for p in out.parent.iterdir()] == [out.name]
