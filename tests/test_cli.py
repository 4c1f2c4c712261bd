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

from helpers import demo_pool
from loopback import ClosedPort, LoopbackServer, Reply
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
    "proxy", ["http://[::1", "http://h:abc"], ids=["unclosed-ipv6", "non-numeric-port"]
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
    "alpha-inf": {"alpha": float("inf")},
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
