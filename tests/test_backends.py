"""Tests for the backend boundary: types, parsing, mock scripting, HTTP replay."""

import base64
import contextlib
import email.utils
import gc
import math
import sys
import time
import weakref

import pytest

from helpers import demo_pool, load_transcript
from loopback import HANG_UP, ClosedPort, LoopbackServer, Reply
from holorag.backends import (
    DocRef,
    GenerationRequest,
    GenerationResult,
    HttpBackend,
    MockBackend,
    PromptRole,
    load_template,
    parse_verdict,
    render_prompt,
)
from holorag.errors import (
    BackendUnavailableError,
    ConfigError,
    CorpusParseError,
    FixtureMissError,
    MissingLogprobsError,
    ProbabilityOutOfRangeError,
    UnparseableScoreError,
    UnparseableVerdictError,
)
from holorag.backends import http as http_module
from holorag.backends.prompts import JUDGE_RETRY_NOTE
from holorag.config import RunConfig
from holorag.evaluation import QaExample, evaluate_e2e, judge_accuracy
from holorag.pipeline import ROUTE_HQP, ROUTE_LQP, classify_pair, run_pipeline

# The two answer shapes of perfbench/stub_server.py, copied: six tokens at
# LOW_ENTROPY_LOGPROB route LQP, six at HIGH_ENTROPY_LOGPROB route HQP.  An
# entropy change that breaks answer-http-2k's route checks fails here first.
STUB_ANSWER_SHAPES = [(-0.001, ROUTE_LQP), (math.log(0.5), ROUTE_HQP)]
STUB_ANSWER_TOKENS = 6

BAD_LOGPROBS = [math.nan, math.inf, -math.inf, 0.3, True]
BAD_LOGPROB_IDS = ["nan", "inf", "-inf", "positive", "true"]


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Retries sleep uniform(0, 0) = 0 s, unless a test sets its own backoff bound."""
    monkeypatch.setattr(http_module, "RETRY_WAIT_S", 0.0)


class TestRequestAndResultTypes:
    def test_doc_reading_role_needs_docs(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt_role=PromptRole.ANSWER, query="q")

    def test_mining_roles_run_docless(self):
        req = GenerationRequest(prompt_role=PromptRole.FINEPRINT_MINE, query="q", prior="x")
        assert req.context_docs == ()

    def test_probability_range_enforced(self):
        # logprobs must be finite and <= 0; nothing is clamped
        for bad in (math.nan, math.inf, -math.inf, 0.3):
            with pytest.raises(ProbabilityOutOfRangeError):
                GenerationResult(text="x", token_logprobs=(-0.5, bad))
        result = GenerationResult(text="x", token_logprobs=(0.0, -800.0))
        assert result.token_logprobs == (0.0, -800.0)

    def test_finish_reason_constrained(self):
        with pytest.raises(ValueError):
            GenerationResult(text="x", token_logprobs=(0.0,), finish_reason="done")


class TestVerdictParsing:
    def test_yes_with_reason(self):
        assert parse_verdict("YES — the chart states it") is True

    def test_plain_no(self):
        assert parse_verdict("no") is False

    def test_mixed_case(self):
        assert parse_verdict("Yes, covered.") is True

    def test_maybe_rejected(self):
        with pytest.raises(UnparseableVerdictError):
            parse_verdict("maybe")

    def test_empty_rejected(self):
        with pytest.raises(UnparseableVerdictError):
            parse_verdict("   ")


JUDGE_PROMPT = (
    "Score how well the prediction answers the question compared to the\n"
    "reference answer, on a 1-5 scale: 5 fully correct; 4 generally correct but\n"
    "less concise; 3 partially correct; 2 mostly incorrect; 1 incorrect.\n"
    "\n"
    "Question: how many?\n"
    "\n"
    "[prediction] twelve\n"
    "[gold] 12\n"
    "\n"
    "Reply with a one-line justification, then the score as a bare integer on\n"
    "the final line.\n"
)
JUDGE_RETRY_LINE = (
    "\nYour previous reply did not end with a bare score. Reply again, and put "
    "only the integer score, 1-5, on the final line.\n"
)


class TestTemplates:
    @pytest.mark.parametrize("role", list(PromptRole))
    def test_all_templates_load(self, role):
        text = load_template(role)
        assert "{query}" in text

    def test_render_fills_placeholders(self):
        req = GenerationRequest(
            prompt_role=PromptRole.ANSWER,
            query="how many?",
            context_docs=(DocRef("d1", text="twelve"),),
        )
        prompt = render_prompt(req)
        assert "how many?" in prompt
        assert "[d1] twelve" in prompt
        assert "{query}" not in prompt

    def test_braces_in_content_are_safe(self):
        req = GenerationRequest(
            prompt_role=PromptRole.ANSWER,
            query="values like {x}",
            context_docs=(DocRef("d1", text='{"json": [1, 2]}'),),
        )
        prompt = render_prompt(req)
        assert '{"json": [1, 2]}' in prompt

    def test_judge_retry_appends_a_corrective_line(self):
        """Iteration 0 renders the bare template; the retry ends with one more line."""
        docs = (DocRef("prediction", text="twelve"), DocRef("gold", text="12"))
        first, retry = (
            render_prompt(GenerationRequest(PromptRole.JUDGE_SCORE, "how many?", docs, iteration=i))
            for i in (0, 1)
        )
        assert first == JUDGE_PROMPT
        assert retry == JUDGE_PROMPT + JUDGE_RETRY_LINE

    def test_only_the_judge_retry_changes(self):
        docs = (DocRef("d1", text="body"),)
        for role in (PromptRole.SUFFICIENCY_PROBE, PromptRole.SUMMARIZE):
            requests = [GenerationRequest(role, "q", docs, iteration=i) for i in (0, 1)]
            assert len({render_prompt(request) for request in requests}) == 1


class TestMockBackend:
    def test_fixture_hit(self):
        mock = MockBackend()
        mock.add_generation("answer", "q1", ["d1"], 0, "42", [0.9, 0.95])
        result = mock.generate(
            GenerationRequest(PromptRole.ANSWER, "q1", (DocRef("d1"),))
        )
        assert result.text == "42"
        assert result.token_logprobs == (math.log(0.9), math.log(0.95))

    def test_doc_order_does_not_matter(self):
        mock = MockBackend()
        mock.add_generation("answer", "q", ["a", "b"], 0, "ok", [1.0])
        result = mock.generate(
            GenerationRequest(PromptRole.ANSWER, "q", (DocRef("b"), DocRef("a")))
        )
        assert result.text == "ok"

    def test_strict_miss(self):
        mock = MockBackend()
        with pytest.raises(FixtureMissError):
            mock.generate(GenerationRequest(PromptRole.ANSWER, "q", (DocRef("d"),)))

    def test_lenient_canned_answers(self):
        mock = MockBackend(strict=False)
        answer = mock.generate(GenerationRequest(PromptRole.ANSWER, "q", (DocRef("d"),)))
        assert answer.text == "unknown"
        probe = mock.generate(
            GenerationRequest(PromptRole.SUFFICIENCY_PROBE, "q", (DocRef("d"),))
        )
        assert parse_verdict(probe.text) is False
        judge = mock.generate(
            GenerationRequest(PromptRole.JUDGE_SCORE, "q", (DocRef("prediction"),))
        )
        assert judge.text.splitlines()[-1] == "1"

    def test_embedding_fixture_verbatim(self):
        mock = MockBackend()
        mock.add_embedding("query", "hello", [0.1, 0.2, 0.3])
        emb = mock.embed_query("hello")
        assert list(emb.values) == [0.1, 0.2, 0.3]

    def test_embedding_miss_always_errors(self):
        mock = MockBackend(strict=False)
        with pytest.raises(FixtureMissError):
            mock.embed_query("nope")

    def test_document_embedding_kind_rejected(self):
        with pytest.raises(ValueError, match="'query'"):
            MockBackend().add_embedding("document", "d1", [1.0, 0.0])

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"embed": "document", "key": "d1", "vector": [1.0, 0.0]}',
            '{"role": "oracle", "query": "q1", "docs": ["d1"], "text": "42", '
            '"token_probs": [1.0]}',
            '{"role": "answer", "query": "q1", "docs": ["d1"], "text": "42", '
            '"token_probs": [0.5, 0.0]}',
            '{"role": "answer", "query": "q1", "docs": ["d1"], "text": "42", '
            '"token_probs": [1.5]}',
            '{"role": "answer", "query": "q1", "docs": ["d1"], "text": 5, '
            '"token_probs": [1.0]}',
            '{"embed": "query", "key": 5, "vector": [1.0, 0.0]}',
            '{"role": "answer", "query": 5, "docs": ["d1"], "text": "42", "token_probs": [1.0]}',
            '{"role": "answer", "query": "q1", "docs": "d1", "text": "42", "token_probs": [1.0]}',
            '{"role": "answer", "query": "q1", "docs": ["d1", 2], "text": "42", '
            '"token_probs": [1.0]}',
            '{"role": "answer", "query": "q1", "docs": ["d1"], "text": "42", "token_probs": []}',
            '{"embed": "query", "key": "q2", "vector": ["1", true]}',
            '{"embed": "query", "key": "q2", "vector": [true, false]}',
            '{"embed": "query", "key": "q2", "vector": [null, 1.0]}',
        ],
        ids=[
            "document-kind",
            "unknown-role",
            "zero-prob",
            "prob-above-one",
            "text-not-string",
            "key-not-string",
            "query-not-string",
            "docs-a-string",
            "doc-id-not-string",
            "empty-token-probs",
            "vector-str-and-bool",
            "vector-bool",
            "vector-null",
        ],
    )
    def test_from_file_bad_line_reports_line_number(self, tmp_path, bad_line):
        path = tmp_path / "fixtures.jsonl"
        path.write_text(
            '{"embed": "query", "key": "q1", "vector": [1.0, 0.0]}\n' + bad_line + "\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusParseError, match="line 2") as info:
            MockBackend.from_file(path)
        assert info.value.line_number == 2

    def test_from_file_and_determinism(self, tmp_path):
        lines = [
            '{"role": "answer", "query": "q1", "docs": ["d1"], "iteration": 0, '
            '"text": "42", "token_probs": [0.9, 0.95]}',
            '{"embed": "query", "key": "q1", "vector": [1.0, 0.0]}',
        ]
        path = tmp_path / "fixtures.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        request = GenerationRequest(PromptRole.ANSWER, "q1", (DocRef("d1"),))
        outputs = []
        for _ in range(2):
            backend = MockBackend.from_file(path)
            outputs.append((backend.generate(request), tuple(backend.embed_query("q1").values)))
        assert outputs[0] == outputs[1]


def any_request():
    return GenerationRequest(PromptRole.ANSWER, "q", (DocRef("d1", text="body"),))


def completion(text, logprobs):
    """A 200 chat-completion response whose tokens carry ``logprobs``."""
    content = [{"token": "t", "logprob": lp} for lp in logprobs]
    choice = {"message": {"content": text}, "logprobs": {"content": content}}
    return {"status": 200, "body": {"choices": [choice]}}


def transcript_reply(entry):
    """The loopback reply for a transcript entry: a ``{"raise": ...}`` entry hangs up."""
    if "raise" in entry:
        return HANG_UP
    return Reply(entry["status"], entry["body"], headers=entry.get("headers", {}))


def real_backend(monkeypatch, url, timeout=5.0, max_retries=2):
    monkeypatch.setenv("HOLORAG_API_KEY", "test-key")
    return HttpBackend(base_url=url, model="m", timeout=timeout, max_retries=max_retries)


@pytest.fixture
def scripted_http(monkeypatch):
    """Start(entries, max_retries=2) -> (HttpBackend, LoopbackServer) replaying ``entries``.

    Each call starts its own loopback server, closed at teardown.  A transport
    failure entry hangs up on a fresh connection, so it costs one attempt; one
    that followed a reply on a kept-alive connection would be resent as stale.
    The server repeats its last reply, so teardown fails a test whose backend
    sent more requests than its script has entries.
    """
    scripts = []
    with contextlib.ExitStack() as servers:
        def start(entries, max_retries=2):
            server = servers.enter_context(
                LoopbackServer([transcript_reply(entry) for entry in entries])
            )
            scripts.append((server, len(entries)))
            return real_backend(monkeypatch, server.url, max_retries=max_retries), server

        yield start
    for server, scripted in scripts:
        assert len(server.requests) <= scripted, (
            f"script exhausted: {len(server.requests)} requests for {scripted} entries"
        )


EMBEDDING_RESPONSE = {"status": 200, "body": {"data": [{"embedding": [1.0, 0.05, 0.02, 0.01]}]}}


def pipeline_over_http(scripted_http, answer_logprobs):
    """run_pipeline on the demo pool: embed, one YES probe, the answer, a summary."""
    entries = [
        EMBEDDING_RESPONSE,
        completion("YES - covered", [0.0]),
        completion("initial", answer_logprobs),
        completion("final", [0.0]),
    ]
    return run_pipeline("q", demo_pool(), RunConfig(), scripted_http(entries)[0])


class TestHttpBackend:
    def test_happy_path_parses_probs(self, scripted_http):
        backend, server = scripted_http(load_transcript("transcript_happy.json"))
        result = backend.generate(any_request())
        assert result.text == "42"
        assert result.finish_reason == "stop"
        assert result.token_logprobs == (-0.105360515657826, -0.051293294387551)
        payload = server.requests[0]["payload"]
        assert payload["temperature"] == 0
        assert payload["logprobs"] is True

    def test_replay_is_deterministic(self, scripted_http):
        first = scripted_http(load_transcript("transcript_happy.json"))[0].generate(any_request())
        second = scripted_http(load_transcript("transcript_happy.json"))[0].generate(any_request())
        assert first == second

    def test_missing_logprobs(self, scripted_http):
        backend, _ = scripted_http(load_transcript("transcript_missing_logprobs.json"))
        with pytest.raises(MissingLogprobsError):
            backend.generate(any_request())

    def test_retry_after_500(self, scripted_http):
        backend, server = scripted_http(load_transcript("transcript_retry.json"))
        result = backend.generate(any_request())
        assert result.text == "ready now"
        assert result.finish_reason == "length"
        assert len(server.requests) == 2

    def test_extreme_logprob_routes(self, scripted_http):
        # e^-800 underflows to 0; the token adds 0 entropy instead of failing
        backend, _ = scripted_http([completion("42", [-800.0, 0.0])])
        assert backend.generate(any_request()).token_logprobs == (-800.0, 0.0)
        trace = pipeline_over_http(scripted_http, [-800.0, 0.0])
        assert trace.error is None
        assert trace.route.kind == ROUTE_LQP
        assert trace.route.score.raw_entropy == 0.0
        assert trace.final_answer == "final"

    @pytest.mark.parametrize("bad", BAD_LOGPROBS, ids=BAD_LOGPROB_IDS)
    def test_bad_logprob_is_a_backend_error(self, scripted_http, bad):
        backend, _ = scripted_http([completion("42", [-0.1, bad])])
        with pytest.raises(MissingLogprobsError, match="malformed logprob entries"):
            backend.generate(any_request())
        trace = pipeline_over_http(scripted_http, [-0.1, bad])
        assert trace.failed
        assert trace.route is None
        assert trace.final_answer is None
        assert "MissingLogprobsError" in trace.error

    @pytest.mark.parametrize("logprob, route", STUB_ANSWER_SHAPES, ids=["lqp", "hqp"])
    def test_stub_answer_shapes_route(self, scripted_http, logprob, route):
        backend, _ = scripted_http([completion("initial", [logprob] * STUB_ANSWER_TOKENS)])
        assert classify_pair(backend.generate(any_request()), RunConfig().h).kind == route

    def test_rate_limit_then_success(self, scripted_http):
        backend, server = scripted_http(
            [{"status": 429, "body": {"error": {"message": "slow down"}}}, completion("42", [0.0])]
        )
        assert backend.generate(any_request()).text == "42"
        assert len(server.requests) == 2

    @staticmethod
    def record_backoff(monkeypatch, retry_wait_s):
        """Set the backoff's first bound to ``retry_wait_s``, and record each sleep and
        each jitter draw's bounds; a draw returns half its upper bound."""
        monkeypatch.setattr(http_module, "RETRY_WAIT_S", retry_wait_s)
        waits, draws = [], []
        monkeypatch.setattr("holorag.backends.http.time.sleep", waits.append)

        def uniform(low, high):
            draws.append((low, high))
            return high / 2

        monkeypatch.setattr("holorag.backends.http.random.uniform", uniform)
        return waits, draws

    def test_rate_limit_exhausts_retries(self, monkeypatch, scripted_http):
        waits, draws = self.record_backoff(monkeypatch, 0.5)
        backend, server = scripted_http([{"status": 429, "body": {}}] * 3)
        with pytest.raises(BackendUnavailableError, match="after 3 attempts.*429"):
            backend.generate(any_request())
        assert len(server.requests) == 3
        assert draws == [(0.0, 0.5), (0.0, 1.0)]
        assert waits == [0.25, 0.5]

    def test_backoff_bound_doubles_per_attempt(self, monkeypatch, scripted_http):
        waits, draws = self.record_backoff(monkeypatch, 0.5)
        backend, _ = scripted_http([{"raise": "boom"}] * 4, max_retries=3)
        with pytest.raises(BackendUnavailableError, match="after 4 attempts"):
            backend.generate(any_request())
        assert draws == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
        assert waits == [0.25, 0.5, 1.0]

    @pytest.mark.parametrize("status", [429, 503])
    @pytest.mark.parametrize(
        "retry_after, wait",
        [
            ("0", 0.0),
            (" 3 ", 3.0),
            ("86400", http_module.RETRY_AFTER_CAP_S),
            ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),
            ("Sun Nov  6 08:49:37 1994", 0.0),
        ],
        ids=["zero", "seconds", "capped", "past-date", "past-asctime"],
    )
    def test_retry_after_replaces_the_backoff(
        self, monkeypatch, scripted_http, status, retry_after, wait
    ):
        waits, draws = self.record_backoff(monkeypatch, 5.0)
        refused = {"status": status, "body": {}, "headers": {"Retry-After": retry_after}}
        backend, _ = scripted_http([refused, completion("42", [0.0])])
        assert backend.generate(any_request()).text == "42"
        assert (waits, draws) == ([wait], [])

    def test_retry_after_date_waits_until_then(self, monkeypatch, scripted_http):
        waits, draws = self.record_backoff(monkeypatch, 5.0)
        when = email.utils.formatdate(time.time() + 10, usegmt=True)
        refused = {"status": 503, "body": {}, "headers": {"Retry-After": when}}
        backend, _ = scripted_http([refused, completion("42", [0.0])])
        backend.generate(any_request())
        assert draws == []
        assert 8.0 < waits[0] <= 10.0

    @pytest.mark.parametrize("retry_after", ["soon", "1.5", "-1", ""])
    def test_unreadable_retry_after_falls_back_to_jitter(
        self, monkeypatch, scripted_http, retry_after
    ):
        waits, draws = self.record_backoff(monkeypatch, 5.0)
        refused = {"status": 429, "body": {}, "headers": {"Retry-After": retry_after}}
        backend, _ = scripted_http([refused, completion("42", [0.0])])
        backend.generate(any_request())
        assert (waits, draws) == ([2.5], [(0.0, 5.0)])

    def test_client_error_no_retry(self, scripted_http):
        backend, server = scripted_http(
            [{"status": 401, "body": {"error": {"message": "bad key"}}}]
        )
        with pytest.raises(BackendUnavailableError, match="401"):
            backend.generate(any_request())
        assert len(server.requests) == 1

    @pytest.mark.parametrize(
        "reply",
        [{"raise": "boom"}, {"status": 400, "body": {}}],
        ids=["transport-failure", "client-error"],
    )
    def test_failed_call_leaves_no_reference_cycle(self, scripted_http, reply):
        """A backend whose call failed is freed once its last reference goes, with no
        collection: the failure it kept must not hold its own frame."""
        backend, _ = scripted_http([reply] * 3)
        alive = weakref.ref(backend)
        gc.disable()
        try:
            with pytest.raises(BackendUnavailableError):
                backend.generate(any_request())
            del backend
            assert alive() is None
        finally:
            gc.enable()

    def test_malformed_score_transcript_fails_after_one_retry(self, scripted_http):
        """Two prose judge replies: the retry carries the corrective note, then the error."""
        backend, server = scripted_http(load_transcript("transcript_malformed_score.json"))
        with pytest.raises(UnparseableScoreError):
            judge_accuracy("twelve", "12", backend, query="how many?")
        prompts = [r["payload"]["messages"][0]["content"] for r in server.requests]
        assert len(prompts) == 2
        assert prompts[1].endswith(JUDGE_RETRY_NOTE)

    def test_transport_failures_exhaust_retries(self, scripted_http):
        backend, _ = scripted_http([{"raise": "boom"}] * 3, max_retries=2)
        with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
            backend.generate(any_request())

    def test_embedding_endpoint(self, scripted_http):
        backend, server = scripted_http(load_transcript("transcript_embedding.json"))
        emb = backend.embed_query("hello")
        assert list(emb.values) == [0.6, 0.8, 0.0]
        assert server.requests[0]["path"] == "/v1/embeddings"

    def test_malformed_body(self, scripted_http):
        backend, _ = scripted_http([{"status": 200, "body": {"nope": True}}])
        with pytest.raises(BackendUnavailableError, match="malformed"):
            backend.generate(any_request())

    def test_null_content_is_a_backend_error(self, scripted_http):
        # OpenAI-compatible servers send "content": null for refusals and tool calls
        null_reply = completion(None, [0.0])
        backend, _ = scripted_http([null_reply])
        with pytest.raises(BackendUnavailableError, match="malformed completion response"):
            backend.generate(any_request())
        backend, _ = scripted_http([EMBEDDING_RESPONSE, null_reply])
        trace = run_pipeline("q", demo_pool(), RunConfig(), backend)
        assert trace.failed
        assert trace.final_answer is None
        assert isinstance(trace.exception, BackendUnavailableError)
        assert "malformed completion response" in trace.error

    @staticmethod
    def embedding_backend(scripted_http, vector):
        body = {"data": [{"object": "embedding", "index": 0, "embedding": vector}]}
        return scripted_http([{"status": 200, "body": body}])[0]

    @pytest.mark.parametrize(
        "vector",
        [[], [None, 1.0], ["x", 1.0], [1e200, 1.0], ["1.0", "0.0"], [True, False]],
        ids=["empty", "null", "str", "huge", "numeric-str", "bool"],
    )
    def test_malformed_embedding_vector(self, scripted_http, vector):
        with pytest.raises(BackendUnavailableError, match="malformed embedding response"):
            self.embedding_backend(scripted_http, vector).embed_query("q")

    @pytest.mark.parametrize(
        "base_url",
        [
            "http://127.0.0.1:abc/v1",
            "http://127.0.0.1:99999/v1",
            "http://[::1/v1",
            "http://h/v1?key=abc",
            "http://h/v1?",
            "http://h/v1#x",
        ],
        ids=[
            "non-numeric-port", "port-out-of-range", "unclosed-ipv6",
            "query", "empty-query", "fragment",
        ],
    )
    def test_malformed_base_url_is_config_error(self, monkeypatch, base_url):
        """A base URL `urlsplit` cannot parse, whose port is not in 0-65535, or
        that carries a query or a fragment, which the appended path would land
        behind, is a configuration mistake: a ConfigError on construction, not
        retries."""
        with pytest.raises(ConfigError, match="malformed base URL"):
            real_backend(monkeypatch, base_url)

    @pytest.mark.parametrize(
        "base_url",
        ["http://127.0.0.1:8080/v1", "https://rag.example/v1", "http://[::1]:8080/v1"],
        ids=["port", "no-port", "ipv6-port"],
    )
    def test_well_formed_base_url_constructs(self, monkeypatch, base_url):
        backend = real_backend(monkeypatch, base_url)
        assert backend.base_url == base_url

    def test_malformed_embedding_fails_the_trace(self, scripted_http):
        backend = self.embedding_backend(scripted_http, ["x", 1.0])
        trace = run_pipeline("q", demo_pool(), RunConfig(), backend)
        assert trace.failed
        assert trace.final_answer is None
        assert "malformed embedding response" in trace.error


OK_REPLY = Reply(200, completion("42", [-0.1, -0.2])["body"])
SLOW_TIMEOUT = 0.2  # a timeout well under the slow handler's 1 s delay

# (replies, timeout, error message, attempts) of calls that fail over real HTTP
HTTP_FAILURES = [
    pytest.param(
        [Reply(503, {"error": "overloaded"})], 5.0, "after 3 attempts.*status 503", 3,
        id="503-exhausts-retries",
    ),
    pytest.param([Reply(400, {"error": "bad request"})], 5.0, "status 400", 1, id="400-no-retry"),
    pytest.param(
        [Reply(200, b"not json")], 5.0, "after 3 attempts.*non-JSON", 3, id="non-json-200"
    ),
    pytest.param([Reply(200, b'{"choices": "\xff"}')], 5.0, "non-JSON", 3, id="non-utf8-200"),
    pytest.param([Reply(502, b"<html>Bad Gateway</html>")], 5.0, "non-JSON", 3, id="html-502"),
    pytest.param(
        [Reply(307, {"error": "moved"}, headers={"Location": "/v1/moved"})], 5.0,
        "status 307", 1, id="307-not-followed",
    ),
    pytest.param(
        [Reply(200, OK_REPLY.body, delay=1.0)], SLOW_TIMEOUT, "after 3 attempts.*timed out", 3,
        id="slow-handler",
    ),
]


class TestHttpOverLoopback:
    """The transport against a local server: each outcome and its attempt count."""

    @staticmethod
    def count_transport_calls(monkeypatch):
        """Record the URL of every call into the transport."""
        calls = []
        real = http_module._KeepAliveTransport.__call__

        def counted(self, *args):
            calls.append(args[0])
            return real(self, *args)

        monkeypatch.setattr(http_module._KeepAliveTransport, "__call__", counted)
        return calls

    @pytest.mark.parametrize(
        "replies, attempts",
        [([OK_REPLY], 1), ([Reply(429, {"error": "slow down"}), OK_REPLY], 2)],
        ids=["200", "429-then-200"],
    )
    def test_success(self, monkeypatch, replies, attempts):
        with LoopbackServer(replies) as server:
            result = real_backend(monkeypatch, server.url).generate(any_request())
        assert (result.text, result.token_logprobs) == ("42", (-0.1, -0.2))
        assert len(server.requests) == attempts
        assert {r["connection"] for r in server.requests} == {1}
        first = server.requests[0]
        assert first["path"] == "/v1/chat/completions"
        assert first["headers"]["Authorization"] == "Bearer test-key"
        assert first["headers"]["Content-Type"] == "application/json"
        assert first["payload"]["logprobs"] is True

    @pytest.mark.parametrize("replies, timeout, message, attempts", HTTP_FAILURES)
    def test_failure_is_a_backend_error(self, monkeypatch, replies, timeout, message, attempts):
        with LoopbackServer(replies) as server:
            with pytest.raises(BackendUnavailableError, match=message) as failure:
                real_backend(monkeypatch, server.url, timeout).generate(any_request())
        assert type(failure.value) is BackendUnavailableError
        assert len(server.requests) == attempts

    def test_closed_port(self, monkeypatch):
        calls = self.count_transport_calls(monkeypatch)
        with ClosedPort() as closed:
            with pytest.raises(BackendUnavailableError, match="after 3 attempts.*refused"):
                real_backend(monkeypatch, closed.url).generate(any_request())
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "base_url",
        ["{host_port}/v1", "v1", "file:///v1", "http:///v1"],
        ids=["host-port", "path-only", "file", "no-host"],
    )
    def test_base_url_without_http_scheme(self, monkeypatch, base_url):
        """A base URL that is not http or https, or has no host, fails on construction."""
        calls = self.count_transport_calls(monkeypatch)
        with LoopbackServer([OK_REPLY]) as server:
            host_port = server.url.removeprefix("http://").removesuffix("/v1")
            with pytest.raises(ConfigError, match="must be http:// or https:// and a host"):
                real_backend(monkeypatch, base_url.format(host_port=host_port))
        assert (len(calls), len(server.requests)) == (0, 0)

    def test_every_chat_request_sends_one_token_budget(self, monkeypatch):
        """The answer request and the judge's request both carry max_tokens 256."""
        replies = [
            Reply(200, EMBEDDING_RESPONSE["body"]),
            Reply(200, completion("YES - covered", [0.0])["body"]),
            Reply(200, completion("initial", [-0.1])["body"]),
            Reply(200, completion("final", [0.0])["body"]),
            Reply(200, completion("5", [0.0])["body"]),
        ]
        with LoopbackServer(replies) as server:
            backend = real_backend(monkeypatch, server.url)
            trace = run_pipeline("q", demo_pool(), RunConfig(), backend)
            assert judge_accuracy(trace.final_answer, "final", backend, query="q") == (5, True)
        payloads = [r["payload"] for r in server.requests]
        prompts = [p["messages"][0]["content"] for p in payloads[1:]]
        assert prompts[1].startswith("Answer the question using only")
        assert prompts[3].startswith("Score how well the prediction")
        assert [p["max_tokens"] for p in payloads[1:]] == [256] * 4

    def test_key_is_read_once_on_construction(self, monkeypatch):
        with LoopbackServer([OK_REPLY]) as server:
            backend = real_backend(monkeypatch, server.url)
            monkeypatch.delenv("HOLORAG_API_KEY")
            backend.generate(any_request())
            with pytest.raises(ConfigError, match="missing API key: set the HOLORAG_API_KEY"):
                HttpBackend(base_url=server.url, model="m")
        assert server.requests[0]["headers"]["Authorization"] == "Bearer test-key"


def text_reply(text, **options):
    return Reply(200, completion(text, [0.0])["body"], **options)


def connections(server):
    return [request["connection"] for request in server.requests]


class TestKeepAlive:
    """The real transport keeps one connection per thread and drops it on any failure."""

    @staticmethod
    def record_sleeps(monkeypatch):
        sleeps = []
        monkeypatch.setattr("holorag.backends.http.time.sleep", sleeps.append)
        return sleeps

    def test_sequential_calls_share_one_connection(self, monkeypatch):
        with LoopbackServer([OK_REPLY]) as server:
            backend = real_backend(monkeypatch, server.url)
            for _ in range(5):
                assert backend.generate(any_request()).text == "42"
        assert connections(server) == [1] * 5

    def test_stale_connection_is_resent_once_at_once(self, monkeypatch):
        """A server that closed the idle connection costs no attempt and no sleep."""
        sleeps = self.record_sleeps(monkeypatch)
        replies = [text_reply("A", close=True), text_reply("B"), text_reply("C")]
        with LoopbackServer(replies) as server:
            backend = real_backend(monkeypatch, server.url)
            texts = [backend.generate(any_request()).text for _ in range(3)]
        assert texts == ["A", "B", "C"]
        assert connections(server) == [1, 2, 2]
        assert sleeps == []

    def test_failed_resend_is_an_attempt(self, monkeypatch):
        """The stale resend goes out once; if the fresh connection fails too, that is an attempt."""
        sleeps = self.record_sleeps(monkeypatch)
        with LoopbackServer([text_reply("A"), HANG_UP, HANG_UP, text_reply("B")]) as server:
            backend = real_backend(monkeypatch, server.url)
            texts = [backend.generate(any_request()).text for _ in range(2)]
        assert texts == ["A", "B"]
        assert connections(server) == [1, 1, 2, 3]
        assert sleeps == [0.0]

    @pytest.mark.parametrize(
        "first, timeout, expected_connections",
        [
            (text_reply("A", delay=1.0), SLOW_TIMEOUT, [1, 2, 2]),
            (Reply(200, b"not json"), 5.0, [1, 1, 1]),
        ],
        ids=["timed-out", "non-json"],
    )
    def test_failed_reply_never_answers_a_later_request(
        self, monkeypatch, first, timeout, expected_connections
    ):
        with LoopbackServer([first, text_reply("B"), text_reply("C")]) as server:
            backend = real_backend(monkeypatch, server.url, timeout)
            texts = [backend.generate(any_request()).text for _ in range(2)]
        assert texts == ["B", "C"]
        assert connections(server) == expected_connections

    def test_parallel_evaluation_keeps_one_connection_per_worker(self, monkeypatch):
        """At parallelism N, evaluate_e2e opens at most N connections and reports as at 1.

        One reply serves every role: embedding, YES probe, answer, summary and
        a judge score of 5 on its last line, so the arrival order is free.
        """
        body = {**EMBEDDING_RESPONSE["body"], **completion("YES - covered\n5", [0.0])["body"]}
        dataset = [
            QaExample(f"e{i}", f"q{i}", {("charts", "d1")}, "covered") for i in range(8)
        ]
        rows, interval = {}, sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to shake out shared state
        try:
            for parallelism in (1, 2, 4):
                with LoopbackServer([Reply(200, body)]) as server:
                    backend = real_backend(monkeypatch, server.url)
                    config = RunConfig(parallelism=parallelism)
                    report = evaluate_e2e(dataset, [demo_pool()], config, backend, backend)
                rows[parallelism] = report.per_example
                assert len(server.requests) == 5 * len(dataset)
                assert len(set(connections(server))) <= parallelism
        finally:
            sys.setswitchinterval(interval)
        assert rows[1] == rows[2] == rows[4]
        assert [(r.error, r.judge_score) for r in rows[4]] == [(None, 5)] * len(dataset)

    def test_judge_retry_sends_the_corrective_prompt(self, monkeypatch):
        replies = [text_reply("looks plausible"), text_reply("matches\n4")]
        with LoopbackServer(replies) as server:
            backend = real_backend(monkeypatch, server.url)
            assert judge_accuracy("twelve", "12", backend, query="how many?") == (4, True)
        prompts = [r["payload"]["messages"][0]["content"] for r in server.requests]
        assert prompts == [JUDGE_PROMPT, JUDGE_PROMPT + JUDGE_RETRY_LINE]
        assert connections(server) == [1, 1]

    def test_retry_after_is_obeyed_over_http(self, monkeypatch):
        """A 429 asking for 0 s and a 503 asking for a day: 0 s, then the cap."""
        sleeps = self.record_sleeps(monkeypatch)
        monkeypatch.setattr("holorag.backends.http.random.uniform", None)  # no draw may happen
        replies = [
            Reply(429, {"error": "slow down"}, headers={"Retry-After": "0"}),
            Reply(503, {"error": "overloaded"}, headers={"Retry-After": "86400"}),
            OK_REPLY,
        ]
        with LoopbackServer(replies) as server:
            assert real_backend(monkeypatch, server.url).generate(any_request()).text == "42"
        assert sleeps == [0.0, http_module.RETRY_AFTER_CAP_S]
        assert connections(server) == [1, 1, 1]


def basic_credentials(user, password):
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")


class TestProxy:
    """Proxies come from the environment when the backend is constructed.

    Each origin is a loopback port that refuses connections, so a request
    that skipped the proxy fails at once and resolves no name.
    """

    @staticmethod
    def proxy_url(server, credentials=""):
        return server.url.removesuffix("/v1").replace("http://", f"http://{credentials}")

    def test_http_goes_to_the_proxy_in_absolute_form(self, monkeypatch):
        with LoopbackServer([OK_REPLY]) as proxy, ClosedPort() as origin:
            monkeypatch.setenv("http_proxy", self.proxy_url(proxy, "user:p%40ss@"))
            backend = real_backend(monkeypatch, origin.url)
            for _ in range(2):
                assert backend.generate(any_request()).text == "42"
        assert [r["path"] for r in proxy.requests] == [f"{origin.url}/chat/completions"] * 2
        headers = proxy.requests[0]["headers"]
        assert headers["Host"] == origin.url.removeprefix("http://").removesuffix("/v1")
        assert headers["Proxy-Authorization"] == basic_credentials("user", "p@ss")
        assert headers["Authorization"] == "Bearer test-key"
        assert connections(proxy) == [1, 1]

    def test_no_proxy_goes_direct(self, monkeypatch):
        with LoopbackServer([OK_REPLY]) as proxy, LoopbackServer([OK_REPLY]) as server:
            monkeypatch.setenv("http_proxy", self.proxy_url(proxy))
            monkeypatch.setenv("no_proxy", "rag.example, 127.0.0.1")
            backend = real_backend(monkeypatch, server.url)
            assert backend.generate(any_request()).text == "42"
        assert proxy.requests == []
        assert [r["path"] for r in server.requests] == ["/v1/chat/completions"]

    @pytest.mark.parametrize(
        "proxy",
        ["http://[::1", "http://h:abc", "h:99999"],
        ids=["unclosed-ipv6", "non-numeric-port", "port-out-of-range"],
    )
    def test_malformed_proxy_url_is_config_error(self, monkeypatch, proxy):
        """A proxy URL that will be used is checked on construction, as the base URL is."""
        with LoopbackServer([OK_REPLY]) as server:
            monkeypatch.setenv("http_proxy", proxy)
            with pytest.raises(ConfigError, match="malformed http proxy URL: "):
                real_backend(monkeypatch, server.url)
        assert server.requests == []

    def test_https_tunnels_through_the_proxy(self, monkeypatch):
        """CONNECT carries the proxy's credentials and never the API key."""
        refusal = Reply(403, {"error": "no tunnels here"})
        with LoopbackServer([refusal]) as proxy, ClosedPort() as origin:
            monkeypatch.setenv("https_proxy", self.proxy_url(proxy, "user:pw@"))
            https_url = origin.url.replace("http://", "https://")
            backend = real_backend(monkeypatch, https_url)
            with pytest.raises(BackendUnavailableError, match="Tunnel connection failed: 403"):
                backend.generate(any_request())
        host_port = origin.url.removeprefix("http://").removesuffix("/v1")
        assert [(r["method"], r["path"]) for r in proxy.requests] == [("CONNECT", host_port)] * 3
        headers = proxy.requests[0]["headers"]
        assert headers["Proxy-Authorization"] == basic_credentials("user", "pw")
        assert "Authorization" not in headers
