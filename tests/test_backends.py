"""Tests for the backend boundary: types, parsing, mock scripting, HTTP replay."""

import math

import pytest

from helpers import TranscriptTransport, demo_pool, load_transcript
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
    CorpusParseError,
    FixtureMissError,
    MissingLogprobsError,
    ProbabilityOutOfRangeError,
    UnparseableVerdictError,
)
from holorag.config import RunConfig
from holorag.pipeline import ROUTE_HQP, ROUTE_LQP, classify_pair, run_pipeline

# The two answer shapes of perfbench/stub_server.py, copied: six tokens at
# LOW_ENTROPY_LOGPROB route LQP, six at HIGH_ENTROPY_LOGPROB route HQP.  An
# entropy change that breaks answer-http-2k's route checks fails here first.
STUB_ANSWER_SHAPES = [(-0.001, ROUTE_LQP), (math.log(0.5), ROUTE_HQP)]
STUB_ANSWER_TOKENS = 6

BAD_LOGPROBS = [math.nan, math.inf, -math.inf, 0.3, True]
BAD_LOGPROB_IDS = ["nan", "inf", "-inf", "positive", "true"]


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
        verdict = parse_verdict("YES — the chart states it")
        assert verdict.sufficient
        assert "chart states it" in verdict.rationale

    def test_plain_no(self):
        assert parse_verdict("no").sufficient is False

    def test_mixed_case(self):
        assert parse_verdict("Yes, covered.").sufficient

    def test_maybe_rejected(self):
        with pytest.raises(UnparseableVerdictError):
            parse_verdict("maybe")

    def test_empty_rejected(self):
        with pytest.raises(UnparseableVerdictError):
            parse_verdict("   ")


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
        assert parse_verdict(probe.text).sufficient is False
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
        ],
        ids=["document-kind", "unknown-role", "zero-prob", "prob-above-one", "text-not-string"],
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


def scripted_http(entries, max_retries=2, retry_wait=0.0):
    transport = TranscriptTransport(entries)
    backend = HttpBackend(
        base_url="https://rag.example/v1",
        model="m",
        transport=transport,
        max_retries=max_retries,
        retry_wait=retry_wait,
    )
    return backend, transport


def http_backend(transcript_name):
    return scripted_http(load_transcript(transcript_name))


EMBEDDING_RESPONSE = {"status": 200, "body": {"data": [{"embedding": [1.0, 0.05, 0.02, 0.01]}]}}


def pipeline_over_http(answer_logprobs):
    """run_pipeline on the demo pool: embed, one YES probe, the answer, a summary."""
    entries = [
        EMBEDDING_RESPONSE,
        completion("YES - covered", [0.0]),
        completion("initial", answer_logprobs),
        completion("final", [0.0]),
    ]
    return run_pipeline("q", demo_pool(), RunConfig(), scripted_http(entries)[0])


class TestHttpBackend:
    def test_happy_path_parses_probs(self):
        backend, transport = http_backend("transcript_happy.json")
        result = backend.generate(any_request())
        assert result.text == "42"
        assert result.finish_reason == "stop"
        assert result.token_logprobs == (-0.105360515657826, -0.051293294387551)
        payload = transport.calls[0]["payload"]
        assert payload["temperature"] == 0
        assert payload["logprobs"] is True

    def test_replay_is_deterministic(self):
        first = http_backend("transcript_happy.json")[0].generate(any_request())
        second = http_backend("transcript_happy.json")[0].generate(any_request())
        assert first == second

    def test_missing_logprobs(self):
        backend, _ = http_backend("transcript_missing_logprobs.json")
        with pytest.raises(MissingLogprobsError):
            backend.generate(any_request())

    def test_retry_after_500(self):
        backend, transport = http_backend("transcript_retry.json")
        result = backend.generate(any_request())
        assert result.text == "ready now"
        assert result.finish_reason == "length"
        assert len(transport.calls) == 2

    def test_extreme_logprob_routes(self):
        # e^-800 underflows to 0; the token adds 0 entropy instead of failing
        backend, _ = scripted_http([completion("42", [-800.0, 0.0])])
        assert backend.generate(any_request()).token_logprobs == (-800.0, 0.0)
        trace = pipeline_over_http([-800.0, 0.0])
        assert trace.error is None
        assert trace.route.kind == ROUTE_LQP
        assert trace.route.score.raw_entropy == 0.0
        assert trace.final_answer == "final"

    @pytest.mark.parametrize("bad", BAD_LOGPROBS, ids=BAD_LOGPROB_IDS)
    def test_bad_logprob_is_a_backend_error(self, bad):
        backend, _ = scripted_http([completion("42", [-0.1, bad])])
        with pytest.raises(MissingLogprobsError, match="malformed logprob entries"):
            backend.generate(any_request())
        trace = pipeline_over_http([-0.1, bad])
        assert trace.failed
        assert trace.route is None
        assert trace.final_answer is None
        assert "MissingLogprobsError" in trace.error

    @pytest.mark.parametrize("logprob, route", STUB_ANSWER_SHAPES, ids=["lqp", "hqp"])
    def test_stub_answer_shapes_route(self, logprob, route):
        backend, _ = scripted_http([completion("initial", [logprob] * STUB_ANSWER_TOKENS)])
        assert classify_pair(backend.generate(any_request()), RunConfig().h).kind == route

    def test_rate_limit_then_success(self):
        backend, transport = scripted_http(
            [{"status": 429, "body": {"error": {"message": "slow down"}}}, completion("42", [0.0])]
        )
        assert backend.generate(any_request()).text == "42"
        assert len(transport.calls) == 2

    def test_rate_limit_exhausts_retries(self, monkeypatch):
        waits = []
        monkeypatch.setattr("holorag.backends.http.time.sleep", waits.append)
        backend, transport = scripted_http([{"status": 429, "body": {}}] * 3, retry_wait=0.5)
        with pytest.raises(BackendUnavailableError, match="after 3 attempts.*429"):
            backend.generate(any_request())
        assert len(transport.calls) == 3
        assert waits == [0.5, 1.0]

    def test_client_error_no_retry(self):
        backend, transport = scripted_http(
            [{"status": 401, "body": {"error": {"message": "bad key"}}}]
        )
        with pytest.raises(BackendUnavailableError, match="401"):
            backend.generate(any_request())
        assert len(transport.calls) == 1

    def test_transport_failures_exhaust_retries(self):
        backend, _ = scripted_http([{"raise": "boom"}] * 3, max_retries=2)
        with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
            backend.generate(any_request())

    def test_embedding_endpoint(self):
        backend, transport = http_backend("transcript_embedding.json")
        emb = backend.embed_query("hello")
        assert list(emb.values) == [0.6, 0.8, 0.0]
        assert transport.calls[0]["url"].endswith("/embeddings")

    def test_malformed_body(self):
        backend, _ = scripted_http([{"status": 200, "body": {"nope": True}}])
        with pytest.raises(BackendUnavailableError, match="malformed"):
            backend.generate(any_request())

    def test_null_content_is_a_backend_error(self):
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
    def embedding_backend(vector):
        body = {"data": [{"object": "embedding", "index": 0, "embedding": vector}]}
        return scripted_http([{"status": 200, "body": body}])[0]

    @pytest.mark.parametrize(
        "vector", [[], [None, 1.0], ["x", 1.0], [1e200, 1.0]], ids=["empty", "null", "str", "huge"]
    )
    def test_malformed_embedding_vector(self, vector):
        with pytest.raises(BackendUnavailableError, match="malformed embedding response"):
            self.embedding_backend(vector).embed_query("q")

    def test_malformed_embedding_fails_the_trace(self):
        trace = run_pipeline("q", demo_pool(), RunConfig(), self.embedding_backend(["x", 1.0]))
        assert trace.failed
        assert trace.final_answer is None
        assert "malformed embedding response" in trace.error
