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
from holorag.pipeline import run_pipeline


class TestRequestAndResultTypes:
    def test_doc_reading_role_needs_docs(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt_role=PromptRole.ANSWER, query="q")

    def test_mining_roles_run_docless(self):
        req = GenerationRequest(prompt_role=PromptRole.FINEPRINT_MINE, query="q", prior="x")
        assert req.context_docs == ()

    def test_probability_range_enforced(self):
        with pytest.raises(ProbabilityOutOfRangeError):
            GenerationResult(text="x", token_probs=(0.5, 0.0))
        with pytest.raises(ProbabilityOutOfRangeError):
            GenerationResult(text="x", token_probs=(1.5,))
        assert GenerationResult(text="x", token_probs=(1.0,)).token_probs == (1.0,)

    def test_finish_reason_constrained(self):
        with pytest.raises(ValueError):
            GenerationResult(text="x", token_probs=(1.0,), finish_reason="done")


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
        assert result.token_probs == (0.9, 0.95)

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
        ],
        ids=["document-kind", "unknown-role"],
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


def http_backend(transcript_name):
    transport = TranscriptTransport(load_transcript(transcript_name))
    backend = HttpBackend(
        base_url="https://rag.example/v1",
        model="doc-vlm-mini",
        transport=transport,
        retry_wait=0.0,
    )
    return backend, transport


def any_request():
    return GenerationRequest(PromptRole.ANSWER, "q", (DocRef("d1", text="body"),))


class TestHttpBackend:
    def test_happy_path_parses_probs(self):
        backend, transport = http_backend("transcript_happy.json")
        result = backend.generate(any_request())
        assert result.text == "42"
        assert result.finish_reason == "stop"
        assert result.token_probs == pytest.approx(
            (math.exp(-0.105360515657826), math.exp(-0.051293294387551))
        )
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

    def test_client_error_no_retry(self):
        transport = TranscriptTransport(
            [{"status": 401, "body": {"error": {"message": "bad key"}}}]
        )
        backend = HttpBackend(
            base_url="https://rag.example/v1", model="m", transport=transport, retry_wait=0.0
        )
        with pytest.raises(BackendUnavailableError, match="401"):
            backend.generate(any_request())
        assert len(transport.calls) == 1

    def test_transport_failures_exhaust_retries(self):
        transport = TranscriptTransport(
            [{"raise": "boom"}, {"raise": "boom"}, {"raise": "boom"}]
        )
        backend = HttpBackend(
            base_url="https://rag.example/v1",
            model="m",
            transport=transport,
            max_retries=2,
            retry_wait=0.0,
        )
        with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
            backend.generate(any_request())

    def test_embedding_endpoint(self):
        backend, transport = http_backend("transcript_embedding.json")
        emb = backend.embed_query("hello")
        assert list(emb.values) == [0.6, 0.8, 0.0]
        assert transport.calls[0]["url"].endswith("/embeddings")

    def test_malformed_body(self):
        transport = TranscriptTransport([{"status": 200, "body": {"nope": True}}])
        backend = HttpBackend(
            base_url="https://rag.example/v1", model="m", transport=transport, retry_wait=0.0
        )
        with pytest.raises(BackendUnavailableError, match="malformed"):
            backend.generate(any_request())

    @staticmethod
    def embedding_backend(vector):
        body = {"data": [{"object": "embedding", "index": 0, "embedding": vector}]}
        transport = TranscriptTransport([{"status": 200, "body": body}])
        return HttpBackend(
            base_url="https://rag.example/v1", model="m", transport=transport, retry_wait=0.0
        )

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
