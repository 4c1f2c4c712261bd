"""Tests for entropy, routing, the four agents, and full pipeline traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ALL_SCENARIOS, DATA_DIR, INV_E, demo_pool, scripted_scenario
from holorag.backends import DocRef, GenerationRequest, GenerationResult, MockBackend, PromptRole
from holorag.config import RunConfig
from holorag.errors import EmptySequenceError, FixtureMissError, ProbabilityOutOfRangeError
from holorag.index import Pool
from holorag.pipeline import (
    ROUTE_HQP,
    ROUTE_LQP,
    answer_entropy,
    classify_pair,
    decide_route,
    decouple,
    extract_salient,
    initial_answer_leaked,
    prune,
    run_pipeline,
    summarize,
)

NORMALIZED_HALF_HALF = 0.94208469268186  # e * 0.5 * ln 2
LOG_HALF = math.log(0.5)
LOG_INV_E = -1.0


def generated(*logprobs):
    return GenerationResult("a", logprobs)


class TestAnswerEntropy:
    def test_certain_tokens_zero(self):
        score = answer_entropy(generated(0.0, 0.0, 0.0))
        assert score.raw_entropy == 0.0
        assert score.normalized == 0.0

    def test_inverse_e_maximizes(self):
        score = answer_entropy(generated(LOG_INV_E, LOG_INV_E))
        assert score.raw_entropy == pytest.approx(INV_E, abs=1e-15)
        assert score.normalized == 1.0

    def test_half_half(self):
        score = answer_entropy(generated(LOG_HALF, LOG_HALF))
        assert score.raw_entropy == pytest.approx(0.5 * math.log(2), abs=1e-15)
        assert score.normalized == pytest.approx(NORMALIZED_HALF_HALF, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            answer_entropy(generated())

    def test_out_of_range_rejected(self):
        # p = 0 is lp = -inf and p > 1 is lp > 0: neither reaches the entropy
        with pytest.raises(ProbabilityOutOfRangeError):
            answer_entropy(generated(LOG_HALF, -math.inf))
        with pytest.raises(ProbabilityOutOfRangeError):
            answer_entropy(generated(math.log(1.0001)))

    def test_unlikely_token_adds_nothing(self):
        # e^-800 underflows to 0, and 0 * -800 is 0: no failure, no warning
        score = answer_entropy(generated(-800.0, 0.0))
        assert score.raw_entropy == 0.0
        assert score.token_count == 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1000.0, max_value=0.0, allow_nan=False), min_size=1, max_size=64
        )
    )
    def test_bounds_hypothesis(self, logprobs):
        score = answer_entropy(generated(*logprobs))
        assert 0.0 <= score.raw_entropy <= INV_E + 1e-12
        assert 0.0 <= score.normalized <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=math.log(1e-300), max_value=0.0, allow_nan=False),
            min_size=1,
            max_size=64,
        )
    )
    def test_matches_probability_formula(self, logprobs):
        # the same entropy written over probabilities p = e^lp
        probs = [math.exp(lp) for lp in logprobs]
        by_probs = -sum(p * math.log(p) for p in probs) / len(probs)
        score = answer_entropy(generated(*logprobs))
        assert score.raw_entropy == pytest.approx(by_probs, rel=0.0, abs=1e-12)


class TestRouting:
    def test_low_entropy_goes_direct(self):
        decision = classify_pair(generated(0.0), h=0.8)
        assert decision.kind == ROUTE_LQP

    def test_max_entropy_goes_deep(self):
        decision = classify_pair(generated(LOG_INV_E), h=0.8)
        assert decision.kind == ROUTE_HQP

    def test_tie_goes_deep(self):
        result = generated(LOG_HALF, LOG_HALF)
        decision = classify_pair(result, h=answer_entropy(result).normalized)
        assert decision.kind == ROUTE_HQP

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            classify_pair(generated(0.0), h=1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=1e-9, max_value=1.0 - 1e-9, allow_nan=False),
    )
    def test_pure_function_of_score_and_threshold(self, normalized, h):
        kind = decide_route(normalized, h)
        assert kind == (ROUTE_LQP if normalized < h else ROUTE_HQP)


def refs(*doc_ids):
    return [DocRef(doc_id) for doc_id in doc_ids]


class TestPrune:
    def test_sufficient_at_first(self):
        mock = MockBackend()
        mock.add_generation("sufficiency_probe", "q", ["d1"], 1, "YES - covered", [1.0])
        pruned = prune("q", refs("d1", "d2", "d3"), k=3, backend=mock)
        assert [ref.doc_id for ref in pruned.selected] == ["d1"]
        assert pruned.n_used == 1
        assert pruned.terminated_early

    def test_never_sufficient_keeps_top_k(self):
        mock = MockBackend()
        docs = ["d1", "d2", "d3", "d4", "d5"]
        for n in range(1, 4):
            mock.add_generation("sufficiency_probe", "q", docs[:n], n, "NO - more", [1.0])
        pruned = prune("q", refs(*docs), k=3, backend=mock)
        assert [ref.doc_id for ref in pruned.selected] == ["d1", "d2", "d3"]
        assert not pruned.terminated_early
        assert pruned.n_used == 3

    def test_short_ranking(self):
        mock = MockBackend()
        mock.add_generation("sufficiency_probe", "q", ["d1"], 1, "NO", [1.0])
        mock.add_generation("sufficiency_probe", "q", ["d1", "d2"], 2, "NO", [1.0])
        pruned = prune("q", refs("d1", "d2"), k=5, backend=mock)
        assert [ref.doc_id for ref in pruned.selected] == ["d1", "d2"]
        assert pruned.n_used == 2

    def test_probe_error_propagates(self):
        with pytest.raises(FixtureMissError):
            prune("q", refs("d1"), k=1, backend=MockBackend())

    def test_prefix_property(self):
        mock = MockBackend()
        for n in range(1, 3):
            verdict = "YES" if n == 2 else "NO"
            mock.add_generation(
                "sufficiency_probe", "q", ["d1", "d2", "d3"][:n], n, f"{verdict} x", [1.0]
            )
        candidates = refs("d1", "d2", "d3")
        pruned = prune("q", candidates, k=3, backend=mock)
        assert list(pruned.selected) == candidates[: pruned.n_used]

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValueError):
            prune("q", [], k=3, backend=MockBackend())


class TestDecouplerAgents:
    def test_extract_salient_fixture(self):
        mock = MockBackend()
        mock.add_generation("salient_extract", "q", ["d1"], 0, "1. headline", [1.0])
        assert extract_salient("q", [DocRef("d1")], mock) == "1. headline"

    def test_extract_requires_docs(self):
        with pytest.raises(ValueError):
            extract_salient("q", [], MockBackend())

    def test_early_stop_single_iteration(self):
        mock = MockBackend()
        mock.add_generation("fineprint_mine", "q", ["knowledge:salient"], 1, "m1", [1.0])
        mock.add_generation("decouple", "q", ["knowledge:salient"], 1, "f1", [1.0])
        mock.add_generation("sufficiency_probe", "q", ["knowledge:decoupled"], 1, "YES", [1.0])
        iterations = decouple("q", "salient text", mock, max_iters=3)
        assert iterations == (("m1", "f1"),)

    def test_runs_to_max_iters(self):
        mock = MockBackend()
        for t in (1, 2, 3):
            mock.add_generation("fineprint_mine", "q", ["knowledge:salient"], t, f"m{t}", [1.0])
            mock.add_generation("decouple", "q", ["knowledge:salient"], t, f"f{t}", [1.0])
            mock.add_generation(
                "sufficiency_probe", "q", ["knowledge:decoupled"], t, "NO", [1.0]
            )
        iterations = decouple("q", "salient text", mock, max_iters=3)
        assert len(iterations) == 3
        assert iterations[-1] == ("m3", "f3")

    def test_prior_threading(self):
        # the miner at t=2 must receive the decoupled knowledge from t=1
        seen = []

        class Spy(MockBackend):
            def generate(self, request):
                seen.append((request.prompt_role.value, request.iteration, request.prior))
                return super().generate(request)

        mock = Spy()
        for t in (1, 2):
            mock.add_generation("fineprint_mine", "q", ["knowledge:salient"], t, f"m{t}", [1.0])
            mock.add_generation("decouple", "q", ["knowledge:salient"], t, f"f{t}", [1.0])
            mock.add_generation(
                "sufficiency_probe", "q", ["knowledge:decoupled"], t, "NO" if t == 1 else "YES", [1.0]
            )
        decouple("q", "salient", mock, max_iters=2)
        mine_calls = [s for s in seen if s[0] == "fineprint_mine"]
        assert mine_calls[0] == ("fineprint_mine", 1, "")
        assert mine_calls[1] == ("fineprint_mine", 2, "f1")

    def test_max_iters_domain(self):
        with pytest.raises(ValueError):
            decouple("q", "salient", MockBackend(), max_iters=0)

    def test_empty_salient_passes_through(self):
        # the requests still carry the salient anchor, with empty text
        mock = MockBackend()
        mock.add_generation("fineprint_mine", "q", ["knowledge:salient"], 1, "m1", [1.0])
        mock.add_generation("decouple", "q", ["knowledge:salient"], 1, "f1", [1.0])
        mock.add_generation("sufficiency_probe", "q", ["knowledge:decoupled"], 1, "YES", [1.0])
        assert decouple("q", "", mock, max_iters=1) == (("m1", "f1"),)


class TestSummarize:
    def test_lqp_path(self):
        mock = MockBackend()
        mock.add_generation("summarize", "q", ["d1", "d2"], 0, "final", [1.0])
        out = summarize("q", [DocRef("d1"), DocRef("d2")], mock)
        assert out == "final"

    def test_hqp_path(self):
        mock = MockBackend()
        mock.add_generation(
            "summarize", "q", ["knowledge:salient", "knowledge:decoupled"], 0, "fused", [1.0]
        )
        context = (DocRef("knowledge:salient", "s"), DocRef("knowledge:decoupled", "f"))
        out = summarize("q", context, mock)
        assert out == "fused"

    def test_empty_context_rejected(self):
        with pytest.raises(ValueError, match="requires context documents"):
            summarize("q", [], MockBackend())


class TestRunPipeline:
    def test_lqp_scenario(self):
        query, pool, config, mock, expected = scripted_scenario("lqp")
        trace = run_pipeline(query, pool, config, mock)
        assert trace.error is None
        assert trace.route.kind == ROUTE_LQP
        assert trace.fineprint_iterations == ()
        assert trace.final_answer == expected["final"]
        assert [r.doc_id for r in trace.pruned.selected] == expected["pruned"]

    def test_hqp_scenario_iterates(self):
        query, pool, config, mock, expected = scripted_scenario("hqp_two")
        trace = run_pipeline(query, pool, config, mock)
        assert trace.route.kind == ROUTE_HQP
        assert len(trace.fineprint_iterations) == 2
        assert trace.salient == expected["salient"]
        assert trace.final_answer == expected["final"]

    def test_hqp_hits_iteration_bound(self):
        query, pool, config, mock, _ = scripted_scenario("hqp_max")
        trace = run_pipeline(query, pool, config, mock)
        assert len(trace.fineprint_iterations) == config.max_iters

    def test_failure_yields_trace_without_answer(self):
        query, pool, config, mock, _ = scripted_scenario("failure")
        trace = run_pipeline(query, pool, config, mock)
        assert trace.failed
        assert trace.final_answer is None
        assert "FixtureMissError" in trace.error
        assert trace.agent_log[-1]["action"] == "error"

    def test_empty_salient_extract_completes(self):
        query, pool, config, mock, expected = scripted_scenario("hqp_early")
        mock.add_generation("salient_extract", query, expected["pruned"], 0, "", [1.0])
        trace = run_pipeline(query, pool, config, mock)
        assert trace.error is None
        assert trace.salient == ""
        assert trace.final_answer == expected["final"]

    def test_empty_pool_rejected(self):
        _, _, config, mock, _ = scripted_scenario("lqp")
        empty = Pool(name="void", matrix=np.zeros((0, 4)), keys=(), metadata=())
        with pytest.raises(ValueError):
            run_pipeline("q", empty, config, mock)

    @pytest.mark.parametrize("kind", ALL_SCENARIOS)
    def test_scenario_route(self, kind):
        query, pool, config, mock, expected = scripted_scenario(kind)
        assert run_pipeline(query, pool, config, mock).route.kind == expected["route"]

    @pytest.mark.parametrize("kind", ALL_SCENARIOS)
    def test_no_reflection_everywhere(self, kind):
        query, pool, config, mock, _ = scripted_scenario(kind)
        trace = run_pipeline(query, pool, config, mock)
        assert not initial_answer_leaked(trace)

    @pytest.mark.parametrize("kind", ALL_SCENARIOS)
    def test_trace_replay_byte_identical(self, kind):
        query, pool, config, mock, _ = scripted_scenario(kind)
        first = run_pipeline(query, pool, config, mock)
        second = run_pipeline(query, pool, config, mock)
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("kind", ALL_SCENARIOS)
    def test_trace_matches_golden(self, kind):
        # the trace file format and agent log are a public record: a refactor
        # of the pipeline must leave every byte of data/trace_<kind>.json alone
        query, pool, config, mock, _ = scripted_scenario(kind)
        golden = (DATA_DIR / f"trace_{kind}.json").read_text(encoding="utf-8")
        assert run_pipeline(query, pool, config, mock).to_json() == golden

    @pytest.mark.parametrize("kind", ALL_SCENARIOS)
    def test_every_generate_call_is_logged(self, kind):
        # initial_answer_leaked reads only the log, so every returned call must be in it
        calls = []

        class Spy(MockBackend):
            def generate(self, request):
                result = super().generate(request)
                calls.append(
                    (
                        request.prompt_role.value,
                        list(request.doc_ids()),
                        request.prior,
                        request.iteration,
                        result.text,
                    )
                )
                return result

        query, pool, config, mock, _ = scripted_scenario(kind, mock=Spy())
        trace = run_pipeline(query, pool, config, mock)
        logged = [
            (e["role"], e["doc_ids"], e["prior"], e["iteration"], e["output"])
            for e in trace.agent_log
            if e["action"] == "generate"
        ]
        assert calls and logged == calls

    def test_reflection_audit_catches_leaks(self):
        # a synthetic trace that does feed the measured answer back in
        query, pool, config, mock, expected = scripted_scenario("lqp")
        trace = run_pipeline(query, pool, config, mock)
        leaky_log = list(trace.agent_log) + [
            {
                "step": len(trace.agent_log) + 1,
                "agent": "summarizer",
                "action": "generate",
                "role": "summarize",
                "doc_ids": ["d9"],
                "doc_texts": [expected["initial"]],
                "prior": None,
                "iteration": 0,
                "output": "x",
            }
        ]
        leaky = type(trace)(
            query=trace.query,
            config=trace.config,
            ranked=trace.ranked,
            pruned=trace.pruned,
            route=trace.route,
            salient=trace.salient,
            fineprint_iterations=trace.fineprint_iterations,
            final_answer=trace.final_answer,
            error=trace.error,
            agent_log=tuple(leaky_log),
        )
        assert initial_answer_leaked(leaky)

    def test_pruner_respects_capacity(self):
        query, pool, config, mock, _ = scripted_scenario("hqp_max")
        trace = run_pipeline(query, pool, config, mock)
        assert trace.pruned.n_used <= config.k
        assert len(trace.pruned.selected) <= config.k

    def test_config_echoed_in_trace(self):
        query, pool, config, mock, _ = scripted_scenario("lqp")
        trace = run_pipeline(query, pool, config, mock)
        assert trace.config["k"] == config.k
        assert trace.config["h"] == config.h
