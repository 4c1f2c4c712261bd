"""Tests for nDCG, judge scoring, and the retrieval/e2e evaluation loops."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import holorag.evaluation as evaluation
from helpers import DATA_DIR, demo_pool, make_pool, scripted_scenario
from holorag.backends import DocRef, MockBackend
from holorag.config import RunConfig
from holorag.errors import (
    ConfigError,
    CorpusParseError,
    HoloRagError,
    MissingGoldDocumentError,
    UnparseableScoreError,
)
from holorag.evaluation import (
    QaExample,
    evaluate_e2e,
    evaluate_retrieval,
    judge_accuracy,
    load_dataset,
    ndcg_at_k,
)

NDCG_RANK2 = 0.6309297535714575  # 1 / log2(3)
HANDCRAFTED_MEAN = 0.5327324383928644  # (1 + 1/log2(3) + 0.5 + 0) / 4


class TestNdcg:
    def test_relevant_at_rank_one(self):
        assert ndcg_at_k(["a", "b", "c"], {"a"}) == 1.0

    def test_relevant_at_rank_two(self):
        assert ndcg_at_k(["x", "a", "y"], {"a"}) == pytest.approx(NDCG_RANK2, abs=1e-12)

    def test_relevant_at_rank_three(self):
        assert ndcg_at_k(["x", "y", "a"], {"a"}) == pytest.approx(0.5, abs=1e-12)

    def test_nothing_relevant_in_top_k(self):
        assert ndcg_at_k(["x", "y", "z"], {"a"}, k=5) == 0.0

    def test_empty_relevant_scores_zero(self):
        assert ndcg_at_k(["x", "y"], set()) == 0.0

    def test_invariant_below_cutoff(self):
        base = ndcg_at_k(["a", "x", "y", "z", "w", "p", "q"], {"a", "q"}, k=5)
        swapped = ndcg_at_k(["a", "x", "y", "z", "w", "q", "p"], {"a", "q"}, k=5)
        assert base == swapped

    def test_monotone_under_promotion(self):
        worse = ndcg_at_k(["x", "y", "a", "z"], {"a"}, k=5)
        better = ndcg_at_k(["x", "a", "y", "z"], {"a"}, k=5)
        assert better > worse

    def test_multiple_relevant_ideal(self):
        # two relevant docs at the top = ideal ordering
        assert ndcg_at_k(["a", "b", "x"], {"a", "b"}, k=5) == 1.0

    def test_k_domain(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a"}, k=0)


def judge_with(score_text, retry_text=None, query="q"):
    mock = MockBackend()
    mock.add_generation("judge_score", query, ["prediction", "gold"], 0, score_text, [1.0])
    if retry_text is not None:
        mock.add_generation("judge_score", query, ["prediction", "gold"], 1, retry_text, [1.0])
    return mock


class TestJudgeAccuracy:
    def test_score_five_correct(self):
        score, correct = judge_accuracy("42", "42", judge_with("exact match\n5"), query="q")
        assert (score, correct) == (5, True)

    def test_score_four_correct(self):
        score, correct = judge_accuracy("42 ish", "42", judge_with("close\n4"), query="q")
        assert (score, correct) == (4, True)

    def test_score_three_incorrect(self):
        score, correct = judge_accuracy("43", "42", judge_with("off\n3"), query="q")
        assert (score, correct) == (3, False)

    def test_retry_then_success(self):
        judge = judge_with("no digits here", retry_text="second try\n4")
        score, correct = judge_accuracy("a", "b", judge, query="q")
        assert (score, correct) == (4, True)

    def test_retry_then_error(self):
        judge = judge_with("still prose", retry_text="more prose")
        with pytest.raises(UnparseableScoreError):
            judge_accuracy("a", "b", judge, query="q")

    def test_out_of_scale_rejected(self):
        judge = judge_with("confident\n7", retry_text="again\n0")
        with pytest.raises(UnparseableScoreError):
            judge_accuracy("a", "b", judge, query="q")

    @pytest.mark.parametrize("text", ["", " \n\t\n"])
    def test_empty_reply_rejected(self, text):
        with pytest.raises(UnparseableScoreError, match="^judge response was empty$"):
            evaluation._parse_judge_score(text)


def angle_pool(name, spec):
    rad = {doc_id: math.radians(a) for doc_id, a in spec}
    return make_pool(name, [(doc_id, [math.cos(r), math.sin(r)]) for doc_id, r in rad.items()])


def embed_backend(queries):
    mock = MockBackend()
    for query in queries:
        mock.add_embedding("query", query, [1.0, 0.0])
    return mock


def handcrafted_pools():
    """Four pools whose gold documents rank 1st, 2nd, 3rd and 6th for a query at 0 degrees."""
    return [
        angle_pool("p1", [("g1", 0), ("f1", 60), ("f2", 80)]),
        angle_pool("p2", [("f1", 10), ("g2", 30), ("f2", 70)]),
        angle_pool("p3", [("f1", 10), ("f2", 20), ("g3", 40), ("f3", 80)]),
        angle_pool(
            "p4",
            [("f1", 5), ("f2", 10), ("f3", 15), ("f4", 20), ("f5", 25), ("g4", 85)],
        ),
    ]


class TestEvaluateRetrieval:
    def test_constructed_optimum(self):
        pool = make_pool("p", [(f"g{i}", axis) for i, axis in enumerate(np.eye(3))])
        mock = MockBackend()
        dataset = []
        for i, axis in enumerate(([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0])):
            query = f"q{i}"
            mock.add_embedding("query", query, axis)
            dataset.append(
                QaExample(query_id=query, query=query, gold_doc_ids={("p", f"g{i}")}, gold_answer="x")
            )
        report = evaluate_retrieval(dataset, "single", [pool], mock)
        assert report.mean_ndcg5 == 1.0

    def test_constructed_pessimum(self):
        pools, dataset, mock = [], [], MockBackend()
        for i in range(2):
            name = f"p{i}"
            spec = [(f"f{j}", 5 * (j + 1)) for j in range(5)] + [(f"gold{i}", 90)]
            pools.append(angle_pool(name, spec))
            query = f"q{i}"
            mock.add_embedding("query", query, [1.0, 0.0])
            dataset.append(
                QaExample(
                    query_id=query, query=query, gold_doc_ids={(name, f"gold{i}")}, gold_answer="x"
                )
            )
        report = evaluate_retrieval(dataset, "single", pools, mock)
        assert report.mean_ndcg5 == 0.0

    def test_handcrafted_four_examples(self):
        pools = handcrafted_pools()
        dataset = [
            QaExample(f"ex{i}", f"ex{i}", {(f"p{i}", f"g{i}")}, "x") for i in (1, 2, 3, 4)
        ]
        backend = embed_backend([ex.query for ex in dataset])
        report = evaluate_retrieval(dataset, "single", pools, backend)
        assert report.mean_ndcg5 == pytest.approx(HANDCRAFTED_MEAN, abs=1e-4)

    def test_all_pool_mode_merges(self):
        # the gold doc sits in another pool; all-pool retrieval still finds it
        p1 = angle_pool("p1", [("near", 40)])
        p2 = angle_pool("p2", [("gold", 0)])
        dataset = [QaExample("e", "e", {("p2", "gold")}, "x")]
        report = evaluate_retrieval(dataset, "all", [p1, p2], embed_backend(["e"]))
        assert report.mean_ndcg5 == 1.0
        assert report.config["pool_mode"] == "all"

    def test_unknown_pool_mode_rejected_before_any_call(self, monkeypatch):
        backend = embed_backend(["e"])
        calls = []
        monkeypatch.setattr(backend, "embed_query", calls.append)
        dataset = [QaExample("e", "e", {("p1", "a")}, "x")]
        with pytest.raises(ConfigError, match="pool_mode must be one of"):
            evaluate_retrieval(dataset, "bogus", [angle_pool("p1", [("a", 0)])], backend)
        assert calls == []

    def test_missing_gold_names_query(self):
        pool = angle_pool("p1", [("a", 0)])
        dataset = [QaExample("lost-query", "q", {("p1", "nope")}, "x")]
        with pytest.raises(MissingGoldDocumentError, match="lost-query"):
            evaluate_retrieval(dataset, "single", [pool], embed_backend(["q"]))

    def test_single_mode_rejects_cross_pool_gold(self):
        p1 = angle_pool("p1", [("a", 0)])
        p2 = angle_pool("p2", [("b", 0)])
        dataset = [QaExample("x", "q", {("p1", "a"), ("p2", "b")}, "x")]
        with pytest.raises(MissingGoldDocumentError, match="spans pools"):
            evaluate_retrieval(dataset, "single", [p1, p2], embed_backend(["q"]))


def e2e_setup(kinds_and_scores):
    """Combine scripted scenarios into one dataset/backend/judge triple."""
    pool = demo_pool()
    answer_backend = MockBackend()
    judge_backend = MockBackend()
    dataset = []
    for i, (kind, score) in enumerate(kinds_and_scores):
        query, _, config, _, _ = scripted_scenario(
            kind, query=f"q{i:02d}::{kind}", mock=answer_backend
        )
        dataset.append(
            QaExample(
                query_id=f"q{i:02d}",
                query=query,
                gold_doc_ids={("charts", "d1")},
                gold_answer=f"gold::{kind}",
            )
        )
        if score is not None:
            judge_backend.add_generation(
                "judge_score", query, ["prediction", "gold"], 0, f"scripted\n{score}", [1.0]
            )
    return dataset, pool, config, answer_backend, judge_backend


class TestEvaluateE2e:
    def test_all_correct(self):
        dataset, pool, config, answers, judge = e2e_setup(
            [("lqp", 5), ("lqp_first", 4), ("hqp_early", 5)]
        )
        report = evaluate_e2e(dataset, [pool], config, answers, judge)
        assert report.accuracy == 1.0
        assert report.lqp_count == 2
        assert report.hqp_count == 1

    def test_one_of_four_wrong(self):
        dataset, pool, config, answers, judge = e2e_setup(
            [("lqp", 5), ("lqp_first", 4), ("hqp_early", 2), ("hqp_max", 5)]
        )
        report = evaluate_e2e(dataset, [pool], config, answers, judge)
        assert report.accuracy == 0.75
        assert report.lqp_count == 2
        assert report.hqp_count == 2
        assert report.mean_decoupler_iterations == pytest.approx((0 + 0 + 1 + 3) / 4)

    def test_failure_recorded_and_excluded(self):
        dataset, pool, config, answers, judge = e2e_setup(
            [("lqp", 5), ("failure", None)]
        )
        report = evaluate_e2e(dataset, [pool], config, answers, judge)
        assert report.accuracy == 1.0
        failed = [r for r in report.per_example if r.error]
        assert len(failed) == 1

    def test_no_skip_aborts(self):
        dataset, pool, config, answers, judge = e2e_setup(
            [("lqp", 5), ("failure", None)]
        )
        config = replace(config, skip_on_error=False)
        with pytest.raises(HoloRagError):
            evaluate_e2e(dataset, [pool], config, answers, judge)

    def test_report_deterministic(self):
        dataset, pool, config, answers, judge = e2e_setup(
            [("lqp", 5), ("hqp_early", 3), ("hqp_max", 4)]
        )
        first = evaluate_e2e(dataset, [pool], config, answers, judge)
        second = evaluate_e2e(dataset, [pool], config, answers, judge)
        assert first.to_json() == second.to_json()

    def test_parallel_matches_sequential(self):
        dataset, pool, config, answers, judge = e2e_setup(
            [("lqp", 5), ("lqp_first", 4), ("hqp_early", 2), ("hqp_max", 5)]
        )
        sequential = evaluate_e2e(dataset, [pool], config, answers, judge)
        config = replace(config, parallelism=4)
        parallel = evaluate_e2e(dataset, [pool], config, answers, judge)
        assert parallel.accuracy == sequential.accuracy
        assert [r.query_id for r in parallel.per_example] == [
            r.query_id for r in sequential.per_example
        ]


def golden_retrieval_report(pool_mode, parallelism):
    """Six examples out of query_id order; ex0 has no embedding, ex5 the wrong dimension."""
    gold = {i: (f"p{i}", f"g{i}") for i in (1, 2, 3, 4)}
    gold[0], gold[5] = gold[1], gold[4]
    dataset = [QaExample(f"ex{i}", f"ex{i}", {gold[i]}, "x") for i in (4, 2, 0, 5, 1, 3)]
    backend = embed_backend(["ex1", "ex2", "ex3", "ex4"])
    backend.add_embedding("query", "ex5", [1.0, 0.0, 0.0])
    config = RunConfig(parallelism=parallelism)
    return evaluate_retrieval(dataset, pool_mode, handcrafted_pools(), backend, config)


def golden_e2e_report(pool_mode, parallelism):
    """Six scripted examples in reverse query_id order, one failing and one misjudged.

    q02 fails in the pipeline; q05 routes HQP and then gets two unparseable judge
    replies, so its row keeps its route.  A second pool points away from every
    query, so both pool modes retrieve the same documents.
    """
    dataset, pool, config, answers, judge = e2e_setup(
        [("hqp_max", 5), ("lqp", 5), ("failure", None), ("hqp_early", 2), ("lqp_first", 4),
         ("hqp_two", "x")]
    )
    judge.add_generation("judge_score", dataset[5].query, ["prediction", "gold"], 1, "prose", [1.0])
    far = make_pool("far", [("z1", [-1.0, 0.0, 0.0, 0.0])])
    config = replace(config, pool_mode=pool_mode, parallelism=parallelism)
    return evaluate_e2e(dataset[::-1], [pool, far], config, answers, judge)


GOLDEN_REPORTS = {"retrieval": golden_retrieval_report, "e2e": golden_e2e_report}


class TestGoldenReports:
    """`to_json()` and `render_table()` of both modes are pinned in data/report_<mode>.json.

    Each golden file holds, per pool mode, the report at parallelism 1 and its
    table lines; a run at parallelism 3 differs only in the echoed config.
    """

    @pytest.mark.parametrize("parallelism", [1, 3])
    @pytest.mark.parametrize("pool_mode", ["single", "all"])
    @pytest.mark.parametrize("mode", sorted(GOLDEN_REPORTS))
    def test_report_matches_golden(self, mode, pool_mode, parallelism):
        golden = json.loads((DATA_DIR / f"report_{mode}.json").read_text(encoding="utf-8"))
        expected = golden[pool_mode]
        expected["report"]["config"]["parallelism"] = parallelism
        report = GOLDEN_REPORTS[mode](pool_mode, parallelism)
        assert report.to_json() == json.dumps(expected["report"], ensure_ascii=False, indent=2)
        assert report.render_table().split("\n") == expected["table"]


def spy_on(monkeypatch, names):
    """Wrap each named evaluation global, as the benchmark does; return the call log."""
    calls = []
    for name in names:
        original = getattr(evaluation, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, wrapper)
    return calls


class TestBenchmarkHooks:
    """The benchmark wraps and patches these module globals, so both loops look them up per call."""

    def test_retrieval_calls_module_globals(self, monkeypatch):
        calls = spy_on(monkeypatch, ["_check_gold_present", "top_k", "ndcg_at_k"])
        dataset = [QaExample(f"ex{i}", f"ex{i}", {(f"p{i}", f"g{i}")}, "x") for i in (1, 2, 3, 4)]
        backend = embed_backend([ex.query for ex in dataset])
        evaluate_retrieval(dataset, "single", handcrafted_pools(), backend)
        assert Counter(calls) == {"_check_gold_present": 1, "top_k": 4, "ndcg_at_k": 4}

    def test_e2e_calls_module_globals(self, monkeypatch):
        calls = spy_on(monkeypatch, ["_check_gold_present", "run_pipeline", "judge_accuracy"])
        dataset, pool, config, answers, judge = e2e_setup([("lqp", 5), ("hqp_early", 2)])
        evaluate_e2e(dataset, [pool], config, answers, judge)
        assert Counter(calls) == {"_check_gold_present": 1, "run_pipeline": 2, "judge_accuracy": 2}


def test_cross_pool_example_fails_before_any_pipeline_run(monkeypatch):
    """Single-pool mode chooses every example's pool before the first example runs."""
    calls = spy_on(monkeypatch, ["run_pipeline"])
    dataset, pool, config, answers, judge = e2e_setup([("lqp", 5), ("hqp_early", 2), ("lqp", 4)])
    other = demo_pool("other")
    dataset[2] = replace(dataset[2], gold_doc_ids=frozenset({("charts", "d1"), ("other", "d2")}))
    with pytest.raises(MissingGoldDocumentError, match="spans pools"):
        evaluate_e2e(dataset, [pool, other], config, answers, judge)
    assert calls == []


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"query_id": "a", "query": "what?", '
            '"gold_doc_ids": [{"pool": "p", "doc_id": "d"}], "gold_answer": "42", '
            '"requires_multihop": true}\n',
            encoding="utf-8",
        )
        examples = load_dataset(path)
        assert examples[0].query_id == "a"
        assert examples[0].gold_doc_ids == frozenset({("p", "d")})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"query_id": "a"}\n', encoding="utf-8")
        with pytest.raises(Exception, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "second",
        [
            {"query_id": "b", "gold_doc_ids": []},
            {"query_id": 1},
            {"query": ["what?"]},
            {"gold_answer": None},
        ],
        ids=["no-gold", "int-query-id", "list-query", "null-answer"],
    )
    def test_malformed_example_names_line(self, tmp_path, second):
        """An example QaExample rejects is a CorpusParseError naming its line."""
        first = {"query_id": "a", "query": "q", "gold_doc_ids": [{"pool": "p", "doc_id": "d"}],
                 "gold_answer": "42"}
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(first) + "\n" + json.dumps({**first, **second}) + "\n")
        with pytest.raises(CorpusParseError, match="line 2: malformed example") as info:
            load_dataset(path)
        assert info.value.line_number == 2
