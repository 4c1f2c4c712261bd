"""Answering workload: ``run_pipeline`` and ``evaluate_e2e`` over HTTP.

``HttpBackend`` talks to the stub server (``stub_server.py``) on loopback,
which follows a seeded per-query plan and adds a fixed service delay per
role.  Phase A runs ``run_pipeline`` sequentially, one client in a closed
loop, for latency.  Phase B runs ``evaluate_e2e`` at parallelism 2 for
throughput.  Routes, decouple iterations, judge scores and accuracy are
checked against the plan.
"""

import gc
import json
import os
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import holorag.backends.http as http
import holorag.evaluation as evaluation
import holorag.index as index
import holorag.pipeline as pipeline
from holorag.backends.http import HttpBackend
from holorag.config import RunConfig

import datagen
from common import Outcome, median, peak_rss_mb, percentile
from tracing import TracedBackend, trace_layers

STUB = Path(__file__).resolve().parent / "stub_server.py"
ROLES = ("embed", "answer", "sufficiency_probe", "salient_extract", "fineprint_mine",
         "decouple", "summarize", "judge_score")
STAGES = ("retrieve", "prune", "salient", "decouple", "summarize")
PHASE_A_SHARE = 0.5  # of --seconds, for phase A
PARALLELISM = 2
# A set-up costs ~0.2 s, so take many, spread over both phases, for a steady median.
SETUP_REPS = 12
# A few ms for embeddings, probes and the judge; ~10 ms for long generations.
DELAYS_MS = {
    "embed": 2, "sufficiency_probe": 2, "judge_score": 3, "answer": 10,
    "salient_extract": 10, "fineprint_mine": 10, "decouple": 10, "summarize": 10,
}


@dataclass(frozen=True)
class AnswerSpec:
    collection: datagen.CollectionSpec
    superblocks: int = 20  # plan size: 720 queries, reused cyclically
    min_latency_queries: int = 108  # >= 10 samples beyond p90; whole plan blocks


class StubServer:
    """The stub in a child process; stopped on exit from the ``with`` block."""

    def __init__(self, plan_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(STUB), str(plan_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def take_log(self) -> list:
        with urllib.request.urlopen(self.base + "/_log", timeout=30) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self.proc.stdin.close()  # the stub shuts down when its stdin closes
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _plan_file(work: Path, spec: AnswerSpec, coll: Path, seed: int) -> Path:
    path = work / "cache" / f"answer-plan-{coll.name}-x{spec.superblocks}-s{seed}.json"
    if not path.is_file():
        plan = datagen.answer_plan(coll, spec.collection, seed, spec.superblocks, DELAYS_MS)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(plan), encoding="utf-8")
        os.replace(tmp, path)
    return path


def _instrument(tracer) -> None:
    tracer.wrap(index, "load_snapshot", "index.load_snapshot")
    tracer.wrap(index, "top_k", "index.top_k")
    for attr, name in (("top_k", "retrieve"), ("prune", "prune"), ("extract_salient", "salient"),
                       ("decouple", "decouple"), ("summarize", "summarize"),
                       ("run_pipeline", "run")):
        tracer.wrap(pipeline, attr, f"pipeline.{name}")
    tracer.wrap(evaluation, "run_pipeline", "pipeline.run")
    tracer.wrap(evaluation, "judge_accuracy", "evaluation.judge")
    tracer.wrap(evaluation, "_check_gold_present", "evaluation._check_gold_present")
    tracer.wrap(evaluation, "evaluate_e2e", "evaluation.evaluate_e2e")
    tracer.wrap(http, "render_prompt", "backends.prompts.render_prompt", aggregate=True)


def run(spec: AnswerSpec, seed: int, seconds: float, tracer, work: Path) -> Outcome:
    coll = datagen.ensure_collection(work / "cache", spec.collection, "snapshot")
    plan_path = _plan_file(work, spec, coll, seed)
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    # Only the stub needs the embeddings; keeping 77k floats alive here would
    # slow the program's garbage collections during the timed phases.
    order = plan["order"]
    warm_query = np.array(plan["queries"][order[0]]["embedding"])
    items = {text: {k: v for k, v in entry.items() if k != "embedding"}
             for text, entry in plan["queries"].items()}
    del plan
    config = RunConfig(backend="http", parallelism=PARALLELISM)
    os.environ.setdefault(config.api_key_env, "perfbench-stub")

    if tracer:
        _instrument(tracer)
    try:
        with StubServer(plan_path) as stub:
            setup_s = []

            def set_up():
                if tracer:
                    phase, tracer.phase = tracer.phase, "setup"
                gc.collect()  # set up from a collected heap, as a fresh process would
                start = time.perf_counter()
                loaded = index.load_snapshot(coll / "records.jsonl")
                index.top_k(loaded, warm_query, config.k)
                setup_s.append(time.perf_counter() - start)
                if tracer:
                    tracer.phase = phase
                return loaded

            backend = HttpBackend(base_url=stub.base + "/v1", model="stub",
                                  timeout=config.timeout, max_retries=config.max_retries)
            if tracer:
                backend = TracedBackend(backend, tracer)
            # Set-ups fall due at even intervals over the run and are taken
            # between operations, so one slow spell of a shared machine
            # cannot cover them all.
            run_start = time.perf_counter()

            def setup_due() -> bool:
                return (len(setup_s) < SETUP_REPS and time.perf_counter() - run_start
                        >= len(setup_s) * seconds / SETUP_REPS)

            pool = set_up()

            # Phase A: sequential run_pipeline, whole plan blocks.
            if tracer:
                tracer.phase = "A"
            block = len(datagen.PLAN_BLOCK)
            op_ms, traces = [], []
            started = time.perf_counter()
            while (len(op_ms) < spec.min_latency_queries or len(op_ms) % block
                   or time.perf_counter() - started < seconds * PHASE_A_SHARE):
                if setup_due():
                    pool = None
                    pool = set_up()
                text = order[len(op_ms) % len(order)]
                t0 = time.perf_counter()
                traces.append((text, pipeline.run_pipeline(text, pool, config, backend)))
                op_ms.append((time.perf_counter() - t0) * 1000.0)
            log_a = stub.take_log()

            # Phase B: evaluate_e2e in whole superblocks, from the next one on.
            if tracer:
                tracer.phase = "B"
            sb = datagen.SUPERBLOCK
            cursor = -(-len(op_ms) // sb) * sb
            reports, eval_s = [], 0.0
            started = time.perf_counter()
            while not reports or time.perf_counter() - started < seconds * (1 - PHASE_A_SHARE):
                if setup_due():
                    pool = None
                    pool = set_up()
                texts = [order[(cursor + j) % len(order)] for j in range(sb)]
                cursor += sb
                examples = [
                    evaluation.QaExample(
                        query_id=items[t]["qid"], query=t,
                        gold_doc_ids={(datagen.POOL_NAME, items[t]["gold"])},
                        gold_answer=f"reference answer for {items[t]['qid']}",
                    )
                    for t in texts
                ]
                t0 = time.perf_counter()
                report = evaluation.evaluate_e2e(examples, [pool], config, backend, backend)
                eval_s += time.perf_counter() - t0
                reports.append(report)
            log_b = stub.take_log()
            pool = None
            while len(setup_s) < SETUP_REPS:  # those a short run left undone
                set_up()
            rss = peak_rss_mb()
    finally:
        if tracer:
            tracer.restore()

    rows = [row for report in reports for row in report.per_example]
    out = Outcome(
        setup_s=setup_s,
        op_ms=op_ms,
        ops_per_s=len(rows) / eval_s,
        attempted=len(traces) + len(rows),
        failed=sum(1 for _, t in traces if t.failed) + sum(1 for r in rows if r.error),
        peak_rss_mb=rss,
    )
    judged = [r for r in rows if r.judge_score is not None]
    accuracy = sum(1 for r in judged if r.correct) / len(judged) if judged else 0.0
    expected_accuracy = _check(out, items, traces, rows, accuracy, log_a + log_b)
    out.named += [
        ("setup_s", median(setup_s), "s", len(setup_s), "load_snapshot + warm-up top_k"),
        ("answer_mean_ms", sum(op_ms) / len(op_ms), "ms", len(op_ms), "phase A run_pipeline"),
        ("answer_p50_ms", percentile(op_ms, 50), "ms", len(op_ms), "phase A run_pipeline"),
        ("answer_p90_ms", percentile(op_ms, 90), "ms", len(op_ms), "phase A run_pipeline"),
        ("eval_examples_per_s", out.ops_per_s, "1/s", len(rows),
         f"phase B evaluate_e2e at parallelism {PARALLELISM}"),
        ("accuracy", accuracy, "share", len(judged), f"judge >= 4; plan says {expected_accuracy:.4f}"),
    ]
    if tracer:
        out.layers = _layers(spec, tracer, traces, rows, log_a + log_b, eval_s, coll)
    return out


def _check(out: Outcome, items, traces, rows, accuracy: float, log) -> float:
    bad_a, first = 0, ""
    for text, trace in traces:
        plan = items[text]
        got = (
            trace.error,
            trace.route.kind if trace.route else None,
            trace.pruned.n_used if trace.pruned else None,
            len(trace.fineprint_iterations),
            trace.final_answer,
        )
        want = (None, plan["route"], plan["depth"], plan["iters"], f"final answer for {plan['qid']}")
        if got != want:
            bad_a += 1
            first = first or f"{plan['qid']}: got {got}, plan {want}"
    out.check("phase A routes, prune depths, iterations and answers follow the plan",
              bad_a == 0, f"{bad_a} of {len(traces)} differ; {first}".rstrip("; "))

    by_qid = {plan["qid"]: plan for plan in items.values()}
    bad_b, first = 0, ""
    for row in rows:
        plan = by_qid[row.query_id]
        got = (row.error, row.route, row.iterations, row.judge_score, row.correct)
        want = (None, plan["route"], plan["iters"], plan["score"], plan["score"] >= 4)
        if got != want:
            bad_b += 1
            first = first or f"{row.query_id}: got {got}, plan {want}"
    out.check("phase B routes, iterations and judge scores follow the plan",
              bad_b == 0, f"{bad_b} of {len(rows)} differ; {first}".rstrip("; "))
    expected = sum(1 for r in rows if by_qid[r.query_id]["score"] >= 4) / max(1, len(rows))
    out.check("accuracy equals the plan's", abs(accuracy - expected) < 1e-12,
              f"{accuracy:.4f} vs {expected:.4f}")

    planned_503 = sum(1 for text, _ in traces if items[text]["fault"] == "503") + sum(
        1 for r in rows if by_qid[r.query_id]["fault"] == "503")
    statuses = [entry["status"] for entry in log]
    out.check("the stub answered 200 except for the planned 503s",
              statuses.count(503) == planned_503 and statuses.count(200) == len(statuses) - planned_503,
              f"{statuses.count(503)} x 503 (planned {planned_503}), "
              f"{len(statuses) - statuses.count(200) - statuses.count(503)} other errors")
    out.check("no failed queries or examples", out.failed == 0,
              f"{out.failed} of {out.attempted} failed")
    return expected


def _layers(spec, tracer, traces, rows, log, eval_s, coll) -> dict:
    setup, view_a, view_b = tracer.view("setup"), tracer.view("A"), tracer.view("B")
    n_a, n_b = len(traces), len(rows)
    prune_ids = {s.span_id for s in view_a.named("pipeline.prune")}
    prune_probes = sum(1 for s in view_a.named("backend.sufficiency_probe") if s.parent_id in prune_ids)
    selected = sum(len(t.pruned.selected) for _, t in traces if t.pruned)
    hqp = [t for _, t in traces if t.route and t.route.kind == "HQP"]
    layers = {
        "index.load_snapshot_s": median([s.ms for s in setup.named("index.load_snapshot")]) / 1000.0,
        "index.first_query_ms": median([s.ms for s in setup.named("index.top_k")]),
        "index.top_k_ms": view_a.mean_ms("pipeline.retrieve"),
        "index.top_k_calls": view_a.count("pipeline.retrieve") / n_a,
        "index.snapshot_bytes_per_record": (coll / "records.jsonl").stat().st_size / spec.collection.n,
        "pipeline.run_ms": view_a.total_ms("pipeline.run") / n_a,
        "pipeline.self_ms": view_a.self_ms("pipeline.run") / n_a,
        "pipeline.probes_per_query": prune_probes / n_a,
        "pipeline.selected_per_probe": selected / prune_probes if prune_probes else 0.0,
        "pipeline.decouple_iters_per_hqp": (
            sum(len(t.fineprint_iterations) for t in hqp) / len(hqp) if hqp else 0.0),
        "pipeline.lqp_share": sum(1 for _, t in traces if t.route and t.route.kind == "LQP") / n_a,
    }
    for stage in STAGES:
        layers[f"pipeline.{stage}_ms"] = view_a.total_ms(f"pipeline.{stage}") / n_a
    for role in ROLES:
        # Phase A carries the latency accounting; only phase B judges.
        view, n = (view_b, n_b) if role == "judge_score" else (view_a, n_a)
        layers[f"backends.calls.{role}"] = view.count(f"backend.{role}") / n
        layers[f"backends.call_ms.{role}"] = view.mean_ms(f"backend.{role}")
    client = [s for s in tracer.view("A", "B").spans if s.name.startswith("backend.")]
    calls, client_ms = len(client), sum(s.ms for s in client)
    layers.update({
        "backends.http.overhead_ms": (client_ms - sum(e["service_ms"] for e in log)) / calls,
        "backends.http.requests_per_call": len(log) / calls,
        "backends.http.connections_per_call": len({e["connection"] for e in log}) / calls,
        "backends.http.bytes_out_per_call": sum(e["bytes_in"] for e in log) / calls,
        "backends.http.bytes_in_per_call": sum(e["bytes_out"] for e in log) / calls,
    })
    render_calls, render_s = tracer.counter("backends.prompts.render_prompt", "A", "B")
    layers["backends.prompts.render_ms"] = render_s * 1000.0 / render_calls if render_calls else 0.0
    busy = view_b.total_ms("pipeline.run") + view_b.total_ms("evaluation.judge")
    layers.update({
        "evaluation.judge_ms": view_b.mean_ms("evaluation.judge"),
        "evaluation.judge_requests_per_example": view_b.count("backend.judge_score") / n_b,
        "evaluation.check_gold_ms": view_b.mean_ms("evaluation._check_gold_present"),
        "evaluation.worker_busy_share": busy / (PARALLELISM * eval_s * 1000.0),
    })
    layers.update(trace_layers(tracer, "B", n_b, eval_s))
    return layers
