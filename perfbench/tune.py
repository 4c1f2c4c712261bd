"""Tuning workload: contrastive loss steps.

A step is ``build_batch`` (masks and submasks from raw vector pairs), then
``total_loss``, then ``loss_gradients``.  The raw batches are drawn from the
seed before timing starts.  Set-up is the time to a first step on a fresh
batch, the analogue of the retrieval workloads' warm-up query.  The loss
and gradient paths are checked with the package's own oracle and
finite-difference checks, tolerances unchanged.
"""

import gc
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import holorag.losses as losses
from holorag import checks

import datagen
from common import Outcome, median, peak_rss_mb, percentile
from tracing import trace_layers

MIN_STEPS = 1  # per timed window
SETUP_REPS = 5  # each followed by a timed window of steps
N_PARTS = 2
TAU = 0.01
BETA = 1.0
ALPHA = 0.5
GRADIENT_BATCHES = 3
# Not the default grid: its d=4 entries make run_gradient_check raise
# PartitionTooFineError for most seeds (a 2-part split of a mask with one
# nonzero coordinate is not redrawn when B, d and N are all fixed).
GRADIENT_SIZES = ((2, 16), (4, 16), (8, 32))


@dataclass(frozen=True)
class TuneSpec:
    b: int
    d: int
    batches: int = 8  # distinct raw batches, reused cyclically
    oracle_batches: int = 40


def step(pair, seed: int):
    batch = losses.build_batch(pair[0], pair[1], alpha=ALPHA, n_parts=N_PARTS, seed=seed)
    return losses.total_loss(batch, TAU, BETA), losses.loss_gradients(batch, TAU, BETA)


def run(spec: TuneSpec, seed: int, seconds: float, tracer, work: Path) -> Outcome:
    raw = datagen.training_batches(seed, spec.batches, spec.b, spec.d)
    if tracer:
        for attr in ("build_batch", "total_loss", "loss_gradients"):
            tracer.wrap(losses, attr, f"losses.{attr}")
    try:
        # As in the retrieval workloads, each set-up is followed by a share of
        # the timed steps, spreading both over the run.
        setup_s, op_ms, first, elapsed = [], [], None, 0.0
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.phase = "setup"
            gc.collect()  # set up from a collected heap, as a fresh process would
            start = time.perf_counter()
            step(raw[rep % len(raw)], seed + rep)
            setup_s.append(time.perf_counter() - start)

            if tracer:
                tracer.phase = "measure"
            started = time.perf_counter()
            while (len(op_ms) < MIN_STEPS * (rep + 1)
                   or time.perf_counter() - started < seconds / SETUP_REPS):
                t0 = time.perf_counter()
                result = step(raw[len(op_ms) % len(raw)], seed + len(op_ms))
                op_ms.append((time.perf_counter() - t0) * 1000.0)
                first = first or result
            elapsed += time.perf_counter() - started
        rss = peak_rss_mb()
    finally:
        if tracer:
            tracer.restore()

    out = Outcome(
        setup_s=setup_s,
        op_ms=op_ms,
        ops_per_s=len(op_ms) / elapsed,
        attempted=len(op_ms),
        failed=0,
        peak_rss_mb=rss,
    )
    _check(out, spec, seed, first)
    n = len(op_ms)
    out.named += [
        ("setup_s", median(setup_s), "s", len(setup_s), "first step on a fresh batch"),
        ("train_steps_per_s", out.ops_per_s, "1/s", n,
         f"build_batch + total_loss + loss_gradients at B={spec.b}, d={spec.d}"),
        ("latency_mean_ms", sum(op_ms) / n, "ms", n, "per step"),
        ("latency_p50_ms", percentile(op_ms, 50), "ms", n, "per step"),
        ("latency_p90_ms", percentile(op_ms, 90), "ms", n, "per step"),
    ]
    if tracer:
        view = tracer.view("measure")
        out.layers = {
            "losses.build_batch_ms": view.mean_ms("losses.build_batch"),
            "losses.total_loss_ms": view.mean_ms("losses.total_loss"),
            "losses.loss_gradients_ms": view.mean_ms("losses.loss_gradients"),
        }
        out.layers.update(trace_layers(tracer, "measure", n, elapsed))
    return out


def _check(out: Outcome, spec: TuneSpec, seed: int, first) -> None:
    report, (grad_q, grad_d) = first
    shape = (spec.b, spec.d)
    finite = all(np.isfinite(v) for v in (report.l_in, report.l_din, report.l_sin, report.total))
    out.check("first step's loss is finite with total = l_din + beta * l_sin",
              finite and abs(report.total - (report.l_din + BETA * report.l_sin)) < 1e-9,
              f"total={report.total!r}")
    out.check("gradients are finite and shaped (B, d)",
              grad_q.shape == shape and grad_d.shape == shape
              and bool(np.all(np.isfinite(grad_q)) and np.all(np.isfinite(grad_d))))
    oracle = checks.run_oracle_check(seed=seed, n_batches=spec.oracle_batches)
    out.check("losses match the reference oracle (ORACLE_TOLERANCE)", oracle["passed"],
              f"max error {oracle['max_abs_error']:.3g} < {oracle['tolerance']}")
    gradient = checks.run_gradient_check(seed=seed, n_batches=GRADIENT_BATCHES,
                                         sizes=GRADIENT_SIZES)
    out.check("gradients match finite differences (GRADIENT_TOLERANCE)", gradient["passed"],
              f"max relative error {gradient['max_relative_error']:.3g} < {gradient['tolerance']}")
