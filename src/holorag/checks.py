"""Randomized self-check harness for the loss and gradient paths.

Two suites: value equivalence of the fast losses against the naive
recomputation in ``reference``, and agreement of the analytic gradients with
central finite differences.  Both the `loss-check` CLI command and the
acceptance tests drive these.
"""

import time
import warnings
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import PartitionTooFineError
from .losses import (
    Batch,
    ZeroSimilarityWarning,
    build_batch,
    finite_difference_check,
    loss_gradients,
    total_loss,
)
from .reference import ref_losses

ORACLE_TOLERANCE = 1e-9
GRADIENT_TOLERANCE = 1e-4

GRADIENT_BATCH_SIZES = (2, 4, 8)
GRADIENT_DIMENSIONS = (4, 16, 64)
GRADIENT_TAUS = (0.01, 0.1, 1.0)


def random_batch(
    rng: np.random.Generator,
    b: Optional[int] = None,
    d: Optional[int] = None,
    n_parts: Optional[int] = None,
    alpha: float = 0.5,
    max_b: int = 3,
    max_d: int = 8,
) -> Batch:
    """Draw a random Gaussian batch whose masks partition cleanly.

    Narrow masks can leave fewer nonzero coordinates than requested parts
    (certain at d=2 with two parts), so on partition failure the vectors are
    redrawn, together with every size not fixed by the caller.
    """
    for _ in range(1000):
        size = b if b is not None else int(rng.integers(1, max_b + 1))
        dim = d if d is not None else int(rng.integers(2, max_d + 1))
        parts = n_parts if n_parts is not None else int(rng.integers(1, 3))
        try:
            return build_batch(
                rng.normal(size=(size, dim)),
                rng.normal(size=(size, dim)),
                alpha=alpha,
                n_parts=parts,
                seed=int(rng.integers(1_000_000_000)),
            )
        except PartitionTooFineError:
            continue
    raise RuntimeError("could not draw a partitionable batch in 1000 attempts")


def run_oracle_check(
    seed: int = 0,
    n_batches: int = 200,
    max_b: int = 3,
    max_d: int = 8,
    value_offset: float = 0.0,
) -> dict:
    """Compare fast loss values against the naive recomputation.

    ``value_offset`` is added to the fast-path values before comparison; the
    CLI's bug-injection mode uses it to prove the check can fail.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    started = time.perf_counter()
    for _ in range(n_batches):
        batch = random_batch(rng, max_b=max_b, max_d=max_d)
        tau = float(rng.choice([0.01, 0.1, 1.0]))
        beta = float(rng.uniform(0.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroSimilarityWarning)
            report = total_loss(batch, tau, beta).to_dict()
        expected = ref_losses(
            batch.queries.tolist(),
            batch.positives.tolist(),
            batch.masks.tolist(),
            [[list(part) for part in batch.submasks[i]] for i in range(batch.size)],
            tau,
            beta,
        )
        for key in ("l_in", "l_din", "l_sin", "total"):
            worst = max(worst, abs(report[key] + value_offset - expected[key]))
    return {
        "suite": "oracle",
        "batches": n_batches,
        "max_abs_error": worst,
        "tolerance": ORACLE_TOLERANCE,
        "passed": worst < ORACLE_TOLERANCE,
        "seconds": round(time.perf_counter() - started, 3),
    }


def run_gradient_check(
    seed: int = 0,
    n_batches: int = 50,
    sizes: Sequence[Tuple[int, int]] = tuple((b, d) for b in GRADIENT_BATCH_SIZES for d in GRADIENT_DIMENSIONS),
    taus: Sequence[float] = GRADIENT_TAUS,
    step: float = 1e-5,
    gradient_offset: float = 0.0,
) -> dict:
    """Compare analytic gradients against central differences.

    Batches cycle through the (B, d) size grid and the tau grid.  The
    central-difference error falls with the square of ``step``; at tau=0.01
    a step of 1e-4 already exceeds GRADIENT_TOLERANCE on some batches.  A
    nonzero ``gradient_offset`` is added to the analytic gradients first (bug
    injection for self-testing the checker).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    started = time.perf_counter()
    for i in range(n_batches):
        b, d = sizes[i % len(sizes)]
        tau = float(taus[i % len(taus)])
        if b == 1:
            # degenerate batch: softmax over one candidate, loss constant 0
            batch = random_batch(rng, b=1, d=max(d, 3), n_parts=1)
        else:
            batch = random_batch(rng, b=b, d=d, n_parts=2 if d > 2 else 1)
        grads = None
        if gradient_offset != 0.0:
            gq, gd = loss_gradients(batch, tau, 1.0)
            grads = (gq + gradient_offset, gd + gradient_offset)
        err = finite_difference_check(batch, tau, 1.0, step, _gradients=grads)
        worst = max(worst, err)
    return {
        "suite": "gradient",
        "batches": n_batches,
        "max_relative_error": worst,
        "tolerance": GRADIENT_TOLERANCE,
        "passed": worst < GRADIENT_TOLERANCE,
        "seconds": round(time.perf_counter() - started, 3),
    }
