"""Randomized self-check harness for the loss and gradient paths.

Two suites: value equivalence of the fast losses against the naive
recomputation in ``reference``, and agreement of the analytic gradients with
central finite differences.  The `loss-check` CLI command, the tune workload
and the tests drive these; the tests prove the suites can fail by patching a
wrong loss or gradient into the package.
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
    total_loss,
)
from .reference import ref_losses

ORACLE_TOLERANCE = 1e-9
GRADIENT_TOLERANCE = 1e-4

# random_batch's draw range for a size the caller leaves open
MAX_B = 3
MAX_D = 8

GRADIENT_BATCH_SIZES = (2, 4, 8)
GRADIENT_DIMENSIONS = (4, 16, 64)
GRADIENT_TAUS = (0.01, 0.1, 1.0)
# The central-difference error falls with the square of the step; at tau=0.01
# a step of 1e-4 already exceeds GRADIENT_TOLERANCE on some batches.
GRADIENT_STEP = 1e-5


def random_batch(
    rng: np.random.Generator,
    b: Optional[int] = None,
    d: Optional[int] = None,
    n_parts: Optional[int] = None,
) -> Batch:
    """Draw a random Gaussian batch whose masks partition cleanly.

    A size left as None is drawn: B from 1..MAX_B, d from 2..MAX_D and the
    number of submask parts from 1..2.  Narrow masks can leave fewer nonzero
    coordinates than requested parts (certain at d=2 with two parts), so on
    partition failure the vectors are redrawn, together with every size not
    fixed by the caller.
    """
    for _ in range(1000):
        size = b if b is not None else int(rng.integers(1, MAX_B + 1))
        dim = d if d is not None else int(rng.integers(2, MAX_D + 1))
        parts = n_parts if n_parts is not None else int(rng.integers(1, 3))
        try:
            return build_batch(
                rng.normal(size=(size, dim)),
                rng.normal(size=(size, dim)),
                n_parts=parts,
                seed=int(rng.integers(1_000_000_000)),
            )
        except PartitionTooFineError:
            continue
    raise RuntimeError("could not draw a partitionable batch in 1000 attempts")


def run_oracle_check(seed: int = 0, n_batches: int = 200) -> dict:
    """Compare fast loss values against the naive recomputation.

    Each of ``n_batches`` random batches (see `random_batch`) gets a tau
    from {0.01, 0.1, 1} and a beta from U(0, 2).  The suite passes when it
    ran at least one batch and every loss value is within ORACLE_TOLERANCE
    of the oracle's.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    started = time.perf_counter()
    for _ in range(n_batches):
        batch = random_batch(rng)
        tau = float(rng.choice([0.01, 0.1, 1.0]))
        beta = float(rng.uniform(0.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroSimilarityWarning)
            report = total_loss(batch, tau, beta)
        expected = ref_losses(
            batch.queries.tolist(),
            batch.positives.tolist(),
            batch.masks.tolist(),
            [[list(part) for part in batch.submasks[i]] for i in range(batch.size)],
            tau,
            beta,
        )
        for key in ("l_in", "l_din", "l_sin", "total"):
            worst = max(worst, abs(getattr(report, key) - expected[key]))
    return {
        "suite": "oracle",
        "batches": n_batches,
        "max_abs_error": worst,
        "tolerance": ORACLE_TOLERANCE,
        "passed": n_batches > 0 and worst < ORACLE_TOLERANCE,
        "seconds": round(time.perf_counter() - started, 3),
    }


def run_gradient_check(
    seed: int = 0,
    n_batches: int = 50,
    sizes: Sequence[Tuple[int, int]] = tuple((b, d) for b in GRADIENT_BATCH_SIZES for d in GRADIENT_DIMENSIONS),
) -> dict:
    """Compare analytic gradients against central differences.

    Batches cycle through the (B, d) ``sizes`` and GRADIENT_TAUS, at beta=1
    and a step of GRADIENT_STEP.  The suite passes when it ran at least one
    batch and the worst relative error (see `finite_difference_check`) is
    below GRADIENT_TOLERANCE.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    started = time.perf_counter()
    for i in range(n_batches):
        b, d = sizes[i % len(sizes)]
        tau = GRADIENT_TAUS[i % len(GRADIENT_TAUS)]
        batch = random_batch(rng, b=b, d=d, n_parts=2 if d > 2 else 1)
        worst = max(worst, finite_difference_check(batch, tau, 1.0, GRADIENT_STEP))
    return {
        "suite": "gradient",
        "batches": n_batches,
        "max_relative_error": worst,
        "tolerance": GRADIENT_TOLERANCE,
        "passed": n_batches > 0 and worst < GRADIENT_TOLERANCE,
        "seconds": round(time.perf_counter() - started, 3),
    }
