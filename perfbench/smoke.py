#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about 15 seconds).

    python3 perfbench/smoke.py

Runs every workload untraced and traced, each for one second on small
inputs, and fails if a run's checks fail, if its metrics differ from those
BENCHMARK.json declares, or if BENCHMARK.json breaks the benchmark's own
format rules.  It also shows that the ranking check rejects a wrong ranking,
including a wrong tie-break at the cut.
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)
import common  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_file(bench: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= bench["run_seconds"] <= 60 and isinstance(bench["run_seconds"], int)
    assert list(bench["command"][:2]) == ["python3", "perfbench/run.py"]
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOAD_NAMES
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    assert all(NAME_RE.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in bench["workloads"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])


def check_ranking_rejects_swaps() -> None:
    import numpy as np
    from holorag.index import RankedEntry, RankedResult

    import datagen
    import retrieve

    scores = np.array([0.1, 0.9, 0.5, 0.7, 0.3, 0.2, 0.0])
    ranked = [RankedEntry(f"d{i:06d}", datagen.POOL_NAME, float(scores[i])) for i in (1, 3, 2, 4, 5)]
    assert retrieve.check_ranking(RankedResult(tuple(ranked), 5), scores, len(scores)) == ""
    swapped = [ranked[1], ranked[0]] + ranked[2:]
    assert retrieve.check_ranking(RankedResult(tuple(swapped), 5), scores, len(scores))
    missing = ranked[:4] + [RankedEntry("d000000", datagen.POOL_NAME, 0.1)]
    assert retrieve.check_ranking(RankedResult(tuple(missing), 5), scores, len(scores))

    # Rows 0, 5 and 6 tie exactly at the cut: rows 0 and 5 (lowest doc_ids) fill ranks 4-5.
    tied = np.array([0.3, 0.9, 0.5, 0.7, 0.1, 0.3, 0.3])

    def result(rows):
        return RankedResult(tuple(RankedEntry(f"d{i:06d}", datagen.POOL_NAME, float(tied[i]))
                                  for i in rows), 5)

    assert retrieve.check_ranking(result((1, 3, 2, 0, 5)), tied, len(tied)) == ""
    assert retrieve.check_ranking(result((1, 3, 2, 5, 6)), tied, len(tied))
    assert retrieve.check_ranking(result((1, 3, 2, 0, 6)), tied, len(tied))
    assert retrieve.check_ranking(result((1, 3, 2, 5, 0)), tied, len(tied))


def main() -> int:
    common.import_holorag()
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_benchmark_file(bench)
    check_ranking_rejects_swaps()
    failures = []
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            result = run.run_one(name, seed=7, seconds=1.0, trace=trace, tiny=True,
                                 work=common.WORK_DIR / "smoke")
            expected = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
            if not result["correct"] or list(result["metrics"]) != expected:
                failures.append(f"{name} trace={int(trace)}")
            if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
                failures.append(f"{name}: an end-to-end metric is not positive")
            if trace and result["metrics"]["trace.spans_per_op"]["value"] <= 0:
                failures.append(f"{name}: the traced run recorded no spans in its timed phase")
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    print("smoke ok" if not failures else "smoke failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
