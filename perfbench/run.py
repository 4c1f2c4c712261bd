#!/usr/bin/env python3
"""holorag benchmark: three seeded synthetic workloads through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One workload per process: it prints the
environment, each of the workload's own metrics with unit and sample count,
and each output check, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the functions of each holorag module are wrapped from outside and the metrics
are the per-layer ones.  The exit code is 1 when a check fails.

``--workload all`` runs every workload in its own process (and, with
``--trace 1``, a traced run beside each untraced one, reporting the tracing
overhead); it exits non-zero if any check fails.

Generated inputs are cached and results written under ``.perfbench/`` in the
checkout.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402  (imports no numpy, so BLAS can still be pinned)

common.pin_blas_threads()

WORKLOAD_NAMES = ("retrieve-masked-10k", "answer-http-2k", "tune-b128-d768")


def registry(tiny: bool) -> dict:
    """Workload name -> (module, spec); ``tiny`` gives smoke-test sizes."""
    import answer
    import retrieve
    import tune
    from datagen import CollectionSpec

    if tiny:
        return {
            "retrieve-masked-10k": (retrieve, retrieve.RetrievalSpec(
                CollectionSpec(200, 16), queries=16)),
            "answer-http-2k": (answer, answer.AnswerSpec(
                CollectionSpec(150, 16, text_words=8), superblocks=2, min_latency_queries=18)),
            "tune-b128-d768": (tune, tune.TuneSpec(b=8, d=32, batches=2, oracle_batches=5)),
        }
    return {
        "retrieve-masked-10k": (retrieve, retrieve.RetrievalSpec(CollectionSpec(10_000, 128))),
        "answer-http-2k": (answer, answer.AnswerSpec(CollectionSpec(2_000, 128, text_words=45))),
        "tune-b128-d768": (tune, tune.TuneSpec(b=128, d=768)),
    }


def end_to_end(out) -> dict:
    return {
        "setup_s": common.median(out.setup_s),
        "peak_rss_mb": out.peak_rss_mb,
        "throughput_per_s": out.ops_per_s,
        "latency_mean_ms": sum(out.op_ms) / len(out.op_ms),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            work: Path = common.WORK_DIR) -> dict:
    """Run one workload in this process; returns the result line's object."""
    from tracing import Tracer

    module, spec = registry(tiny)[name]
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = common.environment()
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    tracer = Tracer() if trace else None
    out = module.run(spec, seed, seconds, tracer, work)

    error_share = out.failed / out.attempted
    named = out.named + [
        ("peak_rss_mb", out.peak_rss_mb, "MiB", 1, "high-water RSS after the timed phase"),
        ("error_share", error_share, "share", out.attempted, "failed / attempted"),
    ]
    for metric, value, unit, samples, meaning in named:
        print(f"  {metric:<22} {value:>14.6g} {unit:<6} n={samples:<5} {meaning}")
    for check, ok, detail in out.checks:
        print(f"  check {'PASS' if ok else 'FAIL'}: {check}" + (f" ({detail})" if detail else ""))

    if trace:
        unknown = set(out.layers) - {m["name"] for m in bench["per_layer"]}
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values = {m["name"]: out.layers.get(m["name"], 0.0) for m in bench["per_layer"]}
        specs = bench["per_layer"]
        for metric in sorted(out.layers):
            print(f"  layer {metric:<42} {out.layers[metric]:.6g}")
    else:
        values, specs = end_to_end(out), bench["end_to_end"]
    result = {
        "correct": all(ok for _, ok, _ in out.checks) and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }

    results_dir = work / "out"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "result": result,
        "named": [dict(zip(("name", "value", "unit", "samples", "meaning"), n)) for n in named],
        "checks": [dict(zip(("check", "passed", "detail"), c)) for c in out.checks],
        "setup_s": out.setup_s, "op_ms": out.op_ms, "layers": out.layers,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, untraced (and traced with --trace 1)."""
    failures = []
    summary = {}
    for name in WORKLOAD_NAMES:
        for traced in ((False, True) if trace else (False,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=common.ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(proc.stderr, file=sys.stderr)
                failures.append(f"{name} trace={int(traced)}: no result (exit {proc.returncode})")
                continue
            summary[(name, traced)] = result
            if proc.returncode or not result["correct"]:
                failures.append(f"{name} trace={int(traced)}: checks failed")
        untraced, traced_run = summary.get((name, False)), summary.get((name, True))
        if untraced and traced_run:
            plain = untraced["metrics"]["throughput_per_s"]["value"]
            under = traced_run["metrics"]["trace.throughput_per_s"]["value"]
            print(f"  tracing overhead on {name}: throughput {plain:.4g} -> {under:.4g} /s "
                  f"({(plain - under) / plain:+.1%})")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({f"{n}/trace{int(t)}": r for (n, t), r in summary.items()}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        common.import_holorag()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a holorag checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# wall {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
