"""Command-line entry point.

Subcommands: ingest a corpus into a snapshot, retrieve against snapshots,
answer a query through the agent pipeline, evaluate a dataset, and run the
loss/gradient self-checks.  Exit codes: 0 success, 1 usage, user or data
error, 2 backend error.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import List, Optional, Sequence

from .backends.http import HttpBackend
from .backends.mock import MockBackend
from .checks import run_gradient_check, run_oracle_check
from .config import CHOICES, RunConfig, field_type
from .errors import ConfigError, HoloRagError
from .evaluation import evaluate_e2e, evaluate_retrieval, load_dataset
from .index import ingest_corpus, load_snapshot, merge_pools, pools_by_name, save_snapshot, top_k
from .jsonl import atomic_write
from .pipeline import run_pipeline

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_BACKEND_ERROR = 2


def _exit_code(exc: HoloRagError) -> int:
    """Backend errors (the RuntimeError family) exit 2, data and usage errors 1."""
    return EXIT_BACKEND_ERROR if isinstance(exc, RuntimeError) else EXIT_USER_ERROR


class _Parser(argparse.ArgumentParser):
    """A usage error exits EXIT_USER_ERROR, not argparse's 2, which here means a
    backend error; subparsers are built with this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USER_ERROR, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A --seed value; numpy's generators take non-negative integers only."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per non-bool RunConfig field, plus --no-skip-on-error."""
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(RunConfig):
        if f.type is bool:
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.name in CHOICES:
            parser.add_argument(flag, choices=CHOICES[f.name], dest=f.name)
        else:
            parser.add_argument(flag, type=field_type(f), dest=f.name)
    parser.add_argument(
        "--no-skip-on-error",
        action="store_const",
        const=False,
        dest="skip_on_error",
        help="abort an evaluation on the first failing example",
    )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return RunConfig.from_sources(getattr(args, "config", None), overrides)


def _build_backend(config: RunConfig):
    if config.backend == "mock":
        if not config.fixtures:
            raise ConfigError("mock backend needs --fixtures pointing at a fixture file")
        return MockBackend.from_file(config.fixtures)
    if not config.base_url or not config.model:
        raise ConfigError("http backend needs --base-url and --model")
    return HttpBackend(
        base_url=config.base_url,
        model=config.model,
        api_key_env=config.api_key_env,
        timeout=config.timeout,
        max_retries=config.max_retries,
    )


def _load_pools(paths: Sequence[str]) -> List:
    return [load_snapshot(path) for path in paths]


def _select_pool(pools, pool_mode: str, pool_name: Optional[str]):
    if pool_mode == "all":
        if pool_name:  # a name would be ignored: all-pool mode searches every pool
            raise ConfigError(f"--pool {pool_name!r} needs single-pool mode, not pool mode 'all'")
        return merge_pools(pools)
    if pool_name:
        by_name = pools_by_name(pools)
        if pool_name not in by_name:
            raise ConfigError(f"no snapshot holds pool {pool_name!r}")
        return by_name[pool_name]
    if len(pools) != 1:
        raise ConfigError("single-pool mode over several snapshots needs --pool NAME")
    return pools[0]


def cmd_ingest(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        print(f"error: {out} exists; pass --force to overwrite", file=sys.stderr)
        return EXIT_USER_ERROR
    pool = ingest_corpus(args.corpus)
    save_snapshot(pool, out)
    print(f"{len(pool)} records, dim={pool.dimension} -> {out}")
    return EXIT_OK


def cmd_retrieve(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    backend = _build_backend(config)
    pools = _load_pools(args.snapshots)
    pool = _select_pool(pools, config.pool_mode, args.pool)
    ranked = top_k(
        pool,
        backend.embed_query(args.query),
        config.k,
        scoring=config.scoring_mode,
        alpha=config.alpha,
    )
    if args.json:
        print(json.dumps(ranked.to_dict(), ensure_ascii=False))
    else:
        print(f"{'rank':<5} {'pool':<12} {'doc_id':<20} score")
        for rank, entry in enumerate(ranked.entries, start=1):
            print(f"{rank:<5} {entry.pool_name:<12} {entry.doc_id:<20} {entry.score:.6f}")
    return EXIT_OK


def cmd_answer(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    backend = _build_backend(config)
    pools = _load_pools(args.snapshots)
    pool = _select_pool(pools, config.pool_mode, args.pool)
    trace = run_pipeline(args.query, pool, config, backend)
    if args.trace:
        with atomic_write(args.trace) as handle:
            handle.write((trace.to_json() + "\n").encode("utf-8"))
    if trace.failed:
        print(f"error: {trace.error}", file=sys.stderr)
        return _exit_code(trace.exception)
    print(trace.final_answer)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dataset = load_dataset(args.dataset)
    pools = _load_pools(args.snapshots)
    backend = _build_backend(config)
    if args.mode == "retrieval":
        report = evaluate_retrieval(dataset, config.pool_mode, pools, backend, config)
    else:
        # the same endpoint serves the judging fixtures
        report = evaluate_e2e(dataset, pools, config, backend, backend)
    if args.report:
        with atomic_write(args.report) as handle:
            handle.write((report.to_json() + "\n").encode("utf-8"))
    print(report.render_table())
    if report.mean_ndcg5 is not None:
        print(f"mean nDCG@5 = {report.mean_ndcg5:.4f}")
    if report.accuracy is not None:
        print(
            f"accuracy = {report.accuracy:.4f} "
            f"(LQP {report.lqp_count}, HQP {report.hqp_count})"
        )
    return EXIT_OK


def cmd_loss_check(args: argparse.Namespace) -> int:
    oracle = run_oracle_check(seed=args.seed, n_batches=args.oracle_batches)
    gradient = run_gradient_check(seed=args.seed, n_batches=args.gradient_batches)
    report = {"oracle": oracle, "gradient": gradient, "passed": oracle["passed"] and gradient["passed"]}
    if args.json:
        print(json.dumps(report, ensure_ascii=False))
    else:
        print(
            f"oracle:   {oracle['batches']} batches, "
            f"max |err| = {oracle['max_abs_error']:.3e} "
            f"(tol {oracle['tolerance']:.0e}) -> {'ok' if oracle['passed'] else 'FAIL'}"
        )
        print(
            f"gradient: {gradient['batches']} batches, "
            f"max rel err = {gradient['max_relative_error']:.3e} "
            f"(tol {gradient['tolerance']:.0e}) -> {'ok' if gradient['passed'] else 'FAIL'}"
        )
    return EXIT_OK if report["passed"] else EXIT_USER_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holorag",
        description="Holistic retrieval and uncertainty-routed generation engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser(
        "ingest",
        help="build a pool snapshot from a corpus file (format 2: keys and metadata "
        "as JSON lines, then the embeddings as raw little-endian float64)",
    )
    p_ingest.add_argument("corpus", help="JSON-lines corpus file")
    p_ingest.add_argument("-o", "--out", required=True, help="snapshot output path")
    p_ingest.add_argument("--force", action="store_true", help="overwrite an existing snapshot")
    p_ingest.set_defaults(func=cmd_ingest)

    p_retrieve = sub.add_parser("retrieve", help="rank documents for a query")
    p_retrieve.add_argument("snapshots", nargs="+", help="pool snapshot file(s)")
    p_retrieve.add_argument("--query", required=True)
    p_retrieve.add_argument("--pool", help="pool name for single-pool mode")
    p_retrieve.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    _add_config_flags(p_retrieve)
    p_retrieve.set_defaults(func=cmd_retrieve)

    p_answer = sub.add_parser("answer", help="answer a query through the agent pipeline")
    p_answer.add_argument("snapshots", nargs="+")
    p_answer.add_argument("--query", required=True)
    p_answer.add_argument("--pool", help="pool name for single-pool mode")
    p_answer.add_argument("--trace", help="write the full answer trace JSON here")
    _add_config_flags(p_answer)
    p_answer.set_defaults(func=cmd_answer)

    p_eval = sub.add_parser("eval", help="evaluate retrieval or end-to-end answering")
    p_eval.add_argument("snapshots", nargs="+")
    p_eval.add_argument("--dataset", required=True, help="JSON-lines QA dataset")
    p_eval.add_argument("--mode", choices=("retrieval", "e2e"), required=True)
    p_eval.add_argument("--report", help="write the JSON report here")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser(
        "loss-check", help="check loss values and gradients on random batches; exit 1 on a failure"
    )
    p_check.add_argument("--seed", type=_seed, default=0, help="seed of the random batches")
    p_check.add_argument("--oracle-batches", type=int, default=50, help="batches of loss values")
    p_check.add_argument("--gradient-batches", type=int, default=9, help="batches of gradients")
    p_check.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_check.set_defaults(func=cmd_loss_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HoloRagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
