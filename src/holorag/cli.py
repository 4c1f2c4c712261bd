"""Command-line entry point.

Subcommands: ingest a corpus into a snapshot, retrieve against snapshots,
answer a query through the agent pipeline, evaluate a dataset, and run the
loss/gradient self-checks.  Exit codes: 0 success, 1 usage, user or data
error, 2 backend error.

The snapshot commands (retrieve, answer, eval) share one set-up, `_set_up`: it
builds the config, then the backend, then the snapshot pools, and eval reads its
dataset after it.  `main` prints every error as one ``error: `` line, except a
failed answer trace, which `cmd_answer` prints, and a usage error, which the
parser prints.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

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


def _exit_code(exc: Exception) -> int:
    """Backend errors (the RuntimeError family) exit 2, data, usage and OS errors 1."""
    return EXIT_BACKEND_ERROR if isinstance(exc, RuntimeError) else EXIT_USER_ERROR


class _Parser(argparse.ArgumentParser):
    """A usage error exits EXIT_USER_ERROR, not argparse's 2, which here means a
    backend error; subparsers are built with this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USER_ERROR, f"{self.prog}: error: {message}\n")


def _non_negative(text: str) -> int:
    """A seed or a batch count; numpy's generators take non-negative seeds only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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


def _set_up(args: argparse.Namespace) -> tuple:
    """(config, backend, pools) of a snapshot command, built in that order."""
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    config = RunConfig.from_sources(args.config, overrides)
    return config, _build_backend(config), [load_snapshot(path) for path in args.snapshots]


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


def _write_json(path: Optional[str], record) -> None:
    """Write ``record.to_json()`` and a newline to ``path``, if given, by one rename."""
    if path:
        with atomic_write(path) as handle:
            handle.write((record.to_json() + "\n").encode("utf-8"))


def cmd_ingest(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        raise ConfigError(f"{out} exists; pass --force to overwrite")
    pool = ingest_corpus(args.corpus)
    save_snapshot(pool, out)
    print(f"{len(pool)} records, dim={pool.dimension} -> {out}")
    return EXIT_OK


def cmd_retrieve(args: argparse.Namespace) -> int:
    config, backend, pools = _set_up(args)
    ranked = top_k(
        _select_pool(pools, config.pool_mode, args.pool),
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
    config, backend, pools = _set_up(args)
    pool = _select_pool(pools, config.pool_mode, args.pool)
    trace = run_pipeline(args.query, pool, config, backend)
    _write_json(args.trace, trace)
    if trace.failed:
        print(f"error: {trace.error}", file=sys.stderr)
        return _exit_code(trace.exception)
    print(trace.final_answer)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config, backend, pools = _set_up(args)
    dataset = load_dataset(args.dataset)
    if args.mode == "retrieval":
        report = evaluate_retrieval(dataset, config.pool_mode, pools, backend, config)
    else:
        # the same endpoint serves the judging fixtures
        report = evaluate_e2e(dataset, pools, config, backend, backend)
    _write_json(args.report, report)
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
        for name, error, key in (("oracle", "max |err|", "max_abs_error"),
                                 ("gradient", "max rel err", "max_relative_error")):
            suite = report[name]
            print(
                f"{name + ':':<10}{suite['batches']} batches, {error} = {suite[key]:.3e} "
                f"(tol {suite['tolerance']:.0e}) -> {'ok' if suite['passed'] else 'FAIL'}"
            )
    return EXIT_OK if report["passed"] else EXIT_USER_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holorag",
        description="Holistic retrieval and uncertainty-routed generation engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments of every snapshot command, then those of retrieve and answer
    snapshot_args = _Parser(add_help=False)
    snapshot_args.add_argument("snapshots", nargs="+", help="pool snapshot file(s)")
    snapshot_args.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(RunConfig):  # one flag per non-bool field, plus --no-skip-on-error
        flag = "--" + f.name.replace("_", "-")
        if f.name in CHOICES:
            snapshot_args.add_argument(flag, choices=CHOICES[f.name], dest=f.name)
        elif f.type is not bool:
            snapshot_args.add_argument(flag, type=field_type(f), dest=f.name)
    snapshot_args.add_argument(
        "--no-skip-on-error",
        action="store_const",
        const=False,
        dest="skip_on_error",
        help="abort an evaluation on the first failing example",
    )
    query_args = _Parser(add_help=False, parents=[snapshot_args])
    query_args.add_argument("--query", required=True)
    query_args.add_argument("--pool", help="pool name for single-pool mode")

    p_ingest = sub.add_parser(
        "ingest",
        help="build a pool snapshot from a corpus file (format 2: keys and metadata "
        "as JSON lines, then the embeddings as raw little-endian float64)",
    )
    p_ingest.add_argument("corpus", help="JSON-lines corpus file")
    p_ingest.add_argument("-o", "--out", required=True, help="snapshot output path")
    p_ingest.add_argument("--force", action="store_true", help="overwrite an existing snapshot")
    p_ingest.set_defaults(func=cmd_ingest)

    p_retrieve = sub.add_parser("retrieve", parents=[query_args], help="rank documents for a query")
    p_retrieve.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_retrieve.set_defaults(func=cmd_retrieve)

    p_answer = sub.add_parser(
        "answer", parents=[query_args], help="answer a query through the agent pipeline"
    )
    p_answer.add_argument("--trace", help="write the full answer trace JSON here")
    p_answer.set_defaults(func=cmd_answer)

    p_eval = sub.add_parser(
        "eval", parents=[snapshot_args], help="evaluate retrieval or end-to-end answering"
    )
    p_eval.add_argument("--dataset", required=True, help="JSON-lines QA dataset")
    p_eval.add_argument("--mode", choices=("retrieval", "e2e"), required=True)
    p_eval.add_argument("--report", help="write the JSON report here")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser(
        "loss-check", help="check loss values and gradients on random batches; exit 1 on a failure"
    )
    for flag, default, text in (
        ("--seed", 0, "seed of the random batches"),
        ("--oracle-batches", 50, "batches of loss values"),
        ("--gradient-batches", 9, "batches of gradients"),
    ):
        p_check.add_argument(flag, type=_non_negative, default=default, help=text)
    p_check.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_check.set_defaults(func=cmd_loss_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HoloRagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
