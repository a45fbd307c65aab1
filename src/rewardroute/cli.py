"""Command-line entry point for the full routing pipeline.

Subcommands:
    ingest   validate a raw dataset file, optionally dropping rows that
             share a 6-word window with benchmark queries
    tag      add tags from a keyword-rules file
    train    distill normalized rewards into a router checkpoint
    eval     rank router / reward-argmax / single-model / oracle policies
    ablate   sweep the label-smoothing weight on a synthetic benchmark
    route    route one query with a checkpoint
    synth    materialize a synthetic benchmark to files
    serve    run the HTTP gateway

Exit codes: 0 success, 1 usage error, 2 data or file-format error,
3 runtime error (training divergence, bind failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    RewardDataset,
    apply_tag_rules,
    check_query_text,
    load_benchmark_queries,
    load_dataset,
    load_oracle,
    load_registry,
    load_tag_rules,
    save_dataset,
    save_oracle,
    save_registry,
    write_json_lines,
)
from .decontamination import decontaminate
from .errors import (
    CheckpointError,
    DataFormatError,
    DivergenceError,
    GatewayError,
)
from .evaluation import AblationResult, EvalReport, beta_ablation, evaluate_systems
from .features import FeaturizerConfig
from .gateway import Gateway, GatewayConfig
from .ranking import SyntheticSpec, make_synthetic_benchmark
from .rewards import aggregate_tag_rewards, check_beta
from .router import TrainConfig, TrainReport, init_router, route, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

DEFAULT_BETAS = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "records"), default="table",
                        help="stdout layout: aligned table or JSON records")


def _emit_results(args: argparse.Namespace, result: EvalReport | AblationResult) -> None:
    """Write the result's records to --out, then print them as --format asks."""
    records = result.to_records()
    if args.out:
        write_json_lines(args.out, records)
    if args.format == "records":
        for record in records:
            print(json.dumps(record))
    else:
        print(result.render_table())


def _load_data(args: argparse.Namespace) -> RewardDataset:
    """The --data dataset, read against the models of the --registry file."""
    return load_dataset(args.data, load_registry(args.registry))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    dataset = _load_data(args)
    removed: list[tuple[str, tuple[str, ...]]] = []
    if args.benchmarks:
        dataset, removed = decontaminate(dataset, load_benchmark_queries(args.benchmarks))
    save_dataset(dataset, args.out)
    if args.report:
        write_json_lines(args.report, ({"id": qid, "ngram": list(ngram)}
                                       for qid, ngram in removed))
    print(f"kept {len(dataset)} rows, removed {len(removed)}")
    for qid, ngram in removed:
        print(f"removed {qid}: shares {' '.join(ngram)!r}")
    return EXIT_OK


def cmd_tag(args: argparse.Namespace) -> int:
    dataset = _load_data(args)
    rules = load_tag_rules(args.rules)
    tagged = apply_tag_rules(dataset, rules)
    save_dataset(tagged, args.out)
    n_tagged = sum(1 for row in tagged.rows if row.query.tags)
    print(f"tagged {n_tagged} of {len(tagged)} rows using {len(rules)} rules")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size,
        beta=args.beta, temperature=args.temperature, l2_penalty=args.l2,
        seed=args.seed,
    )
    featurizer = FeaturizerConfig(dimension=args.dimension)
    dataset = _load_data(args)
    table = aggregate_tag_rewards(dataset)
    model = init_router(dataset.registry, featurizer, seed=args.seed)
    trained, report = train(model, dataset, table, config)
    for epoch, loss in enumerate(report.epoch_losses, start=1):
        print(f"epoch {epoch}/{config.epochs} loss {loss:.6f}")
    save_checkpoint(trained, args.out)
    print(f"final loss {report.final_loss:.6f} on {report.row_count} rows; "
          f"checkpoint written to {args.out}")
    _print_phases("train", report)
    return EXIT_OK


def _print_phases(command: str, report: TrainReport) -> None:
    """Where a training run's time went, on one stderr line (stdout stays the result)."""
    print(f"{command} {report.wall_seconds:.3f}s: featurize {report.featurize_s:.3f}s, "
          f"targets {report.targets_s:.3f}s, optimize {report.optimize_s:.3f}s, "
          f"decay {report.decay_s:.3f}s", file=sys.stderr)


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = _load_data(args)
    oracle = load_oracle(args.oracle, dataset.registry)
    model = load_checkpoint(args.checkpoint) if args.checkpoint else None
    report = evaluate_systems(dataset, oracle, model=model, rmr=args.rmr)
    _emit_results(args, report)
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    config = TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, seed=args.seed,
    )
    for beta in args.betas:
        check_beta(beta)  # before any file is read
    spec = SyntheticSpec.from_file(args.spec)
    result = beta_ablation(spec, args.betas, config)
    _emit_results(args, result)
    _print_phases("ablate", result.phases)
    return EXIT_OK


def cmd_route(args: argparse.Namespace) -> int:
    check_query_text(args.query, "--query")  # the rule /route answers 400 by
    model = load_checkpoint(args.checkpoint)
    model_id, probs = route(model, args.query)
    distribution = {m: float(p) for m, p in zip(model.registry.ids, probs)}
    if args.format == "records":
        print(json.dumps({"model_id": model_id, "distribution": distribution}))
    else:
        print(f"model_id: {model_id}")
        for m, p in distribution.items():
            print(f"  {m}  {p:.4f}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec.from_file(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    dataset, oracle = make_synthetic_benchmark(spec)
    save_dataset(dataset, args.out_data)
    save_oracle(oracle, dataset.registry, args.out_oracle)
    if args.out_registry:
        save_registry(dataset.registry, args.out_registry)
    print(f"wrote {len(dataset)} rows for {len(dataset.registry)} models")
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    config = GatewayConfig.from_file(args.config)
    gateway = Gateway(config)
    gateway.start()
    print(f"gateway listening on {gateway.url}", flush=True)  # a parent may wait on this line
    gateway.serve_forever()     # a Ctrl-C shuts it down, and main() maps it to EXIT_OK
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and exit-code mapping
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rewardroute",
        description="train, evaluate, and serve a reward-distilled query router",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="validate a dataset, optionally decontaminate")
    p.add_argument("--data", required=True, help="raw dataset (JSON lines)")
    p.add_argument("--registry", required=True, help="model registry JSON")
    p.add_argument("--out", required=True, help="validated dataset output path")
    p.add_argument("--benchmarks", help="benchmark queries, one per line")
    p.add_argument("--report", help="write removed ids + matching n-gram (JSON lines)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tag", help="apply keyword tag rules to a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--rules", required=True, help="JSON mapping tag -> keywords")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("train", help="train a router and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--beta", type=float, default=TrainConfig.beta,
                   help="weight on per-query rewards vs tag means")
    p.add_argument("--temperature", type=float, default=TrainConfig.temperature)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--l2", type=float, default=TrainConfig.l2_penalty)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--dimension", type=int, default=FeaturizerConfig.dimension,
                   help="hashed feature dimension")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compare routing policies on an oracle-labelled set")
    p.add_argument("--data", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--oracle", required=True, help="per-query true scores (JSON lines)")
    p.add_argument("--checkpoint", help="router checkpoint to include")
    p.add_argument("--rmr", action="store_true",
                   help="include the observed-reward argmax policy")
    p.add_argument("--out", help="also write JSON records here")
    _add_format_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep the label-smoothing weight")
    p.add_argument("--spec", required=True, help="synthetic benchmark spec JSON")
    p.add_argument("--betas", type=_float_list,
                   default=DEFAULT_BETAS,
                   help="comma-separated weights, e.g. 0,0.3,1.0")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", help="also write JSON records here")
    _add_format_flag(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("route", help="route a single query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--query", required=True)
    _add_format_flag(p)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("synth", help="write a synthetic benchmark to files")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-oracle", required=True)
    p.add_argument("--out-registry")
    p.add_argument("--seed", type=int,
                   help="override the seed stored in the benchmark spec JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("serve", help="run the HTTP routing gateway")
    p.add_argument("--config", required=True, help="gateway config JSON")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (DataFormatError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, GatewayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_OK


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
