"""Command line interface.

Subcommands:
  gen-data   write a synthetic federated dataset to a text file
  train      train from a dataset and write a checkpoint
  unlearn    service one deletion request against a checkpoint; the
             store mode recorded in the checkpoint picks partial
             re-computation (full_history) or retraining (compact),
             under the loss recorded in the checkpoint
  stream     service a file of deletion requests in order
  verify     exact distributional-equivalence check on a small setup,
             one line per store mode
  bench      run an experiment config end to end
  report     summarize metrics/outcomes files from a bench run
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .bench import (
    ExperimentConfig,
    convergence_summary,
    read_metrics,
    run_experiment,
    unlearning_efficiency_report,
)
from .data import (
    FULL_HISTORY,
    STORAGE_MODES,
    HyperParams,
    UnlearnRequest,
    export_dataset,
    generate_synthetic,
    import_dataset,
    remove_target,
)
from .engine import run_fats
from .errors import FedUnlabError, InvalidArgumentError
from .fileio import atomic_open
from .losses import make_loss
from .stability import (
    enumerate_history_distribution,
    equivalence_test_exact,
    unlearned_history_distributions,
)
from .store import HistoryStore, load_checkpoint, save_checkpoint
from .unlearn import REJECTED, UnlearnOutcome, parse_request_line, process_stream, unlearn_request


def _read_dataset(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return import_dataset(handle.read())


def _add_hyper_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--total-steps", type=int, required=True)
    parser.add_argument("--local-steps", type=int, required=True)
    parser.add_argument("--rho-sample", type=float, required=True)
    parser.add_argument("--rho-client", type=float, required=True)
    parser.add_argument("--lr", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--storage-mode", choices=STORAGE_MODES, default=FULL_HISTORY
    )


def _write_dataset(dataset, path: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as handle:
        handle.write(export_dataset(dataset))


def cmd_gen_data(args: argparse.Namespace) -> int:
    dataset = generate_synthetic(
        num_clients=args.num_clients,
        samples_per_client=args.samples_per_client,
        dim=args.dim,
        classes=args.classes,
        beta=args.beta,
        seed=args.seed,
    )
    _write_dataset(dataset, args.out)
    print(f"wrote {dataset.num_clients} clients, {dataset.total_points} points to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = _read_dataset(args.data)
    hyper = HyperParams.from_budgets(
        rho_sample=args.rho_sample,
        rho_client=args.rho_client,
        num_clients=dataset.num_clients,
        samples_per_client=max(c.size for c in dataset.clients),
        total_steps=args.total_steps,
        local_steps=args.local_steps,
        lr=args.lr,
        seed=args.seed,
        storage_mode=args.storage_mode,
    )
    loss = make_loss(args.loss, dataset.dim)
    store = HistoryStore(hyper.storage_mode, hyper.local_steps)
    final = run_fats(1, hyper, dataset, store, loss)
    save_checkpoint(store, hyper, dataset, args.out)
    print(
        f"trained {hyper.total_steps} iterations "
        f"(K={hyper.clients_per_round}, b={hyper.batch_size}, "
        f"rho_sample={hyper.rho_sample_realized:.6f}, "
        f"rho_client={hyper.rho_client_realized:.6f})"
    )
    print(f"final model norm {float(np.linalg.norm(final)):.6f}; checkpoint at {args.out}")
    return 0


def _print_outcome(outcome: UnlearnOutcome) -> None:
    req = outcome.request
    target = f"client {req.target_client}" + (
        "" if req.target_uid is None else f" uid {req.target_uid}"
    )
    print(
        f"{req.kind} deletion of {target}: {outcome.action}, "
        f"retrained {outcome.retrained_iterations} iterations, "
        f"probes {outcome.probes}, wall {outcome.wall_time_s:.4f}s"
    )


def _load_inputs(args: argparse.Namespace):
    dataset = _read_dataset(args.data)
    store, hyper = load_checkpoint(args.checkpoint, dataset)
    return dataset, store, hyper, make_loss(store.loss_name, dataset.dim)


def _write_outputs(args: argparse.Namespace, store, hyper, reduced) -> None:
    if args.out:
        save_checkpoint(store, hyper, reduced, args.out)
        print(f"updated checkpoint at {args.out}")
    if args.data_out:
        _write_dataset(reduced, args.data_out)
        print(f"reduced dataset at {args.data_out}")


def cmd_unlearn(args: argparse.Namespace) -> int:
    dataset, store, hyper, loss = _load_inputs(args)
    request = UnlearnRequest(
        kind=args.kind,
        target_client=args.client,
        target_uid=args.uid,
        issue_step=hyper.total_steps if args.issue_step is None else args.issue_step,
    )
    outcome, reduced = unlearn_request(request, store, dataset, hyper, loss)
    _print_outcome(outcome)
    if outcome.action == REJECTED:
        print(
            "error: the deletion would leave a client or the federation empty, or "
            f"unable to supply batches of {hyper.batch_size}; store and dataset "
            "left unchanged",
            file=sys.stderr,
        )
        return 1
    _write_outputs(args, store, hyper, reduced)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    requests = []
    with open(args.requests, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                requests.append(parse_request_line(line))
    if not requests:
        raise InvalidArgumentError(f"{args.requests} holds no requests")
    dataset, store, hyper, loss = _load_inputs(args)
    outcomes, dataset = process_stream(requests, store, dataset, hyper, loss)
    for outcome in outcomes:
        _print_outcome(outcome)
    _write_outputs(args, store, hyper, dataset)
    report = unlearning_efficiency_report(outcomes, hyper.total_steps)
    print(json.dumps(report, indent=2, default=str))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    dataset = generate_synthetic(
        num_clients=args.num_clients,
        samples_per_client=args.samples_per_client,
        dim=1,
        classes=2,
        beta=0.5,
        seed=args.seed,
    )
    hyper = HyperParams.from_budgets(
        rho_sample=args.rho_sample,
        rho_client=args.rho_client,
        num_clients=dataset.num_clients,
        samples_per_client=args.samples_per_client,
        total_steps=args.total_steps,
        local_steps=args.local_steps,
        lr=0.1,
        seed=args.seed,
    )
    target_client = dataset.client_ids[0]
    target_uid = dataset.client(target_client).uids[0]
    request = UnlearnRequest(
        kind=args.kind,
        target_client=target_client,
        target_uid=target_uid if args.kind == "sample" else None,
        issue_step=hyper.total_steps,
    )
    unlearned = unlearned_history_distributions(hyper, dataset, request, STORAGE_MODES)
    retrain = enumerate_history_distribution(hyper, remove_target(dataset, request))
    reports = [
        equivalence_test_exact(distribution, retrain, name=f"{args.kind}-{mode}")
        for mode, distribution in unlearned.items()
    ]
    for report in reports:
        print(report.record())
    return 0 if all(report.passed for report in reports) else 1


def cmd_bench(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.output_dir:
        config.output_dir = args.output_dir
    results = run_experiment(config)
    for result in results:
        print(
            f"run {result.run}: {len(result.metrics)} rounds, "
            f"{len(result.outcomes)} requests, train {result.train_wall_s:.2f}s "
            f"-> {result.run_dir}"
        )
    all_metrics = [row for result in results for row in result.metrics]
    summary = convergence_summary(all_metrics)
    print(json.dumps(summary, indent=2))
    all_outcomes = [o for result in results for o in result.outcomes]
    if all_outcomes:
        print(json.dumps(
            unlearning_efficiency_report(all_outcomes, config.total_steps),
            indent=2, default=str,
        ))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    print(json.dumps(convergence_summary(read_metrics(args.metrics)), indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, and each subcommand's handler is bound when it is built."""
    parser = argparse.ArgumentParser(
        prog="fedunlab",
        description="Deterministic federated training with exact sample and client deletion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic federated dataset")
    p.add_argument("--num-clients", type=int, required=True)
    p.add_argument("--samples-per-client", type=int, required=True)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--loss", choices=["quadratic", "logistic"], default="quadratic")
    _add_hyper_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("unlearn", help="service one deletion request")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kind", choices=["sample", "client"], required=True)
    p.add_argument("--client", type=int, required=True)
    p.add_argument("--uid", type=int, default=None)
    p.add_argument("--issue-step", type=int, default=None)
    p.add_argument("--out", default=None, help="write the updated checkpoint here")
    p.add_argument("--data-out", default=None, help="write the reduced dataset here")
    p.set_defaults(func=cmd_unlearn)

    p = sub.add_parser("stream", help="service a request file in order")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--requests", required=True,
                   help="text file, one request per line: kind,client,uid|-,issue_step")
    p.add_argument("--out", default=None, help="write the updated checkpoint here")
    p.add_argument("--data-out", default=None, help="write the reduced dataset here")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("verify", help="exact equivalence check on a small setup")
    p.add_argument("--kind", choices=["sample", "client"], default="sample")
    p.add_argument("--num-clients", type=int, default=2)
    p.add_argument("--samples-per-client", type=int, default=2)
    p.add_argument("--total-steps", type=int, default=2)
    p.add_argument("--local-steps", type=int, default=1)
    p.add_argument("--rho-sample", type=float, default=0.5)
    p.add_argument("--rho-client", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="summarize a metrics.csv")
    p.add_argument("--metrics", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FedUnlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
