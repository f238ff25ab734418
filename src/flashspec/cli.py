"""Command-line entry points: run, compare, train-predictor."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator

from .errors import ConfigError, TrainingDiverged
from .harness import (
    POLICIES,
    ExperimentConfig,
    apply_overrides,
    compare_policies,
    make_draft,
    make_target,
    render_comparison,
    run_experiment,
    train_predictor_for,
)
from .predictor import default_exit_layer, save_checkpoint, save_loss_curve


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    payload = {}
    if args.config:
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config {args.config} is not a JSON object")
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.policy is not None:
        payload["policy"] = args.policy
    if args.preset is not None:
        payload["hardware"] = args.preset
    if args.out is not None:
        payload["out_dir"] = args.out
    apply_overrides(payload, args.set or [])
    return ExperimentConfig.from_dict(payload)


@contextmanager
def _writing(path: str) -> Iterator[Path]:
    """The output directory ``path``, made on entry; an ``OSError`` from
    making or writing it is a config error, as for an unreadable config."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
        yield Path(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment JSON file")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--policy", help="override the policy")
    p.add_argument("--preset", help="override the hardware preset")
    p.add_argument("--out", help="output directory")
    p.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override one config key by dotted path (repeatable)",
    )


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    with _writing(cfg.out_dir) if cfg.out_dir else nullcontext():
        report, _ = run_experiment(cfg)   # which writes the report into out_dir
    print(json.dumps(report.aggregate, sort_keys=True, indent=2))
    if cfg.out_dir:
        print(f"report written to {cfg.out_dir}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    policies = args.policies.split(",")
    from dataclasses import replace

    cfgs = [replace(cfg, policy=p.strip()) for p in policies]
    table = compare_policies(cfgs, normalize_to=args.normalize_to)
    print(render_comparison(table))
    if args.out:
        with _writing(args.out) as out:
            (out / "comparison.json").write_text(
                json.dumps(table, sort_keys=True, indent=2) + "\n"
            )
    return 0


def cmd_train_predictor(args: argparse.Namespace) -> int:
    """Refine trial 0's run probe by SGD on its full distillation set."""
    cfg = _load_config(args)
    if cfg.model.type != "layered":
        raise ConfigError("train-predictor requires a layered model config")
    k, vocab = cfg.drafting.k, cfg.model.vocab_size
    if k > vocab:
        raise ConfigError(f"drafting.k={k} exceeds model.vocab_size={vocab}")
    target = make_target(cfg.model, 0)
    layer = default_exit_layer(target.depth)
    trained, curve = train_predictor_for(
        cfg, target, make_draft(cfg, target, 0), layer
    )
    with _writing(args.out or "predictor") as out:
        save_checkpoint(trained, str(out / "predictor.json"))
        save_loss_curve(curve, str(out / "loss_curve.csv"))
    print(
        f"trained predictor: loss {curve[0]:.4f} -> {curve[-1]:.4f} "
        f"after {len(curve) - 1} of {cfg.training.epochs} epochs"
    )
    print(f"checkpoint written to {out / 'predictor.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashspec",
        description="Speculative-decoding experiments on a simulated "
        "flash-backed smartphone target",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare policies on shared settings")
    _add_config_flags(p_cmp)
    p_cmp.add_argument(
        "--policies",
        default=",".join(POLICIES),
        help="comma-separated policy list",
    )
    p_cmp.add_argument("--normalize-to", help="policy used as the 1.0 anchor")
    p_cmp.set_defaults(func=cmd_compare)

    p_train = sub.add_parser("train-predictor", help="refine trial 0's probe by SGD")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train_predictor)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
