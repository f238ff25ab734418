"""Command-line entry points: run, compare, train-predictor, profile."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .drafting import LatencyProfile
from .errors import ConfigError, TrainingDiverged
from .harness import (
    ExperimentConfig,
    apply_overrides,
    compare_policies,
    make_draft,
    make_target,
    priced_grid,
    render_comparison,
    run_experiment,
    train_predictor_for,
)
from .predictor import default_exit_layer, save_checkpoint, save_loss_curve
from .simulator import list_presets, load_preset


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    payload = {}
    if args.config:
        with open(args.config) as fh:
            payload = json.load(fh)
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
    report, _ = run_experiment(cfg)
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.json").write_text(
            json.dumps(table, sort_keys=True, indent=2) + "\n"
        )
    return 0


def cmd_train_predictor(args: argparse.Namespace) -> int:
    """Train the probe that ``run`` would train for trial 0 of the config."""
    cfg = _load_config(args)
    if cfg.model.type != "layered":
        raise ConfigError("train-predictor requires a layered model config")
    target = make_target(cfg.model, 0)
    layer = default_exit_layer(target.depth)
    trained, curve = train_predictor_for(
        cfg, target, make_draft(cfg, target, 0), layer
    )
    out = Path(args.out or "predictor")
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(trained, str(out / "predictor.json"))
    save_loss_curve(curve, str(out / "loss_curve.csv"))
    print(f"trained predictor: loss {curve[0]:.4f} -> {curve[-1]:.4f}")
    print(f"checkpoint written to {out / 'predictor.json'}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.action == "build":
        hw = load_preset(args.preset or "llama31-8b")
        profile = priced_grid(hw, args.max_nodes, args.max_leaves)
        profile.save(args.out or "profile.json")
        print(f"{len(profile)} entries written to {args.out or 'profile.json'}")
        return 0
    profile = LatencyProfile.load(args.path)
    print(f"penalty: {profile.penalty}")
    for (nodes, leaves), ms in sorted(profile.entries().items()):
        print(f"  nodes={nodes:<4d} leaves={leaves:<4d} {ms:.3f} ms")
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
        default="flash_ar,chain_sd,balanced_tree,lever,lever_noprune",
        help="comma-separated policy list",
    )
    p_cmp.add_argument("--normalize-to", help="policy used as the 1.0 anchor")
    p_cmp.set_defaults(func=cmd_compare)

    p_train = sub.add_parser("train-predictor", help="train an early-exit probe")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train_predictor)

    p_prof = sub.add_parser("profile", help="build or inspect latency profiles")
    prof_sub = p_prof.add_subparsers(dest="action", required=True)
    p_build = prof_sub.add_parser("build", help="seed a profile from a preset")
    p_build.add_argument("--preset", choices=list_presets())
    p_build.add_argument(
        "--max-nodes", type=int, default=ExperimentConfig.profile_max_nodes
    )
    p_build.add_argument(
        "--max-leaves", type=int, default=ExperimentConfig.profile_max_leaves
    )
    p_build.add_argument("--out")
    p_build.set_defaults(func=cmd_profile)
    p_show = prof_sub.add_parser("show", help="print a profile file")
    p_show.add_argument("path")
    p_show.set_defaults(func=cmd_profile)

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
