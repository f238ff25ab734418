"""Experiment runner: seeded trials, policy wiring, reports.

An experiment is one JSON document (model, draft quality, policy, hardware
preset, horizon, trials).  Each trial builds fresh seeded models, decodes,
prices the run on the simulated device, and lands in a report that embeds
the config hash and every derived seed, so re-running a report's config
reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .drafting import DraftConfig, LatencyProfile
from .errors import ConfigError
from .models import (
    LayeredTargetModel,
    MixtureDraftModel,
    ProbModel,
    TabularMarkovModel,
    derive_draft,
)
from .policies import (
    BalancedTreePolicy,
    ChainPolicy,
    GainCostPolicy,
    RootOnlyPolicy,
)
from .predictor import (
    EarlyExitPredictor,
    ExactProbeSource,
    LayeredHiddenSource,
    TrainConfig,
    build_distillation_dataset,
    default_exit_layer,
    load_checkpoint,
    train,
)
from .pruning import PruneConfig, TreePruner
from .simulator import (
    HardwareConfig,
    Metrics,
    ScheduleTrace,
    load_preset,
    simulate_decode,
    verify_latency,
)
from .verification import DecodeResult, run_decode

POLICIES = ("flash_ar", "chain_sd", "balanced_tree", "lever", "lever_noprune")


@dataclass(frozen=True)
class ModelSpec:
    type: str = "tabular"                # {"tabular", "layered"}
    vocab_size: int = 32
    order: int = 2
    seed: int = 1
    concentration: float = 0.3           # tabular rows
    depth: int = 6                       # layered only
    hidden_dim: int = 32                 # layered only
    logit_scale: float = 4.0             # layered only

    def __post_init__(self) -> None:
        if self.type not in ("tabular", "layered"):
            raise ConfigError(f"unknown model type {self.type!r}")


@dataclass(frozen=True)
class DraftSpec:
    agreement: float = 0.45
    noise_seed: int = 101
    noise_concentration: float = 0.3


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec = field(default_factory=ModelSpec)
    draft: DraftSpec = field(default_factory=DraftSpec)
    policy: str = "lever"
    drafting: DraftConfig = field(
        default_factory=lambda: DraftConfig(k=4, max_depth=5, b_min=0.01, max_nodes=64)
    )
    pruning: PruneConfig = field(default_factory=PruneConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    hardware: str | HardwareConfig = "llama31-8b"
    projection_mode: str | None = None   # default: ondemand for lever*, else eager
    horizon: int = 64
    trials: int = 3
    seed: int = 0
    context_len: int = 8
    chain_length: int = 8
    balanced_fanout: int = 2
    balanced_budget: int = 16
    profile_max_nodes: int = 96
    profile_max_leaves: int = 32
    predictor_checkpoint: str | None = None
    predictor_examples: int = 2000
    surrogate_exit_fraction: float = 0.5
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; one of {POLICIES}")
        if self.horizon < 1 or self.trials < 1 or self.context_len < 1:
            raise ConfigError("horizon, trials and context_len must be >= 1")

    def resolve_hardware(self) -> HardwareConfig:
        if isinstance(self.hardware, HardwareConfig):
            return self.hardware
        return load_preset(self.hardware)

    def resolved_projection_mode(self) -> str:
        if self.projection_mode is not None:
            return self.projection_mode
        return "ondemand" if self.policy.startswith("lever") else "eager"

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        if isinstance(self.hardware, HardwareConfig):
            out["hardware"] = self.hardware.to_dict()
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ExperimentConfig":
        data = dict(payload)
        for key, sub in (
            ("model", ModelSpec),
            ("draft", DraftSpec),
            ("drafting", DraftConfig),
            ("pruning", PruneConfig),
            ("training", TrainConfig),
        ):
            if key in data and isinstance(data[key], dict):
                data[key] = sub(**data[key])
        hw = data.get("hardware")
        if isinstance(hw, dict):
            data["hardware"] = HardwareConfig.from_dict(hw)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def apply_overrides(cfg_dict: dict[str, Any], overrides: Sequence[str]) -> dict[str, Any]:
    """Apply ``dotted.path=value`` overrides onto a config dictionary.

    Values parse as JSON when possible, falling back to raw strings.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg_dict
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object")
        node[keys[-1]] = value
    return cfg_dict


# ---------------------------------------------------------------------------
# Trial wiring
# ---------------------------------------------------------------------------


def make_target(spec: ModelSpec, trial: int) -> ProbModel:
    seed = spec.seed + trial
    if spec.type == "tabular":
        return TabularMarkovModel(
            spec.vocab_size, spec.order, seed, concentration=spec.concentration
        )
    return LayeredTargetModel(
        spec.vocab_size,
        spec.order,
        spec.depth,
        spec.hidden_dim,
        seed,
        logit_scale=spec.logit_scale,
    )


def make_draft(cfg: ExperimentConfig, target: ProbModel, trial: int) -> MixtureDraftModel:
    return derive_draft(
        target,
        cfg.draft.agreement,
        cfg.draft.noise_seed + trial,
        noise_concentration=cfg.draft.noise_concentration,
    )


def make_context(cfg: ExperimentConfig, trial: int) -> list[int]:
    rng = np.random.default_rng([cfg.seed, trial])
    return rng.integers(0, cfg.model.vocab_size, size=cfg.context_len).tolist()


def seed_profile(cfg: ExperimentConfig, hw: HardwareConfig) -> LatencyProfile:
    """Offline profile seed over a dense shape grid, priced exactly like the
    simulated timeline (the preset's own I/O-compute overlap policy), so
    planning estimates and pricing agree.

    The grid is priced once per (hardware, grid size); each call returns a
    private copy, because decoding folds measurements into its profile."""
    return priced_grid(hw, cfg.profile_max_nodes, cfg.profile_max_leaves).copy()


@lru_cache(maxsize=8)
def priced_grid(hw: HardwareConfig, max_nodes: int, max_leaves: int) -> LatencyProfile:
    """The dense profile grid priced by :func:`verify_latency` on ``hw``.
    Cached and shared: callers must copy it before changing it."""
    return LatencyProfile.grid(partial(verify_latency, hw), max_nodes, max_leaves)


def make_pruner(
    cfg: ExperimentConfig, target: ProbModel, draft: ProbModel, trial: int
) -> TreePruner:
    if isinstance(target, LayeredTargetModel):
        layer = default_exit_layer(target.depth)
        if cfg.predictor_checkpoint:
            if trial != 0:
                raise ConfigError(
                    f"predictor checkpoint {cfg.predictor_checkpoint} fits trial 0's "
                    f"target (seed model.seed + 0) only; trial {trial}'s target has "
                    f"seed model.seed + {trial}, so run one trial or train per trial"
                )
            pred = load_checkpoint(cfg.predictor_checkpoint)
            got = (pred.vocab_size, pred.hidden_dim, pred.layer)
            want = (target.vocab_size, target.hidden_dim, layer)
            if got != want:
                raise ConfigError(
                    f"predictor checkpoint {cfg.predictor_checkpoint} has "
                    f"(vocab_size, hidden_dim, layer) = {got}; the target needs {want}"
                )
        else:
            pred, _curve = train_predictor_for(cfg, target, draft, layer)
        source = LayeredHiddenSource(target, layer)
        return TreePruner(pred, source, cfg.pruning)
    # Models without intermediate layers score with the exact probe:
    # identity weights over log target probabilities.
    pred = EarlyExitPredictor.identity_probe(target.vocab_size)
    source = ExactProbeSource(target, cfg.surrogate_exit_fraction)
    return TreePruner(pred, source, cfg.pruning)


def train_predictor_for(
    cfg: ExperimentConfig,
    target: LayeredTargetModel,
    draft: ProbModel,
    layer: int,
) -> tuple[EarlyExitPredictor, list[float]]:
    """Probe for ``target`` trained from zero weights, and its loss curve."""
    dataset = build_distillation_dataset(
        target,
        draft,
        layer,
        cfg.predictor_examples,
        cfg.drafting.k,
        seed=cfg.training.seed,
    )
    pred = EarlyExitPredictor.zeros(target.vocab_size, target.hidden_dim, layer)
    return train(pred, dataset, cfg.training)


def make_policy(cfg: ExperimentConfig, draft: ProbModel, hw: HardwareConfig):
    if cfg.policy == "flash_ar":
        return RootOnlyPolicy()
    if cfg.policy == "chain_sd":
        return ChainPolicy(draft, cfg.chain_length, draft_ms=hw.draft_cpu_ms)
    if cfg.policy == "balanced_tree":
        return BalancedTreePolicy(
            draft, cfg.balanced_fanout, cfg.balanced_budget, draft_ms=hw.draft_cpu_ms
        )
    timer = lambda count: hw.draft_cpu_ms * count  # noqa: E731
    return GainCostPolicy(draft, cfg.drafting, draft_timer=timer, name=cfg.policy)


@dataclass
class TrialResult:
    trial: int
    seed: int
    emitted: list[int]
    metrics: Metrics
    trace: ScheduleTrace
    decode: DecodeResult


def run_trial(cfg: ExperimentConfig, trial: int) -> TrialResult:
    hw = cfg.resolve_hardware()
    target = make_target(cfg.model, trial)
    draft = make_draft(cfg, target, trial)
    context = make_context(cfg, trial)
    profile = seed_profile(cfg, hw)
    rel = cfg.drafting.reliability()
    policy = make_policy(cfg, draft, hw)
    pruner = make_pruner(cfg, target, draft, trial) if cfg.policy == "lever" else None

    pricer = lambda shape: verify_latency(hw, shape[0], shape[1])  # noqa: E731
    decode = run_decode(
        target,
        context,
        cfg.horizon,
        policy,
        rel,
        profile,
        pruner=pruner,
        verify_pricer=pricer,
    )
    mode = "flash_ar" if cfg.policy == "flash_ar" else "speculative"
    trace, metrics = simulate_decode(
        decode.cycles,
        hw,
        mode=mode,
        projection_mode=cfg.resolved_projection_mode(),
        emitted_tokens=len(decode.tokens),
    )
    return TrialResult(trial, cfg.seed + trial, decode.tokens, metrics, trace, decode)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; zero whenever any value is non-positive."""
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


METRIC_FIELDS = (
    "tokens_per_s",
    "mean_accepted_len",
    "target_calls_per_token",
    "waste_fraction",
    "speedup_vs_flash_ar",
)


@dataclass
class Report:
    config: dict[str, Any]
    config_hash: str
    seeds: list[int]
    trials: list[dict[str, Any]]
    aggregate: dict[str, float]

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "config_hash": self.config_hash,
                "seeds": self.seeds,
                "trials": self.trials,
                "aggregate": self.aggregate,
            },
            sort_keys=True,
            indent=2,
        )

    def write(self, out_dir: str, traces: list[ScheduleTrace] | None = None) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json() + "\n")
        with open(out / "report.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "seed", *METRIC_FIELDS])
            for row in self.trials:
                writer.writerow(
                    [row["trial"], row["seed"]]
                    + [repr(row["metrics"][f]) for f in METRIC_FIELDS]
                )
        if traces is not None:
            trace_payload = {
                "trials": [json.loads(trace.to_json()) for trace in traces]
            }
            (out / "trace.json").write_text(
                json.dumps(trace_payload, sort_keys=True, indent=2) + "\n"
            )
            with open(out / "trace.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    [
                        "trial", "cycle", "draft_ms", "verify_io_ms",
                        "verify_compute_ms", "verify_stage_ms", "projection_ms",
                        "projections_eager", "projections_ondemand",
                        "waste_proj_ms", "rows_after_prune", "tokens", "total_ms",
                    ]
                )
                for trial, trace in enumerate(traces):
                    for i, c in enumerate(trace.cycles):
                        writer.writerow(
                            [
                                trial, i, repr(c.draft_ms), repr(c.verify_io_ms),
                                repr(c.verify_compute_ms), repr(c.verify_stage_ms),
                                repr(c.projection_ms), c.projections_eager,
                                c.projections_ondemand, repr(c.waste_proj_ms),
                                c.rows_after_prune, c.tokens, repr(c.total_ms),
                            ]
                        )


def run_experiment(cfg: ExperimentConfig) -> tuple[Report, list[TrialResult]]:
    results = [run_trial(cfg, t) for t in range(cfg.trials)]
    trial_rows = [
        {
            "trial": r.trial,
            "seed": r.seed,
            "metrics": r.metrics.to_dict(),
            "emitted": r.emitted,
            "cycles": len(r.trace.cycles),
        }
        for r in results
    ]
    aggregate = {
        f: geometric_mean([r.metrics.to_dict()[f] for r in results])
        for f in METRIC_FIELDS
    }
    report = Report(
        config=cfg.to_dict(),
        config_hash=config_hash(cfg),
        seeds=[r.seed for r in results],
        trials=trial_rows,
        aggregate=aggregate,
    )
    if cfg.out_dir:
        report.write(cfg.out_dir, traces=[r.trace for r in results])
    return report, results


SHARED_FIELDS = ("model", "draft", "hardware", "horizon", "trials", "seed", "context_len")


def compare_policies(
    cfgs: Sequence[ExperimentConfig], normalize_to: str | None = None
) -> dict[str, Any]:
    """Run several policy configs over identical models/hardware/seeds and
    tabulate their metrics with speedups normalized to one policy."""
    if not cfgs:
        raise ConfigError("need at least one config")
    base = cfgs[0].to_dict()
    for cfg in cfgs[1:]:
        other = cfg.to_dict()
        for key in SHARED_FIELDS:
            if other[key] != base[key]:
                raise ConfigError(
                    f"configs disagree on shared field {key!r}; refusing to compare"
                )
    rows = {}
    for cfg in cfgs:
        report, _ = run_experiment(replace(cfg, out_dir=None))
        rows[cfg.policy] = report.aggregate
    anchor = normalize_to or ("lever" if "lever" in rows else cfgs[0].policy)
    if anchor not in rows:
        raise ConfigError(f"normalization policy {anchor!r} was not run")
    anchor_tps = rows[anchor]["tokens_per_s"]
    table = {
        policy: {
            **agg,
            "normalized_tokens_per_s": (
                agg["tokens_per_s"] / anchor_tps if anchor_tps > 0 else 0.0
            ),
        }
        for policy, agg in rows.items()
    }
    return {"normalized_to": anchor, "policies": table}


def render_comparison(table: dict[str, Any]) -> str:
    header = (
        f"{'policy':<14} {'tok/s':>9} {'accept':>7} {'calls/tok':>10} "
        f"{'speedup':>8} {'norm':>7}"
    )
    lines = [header, "-" * len(header)]
    for policy, agg in table["policies"].items():
        lines.append(
            f"{policy:<14} {agg['tokens_per_s']:>9.4f} "
            f"{agg['mean_accepted_len']:>7.3f} "
            f"{agg['target_calls_per_token']:>10.4f} "
            f"{agg['speedup_vs_flash_ar']:>8.3f} "
            f"{agg['normalized_tokens_per_s']:>7.3f}"
        )
    lines.append(f"(normalized to {table['normalized_to']})")
    return "\n".join(lines)
