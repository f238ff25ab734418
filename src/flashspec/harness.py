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
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache, partial
from pathlib import Path
from types import UnionType
from typing import Any, Iterable, Sequence, get_args, get_type_hints

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
    distillation_rows,
    train,
)
from .pruning import PruneConfig, TreePruner
from .simulator import (
    CycleCost,
    HardwareConfig,
    Metrics,
    ScheduleTrace,
    draft_schedule,
    load_preset,
    simulate_decode,
    verify_latency,
)
from .verification import DecodeResult, run_decode

POLICIES = ("flash_ar", "chain_sd", "balanced_tree", "lever", "lever_noprune")
# The run path's probe fit, looked up here by name so that a tracer can wrap it.
fit_probe = EarlyExitPredictor.fit


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
        if self.vocab_size < 1 or self.order < 1:
            raise ConfigError("vocab_size and order must be >= 1")
        if self.seed < 0:
            raise ConfigError("model seed must be >= 0")


@dataclass(frozen=True)
class DraftSpec:
    agreement: float = 0.45
    noise_seed: int = 101
    noise_concentration: float = 0.3

    def __post_init__(self) -> None:
        if self.noise_seed < 0:
            raise ConfigError("draft noise_seed must be >= 0")


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
    projection_mode: str = "ondemand"    # {"eager", "ondemand"}, every policy
    horizon: int = 64
    trials: int = 3
    seed: int = 0
    context_len: int = 8
    chain_length: int = 8
    balanced_fanout: int = 2
    balanced_budget: int = 16
    predictor_examples: int = 2000
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; one of {POLICIES}")
        if self.horizon < 1 or self.trials < 1 or self.context_len < 1:
            raise ConfigError("horizon, trials and context_len must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.predictor_examples < 1:
            raise ConfigError("predictor_examples must be >= 1")
        if self.projection_mode not in ("eager", "ondemand"):
            raise ConfigError(f"unknown projection mode {self.projection_mode!r}")
        # Candidate sets and balanced-tree levels hold distinct tokens.
        vocab = self.model.vocab_size
        if self.policy.startswith("lever") and self.drafting.k > vocab:
            raise ConfigError(f"drafting.k={self.drafting.k} exceeds vocab_size={vocab}")
        if self.policy == "balanced_tree" and self.balanced_fanout > vocab:
            raise ConfigError(
                f"balanced_fanout={self.balanced_fanout} exceeds vocab_size={vocab}"
            )
        # The first level alone would overrun the budget (a budget below 1 is
        # the policy's own error).
        if self.policy == "balanced_tree" and 1 <= self.balanced_budget < self.balanced_fanout:
            raise ConfigError(
                f"balanced_fanout={self.balanced_fanout} exceeds "
                f"balanced_budget={self.balanced_budget}"
            )

    def resolve_hardware(self) -> HardwareConfig:
        if isinstance(self.hardware, HardwareConfig):
            return self.hardware
        return load_preset(self.hardware)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ExperimentConfig":
        """A section given as an object overrides only the keys it names, on
        top of that field's default (an inline hardware has none)."""
        data = dict(payload)
        defaults = cls()
        for key, sub in (
            ("model", ModelSpec),
            ("draft", DraftSpec),
            ("drafting", DraftConfig),
            ("pruning", PruneConfig),
            ("training", TrainConfig),
            ("hardware", HardwareConfig),
        ):
            if key in data and isinstance(data[key], dict):
                base = getattr(defaults, key)
                section = {**asdict(base), **data[key]} if isinstance(base, sub) else data[key]
                data[key] = _from_fields(sub, section, f"{key} config")
        return _from_fields(cls, data, "config")


def _from_fields(cls: type, payload: dict[str, Any], where: str) -> Any:
    """``cls(**payload)``, refusing keys that are not fields of ``cls`` and
    values that do not fit their field's annotation; a missing field or a
    wrongly typed value is a :class:`ConfigError` that names the section
    (and the key, for a value that does not fit)."""
    known = cls.__dataclass_fields__
    unknown = set(payload) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    hints = _field_types(cls)
    for key, value in payload.items():
        if not _fits(hints[key], value):
            raise ConfigError(
                f"invalid {where}: {key}={value!r} is not {known[key].type}"
            )
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@lru_cache(maxsize=None)
def _field_types(cls: type) -> dict[str, Any]:
    """``cls``'s evaluated field annotations, resolved once per class."""
    return get_type_hints(cls)


def _fits(annotation: Any, value: Any) -> bool:
    """Whether ``value`` fits a field annotated ``annotation``: an ``int``
    refuses ``bool`` and ``float``, a ``float`` also takes an ``int``, and
    ``X | Y`` takes whatever fits ``X`` or ``Y``."""
    if isinstance(annotation, UnionType):
        return any(_fits(option, value) for option in get_args(annotation))
    if annotation is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, annotation)


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


# The planning profile's grid: every shape of at most this many nodes and leaves.
PROFILE_MAX_NODES = 96
PROFILE_MAX_LEAVES = 32


@lru_cache(maxsize=8)
def seed_profile(hw: HardwareConfig) -> LatencyProfile:
    """The planning profile on the fixed grid, priced by :func:`verify_latency`
    on ``hw`` as its shapes are looked up, exactly like the simulated timeline
    (the preset's own I/O-compute overlap policy), so planning estimates and
    pricing agree; every trial and policy on one hardware shares it."""
    return LatencyProfile(partial(verify_latency, hw), PROFILE_MAX_NODES, PROFILE_MAX_LEAVES)


def make_pruner(cfg: ExperimentConfig, target: ProbModel) -> TreePruner | None:
    """Lever's pruner for ``target``, or ``None`` where no keep set can
    change a price.

    A layered target prunes with its exit-layer probe, fitted in closed form
    to ``target`` itself, so the probe matches its target by construction.
    Any other target scores with the exact probe, which reads the final
    distribution: its exit fraction is 1.0, so a pruned cycle pays compute
    for the whole tree.  Under on-demand projection, which charges only the
    accepted path, the keep set then reaches no priced number, and no
    pruner is built; under eager projection it saves projected rows.
    """
    if isinstance(target, LayeredTargetModel):
        layer = default_exit_layer(target.depth)
        rows, _ = distillation_rows(
            target, layer, cfg.predictor_examples, cfg.training.seed, target.order
        )
        pred = fit_probe(rows, layer)
        return TreePruner(pred, LayeredHiddenSource(target, layer), cfg.pruning)
    # Models without intermediate layers score with the exact probe:
    # identity weights over log target probabilities.  Its edge scores are
    # renormalized target probabilities, so the verification walk stays on
    # the always-kept backbone: pruning changes no accepted node either.
    if cfg.projection_mode == "ondemand":
        return None
    pred = EarlyExitPredictor.identity_probe(target.vocab_size)
    return TreePruner(pred, ExactProbeSource(target), cfg.pruning)


def train_predictor_for(
    cfg: ExperimentConfig,
    target: LayeredTargetModel,
    draft: ProbModel,
    layer: int,
) -> tuple[EarlyExitPredictor, list[float]]:
    """The run path's probe for ``target`` refined by SGD on the full
    distillation set, and its loss curve."""
    data = build_distillation_dataset(
        target, draft, layer, cfg.predictor_examples, cfg.drafting.k, seed=cfg.training.seed
    )
    return train(EarlyExitPredictor.fit(data, layer), data, cfg.training)


def make_policy(cfg: ExperimentConfig, draft: ProbModel, hw: HardwareConfig):
    if cfg.policy == "flash_ar":
        return RootOnlyPolicy(hw)
    if cfg.policy == "chain_sd":
        return ChainPolicy(draft, hw, cfg.chain_length)
    if cfg.policy == "balanced_tree":
        return BalancedTreePolicy(draft, hw, cfg.balanced_fanout, cfg.balanced_budget)
    # lever plans each expansion at the simulator's price of a one-node step
    return GainCostPolicy(
        draft, cfg.drafting, seed_profile(hw), draft_ms=draft_schedule((1,), hw)
    )


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
    policy = make_policy(cfg, draft, hw)
    pruner = make_pruner(cfg, target) if cfg.policy == "lever" else None

    decode = run_decode(target, context, cfg.horizon, policy, pruner=pruner)
    trace, metrics = simulate_decode(
        decode.cycles,
        hw,
        projection_mode=cfg.projection_mode,
        emitted_tokens=len(decode.tokens),
        exit_fraction=pruner.exit_fraction if pruner is not None else None,
    )
    return TrialResult(trial, cfg.seed + trial, decode.tokens, metrics, trace, decode)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; zero whenever any value is non-positive."""
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


METRIC_FIELDS = tuple(f.name for f in fields(Metrics))
# a trace.json cycle's keys: every CycleCost field
COST_FIELDS = tuple(f.name for f in fields(CycleCost))
# trace.csv columns after trial and cycle: every CycleCost field, then its total
TRACE_FIELDS = (*COST_FIELDS, "total_ms")


@dataclass
class Report:
    config: dict[str, Any]
    config_hash: str
    seeds: list[int]
    trials: list[dict[str, Any]]
    aggregate: dict[str, float]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def write(self, out_dir: str, traces: list[ScheduleTrace] | None = None) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json() + "\n")
        _write_csv(
            out / "report.csv",
            ("trial", "seed", *METRIC_FIELDS),
            ([row["trial"], row["seed"], *(row["metrics"][f] for f in METRIC_FIELDS)]
             for row in self.trials),
        )
        if traces is None:
            return
        _write_trace_json(out / "trace.json", traces)
        _write_csv(
            out / "trace.csv",
            ("trial", "cycle", *TRACE_FIELDS),
            ([trial, i, *(getattr(c, f) for f in TRACE_FIELDS)]
             for trial, trace in enumerate(traces)
             for i, c in enumerate(trace.cycles)),
        )


def _write_trace_json(path: Path, traces: Sequence[ScheduleTrace]) -> None:
    """``{"trials": [...]}`` with each trial's cycles and totals, written one
    trial at a time: the bytes of ``json.dumps(payload, sort_keys=True,
    indent=2)`` plus a newline, while only one trial is held as a dict and a
    string.  A trial's own dump is re-indented by the four spaces of its
    place in the list; JSON strings hold no raw newline, so that is exact."""
    with open(path, "w") as fh:
        fh.write('{\n  "trials": [')
        sep = "\n    "
        for trace in traces:
            trial = {
                "cycles": [{f: getattr(c, f) for f in COST_FIELDS} for c in trace.cycles],
                "totals": trace.totals(),
            }
            fh.write(sep + json.dumps(trial, sort_keys=True, indent=2).replace("\n", "\n    "))
            sep = ",\n    "
        fh.write("\n  ]\n}\n" if traces else "]\n}\n")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """One header line and the rows; floats are written as their ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(cfg: ExperimentConfig) -> tuple[Report, list[TrialResult]]:
    results = [run_trial(cfg, t) for t in range(cfg.trials)]
    trial_rows = [
        {
            "trial": r.trial,
            "seed": r.seed,
            "metrics": asdict(r.metrics),
            "emitted": r.emitted,
            "cycles": len(r.trace.cycles),
        }
        for r in results
    ]
    aggregate = {
        f: geometric_mean([getattr(r.metrics, f) for r in results])
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


SHARED_FIELDS = (
    "model", "draft", "hardware", "projection_mode", "horizon", "trials", "seed", "context_len"
)


def compare_policies(
    cfgs: Sequence[ExperimentConfig], normalize_to: str | None = None
) -> dict[str, Any]:
    """Run several policy configs over identical models/hardware/seeds and
    tabulate their metrics with speedups normalized to one policy."""
    if not cfgs:
        raise ConfigError("need at least one config")
    policies = [cfg.policy for cfg in cfgs]
    if len(set(policies)) < len(policies):
        raise ConfigError(f"policies {policies} repeat a policy; list each once")
    base = cfgs[0].to_dict()
    for cfg in cfgs[1:]:
        other = cfg.to_dict()
        for key in SHARED_FIELDS:
            if other[key] != base[key]:
                raise ConfigError(
                    f"configs disagree on shared field {key!r}; refusing to compare"
                )
    anchor = normalize_to or ("lever" if "lever" in policies else policies[0])
    if anchor not in policies:
        raise ConfigError(f"normalization policy {anchor!r} is not among {policies}")
    rows = {}
    for cfg in cfgs:
        report, _ = run_experiment(replace(cfg, out_dir=None))
        rows[cfg.policy] = report.aggregate
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
