"""Deterministic latency model of a DRAM/flash smartphone platform.

All functions are pure pricing over recorded decode traces: the engine runs
at desk speed while the simulator charges each action.  Flash streaming time
per target invocation is shape-independent; verification compute is affine
in the tree shape; draft expansions run serially on the CPU below the
batching threshold and as batches on the NPU above it; output projection is
priced either eagerly for every verified row or on demand along the accepted
path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, ContractError
from .verification import CycleRecord

PRESET_DIR = Path(__file__).parent / "presets"


@dataclass(frozen=True)
class HardwareConfig:
    name: str
    io_ms_per_invocation: float          # flash streaming per target pass
    overlap: str = "max"                 # {"sum", "max"} I/O-compute combining
    compute_c0: float = 0.0              # verify compute = c0 + c_row*|T| + c_leaf*L
    compute_c_row: float = 0.0
    compute_c_leaf: float = 0.0
    proj_ms_per_row: float = 2.0         # eager NPU output projection
    proj_cpu_ms_per_row: float = 3.0     # on-demand CPU output projection
    draft_cpu_ms: float = 2.0            # serial CPU cost per draft expansion
    draft_npu_base: float = 6.0          # batched NPU cost: base + per_item*count
    draft_npu_per_item: float = 0.5
    batch_min: int = 4                   # NPU batching threshold
    dram_resident_frac: float = 0.0      # fraction of target layers kept in DRAM

    def __post_init__(self) -> None:
        if self.overlap not in ("sum", "max"):
            raise ConfigError(f"unknown overlap policy {self.overlap!r}")
        if not (0.0 <= self.dram_resident_frac <= 1.0):
            raise ConfigError("dram_resident_frac must lie in [0, 1]")
        for field_name in (
            "io_ms_per_invocation", "compute_c0", "compute_c_row",
            "compute_c_leaf", "proj_ms_per_row", "proj_cpu_ms_per_row",
            "draft_cpu_ms", "draft_npu_base", "draft_npu_per_item",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be >= 0")

    @property
    def io_effective_ms(self) -> float:
        return (1.0 - self.dram_resident_frac) * self.io_ms_per_invocation

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "HardwareConfig":
        return cls(**payload)


def load_preset(name: str) -> HardwareConfig:
    path = PRESET_DIR / f"{name}.json"
    if not path.exists():
        known = sorted(p.stem for p in PRESET_DIR.glob("*.json"))
        raise ConfigError(f"unknown hardware preset {name!r}; available: {known}")
    return HardwareConfig.from_dict(json.loads(path.read_text()))


def list_presets() -> list[str]:
    return sorted(p.stem for p in PRESET_DIR.glob("*.json"))


def compute_ms(cfg: HardwareConfig, nodes: int, leaves: int) -> float:
    return cfg.compute_c0 + cfg.compute_c_row * nodes + cfg.compute_c_leaf * leaves


def _combine(cfg: HardwareConfig, io: float, compute: float) -> float:
    return max(io, compute) if cfg.overlap == "max" else io + compute


def ar_step_latency(cfg: HardwareConfig) -> float:
    """Single-token flash-backed step: compute plus I/O, never overlapped
    (measured single-token totals are exact sums)."""
    return compute_ms(cfg, 1, 1) + cfg.io_effective_ms


def verify_latency(
    cfg: HardwareConfig, nodes: int, leaves: int, overlap: str | None = None
) -> float:
    """End-to-end verification latency for a tree shape under the configured
    (or overridden) I/O-compute overlap policy."""
    if nodes < 1:
        raise ContractError("nodes must be >= 1")
    combined = replace(cfg, overlap=overlap) if overlap else cfg
    return _combine(combined, cfg.io_effective_ms, compute_ms(cfg, nodes, leaves))


def draft_schedule(expansion_counts: Sequence[int], cfg: HardwareConfig) -> float:
    """Price a construction trace: steps below the batching threshold run
    serially on the CPU, larger steps as one NPU batch."""
    total = 0.0
    for count in expansion_counts:
        if count <= 0:
            continue
        if count < cfg.batch_min:
            total += count * cfg.draft_cpu_ms
        else:
            total += cfg.draft_npu_base + cfg.draft_npu_per_item * count
    return total


def projection_accounting(
    rows_after_prune: int, accepted_len: int, cfg: HardwareConfig
) -> tuple[float, float, int]:
    """(eager ms, on-demand ms, wasted rows) for one cycle's projections.

    Eager mode projects every verified row on the NPU; on-demand projects
    exactly the accepted path plus the fallback position on the CPU.
    """
    used = accepted_len + 1
    if used > rows_after_prune:
        raise ContractError(
            f"accepted_len+1 = {used} exceeds verified rows {rows_after_prune}"
        )
    eager = rows_after_prune * cfg.proj_ms_per_row
    ondemand = used * cfg.proj_cpu_ms_per_row
    return eager, ondemand, rows_after_prune - used


@dataclass(frozen=True)
class CycleCost:
    draft_ms: float
    verify_io_ms: float                  # pre-overlap I/O component
    verify_compute_ms: float             # pre-overlap compute component
    verify_stage_ms: float               # post-overlap I/O+compute
    projection_ms: float
    projections_eager: int
    projections_ondemand: int
    waste_proj_ms: float
    rows_after_prune: int
    tokens: int

    @property
    def total_ms(self) -> float:
        return self.draft_ms + self.verify_stage_ms + self.projection_ms


@dataclass(frozen=True)
class Metrics:
    tokens_per_s: float
    mean_accepted_len: float
    target_calls_per_token: float
    waste_fraction: float
    speedup_vs_flash_ar: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ScheduleTrace:
    cycles: list[CycleCost]

    @property
    def total_ms(self) -> float:
        return sum(c.total_ms for c in self.cycles)

    @property
    def total_tokens(self) -> int:
        return sum(c.tokens for c in self.cycles)

    def totals(self) -> dict[str, float]:
        return {
            "draft_ms": sum(c.draft_ms for c in self.cycles),
            "verify_stage_ms": sum(c.verify_stage_ms for c in self.cycles),
            "projection_ms": sum(c.projection_ms for c in self.cycles),
            "total_ms": self.total_ms,
        }

    def to_json(self) -> str:
        return json.dumps(
            {"cycles": [asdict(c) for c in self.cycles], "totals": self.totals()},
            sort_keys=True,
        )


def price_cycle(
    record: CycleRecord,
    cfg: HardwareConfig,
    projection_mode: str = "ondemand",
) -> CycleCost:
    """Charge one speculative cycle: draft scheduling, overlapped
    verification (split at the early-exit layer when the cycle was pruned),
    and output projection."""
    if projection_mode not in ("eager", "ondemand"):
        raise ConfigError(f"unknown projection mode {projection_mode!r}")
    draft_ms = draft_schedule(record.expansion_counts, cfg)

    full_compute = compute_ms(cfg, record.tree_nodes, record.tree_leaves)
    if record.prune is not None:
        frac = record.prune.exit_fraction
        kept_compute = compute_ms(cfg, record.rows_verified, record.leaves_verified)
        compute = frac * full_compute + (1.0 - frac) * kept_compute
    else:
        compute = compute_ms(cfg, record.rows_verified, record.leaves_verified)

    io = cfg.io_effective_ms
    stage = _combine(cfg, io, compute)

    eager, ondemand, waste_rows = projection_accounting(
        record.rows_verified, record.accepted_len, cfg
    )
    used = record.accepted_len + 1
    if projection_mode == "eager":
        proj, n_eager, n_ondemand = eager, record.rows_verified, 0
        waste_ms = waste_rows * cfg.proj_ms_per_row
    else:
        proj, n_eager, n_ondemand = ondemand, 0, used
        waste_ms = 0.0

    return CycleCost(
        draft_ms=draft_ms,
        verify_io_ms=io,
        verify_compute_ms=compute,
        verify_stage_ms=stage,
        projection_ms=proj,
        projections_eager=n_eager,
        projections_ondemand=n_ondemand,
        waste_proj_ms=waste_ms,
        rows_after_prune=record.rows_verified,
        tokens=len(record.emitted),
    )


def simulate_decode(
    records: Iterable[CycleRecord],
    cfg: HardwareConfig,
    mode: str = "speculative",
    projection_mode: str = "ondemand",
    emitted_tokens: int | None = None,
) -> tuple[ScheduleTrace, Metrics]:
    """Price a decode run and derive throughput metrics.

    ``mode='flash_ar'`` charges each cycle the exact single-token step cost
    (the anchor baseline); ``mode='speculative'`` prices the full pipeline.
    ``emitted_tokens`` caps the token count at the decode horizon when the
    final cycle overshot.
    """
    records = list(records)
    if mode == "flash_ar":
        step = ar_step_latency(cfg)
        cycles = [
            CycleCost(
                draft_ms=0.0,
                verify_io_ms=cfg.io_effective_ms,
                verify_compute_ms=compute_ms(cfg, 1, 1),
                verify_stage_ms=step,
                projection_ms=0.0,
                projections_eager=0,
                projections_ondemand=0,
                waste_proj_ms=0.0,
                rows_after_prune=1,
                tokens=len(r.emitted),
            )
            for r in records
        ]
    elif mode == "speculative":
        cycles = [price_cycle(r, cfg, projection_mode) for r in records]
    else:
        raise ConfigError(f"unknown simulation mode {mode!r}")

    trace = ScheduleTrace(cycles)
    tokens = emitted_tokens if emitted_tokens is not None else trace.total_tokens
    total_s = trace.total_ms / 1000.0
    tokens_per_s = tokens / total_s if total_s > 0 else 0.0

    n_cycles = len(records)
    mean_accepted = (
        sum(r.accepted_len for r in records) / n_cycles if n_cycles else 0.0
    )
    calls_per_token = n_cycles / tokens if tokens else 0.0

    verify_total = sum(c.verify_stage_ms + c.projection_ms for c in cycles)
    waste_total = sum(c.waste_proj_ms for c in cycles)
    waste_fraction = waste_total / verify_total if verify_total > 0 else 0.0

    ar_tokens_per_s = 1000.0 / ar_step_latency(cfg)
    metrics = Metrics(
        tokens_per_s=tokens_per_s,
        mean_accepted_len=mean_accepted,
        target_calls_per_token=calls_per_token,
        waste_fraction=waste_fraction,
        speedup_vs_flash_ar=tokens_per_s / ar_tokens_per_s,
    )
    return trace, metrics


def calibrate_projection(
    cfg: HardwareConfig,
    rows: int,
    used_rows: int,
    waste_ms: float,
    verify_ms: float,
    leaves: int = 4,
) -> HardwareConfig:
    """Fit projection cost and DRAM share to one measured verification row.

    Solves for the per-row eager projection cost that makes ``rows`` rows
    with ``used_rows`` useful ones waste exactly ``waste_ms``, then picks the
    DRAM-resident fraction that lands the whole verification stage (overlap
    plus eager projection) on ``verify_ms``.
    """
    if rows <= used_rows:
        raise ContractError("rows must exceed used_rows")
    per_row = waste_ms / (rows - used_rows)
    stage_ms = verify_ms - rows * per_row
    comp = compute_ms(cfg, rows, leaves)
    if stage_ms < comp:
        raise ConfigError(
            f"target verify time {verify_ms} is below compute {comp} + projection"
        )
    frac = 1.0 - stage_ms / cfg.io_ms_per_invocation
    if not (0.0 <= frac <= 1.0):
        raise ConfigError("calibration requires an out-of-range DRAM fraction")
    return replace(
        cfg, proj_ms_per_row=per_row, dram_resident_frac=frac, overlap="max"
    )
