"""Deterministic latency model of a DRAM/flash smartphone platform.

All functions are pure pricing over recorded decode traces: the engine runs
at desk speed while the simulator charges each action.  Flash streaming time
per target invocation is shape-independent; verification compute is affine
in the tree shape; draft expansions run serially on the CPU below the
batching threshold and as batches on the NPU above it.

Output projection is priced in the configured mode only.  Eager charges
every verified row at ``proj_ms_per_row`` on the NPU and wastes the rows
beyond the accepted path plus its fallback, ``accepted_len + 1``; on demand
charges just those rows at ``proj_cpu_ms_per_row`` on the CPU and wastes
nothing.  An ``accepted_len + 1`` above the verified rows is a ContractError.

:func:`price_cycle` prices a cycle from its record alone, whichever policy
produced it.  A cycle that drafted nothing is an autoregressive step.  A
pruned cycle pays the early-exit scoring pass over the full tree for the
trial's exit fraction of the target's depth, and the kept rows for the
rest.  Each priced cycle is one :class:`CycleCost`, whose fields lead the
per-cycle columns of a report's trace files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cache
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
            # NaN fails the comparison as well
            if not 0 <= getattr(self, field_name) < math.inf:
                raise ConfigError(f"{field_name} must be finite and >= 0")
        # every coefficient is >= 0, so this also makes each verify latency > 0
        step = ar_step_latency(self)
        if step <= 0:
            raise ConfigError("a single-token step must take positive time, not 0 ms")
        if step == math.inf:
            raise ConfigError("a single-token step must take finite time, not inf ms")

    @property
    def io_effective_ms(self) -> float:
        return (1.0 - self.dram_resident_frac) * self.io_ms_per_invocation

    def to_dict(self) -> dict:
        return asdict(self)


@cache
def load_preset(name: str) -> HardwareConfig:
    """The named preset, read and parsed once per process (the config is
    frozen, so every caller can share it).  A name is the stem of a file in
    :data:`PRESET_DIR`, never a path; any other name raises on every call:
    a raised call is not memoized."""
    known = sorted(p.stem for p in PRESET_DIR.glob("*.json"))
    if name not in known:
        raise ConfigError(f"unknown hardware preset {name!r}; available: {known}")
    return HardwareConfig(**json.loads((PRESET_DIR / f"{name}.json").read_text()))


def compute_ms(cfg: HardwareConfig, nodes: int, leaves: int) -> float:
    return cfg.compute_c0 + cfg.compute_c_row * nodes + cfg.compute_c_leaf * leaves


def _combine(cfg: HardwareConfig, io: float, compute: float) -> float:
    return max(io, compute) if cfg.overlap == "max" else io + compute


def ar_step_latency(cfg: HardwareConfig) -> float:
    """Single-token flash-backed step: compute plus I/O, never overlapped
    (measured single-token totals are exact sums)."""
    return compute_ms(cfg, 1, 1) + cfg.io_effective_ms


def verify_latency(cfg: HardwareConfig, nodes: int, leaves: int) -> float:
    """End-to-end verification latency for a tree shape under the configured
    I/O-compute overlap policy."""
    if nodes < 1:
        raise ContractError("nodes must be >= 1")
    return _combine(cfg, cfg.io_effective_ms, compute_ms(cfg, nodes, leaves))


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


@dataclass(frozen=True, slots=True)
class CycleCost:
    """One priced cycle: what :func:`price_cycle` charges, and the leading
    per-cycle trace columns."""

    draft_ms: float
    verify_io_ms: float                  # pre-overlap I/O component
    verify_compute_ms: float             # pre-overlap compute component
    verify_stage_ms: float               # post-overlap I/O+compute
    projection_ms: float
    projections_eager: int
    projections_ondemand: int
    waste_proj_ms: float

    @property
    def total_ms(self) -> float:
        return self.draft_ms + self.verify_stage_ms + self.projection_ms


@dataclass(frozen=True, slots=True)
class Metrics:
    tokens_per_s: float
    mean_accepted_len: float
    target_calls_per_token: float
    waste_fraction: float
    speedup_vs_flash_ar: float


@dataclass
class ScheduleTrace:
    cycles: list[CycleCost]
    records: list[CycleRecord]           # what each cost priced, in order

    @property
    def total_ms(self) -> float:
        return sum(c.total_ms for c in self.cycles)

    def totals(self) -> dict[str, float]:
        return {
            "draft_ms": sum(c.draft_ms for c in self.cycles),
            "verify_stage_ms": sum(c.verify_stage_ms for c in self.cycles),
            "projection_ms": sum(c.projection_ms for c in self.cycles),
            "total_ms": self.total_ms,
        }


def price_cycle(
    record: CycleRecord,
    cfg: HardwareConfig,
    projection_mode: str = "ondemand",
    exit_fraction: float | None = None,
) -> CycleCost:
    """Charge one cycle from what it did; the only place a cycle is priced.

    A cycle that drafted nothing is an autoregressive step at
    :func:`ar_step_latency`, with no projection.  Any other cycle pays draft
    scheduling, overlapped verification (split at ``exit_fraction`` of the
    target's depth when pruned) and projection in the configured mode.  Of
    ``rows`` verified, ``used = accepted_len + 1`` (more is a ContractError):
    eager charges ``rows`` and wastes ``rows - used`` at ``proj_ms_per_row``;
    on demand charges ``used`` at ``proj_cpu_ms_per_row`` and wastes none."""
    if projection_mode not in ("eager", "ondemand"):
        raise ConfigError(f"unknown projection mode {projection_mode!r}")
    rows = record.rows_verified
    used = record.accepted_len + 1
    io = cfg.io_effective_ms
    if not record.expansion_counts:
        draft, compute, stage = 0.0, compute_ms(cfg, 1, 1), ar_step_latency(cfg)
        proj, n_eager, n_ondemand, waste = 0.0, 0, 0, 0.0
    else:
        draft = draft_schedule(record.expansion_counts, cfg)
        compute = compute_ms(cfg, rows, record.leaves_verified)
        if record.prune is not None:
            if exit_fraction is None:
                raise ContractError("a pruned cycle is priced with an exit fraction")
            full_compute = compute_ms(cfg, record.tree_nodes, record.tree_leaves)
            compute = exit_fraction * full_compute + (1.0 - exit_fraction) * compute
        stage = _combine(cfg, io, compute)
        if used > rows:
            raise ContractError(f"accepted_len+1 = {used} exceeds verified rows {rows}")
        if projection_mode == "eager":
            proj, n_eager, n_ondemand = rows * cfg.proj_ms_per_row, rows, 0
            waste = (rows - used) * cfg.proj_ms_per_row
        else:
            proj, n_eager, n_ondemand = used * cfg.proj_cpu_ms_per_row, 0, used
            waste = 0.0
    return CycleCost(
        draft_ms=draft,
        verify_io_ms=io,
        verify_compute_ms=compute,
        verify_stage_ms=stage,
        projection_ms=proj,
        projections_eager=n_eager,
        projections_ondemand=n_ondemand,
        waste_proj_ms=waste,
    )


def simulate_decode(
    records: Iterable[CycleRecord],
    cfg: HardwareConfig,
    projection_mode: str = "ondemand",
    emitted_tokens: int | None = None,
    exit_fraction: float | None = None,
) -> tuple[ScheduleTrace, Metrics]:
    """Price a decode run cycle by cycle with :func:`price_cycle`, pruned
    cycles at the pruner's ``exit_fraction``, and derive throughput
    metrics.  ``emitted_tokens`` caps the token count at the decode horizon
    when the final cycle overshot.
    """
    records = list(records)
    cycles = [price_cycle(r, cfg, projection_mode, exit_fraction) for r in records]

    trace = ScheduleTrace(cycles, records)
    tokens = emitted_tokens if emitted_tokens is not None else sum(len(r.emitted) for r in records)
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
