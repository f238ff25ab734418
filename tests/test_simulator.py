import dataclasses

import pytest

from flashspec.errors import ConfigError, ContractError
from flashspec.simulator import (
    PRESET_DIR,
    HardwareConfig,
    ar_step_latency,
    compute_ms,
    draft_schedule,
    load_preset,
    price_cycle,
    simulate_decode,
    verify_latency,
)
from flashspec.pruning import PruneDecision
from flashspec.verification import CycleRecord
from helpers import calibrate_projection

# Measured single-token totals per device preset (compute + I/O).
ANCHORS = {
    "llama31-8b": 1083.8,
    "qwen3-4b": 605.9,
    "qwen3-8b": 1050.0,
    "qwen3-14b": 2108.3,
}


def cycle(
    nodes=8,
    leaves=3,
    accepted=2,
    counts=(1, 1, 1),
    prune=None,
    tokens=None,
):
    emitted = tuple(range(accepted + 1)) if tokens is None else tokens
    return CycleRecord(
        tree_nodes=nodes,
        tree_leaves=leaves,
        emitted=emitted,
        expansion_counts=tuple(counts),
        prune=prune,
        gain_estimate=1.0,
    )


class TestArStepLatency:
    def test_all_presets_match_measured_totals(self):
        assert set(ANCHORS) <= {p.stem for p in PRESET_DIR.glob("*.json")}
        for name, total in ANCHORS.items():
            cfg = load_preset(name)
            assert ar_step_latency(cfg) == pytest.approx(total, rel=1e-9)

    def test_fully_dram_resident_leaves_compute_only(self):
        cfg = dataclasses.replace(load_preset("llama31-8b"), dram_resident_frac=1.0)
        assert ar_step_latency(cfg) == pytest.approx(93.2, rel=1e-9)


class TestVerifyLatency:
    def test_single_row_sum_equals_ar_step(self):
        for name in ANCHORS:
            cfg = dataclasses.replace(load_preset(name), overlap="sum")
            assert verify_latency(cfg, 1, 1) == pytest.approx(
                ar_step_latency(cfg), rel=1e-12
            )

    def test_max_rule(self):
        cfg = HardwareConfig(
            name="t", io_ms_per_invocation=990.6, overlap="max", compute_c0=400.0
        )
        assert verify_latency(cfg, 1, 1) == pytest.approx(990.6)

    def test_affine_growth_under_sum(self):
        cfg = dataclasses.replace(load_preset("llama31-8b"), overlap="sum")
        l32 = verify_latency(cfg, 32, 9)
        l16 = verify_latency(cfg, 16, 5)
        expect = 16 * cfg.compute_c_row + 4 * cfg.compute_c_leaf
        assert l32 - l16 == pytest.approx(expect, rel=1e-9)

    def test_doubling_compute_anchor(self):
        # preset coefficients price a 32-row, 8-leaf batch at ~2x one token
        cfg = load_preset("llama31-8b")
        assert compute_ms(cfg, 32, 8) == pytest.approx(2 * 93.2, rel=1e-6)


class TestDraftSchedule:
    def test_all_cpu_below_threshold(self):
        cfg = HardwareConfig(name="t", io_ms_per_invocation=1.0, batch_min=4)
        assert draft_schedule([1, 1, 1], cfg) == pytest.approx(3 * cfg.draft_cpu_ms)

    def test_single_npu_batch(self):
        cfg = HardwareConfig(name="t", io_ms_per_invocation=1.0, batch_min=4)
        assert draft_schedule([6], cfg) == pytest.approx(
            cfg.draft_npu_base + 6 * cfg.draft_npu_per_item
        )

    def test_mixed_trace_matches_case_analysis(self):
        cfg = HardwareConfig(
            name="t", io_ms_per_invocation=1.0, batch_min=3,
            draft_cpu_ms=1.5, draft_npu_base=4.0, draft_npu_per_item=0.25,
        )
        counts = [1, 2, 3, 7, 1, 4]
        expect = 0.0
        for c in counts:
            if c < 3:
                expect += c * 1.5
            else:
                expect += 4.0 + 0.25 * c
        assert draft_schedule(counts, cfg) == pytest.approx(expect)

    def test_zero_counts_free(self):
        cfg = HardwareConfig(name="t", io_ms_per_invocation=1.0)
        assert draft_schedule([], cfg) == 0.0
        assert draft_schedule([0], cfg) == 0.0


class TestProjectionAccounting:
    def test_row_counting(self):
        cfg = HardwareConfig(
            name="t", io_ms_per_invocation=1.0,
            proj_ms_per_row=2.0, proj_cpu_ms_per_row=3.0,
        )
        rec = cycle(nodes=16, accepted=3)
        eager = price_cycle(rec, cfg, "eager")
        assert eager.projection_ms == pytest.approx(32.0)
        assert eager.projections_eager == 16
        assert eager.waste_proj_ms == pytest.approx(12 * 2.0)
        ondemand = price_cycle(rec, cfg, "ondemand")
        assert ondemand.projection_ms == pytest.approx(12.0)
        assert ondemand.projections_ondemand == 4

    def test_full_acceptance_wastes_nothing(self):
        cfg = HardwareConfig(name="t", io_ms_per_invocation=1.0)
        cost = price_cycle(cycle(nodes=8, accepted=7), cfg, "eager")
        assert cost.waste_proj_ms == 0

    def test_precondition(self):
        cfg = HardwareConfig(name="t", io_ms_per_invocation=1.0)
        for mode in ("eager", "ondemand"):
            with pytest.raises(ContractError):
                price_cycle(cycle(nodes=4, accepted=4), cfg, mode)


class TestCalibratedWaste:
    def test_reproduces_measured_waste_fraction(self):
        # 16-row budget with 3 accepted tokens per cycle: 188 of 828 ms wasted
        base = load_preset("llama31-8b")
        cfg = calibrate_projection(
            base, rows=16, used_rows=4, waste_ms=188.0, verify_ms=828.0
        )
        records = [cycle(nodes=16, leaves=4, accepted=3, counts=(1, 1, 1)) for _ in range(20)]
        _, metrics = simulate_decode(records, cfg, projection_mode="eager")
        assert metrics.waste_fraction == pytest.approx(188.0 / 828.0, abs=0.01)
        assert abs(metrics.waste_fraction - 0.227) < 0.01

    def test_ondemand_mode_projects_accepted_plus_one(self):
        cfg = load_preset("llama31-8b")
        records = [cycle(nodes=12, accepted=a) for a in (0, 2, 5)]
        trace, metrics = simulate_decode(records, cfg, projection_mode="ondemand")
        for rec, cost in zip(records, trace.cycles):
            assert cost.projections_ondemand == rec.accepted_len + 1
            assert cost.projections_eager == 0
        assert metrics.waste_fraction == 0.0


class TestSimulateDecode:
    def test_flash_ar_reciprocal_of_step_latency(self):
        cfg = load_preset("llama31-8b")
        records = [cycle(nodes=1, leaves=1, accepted=0, counts=(), tokens=(3,))] * 50
        _, metrics = simulate_decode(records, cfg)
        assert metrics.tokens_per_s == pytest.approx(1000.0 / 1083.8, rel=1e-9)
        assert metrics.speedup_vs_flash_ar == pytest.approx(1.0, rel=1e-9)

    def test_doubling_io_strictly_slows(self):
        cfg = load_preset("llama31-8b")
        slow = dataclasses.replace(cfg, io_ms_per_invocation=2 * cfg.io_ms_per_invocation)
        records = [cycle() for _ in range(10)]
        _, fast_m = simulate_decode(records, cfg)
        _, slow_m = simulate_decode(records, slow)
        assert slow_m.tokens_per_s < fast_m.tokens_per_s

    def test_compute_coefficient_monotonicity(self):
        cfg = dataclasses.replace(load_preset("llama31-8b"), overlap="sum")
        records = [cycle() for _ in range(10)]
        _, base_m = simulate_decode(records, cfg)
        for field in ("compute_c0", "compute_c_row", "compute_c_leaf"):
            bumped = dataclasses.replace(cfg, **{field: getattr(cfg, field) * 2})
            _, m = simulate_decode(records, bumped)
            assert m.tokens_per_s <= base_m.tokens_per_s

    def test_trace_conservation(self):
        cfg = load_preset("qwen3-8b")
        records = [cycle(nodes=n, accepted=n % 3, leaves=2) for n in range(4, 14)]
        trace, _ = simulate_decode(records, cfg, projection_mode="eager")
        for c in trace.cycles:
            assert c.total_ms == pytest.approx(
                c.draft_ms + c.verify_stage_ms + c.projection_ms, rel=1e-12
            )
        assert trace.total_ms == pytest.approx(
            sum(c.total_ms for c in trace.cycles), rel=1e-12
        )
        totals = trace.totals()
        assert totals["total_ms"] == pytest.approx(
            totals["draft_ms"] + totals["verify_stage_ms"] + totals["projection_ms"],
            rel=1e-12,
        )

    def test_pruned_cycle_prices_split_compute(self):
        cfg = dataclasses.replace(load_preset("llama31-8b"), overlap="sum")
        decision = PruneDecision(keep=frozenset(range(10)), backbone=(0,), leaves=6)
        rec = cycle(nodes=20, leaves=6, accepted=2, prune=decision)
        assert (rec.rows_verified, rec.leaves_verified) == (10, 6)
        cost = price_cycle(rec, cfg, "ondemand", exit_fraction=0.5)
        expect = 0.5 * compute_ms(cfg, 20, 6) + 0.5 * compute_ms(cfg, 10, 6)
        assert cost.verify_compute_ms == pytest.approx(expect, rel=1e-12)
        trace, _ = simulate_decode([rec], cfg, exit_fraction=0.5)
        assert trace.cycles == [cost]
        # the split needs the pruner's exit fraction
        for price in (
            lambda: price_cycle(rec, cfg, "ondemand"),
            lambda: simulate_decode([rec], cfg),
        ):
            with pytest.raises(ContractError, match="exit fraction"):
                price()

    def test_emitted_token_cap(self):
        cfg = load_preset("llama31-8b")
        records = [cycle(accepted=3) for _ in range(4)]  # 16 raw tokens
        _, metrics = simulate_decode(records, cfg, emitted_tokens=10)
        _, uncapped = simulate_decode(records, cfg)
        assert metrics.tokens_per_s < uncapped.tokens_per_s

    @pytest.mark.parametrize("projection_mode", ["eager", "ondemand"])
    def test_a_cycle_that_drafted_nothing_is_an_ar_step(self, projection_mode):
        cfg = load_preset("llama31-8b")
        record = cycle(nodes=1, leaves=1, accepted=0, counts=())
        ar = price_cycle(record, cfg, projection_mode)
        assert ar.total_ms == ar_step_latency(cfg)
        assert (ar.draft_ms, ar.projection_ms, record.rows_verified) == (0.0, 0.0, 1)
        assert ar.verify_io_ms + ar.verify_compute_ms == ar_step_latency(cfg)
        # one drafted node is a speculative cycle, priced by its stages
        record = cycle(nodes=2, leaves=1, accepted=0, counts=(1,))
        drafted = price_cycle(record, cfg, projection_mode)
        assert drafted.draft_ms == cfg.draft_cpu_ms
        assert drafted.total_ms != ar_step_latency(cfg)


class TestHardwareConfig:
    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(ConfigError, match="llama31-8b"):
            load_preset("nokia-3310")

    @pytest.mark.parametrize("relative", [True, False])
    def test_a_path_is_not_a_preset_name(self, tmp_path, relative):
        # only the stems of the shipped presets are names: a path to a
        # valid preset file, inside the package or out of it, is refused
        outside = tmp_path / "copy"
        outside.with_suffix(".json").write_text((PRESET_DIR / "llama31-8b.json").read_text())
        name = "../presets/llama31-8b" if relative else str(outside)
        known = sorted(p.stem for p in PRESET_DIR.glob("*.json"))
        with pytest.raises(ConfigError) as info:
            load_preset(name)
        assert str(info.value) == f"unknown hardware preset {name!r}; available: {known}"

    def test_a_preset_is_parsed_once_and_an_unknown_name_raises_every_time(self):
        assert load_preset("qwen3-4b") is load_preset("qwen3-4b")
        for _ in range(3):
            with pytest.raises(ConfigError, match="unknown hardware preset"):
                load_preset("nokia-3310")

    def test_roundtrip(self):
        cfg = load_preset("qwen3-14b")
        again = HardwareConfig(**cfg.to_dict())
        assert again == cfg

    def test_overlap_validation(self):
        with pytest.raises(ConfigError):
            HardwareConfig(name="t", io_ms_per_invocation=1.0, overlap="avg")

    @pytest.mark.parametrize(
        "fields",
        [
            {"io_ms_per_invocation": 0.0},
            {"io_ms_per_invocation": 990.6, "dram_resident_frac": 1.0},
        ],
        ids=["no-io", "all-in-dram"],
    )
    def test_free_single_token_step_refused(self, fields):
        with pytest.raises(ConfigError, match="single-token step"):
            HardwareConfig(name="t", **fields)
        # any compute makes the step, and every verify shape, cost time
        cfg = HardwareConfig(name="t", compute_c_row=0.5, **fields)
        assert ar_step_latency(cfg) > 0 and verify_latency(cfg, 1, 1) > 0

    @pytest.mark.parametrize(
        "fields",
        [
            {"io_ms_per_invocation": float("inf")},
            {"io_ms_per_invocation": float("nan")},
            {"io_ms_per_invocation": 1.0, "compute_c_row": float("nan")},
            {"io_ms_per_invocation": 1.0, "draft_npu_base": float("-inf")},
            {"io_ms_per_invocation": 1.0, "dram_resident_frac": float("nan")},
        ],
        ids=["io-inf", "io-nan", "c-row-nan", "npu-base-minus-inf", "dram-frac-nan"],
    )
    def test_non_finite_field_refused(self, fields):
        with pytest.raises(ConfigError, match="must be finite and >= 0|must lie in"):
            HardwareConfig(name="t", **fields)

    def test_overflowing_single_token_step_refused(self):
        with pytest.raises(ConfigError, match="finite time"):
            HardwareConfig(name="t", io_ms_per_invocation=1e308, compute_c0=1e308)

    def test_dram_fraction_scales_io(self):
        cfg = dataclasses.replace(
            load_preset("llama31-8b"), dram_resident_frac=0.25
        )
        assert cfg.io_effective_ms == pytest.approx(0.75 * 990.6, rel=1e-12)
