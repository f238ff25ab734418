import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec import harness
from flashspec.cli import main as cli_main
from flashspec.drafting import MISS_PENALTY, build_tree
from flashspec.errors import ConfigError
from flashspec.harness import (
    DraftSpec,
    ExperimentConfig,
    ModelSpec,
    apply_overrides,
    compare_policies,
    config_hash,
    geometric_mean,
    make_context,
    make_draft,
    make_policy,
    make_pruner,
    make_target,
    run_experiment,
    run_trial,
    seed_profile,
    train_predictor_for,
)
from flashspec.models import MixtureDraftModel
from flashspec.predictor import (
    DistillationSet,
    EarlyExitPredictor,
    ExactProbeSource,
    LayeredHiddenSource,
    build_distillation_dataset,
    default_exit_layer,
    train,
)
from flashspec.pruning import PruneDecision, TreePruner
from flashspec.simulator import (
    PRESET_DIR,
    CycleCost,
    HardwareConfig,
    load_preset,
    price_cycle,
    simulate_decode,
    verify_latency,
)
from flashspec.verification import run_decode
from helpers import load_checkpoint, plan_on_grid, tree_json

ROOT = Path(__file__).resolve().parents[1]
# CLI flags of a one-trial lever run on the layered target
LAYERED_LEVER = ["--set", "trials=1", "--set", "policy=lever", "--set", 'model.type="layered"']


def small_cfg(**kw):
    base = dict(horizon=24, trials=2, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_dict_roundtrip(self):
        cfg = small_cfg(policy="chain_sd")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_json_file_roundtrip(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_dict(json.loads(path.read_text())) == cfg

    def test_inline_hardware(self):
        hw = HardwareConfig(name="inline", io_ms_per_invocation=100.0, compute_c0=10.0)
        cfg = small_cfg(hardware=hw)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.resolve_hardware() == hw

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(policy="warp_drive")

    def test_unknown_projection_mode_rejected_before_any_trial(self):
        with pytest.raises(ConfigError, match="unknown projection mode 'bogus'"):
            small_cfg(projection_mode="bogus")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"polycy": "lever"})

    @pytest.mark.parametrize(
        "section, key",
        [
            (section, "typo")
            for section in ("model", "draft", "drafting", "training", "hardware")
        ]
        # keys of the removed draft-latency moving average
        + [("drafting", "ma_window"), ("drafting", "draft_ms_seed")],
    )
    def test_unknown_nested_key_rejected(self, section, key):
        payload = small_cfg(hardware=load_preset("llama31-8b")).to_dict()
        payload[section][key] = 1
        message = f"unknown {section} config keys: ['{key}']"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "override, section",
        [
            ('hardware={"name":"x"}', "hardware"),
            ('drafting.k="a"', "drafting"),
            ('model={"type":"tabular","vocab_size":"x"}', "model"),
        ],
    )
    def test_ill_typed_nested_config_rejected(self, override, section):
        payload = apply_overrides(small_cfg().to_dict(), [override])
        with pytest.raises(ConfigError, match=f"^invalid {section} config: "):
            ExperimentConfig.from_dict(payload)

    def test_shipped_config_lists_exactly_the_fields(self):
        # a deleted knob cannot linger in the sample config, and a new field
        # shows up there
        shipped = json.loads((ROOT / "configs" / "lever_default.json").read_text())
        assert ExperimentConfig.from_dict(shipped).to_dict() == shipped

    def test_shipped_and_benchmark_configs_load(self):
        shipped = ROOT / "configs" / "lever_default.json"
        ExperimentConfig.from_dict(json.loads(shipped.read_text()))
        from flashbench.workloads import WORKLOADS, make_configs

        for name in WORKLOADS:
            for tiny in (False, True):
                assert make_configs(name, 5, tiny=tiny)

    def test_dotted_overrides(self):
        payload = small_cfg().to_dict()
        apply_overrides(
            payload,
            ["drafting.k=2", "model.vocab_size=16", "policy=chain_sd", "horizon=8"],
        )
        cfg = ExperimentConfig.from_dict(payload)
        assert cfg.drafting.k == 2
        assert cfg.model.vocab_size == 16
        assert cfg.policy == "chain_sd"
        assert cfg.horizon == 8

    def test_partial_section_overrides_only_its_keys(self):
        default = ExperimentConfig().drafting
        cfg = ExperimentConfig.from_dict({"drafting": {"k": 3}})
        assert cfg.drafting == replace(default, k=3)

    def test_hash_changes_with_config(self):
        a = config_hash(small_cfg())
        b = config_hash(small_cfg(horizon=25))
        assert a != b


class TestGeomean:
    def test_matches_independent_recomputation(self):
        values = [0.9227, 3.1, 2.5, 1.7]
        got = geometric_mean(values)
        expect = math.prod(values) ** (1 / len(values))
        assert abs(got - expect) / expect < 1e-12

    def test_zero_collapses(self):
        assert geometric_mean([0.0, 2.0]) == 0.0


class TestRunExperiment:
    def test_flash_ar_tokens_per_second(self):
        report, _ = run_experiment(small_cfg(policy="flash_ar", trials=1))
        assert report.aggregate["tokens_per_s"] == pytest.approx(
            1000.0 / 1083.8, rel=1e-6
        )

    def test_chain_drafts_exactly_eight_in_a_chain(self):
        _, results = run_experiment(small_cfg(policy="chain_sd", trials=1))
        for rec in results[0].decode.cycles:
            assert rec.tree_nodes == 9      # root + 8 drafted tokens
            assert rec.tree_leaves == 1
            assert rec.expansion_counts == (1,) * 8

    @pytest.mark.parametrize("policy", harness.POLICIES)
    def test_only_flash_ar_cycles_draft_nothing(self, policy):
        # the simulator prices a cycle that drafted nothing as an AR step
        _, results = run_experiment(small_cfg(policy=policy, trials=1))
        counts = [rec.expansion_counts for rec in results[0].decode.cycles]
        assert counts
        if policy == "flash_ar":
            assert all(c == () for c in counts)
        else:
            assert all(c for c in counts)

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        cfg = small_cfg(policy="lever", out_dir=str(tmp_path / "a"))
        run_experiment(cfg)
        first = {
            name: (tmp_path / "a" / name).read_bytes()
            for name in ("report.json", "report.csv", "trace.csv", "trace.json")
        }
        # re-run from the report's own embedded config
        payload = json.loads((tmp_path / "a" / "report.json").read_text())
        run_experiment(ExperimentConfig.from_dict(payload["config"]))
        for name, data in first.items():
            assert (tmp_path / "a" / name).read_bytes() == data, (
                f"{name} differs between identical runs"
            )
        assert payload["config_hash"] == config_hash(cfg)
        assert payload["seeds"] == [3, 4]

    def test_aggregate_recomputable_from_trial_rows(self):
        report, _ = run_experiment(small_cfg(policy="balanced_tree"))
        for field, agg in report.aggregate.items():
            per_trial = [t["metrics"][field] for t in report.trials]
            expect = geometric_mean(per_trial)
            if expect > 0:
                assert abs(agg - expect) / expect < 1e-12
            else:
                assert agg == expect

    def test_trial_seeds_documented_derivation(self):
        report, results = run_experiment(small_cfg(policy="flash_ar"))
        assert [r.seed for r in results] == [3, 4]

    @pytest.mark.parametrize(
        "overrides, horizon, trials, want",
        [
            (
                # the shipped tabular lever projects on demand: no pruner
                {},
                32,
                2,
                {
                    "report.json":
                        "7df9b70ff2b4612f433063a651f9d5682dbaf43c88af50d26d5214ffa9a6757c",
                    "report.csv":
                        "3f351eb2d4b3ab4f421018a9cde3fa5bd8b6a07579caec8b682360e019c0d9d1",
                    "trace.json":
                        "f8b493e53b19427a94724318f107f5c1bbcf564cb6f7674d7d37690e7e235472",
                    "trace.csv":
                        "493a4a153e9f0ff9ce63e51cf5153fd6fd112ce4135eb3c942d27a5e0b84f42a",
                },
            ),
            (
                # the learned-probe prune path: a layered target trains its probe
                {"model": {"type": "layered"}, "predictor_examples": 300,
                 "training": {"epochs": 2}},
                24,
                1,
                {
                    "report.json":
                        "2cb01803b36fac136b71f8bc9c69af3254b10fb4c024e3e61690fa63286e32de",
                    "report.csv":
                        "8268a301c924283e745072306b35d9d4b65adc00026950fa11a65d64c920c3bf",
                    "trace.json":
                        "2970780366c98b33ef79a270e4f78684277db9e4f12148e1cf857a32d61b6647",
                    "trace.csv":
                        "cdd0e44876e06ca46e022e9a483f2cc63d179593e7f20891979179d647b4340a",
                },
            ),
            (
                # the fixed-shape baselines: drafts from carried tails, no pruner
                {"policy": "chain_sd"},
                32,
                2,
                {
                    "report.json":
                        "7644f21e804ac59f2ec230aaa872514af1595bb94521b1dac7d046d6b5754afa",
                    "report.csv":
                        "49e1d6a9dfe0579d48e49a2e6d432b999e5bc9ebd4138626a39497ecaa69e549",
                    "trace.json":
                        "28bbd4bab5547910557acc554e2e1cc83510108a6780e77de7609e93a453875a",
                    "trace.csv":
                        "e765750e2003d7d5e9bf45102d09609f55790ca5cdfac0085a228919fc1d0673",
                },
            ),
            (
                # the zero-level tree: every cycle is an autoregressive step
                {"policy": "flash_ar"},
                32,
                2,
                {
                    "report.json":
                        "08079a2bde8f5501548a1f6c0af60b4b058665a25a5de459c0a65c0c8dbfe54f",
                    "report.csv":
                        "6daebd37e2e1ce9a4e0280e826eaa2af40ed7a74990db1dd63cb098b548a44db",
                    "trace.json":
                        "51bf8bbad932dd415b059efef70c831d4a2428de129be4ebacf9b5832ac0b6d8",
                    "trace.csv":
                        "0ec918d1add6bf9441d8351a036a37bd2e3cdc65e44e4ea3e9976fb0668657a0",
                },
            ),
            (
                {"policy": "balanced_tree"},
                32,
                2,
                {
                    "report.json":
                        "d30b111cc0461f25a88db77c314d38256ae5530a846cb5870449b84d86d6538a",
                    "report.csv":
                        "61bcbdaeb4b991891f08f322993dd998af3b1d794ae1b181ed7d79e0df34692c",
                    "trace.json":
                        "0fbeac11ec5020311ae3a1a9dfffc67e6c7c0a53515c9f629d8459b95bc7e003",
                    "trace.csv":
                        "25cd4de304bfe5af05f4f7fbefaefc16508a9e501fd613d3cf482e4130cb6610",
                },
            ),
            (
                # eager projection: lever prunes with the tabular exact probe
                # and every verified row pays projection and waste
                {"projection_mode": "eager"},
                32,
                2,
                {
                    "report.json":
                        "23f88047675a9f397cbbf1c1f49258a34fc0ced745374ffc1017e93a15b8f0cf",
                    "report.csv":
                        "d4ec9520d83d089f14d13d1c60b0ede8d2b682c82c1982dba3b62c19f98968cb",
                    "trace.json":
                        "540a22b931d725f93aa131fe3d1d51bfa4fadb034773046dbcb2400d0fbd5931",
                    "trace.csv":
                        "e3c1c86ec6815a5943317747648c1e54d5840ba36c0b804bd0143ad4605efc79",
                },
            ),
            (
                # eager projection with the learned probe of a layered target
                {"projection_mode": "eager", "model": {"type": "layered"},
                 "predictor_examples": 300, "training": {"epochs": 2}},
                24,
                1,
                {
                    "report.json":
                        "06c44525df82a51b0b48065e1ee93e95034215489bea577195bdaaebef83d454",
                    "report.csv":
                        "bb3cc041fb7f8d2ebf982e609e8ebd249782ca7d42281117b541b5fae7d889fd",
                    "trace.json":
                        "e9bc6e036cf2bc501db495163ace568ed90b24b1905e53928c0916cdd48f56bf",
                    "trace.csv":
                        "57d4c86eb81cd1c5f0950947d7f049d8cbd0d064824037e89bccc5e41f542199",
                },
            ),
        ],
        ids=[
            "tabular", "layered-probe", "chain_sd", "flash_ar", "balanced_tree",
            "tabular-eager", "layered-eager",
        ],
    )
    def test_report_outputs_are_pinned(self, tmp_path, overrides, horizon, trials, want):
        """Digests of the four files a short run of the shipped config
        writes, so a writer change that moves a byte fails here.  Recorded
        with numpy 2.4 on x86-64."""
        shipped = json.loads((ROOT / "configs" / "lever_default.json").read_text())
        for key, value in overrides.items():
            if isinstance(value, dict):
                shipped[key].update(value)
            else:
                shipped[key] = value
        cfg = replace(
            ExperimentConfig.from_dict(shipped), trials=trials, horizon=horizon,
            out_dir=None,
        )
        report, results = run_experiment(cfg)
        report.write(str(tmp_path), traces=[r.trace for r in results])
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("report.json", "report.csv", "trace.json", "trace.csv")
        }
        assert digests == want


def whole_payload_trace_json(traces) -> str:
    """The reference ``trace.json``: every trial's cycles (each cost's
    fields, its record's verified rows and emitted tokens) and totals as one
    payload, dumped as one string."""
    payload = {
        "trials": [
            {
                "cycles": [
                    {**asdict(c), "rows_after_prune": r.rows_verified, "tokens": len(r.emitted)}
                    for c, r in zip(trace.cycles, trace.records)
                ],
                "totals": trace.totals(),
            }
            for trace in traces
        ]
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def written_trace_json(path, report, traces) -> str:
    report.write(str(path), traces=traces)
    return (path / "trace.json").read_text()


class TestTraceWriter:
    """``Report.write`` streams ``trace.json`` one trial at a time, with the
    bytes of the whole-payload dump."""

    def test_no_traces(self, tmp_path):
        report = harness.Report(config={}, config_hash="", seeds=[], trials=[], aggregate={})
        got = written_trace_json(tmp_path, report, [])
        assert got == whole_payload_trace_json([]) == '{\n  "trials": []\n}\n'

    def test_one_trace(self, tmp_path):
        report, results = run_experiment(small_cfg(policy="lever", trials=1))
        traces = [results[0].trace]
        assert written_trace_json(tmp_path, report, traces) == whole_payload_trace_json(traces)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(policy="lever"),
            dict(policy="lever", projection_mode="eager", predictor_examples=300,
                 model=ModelSpec(type="layered")),
            dict(policy="flash_ar"),
            dict(policy="chain_sd"),
        ],
        ids=["lever-tabular-ondemand", "lever-layered-eager", "flash_ar", "chain_sd"],
    )
    def test_multi_trial_runs(self, tmp_path, kw):
        report, results = run_experiment(small_cfg(trials=3, **kw))
        traces = [r.trace for r in results]
        if kw.get("projection_mode") == "eager":
            assert all(rec.prune is not None for r in results for rec in r.decode.cycles)
        assert written_trace_json(tmp_path, report, traces) == whole_payload_trace_json(traces)

    def test_trace_csv_columns_are_a_trace_rows_keys_then_the_total(self):
        # one function builds every cycle row: the cost's fields, then two
        # counts read from the record
        _, results = run_experiment(small_cfg(policy="lever", trials=1, projection_mode="eager"))
        trace = results[0].trace
        assert len(trace.records) == len(trace.cycles) == len(results[0].decode.cycles)
        for cost, record in zip(trace.cycles, trace.records):
            row = harness.trace_row(cost, record)
            assert (*row, "total_ms") == harness.TRACE_FIELDS
            assert (*row,)[:-2] == tuple(f.name for f in fields(CycleCost))
            assert row["rows_after_prune"] == len(record.prune.keep)
            assert row["tokens"] == len(record.emitted)

    def test_writer_memory_is_bounded_by_one_trial(self, tmp_path):
        """Writing 32 copies of a trial peaks near writing one: the writer
        holds one trial at a time, not the run."""
        report, results = run_experiment(small_cfg(policy="flash_ar", trials=1, horizon=256))
        trace = results[0].trace
        assert len(trace.cycles) == 256

        def write_peak(traces) -> int:
            tracemalloc.start()
            try:
                report.write(str(tmp_path), traces=traces)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = write_peak([trace])
        assert write_peak([trace] * 32) < 2 * one + 256 * 1024

        # the records a run keeps per cycle and per trial have slots
        pruned = run_experiment(small_cfg(policy="lever", trials=1, projection_mode="eager"))
        record = pruned[1][0].decode.cycles[0]
        for obj in (trace.cycles[0], results[0].metrics, record, record.prune):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        assert isinstance(record.prune, PruneDecision)
        assert record.prune.rejected is PruneDecision.rejected is False


class TestGainCostDraftCost:
    def test_lever_plans_with_the_hardware_draft_latency(self):
        hw = replace(load_preset("llama31-8b"), draft_cpu_ms=5.0)
        cfg = small_cfg(policy="lever", hardware=hw)
        target = make_target(cfg.model, 0)
        draft = make_draft(cfg, target, 0)
        context = make_context(cfg, 0)
        got = make_policy(cfg, draft, hw).build(context)
        want = build_tree(
            context, draft, cfg.drafting, 1.0,
            seed_profile(hw), draft_ms=5.0,
        )
        assert tree_json(got.tree) == tree_json(want.tree)
        assert got.stop == want.stop
        assert got.estimate.draft_cost == 5.0 * len(got.expansion_counts)


class TestPlannedDraftPrice:
    def test_lever_plans_each_expansion_at_its_simulated_price(self):
        # below batch_min a one-node step runs on the CPU at draft_cpu_ms;
        # at batch_min=1 it is one NPU batch, 6.5 ms on this preset
        hw = replace(load_preset("llama31-8b"), batch_min=1)
        cfg = small_cfg(policy="lever", hardware=hw, trials=1)
        target = make_target(cfg.model, 0)
        policy = make_policy(cfg, make_draft(cfg, target, 0), hw)
        pruner = make_pruner(cfg, target)
        builds = []

        def build(context, _build=policy.build):
            builds.append(_build(context))
            return builds[-1]

        policy.build = build
        decode = run_decode(target, make_context(cfg, 0), cfg.horizon, policy, pruner=pruner)
        trace, _ = simulate_decode(
            decode.cycles, hw, emitted_tokens=len(decode.tokens),
            exit_fraction=pruner.exit_fraction if pruner is not None else None,
        )
        assert len(builds) == len(trace.cycles) > 1
        for out, cost in zip(builds, trace.cycles):
            assert out.expansion_counts
            assert out.estimate.draft_cost == cost.draft_ms


def hardware_regimes() -> list[HardwareConfig]:
    """Every shipped preset as shipped, in the compute-bound regime
    (``dram_resident_frac`` 0.8, ``overlap`` sum), and each of those with
    every expansion step batched (``batch_min`` 1)."""
    out = []
    for path in sorted(PRESET_DIR.glob("*.json")):
        for hw in (
            load_preset(path.stem),
            replace(load_preset(path.stem), dram_resident_frac=0.8, overlap="sum"),
        ):
            out += [hw, replace(hw, batch_min=1)]
    return out


class TestEstimateIsPrice:
    @pytest.mark.parametrize(
        "policy, fanout",
        [("flash_ar", 2), ("chain_sd", 2), ("lever", 2), ("lever_noprune", 2)]
        + [("balanced_tree", fanout) for fanout in range(1, 5)],
    )
    @settings(max_examples=3, deadline=None)
    @given(
        budget=st.integers(4, 40),
        agreement=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_every_cycle_estimate_is_its_price(self, policy, fanout, budget, agreement, seed):
        """Draft estimate = priced draft ms, verify estimate = priced verify
        stage, on every cycle.  Lever's verify estimate reads its profile,
        so it is checked where the built shape lies on the profile grid.
        Lever runs with the pruner its trial builds, none on demand."""
        base = small_cfg(
            policy=policy, trials=1, horizon=16, seed=seed,
            draft=DraftSpec(agreement=agreement),
            balanced_fanout=fanout, balanced_budget=budget,
        )
        # the models do not depend on the hardware, so every regime shares them
        target = make_target(base.model, 0)
        draft = make_draft(base, target, 0)
        for hw in hardware_regimes():
            cfg = replace(base, hardware=hw)
            policy_obj = make_policy(cfg, draft, hw)
            builds = []

            def build(context, _build=policy_obj.build):
                builds.append(_build(context))
                return builds[-1]

            policy_obj.build = build
            pruner = make_pruner(cfg, target) if policy == "lever" else None
            decode = run_decode(
                target, make_context(cfg, 0), cfg.horizon, policy_obj, pruner=pruner
            )
            assert len(builds) == len(decode.cycles)
            for out, record in zip(builds, decode.cycles):
                cost = price_cycle(record, hw, cfg.projection_mode)
                assert out.estimate.draft_cost == cost.draft_ms
                nodes, leaves = out.tree.shape
                if policy.startswith("lever") and (
                    nodes > harness.PROFILE_MAX_NODES or leaves > harness.PROFILE_MAX_LEAVES
                ):
                    continue
                assert out.estimate.verify_cost == cost.verify_stage_ms


class TestProfileGrid:
    def test_every_trial_and_lever_policy_shares_one_profile(self, monkeypatch):
        used = []
        original = harness.seed_profile

        def recording(hw):
            used.append(original(hw))
            return used[-1]

        monkeypatch.setattr(harness, "seed_profile", recording)
        for policy in ("lever", "lever_noprune"):
            run_experiment(small_cfg(policy=policy, horizon=8))
        assert len(used) == 4
        assert all(profile is used[0] for profile in used)

    def test_lookup_is_the_simulator_price(self):
        cfg = small_cfg()
        hw = cfg.resolve_hardware()
        profile = seed_profile(hw)
        max_nodes, max_leaves = harness.PROFILE_MAX_NODES, harness.PROFILE_MAX_LEAVES
        for nodes, leaves in profile.entries():
            assert profile.lookup((nodes, leaves)) == verify_latency(hw, nodes, leaves)
        # off the grid: the clamped grid shape's price times the miss penalty
        for (nodes, leaves), clamp in (
            ((max_nodes + 5, 3), (max_nodes, 3)),
            ((max_leaves + 10, max_leaves + 4), (max_leaves + 10, max_leaves)),
        ):
            assert profile.lookup((nodes, leaves)) == (
                verify_latency(hw, *clamp) * MISS_PENALTY
            )

    def test_a_trial_leaves_its_profile_unchanged(self, monkeypatch):
        # A one-shape grid, so verified shapes lie outside it.  Lookups fill
        # the profile's memo but change no price.
        plan_on_grid(monkeypatch, 1, 1)
        cfg = small_cfg(policy="lever")
        profile = harness.seed_profile(cfg.resolve_hardware())
        before = profile.entries()
        result = run_trial(cfg, 0)
        verified = {(c.rows_verified, c.leaves_verified) for c in result.decode.cycles}
        assert verified - set(before)
        assert profile.entries() == before

    def test_trial_alone_equals_trial_after_earlier_trials(self, monkeypatch):
        # A one-shape grid: every drafted tree is a miss, and the trials
        # share the grid and its memo of priced shapes.
        plan_on_grid(monkeypatch, 1, 1)
        cfg = small_cfg(policy="lever", trials=4)
        alone = run_trial(cfg, 3)
        for trial in range(3):
            run_trial(cfg, trial)
        after = run_trial(cfg, 3)
        assert after.emitted == alone.emitted
        assert after.trace == alone.trace


class TestComparePolicies:
    def test_mismatched_shared_fields_refused(self):
        a = small_cfg(policy="lever")
        b = small_cfg(policy="chain_sd", horizon=25)
        with pytest.raises(ConfigError):
            compare_policies([a, b])

    @staticmethod
    def _lever_and_noprune(**kw):
        """One 32-token trial of lever and of lever_noprune under sum
        overlap, which makes any verify-compute saving visible."""
        hw = replace(load_preset("llama31-8b"), overlap="sum")
        base = small_cfg(hardware=hw, trials=1, horizon=32, **kw)
        _, lever = run_experiment(replace(base, policy="lever"))
        _, noprune = run_experiment(replace(base, policy="lever_noprune"))
        assert lever[0].emitted == noprune[0].emitted
        return lever[0].trace, noprune[0].trace

    def test_learned_probe_pruning_saves_verify_compute(self):
        lever, noprune = self._lever_and_noprune(
            model=ModelSpec(type="layered"), predictor_examples=300
        )
        assert lever.total_ms < noprune.total_ms

    def test_exact_probe_pruning_saves_only_eager_projection(self):
        # The exact probe reads the target's final distribution, so scoring
        # is priced at full depth: on demand, lever builds no pruner and its
        # trace is lever_noprune's, cycle by cycle.
        lever, noprune = self._lever_and_noprune(projection_mode="ondemand")
        assert lever == noprune
        lever, noprune = self._lever_and_noprune(projection_mode="eager")
        assert lever.total_ms < noprune.total_ms

    def test_mismatched_projection_mode_refused(self):
        # every policy's projection is priced, so a mode that differs between
        # two configs would move the comparison by itself
        a = small_cfg(policy="lever", projection_mode="ondemand")
        b = small_cfg(policy="lever_noprune", projection_mode="eager")
        with pytest.raises(ConfigError, match="projection_mode"):
            compare_policies([a, b])

    @pytest.mark.parametrize("normalize_to", ["flash_ar", "lever_noprune"])
    def test_absent_anchor_refused_before_any_run(self, monkeypatch, normalize_to):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg: runs.append(cfg))
        cfg = small_cfg(trials=1)
        with pytest.raises(ConfigError, match=repr(normalize_to)):
            compare_policies(
                [replace(cfg, policy="lever"), replace(cfg, policy="chain_sd")],
                normalize_to=normalize_to,
            )
        assert runs == []

    def test_chain_beats_flash_ar_with_perfect_draft(self):
        cfg = small_cfg(draft=DraftSpec(agreement=1.0), trials=1)
        table = compare_policies(
            [replace(cfg, policy="flash_ar"), replace(cfg, policy="chain_sd")],
            normalize_to="chain_sd",
        )
        policies = table["policies"]
        assert policies["chain_sd"]["speedup_vs_flash_ar"] > 1.0

    def test_normalization_column(self):
        cfg = small_cfg(trials=1)
        table = compare_policies(
            [replace(cfg, policy="flash_ar"), replace(cfg, policy="lever")],
            normalize_to="lever",
        )
        assert table["policies"]["lever"]["normalized_tokens_per_s"] == pytest.approx(1.0)


class TestMakePruner:
    """Lever prunes only where a keep set can change a price: on a layered
    target, or under eager projection."""

    def test_tabular_on_demand_builds_no_pruner(self):
        cfg = small_cfg(policy="lever", projection_mode="ondemand")
        assert make_pruner(cfg, make_target(cfg.model, 0)) is None

    def test_tabular_eager_prunes_with_the_exact_probe(self):
        cfg = small_cfg(policy="lever", projection_mode="eager")
        pruner = make_pruner(cfg, make_target(cfg.model, 0))
        assert isinstance(pruner, TreePruner)
        assert isinstance(pruner.hidden_source, ExactProbeSource)
        assert pruner.exit_fraction == 1.0

    @pytest.mark.parametrize("mode", ["eager", "ondemand"])
    def test_layered_prunes_at_the_exit_layer_in_both_modes(self, mode):
        cfg = small_cfg(
            policy="lever", projection_mode=mode, predictor_examples=10,
            model=ModelSpec(type="layered", vocab_size=8, order=1, seed=4, depth=2, hidden_dim=4),
        )
        pruner = make_pruner(cfg, make_target(cfg.model, 0))
        assert isinstance(pruner, TreePruner)
        assert isinstance(pruner.hidden_source, LayeredHiddenSource)
        assert pruner.exit_fraction < 1.0

    @pytest.mark.parametrize(
        "vocab_size, hidden_dim, depth", [(12, 8, 4), (16, 6, 4), (16, 8, 6)]
    )
    def test_layered_probe_matches_its_target(self, vocab_size, hidden_dim, depth):
        """The shapes a loaded probe once had to be checked against: a
        fitted probe has its target's vocabulary, width and exit layer."""
        cfg = small_cfg(
            policy="lever", predictor_examples=10,
            model=ModelSpec(type="layered", vocab_size=vocab_size, order=2, seed=4,
                            depth=depth, hidden_dim=hidden_dim),
        )
        target = make_target(cfg.model, 0)
        pruner = make_pruner(cfg, target)
        layer = default_exit_layer(depth)
        assert (pruner.pred.vocab_size, pruner.pred.hidden_dim) == (vocab_size, hidden_dim)
        assert pruner.pred.layer == pruner.hidden_source.layer == layer
        assert pruner.hidden_source.model is target

    def test_each_trial_prunes_with_its_own_targets_probe(self, monkeypatch):
        """No trial reuses another's probe: trial 1's pruner is the fit of
        trial 1's target, not of trial 0's."""
        built = []

        def recording(cfg, target, _original=make_pruner):
            pruner = _original(cfg, target)
            built.append((target, pruner))
            return pruner

        monkeypatch.setattr(harness, "make_pruner", recording)
        cfg = small_cfg(
            policy="lever", trials=2, horizon=8, predictor_examples=20,
            model=ModelSpec(type="layered", vocab_size=16, order=2, seed=4,
                            depth=4, hidden_dim=8),
        )
        run_experiment(cfg)
        assert len(built) == 2
        for trial, (target, pruner) in enumerate(built):
            own = make_pruner(cfg, make_target(cfg.model, trial)).pred
            assert pruner.hidden_source.model is target
            assert np.array_equal(pruner.pred.weights, own.weights)
        assert not np.array_equal(built[0][1].pred.weights, built[1][1].pred.weights)

    def test_tabular_on_demand_lever_trial_is_lever_noprune(self):
        cfg = small_cfg(trials=1, horizon=32)
        lever = run_trial(replace(cfg, policy="lever"), 0)
        noprune = run_trial(replace(cfg, policy="lever_noprune"), 0)
        assert lever.metrics == noprune.metrics
        assert lever.trace == noprune.trace
        assert lever.decode == noprune.decode


class TestExactProbeSkipOracle:
    """The exact-probe prune stays the reference for the skip: under
    on-demand projection, pruning a tabular lever run changes no token, no
    accepted node and no price, only the verified-row count."""

    @settings(max_examples=20, deadline=None)
    @given(
        model_seed=st.integers(0, 1000),
        agreement=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_pruned_and_unpruned_runs_agree_on_every_price(self, model_seed, agreement, seed):
        base = small_cfg(
            policy="lever", trials=1, horizon=24, seed=seed,
            model=ModelSpec(seed=model_seed), draft=DraftSpec(agreement=agreement),
        )
        target = make_target(base.model, 0)
        draft = make_draft(base, target, 0)
        context = make_context(base, 0)
        exact = TreePruner(
            EarlyExitPredictor.identity_probe(target.vocab_size), ExactProbeSource(target)
        )
        for hw in hardware_regimes():
            cfg = replace(base, hardware=hw)
            runs = []
            for pruner in (exact, None):
                policy = make_policy(cfg, draft, hw)
                accepted = []

                def observe(result, _observe=policy.observe, _accepted=accepted):
                    _accepted.append(result.accepted_nodes)
                    _observe(result)

                policy.observe = observe
                decode = run_decode(target, context, cfg.horizon, policy, pruner=pruner)
                costs = [price_cycle(r, hw, "ondemand", exact.exit_fraction) for r in decode.cycles]
                runs.append((decode.tokens, accepted, costs))
            pruned, unpruned = runs
            assert pruned == unpruned


class TestLayeredEndToEnd:
    def test_layered_model_end_to_end_with_trained_probe(self):
        cfg = small_cfg(
            policy="lever",
            trials=1,
            horizon=16,
            model=ModelSpec(
                type="layered", vocab_size=16, order=2, seed=2, depth=4, hidden_dim=16
            ),
            predictor_examples=150,
        )
        cfg = replace(cfg, training=replace(cfg.training, epochs=3))
        report, results = run_experiment(cfg)
        from flashspec.harness import make_context, make_target
        from flashspec.models import target_greedy_decode

        target = make_target(cfg.model, 0)
        ctx = make_context(cfg, 0)
        assert results[0].emitted == target_greedy_decode(target, ctx, 16)


def shipped_layered(**training):
    """The shipped config with a layered target."""
    shipped = json.loads((ROOT / "configs" / "lever_default.json").read_text())
    shipped["model"]["type"] = "layered"
    shipped["training"].update(training)
    return ExperimentConfig.from_dict(shipped)


class TestProbeTraining:
    def test_sgd_from_the_fit_stops_after_one_epoch(self):
        """At the benchmark's layered-probe setting (2000 examples, hidden
        32, five epochs) the first SGD epoch that ``train-predictor`` runs
        from the run path's closed-form fit lowers the loss by less than 1%,
        so training stops there."""
        cfg = shipped_layered(epochs=5)
        target = make_target(cfg.model, 0)
        layer = harness.default_exit_layer(target.depth)
        _, curve = train_predictor_for(cfg, target, make_draft(cfg, target, 0), layer)
        assert len(curve) == 2
        assert 0 <= curve[0] - curve[1] < 0.01 * curve[0]


def held_out_agreement(rows: DistillationSet, layer: int, seed: int) -> float:
    """Top-1 agreement of the probe and the final logits over the examples
    of half the distinct tails, for the probe fit on the other half's
    examples; a seeded permutation of the tails picks the halves."""
    H, Z, C, example = rows
    order = np.random.default_rng(seed).permutation(len(H))
    fit_rows, held = order[: len(H) // 2], order[len(H) // 2:]
    renumber = np.full(len(H), -1)
    renumber[fit_rows] = np.arange(len(fit_rows))
    fit_examples = renumber[example][renumber[example] >= 0]
    half = DistillationSet(H[fit_rows], Z[fit_rows], C[fit_rows], fit_examples)
    W = EarlyExitPredictor.fit(half, layer).weights
    hits = np.argmax(H[held] @ W.T, axis=1) == np.argmax(Z[held], axis=1)
    counts = np.bincount(example, minlength=len(H))[held]
    return float((counts * hits).sum() / counts.sum())


class TestRunProbe:
    """``run`` fits a layered target's probe in closed form from the
    target's rows alone: no SGD, no draft read."""

    def test_layered_lever_trial_never_trains(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the run path called train")

        monkeypatch.setattr(harness, "train", refuse)
        cfg = small_cfg(policy="lever", trials=1, horizon=8,
                        model=ModelSpec(type="layered"), predictor_examples=100)
        assert run_trial(cfg, 0).emitted

    def test_building_the_pruner_reads_no_draft(self, monkeypatch):
        reads, building = [], []

        def counted(model, prefix, _original=MixtureDraftModel.next_dist):
            if building:
                reads.append(prefix)
            return _original(model, prefix)

        monkeypatch.setattr(MixtureDraftModel, "next_dist", counted)

        def flagged(*args):
            building.append(True)
            try:
                return make_pruner(*args)
            finally:
                building.clear()

        monkeypatch.setattr(harness, "make_pruner", flagged)
        cfg = small_cfg(policy="lever", trials=1, horizon=8,
                        model=ModelSpec(type="layered"), predictor_examples=100)
        run_trial(cfg, 0)
        assert reads == []

    @pytest.mark.parametrize("trial", range(4))
    def test_run_probe_is_the_fit_of_the_full_distillation_set(self, trial):
        """The rows the run fits equal the full set's: every harness draft
        has its target's order, so both pad tails alike."""
        cfg = shipped_layered()
        target = make_target(cfg.model, trial)
        layer = default_exit_layer(target.depth)
        full = build_distillation_dataset(
            target, make_draft(cfg, target, trial), layer,
            cfg.predictor_examples, cfg.drafting.k, seed=cfg.training.seed,
        )
        run_probe = make_pruner(cfg, target).pred
        assert run_probe.layer == layer
        assert np.array_equal(run_probe.weights, EarlyExitPredictor.fit(full, layer).weights)

    @pytest.mark.parametrize("trial", range(4))
    def test_fit_agrees_with_the_target_on_held_out_tails(self, trial):
        """Held-out top-1 agreement is 0.899-0.911 on these trials (chance
        is 1/32)."""
        cfg = shipped_layered()
        target = make_target(cfg.model, trial)
        layer = default_exit_layer(target.depth)
        rows, _ = harness.distillation_rows(
            target, layer, cfg.predictor_examples, cfg.training.seed, target.order
        )
        assert held_out_agreement(rows, layer, seed=0) >= 0.8

    def test_training_settings_leave_a_run_unchanged(self, tmp_path):
        """SGD at these settings would change which rows lever keeps."""
        out = tmp_path / "out"
        argv = ["run", "--out", str(out), "--set", "policy=lever", "--set", "trials=2",
                "--set", "horizon=32", "--set", 'model.type="layered"']
        names = ("report.csv", "trace.json", "trace.csv")
        assert cli_main(argv) == 0
        plain = {name: (out / name).read_bytes() for name in names}
        assert cli_main(
            argv + ["--set", "training.epochs=3", "--set", "training.learning_rate=20.0"]
        ) == 0
        assert {name: (out / name).read_bytes() for name in names} == plain


class TestCLI:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(small_cfg(trials=1, horizon=8).to_dict()))
        rc = cli_main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
             "--set", "policy=chain_sd"]
        )
        assert rc == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(small_cfg(trials=1, horizon=8).to_dict()))
        rc = cli_main(
            ["compare", "--config", str(cfg_path),
             "--policies", "flash_ar,chain_sd", "--normalize-to", "flash_ar",
             "--out", str(tmp_path / "cmp")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "flash_ar" in out and "chain_sd" in out
        assert (tmp_path / "cmp" / "comparison.json").exists()

    def test_train_predictor_subcommand(self, tmp_path):
        cfg = small_cfg(
            model=ModelSpec(type="layered", vocab_size=16, order=1, seed=4,
                            depth=4, hidden_dim=8),
            predictor_examples=60,
        )
        cfg = replace(cfg, training=replace(cfg.training, epochs=2))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli_main(
            ["train-predictor", "--config", str(cfg_path), "--out", str(tmp_path / "pred")]
        )
        assert rc == 0
        assert (tmp_path / "pred" / "predictor.json").exists()
        assert (tmp_path / "pred" / "loss_curve.csv").exists()

    def test_train_predictor_writes_the_refined_trial_zero_probe(self, tmp_path, monkeypatch):
        cfg = small_cfg(
            policy="lever",
            trials=1,
            horizon=8,
            model=ModelSpec(type="layered", vocab_size=16, order=2, seed=4,
                            depth=4, hidden_dim=8),
            # a non-default noise concentration changes the draft, and so
            # the distillation dataset's candidate sets
            draft=DraftSpec(agreement=0.6, noise_seed=7, noise_concentration=0.05),
            predictor_examples=80,
        )
        cfg = replace(cfg, training=replace(cfg.training, epochs=2))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli_main(
            ["train-predictor", "--config", str(cfg_path), "--out", str(tmp_path / "pred")]
        )
        assert rc == 0
        saved = load_checkpoint(str(tmp_path / "pred" / "predictor.json"))

        fitted = []

        def recording(*args):
            fitted.append(harness.EarlyExitPredictor.fit(*args))
            return fitted[-1]

        monkeypatch.setattr(harness, "fit_probe", recording)
        run_trial(cfg, 0)
        assert len(fitted) == 1
        # the written probe is the run's probe refined by SGD on trial 0's full
        # distillation set
        target = make_target(cfg.model, 0)
        full = build_distillation_dataset(
            target, make_draft(cfg, target, 0), fitted[0].layer,
            cfg.predictor_examples, cfg.drafting.k, seed=cfg.training.seed,
        )
        refined, _ = train(fitted[0], full, cfg.training)
        assert np.array_equal(saved.weights, refined.weights)
        assert saved.layer == refined.layer

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_training_divergence_is_clean_exit(self, tmp_path, capsys):
        cfg = small_cfg(
            model=ModelSpec(type="layered", vocab_size=16, order=1, seed=4,
                            depth=4, hidden_dim=8),
            predictor_examples=40,
        )
        cfg = replace(cfg, training=replace(cfg.training, epochs=2, learning_rate=1e308))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli_main(["train-predictor", "--config", str(cfg_path),
                       "--out", str(tmp_path / "pred")])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    def test_train_predictor_refuses_k_beyond_the_vocabulary(self, tmp_path, capsys):
        # chain_sd does not read drafting.k, so the config accepts it; the
        # distillation set's candidate sets do read it
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            {"model": {"type": "layered", "vocab_size": 8}, "policy": "chain_sd"}
        ))
        rc = cli_main(["train-predictor", "--config", str(cfg_path), "--set", "drafting.k=9",
                       "--out", str(tmp_path / "pred")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: drafting.k=9 exceeds model.vocab_size=8")
        assert "Traceback" not in err

    def test_bad_config_is_clean_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"policy": "bogus"}))
        rc = cli_main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (None, ["--config", "{path}"], "cannot read config {path}: "),
            ("{not json", ["--config", "{path}"], "cannot read config {path}: "),
            ("[1, 2]", ["--config", "{path}"], "config {path} is not a JSON object"),
            # every report.json written while the config had this key
            # embeds it as null
            (
                '{"predictor_checkpoint": null}',
                ["--config", "{path}"],
                "unknown config keys: ['predictor_checkpoint']",
            ),
            # a run fits its own probe: naming a checkpoint, readable or
            # not, is an unknown key
            (
                None,
                LAYERED_LEVER + ["--set", "predictor_checkpoint={path}"],
                "unknown config keys: ['predictor_checkpoint']",
            ),
            (
                '{"vocab_size": 32, "layer": 3, "weights": []}',
                LAYERED_LEVER + ["--set", "predictor_checkpoint={path}"],
                "unknown config keys: ['predictor_checkpoint']",
            ),
            # a preset name is a shipped preset's stem, not a path to a file
            (
                None,
                ["--preset", "../presets/llama31-8b"],
                "unknown hardware preset '../presets/llama31-8b'; available: [",
            ),
        ],
        ids=[
            "missing-config", "invalid-json", "json-list", "old-report-checkpoint-key",
            "missing-checkpoint", "checkpoint-without-hidden-dim", "preset-path",
        ],
    )
    def test_bad_input_file_is_clean_error(self, tmp_path, capsys, text, argv, message):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        rc = cli_main(["run"] + [arg.format(path=path) for arg in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=path))
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", str(ROOT / "configs" / "lever_default.json")],
            ["compare", "--policies", "chain_sd,flash_ar"],
            ["train-predictor", "--set", 'model.type="layered"',
             "--set", "predictor_examples=32", "--set", "training.epochs=1"],
        ],
        ids=["run", "compare", "train-predictor"],
    )
    def test_unusable_out_is_clean_error(self, tmp_path, capsys, argv):
        # an existing file where the output directory should go
        out = tmp_path / "taken"
        out.write_text("")
        argv = argv + ["--set", "trials=1", "--set", "horizon=4", "--out", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err
        assert out.read_text() == ""

    def test_checkpoint_on_tabular_model_is_clean_error(self, tmp_path, capsys):
        # no target reads a checkpoint, so the key is refused on a tabular
        # target too rather than ignored without a word
        path = tmp_path / "missing.json"
        rc = cli_main(["run", "--set", "policy=lever", "--set", f"predictor_checkpoint={path}",
                       "--set", "trials=1", "--set", "horizon=4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys: ['predictor_checkpoint']")
        assert "Traceback" not in err

    def test_repeated_compare_policy_is_clean_error(self, capsys):
        rc = cli_main(["compare", "--policies", "lever,lever", "--set", "trials=1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: policies ['lever', 'lever'] repeat a policy")

    def test_ill_typed_nested_override_is_clean_error(self, capsys):
        rc = cli_main(["run", "--set", 'hardware={"name":"x"}'])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid hardware config: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "policy, hardware",
        [
            ("chain_sd", {"io_ms_per_invocation": 0}),
            ("lever", {"io_ms_per_invocation": 0}),
            ("chain_sd", {"io_ms_per_invocation": 990, "dram_resident_frac": 1}),
            ("lever", {"io_ms_per_invocation": 990, "dram_resident_frac": 1}),
        ],
        ids=["chain-no-io", "lever-no-io", "chain-all-in-dram", "lever-all-in-dram"],
    )
    def test_free_single_token_step_is_clean_error(self, tmp_path, capsys, policy, hardware):
        # with no compute and no flash I/O a step takes 0 ms, which the
        # simulator would divide by and the latency profile refuses
        inline = {
            **load_preset("llama31-8b").to_dict(), "name": "x",
            "compute_c0": 0, "compute_c_row": 0, "compute_c_leaf": 0, **hardware,
        }
        rc = cli_main(["run", "--set", "trials=1", "--set", "horizon=4",
                       "--set", f"policy={policy}", "--set", f"hardware={json.dumps(inline)}",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a single-token step must take positive time")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "drop", [("compute_c0", "compute_c_leaf", "compute_c_row"), ("batch_min",)]
    )
    def test_inline_hardware_missing_a_key_is_clean_error(self, tmp_path, capsys, drop):
        # an inline hardware has no default to fall back on: a key left out
        # would run at 0 (or a preset-free default) without a word
        inline = {k: v for k, v in load_preset("llama31-8b").to_dict().items() if k not in drop}
        out = tmp_path / "out"
        rc = cli_main(["run", "--set", "trials=1", "--set", "horizon=8",
                       "--set", f"hardware={json.dumps(inline)}", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid hardware config: missing keys {sorted(drop)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, hardware, overrides, where, key",
        [
            ("run", {"io_ms_per_invocation": math.inf}, [], "hardware", "io_ms_per_invocation"),
            ("run", {"io_ms_per_invocation": math.nan}, [], "hardware", "io_ms_per_invocation"),
            ("run", {"compute_c_row": math.nan}, [], "hardware", "compute_c_row"),
            ("run", None, ["model.concentration=NaN"], "model", "concentration"),
            ("run", None, ["model.concentration=Infinity"], "model", "concentration"),
            ("run", None, ["draft.noise_concentration=NaN"], "draft", "noise_concentration"),
            # an integer too large for a float
            ("run", None, ["model.concentration=1" + "0" * 400], "model", "concentration"),
            (
                "train-predictor", None, ['model.type="layered"', "training.tau_kd=NaN"],
                "training", "tau_kd",
            ),
        ],
        ids=[
            "hardware-io-inf", "hardware-io-nan", "hardware-c-row-nan", "concentration-nan",
            "concentration-inf", "noise-concentration-nan", "concentration-huge-int",
            "train-tau-kd-nan",
        ],
    )
    def test_non_finite_value_is_clean_error(
        self, tmp_path, capsys, command, hardware, overrides, where, key
    ):
        # JSON parsing, of a config file or of a --set value, accepts NaN and
        # Infinity; let through, they crash a run, write NaN metrics into an
        # invalid report.json or pass for diverged training
        payload = {"trials": 1, "horizon": 4}
        if hardware is not None:
            payload["hardware"] = {**load_preset("llama31-8b").to_dict(), **hardware}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid {where} config: {key}=")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ('model.seed="x"', "invalid model config: seed='x' is not int"),
            ("drafting.k=1.5", "invalid drafting config: k=1.5 is not int"),
            (
                'model.concentration="x"',
                "invalid model config: concentration='x' is not float",
            ),
            # negative seeds would reach numpy's seeding as a traceback
            ("seed=-1", "seed must be >= 0"),
            ("model.seed=-1", "model seed must be >= 0"),
            ("draft.noise_seed=-1", "draft noise_seed must be >= 0"),
            ("training.seed=-1", "training seed must be >= 0"),
            ("projection_mode=bogus", "unknown projection mode 'bogus'"),
        ],
    )
    def test_ill_typed_value_is_clean_error(self, capsys, override, message):
        rc = cli_main(["run", "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                ["policy=lever", 'model.type="layered"', "predictor_examples=0"],
                "predictor_examples must be >= 1",
            ),
            (["policy=lever", "drafting.k=64"], "drafting.k=64 exceeds vocab_size=32"),
            (
                ["policy=lever_noprune", "drafting.k=64"],
                "drafting.k=64 exceeds vocab_size=32",
            ),
            (
                ["policy=balanced_tree", "balanced_fanout=64"],
                "balanced_fanout=64 exceeds vocab_size=32",
            ),
            (
                # a first level of 4 nodes would overrun the 3-node budget
                ["policy=balanced_tree", "balanced_fanout=4", "balanced_budget=3"],
                "balanced_fanout=4 exceeds balanced_budget=3",
            ),
            (["policy=chain_sd", "chain_length=0"], "chain length must be >= 1"),
            (
                ["policy=balanced_tree", "balanced_budget=0"],
                "fanout and node_budget must be >= 1",
            ),
            (
                ["policy=balanced_tree", "balanced_fanout=0"],
                "fanout and node_budget must be >= 1",
            ),
            (["policy=lever", "drafting.max_nodes=0"], "max_nodes must be >= 1"),
            (["policy=lever", "drafting.max_nodes=-3"], "max_nodes must be >= 1"),
        ],
        ids=[
            "no-examples", "lever-k", "lever-noprune-k", "balanced-fanout",
            "balanced-fanout-over-budget",
            "chain-length-zero", "balanced-budget-zero", "balanced-fanout-zero",
            "node-budget-zero", "node-budget-negative",
        ],
    )
    def test_size_beyond_its_bound_is_clean_error(self, capsys, overrides, message):
        argv = ["run", "--set", "trials=1"]
        for item in overrides:
            argv += ["--set", item]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("policy", ["chain_sd", "balanced_tree", "lever"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("drafting.beta", 0.9, "unknown drafting config keys: ['beta']"),
            ("drafting.r_min", 0.05, "unknown drafting config keys: ['r_min']"),
            ("drafting.cost_floor_ms", 0.01, "unknown drafting config keys: ['cost_floor_ms']"),
            ("pruning.tau", 1.0, "unknown config keys: ['pruning']"),
            ("pruning.theta", 0.1, "unknown config keys: ['pruning']"),
            ("profile_max_nodes", 96, "unknown config keys: ['profile_max_nodes']"),
            ("profile_max_leaves", 32, "unknown config keys: ['profile_max_leaves']"),
        ],
    )
    def test_stale_config_naming_a_removed_key_is_clean_error(
        self, tmp_path, capsys, policy, key, value, message
    ):
        # each key names an engine constant: a config that still names
        # one, even at the constant's value, stops before any trial runs,
        # also under a policy that never reads the drafting section
        stale = apply_overrides(
            json.loads((ROOT / "configs" / "lever_default.json").read_text()),
            [f"{key}={value}", f"policy={policy}", "trials=1", "horizon=4", "out_dir=null"],
        )
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(stale))
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_train_predictor_outputs_are_pinned(self, tmp_path, capsys):
        """Digests of a small layered probe's checkpoint and loss curve, and
        the summary line, so a change to training rounding fails here.
        Recorded with numpy 2.4 and OpenBLAS 0.3 on x86-64; another BLAS
        kernel may round otherwise."""
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(
            json.dumps(
                {"model": {"type": "layered"}, "predictor_examples": 300,
                 "training": {"epochs": 2}}
            )
        )
        out = tmp_path / "pred"
        assert cli_main(
            ["train-predictor", "--config", str(cfg_path), "--out", str(out)]
        ) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("predictor.json", "loss_curve.csv")
        }
        assert digests == {
            "predictor.json":
                "7b323324ce2f50a5b8cb2f25032a67d7fe0579a81164d6bd1bcdf52dd7bfdc42",
            "loss_curve.csv":
                "672fccd75a00f8e1306c3e2032814fea48bc749c1ad57692d9f220d87dc67b16",
        }
        # SGD from the closed-form fit converges after one of the two epochs
        assert capsys.readouterr().out.splitlines()[0] == (
            "trained predictor: loss 1.4590 -> 1.4581 after 1 of 2 epochs"
        )

    def test_partial_drafting_override_keeps_the_experiment_defaults(self, tmp_path):
        """``--set drafting.k=4`` names the default k, so a config-less run
        with it writes the bytes of the run without it: the drafting keys it
        does not name keep the experiment's defaults, not DraftConfig's."""
        out = tmp_path / "out"
        argv = ["run", "--out", str(out), "--set", "trials=1", "--set", "horizon=16"]
        names = ("report.json", "report.csv", "trace.json", "trace.csv")
        assert cli_main(argv) == 0
        plain = {name: (out / name).read_bytes() for name in names}
        assert cli_main(argv + ["--set", "drafting.k=4"]) == 0
        assert {name: (out / name).read_bytes() for name in names} == plain

    def test_unknown_nested_override_is_clean_error(self, capsys):
        rc = cli_main(["run", "--set", "drafting.typo=1"])
        assert rc == 2
        assert "error: unknown drafting config keys: ['typo']" in capsys.readouterr().err
