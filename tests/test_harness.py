import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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
    priced_grid,
    run_experiment,
    run_trial,
    seed_profile,
    train_predictor_for,
)
from flashspec.predictor import EarlyExitPredictor, load_checkpoint, save_checkpoint
from flashspec.simulator import HardwareConfig, load_preset, verify_latency
from helpers import tree_json

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
            for section in ("model", "draft", "drafting", "pruning", "training", "hardware")
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

    def test_shipped_and_benchmark_configs_load(self, monkeypatch):
        shipped = ROOT / "configs" / "lever_default.json"
        ExperimentConfig.from_dict(json.loads(shipped.read_text()))
        monkeypatch.syspath_prepend(str(ROOT))
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

    def test_report_outputs_are_pinned(self, tmp_path):
        """Digests of the four files a short run of the shipped config
        writes, so a writer change that moves a byte fails here.  Recorded
        with numpy 2.4 on x86-64."""
        shipped = json.loads((ROOT / "configs" / "lever_default.json").read_text())
        cfg = replace(
            ExperimentConfig.from_dict(shipped), trials=2, horizon=32, out_dir=None
        )
        report, results = run_experiment(cfg)
        report.write(str(tmp_path), traces=[r.trace for r in results])
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("report.json", "report.csv", "trace.json", "trace.csv")
        }
        assert digests == {
            "report.json":
                "e69a301f71a0ca6e9b741518697d2b9fc36a936be1575e40017a6c7c65bc35e7",
            "report.csv":
                "3f351eb2d4b3ab4f421018a9cde3fa5bd8b6a07579caec8b682360e019c0d9d1",
            "trace.json":
                "9a2a1bc9da89d67d9ed6d3e27494b3f4581d9e1459ef14f83466a7ec0b7a71f4",
            "trace.csv":
                "dc5e8bbb97883490b7920ba3f0be453a230e706fe5f76fe021a4f246bf41305a",
        }


class TestGainCostDraftCost:
    def test_lever_plans_with_the_hardware_draft_latency(self):
        hw = replace(load_preset("llama31-8b"), draft_cpu_ms=5.0)
        cfg = small_cfg(policy="lever", hardware=hw)
        target = make_target(cfg.model, 0)
        draft = make_draft(cfg, target, 0)
        context = make_context(cfg, 0)
        got = make_policy(cfg, draft, hw, seed_profile(cfg, hw)).build(context)
        want = build_tree(
            context, draft, cfg.drafting, cfg.drafting.reliability(),
            seed_profile(cfg, hw), draft_ms=5.0,
        )
        assert tree_json(got.tree) == tree_json(want.tree)
        assert got.stop == want.stop
        assert got.estimate.draft_cost == 5.0 * len(got.expansion_counts)


class TestProfileGrid:
    def test_every_trial_and_lever_policy_shares_one_profile(self, monkeypatch):
        used = []
        original = harness.seed_profile

        def recording(cfg, hw):
            used.append(original(cfg, hw))
            return used[-1]

        monkeypatch.setattr(harness, "seed_profile", recording)
        for policy in ("lever", "lever_noprune"):
            run_experiment(small_cfg(policy=policy, horizon=8))
        assert len(used) == 4
        assert all(profile is used[0] for profile in used)

    def test_lookup_is_the_simulator_price(self):
        cfg = small_cfg()
        hw = cfg.resolve_hardware()
        profile = seed_profile(cfg, hw)
        max_nodes, max_leaves = cfg.profile_max_nodes, cfg.profile_max_leaves
        for nodes, leaves in profile.entries():
            assert profile.lookup((nodes, leaves)) == verify_latency(hw, nodes, leaves)
        # off the grid: the nearest grid shape's price times the miss penalty
        for (nodes, leaves), nearest in (
            ((max_nodes + 5, 3), (max_nodes, 3)),
            ((max_leaves + 10, max_leaves + 4), (max_leaves + 10, max_leaves)),
        ):
            assert profile.lookup((nodes, leaves)) == (
                verify_latency(hw, *nearest) * MISS_PENALTY
            )

    def test_a_trial_leaves_its_profile_unchanged(self, monkeypatch):
        # A one-shape grid, so verified shapes lie outside it.
        cfg = small_cfg(policy="lever", profile_max_nodes=1, profile_max_leaves=1)
        hw = cfg.resolve_hardware()
        profile = seed_profile(cfg, hw)
        before = profile.entries()
        monkeypatch.setattr(harness, "seed_profile", lambda cfg, hw: profile)
        result = run_trial(cfg, 0)
        verified = {(c.rows_verified, c.leaves_verified) for c in result.decode.cycles}
        assert verified - set(before)
        assert profile.entries() == before

    def test_trial_alone_equals_trial_after_earlier_trials(self):
        # A one-shape grid: every drafted tree is a miss, and the trials
        # share the grid and its nearest-shape memo.
        cfg = small_cfg(
            policy="lever", trials=4, profile_max_nodes=1, profile_max_leaves=1
        )
        priced_grid.cache_clear()
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

    def test_lever_vs_noprune_same_tokens_different_latency(self):
        # sum overlap makes the early-exit compute saving visible
        hw = replace(
            __import__("flashspec.simulator", fromlist=["load_preset"]).load_preset(
                "llama31-8b"
            ),
            overlap="sum",
        )
        base = small_cfg(hardware=hw, trials=1, horizon=32)
        _, lever = run_experiment(replace(base, policy="lever"))
        _, noprune = run_experiment(replace(base, policy="lever_noprune"))
        assert lever[0].emitted == noprune[0].emitted
        assert lever[0].trace.total_ms < noprune[0].trace.total_ms

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

    def test_train_predictor_checkpoint_is_the_trial_zero_probe(
        self, tmp_path, monkeypatch
    ):
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

        trained = []

        def recording(*args):
            pred, curve = train_predictor_for(*args)
            trained.append(pred)
            return pred, curve

        monkeypatch.setattr(harness, "train_predictor_for", recording)
        run_trial(cfg, 0)
        assert len(trained) == 1
        assert np.array_equal(saved.weights, trained[0].weights)
        assert saved.layer == trained[0].layer

    @pytest.mark.parametrize(
        "vocab_size, hidden_dim, layer", [(12, 8, 2), (16, 6, 2), (16, 8, 3)]
    )
    def test_mismatched_checkpoint_rejected(self, tmp_path, vocab_size, hidden_dim, layer):
        path = str(tmp_path / "predictor.json")
        save_checkpoint(EarlyExitPredictor.zeros(vocab_size, hidden_dim, layer), path)
        cfg = small_cfg(
            policy="lever",
            model=ModelSpec(type="layered", vocab_size=16, order=2, seed=4,
                            depth=4, hidden_dim=8),
            predictor_checkpoint=path,
        )
        target = make_target(cfg.model, 0)
        with pytest.raises(ConfigError, match="checkpoint"):
            make_pruner(cfg, target, make_draft(cfg, target, 0), 0)
        # the matching shape loads
        save_checkpoint(EarlyExitPredictor.zeros(16, 8, 2), path)
        assert make_pruner(cfg, target, make_draft(cfg, target, 0), 0) is not None

    def test_checkpoint_rejected_after_trial_zero(self, tmp_path):
        path = str(tmp_path / "predictor.json")
        save_checkpoint(EarlyExitPredictor.zeros(16, 8, 2), path)
        cfg = small_cfg(
            policy="lever",
            trials=2,
            model=ModelSpec(type="layered", vocab_size=16, order=2, seed=4,
                            depth=4, hidden_dim=8),
            predictor_checkpoint=path,
        )
        target = make_target(cfg.model, 1)
        with pytest.raises(ConfigError, match="fits trial 0's target"):
            make_pruner(cfg, target, make_draft(cfg, target, 1), 1)
        with pytest.raises(ConfigError, match="trial 1's target"):
            run_experiment(cfg)

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
            (
                None,
                LAYERED_LEVER + ["--set", "predictor_checkpoint={path}"],
                "cannot read predictor checkpoint {path}: FileNotFoundError",
            ),
            (
                '{"vocab_size": 32, "layer": 3, "weights": []}',
                LAYERED_LEVER + ["--set", "predictor_checkpoint={path}"],
                "cannot read predictor checkpoint {path}: KeyError: 'hidden_dim'",
            ),
        ],
        ids=[
            "missing-config", "invalid-json", "json-list",
            "missing-checkpoint", "checkpoint-without-hidden-dim",
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

    def test_checkpoint_on_tabular_model_is_clean_error(self, tmp_path, capsys):
        # a tabular target prunes with its exact probe, which would ignore
        # the checkpoint without a word
        path = tmp_path / "missing.json"
        rc = cli_main(["run", "--set", "policy=lever", "--set", f"predictor_checkpoint={path}",
                       "--set", "trials=1", "--set", "horizon=4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: predictor_checkpoint needs a layered model")
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
            (["policy=chain_sd", "chain_length=0"], "chain length must be >= 1"),
            (
                ["policy=balanced_tree", "balanced_budget=0"],
                "fanout and node_budget must be >= 1",
            ),
            (
                ["policy=balanced_tree", "balanced_fanout=0"],
                "fanout and node_budget must be >= 1",
            ),
        ],
        ids=[
            "no-examples", "lever-k", "lever-noprune-k", "balanced-fanout",
            "chain-length-zero", "balanced-budget-zero", "balanced-fanout-zero",
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
        "override, message",
        [
            ("drafting.beta=1.5", "beta must lie in (0, 1)"),
            ("drafting.beta=0", "beta must lie in (0, 1)"),
            ("drafting.r_min=0", "r_min must lie in (0, 1]"),
            ("drafting.r_min=1.5", "r_min must lie in (0, 1]"),
        ],
    )
    def test_bad_drafting_feedback_knob_is_clean_error_for_every_policy(
        self, capsys, policy, override, message
    ):
        rc = cli_main(["run", "--policy", policy, "--set", override, "--set", "trials=1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    def test_train_predictor_outputs_are_pinned(self, tmp_path):
        """Digests of a small layered probe's checkpoint and loss curve, so
        a change to training rounding fails here.  Recorded with numpy 2.4
        and OpenBLAS 0.3 on x86-64; another BLAS kernel may round otherwise."""
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
                "6c03b08782724010d831e074352d6c4b66491e77ebd6e00cac7237f128ebb3d4",
            "loss_curve.csv":
                "5b0d55326124add5342e6d7d1a8bd3f48af84fd1020e331f3d54a465945ab9a5",
        }

    def test_unknown_nested_override_is_clean_error(self, capsys):
        rc = cli_main(["run", "--set", "drafting.typo=1"])
        assert rc == 2
        assert "error: unknown drafting config keys: ['typo']" in capsys.readouterr().err
