"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest flashbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from flashbench import run as bench
from flashbench.tracing import Tracer
from flashbench.workloads import ROOT, WORKLOADS, make_configs

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_PY = ROOT / "flashbench" / "run.py"


@pytest.fixture(scope="module", autouse=True)
def flashspec_on_path():
    bench.import_flashspec()


def test_benchmark_json_lists_the_workloads_and_their_reasons():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split(" ")[0] == name and line.endswith(f" {unit}") for line in lines)


def test_traced_round_leaves_no_wrapper_behind():
    tracer = Tracer()
    owners = list({id(owner): owner for owner, _, _ in tracer._patches()}.values())
    before = [dict(vars(owner)) for owner in owners]
    rnd = bench.timed_round(make_configs("tabular-io", 0, tiny=True), tracer)
    assert tracer.spans and all(run.report is not None for run in rnd.runs)
    for owner, saved in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == saved.keys()
        leaked = [name for name in saved if after[name] is not saved[name]]
        assert not leaked, f"{owner!r}: {leaked}"


def test_corrupted_token_stream_counts_as_failed_trial():
    configs = make_configs("compute-bound-short", 0, tiny=True)
    run = bench.run_round(configs, traced=False).run("lever")
    oracle = bench.Oracle()
    assert bench.failed_trials(run, oracle) == 0
    emitted = run.results[0].emitted
    emitted[-1] = (emitted[-1] + 1) % run.cfg.model.vocab_size
    assert bench.failed_trials(run, oracle) == 1
    raised = bench.PolicyRun("lever", run.cfg, tokens=0)
    assert bench.failed_trials(raised, oracle) == run.cfg.trials


def test_fails_without_a_flashspec_checkout():
    bench.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "flashbench", bare / "flashbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "flashbench/run.py", "--workload", "tabular-io", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=bare,
        )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
