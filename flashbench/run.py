"""flashspec benchmark: one workload, one seed, one run.

    python3 flashbench/run.py --workload tabular-io --seed 0 --seconds 15 --trace 0

A run is a closed loop in one single-threaded process: it repeats rounds
back to back until ``--seconds`` have passed (at least one round).  A round
calls ``run_experiment`` once per drafting policy (``lever``,
``lever_noprune``, ``balanced_tree``, ``chain_sd``) on configs generated from
``configs/lever_default.json``, the workload and the seed.  ``flash_ar`` is
not run: ``speedup_vs_flash_ar`` is analytic.

``--trace 0`` times untraced rounds and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced rounds of the ``lever`` policy
alone and prints its per-layer metrics; spans and counts go to
``.flashbench/trace-<workload>-seed<n>.json``.

Correctness is checked outside the timed region: every trial's emitted
tokens must equal ``target_greedy_decode`` for its target, context and
horizon, and every round (traced or not) must write byte-identical
``report.json``, ``report.csv`` and ``trace.json`` files.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS and OpenMP read these once, when numpy loads; one thread keeps host
# timings about the engine rather than the thread pool.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if __name__ == "__main__":
    for _var in THREAD_VARS:
        os.environ[_var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from flashbench.calibrate import STARTUP_NOMINAL_S, Calibrator, time_startup
from flashbench.tracing import Tracer, layer_metrics
from flashbench.workloads import BASE_CONFIG, ROOT, SRC, WORKLOADS, make_configs

OUT_DIR = ROOT / ".flashbench"
SETUP_SAMPLES = 9
REPORT_FILES = ("report.json", "report.csv", "trace.json")


def import_flashspec() -> None:
    """Import flashspec from the checkout's ``src``, never from elsewhere."""
    for needed in (SRC / "flashspec" / "__init__.py", BASE_CONFIG):
        if not needed.is_file():
            raise SystemExit(f"flashbench: {needed} is missing; run from a flashspec checkout")
    sys.path.insert(0, str(SRC))
    import flashspec

    if Path(flashspec.__file__).resolve().parent != SRC / "flashspec":
        raise SystemExit(f"flashbench: imported flashspec from {flashspec.__file__}, not {SRC}")


@dataclass
class PolicyRun:
    policy: str
    cfg: Any
    tokens: int
    report: Any = None                   # None when run_experiment raised or released
    results: Any = None                  # dropped once checked, except traced lever
    seconds: float = 0.0                 # wall seconds inside run_trial
    cal_seconds: float = 0.0             # the same, calibrated (see calibrate.py)


@dataclass
class Round:
    traced: bool
    runs: list[PolicyRun]

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.runs)

    @property
    def cal_seconds(self) -> float:
        return sum(r.cal_seconds for r in self.runs)

    @property
    def tokens(self) -> int:
        return sum(r.tokens for r in self.runs)

    def run(self, policy: str) -> PolicyRun:
        return next(r for r in self.runs if r.policy == policy)

    def release(self, keep_reports: bool) -> None:
        """Drop what no metric needs once the round is checked, so memory
        does not grow with the number of rounds."""
        for run in self.runs:
            if not keep_reports:
                run.report = None
            if not (self.traced and run.policy == "lever"):
                run.results = None


def run_round(configs: dict[str, Any], traced: bool) -> Round:
    from flashspec.harness import run_experiment

    runs = []
    for policy, cfg in configs.items():
        try:
            report, results = run_experiment(cfg)
        except Exception:
            traceback.print_exc()
            report = results = None
        tokens = sum(len(r.emitted) for r in results or ())
        runs.append(PolicyRun(policy, cfg, tokens, report, results))
    return Round(traced, runs)


def timed_round(configs: dict[str, Any], tracer: Tracer | None) -> Round:
    """One round, traced when ``tracer`` is given; trial times come from the
    calibrator, which sits outside the tracer so its reference loop lands
    in no span."""
    calibrator = Calibrator()
    if tracer is not None:
        with tracer.installed(), calibrator.installed():
            rnd = run_round(configs, traced=True)
    else:
        with calibrator.installed():
            rnd = run_round(configs, traced=False)
    seconds = calibrator.seconds()
    for run in rnd.runs:
        run.seconds, run.cal_seconds = seconds.get(run.policy, (0.0, 0.0))
    return rnd


def measure_setup(workload: str, seed: int, tiny: bool, samples: int) -> tuple[float, float]:
    """(calibrated, wall) median seconds from process start to configs
    ready, over fresh interpreters that do exactly the set-up a run does
    before its first trial: import flashspec, load the config and preset,
    build the configs.  Each sample is preceded by a start-up reference
    (see calibrate.py)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    times, refs = [], []
    for _ in range(samples):
        refs.append(time_startup())
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    wall = statistics.median(times)
    return wall * STARTUP_NOMINAL_S / statistics.median(refs), wall


class Oracle:
    """Greedy target continuations, cached so that every policy and round
    of a workload shares them."""

    def __init__(self) -> None:
        self._cache: dict[tuple, list[int]] = {}

    def expected(self, cfg: Any, trial: int) -> list[int]:
        from flashspec.harness import make_context, make_target
        from flashspec.models import target_greedy_decode

        key = (cfg.model, cfg.seed, cfg.context_len, cfg.horizon, trial)
        if key not in self._cache:
            target = make_target(cfg.model, trial)
            self._cache[key] = target_greedy_decode(
                target, make_context(cfg, trial), cfg.horizon
            )
        return self._cache[key]


def failed_trials(run: PolicyRun, oracle: Oracle) -> int:
    """Trials that raised or whose emitted tokens differ from greedy decoding."""
    if run.report is None:
        return run.cfg.trials
    return sum(r.emitted != oracle.expected(run.cfg, r.trial) for r in run.results)


def digests(run: PolicyRun, scratch: Path) -> dict[str, str]:
    """SHA-256 of the files ``Report.write`` produces for this policy run."""
    if run.report is None:
        return {}
    out = scratch / run.policy
    run.report.write(str(out), traces=[r.trace for r in run.results])
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPORT_FILES
    }


def round_digests(rnd: Round, scratch: Path) -> dict[str, dict[str, str]]:
    return {run.policy: digests(run, scratch) for run in rnd.runs}


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics over the untraced rounds."""
    timed = [r for r in rounds if not r.traced]
    first = timed[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "host_tokens_per_s": (
            statistics.median(r.tokens / r.cal_seconds for r in timed), "tokens/cal_s"
        ),
        "host_tokens_per_s.lever": (
            statistics.median(r.run("lever").tokens / r.run("lever").cal_seconds for r in timed),
            "tokens/cal_s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for run in first.runs:
        if run.report is not None:
            metrics[f"sim_speedup.{run.policy}"] = (
                run.report.aggregate["speedup_vs_flash_ar"], "x"
            )
    return metrics


def per_layer(rounds: list[Round], tracer: Tracer) -> dict[str, tuple[float, str]]:
    traced = [(i, r) for i, r in enumerate(rounds) if r.traced]
    lever_trials = [
        (i, t) for i, r in traced if r.run("lever").results for t in r.run("lever").results
    ]
    hw = traced[0][1].run("lever").cfg.resolve_hardware()
    metrics = layer_metrics(tracer, lever_trials, hw)
    untraced_s = statistics.median(r.cal_seconds for r in rounds if not r.traced)
    traced_s = statistics.median(r.cal_seconds for _, r in traced)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    return metrics


def environment() -> str:
    import numpy

    threads = " ".join(f"{v}={os.environ.get(v, '')}" for v in THREAD_VARS)
    return (
        f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} {threads}"
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (>= 0); offsets the model, draft and context seeds")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum timed seconds; whole rounds only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every trial (self-tests only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_flashspec()
    configs = make_configs(args.workload, args.seed, tiny=args.tiny)
    for cfg in configs.values():
        cfg.resolve_hardware()
    if args.trace:
        # Per-layer metrics describe lever only, and the untraced lever
        # rounds are the reference for overhead and byte-identity.
        configs = {"lever": configs["lever"]}
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print(environment())
    if not args.trace:
        setup_s, setup_wall_s = measure_setup(
            args.workload, args.seed, args.tiny, 1 if args.tiny else SETUP_SAMPLES
        )
        print(f"setup wall_s={setup_wall_s!r}")

    # Warm-up: one short trial per policy, so lazy imports and first-call
    # costs land outside the timed rounds.
    run_round(make_configs(args.workload, args.seed, tiny=True), traced=False)

    # Rounds run back to back; each is checked right after it ends, outside
    # the timed region: losslessness against greedy decoding, and the digests
    # of the files Report.write produces, which must match the first round's.
    tracer = Tracer()
    oracle = Oracle()
    rounds: list[Round] = []
    sums: list[dict[str, dict[str, str]]] = []
    attempted = failed = 0
    timed_s = 0.0
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            tracer.round = len(rounds)
            rnd = timed_round(configs, tracer if traced else None)
            timed_s += rnd.seconds
            attempted += sum(run.cfg.trials for run in rnd.runs)
            failed += sum(failed_trials(run, oracle) for run in rnd.runs)
            sums.append(round_digests(rnd, Path(tmp) / str(len(rounds))))
            rnd.release(keep_reports=not rounds)
            rounds.append(rnd)
            if timed_s >= args.seconds and (not args.trace or len(rounds) >= 2):
                break
    identical = all(s == sums[0] for s in sums)
    correct = failed == 0 and identical

    for policy, files in sums[0].items():
        for name, digest in files.items():
            print(f"sha256 {args.workload} {policy}/{name} {digest}")
    workload_digest = hashlib.sha256(json.dumps(sums[0], sort_keys=True).encode()).hexdigest()
    print(f"sha256 {args.workload} all {workload_digest}")
    print(f"rounds: {len(rounds)} ({sum(r.traced for r in rounds)} traced); "
          f"digests identical across rounds: {identical}")
    for r in rounds:
        lever = r.run("lever")
        print(f"round traced={int(r.traced)} wall_s={r.seconds!r} cal_s={r.cal_seconds!r} "
              f"tokens={r.tokens} lever_wall_s={lever.seconds!r} lever_tokens={lever.tokens}")
    print(f"failed_trial_frac {failed / attempted!r} frac ({failed}/{attempted})")

    if args.trace:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(rounds, tracer) if correct else {}
    else:
        metrics = end_to_end(rounds, setup_s) if correct else {}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
