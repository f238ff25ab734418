"""Machine-speed calibration for host timings.

The CPU speed a process gets on a shared host drifts by up to 2x over
seconds to minutes, while process CPU time tracks wall time, so neither
clock alone gives steady host timings.  Two references, both the
benchmark's own and untouched by any flashspec change, rescale them:

- trials: the calibrator runs a fixed reference loop between trials and
  rescales each trial's wall time by the loop's speed around it.  A
  calibrated second ("cal_s") is the wall time the trial would take on a
  host where one reference loop takes ``REF_NOMINAL_S``;
- set-up: a fresh interpreter that only imports numpy, timed next to each
  set-up sample; set-up seconds are rescaled to a host where that takes
  ``STARTUP_NOMINAL_S``.  Process start-up does not slow down in step with
  the reference loop, so it needs a reference of its own kind.
"""

from __future__ import annotations

import functools
import gc
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

import numpy as np

REF_NOMINAL_S = 0.01                     # one reference loop, 2-core x86 host
REF_INTERVAL_S = 0.25                    # trial seconds between reference samples
STARTUP_NOMINAL_S = 0.1                  # python -c "import numpy", same host
STARTUP_REFERENCE = [sys.executable, "-c", "import numpy"]
_REF_MATRIX = np.random.default_rng(0).standard_normal((32, 32))


def reference_loop(n: int = 1600) -> float:
    """Fixed mix of the work the engine does: small-vector argsorts, tuple
    keyed dict updates and short keyed sorts."""
    acc = 0.0
    table: dict[tuple[int, int], int] = {}
    for i in range(n):
        acc += float(np.argsort(-_REF_MATRIX[i % 32], kind="stable")[0])
        key = (i % 97, i % 31)
        table[key] = table.get(key, 0) + 1
        acc += sorted(((i * 7919) % 101, (i * 104729) % 103, i % 107), key=lambda x: -x)[0]
    return acc + len(table)


def time_reference() -> float:
    # With the collector on, the loop would also pay for scanning whatever
    # the engine left on the heap, which is not machine speed.
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        gc.enable()


def time_startup() -> float:
    start = perf_counter()
    subprocess.run(STARTUP_REFERENCE, check=True, timeout=60)
    return perf_counter() - start


class Calibrator:
    """Times every ``run_trial`` call of a round and samples the reference
    loop between trials, outside the trial timings."""

    def __init__(self) -> None:
        self.events: list[tuple[str, float]] = []   # ("ref", s) or (policy, s)
        self._since_ref = 0.0

    def _sample(self) -> None:
        self.events.append(("ref", time_reference()))
        self._since_ref = 0.0

    @contextmanager
    def installed(self) -> Iterator["Calibrator"]:
        from flashspec import harness

        inner = harness.run_trial

        @functools.wraps(inner)
        def timed_trial(cfg, trial, *args, **kwargs):
            if self._since_ref >= REF_INTERVAL_S:
                self._sample()
            start = perf_counter()
            out = inner(cfg, trial, *args, **kwargs)
            elapsed = perf_counter() - start
            self.events.append((cfg.policy, elapsed))
            self._since_ref += elapsed
            return out

        self._sample()
        harness.run_trial = timed_trial
        try:
            yield self
        finally:
            harness.run_trial = inner
            self._sample()

    def seconds(self) -> dict[str, tuple[float, float]]:
        """Per policy: (wall seconds, calibrated seconds) over all trials.

        Each trial is rescaled by the mean of the reference samples taken
        just before and just after it."""
        refs = [i for i, (kind, _) in enumerate(self.events) if kind == "ref"]
        out: dict[str, list[float]] = {}
        for before, after in zip(refs, refs[1:]):
            speed = REF_NOMINAL_S / ((self.events[before][1] + self.events[after][1]) / 2)
            for policy, elapsed in self.events[before + 1 : after]:
                wall, cal = out.setdefault(policy, [0.0, 0.0])
                out[policy] = [wall + elapsed, cal + elapsed * speed]
        return {policy: (wall, cal) for policy, (wall, cal) in out.items()}
