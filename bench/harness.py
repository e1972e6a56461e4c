"""One benchmark run: set-up, the timed fit calls, output checks, metrics.

Import this only after ``run.load_program()``, which pins the BLAS threads
and puts the checkout's ``src`` first on the import path.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import layers
import workloads
from smlsom import Dataset, FitConfig, ari

SETUP_REPEATS = 3
WARM_UP_ROWS = 200


def check_fit(result, n: int) -> list[str]:
    """Problems with one fit result; empty when it is well formed."""
    problems = []
    m = np.asarray(result.assignment.m)
    if m.shape != (n,):
        problems.append(f"assignment has shape {m.shape}, expected ({n},)")
    dead = set(np.unique(m).tolist()) - set(result.graph.nodes)
    if dead:
        problems.append(f"assignment uses nodes not in the graph: {sorted(dead)[:5]}")
    if not result.n_clusters == len(result.params) == len(result.graph):
        problems.append(
            f"n_clusters {result.n_clusters}, {len(result.params)} params, {len(result.graph)} graph nodes"
        )
    if not math.isfinite(result.mdl.total):
        problems.append(f"mdl_total is {result.mdl.total}")
    for rec in result.trace:
        if rec.node_deleted is not None and not rec.mdl < rec.mdl_before_delete:
            problems.append(
                f"cycle {rec.cycle}: deleting node {rec.node_deleted} took MDL "
                f"{rec.mdl_before_delete} to {rec.mdl}"
            )
    return problems


def same_fit(a, b) -> bool:
    """Two fits agree exactly: assignment, MDL total and cycle count."""
    return (
        np.array_equal(a.assignment.m, b.assignment.m)
        and a.mdl.total == b.mdl.total
        and len(a.trace) == len(b.trace)
    )


class Tally:
    """Fits attempted and failed. A fit fails when it raises or when a check
    on its output fails; the run goes on either way. Only a failed check
    makes the run's output incorrect: a fit that raised returned nothing to
    be wrong about, and is counted in ``failed`` alone."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def fail(self, why: str, wrong: bool = True):
        self.failed += 1
        self.wrong += wrong
        print(f"failed fit: {why}", file=sys.stderr)

    def fit(self, workload, inp, jobs=None):
        """(result or None if it failed, wall seconds) of one fit call."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = workloads.call(workload, inp, jobs)
        except Exception:
            seconds = time.perf_counter() - start
            self.fail(traceback.format_exc(), wrong=False)
            return None, seconds
        seconds = time.perf_counter() - start
        problems = check_fit(result, inp.data.n)
        if problems:
            self.fail("; ".join(problems))
            return None, seconds
        return result, seconds

    def agree(self, result, reference, what: str):
        """Fail ``result`` unless it equals ``reference`` exactly."""
        if result is None or reference is None or same_fit(result, reference):
            return result
        self.fail(f"{what} differs from the first fit of the same input")
        return None


def set_up(workload, seed: int):
    """Build the inputs and make one small warm-up fit, so that first-call
    costs are paid here and not in the first timed call."""
    inputs = [workload.make(seed, j) for j in range(workload.inputs)]
    first = inputs[0]
    warm = FitConfig(family=first.config.family, rows=2, cols=2, seed=0)
    workloads.driver.smlsom_fit(Dataset(first.data.values[:WARM_UP_ROWS]), warm)
    return inputs


def timed_passes(workload, inputs, budget: float, tally: Tally):
    """Fit every input once, then keep cycling through the inputs until
    ``budget`` seconds have passed. A refit must equal the first fit.

    Returns the first pass's results and wall seconds, and the seconds of
    every call that succeeded.
    """
    first, first_seconds, seconds = [], [], []
    start = time.perf_counter()
    k = 0
    while k < len(inputs) or time.perf_counter() - start < budget:
        j = k % len(inputs)
        result, sec = tally.fit(workload, inputs[j])
        if k < len(inputs):
            first.append(result)
            first_seconds.append(sec)
            if result is not None:
                print(
                    f"{workload.name} input {j}: {sec:.3f} s, M={result.n_clusters}, "
                    f"cycles={len(result.trace)}, mdl={result.mdl.total:.6g}",
                    file=sys.stderr,
                )
        else:
            result = tally.agree(result, first[j], "refit")
        if result is not None:
            seconds.append(sec)
        k += 1
    return first, first_seconds, seconds


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def run(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """One run; returns the result object the benchmark prints."""
    setups, calibrate, sample = [], [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = set_up(workload, seed)
        setups.append(time.perf_counter() - start)
        calibrate.append(sum(inp.calibrate_s for inp in inputs))
        sample.append(sum(inp.sample_s for inp in inputs))

    tally = Tally()
    first, first_seconds, fit_seconds = timed_passes(workload, inputs, seconds / 2 if trace else seconds, tally)
    done = [(inp, r) for inp, r in zip(inputs, first) if r is not None]

    if not trace:
        metrics = {
            "fit_s": (_median(fit_seconds), "s"),
            "setup_s": (import_s + _median(setups), "s"),
            "ari_vs_bayes": (
                _median([ari(inp.labels, r.assignment.m) / ari(inp.labels, inp.bayes) for inp, r in done]),
                "ratio",
            ),
            "mdl_gain_share": (
                _median([(inp.mdl_one - r.mdl.total) / (inp.mdl_one - inp.mdl_ref) for inp, r in done]),
                "ratio",
            ),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        return _result(tally, metrics)

    untraced_s = sum(first_seconds)  # the same inputs as the traced pass
    efficiency = 1.0  # one fit per call: nothing runs in parallel
    if workload.jobs > 1:
        serial_s = 0.0
        for inp, ref in zip(inputs, first):
            result, sec = tally.fit(workload, inp, jobs=1)
            tally.agree(result, ref, "serial restarts")
            serial_s += sec
        efficiency = serial_s / (workload.jobs * untraced_s)
        untraced_s = serial_s  # traced restarts run serially too

    tracer = layers.Tracer()
    traced_s = 0.0
    with layers.traced(tracer):
        for inp, ref in zip(inputs, first):
            since = len(tracer.spans)
            result, sec = tally.fit(workload, inp, jobs=1)
            traced_s += sec
            if tally.agree(result, ref, "traced fit") is not None and tracer.phase_seconds(since) > sec:
                tally.fail("phase spans sum to more than the traced fit wall time")

    calls = len(inputs)
    metrics = layers.layer_metrics(tracer, calls, traced_s)
    metrics.update(
        {
            "driver.parallel_efficiency": (efficiency, "ratio"),
            "datagen.calibrate_s": (_median(calibrate), "s"),
            "datagen.sample_s": (_median(sample), "s"),
            "quality.m_err": (
                float(np.mean([abs(r.n_clusters - inp.k_true) for inp, r in done])) if done else 0.0,
                "count",
            ),
            "trace.fit_s": (traced_s / calls, "s"),
            "trace.overhead_s": ((traced_s - untraced_s) / calls, "s"),
        }
    )
    return _result(tally, metrics)


def _result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }


def environment(thread_vars) -> dict:
    """What the figures depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in thread_vars},
    }
