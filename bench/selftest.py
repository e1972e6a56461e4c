"""Fast self-test of the benchmark (not part of the package's test suite).

    python3 bench/selftest.py

Runs every workload at a tiny size in both trace modes and checks that each
metric BENCHMARK.json names is emitted with its unit, then feeds the output
checks deliberately broken fit results and checks that every one is caught.
Exits 1 on the first problem.
"""

import io
import json
import math
import sys
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import run


def expect(ok: bool, what: str):
    if not ok:
        sys.exit(f"selftest: FAILED: {what}")


def check_metrics(spec: dict):
    import harness
    import workloads

    for name, workload in workloads.TINY.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = harness.run(workload, seed=1, seconds=0, trace=trace)
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name}: result keys {sorted(result)}",
            )
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: a fit failed")
            expect(result["attempted"] >= 1, f"{name}: nothing attempted")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            expect(set(got) == set(wanted), f"{name} trace={trace}: metrics {sorted(set(got) ^ set(wanted))}")
            for metric, unit in wanted.items():
                value = got[metric]["value"]
                expect(got[metric]["unit"] == unit, f"{name}: {metric} unit {got[metric]['unit']!r}")
                expect(isinstance(value, float) and math.isfinite(value), f"{name}: {metric} = {value!r}")
            print(f"selftest: {name} trace={int(trace)}: {len(got)} metrics", file=sys.stderr)


def check_output_checks():
    import harness
    import workloads

    workload = workloads.TINY["gauss-map8x8"]
    inp = workload.make(1, 0)
    good = workloads.call(workload, inp)
    n = inp.data.n
    expect(harness.check_fit(good, n) == [], "a good fit fails the checks")
    deleted = [k for k, rec in enumerate(good.trace) if rec.node_deleted is not None]
    expect(deleted, "the tiny fit deleted no node, so the deletion check is not exercised")

    m = good.assignment.m
    extra = max(good.params) + 1
    worse = list(good.trace)
    worse[deleted[0]] = replace(worse[deleted[0]], mdl=worse[deleted[0]].mdl_before_delete + 1.0)
    broken = {
        "short assignment": replace(good, assignment=replace(good.assignment, m=m[:-1])),
        "dead node in assignment": replace(good, assignment=replace(good.assignment, m=m.copy() * 0 + extra)),
        "params and graph disagree": replace(good, params={**good.params, extra: good.params[m[0]]}),
        "non-finite MDL": replace(good, mdl=replace(good.mdl, neg_loglik=math.nan)),
        "deletion that raised MDL": replace(good, trace=worse),
    }
    for what, result in broken.items():
        expect(harness.check_fit(result, n), f"check_fit missed: {what}")

    flipped = replace(good, assignment=replace(good.assignment, m=m[::-1].copy()))
    expect(not harness.same_fit(good, flipped), "same_fit missed a changed assignment")
    tally = harness.Tally()
    with redirect_stderr(io.StringIO()):
        expect(tally.agree(flipped, good, "refit") is None and tally.wrong == 1, "a differing refit is not failed")

    # A fit that raises counts as failed and does not stop the run.
    raising = replace(inp, config=replace(inp.config, family="multinomial"))  # real-valued data
    tally = harness.Tally()
    with redirect_stderr(io.StringIO()):
        result, _ = tally.fit(workload, raising)
    expect(result is None and tally.attempted == 1 and tally.failed == 1, "a raising fit is not counted")
    expect(tally.wrong == 0, "a raising fit is counted as a wrong output")
    print(f"selftest: output checks caught {len(broken)} broken results", file=sys.stderr)


def main() -> int:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    run.load_program()
    check_output_checks()
    check_metrics(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
