"""SMLSOM fit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from its ``src``
directory. ``--trace 0`` times the fit calls with nothing wrapped and
reports the end-to-end metrics; ``--trace 1`` adds a traced pass over the
same inputs and reports the per-layer metrics. Progress goes to stderr; the
last two lines of stdout are the environment and the result, as JSON.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads, so that the
# process pool of faithful-restarts (jobs=2) is the whole load on two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def load_program() -> float:
    """Import smlsom from the checkout's ``src``; returns the seconds the
    imports took. Exits when the source is not there."""
    if not (SRC / "smlsom" / "__init__.py").is_file():
        sys.exit(f"error: program source not found at {SRC / 'smlsom'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import smlsom

    seconds = time.perf_counter() - start
    if Path(smlsom.__file__).resolve().parent != SRC / "smlsom":
        sys.exit(f"error: imported smlsom from {smlsom.__file__}, not from {SRC}")
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = load_program()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result = harness.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps({"env": harness.environment(THREAD_VARS)}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
