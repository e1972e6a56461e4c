"""Command-line surface: gen / fit / score / eval.

Exit codes: 0 success, 1 usage error, 2 data or model error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import datagen, io, metrics
from .core import Dataset
from .driver import FAMILIES, FitConfig, smlsom_fit_restarts
from .errors import CalibrationError, DataError, SingularModelError, SmlsomError
from .mlsom import classify
from .structure import mdl_score


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smlsom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an overlap-controlled mixture dataset")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--components", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--omega-bar", type=float, required=True)
    g.add_argument("--structure", choices=datagen.STRUCTURES, default="nonspherical-heterogeneous")
    g.add_argument("--pi", type=float, nargs="+", default=None, help="mixing probabilities (default uniform)")
    g.add_argument("--n-mc", type=int, default=10_000)
    g.add_argument("--labels", action="store_true", help="append the label column")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="dataset CSV path; the mixture spec goes to <out>.spec.json")

    f = sub.add_parser("fit", help="fit the shrinking map to a CSV dataset")
    f.add_argument("--input", required=True)
    f.add_argument("--family", choices=sorted(FAMILIES), default="gaussian")
    f.add_argument("--rows", type=int, default=3)
    f.add_argument("--cols", type=int, default=3)
    f.add_argument("--lattice", choices=["rect", "hex"], default="hex")
    f.add_argument("--beta", type=float, default=15.0)
    f.add_argument("--tau-max", type=int, default=None, help="default: data size n")
    f.add_argument("--alpha", type=float, nargs=2, default=[0.05, 0.01], metavar=("A0", "A1"))
    f.add_argument("--init", choices=["pca", "random"], default="pca")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--restarts", type=int, default=1)
    f.add_argument("--jobs", type=int, default=1)
    f.add_argument("--out", required=True, help="model JSON path; assignment goes to <out>.assign.csv")

    s = sub.add_parser("score", help="MDL report for a saved model on a dataset")
    s.add_argument("--model", required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--json", action="store_true")

    e = sub.add_parser("eval", help="ARI/NMI between labels and an assignment")
    e.add_argument("--labels", required=True)
    e.add_argument("--assignment", required=True)
    e.add_argument("--json", action="store_true")
    return parser


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    spec = datagen.random_mixture(args.dim, args.components, args.structure, rng, pi=args.pi)
    spec, achieved = datagen.calibrate_overlap(spec, args.omega_bar, n_mc=args.n_mc, rng=rng)
    values, labels = datagen.sample_mixture(spec, args.n, rng)
    io.write_dataset(args.out, values, labels if args.labels else None)
    io.save_mixture_spec(str(args.out) + ".spec.json", spec, achieved, args.omega_bar)
    print(f"wrote {args.n} samples to {args.out} (achieved omega-bar {achieved:.4f})")
    return 0


def cmd_fit(args) -> int:
    dataset = io.read_dataset(args.input)
    data = Dataset(dataset.values, None)  # ignore any label column when fitting
    try:
        config = FitConfig(
            family=args.family,
            rows=args.rows,
            cols=args.cols,
            lattice={"rect": "rectangular", "hex": "hexagonal"}[args.lattice],
            beta=args.beta,
            alpha0=args.alpha[0],
            alpha1=args.alpha[1],
            tau_max=args.tau_max,
            init=args.init,
            seed=args.seed,
        )
        config.schedule(data.n)  # the fit builds this schedule; check it before fitting
        if args.restarts < 1:
            raise ValueError("--restarts must be >= 1")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    result = smlsom_fit_restarts(data, config, restarts=args.restarts, jobs=args.jobs)
    elapsed = time.perf_counter() - start
    io.save_model(args.out, result)
    io.write_assignment(str(args.out) + ".assign.csv", result.assignment)
    m = result.mdl
    print(
        f"M={result.n_clusters} mdl={m.total:.3f}"
        f" (nll={m.neg_loglik:.3f} complexity={m.complexity:.3f} indexing={m.indexing:.3f})"
        f" cycles={len(result.trace)} time={elapsed:.2f}s"
    )
    return 0


def cmd_score(args) -> int:
    family_name, params, _graph, _meta = io.load_model(args.model)
    data = io.read_dataset(args.input)
    data = Dataset(data.values, None)
    family = FAMILIES[family_name]()
    model_p = next(iter(params.values())).p
    if model_p != data.p:
        raise DataError(f"model dimension {model_p} != data dimension {data.p}")
    family.validate(data)
    assignment = classify(data, params, family)
    score = mdl_score(data, assignment, params, family)
    if args.json:
        print(
            json.dumps(
                {
                    "neg_loglik": score.neg_loglik,
                    "complexity": score.complexity,
                    "indexing": score.indexing,
                    "total": score.total,
                }
            )
        )
    else:
        print(f"neg_loglik {score.neg_loglik!r}")
        print(f"complexity {score.complexity!r}")
        print(f"indexing   {score.indexing!r}")
        print(f"total      {score.total!r}")
    return 0


def cmd_eval(args) -> int:
    labels = io.read_label_column(args.labels)
    assign = io.read_label_column(args.assignment)
    if labels.size != assign.size:
        raise DataError(
            f"length mismatch: {labels.size} labels vs {assign.size} assignments"
        )
    a = metrics.ari(labels, assign)
    n = metrics.nmi(labels, assign)
    if args.json:
        print(json.dumps({"ari": a, "nmi": n}))
    else:
        print(f"ARI {a!r}")
        print(f"NMI {n!r}")
    return 0


_COMMANDS = {"gen": cmd_gen, "fit": cmd_fit, "score": cmd_score, "eval": cmd_eval}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SingularModelError, CalibrationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except SmlsomError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
