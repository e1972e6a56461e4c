"""File formats: header CSV for data/assignments/labels, JSON for models
and mixture specs. Floats are serialized at full (shortest round-trip)
precision so reruns with the same seed are byte-identical."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from .core import Assignment, Dataset, MapGraph
from .datagen import MixtureSpec
from .driver import FitResult
from .errors import DataError, SingularModelError
from .gaussian import GaussParams
from .multinomial import MultinomParams

FORMAT_VERSION = 1


def _fmt(value: float) -> str:
    return repr(float(value))


# -- datasets --------------------------------------------------------------


def write_dataset(path, values: np.ndarray, labels=None):
    values = np.atleast_2d(values)
    header = [f"x{j + 1}" for j in range(values.shape[1])]
    if labels is not None:
        header.append("label")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i, row in enumerate(values):
            out = [_fmt(v) for v in row]
            if labels is not None:
                out.append(str(int(labels[i])))
            w.writerow(out)


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV, skipping empty lines; a row whose cell
    count differs from the header's raises ``DataError`` naming its line."""
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            rows = [(reader.line_num, r) for r in reader if r]
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    header = rows[0][1] if rows else []
    for line, r in rows[1:]:
        if len(r) != len(header):
            raise DataError(f"{path}: line {line} has {len(r)} cells, the header {len(header)}")
    return header, [r for _, r in rows[1:]]


def read_dataset(path) -> Dataset:
    """Read a header CSV; a trailing column named 'label' becomes labels."""
    header, body = _read_csv(path)
    if not body:
        raise DataError(f"{path}: need a header row and at least one data row")
    has_label = header[-1].strip().lower() == "label"
    try:
        body = np.array([[float(v) for v in r] for r in body])
    except ValueError as e:
        raise DataError(f"{path}: non-numeric cell: {e}") from e
    if has_label:
        return Dataset(body[:, :-1], body[:, -1].astype(int))
    return Dataset(body, None)


def read_label_column(path) -> np.ndarray:
    """Last column of a header CSV, as integer group ids."""
    _, body = _read_csv(path)
    if not body:
        raise DataError(f"{path}: empty file")
    try:
        return np.array([int(float(r[-1])) for r in body])
    except ValueError as e:
        raise DataError(f"{path}: non-numeric label column: {e}") from e


def write_assignment(path, assignment: Assignment):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "node"])
        for i, m in enumerate(assignment.m):
            w.writerow([i, int(m)])


# -- models ----------------------------------------------------------------


def _node_record(node_id: int, params) -> dict:
    if isinstance(params, GaussParams):
        return {
            "id": node_id,
            "mean": params.mu.tolist(),
            "cov": params.sigma.tolist(),
        }
    return {"id": node_id, "theta": params.theta.tolist()}


def _read_gauss_node(rec) -> GaussParams:
    mean, cov = np.array(rec["mean"], dtype=float), np.array(rec["cov"], dtype=float)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError(f"node {rec['id']} has a non-finite mean or covariance")
    return GaussParams(mean, cov)  # a covariance that cannot be factorized raises


_NODE_READERS = {
    "gaussian": _read_gauss_node,
    "multinomial": lambda rec: MultinomParams(np.array(rec["theta"])),
}


def save_model(path, result: FitResult):
    config = result.config
    doc = {
        "format_version": FORMAT_VERSION,
        "family": config.family,
        "nodes": [_node_record(m, result.params[m]) for m in sorted(result.params)],
        "edges": [list(e) for e in sorted(result.graph.edges)],
        "fit": {
            "beta": config.beta,
            "schedule": {
                "alpha0": config.alpha0,
                "alpha1": config.alpha1,
                "r1": config.r1,
                "tau_max": config.tau_max,
            },
            "seed": config.seed,
            "mdl": {
                "neg_loglik": result.mdl.neg_loglik,
                "complexity": result.mdl.complexity,
                "indexing": result.mdl.indexing,
                "total": result.mdl.total,
            },
            "trace": [asdict(rec) for rec in result.trace],
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_model(path) -> tuple[str, dict, MapGraph, dict]:
    """Returns (family name, node parameter table, graph, fit metadata)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read model {path}: {e}") from e
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise DataError(f"unsupported model format version in {path}")
    family = doc.get("family")
    if family not in _NODE_READERS:
        raise DataError(f"{path}: unknown model family {family!r}")
    try:
        params = {rec["id"]: _NODE_READERS[family](rec) for rec in doc["nodes"]}
        graph = MapGraph(nodes=[rec["id"] for rec in doc["nodes"]], edges=doc["edges"])  # rejects duplicate ids
    except (KeyError, TypeError, ValueError, SingularModelError) as e:
        raise DataError(f"{path}: malformed model: {e!r}") from e
    if not params:
        raise DataError(f"{path}: model has no nodes")
    if len({theta.p for theta in params.values()}) > 1:
        raise DataError(f"{path}: malformed model: its nodes differ in dimension")
    return family, params, graph, doc.get("fit", {})


def save_mixture_spec(path, spec: MixtureSpec, achieved_overlap: float, target: float):
    doc = {
        "format_version": FORMAT_VERSION,
        "structure": spec.structure,
        "pi": spec.pi.tolist(),
        "means": spec.mus.tolist(),
        "covariances": spec.sigmas.tolist(),
        "target_overlap": target,
        "achieved_overlap": achieved_overlap,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


# -- bundled fixtures ------------------------------------------------------


def load_faithful() -> Dataset:
    """The bundled 272 x 2 geyser eruption dataset."""
    with resources.as_file(resources.files("smlsom").joinpath("data/faithful.csv")) as p:
        return read_dataset(p)
