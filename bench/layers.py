"""Per-layer tracing of a fit, recorded from outside the program.

The fit loop in ``smlsom.driver`` reaches every layer through a few module
names (``mlsom_train``, ``classify``, ``cut_weak_links``, ``try_delete_node``,
``mdl_score``) and through the family object it is handed. ``traced()``
swaps those names for timing wrappers and hands every fit a family that
delegates to the real one while counting the kernel work asked of it.
Nothing in the program changes, and the originals are restored on exit.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import smlsom.driver as driver
import smlsom.structure as structure

FIT = "driver.fit"
TRAIN = "mlsom.train"
CLASSIFY = "mlsom.classify"
CUT = "structure.cut"
DELETE = "structure.delete"
MDL = "structure.mdl"


class Tracer:
    """Spans and counters kept in memory for one traced pass.

    A span is ``[name, start, end, parent index or None]``; the parent is the
    span that was open when this one started.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, args, out)``
        runs after a call that returned."""

        def traced_call(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
            self._open.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced_call

    def phase_seconds(self, since: int = 0) -> float:
        """Summed duration of the spans a fit opened directly (its phases),
        over the spans recorded from index ``since`` on."""
        spans = self.spans
        return sum(
            s[2] - s[1]
            for s in spans[since:]
            if s[3] is not None and spans[s[3]][0] == FIT
        )

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: summed seconds and number of calls."""
        seconds, calls = Counter(), Counter()
        for name, start, end, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return seconds, calls


class CountingFamily:
    """Delegates to a real model family and counts the work asked of it:
    rows passed to ``loglik_rows``, ``batch`` fits and training-state node
    updates."""

    def __init__(self, inner, counts: Counter):
        self._inner = inner
        self._counts = counts
        self.name = inner.name

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def loglik_rows(self, X, theta):
        self._counts[f"{self.name}.loglik_rows_rows"] += len(X)
        return self._inner.loglik_rows(X, theta)

    def batch(self, samples):
        self._counts[f"{self.name}.batch_calls"] += 1
        return self._inner.batch(samples)

    def make_state(self, params_list):
        state = self._inner.make_state(params_list)
        update = state.update
        counts = self._counts

        def counted_update(k, x, a):
            counts["mlsom.node_updates"] += 1
            update(k, x, a)

        state.update = counted_update
        return state


def _count_steps(counts, args, out):
    counts["mlsom.steps"] += args[3].tau_max  # mlsom_train(data, graph, params, sched, ...)


def _count_deletion(counts, args, out):
    counts["structure.delete_attempts"] += len(args[3]) >= 2  # try_delete_node(..., params, family)
    counts["structure.deletions"] += out.deleted is not None


@contextmanager
def traced(tracer: Tracer):
    """Route every fit started inside the block through ``tracer``.

    Fits must run in this process: a process pool's workers would not see
    the wrappers, so traced restarts run with ``jobs=1``.
    """
    saved = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    fit = driver.smlsom_fit

    def fit_counting(data, config, family=None):
        inner = family if family is not None else driver.FAMILIES[config.family]()
        return fit(data, config, family=CountingFamily(inner, tracer.counts))

    mdl = tracer.wrap(MDL, structure.mdl_score)
    try:
        patch(driver, "smlsom_fit", tracer.wrap(FIT, fit_counting))
        patch(driver, "mlsom_train", tracer.wrap(TRAIN, driver.mlsom_train, _count_steps))
        patch(driver, "classify", tracer.wrap(CLASSIFY, driver.classify))
        patch(driver, "cut_weak_links", tracer.wrap(CUT, driver.cut_weak_links))
        patch(driver, "try_delete_node", tracer.wrap(DELETE, driver.try_delete_node, _count_deletion))
        patch(driver, "mdl_score", mdl)
        patch(structure, "mdl_score", mdl)  # the calls try_delete_node makes
        yield tracer
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)


def layer_metrics(tracer: Tracer, calls: int, call_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures per benchmark call, from one traced pass of ``calls``
    calls that took ``call_seconds`` of wall time in all.

    ``structure.mdl_s`` includes the scoring done inside ``try_delete_node``,
    so it overlaps ``structure.delete_s``; the other times are disjoint.
    """
    seconds, n_spans = tracer.totals()
    c = tracer.counts
    steps = c["mlsom.steps"]
    attempts = c["structure.delete_attempts"]
    per = 1.0 / calls
    return {
        "mlsom.train_s": (seconds[TRAIN] * per, "s"),
        "mlsom.train_us_per_step": (1e6 * seconds[TRAIN] / steps if steps else 0.0, "us"),
        "mlsom.steps": (steps * per, "count"),
        "mlsom.node_updates": (c["mlsom.node_updates"] * per, "count"),
        "mlsom.classify_s": (seconds[CLASSIFY] * per, "s"),
        "structure.cut_s": (seconds[CUT] * per, "s"),
        "structure.mdl_s": (seconds[MDL] * per, "s"),
        "structure.delete_s": (seconds[DELETE] * per, "s"),
        "structure.delete_attempts": (attempts * per, "count"),
        "structure.deletions": (c["structure.deletions"] * per, "count"),
        "structure.delete_accept_ratio": (c["structure.deletions"] / attempts if attempts else 0.0, "ratio"),
        "gaussian.loglik_rows_rows": (c["gaussian.loglik_rows_rows"] * per, "count"),
        "multinomial.loglik_rows_rows": (c["multinomial.loglik_rows_rows"] * per, "count"),
        "gaussian.batch_calls": (c["gaussian.batch_calls"] * per, "count"),
        "multinomial.batch_calls": (c["multinomial.batch_calls"] * per, "count"),
        "driver.cycles": (n_spans[TRAIN] / n_spans[FIT] if n_spans[FIT] else 0.0, "count"),
        "driver.self_s": ((call_seconds - tracer.phase_seconds()) * per, "s"),
    }
