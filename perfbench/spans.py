"""In-memory span recorder and the wrappers that feed it.

A span is (name, parent, start, end). Spans are appended when they open, so
index order is start order and a span's subtree is the contiguous index
range that starts before the span ends. Nothing here touches ``src/``: the
traced run wraps the base oracles handed to the solver and, while
``instrument`` is active, the public names that ``nols.solvers`` and
``nols.cli`` call through.
"""

from __future__ import annotations

import contextlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

EVAL = "objectives.eval"
INDEP = "matroids.indep"
LIFTED = "matroids.lifted"
LIFTED_SINGLE = "matroids.lifted.singleton"
MARGINAL = "objectives.tracker.marginal"
APPLY = "objectives.tracker.apply"
SWAP = "objectives.tracker.swap"
MAKE_TRACKER = "objectives.make_tracker"
LIFT = "matroids.lift"
EXTEND = "matroids.extend"
EXCHANGE = "matroids.exchange"
MAX_WEIGHT = "matroids.max_weight_independent"
SAMPLE = "core.sample"
SOLVE = "solvers.solve"
CHECK = "verify.check_certificate"
QUALITY = "verify.quality_bound"
LOAD = "instances.load"
CLI_SOLVE = "cli.solve"
CLI_VERIFY = "cli.verify"

# module of each span name, for per-layer self time
LAYER = {
    EVAL: "objectives",
    MARGINAL: "objectives",
    APPLY: "objectives",
    SWAP: "objectives",
    MAKE_TRACKER: "objectives",
    INDEP: "matroids",
    LIFTED: "matroids",
    LIFTED_SINGLE: "matroids",
    LIFT: "matroids",
    EXTEND: "matroids",
    EXCHANGE: "matroids",
    MAX_WEIGHT: "matroids",
    SAMPLE: "core",
    SOLVE: "solvers",
    CHECK: "verify",
    QUALITY: "verify",
    LOAD: "instances",
    CLI_SOLVE: "cli",
    CLI_VERIFY: "cli",
}


class Tracer:
    """Append-only span store in flat typed arrays (24 bytes per span)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                names=np.array(self.names),
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
            )


class SpanArrays:
    """numpy view of a tracer's spans with durations and self times."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        # views: the tracer must not record while these are in use
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.start = np.frombuffer(tracer.start, dtype=np.float64)
        self.end = np.frombuffer(tracer.end, dtype=np.float64)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent],
            weights=self.dur[has_parent],
            minlength=len(self.name),
        )
        self.self_time = self.dur - covered

    def nid(self, name: str) -> int:
        # -1 never matches, so a name that was never recorded counts zero
        return self.names.index(name) if name in self.names else -1

    def subtree(self, i: int) -> slice:
        return slice(i, int(np.searchsorted(self.start, self.end[i], side="right")))


# ----- wrappers -----


class TracedValueOracle:
    """Base value oracle whose every eval is an ``objectives.eval`` span."""

    __slots__ = ("inner", "ground_size", "_tracer", "_nid")

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.ground_size = inner.ground_size
        self._tracer = tracer
        self._nid = tracer.name_id(EVAL)

    def eval(self, s):
        tr = self._tracer
        i = tr.open(self._nid)
        try:
            return self.inner.eval(s)
        finally:
            tr.close(i)


class TracedMatroid:
    """Matroid oracle whose calls are spans; singleton queries may get a name
    of their own so the solver's singleton pre-checks can be counted."""

    __slots__ = ("inner", "ground_size", "_tracer", "_nid", "_single")

    def __init__(self, inner, tracer: Tracer, name: str, singleton_name=None):
        self.inner = inner
        self.ground_size = inner.ground_size
        self._tracer = tracer
        self._nid = tracer.name_id(name)
        self._single = tracer.name_id(singleton_name or name)

    def is_independent(self, s):
        tr = self._tracer
        m = s.mask
        i = tr.open(self._single if m and not m & (m - 1) else self._nid)
        try:
            return self.inner.is_independent(s)
        finally:
            tr.close(i)


class TracedTracker:
    """Marginal tracker proxy: marginals and applies become spans."""

    __slots__ = ("inner", "_tracer", "_marginal", "_apply", "_swap")

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer
        self._marginal = tracer.name_id(MARGINAL)
        self._apply = tracer.name_id(APPLY)
        self._swap = tracer.name_id(SWAP)

    @property
    def ground_size(self):
        return self.inner.ground_size

    @property
    def current(self):
        return self.inner.current

    @property
    def value(self):
        return self.inner.value

    def marginal_add(self, x):
        tr = self._tracer
        i = tr.open(self._marginal)
        try:
            return self.inner.marginal_add(x)
        finally:
            tr.close(i)

    def marginal_drop(self, x):
        tr = self._tracer
        i = tr.open(self._marginal)
        try:
            return self.inner.marginal_drop(x)
        finally:
            tr.close(i)

    def apply(self, add=None, drop=None):
        tr = self._tracer
        i = tr.open(self._swap if add is not None and drop is not None else self._apply)
        try:
            return self.inner.apply(add=add, drop=drop)
        finally:
            tr.close(i)


def _traced_lift(tracer: Tracer, lift):
    def traced(matroid, levels):
        with tracer.span(LIFT):
            lifted = lift(matroid, levels)
        return TracedMatroid(lifted, tracer, LIFTED, LIFTED_SINGLE)

    return traced


def _traced_make_tracker(tracer: Tracer, make_tracker):
    def traced(oracle, start):
        with tracer.span(MAKE_TRACKER):
            tracker = make_tracker(oracle, start)
        return TracedTracker(tracker, tracer)

    return traced


def _traced_load_instance(tracer: Tracer, load_instance):
    def traced(path):
        with tracer.span(LOAD):
            instance = load_instance(path)
        build_objective = instance.build_objective
        build_matroid = instance.build_matroid

        def objective():
            with tracer.span(LOAD):
                return TracedValueOracle(build_objective(), tracer)

        def matroid():
            with tracer.span(LOAD):
                return TracedMatroid(build_matroid(), tracer, INDEP)

        instance.build_objective = objective
        instance.build_matroid = matroid
        instance.build_regularizer = tracer.wrap(LOAD, instance.build_regularizer)
        return instance

    return traced


@contextlib.contextmanager
def instrument(nols, tracer: Tracer):
    """Route the names ``nols.solvers`` and ``nols.cli`` call through to
    traced versions; restore the originals on exit."""
    solvers, cli = nols.solvers, nols.cli
    patches = [
        (solvers, "make_tracker", _traced_make_tracker(tracer, solvers.make_tracker)),
        (solvers, "lift", _traced_lift(tracer, solvers.lift)),
        (solvers, "extend_to_base", tracer.wrap(EXTEND, solvers.extend_to_base)),
        (solvers, "min_weight_exchange", tracer.wrap(EXCHANGE, solvers.min_weight_exchange)),
        (
            solvers,
            "max_weight_independent",
            tracer.wrap(MAX_WEIGHT, solvers.max_weight_independent),
        ),
        (
            solvers,
            "sample_without_replacement",
            tracer.wrap(SAMPLE, solvers.sample_without_replacement),
        ),
        (cli, "non_oblivious_solve", tracer.wrap(SOLVE, cli.non_oblivious_solve)),
        (cli, "lift", _traced_lift(tracer, cli.lift)),
        (cli, "load_instance", _traced_load_instance(tracer, cli.load_instance)),
        (cli, "check_certificate", tracer.wrap(CHECK, cli.check_certificate)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, fn in patches:
            setattr(module, attr, fn)
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# ----- analysis -----


def _in_window(starts: np.ndarray, lo: float, hi: float) -> int:
    return int(np.searchsorted(starts, hi) - np.searchsorted(starts, lo))


def item_breakdown(a: SpanArrays, lo: int, hi: int) -> dict:
    """Per-layer figures for the spans [lo, hi) of one traced item.

    Base queries whose parent is the solve span itself are the solver's
    uncounted reporting calls (f of the output, and the rank on a failed
    run); every other base query below the solve is one the ledger charged.
    Phases are intervals between the solve's direct children: the warm start
    runs from the end of a make_tracker to the next extend_to_base, and the
    certificate from the last search step (anything but a tracker marginal
    or make_tracker) to the end of max_weight_independent.
    """
    window = slice(lo, hi)
    names = a.name[window]
    top_name = a.nid(CLI_SOLVE) if a.nid(CLI_SOLVE) in names else a.nid(SOLVE)
    top = lo + int(np.argmax(names == top_name))
    solve = lo + int(np.argmax(names == a.nid(SOLVE)))

    r = a.subtree(solve)
    name, parent = a.name[r], a.parent[r]
    dur, self_t, start = a.dur[r], a.self_time[r], a.start[r]
    parent_name = a.name[np.maximum(parent, 0)]

    def has(*span_names):
        return np.isin(name, [a.nid(s) for s in span_names])

    evals = has(EVAL) & (parent != solve)
    indeps = has(INDEP) & (parent != solve)
    marginals = has(MARGINAL)
    lifted = has(LIFTED, LIFTED_SINGLE)
    exchanges = has(EXCHANGE)
    eval_starts = start[evals]
    indep_starts = start[indeps]

    kids = np.nonzero(parent == solve)[0]
    kid_names = name[kids]
    warm_s = warm_v = warm_i = 0.0
    for p in np.nonzero(kid_names == a.nid(EXTEND))[0]:
        trackers = np.nonzero(kid_names[:p] == a.nid(MAKE_TRACKER))[0]
        lo_t, hi_t = a.end[r.start + kids[trackers[-1]]], start[kids[p]]
        warm_s += hi_t - lo_t
        warm_v += _in_window(eval_starts, lo_t, hi_t)
        warm_i += _in_window(indep_starts, lo_t, hi_t)
    cert_s = cert_v = 0.0
    for p in np.nonzero(kid_names == a.nid(MAX_WEIGHT))[0]:
        search = np.nonzero(
            ~np.isin(kid_names[:p], [a.nid(MARGINAL), a.nid(MAKE_TRACKER)])
        )[0]
        lo_t = a.end[r.start + kids[search[-1]]] if len(search) else a.start[solve]
        hi_t = a.end[r.start + kids[p]]
        cert_s += hi_t - lo_t
        cert_v += _in_window(eval_starts, lo_t, hi_t)

    t = a.subtree(top)
    per_name = np.bincount(a.name[t], weights=a.self_time[t], minlength=len(a.names))
    layer_self: dict[str, float] = {}
    for span_name, seconds in zip(a.names, per_name):
        layer_self[LAYER[span_name]] = layer_self.get(LAYER[span_name], 0.0) + seconds

    def total(span_name, field=a.dur):
        return float(field[window][names == a.nid(span_name)].sum())

    return {
        "top_s": float(a.dur[top]),
        "layer_self": layer_self,
        "core.sample.calls": int(has(SAMPLE).sum()),
        "core.sample.s": float(dur[has(SAMPLE)].sum()),
        "objectives.eval.calls": int(evals.sum()),
        "objectives.eval.s": float(dur[evals].sum()),
        "objectives.tracker.marginals": int(marginals.sum()),
        "objectives.tracker.applies": int(has(APPLY, SWAP).sum()),
        "objectives.tracker.self_s": float(
            self_t[has(MARGINAL, APPLY, SWAP, MAKE_TRACKER)].sum()
        ),
        "inner_evals": int((evals & (parent_name == a.nid(MARGINAL))).sum()),
        "matroids.indep.calls": int(indeps.sum()),
        "matroids.indep.s": float(dur[indeps].sum()),
        "matroids.lifted.calls": int(lifted.sum()),
        "matroids.lifted.singleton_calls": int(has(LIFTED_SINGLE).sum()),
        "matroids.lifted.self_s": float(self_t[lifted].sum()),
        "matroids.exchange.calls": int(exchanges.sum()),
        "matroids.exchange.s": float(dur[exchanges].sum()),
        "exchange_queries": int((lifted & (parent_name == a.nid(EXCHANGE))).sum()),
        "matroids.extend.s": float(dur[has(EXTEND)].sum()),
        "solvers.warm_start.s": warm_s,
        "solvers.warm_start.value_queries": warm_v,
        "solvers.warm_start.independence_queries": warm_i,
        "solvers.swaps": int(has(SWAP).sum()),
        "solvers.attempts": int((kid_names == a.nid(EXTEND)).sum()),
        "solvers.certificate.s": cert_s,
        "solvers.certificate.value_queries": cert_v,
        "solvers.self_s": float(a.self_time[solve]),
        "verify.check_certificate.s": total(CHECK),
        "verify.quality_bound.s": total(QUALITY),
        "instances.load.s": total(LOAD),
        "cli.solve.overhead_s": total(CLI_SOLVE, a.self_time),
        "cli.verify.overhead_s": total(CLI_VERIFY, a.self_time),
    }
