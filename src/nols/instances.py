"""Instance and report files: the two JSON documents nols reads and writes.

An instance document carries the ground-set size, an objective spec, a
matroid spec, the declared rank, and an optional modular regularizer. A
report document records one solve of an instance: its output, query counts
and certificate. Writing is canonical (sorted keys, two-space indent,
trailing newline), so the same instance or solve produces byte-identical
files. Both loaders check every field they read and reject a malformed one
with a ValueError that names it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import ElementSet, QueryLedger, RandomSource, sample_without_replacement
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    rank as matroid_rank,
)
from .objectives import (
    MAX_LEVELS,
    ConcaveOfModular,
    CoverageFunction,
    LinearRegularizer,
    ModularFunction,
    project_all,
)
from .solvers import (
    DETERMINISTIC,
    RANDOMIZED,
    LocalOptCertificate,
    RunReport,
    inner_eps,
)

FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

FAMILIES = ("coverage", "partition", "graphic", "modular")
WARM_START = "threshold_greedy"  # the one warm start a report names


# ----- document field checks: each raises ValueError naming the field -----


def _get(spec: dict, key: str, where: str):
    if key not in spec:
        raise ValueError(f"{where} missing {key!r}")
    return spec[key]


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _spec(value, name: str) -> dict:
    _get(_object(value, name), "kind", name)
    return value


def _int(value, name: str) -> int:
    if type(value) is not int or value < 0:  # bool is not an integer here
        raise ValueError(f"{name} must be a non-negative integer, got {value!r:.40}")
    return value


def _number(value, name: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _list(value, name: str, item=None) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {type(value).__name__}")
    if item is not None:
        try:
            for x in value:
                item(x, name)
        except ValueError:
            # walk again, naming each element, for the message
            for i, x in enumerate(value):
                item(x, f"{name}[{i}]")
            raise
    return value


def _int_list(value, name: str) -> list:
    return _list(value, name, _int)


def _int_lists(value, name: str) -> list:
    return _list(value, name, _int_list)


def _number_list(value, name: str) -> list:
    return _list(value, name, _number)


def _edges(value, name: str) -> list:
    for i, edge in enumerate(_list(value, name, _int_list)):
        if len(edge) != 2:
            raise ValueError(f"{name}[{i}] must be a pair of vertices")
    return value


def _family(value, name: str) -> list:
    # an explicit matroid's independent sets: element lists or bitmasks
    for i, s in enumerate(_list(value, name)):
        (_int if type(s) is int else _int_list)(s, f"{name}[{i}]")
    return value


@dataclass
class InstanceFile:
    """Parsed instance document plus builders for the live oracles."""

    name: str
    n: int
    r: int
    objective: dict
    matroid: dict
    regularizer: dict | None = None

    def to_document(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "n": self.n,
            "r": self.r,
            "objective": self.objective,
            "matroid": self.matroid,
            "regularizer": self.regularizer,
        }

    @classmethod
    def from_document(cls, doc) -> "InstanceFile":
        """Parse a document, rejecting a malformed one with a ValueError that
        names the offending field. Kind-specific keys are checked when the
        objective, matroid and regularizer are built."""
        _object(doc, "instance document")
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported format_version {doc.get('format_version')!r}"
            )
        for key in ("name", "n", "r", "objective", "matroid"):
            _get(doc, key, "instance document")
        if not isinstance(doc["name"], str):
            raise ValueError("name must be a string")
        regularizer = doc.get("regularizer")
        if regularizer is not None:
            _object(regularizer, "regularizer")
        return cls(
            name=doc["name"],
            n=_int(doc["n"], "n"),
            r=_int(doc["r"], "r"),
            objective=_spec(doc["objective"], "objective"),
            matroid=_spec(doc["matroid"], "matroid"),
            regularizer=regularizer,
        )

    def build_objective(self):
        obj = _spec(self.objective, "objective")
        kind = obj["kind"]

        def field(key, check):
            return check(_get(obj, key, f"{kind} objective"), f"objective.{key}")

        if kind == "coverage":
            weights = obj.get("point_weights")
            if weights is not None:
                _number_list(weights, "objective.point_weights")
            f = CoverageFunction(
                universe_size=field("universe", _int),
                covers=field("covers", _int_lists),
                point_weights=weights,
            )
        elif kind == "modular":
            f = ModularFunction(field("weights", _number_list))
        elif kind == "concave_modular":
            f = ConcaveOfModular(
                field("weights", _number_list),
                shape=obj.get("shape", "sqrt"),
                cap=_number(obj.get("cap", 0), "objective.cap"),
            )
        else:
            raise ValueError(f"unknown objective kind {kind!r}")
        if f.ground_size != self.n:
            raise ValueError("objective ground size disagrees with n")
        return f

    def build_matroid(self) -> MatroidOracle:
        spec = _spec(self.matroid, "matroid")
        kind = spec["kind"]

        def field(key, check):
            return check(_get(spec, key, f"{kind} matroid"), f"matroid.{key}")

        if kind == "uniform":
            m: MatroidOracle = UniformMatroid(self.n, field("k", _int))
        elif kind == "partition":
            m = PartitionMatroid(
                self.n,
                field("blocks", _int_lists),
                field("capacities", _int_list),
            )
        elif kind == "graphic":
            edges = field("edges", _edges)
            m = GraphicMatroid(field("vertices", _int), [tuple(e) for e in edges])
        elif kind == "explicit":
            m = ExplicitMatroid(self.n, field("independent", _family))
        else:
            raise ValueError(f"unknown matroid kind {kind!r}")
        if m.ground_size != self.n:
            raise ValueError("matroid ground size disagrees with n")
        return m

    def build_regularizer(self) -> LinearRegularizer | None:
        if self.regularizer is None:
            return None
        reg = _object(self.regularizer, "regularizer")
        weights = _get(reg, "weights", "regularizer")
        _number_list(weights, "regularizer.weights")
        if len(weights) != self.n:
            raise ValueError("regularizer length disagrees with n")
        return LinearRegularizer(weights)


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_instance(instance: InstanceFile, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(instance.to_document()))


def read_json(path: str | Path):
    """The JSON document in a file; invalid JSON raises a ValueError that
    names the file."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from None


def load_instance(path: str | Path) -> InstanceFile:
    return InstanceFile.from_document(read_json(path))


# ----- solve reports -----


def report_document(report: RunReport, instance: InstanceFile) -> dict:
    """The report document of a solve. Its top-level eps_inner is
    inner_eps(eps, levels), and its warm_value is the certificate's (0 for
    a failed run, which has no certificate)."""
    c = report.certificate
    cert = None
    if c is not None:
        cert = {
            "witness": c.witness.to_list(),
            "gap": c.gap,
            "bound": c.bound,
            "eps": c.eps,
            "warm_value": c.warm_value,
        }
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "instance": instance.name,
        "n": instance.n,
        "rank": report.rank,
        "eps": report.eps,
        "eps_inner": inner_eps(report.eps, report.levels),
        "levels": report.levels,
        "variant": report.variant,
        "seed": report.seed,
        "warm_start": WARM_START,
        "regularized": report.regularized,
        "failed": report.failed,
        "output_set": report.output_set.to_list(),
        "objective_value": report.objective_value,
        "value_queries": report.ledger.value_queries,
        "independence_queries": report.ledger.independence_queries,
        "iterations": report.iterations,
        "lifted_solution": (
            None
            if report.lifted_solution is None
            else report.lifted_solution.to_list()
        ),
        "warm_value": 0.0 if c is None else c.warm_value,
        "certificate": cert,
    }


def _members(value, name: str, size: int) -> ElementSet:
    for i, u in enumerate(_int_list(value, name)):
        if u >= size:
            raise ValueError(f"{name}[{i}] must be below {size}, got {u}")
    return ElementSet.from_iterable(size, value)


def _bool(value, name: str) -> bool:
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false")
    return value


def _same_document(doc: dict, expected: dict, where: str) -> None:
    # canonical JSON text per key, so 1, 1.0 and true all differ
    for key, want in expected.items():
        got = _get(doc, key, where)
        if isinstance(want, dict) and isinstance(got, dict):
            _same_document(got, want, f"{where}.{key}")
            continue
        got, want = json.dumps(got, sort_keys=True), json.dumps(want, sort_keys=True)
        if got != want:
            raise ValueError(f"{where}.{key} must be {want:.60}, got {got:.60}")
    for key in doc:
        if key not in expected:
            raise ValueError(f"{where} has unknown key {key!r:.40}")


def parse_report(doc, instance: InstanceFile) -> RunReport:
    """The RunReport that a report document of this instance records: the
    inverse of report_document.

    Only the primary fields are read, each type-checked. Every other field
    is derived as the solver derives it: rank and output_set from the
    lifted solution, the certificate's eps as inner_eps(eps, levels), its
    warm_value as the top-level one, its bound as their product, and the
    empty output and null certificate of a failed run. The document must
    then equal report_document of the result, key by key, which also
    checks the top-level eps_inner and a failed run's zero warm_value. A
    malformed, missing, unknown or inconsistent field raises a ValueError
    that names it. warm_value itself is trusted, not recomputed.
    """
    _object(doc, "report")
    n = instance.n

    def field(key, check=None, *extra, spec=doc, where="report"):
        value = _get(spec, key, where)
        return value if check is None else check(value, f"{where}.{key}", *extra)

    failed = field("failed", _bool)
    regularized = field("regularized", _bool)
    if regularized and instance.regularizer is None:
        raise ValueError("report.regularized is true, but the instance has no regularizer")
    seed = field("seed")
    if type(seed) is not int:  # bool is not an integer here
        raise ValueError(f"report.seed must be an integer, got {seed!r:.40}")
    variant = field("variant")
    if variant not in (DETERMINISTIC, RANDOMIZED):
        raise ValueError(
            f"report.variant must be {DETERMINISTIC!r} or {RANDOMIZED!r}, "
            f"got {variant!r:.40}"
        )
    levels = field("levels", _int)
    if not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"report.levels must be in [1, {MAX_LEVELS}], got {levels}")
    eps = field("eps", _number)
    if not 0 < eps < 1:
        raise ValueError(f"report.eps must be in (0, 1), got {eps!r}")
    ledger = QueryLedger(field("value_queries", _int), field("independence_queries", _int))
    if failed:
        rank = field("rank", _int)
        lifted_solution = certificate = None
        output = ElementSet.empty(n)
    else:
        lifted_solution = field("lifted_solution", _members, n * levels)
        rank = len(lifted_solution)
        output = project_all(lifted_solution, levels)
        eps_inner = inner_eps(eps, levels)
        warm_value = field("warm_value", _number)
        where = "report.certificate"
        cert = field("certificate", _object)
        certificate = LocalOptCertificate(
            witness=field("witness", _members, n * levels, spec=cert, where=where),
            gap=field("gap", _number, spec=cert, where=where),
            bound=eps_inner * warm_value,
            eps=eps_inner,
            warm_value=warm_value,
        )
    report = RunReport(
        output_set=output,
        objective_value=field("objective_value", _number),
        ledger=ledger,
        iterations=field("iterations", _int),
        failed=failed,
        certificate=certificate,
        eps=eps,
        levels=levels,
        variant=variant,
        seed=seed,
        rank=rank,
        lifted_solution=lifted_solution,
        regularized=regularized,
    )
    _same_document(doc, report_document(report, instance), "report")
    return report


# ----- generators -----


def generate_instance(family: str, n: int, r: int, seed: int) -> InstanceFile:
    """Deterministic instance for (family, n, r, seed).

    Objectives are integer valued. The declared rank always matches the
    generated matroid (asserted before returning).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    if r > n:
        raise ValueError("rank cannot exceed the ground size")
    rng = RandomSource(_mix_seed(family, n, r, seed))

    if family == "coverage":
        objective = _coverage_spec(rng, n)
        matroid = {"kind": "uniform", "k": r}
    elif family == "modular":
        objective = {
            "kind": "modular",
            "weights": [1 + rng.randrange(9) for _ in range(n)],
        }
        matroid = {"kind": "uniform", "k": r}
    elif family == "partition":
        objective = _coverage_spec(rng, n)
        blocks = [[u for u in range(n) if u % r == i] for i in range(r)]
        matroid = {
            "kind": "partition",
            "blocks": blocks,
            "capacities": [1] * r,
        }
    else:  # graphic
        vertices = r + 1
        edges = []
        for v in range(1, vertices):
            edges.append([rng.randrange(v), v])  # random spanning tree
        while len(edges) < n:
            a = rng.randrange(vertices)
            b = rng.randrange(vertices)
            if a != b:
                edges.append(sorted((a, b)))
        objective = _coverage_spec(rng, n)
        matroid = {"kind": "graphic", "vertices": vertices, "edges": edges}

    instance = InstanceFile(
        name=f"{family}-n{n}-r{r}-s{seed}",
        n=n,
        r=r,
        objective=objective,
        matroid=matroid,
    )
    actual = matroid_rank(instance.build_matroid())
    if actual != r:
        raise AssertionError(
            f"generator produced rank {actual}, declared {r} ({instance.name})"
        )
    return instance


def _coverage_spec(rng: RandomSource, n: int) -> dict:
    # universe of 2n unit-weight points; each element covers a small random
    # patch, so marginals overlap and local search has real work to do
    universe = 2 * n
    pool = ElementSet.full(universe)
    max_patch = max(2, min(8, universe // 2))
    covers = []
    for _ in range(n):
        size = 1 + rng.randrange(max_patch)
        covers.append(sorted(sample_without_replacement(rng, pool, size)))
    return {"kind": "coverage", "universe": universe, "covers": covers}


def _mix_seed(family: str, n: int, r: int, seed: int) -> int:
    # fold the grid coordinates into the seed so cells draw distinct streams
    h = 1469598103934665603  # FNV offset basis
    for token in (family, str(n), str(r), str(seed)):
        for ch in token.encode():
            h = (h ^ ch) * 1099511628211 % (1 << 64)
        h = (h ^ 0x2D) * 1099511628211 % (1 << 64)
    return h
