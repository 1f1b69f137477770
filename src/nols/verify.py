"""Ground-truth verification at desk scale.

Brute force, the exact-arithmetic reference search, axiom checkers, and
certificate recomputation. Everything here is exhaustive against explicit
definitions, never against the solvers' own bookkeeping, so these routines
are the arbiter in tests. The one piece shared with the solvers is the
certificate constructor, ``LocalOptCertificate.at``, run here on a fresh
tracker so a stored certificate can be compared float-exactly; it asks f
through the lifted guide, which rejects a NaN or infinite value.

Each check has a fixed scale cap, a module constant rather than a
parameter: brute force to n = 22, the exhaustive gap to n = 64, the
reference search to n = 16 and rank 6, and the matroid-axiom and
value-oracle checks to n = 16; above its cap a check refuses. The checkers
report at most 20 violations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .core import (
    COMPARISON_SLACK,
    ElementSet,
    MatroidOracle,
    ValueOracle,
    ge,
    left_sum,
)
from .matroids import as_lifted, extend_to_base, mask_text, matroid_axiom_violations
from .objectives import GuideWeights, as_guide, make_tracker, subset_unions
from .solvers import LocalOptCertificate

MAX_BRUTE_FORCE = 22
MAX_GAP_GROUND = 64
MAX_REFERENCE_GROUND = 16
MAX_REFERENCE_RANK = 6
MAX_EXHAUSTIVE = 16  # axiom and value-oracle checks
MAX_REPORTS = 20


@dataclass(frozen=True)
class BruteForceResult:
    """Exact optimum over all independent sets.

    Ties keep the first maximizer in ascending DFS order.
    """

    opt_set: ElementSet
    opt_value: float


def _independent_masks(matroid: MatroidOracle) -> Iterator[int]:
    """Yield the mask of every non-empty independent set, by a DFS in
    ascending element order.

    Each popped set asks for its extensions by larger elements in ascending
    order, yields the independent ones and pushes them; dependent branches
    are pruned, and by downward closure no independent set is missed.
    """
    n = matroid.ground_size
    stack = [(0, 0)]  # (mask, next element to try)
    while stack:
        mask, start = stack.pop()
        for u in range(start, n):
            cand = mask | (1 << u)
            if matroid.is_independent(ElementSet(n, cand)):
                yield cand
                stack.append((cand, u + 1))


def brute_force_opt(f: ValueOracle, matroid: MatroidOracle) -> BruteForceResult:
    """Exact optimum over every independent set, capped at n <= 22.

    Strictly better values replace the incumbent in the order
    ``_independent_masks`` walks, so ties keep the first maximizer found.
    """
    n = f.ground_size
    if n != matroid.ground_size:
        raise ValueError("objective and matroid universes differ")
    if n > MAX_BRUTE_FORCE:
        raise ValueError(f"brute force capped at n <= {MAX_BRUTE_FORCE}")

    best_mask = 0
    best_value = f.eval(ElementSet.empty(n))
    for mask in _independent_masks(matroid):
        val = f.eval(ElementSet(n, mask))
        if val > best_value:
            best_value = val
            best_mask = mask
    return BruteForceResult(opt_set=ElementSet(n, best_mask), opt_value=best_value)


@dataclass
class ReferenceResult:
    parts: list[ElementSet]
    union: ElementSet
    guide_value: Fraction


def reference_local_search(
    f: ValueOracle, matroid: MatroidOracle, levels: int
) -> ReferenceResult:
    """Exhaustive partitioned local search in exact rational arithmetic.

    State is a tuple of disjoint level sets whose union is a base. Moves
    either relocate a member to another level or swap a member for an
    outside element (at any level) keeping the union independent; the first
    strictly improving move in scan order is taken until none exists.
    Values are memoized Fractions, so termination and the no-improving-move
    postcondition are exact. Intended for verification; capped at
    n <= 16 and rank <= 6.
    """
    n = f.ground_size
    if n > MAX_REFERENCE_GROUND:
        raise ValueError(f"reference search capped at n <= {MAX_REFERENCE_GROUND}")
    wf = GuideWeights(levels).fractions
    base = extend_to_base(matroid, ElementSet.empty(n))
    r = len(base)
    if r > MAX_REFERENCE_RANK:
        raise ValueError(f"reference search capped at rank <= {MAX_REFERENCE_RANK}")

    @functools.cache
    def f_exact(mask: int) -> Fraction:
        return Fraction(f.eval(ElementSet(n, mask)))

    def g_exact(parts: list[int]) -> Fraction:
        union = subset_unions(parts)
        total = Fraction(0)
        for j in range(1, len(union)):
            total += wf[j.bit_count()] * f_exact(union[j])
        return total

    parts = [base.mask] + [0] * (levels - 1)
    current = g_exact(parts)

    def union_mask() -> int:
        m = 0
        for p in parts:
            m |= p
        return m

    improved = True
    while improved:
        improved = False
        um = union_mask()
        members = [
            (u, lvl) for lvl in range(levels) for u in ElementSet(n, parts[lvl])
        ]
        members.sort()
        # relocate u to a different level
        for u, lvl in members:
            for target in range(levels):
                if target == lvl:
                    continue
                parts[lvl] &= ~(1 << u)
                parts[target] |= 1 << u
                cand = g_exact(parts)
                if cand > current:
                    current = cand
                    improved = True
                    break
                parts[target] &= ~(1 << u)
                parts[lvl] |= 1 << u
            if improved:
                break
        if improved:
            continue
        # swap u out for an outside v placed at any level
        for u, lvl in members:
            for v in range(n):
                if um >> v & 1:
                    continue
                swapped_union = (um & ~(1 << u)) | (1 << v)
                if not matroid.is_independent(ElementSet(n, swapped_union)):
                    continue
                for target in range(levels):
                    parts[lvl] &= ~(1 << u)
                    parts[target] |= 1 << v
                    cand = g_exact(parts)
                    if cand > current:
                        current = cand
                        improved = True
                        break
                    parts[target] &= ~(1 << v)
                    parts[lvl] |= 1 << u
                if improved:
                    break
            if improved:
                break

    out_parts = [ElementSet(n, p) for p in parts]
    return ReferenceResult(
        parts=out_parts,
        union=ElementSet(n, union_mask()),
        guide_value=current,
    )


def exhaustive_gap(f: ValueOracle, matroid: MatroidOracle, s: ElementSet) -> float:
    """max over all independent T of sum_T f(v|S-v) - sum_S f(u|S-u), capped
    at n <= 64.

    Walks the independent sets only (``_independent_masks``) and sums each
    in ascending element order, the order LocalOptCertificate.at uses, so the
    cross-check against the greedy witness can demand float-exact equality.
    """
    n = f.ground_size
    if n > MAX_GAP_GROUND:
        raise ValueError(f"exhaustive gap capped at n <= {MAX_GAP_GROUND}")
    tracker = make_tracker(f, s)
    w = [
        tracker.marginal_drop(v) if v in s else tracker.marginal_add(v)
        for v in range(n)
    ]
    base_sum = left_sum(w[u] for u in s)
    best = -base_sum  # T empty
    best_mask = 0
    for mask in _independent_masks(matroid):
        gap = left_sum(w[v] for v in ElementSet(n, mask)) - base_sum
        if gap > best:
            best = gap
            best_mask = mask
    return left_sum(w[v] for v in ElementSet(n, best_mask)) - base_sum


def check_matroid_axioms(matroid: MatroidOracle) -> list[str]:
    """Exhaustive matroid axiom check over all 2^n sets, capped at n <= 16.

    Returns the first 20 violations ``matroid_axiom_violations`` finds in
    the oracle's independent family (empty set, downward closure, exchange);
    an empty list means the oracle passed.
    """
    n = matroid.ground_size
    if n > MAX_EXHAUSTIVE:
        raise ValueError(f"axiom check capped at n <= {MAX_EXHAUSTIVE}")
    family = [m for m in range(1 << n) if matroid.is_independent(ElementSet(n, m))]
    return list(islice(matroid_axiom_violations(family), MAX_REPORTS))


def check_value_oracle(f: ValueOracle) -> list[str]:
    """Exhaustive non-negativity, monotonicity and submodularity check over
    all 2^n sets, capped at n <= 16.

    Submodularity is checked pairwise and locally, which is equivalent to
    the lattice definition. Returns the first 20 violation descriptions,
    empty on pass.
    """
    if f.ground_size > MAX_EXHAUSTIVE:
        raise ValueError(f"value oracle check capped at n <= {MAX_EXHAUSTIVE}")
    return list(islice(_exhaustive_value_violations(f), MAX_REPORTS))


def _exhaustive_value_violations(f: ValueOracle) -> Iterator[str]:
    # numpy is imported here, not at module level, so that a process that
    # never runs this check does not pay for loading it
    import numpy as np

    n = f.ground_size
    vals = np.array([f.eval(ElementSet(n, m)) for m in range(1 << n)])

    def holds(left, right):
        # vectorized core.ge: left >= right - slack*max(1,|l|,|r|)
        scale = np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
        return left >= right - COMPARISON_SLACK * scale

    masks = np.arange(1 << n, dtype=np.int64)
    for m in np.nonzero(~holds(vals, 0.0))[0]:
        yield f"negative value at {mask_text(int(m))}"
    for u in range(n):
        without = masks[(masks >> u) & 1 == 0]
        gain = vals[without | (1 << u)] - vals[without]
        for i in np.nonzero(~holds(gain, 0.0))[0]:
            yield f"monotonicity fails adding {u} to {mask_text(int(without[i]))}"
        for v in range(n):
            if v == u:
                continue
            both = without[(without >> v) & 1 == 0]
            gain_small = vals[both | (1 << u)] - vals[both]
            withv = both | (1 << v)
            gain_large = vals[withv | (1 << u)] - vals[withv]
            for i in np.nonzero(~holds(gain_small, gain_large))[0]:
                yield (
                    f"submodularity fails: element {u} gains more on "
                    f"{mask_text(int(withv[i]))} than on {mask_text(int(both[i]))}"
                )


@dataclass(frozen=True)
class ApproximationReport:
    ratio: float
    target: float
    passed: bool


def approximation_report(
    output_set: ElementSet,
    objective_value: float,
    levels: int,
    eps: float,
    truth: BruteForceResult,
) -> ApproximationReport:
    """Achieved ratio of a solve's output vs the level-dependent target
    (1-(1+1/L)^-L) - eps.

    Ratio is defined as 1 when the optimum is 0 (the output can do no
    better). Raises on universe mismatch between the output and the truth.
    """
    if output_set.n != truth.opt_set.n:
        raise ValueError("run and brute-force truth use different universes")
    if truth.opt_value <= 0:
        ratio = 1.0
    else:
        ratio = objective_value / truth.opt_value
    target = 1.0 - (levels / (levels + 1.0)) ** levels - eps
    return ApproximationReport(ratio=ratio, target=target, passed=ge(ratio, target))


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_certificate(
    certificate: LocalOptCertificate,
    f: ValueOracle,
    matroid: MatroidOracle,
    s: ElementSet,
) -> list[str]:
    """Recompute a certificate against a solution and compare field by field.

    Float equality is intentional: both computations follow the same
    canonical summation order, so any difference means the inputs changed;
    two NaNs compare equal, since a stored certificate may carry a NaN gap
    or bound.
    A recheck asks through as_guide(f) and as_lifted(matroid), the doors
    the searches use, and pays for every query it asks: it first empties
    both memos. The guide's states of f may stay: they are uncharged, and a
    state is taken only of a set the recheck has already charged, so they
    learn nothing free. The witness greedy runs in full, with no rank: the
    searches stop it at the rank because their solution is a base, and a
    recheck must not trust that the claimed s is one. f is asked through
    the guide, so a NaN or infinite value of f raises ValueError naming it
    and its set; a stored gap that is infinite or NaN fails the pass test.
    """
    guide, matroid = as_guide(f), as_lifted(matroid)
    guide.memo.clear()
    matroid.memo.clear()
    issues = []
    fresh = LocalOptCertificate.at(
        make_tracker(guide, s), matroid, certificate.eps, certificate.warm_value
    )
    if not _same_float(fresh.gap, certificate.gap):
        issues.append(
            f"gap mismatch: recomputed {fresh.gap!r}, stored {certificate.gap!r}"
        )
    if fresh.witness != certificate.witness:
        issues.append("witness mismatch")
    expected_bound = certificate.eps * certificate.warm_value
    if not _same_float(certificate.bound, expected_bound):
        issues.append(
            f"bound mismatch: stored {certificate.bound!r}, "
            f"eps * warm_value = {expected_bound!r}"
        )
    if not certificate.passes():
        issues.append(
            f"certificate does not pass: gap {certificate.gap!r} exceeds "
            f"bound {certificate.bound!r}"
        )
    return issues
