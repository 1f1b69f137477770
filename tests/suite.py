"""Shared fixture builders used across the test modules.

Everything here is deterministic: builders take explicit seeds and the
returned instances are integer-valued so bound checks can run in exact
arithmetic.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from nols.core import (
    COMPARISON_SLACK,
    ElementSet,
    RandomSource,
    ge,
    gt,
    left_sum,
    sample_without_replacement,
)
from nols.instances import InstanceFile, generate_instance
from nols.matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    as_lifted,
    extend_to_base,
)
from nols.objectives import CoverageFunction, as_guide, make_tracker
from nols.solvers import LocalOptCertificate, LocalSearchResult, ceil_sqrt

# f({1}) = 2, f({3}) = 3, f({1,3}) = 5 = OPT under a rank-2 uniform matroid
TINY_COVERS = [[0], [0, 1], [1, 2], [2, 3, 4]]
TINY_UNIVERSE = 5


def tiny_coverage() -> tuple[CoverageFunction, UniformMatroid]:
    return CoverageFunction(TINY_UNIVERSE, TINY_COVERS), UniformMatroid(4, 2)


class FamilyMatroid:
    """Independence oracle over a family of masks, taken as given: unlike
    ExplicitMatroid it checks no axiom, so negative tests can build a
    family that is not a matroid."""

    def __init__(self, n: int, family):
        self.ground_size = n
        self.family = frozenset(family)

    def is_independent(self, s: ElementSet) -> bool:
        return s.mask in self.family


class RecordingOracle:
    """Pass-through value oracle that records every set it is asked.

    With incremental=True it offers the inner oracle's state/extend pair,
    and its retract too unless retract=False (without retract, an oracle
    is asked through eval alone); its states carry the set's mask, so each
    extend or retract records the set it reaches. extends and retracts
    count those calls."""

    def __init__(self, inner, incremental, retract=True):
        self.inner = inner
        self.ground_size = inner.ground_size
        self.seen = []
        self.extends = self.retracts = 0
        if incremental:
            self.state = lambda s: (s.mask, inner.state(s))
            self.extend = self._extend
            if retract and hasattr(inner, "retract"):
                self.retract = self._retract

    def eval(self, s):
        self.seen.append(s.mask)
        return self.inner.eval(s)

    def _extend(self, state, u):
        mask, inner_state = state
        self.seen.append(mask | 1 << u)
        self.extends += 1
        return self.inner.extend(inner_state, u)

    def _retract(self, state, u):
        mask, inner_state = state
        self.seen.append(mask & ~(1 << u))
        self.retracts += 1
        return self.inner.retract(inner_state, u)


class RecordingMatroid:
    """Pass-through independence oracle that records every set it is asked.

    With incremental=True it offers the inner oracle's state/extends pair;
    its states carry the set's mask, so each extends records the set it
    asks, and extended counts the extends calls."""

    def __init__(self, inner, incremental=False):
        self.inner = inner
        self.ground_size = inner.ground_size
        self.seen = []
        self.extended = 0
        if incremental:
            self.state = lambda s: (s.mask, inner.state(s))
            self.extends = self._extends

    def is_independent(self, s: ElementSet) -> bool:
        self.seen.append(s.mask)
        return self.inner.is_independent(s)

    def _extends(self, state, u):
        mask, inner_state = state
        self.seen.append(mask | 1 << u)
        self.extended += 1
        return self.inner.extends(inner_state, u)


class SquaredSize:
    """|S|^2: supermodular, so every swap looks improving and every
    randomized attempt fails its certificate."""

    ground_size = 6

    def eval(self, s):
        return len(s) ** 2


def eager_threshold_greedy(f, matroid):
    """Reference descending-thresholds warm start: every sweep walks all n
    elements and visits those whose lazy upper bound clears tau. The warm
    start in nols.solvers must ask the same queries in the same order and
    reach the same set. Returns the tracker at the warm set."""
    return _eager_warm(f, matroid)[0]


def _eager_warm(f, matroid):
    # eager_threshold_greedy, plus the mask of elements found dependent and
    # the first bounds, every element's add-marginal at the empty set
    n = f.ground_size
    tracker = make_tracker(f, ElementSet.empty(n))
    dead = 0
    if n == 0:
        return tracker, dead, []
    empty_value = tracker.value
    ub = [tracker.marginal_add(u) for u in range(n)]
    first = list(ub)
    tau_max = max(empty_value + m for m in ub)  # largest singleton value
    if tau_max <= 0:
        return tracker, dead, first
    floor = 0.125 * tau_max / n
    tau = tau_max
    while tau >= floor:
        for u in range(n):
            if u in tracker.current or (dead >> u) & 1:
                continue
            if not ge(ub[u], tau):
                continue
            m = tracker.marginal_add(u)
            ub[u] = m
            if ge(m, tau):
                if matroid.is_independent(tracker.current.add(u)):
                    tracker.apply(add=u)
                else:
                    dead |= 1 << u
        tau *= 1.0 - 0.125
    return tracker, dead, first


def eager_local_search(f, matroid, eps):
    """Reference deterministic search: the eager warm start, the base
    extension, then swap scans that ask every candidate's add-marginal,
    with no bound carried across swaps, and the certificate, its greedy
    stopped at the rank. A candidate's singleton is asked only after its
    gain test, right before the exchange search.
    deterministic_local_search must make the same swaps in the same scans,
    ask the same independence queries and reach the same result, while in
    each state it asks no value query this search does not. It asks
    independence through as_lifted(matroid), as the search does."""
    matroid = as_lifted(matroid)
    n = f.ground_size
    tracker, dead, _ = _eager_warm(f, matroid)
    warm_set, warm_value = tracker.current, tracker.value
    for u in extend_to_base(matroid, warm_set, ElementSet(n, dead)).difference(warm_set):
        tracker.apply(add=u)
    r = len(tracker.current)
    threshold = (eps / r) * warm_value if r > 0 else 0.0

    def clears(value):
        return ge(value, threshold) if threshold > 0 else gt(value, 0.0)

    iterations = 0
    while True:
        iterations += 1
        if iterations > math.ceil(3 * r / eps) + 1:
            raise RuntimeError("swap-count invariant violated")
        s = tracker.current
        drop_w = {u: tracker.marginal_drop(u) for u in s}
        min_drop = min(drop_w.values(), default=0.0)
        for v in range(n):
            if v in s:
                continue
            gain_add = tracker.marginal_add(v)
            if not clears(gain_add - min_drop):
                continue
            if not matroid.is_independent(ElementSet(n, 1 << v)):
                continue
            u_v = reference_exchange(matroid, s, s, v, drop_w)
            if clears(gain_add - drop_w[u_v]):
                tracker.apply(add=v, drop=u_v)
                break
        else:
            break
    certificate = LocalOptCertificate.at(tracker, matroid, eps, warm_value, rank=r)
    return LocalSearchResult(
        tracker.current, tracker.value, warm_set, iterations, certificate
    )


def reference_exchange(matroid, s, s_prime, v, weights):
    """Reference exchange search for one candidate v, with nothing shared
    between candidates: it labels s_prime ascending by (weight, id) and
    binary-searches the kept label suffix, asking is_independent((S -
    s_prime) + v + suffix) of the matroid itself. min_weight_exchange on an
    exchange_pool of the same (S, s_prime, weights) must return the same
    partner and, through as_lifted, ask the same sets in the same order."""
    labels = sorted(s_prime, key=lambda u: (weights[u], u))
    outside = (s.mask & ~s_prime.mask) | (1 << v)
    lo, hi = 1, len(labels) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        kept = outside
        for u in labels[mid - 1 :]:
            kept |= 1 << u
        if matroid.is_independent(ElementSet(s.n, kept)):
            hi = mid
        else:
            lo = mid
    return labels[hi - 2]


def asking_greedy(matroid, weights, *, rank=None):
    """Reference max-weight greedy that asks the matroid about every
    element it tries: descending weight, ties toward the smaller id,
    negative weights skipped, stopped once the set has rank elements.
    max_weight_independent must return the same set, and the oracle under
    a lift must be asked the same sets in the same order."""
    n = matroid.ground_size
    order = sorted(range(n), key=lambda u: (-weights[u], u))
    s = ElementSet.empty(n)
    if rank == 0:
        return s
    for u in order:
        if weights[u] < 0:
            continue
        if matroid.is_independent(s.add(u)):
            s = s.add(u)
            if len(s) == rank:
                break
    return s


def full_scan_local_search(f, matroid, eps):
    """Reference deterministic search that walks all n candidates in every
    scan, with the carried bounds capped by the singleton marginals, on the
    eager warm start, which asks the matroid about every element that
    clears; its certificate's greedy is asking_greedy stopped at the rank.
    deterministic_local_search must reach the same result, and the oracles
    under the guide and the lift must be asked the same sets in the same
    order."""
    f, matroid = as_guide(f), as_lifted(matroid)
    n = f.ground_size
    tracker, dead, ub = _eager_warm(f, matroid)
    warm_set, warm_value = tracker.current, tracker.value
    for u in extend_to_base(matroid, warm_set, ElementSet(n, dead)).difference(warm_set):
        tracker.apply(add=u)
    r = len(tracker.current)
    threshold = (eps / r) * warm_value if r > 0 else 0.0

    def clears(value):
        return ge(value, threshold) if threshold > 0 else gt(value, 0.0)

    carried = {}
    dropped = 0.0
    loops = 0
    iterations = 0
    while True:
        iterations += 1
        if iterations > math.ceil(3 * r / eps) + 1:
            raise RuntimeError("swap-count invariant violated")
        s = tracker.current
        drop_w = {u: tracker.marginal_drop(u) for u in s}
        min_drop = min(drop_w.values(), default=0.0)
        for v in range(n):
            if (s.mask | loops) >> v & 1:
                continue
            known = carried.get(v)
            bound = ub[v] if known is None else min(ub[v], known[0] + (dropped - known[1]))
            if bound - min_drop < threshold:
                bound += COMPARISON_SLACK * max(1.0, abs(bound))
                if not clears(bound - min_drop):
                    continue
            gain_add = tracker.marginal_add(v)
            carried[v] = (gain_add, dropped)
            if not clears(gain_add - min_drop):
                continue
            if not matroid.is_independent(ElementSet(n, 1 << v)):
                loops |= 1 << v
                continue
            u_v = reference_exchange(matroid, s, s, v, drop_w)
            if clears(gain_add - drop_w[u_v]):
                tracker.apply(add=v, drop=u_v)
                dropped += drop_w[u_v] - f.reg_terms[u_v]
                break
        else:
            break
    s = tracker.current
    w = [tracker.marginal_drop(v) if v in s else tracker.marginal_add(v) for v in range(n)]
    witness = asking_greedy(matroid, w, rank=r)
    gap = left_sum(w[v] for v in witness) - left_sum(w[u] for u in s)
    certificate = LocalOptCertificate(witness, gap, eps * warm_value, eps, warm_value)
    return LocalSearchResult(s, tracker.value, warm_set, iterations, certificate)


def small_matroid(kind: str, n: int, r: int, seed: int):
    """A uniform, partition, graphic or explicit matroid on n elements.

    uniform has rank min(r, n); partition has r blocks (u mod r), one pick
    each; graphic has n random edges on r + 1 vertices, self-loops among
    them; explicit lists the graphic one's independent sets (n <= 20)."""
    if kind == "uniform":
        return UniformMatroid(n, min(r, n))
    if kind == "partition":
        return PartitionMatroid(n, [range(i, n, r) for i in range(r)], [1] * r)
    rng = RandomSource(seed)
    edges = [(rng.randrange(r + 1), rng.randrange(r + 1)) for _ in range(n)]
    graphic = GraphicMatroid(r + 1, edges)
    if kind == "graphic":
        return graphic
    return ExplicitMatroid(
        n, [mask for mask in range(1 << n) if graphic.is_independent(ElementSet(n, mask))]
    )


def full_budget_randomized_search(f, matroid, eps, rng, attempts):
    """Reference randomized search that runs every attempt's whole budget.

    Each attempt draws its tested index i in [0, k) first, as
    randomized_local_search does, then runs all k = ceil(18 r / eps)
    iterations with the same sampling (R1 taken without a draw when it is
    the whole solution), keeps the trajectory, and tests S_i on a tracker
    made at it, the certificate's greedy stopped at the rank. The
    iterations after i draw from a generator of their own, so they leave
    the stream the next attempt draws from as the search leaves it: any
    difference in the answer would be theirs. Values and independence go
    through as_guide(f) and as_lifted(matroid), as in the search."""
    f, matroid = as_guide(f), as_lifted(matroid)
    n = f.ground_size
    tracker, dead, _ = _eager_warm(f, matroid)
    warm_set, warm_value = tracker.current, tracker.value
    for u in extend_to_base(matroid, warm_set, ElementSet(n, dead)).difference(warm_set):
        tracker.apply(add=u)
    base = tracker.current
    r = len(base)
    root = ceil_sqrt(n)
    k = max(1, math.ceil(18 * r / eps))
    r1_size = min(r, root)
    r2_size = min(n, max(math.ceil(n / r) if r > 0 else root, root))
    tail = RandomSource(0)
    certificate = None
    made = iterations = 0
    while certificate is None and made < attempts:
        tracker = make_tracker(f, base)
        made += 1
        stop = rng.randrange(k)
        iterations += stop
        trajectory = [tracker.current]
        for i in range(k):
            draw = rng if i < stop else tail
            s = tracker.current
            r1 = s if r1_size == r else sample_without_replacement(draw, s, r1_size)
            r2 = sample_without_replacement(draw, ElementSet.full(n), r2_size)
            stripped = s.mask & ~r1.mask
            feasible = [
                v
                for v in r2
                if v not in s
                and matroid.is_independent(ElementSet(n, stripped | (1 << v)))
            ]
            best = None
            if feasible and len(r1) > 0:
                drop_w = {u: tracker.marginal_drop(u) for u in r1}
                for v in feasible:
                    gain_add = tracker.marginal_add(v)
                    u_v = reference_exchange(matroid, s, r1, v, drop_w)
                    gain = gain_add - drop_w[u_v]
                    if best is None or gain > best[0]:
                        best = (gain, v, u_v)
            if best is not None and ge(best[0], 0.0):
                tracker.apply(add=best[1], drop=best[2])
            trajectory.append(tracker.current)
        tracker = make_tracker(f, trajectory[stop])
        candidate = LocalOptCertificate.at(tracker, matroid, eps, warm_value, rank=r)
        if candidate.passes():
            certificate = candidate
    return LocalSearchResult(
        tracker.current, tracker.value, warm_set, iterations, certificate
    )


SUITE_SHAPES = (
    (8, 2, 1),
    (10, 3, 2),
    (12, 3, 3),
    (14, 4, 4),
    (9, 2, 5),
    (11, 3, 6),
    (13, 4, 7),
    (10, 4, 8),
)


def brute_forceable_suite() -> list[InstanceFile]:
    """32 integer-valued instances with n <= 14, r <= 4, all four families."""
    return [
        generate_instance(family, n, r, seed)
        for family in ("coverage", "partition", "graphic", "modular")
        for (n, r, seed) in SUITE_SHAPES
    ]


def small_suite(max_n: int = 10) -> list[InstanceFile]:
    return [inst for inst in brute_forceable_suite() if inst.n <= max_n]


def bait_chain(
    n: int, r: int, seed: int, patch: int = 100, bite: int = 51
) -> tuple[CoverageFunction, UniformMatroid]:
    """Coverage instance whose greedy warm start needs a long repair chain.

    r disjoint "true" patches of size patch sit at the top of the index
    space; bait elements each straddle two consecutive patches covering
    bite points of each, so their singleton value beats a patch and greedy
    swallows the whole chain. Local search then has to swap baits out one
    at a time, exercising the swap loop rather than terminating on the
    first confirming scan. Junk singletons at the low indices make every
    scan pay the full candidate walk.
    """
    if n < 2 * r:
        raise ValueError("need n >= 2r for the chain construction")
    rng = RandomSource(seed)
    junk = max(4 * (n - (2 * r - 1)), 1)
    universe = r * patch + junk
    base = r * patch
    covers: list[list[int]] = []
    while len(covers) < n - (2 * r - 1):
        covers.append([base + rng.randrange(junk)])
    for j in range(r - 1):
        pts = list(range(j * patch, j * patch + bite))
        pts += list(range((j + 1) * patch, (j + 1) * patch + bite))
        covers.append(pts)
    for i in range(r):
        covers.append(list(range(i * patch, (i + 1) * patch)))
    return CoverageFunction(universe, covers), UniformMatroid(n, r)


def relay() -> tuple[CoverageFunction, UniformMatroid]:
    """Four elements, rank 2, where a candidate's add-marginal rises past
    the acceptance threshold only because of an earlier swap.

    b (element 0) covers 113 points of its own, a (1) covers X (100
    points), v (2) covers X and 12 more, w (3) covers 106 others. The warm
    start takes b, then a, the first of a, v and w to clear its threshold.
    At eps = 0.05 the first scan rejects v, whose marginal is 12, and swaps
    w in for a; the second swaps v in for w, now that X is free. A bound on
    v carried from the first scan must grow by a's drop marginal, or the
    second scan skips v. With a regularizer of -0.5 on a it must grow by
    the guide part alone: the term is a modular share of a's drop."""
    x = list(range(100))
    covers = [list(range(218, 331)), x, x + list(range(100, 112)), list(range(112, 218))]
    return CoverageFunction(331, covers), UniformMatroid(4, 2)


def greedy_independent(matroid, n: int, rng: RandomSource) -> ElementSet:
    """A random maximal-ish independent set, for exchange test cases."""
    s = ElementSet.empty(n)
    order = list(range(n))
    rng.shuffle(order)
    for u in order:
        cand = s.add(u)
        if matroid.is_independent(cand):
            s = cand
    return s


# arbitrary JSON values for fuzzing the document loaders
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)  # small, so a bitmask built from one stays small
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def mutate(doc, path, value):
    """Replace (or with value None at an object key, maybe delete) the node
    the path of indices selects."""
    node = doc
    for step in path:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            break
        key = keys[step % len(keys)]
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or step % 3 == 0:
            if isinstance(node, dict) and value is None and step % 2:
                del node[key]
            else:
                node[key] = value
            return doc
        node = child
    return doc
