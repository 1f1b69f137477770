"""Shared fixture builders used across the test modules.

Everything here is deterministic: builders take explicit seeds and the
returned instances are integer-valued so bound checks can run in exact
arithmetic.
"""

from __future__ import annotations

from hypothesis import strategies as st

from nols.core import ElementSet, RandomSource, ge
from nols.instances import InstanceFile, generate_instance
from nols.matroids import UniformMatroid
from nols.objectives import CoverageFunction, make_tracker

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

    With incremental=True it offers the inner oracle's state/extend pair;
    its states carry the set's mask, so each extend records the set it
    reaches."""

    def __init__(self, inner, incremental):
        self.inner = inner
        self.ground_size = inner.ground_size
        self.seen = []
        self.extends = 0
        if incremental:
            self.state = lambda s: (s.mask, inner.state(s))
            self.extend = self._extend

    def eval(self, s):
        self.seen.append(s.mask)
        return self.inner.eval(s)

    def _extend(self, state, u):
        mask, inner_state = state
        self.seen.append(mask | 1 << u)
        self.extends += 1
        return self.inner.extend(inner_state, u)


class RecordingMatroid:
    """Pass-through independence oracle that records every set it is asked."""

    def __init__(self, inner):
        self.inner = inner
        self.ground_size = inner.ground_size
        self.seen = []

    def is_independent(self, s: ElementSet) -> bool:
        self.seen.append(s.mask)
        return self.inner.is_independent(s)


def eager_threshold_greedy(f, matroid):
    """Reference descending-thresholds warm start: every sweep walks all n
    elements and visits those whose lazy upper bound clears tau. The warm
    start in nols.solvers must ask the same queries in the same order and
    reach the same set. Returns the tracker at the warm set."""
    n = f.ground_size
    tracker = make_tracker(f, ElementSet.empty(n))
    if n == 0:
        return tracker
    empty_value = tracker.value
    ub = [tracker.marginal_add(u) for u in range(n)]
    tau_max = max(empty_value + m for m in ub)  # largest singleton value
    if tau_max <= 0:
        return tracker
    floor = 0.125 * tau_max / n
    dead = 0
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
    return tracker


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
