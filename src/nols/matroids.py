"""Matroid independence oracles and exchange subroutines.

Every matroid answers ``is_independent(S)``, and solvers never peek at
internal structure. A matroid may also offer the incremental pair
``state(S)`` and ``extends(state, u)`` (see ``core.MatroidOracle``), which
asks S + u from a state held for S instead of from S itself: the uniform,
partition and graphic matroids do, and ``LiftedMatroid`` always does, over
its inner pair when there is one and over ``is_independent`` when not.
The lift alone knows how lifted sets are laid out: it answers a copy of a
base element S holds, or of one refused since S last grew, without asking
the inner matroid. The exchange helpers (``extend_to_base``,
``max_weight_independent``, ``exchange_pool`` with ``min_weight_exchange``)
ask through ``as_lifted``, so they work unchanged on counted oracles, on
proxies that offer ``is_independent`` alone, and on lifted matroids.

``matroid_axiom_violations`` is the one matroid-axiom checker: it backs
``ExplicitMatroid`` (at most 20 elements, checked at construction) and
``nols.verify.check_matroid_axioms`` (any oracle, exhaustive to 16).
"""

from __future__ import annotations

import math
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .core import ElementId, ElementSet, MatroidOracle


class UniformMatroid:
    """Independent iff |S| <= k."""

    __slots__ = ("ground_size", "k")

    def __init__(self, n: int, k: int):
        if n < 0 or k < 0:
            raise ValueError("n and k must be non-negative")
        self.ground_size = n
        self.k = k

    def is_independent(self, s: ElementSet) -> bool:
        return len(s) <= self.k

    def state(self, s: ElementSet) -> int:
        """The incremental state of S: its size."""
        return len(s)

    def extends(self, size: int, u: ElementId) -> bool:
        return size < self.k

    def __repr__(self):
        return f"UniformMatroid(n={self.ground_size}, k={self.k})"


class PartitionMatroid:
    """Blocks partition the ground set; at most capacity[i] picks per block."""

    __slots__ = ("ground_size", "capacities", "_block_masks", "_block_of")

    def __init__(
        self,
        n: int,
        blocks: Sequence[Sequence[ElementId]],
        capacities: Sequence[int],
    ):
        if len(blocks) != len(capacities):
            raise ValueError("one capacity per block required")
        masks = []
        block_of = [0] * n
        seen = 0
        for i, block in enumerate(blocks):
            m = 0
            for u in block:
                if not 0 <= u < n:
                    raise ValueError(f"element {u} outside universe")
                m |= 1 << u
                block_of[u] = i
            if m & seen:
                raise ValueError("blocks must be disjoint")
            seen |= m
            masks.append(m)
        if seen.bit_count() != n:  # every member is below n, so this is cover
            raise ValueError("blocks must cover the ground set")
        if any(c < 0 for c in capacities):
            raise ValueError("capacities must be non-negative")
        self.ground_size = n
        self.capacities = tuple(capacities)
        self._block_masks = tuple(masks)
        self._block_of = tuple(block_of)

    def is_independent(self, s: ElementSet) -> bool:
        return all(
            (s.mask & m).bit_count() <= c
            for m, c in zip(self._block_masks, self.capacities)
        )

    def state(self, s: ElementSet) -> list[int]:
        """The incremental state of S: its count in each block."""
        return [(s.mask & m).bit_count() for m in self._block_masks]

    def extends(self, counts: list[int], u: ElementId) -> bool:
        block = self._block_of[u]
        return counts[block] < self.capacities[block]

    def __repr__(self):
        return f"PartitionMatroid(n={self.ground_size}, blocks={len(self.capacities)})"


class GraphicMatroid:
    """Ground set = edges of a multigraph; independent iff the edges are acyclic.

    Each query runs a fresh union-find with path halving over the selected
    edges, on a local parent list, so the oracle is stateless between calls.
    The incremental state of S is the root of every vertex's component in
    S's forest, so S + u is independent iff edge u joins two roots.
    """

    __slots__ = ("ground_size", "vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int]]):
        for a, b in edges:
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge ({a},{b}) outside vertex range")
        self.ground_size = len(edges)
        self.vertex_count = vertex_count
        self.edges = tuple((a, b) for a, b in edges)

    def _forest(self, mask: int) -> list[int] | None:
        """Union-find parents of the edges in mask, or None once one closes
        a cycle (a self-loop included)."""
        parent = list(range(self.vertex_count))
        edges = self.edges
        while mask:
            low = mask & -mask
            mask ^= low
            a, b = edges[low.bit_length() - 1]
            while (up := parent[a]) != a:
                parent[a] = a = parent[up]
            while (up := parent[b]) != b:
                parent[b] = b = parent[up]
            if a == b:
                return None
            parent[a] = b
        return parent

    def is_independent(self, s: ElementSet) -> bool:
        return self._forest(s.mask) is not None

    def state(self, s: ElementSet) -> list[int]:
        parent = self._forest(s.mask)
        # point every vertex at its root
        for x in range(self.vertex_count):
            root = x
            while (up := parent[root]) != root:
                parent[root] = root = parent[up]
            parent[x] = root
        return parent

    def extends(self, roots: list[int], u: ElementId) -> bool:
        a, b = self.edges[u]
        return roots[a] != roots[b]

    def __repr__(self):
        return (
            f"GraphicMatroid(vertices={self.vertex_count}, edges={self.ground_size})"
        )


class ExplicitMatroid:
    """Matroid given by the full list of independent sets. Test scale only,
    capped at n <= 20.

    The family is checked against the matroid axioms at construction by
    ``matroid_axiom_violations``; a family that fails raises ValueError
    naming the first axiom it violates.
    """

    MAX_GROUND = 20

    __slots__ = ("ground_size", "_family")

    def __init__(
        self, n: int, independent: Sequence[Sequence[ElementId]] | Sequence[int]
    ):
        if n > self.MAX_GROUND:
            raise ValueError(f"explicit matroid capped at n <= {self.MAX_GROUND}")
        masks = set()
        for s in independent:
            if isinstance(s, int):
                mask = s
                if mask < 0 or mask >> n:
                    raise ValueError("mask outside universe")
            else:
                mask = ElementSet.from_iterable(n, s).mask
            masks.add(mask)
        problem = next(matroid_axiom_violations(masks), None)
        if problem is not None:
            raise ValueError(f"independent family is not a matroid: {problem}")
        self.ground_size = n
        self._family = frozenset(masks)

    def is_independent(self, s: ElementSet) -> bool:
        return s.mask in self._family

    def __repr__(self):
        return f"ExplicitMatroid(n={self.ground_size}, sets={len(self._family)})"


def mask_text(mask: int) -> str:
    """The members of a bitmask as ``{0,2,5}``, ascending."""
    return "{" + ",".join(str(u) for u in ElementSet(mask.bit_length(), mask)) + "}"


def matroid_axiom_violations(family: Collection[int]) -> Iterator[str]:
    """Yield every matroid-axiom violation of a family of independent masks.

    The one axiom checker: ``ExplicitMatroid`` raises on the first
    violation, ``nols.verify.check_matroid_axioms`` reports the first 20.
    Checks, in this order: the empty set is in the family; downward closure
    (masks ascending, removed element ascending); exchange between sizes k
    and k+1 (k ascending, then the larger mask, then the smaller), which
    implies the general form by downward closure.
    """
    family = set(family)
    if 0 not in family:
        yield "empty set is dependent"
    by_size: dict[int, list[int]] = {}
    addable: dict[int, int] = {}  # addable[s]: elements u with s + u independent
    for m in sorted(family):
        by_size.setdefault(m.bit_count(), []).append(m)
        rem = m
        while rem:
            lsb = rem & -rem
            rem ^= lsb
            addable[m ^ lsb] = addable.get(m ^ lsb, 0) | lsb
            if m ^ lsb not in family:
                yield (
                    f"downward closure fails: {mask_text(m)} independent but "
                    f"{mask_text(m ^ lsb)} is not"
                )
    for k, smaller in sorted(by_size.items()):
        for t in by_size.get(k + 1, ()):
            for s in smaller:
                if not t & ~s & addable.get(s, 0):
                    yield f"exchange fails: {mask_text(s)} cannot grow from {mask_text(t)}"


class LiftedMatroid:
    """Matroid over ground x {1..levels} flattened to base*levels + (level-1).

    A lifted set is independent iff no base element appears at two levels
    and the projection of the occupied base elements is independent in the
    inner matroid. The level-multiplicity check is free. memo maps each
    occupied set to the inner answer, so a projection costs one inner
    independence query the first time and nothing after: copies of one base
    element at different levels project to the same set. Reuse is exact
    because is_independent is a pure function of the set (the MatroidOracle
    contract).

    A query folds each base element's levels onto its first level with
    whole-mask shifts, about log2(levels) of them, so the multiplicity
    check and a memo hit cost a few big-int operations whatever the size of
    the set. Only a miss, which asks the inner matroid anyway, walks the
    occupied bits to build the base set it asks.

    The lift always offers the incremental pair. __init__ picks the inner
    pair once: the inner matroid's own state/extends, or else the base mask
    as the state and is_independent of the base set plus one element as
    extends. state(S) holds S's occupied first-level bits and the inner
    state of its base set. extends(state, u) is a bit test for the
    multiplicity check and a lookup in the same memo, under the same key,
    as is_independent(S + u); only a miss asks the inner pair. Neither
    walks bits. So a caller may ask extends of every copy of a base
    element: a copy of one S holds is refused by the bit test, and a copy
    of one refused since S last grew is a memo hit, neither charged.
    """

    __slots__ = (
        "inner", "levels", "ground_size", "memo", "_shifts", "_firsts",
        "_inner_state", "_inner_extends",
    )

    def __init__(self, inner: MatroidOracle, levels: int):
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.inner = inner
        self.levels = levels
        self.ground_size = inner.ground_size * levels
        self.memo: dict[int, bool] = {}
        # after OR-ing in these shifts, bit i of the fold is set iff the set
        # has a member in [i, i + levels); each step at most doubles the
        # window, and the last one stops it at exactly `levels`
        shifts = []
        width = 1
        while width < levels:
            step = min(width, levels - width)
            shifts.append(step)
            width += step
        self._shifts = tuple(shifts)
        # bit u*levels for every base element u: the first level of each
        self._firsts = ((1 << self.ground_size) - 1) // ((1 << levels) - 1)
        n = inner.ground_size
        if hasattr(inner, "extends"):
            self._inner_state = lambda base: inner.state(ElementSet(n, base))
            self._inner_extends = inner.extends
        else:
            self._inner_state = lambda base: base
            self._inner_extends = lambda base, b: inner.is_independent(
                ElementSet(n, base | 1 << b)
            )

    def _occupied(self, s: ElementSet) -> int:
        """Bit u*levels for each base element u with a member in s."""
        if s.n != self.ground_size:
            raise ValueError(
                f"lifted set over {s.n} elements, lifted matroid over "
                f"{self.ground_size}"
            )
        folded = s.mask
        for step in self._shifts:
            folded |= folded >> step
        return folded & self._firsts

    def _base(self, occupied: int) -> int:
        """The base-set mask of occupied first-level bits."""
        levels = self.levels
        if levels == 1:
            return occupied
        base = 0
        while occupied:
            low = occupied & -occupied
            base |= 1 << ((low.bit_length() - 1) // levels)
            occupied ^= low
        return base

    def is_independent(self, s: ElementSet) -> bool:
        occupied = self._occupied(s)
        if occupied.bit_count() != s.mask.bit_count():
            return False  # same base element at two levels
        known = self.memo.get(occupied)
        if known is None:
            base = ElementSet(self.inner.ground_size, self._base(occupied))
            known = self.inner.is_independent(base)
            self.memo[occupied] = known
        return known

    def state(self, s: ElementSet) -> tuple[int, object]:
        """The incremental state of an independent lifted set s, uncharged:
        (occupied first-level bits, inner state of the base set)."""
        occupied = self._occupied(s)
        return occupied, self._inner_state(self._base(occupied))

    def extends(self, state: tuple[int, object], u: ElementId) -> bool:
        """is_independent(S + u) from state(S), for u outside S."""
        occupied, inner_state = state
        levels = self.levels
        first = 1 << u - u % levels  # the first level of u's base element
        if occupied & first:
            return False  # u's base element is already in S
        key = occupied | first
        known = self.memo.get(key)
        if known is None:
            known = self.memo[key] = self._inner_extends(inner_state, u // levels)
        return known

    def __repr__(self):
        return f"LiftedMatroid(levels={self.levels}, inner={self.inner!r})"


def lift(matroid: MatroidOracle, levels: int) -> LiftedMatroid:
    """Build the lifted matroid over ground x {1..levels}."""
    return LiftedMatroid(matroid, levels)


def as_lifted(matroid: MatroidOracle) -> LiftedMatroid:
    """The matroid as a lifted one: a LiftedMatroid is returned as it is,
    any other becomes its one-level lift, which is the matroid itself with
    a memo in front. Both searches ask independence through this door."""
    if isinstance(matroid, LiftedMatroid):
        return matroid
    return LiftedMatroid(matroid, 1)


def _grow(
    matroid: LiftedMatroid,
    s: ElementSet,
    order: Iterable[ElementId],
    rank: int | None = None,
) -> ElementSet:
    """Add each element of order, in turn, that keeps s independent; stop
    once s has rank elements. S + u is asked through the lift's
    incremental pair, from a state of S taken again after each add."""
    state = matroid.state(s)
    for u in order:
        if matroid.extends(state, u):
            s = s.add(u)
            if len(s) == rank:
                break
            state = matroid.state(s)
    return s


def extend_to_base(
    matroid: MatroidOracle, start: ElementSet, dependent: ElementSet | None = None
) -> ElementSet:
    """Grow an independent set into a base with one ascending pass.

    One pass suffices: if some element could still be added afterwards, it
    could already be added when visited (downward closure). Costs one
    independence query per element outside the start set and outside
    ``dependent``.

    ``dependent`` (trusted, not queried) holds elements u already seen to
    make some subset W of start dependent. They are skipped without a
    query, which is exact by downward closure: W + u dependent and W within
    every set the pass builds make each of those sets plus u dependent too.

    Each S + u is asked through as_lifted's incremental pair from a state
    of S, taken again after each add. A start or dependent set over
    another ground size raises ValueError.
    """
    matroid = as_lifted(matroid)
    n = matroid.ground_size
    for name, given in (("start", start), ("dependent", dependent)):
        if given is not None and given.n != n:
            raise ValueError(f"{name} set over {given.n} elements, matroid over {n}")
    skipped = start.mask | (0 if dependent is None else dependent.mask)
    return _grow(matroid, start, ElementSet(n, ((1 << n) - 1) & ~skipped))


def rank(matroid: MatroidOracle) -> int:
    """Rank of the matroid, computed by extending the empty set."""
    return len(extend_to_base(matroid, ElementSet.empty(matroid.ground_size)))


def max_weight_independent(
    matroid: MatroidOracle,
    weights: Sequence[float] | Mapping[ElementId, float],
    *,
    rank: int | None = None,
) -> ElementSet:
    """Maximum-weight independent set by greedy, exact for matroids.

    Elements are tried in descending weight, ties toward the smaller id.
    Strictly negative weights are skipped (never helpful in a downward
    closed family); zero-weight elements are still added, so all-zero
    weights return the greedy base.

    ``rank`` (trusted, not queried) is the matroid's rank. The greedy stops
    once its set has that many elements: such a set is a base, so every
    later element would be rejected, and the set is the one the full pass
    returns without the queries that reject them.

    Each S + u is asked through as_lifted's incremental pair, from a state
    of S taken again after each add. On a lift, a copy of a base element S
    holds, or of one refused since S last grew, is answered by the lift
    without asking the inner matroid.

    weights must hold one weight per ground element, none of them NaN (a
    NaN would poison the sort); either mistake raises ValueError.
    """
    matroid = as_lifted(matroid)
    n = matroid.ground_size
    if len(weights) != n:
        raise ValueError(f"{len(weights)} weights for a matroid over {n} elements")
    w = [weights[u] for u in range(n)]
    for u, wu in enumerate(w):
        if math.isnan(wu):
            raise ValueError(f"weight {u} is NaN")
    s = ElementSet.empty(n)
    if rank == 0:
        return s
    order = sorted(range(n), key=lambda u: (-w[u], u))
    while order and w[order[-1]] < 0:  # negative weights sort last
        order.pop()
    return _grow(matroid, s, order, rank)


class _ExchangePool:
    """What exchange_pool builds; min_weight_exchange reads it."""

    __slots__ = ("matroid", "n", "labels", "sets", "states")


def exchange_pool(
    matroid: MatroidOracle,
    s: ElementSet,
    s_prime: ElementSet,
    weights: Mapping[ElementId, float],
) -> _ExchangePool:
    """The part of min_weight_exchange's search that (S, s_prime, weights)
    fix, built once for every candidate v searched against them.

    It labels s_prime ascending by (weight, id) and holds the mask of every
    kept-suffix set (S - s_prime) + labels[i:]. The state of a suffix set,
    through as_lifted's incremental pair, is taken the first time a search
    asks that set and kept for the later ones. Each search then asks
    extends(state, v), which the lift memoizes and charges exactly as
    is_independent((S - s_prime) + v + labels[i:]). An empty s_prime raises
    ValueError.
    """
    if len(s_prime) == 0:
        raise ValueError("s_prime must be non-empty")
    pool = _ExchangePool()
    pool.matroid = as_lifted(matroid)
    pool.n = s.n
    pool.labels = labels = sorted(s_prime, key=lambda u: (weights[u], u))
    # sets[i] = mask of (S - s_prime) + labels[i:]
    sets = [s.mask & ~s_prime.mask] * (len(labels) + 1)
    for i in range(len(labels) - 1, -1, -1):
        sets[i] = sets[i + 1] | (1 << labels[i])
    pool.sets = sets
    pool.states = [None] * len(sets)
    return pool


def min_weight_exchange(pool: _ExchangePool, v: ElementId) -> ElementId:
    """Cheapest u in s_prime whose removal lets v join: argmin w(u) with
    S - u + v independent, for the (S, s_prime, weights) of the pool.

    Preconditions (trusted, not queried): S independent, s_prime subset of
    S, v outside S with S + v dependent, and (S - s_prime) + v independent.
    Feasibility of keeping a label suffix is monotone, so the boundary
    label is found by binary search in at most ceil(log2(|s_prime|))
    queries, and the boundary element is exactly the (weight, id)-minimal
    feasible swap.
    """
    matroid, labels, sets, states = pool.matroid, pool.labels, pool.sets, pool.states
    # keeping labels[i-1:] (1-indexed position i) is P(i); invariant: P(lo)
    # false, P(hi) true, with P(1) false and P(m+1) true by the preconditions
    lo, hi = 1, len(labels) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        state = states[mid - 1]
        if state is None:
            state = states[mid - 1] = matroid.state(ElementSet(pool.n, sets[mid - 1]))
        if matroid.extends(state, v):
            hi = mid
        else:
            lo = mid
    return labels[hi - 2]
