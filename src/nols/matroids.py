"""Matroid independence oracles and exchange subroutines.

Every matroid answers ``is_independent(S)``, and solvers never peek at
internal structure. A matroid may also offer the incremental pair
``state(S)`` and ``extends(state, u)`` (see ``core.MatroidOracle``), which
asks S + u from a state held for S instead of from S itself: the uniform,
partition and graphic matroids do, and ``LiftedMatroid`` always does, over
its inner pair when there is one and over ``is_independent`` when not.
The exchange helpers (``extend_to_base``, ``max_weight_independent``,
``min_weight_exchange``) ask through ``as_lifted``, so they work unchanged
on counted oracles, on proxies that offer ``is_independent`` alone, and on
lifted matroids.

``matroid_axiom_violations`` is the one matroid-axiom checker: it backs
``ExplicitMatroid`` (at most 20 elements, checked at construction) and
``nols.verify.check_matroid_axioms`` (any oracle, exhaustive to 16).
"""

from __future__ import annotations

import math
from typing import Collection, Iterator, Mapping, Sequence

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

    def is_independent(self, s: ElementSet) -> bool:
        parent = list(range(self.vertex_count))
        edges = self.edges
        m = s.mask
        while m:
            low = m & -m
            m ^= low
            a, b = edges[low.bit_length() - 1]
            while (up := parent[a]) != a:
                parent[a] = a = parent[up]
            while (up := parent[b]) != b:
                parent[b] = b = parent[up]
            if a == b:
                return False  # self-loop or cycle closed
            parent[a] = b
        return True

    def state(self, s: ElementSet) -> list[int]:
        parent = list(range(self.vertex_count))
        edges = self.edges
        m = s.mask
        while m:
            low = m & -m
            m ^= low
            a, b = edges[low.bit_length() - 1]
            while (up := parent[a]) != a:
                parent[a] = a = parent[up]
            while (up := parent[b]) != b:
                parent[b] = b = parent[up]
            parent[a] = b
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

    The lift always offers the incremental pair. state(S) holds S's
    occupied first-level bits, its base mask and the inner matroid's state
    of that base set (None when the inner matroid has no pair).
    extends(state, u) is a bit test for the multiplicity check and a lookup
    in the same memo, under the same key, as is_independent(S + u); a miss
    asks the inner matroid's extends, or its is_independent of the base
    set plus u's base element. Neither walks bits.
    """

    __slots__ = (
        "inner", "levels", "ground_size", "memo", "_shifts", "_firsts", "_inner_state",
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
        self._inner_state = inner.state if hasattr(inner, "extends") else None

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

    def state(self, s: ElementSet) -> tuple[int, int, object]:
        """The incremental state of an independent lifted set s, uncharged:
        (occupied first-level bits, base mask, inner state or None)."""
        occupied = self._occupied(s)
        base = self._base(occupied)
        take = self._inner_state
        inner = None if take is None else take(ElementSet(self.inner.ground_size, base))
        return occupied, base, inner

    def extends(self, state: tuple[int, int, object], u: ElementId) -> bool:
        """is_independent(S + u) from state(S), for u outside S."""
        occupied, base, inner_state = state
        b = u // self.levels
        first = 1 << b * self.levels
        if occupied & first:
            return False  # u's base element is already in S
        key = occupied | first
        known = self.memo.get(key)
        if known is None:
            if inner_state is None:
                known = self.inner.is_independent(
                    ElementSet(self.inner.ground_size, base | 1 << b)
                )
            else:
                known = self.inner.extends(inner_state, b)
            self.memo[key] = known
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
    s = start
    state = matroid.state(s)
    skipped = start.mask | (0 if dependent is None else dependent.mask)
    for u in ElementSet(n, ((1 << n) - 1) & ~skipped):
        if matroid.extends(state, u):
            s = s.add(u)
            state = matroid.state(s)
    return s


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

    On a LiftedMatroid the answer is already known for some copies of a
    base element, and is not asked: a copy of a base element the set holds
    is rejected by the multiplicity check, and a copy of one refused since
    the set last grew would be a memo hit on the same projection. Both are
    rejected, as the answer would reject them, so the inner matroid is
    asked the same sets in the same order. The others are asked through
    as_lifted's incremental pair, from a state of the set taken again after
    each add.

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
    order = sorted(range(n), key=lambda u: (-w[u], u))
    s = ElementSet.empty(n)
    if rank == 0:
        return s
    state = matroid.state(s)
    ell = matroid.levels
    held = known = 0  # base elements held; held or refused since the last add
    for u in order:
        if w[u] < 0:
            continue
        base = 1 << u // ell
        if known & base:
            continue
        if matroid.extends(state, u):
            s = s.add(u)
            if len(s) == rank:
                break
            state = matroid.state(s)
            held |= base
            known = held
        else:
            known |= base
    return s


def min_weight_exchange(
    matroid: MatroidOracle,
    s: ElementSet,
    s_prime: ElementSet,
    v: ElementId,
    weights: Mapping[ElementId, float],
) -> ElementId:
    """Cheapest u in s_prime whose removal lets v join: argmin w(u) with
    S - u + v independent.

    Preconditions (trusted, not queried): S independent, s_prime subset of
    S, v outside S with S + v dependent, and (S - s_prime) + v independent.
    Label s_prime ascending by (weight, id); feasibility of keeping the
    label suffix is monotone, so the boundary label is found by binary
    search in at most ceil(log2(|s_prime|)) queries, and the boundary
    element is exactly the (weight, id)-minimal feasible swap.
    """
    if len(s_prime) == 0:
        raise ValueError("s_prime must be non-empty")
    labels = sorted(s_prime, key=lambda u: (weights[u], u))
    m = len(labels)
    # suffix[i] = mask of labels[i:]
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << labels[i])
    outside = (s.mask & ~s_prime.mask) | (1 << v)
    n = s.n

    def keeps_suffix(i: int) -> bool:
        # independent when keeping labels[i-1:] (1-indexed position i)
        return matroid.is_independent(ElementSet(n, outside | suffix[i - 1]))

    # invariant: P(lo) false, P(hi) true, with P(1) false and P(m+1) true
    # guaranteed by the preconditions
    lo, hi = 1, m + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if keeps_suffix(mid):
            hi = mid
        else:
            lo = mid
    return labels[hi - 2]
