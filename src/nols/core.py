"""Shared primitives: ground sets, query accounting, randomness, comparisons.

Everything downstream manipulates subsets of a ground set {0, ..., n-1}
through :class:`ElementSet`, counts oracle traffic through
:class:`QueryLedger`, and draws randomness through :class:`RandomSource`
so that every run is replayable from a single integer seed. Objective
values are compared through :func:`ge` and :func:`gt`, which share one
fixed relative slack, ``COMPARISON_SLACK``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol

ElementId = int

_MASK64 = (1 << 64) - 1


class ElementSet:
    """Immutable subset of a ground set {0, ..., n-1}, stored as a bitmask.

    Mutating operations return new sets; copies are O(1) on small universes
    because the state is a single int. Two sets compare equal only when both
    the universe size and the membership mask agree.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError("universe size must be non-negative")
        if mask < 0 or mask >> n:
            raise ValueError("mask has bits outside the universe")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    @classmethod
    def empty(cls, n: int) -> "ElementSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "ElementSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_iterable(cls, n: int, items: Iterable[ElementId]) -> "ElementSet":
        mask = 0
        for u in items:
            if not 0 <= u < n:
                raise ValueError(f"element {u} outside universe of size {n}")
            mask |= 1 << u
        return cls(n, mask)

    def __contains__(self, u: ElementId) -> bool:
        return 0 <= u < self.n and (self.mask >> u) & 1 == 1

    def __iter__(self) -> Iterator[ElementId]:
        # ascending order, used as the canonical iteration order everywhere
        m = self.mask
        while m:
            lsb = m & -m
            yield lsb.bit_length() - 1
            m ^= lsb

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"ElementSet({self.n}, {{{', '.join(map(str, self))}}})"

    def add(self, u: ElementId) -> "ElementSet":
        if not 0 <= u < self.n:
            raise ValueError(f"element {u} outside universe of size {self.n}")
        return ElementSet(self.n, self.mask | (1 << u))

    def remove(self, u: ElementId) -> "ElementSet":
        if u not in self:
            raise KeyError(u)
        return ElementSet(self.n, self.mask & ~(1 << u))

    def difference(self, other: "ElementSet") -> "ElementSet":
        if self.n != other.n:
            raise ValueError("sets live over different universes")
        return ElementSet(self.n, self.mask & ~other.mask)

    __sub__ = difference

    def to_list(self) -> list[ElementId]:
        return list(self)


@dataclass
class QueryLedger:
    """Counts oracle invocations. Never reset.

    Counters are plain ints; a solver run owns its ledger, so no
    synchronization is done here. Share across threads only with external
    locking.
    """

    value_queries: int = 0
    independence_queries: int = 0

    @property
    def total(self) -> int:
        return self.value_queries + self.independence_queries


class RandomSource:
    """Deterministic 64-bit PRNG (SplitMix64) behind every random draw.

    SplitMix64 is a counter-based generator: the state advances along a Weyl
    sequence and a fixed avalanche mix produces each output word. The same
    seed yields the same draw sequence on every platform and Python build,
    which is what makes replay tests byte-stable.

    randrange is the one place the step is written out. It advances a
    local copy of the state inside its rejection loop, so a draw is one
    method call however many words it rejects, and next_u64 is the draw
    that rejects none.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return self.randrange(1 << 64)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound). Unbiased via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # accept only words below the largest multiple of bound
        limit = (1 << 64) - ((1 << 64) % bound)
        state = self._state
        while True:
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < limit:
                self._state = state
                return z % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def sample_without_replacement(
    rng: RandomSource, pool: ElementSet, k: int
) -> ElementSet:
    """Uniform k-subset of pool, deterministic given the generator state.

    Partial Fisher-Yates over the ascending member list: draw k swap
    positions, keep the prefix. k must satisfy 0 <= k <= |pool|.

    Position p holds member p until a swap moves it, so only the swapped
    positions are stored. For the whole universe the members are range(n),
    and the walk costs O(k) with no member list built.
    """
    m = len(pool)
    if not 0 <= k <= m:
        raise ValueError(f"cannot sample {k} elements from a pool of {m}")
    items = range(m) if m == pool.n else pool.to_list()
    randrange = rng.randrange
    moved: dict[int, int] = {}
    mask = 0
    for i in range(k):
        j = i + randrange(m - i)
        mask |= 1 << items[moved.get(j, j)]
        moved[j] = moved.get(i, i)  # position i is never drawn again
    return ElementSet(pool.n, mask)


def left_sum(values: Iterable[float]) -> float:
    """Sum from the left, one rounding per addition, starting at int 0.

    This is what sum() gives on Python 3.10 and 3.11. From 3.12 sum()
    compensates float rounding, so report floats would depend on the
    interpreter; every float sum in the package goes through here instead.
    """
    total = 0
    for v in values:
        total += v
    return total


COMPARISON_SLACK = 1e-9  # relative; objective values are floats


def ge(lhs: float, rhs: float) -> bool:
    """lhs >= rhs up to the slack, scaled by max(1, |lhs|, |rhs|)."""
    return lhs >= rhs - COMPARISON_SLACK * max(1.0, abs(lhs), abs(rhs))


def gt(lhs: float, rhs: float) -> bool:
    """Strict comparison with the slack on the other side.

    Used where accepting a rounding-noise improvement would break
    termination (zero-threshold loops)."""
    return lhs > rhs + COMPARISON_SLACK * max(1.0, abs(lhs), abs(rhs))


class ValueOracle(Protocol):
    """Set function oracle: eval(S) -> value. ground_size is |N|.

    eval must be a pure function of the set: the same set always gives the
    same value, with no side effect the solver relies on. The lifted guide
    memoizes answers for the whole solve on that basis. eval and extend
    must return finite numbers; the guide raises ValueError on a NaN or
    infinite value.

    An oracle may also offer an incremental pair, state(S) -> state and
    extend(state, u) -> value, which the lifted guide built on it picks up
    once for its trackers' add-marginals. state(S) must be a pure function
    of the set, and extend(state(S), u) must equal eval(S + u) exactly. An
    extend counts as one value query. Without the pair, the guide keeps the
    set's mask as the state and extends it by an eval of S + u, also one
    query per extend. state is not charged, yet it may reveal f(S) (for
    coverage it is the covered-point mask), so it may only be called on a
    set whose value has already been charged, as the guide tracker does.
    """

    ground_size: int

    def eval(self, s: ElementSet) -> float: ...


class MatroidOracle(Protocol):
    """Independence oracle: is_independent(S) -> bool. ground_size is |N|.

    is_independent must be a pure function of the set: the same set always
    gives the same answer. The lifted matroid memoizes answers by projected
    set on that basis.

    An oracle may also offer an incremental pair, state(S) -> state and
    extends(state, u) -> bool, which the lifted matroid built on it picks
    up once. extends(state(S), u) must equal is_independent(S + u) for
    every u outside S. An extends is charged as one independence query,
    exactly where is_independent(S + u) would be. state is not charged, so
    it may only be asked of a set the caller already holds as independent:
    one whose independence has been charged, or the empty set.
    """

    ground_size: int

    def is_independent(self, s: ElementSet) -> bool: ...


class CountingValueOracle:
    """Pass-through value oracle that charges one query per eval.

    It offers the incremental pair exactly when its inner oracle does, and
    charges one query per extend. state is passed through uncharged, so a
    caller may only ask it of a set whose eval it has already been charged
    for (see ValueOracle). An unset slot is a missing attribute, so hasattr
    tells the two cases apart.
    """

    __slots__ = ("inner", "ledger", "state", "extend")

    def __init__(self, inner: ValueOracle, ledger: QueryLedger):
        self.inner = inner
        self.ledger = ledger
        if hasattr(inner, "extend"):
            self.state = inner.state
            self.extend = self._counted_extend

    @property
    def ground_size(self) -> int:
        return self.inner.ground_size

    def eval(self, s: ElementSet) -> float:
        self.ledger.value_queries += 1
        return self.inner.eval(s)

    def _counted_extend(self, state, u: ElementId) -> float:
        self.ledger.value_queries += 1
        return self.inner.extend(state, u)


class CountingMatroidOracle:
    """Pass-through independence oracle that charges one query per call.

    It offers the incremental pair exactly when its inner oracle does, and
    charges one query per extends. state is passed through uncharged, so a
    caller may only ask it of a set it already holds as independent (see
    MatroidOracle). An unset slot is a missing attribute, so hasattr tells
    the two cases apart.
    """

    __slots__ = ("inner", "ledger", "state", "extends")

    def __init__(self, inner: MatroidOracle, ledger: QueryLedger):
        self.inner = inner
        self.ledger = ledger
        if hasattr(inner, "extends"):
            self.state = inner.state
            self.extends = self._counted_extends

    @property
    def ground_size(self) -> int:
        return self.inner.ground_size

    def is_independent(self, s: ElementSet) -> bool:
        self.ledger.independence_queries += 1
        return self.inner.is_independent(s)

    def _counted_extends(self, state, u: ElementId) -> bool:
        self.ledger.independence_queries += 1
        return self.inner.extends(state, u)
