"""Value oracles, guide weights, and the lifted guide objective.

The solvers do not optimize the input objective f directly. They optimize a
guide built from f: copies of the ground set are stacked into ``levels``
layers, and the guide value of a lifted set is a weighted sum of f over the
unions of every non-empty subset of layers. The weights (one per subset
size) are chosen so the schedule telescopes, which is what buys the final
approximation factor. A union depends only on the occupied layers among
its subset, so a guide evaluation asks f at most 2^|occupied| times and a
marginal at a layer sums 2^(|occupied and that layer| - 1) terms. This
module owns those weights, the lifting/projection helpers, and the
marginal tracker that keeps guide queries cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import ElementId, ElementSet, ValueOracle, left_sum
from .matroids import mask_text

# hard cap: a marginal adds 2**(|occupied levels and its own| - 1) terms,
# 2**(levels - 1) for a solution that occupies every level
MAX_LEVELS = 20


def _require_finite(values: Sequence[float], name: str) -> None:
    """Raise ValueError at the first NaN or infinite value, naming it as
    name.format(index): "weight {}" names the index, "cap" stands alone."""
    for i, v in enumerate(values):
        if not -math.inf < v < math.inf:  # NaN fails both comparisons
            raise ValueError(f"{name.format(i)} must be finite, got {v!r}")


def _not_finite(value: float, mask: int) -> ValueError:
    """The error for an f value that is NaN or infinite, naming the set."""
    return ValueError(
        f"the value oracle returned {value!r} on the set {mask_text(mask)}; "
        "values must be finite"
    )


def overflow_error(total: float, mask: int) -> ValueError:
    """The error for a guide total that is not finite, naming the lifted
    set it was summed on."""
    return ValueError(
        f"the guide's weighted sum overflowed to {total!r} on the lifted set "
        f"{mask_text(mask)}; f's values are too large for the guide's weights"
    )


class CoverageFunction:
    """Weighted coverage: f(S) = total weight of universe points covered by S.

    covers[u] lists the points element u covers. Weights default to 1, in
    which case values are plain ints. Weights that are not all 1 are priced
    by a numpy dot product, so numpy is imported only for those.

    The incremental pair keeps two point masks as its state: the points
    S covers and those it covers twice or more. extend(state, u) prices
    covered | cover(u), and retract(state, u), for u in S, prices
    covered & ~(cover(u) & ~twice), since the points u alone covers are
    the ones S - u loses. Both price their mask with the formula eval uses,
    so they equal eval(S + u) and eval(S - u) exactly. Each of the three
    prices in its own body when weights are all 1.
    """

    __slots__ = ("ground_size", "universe_size", "_cover_masks", "_weights")

    def __init__(
        self,
        universe_size: int,
        covers: Sequence[Sequence[int]],
        point_weights: Sequence[int] | None = None,
    ):
        masks = []
        for pts in covers:
            m = 0
            for p in pts:
                if not 0 <= p < universe_size:
                    raise ValueError(f"point {p} outside universe")
                m |= 1 << p
            masks.append(m)
        self.ground_size = len(masks)
        self.universe_size = universe_size
        self._cover_masks = tuple(masks)
        self._weights = None
        if point_weights is not None:
            if len(point_weights) != universe_size:
                raise ValueError("one weight per universe point required")
            _require_finite(point_weights, "point weight {}")
            if any(w < 0 for w in point_weights):
                raise ValueError("point weights must be non-negative")
            if any(w != 1 for w in point_weights):
                import numpy as np

                self._weights = np.asarray(point_weights, dtype=np.float64)

    def eval(self, s: ElementSet) -> float:
        masks, covered = self._cover_masks, 0
        for u in s:
            covered |= masks[u]
        return covered.bit_count() if self._weights is None else self._value(covered)

    def state(self, s: ElementSet) -> tuple[int, int]:
        masks, covered, twice = self._cover_masks, 0, 0
        for u in s:
            m = masks[u]
            twice |= covered & m
            covered |= m
        return covered, twice

    def extend(self, state: tuple[int, int], u: ElementId) -> float:
        covered = state[0] | self._cover_masks[u]
        return covered.bit_count() if self._weights is None else self._value(covered)

    def retract(self, state: tuple[int, int], u: ElementId) -> float:
        covered, twice = state
        covered &= ~(self._cover_masks[u] & ~twice)
        return covered.bit_count() if self._weights is None else self._value(covered)

    def _value(self, covered: int) -> float:
        """The weighted value of the covered points."""
        import numpy as np

        nbytes = (self.universe_size + 7) // 8
        bits = np.unpackbits(
            np.frombuffer(covered.to_bytes(nbytes, "little"), dtype=np.uint8),
            bitorder="little",
        )[: self.universe_size]
        return float(bits @ self._weights)

    def covers(self, u: ElementId) -> list[int]:
        return ElementSet(self.universe_size, self._cover_masks[u]).to_list()


class ModularFunction:
    """Additive objective with non-negative weights."""

    __slots__ = ("ground_size", "weights")

    def __init__(self, weights: Sequence[float]):
        _require_finite(weights, "modular objective weight {}")
        if any(w < 0 for w in weights):
            raise ValueError("modular objective weights must be non-negative")
        self.ground_size = len(weights)
        self.weights = tuple(weights)

    def eval(self, s: ElementSet) -> float:
        return left_sum(self.weights[u] for u in s)


class ConcaveOfModular:
    """phi(sum of weights), phi concave non-decreasing with phi(0) = 0.

    Supported shapes: phi = sqrt, and phi = min(x, cap). The cap shape keeps
    integer weights integer-valued.
    """

    __slots__ = ("ground_size", "weights", "shape", "cap")

    def __init__(self, weights: Sequence[float], shape: str = "sqrt", cap: float = 0):
        _require_finite(weights, "weight {}")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if shape not in ("sqrt", "cap"):
            raise ValueError(f"unknown shape {shape!r}")
        _require_finite([cap], "cap")
        if shape == "cap" and cap < 0:
            raise ValueError("cap must be non-negative")
        self.ground_size = len(weights)
        self.weights = tuple(weights)
        self.shape = shape
        self.cap = cap

    def eval(self, s: ElementSet) -> float:
        total = left_sum(self.weights[u] for u in s)
        if self.shape == "sqrt":
            return math.sqrt(total)
        return min(total, self.cap)


class LinearRegularizer:
    """Modular regularizer; weights may carry either sign but must be
    finite."""

    __slots__ = ("ground_size", "weights")

    def __init__(self, weights: Sequence[float]):
        _require_finite(weights, "regularizer weight {}")
        self.ground_size = len(weights)
        self.weights = tuple(weights)

    def eval(self, s: ElementSet) -> float:
        return left_sum(self.weights[u] for u in s)


class GuideWeights:
    """Per-subset-size weights of the guide objective for a level count.

    weight(i) for subset size i in 1..levels is
    (1 + 1/levels)^(i-1) / binom(levels-1, i-1); sizes 0 and levels+1 get
    weight 0. Stored exactly as Fractions with a float view for solver hot
    paths. The schedule satisfies, for i in 1..levels-1,
    weight(i) * i * (1 + 1/levels) == weight(i+1) * (levels - i),
    the telescoping identity the approximation analysis rests on.
    """

    __slots__ = ("levels", "fractions", "floats")

    def __init__(self, levels: int):
        if not 1 <= levels <= MAX_LEVELS:
            raise ValueError(f"levels must be in [1, {MAX_LEVELS}]")
        fr = [Fraction(0)]
        for i in range(1, levels + 1):
            fr.append(
                Fraction(levels + 1, levels) ** (i - 1) / math.comb(levels - 1, i - 1)
            )
        fr.append(Fraction(0))
        self.levels = levels
        self.fractions = tuple(fr)
        self.floats = tuple(float(a) for a in fr)

    def __repr__(self):
        return f"GuideWeights(levels={self.levels})"


def guide_weights(levels: int) -> GuideWeights:
    """GuideWeights(levels); kept because the benchmark harness imports it."""
    return GuideWeights(levels)


def subset_unions(masks: Sequence[int]) -> list[int]:
    """Union of masks over every subset of them: entry j ORs masks[i] for
    each bit i of j (entry 0 is the empty union)."""
    union = [0] * (1 << len(masks))
    for j in range(1, len(union)):
        low = j & -j
        union[j] = union[j ^ low] | masks[low.bit_length() - 1]
    return union


# ----- lifted ground set -----
#
# lifted index = base * levels + (level - 1), levels are 1-based


def level_masks(s: ElementSet, levels: int) -> list[int]:
    """Base-universe bitmasks of the elements held at each level (index 0
    holds level 1)."""
    if s.n % levels:
        raise ValueError("lifted universe size must be a multiple of levels")
    lm = [0] * levels
    for x in s:
        lm[x % levels] |= 1 << (x // levels)
    return lm


def project_all(s: ElementSet, levels: int) -> ElementSet:
    """Projection onto the base ground set across every level."""
    mask = 0
    for lm in level_masks(s, levels):
        mask |= lm
    return ElementSet(s.n // levels, mask)


class LiftedGuide:
    """Guide objective over the lifted ground set, as a value oracle.

    eval(S') sums weight(|J|) * f(projection of S' onto levels J) over
    non-empty level subsets J. The projection of J is that of J's occupied
    levels K, so eval sums occupied_weight[m][|K|] * f(projection onto K)
    over the subsets K of the m occupied levels instead: one guide
    evaluation costs at most 2^m inner value queries, one per projection
    not yet in the memo. Query accounting happens on the inner oracle; wrap
    f with counting before lifting.

    An optional regularizer adds reg_scale = top_weight * (levels + 1) times
    its weight for each lifted element's base element, at no query cost;
    a scaled weight that is not finite raises ValueError naming its index.
    With non-negative regularizer weights the guide stays monotone
    submodular; negative weights are accepted but the solver guarantees are
    then not certified by this package's checks.

    Tables for eval and the tracker: reg_weights (zeros without a
    regularizer), reg_terms (reg_scale * reg_weights[x // levels], the
    regularizer's term in every marginal at lifted element x), and
    occupied_weight[m][k], the summed weight(|J|) of the level subsets J
    holding k given levels of m occupied ones and any empty levels,
    computed exactly and rounded once; [m][0] is 0 only for m = levels.

    The guide owns f's facts for its life (one solve, as the solvers build
    it), shared by eval and every tracker of it: memo maps a base-set mask
    to its f value, so the inner oracle sees a set at most once
    (base_value); states maps it to f's incremental state, taken at no
    charge, at most once, and only of a set already charged (base_state).
    value(s, union) is the one value formula, so a tracker's value is eval
    of its set bit for bit.

    The guide is also the one door for f's values: each enters the memo
    through base_value or a tracker's marginal_add or marginal_drop, and one
    that is NaN or infinite raises ValueError naming it and its base set
    there. A value or marginal whose weighted sum of finite f values
    overflows raises ValueError naming the lifted set, checked once per
    computed total.
    Every search and check that asks through as_guide sees finite f values
    and finite guide totals only.

    inner_state(mask), inner_extend(state, u) and inner_retract(state, u)
    are f's incremental triple (see ValueOracle), picked once: f's own
    state/extend/retract, else the mask as the state and an eval of the
    grown or shrunk set. They are not named state/extend/retract, since the
    guide, itself a value oracle, offers no triple.
    """

    __slots__ = (
        "inner", "levels", "ground_size", "reg_scale", "reg_weights", "reg_terms",
        "occupied_weight", "memo", "states", "inner_state", "inner_extend",
        "inner_retract",
    )

    def __init__(
        self,
        inner: ValueOracle,
        weights: GuideWeights,
        regularizer: LinearRegularizer | None = None,
    ):
        if regularizer is not None and regularizer.ground_size != inner.ground_size:
            raise ValueError("regularizer universe does not match the objective")
        ell = self.levels = weights.levels
        n = inner.ground_size
        self.inner = inner
        self.ground_size = n * ell
        scale = self.reg_scale = weights.floats[ell] * (ell + 1)
        w = self.reg_weights = (0.0,) * n if regularizer is None else regularizer.weights
        scaled = [scale * wu for wu in w]
        _require_finite(scaled, f"regularizer weight {{}} times reg_scale {scale!r}")
        self.reg_terms = tuple(t for t in scaled for _ in range(ell))
        # row m of W = occupied_weight from row m + 1: an empty level is in J
        # or not, so W[m][k] = W[m + 1][k] + W[m + 1][k + 1]; W[levels][k] = weight(k)
        rows = [weights.fractions[:-1]]
        for m in range(ell - 1, -1, -1):
            above = rows[-1]
            rows.append([above[k] + above[k + 1] for k in range(m + 1)])
        self.occupied_weight = tuple(tuple(map(float, row)) for row in reversed(rows))
        self.memo: dict[int, float] = {}
        self.states: dict[int, object] = {}
        if hasattr(inner, "retract"):
            self.inner_state = lambda mask: inner.state(ElementSet(n, mask))
            self.inner_extend, self.inner_retract = inner.extend, inner.retract
        else:
            self.inner_state = lambda mask: mask
            self.inner_extend = lambda mask, u: inner.eval(ElementSet(n, mask | 1 << u))
            self.inner_retract = lambda mask, u: inner.eval(ElementSet(n, mask & ~(1 << u)))

    def base_value(self, mask: int) -> float:
        """f of the base set with this mask, asked of the inner oracle at
        most once per guide."""
        value = self.memo.get(mask)
        if value is None:
            inner = self.inner
            value = inner.eval(ElementSet(inner.ground_size, mask))
            if not -math.inf < value < math.inf:  # NaN fails both comparisons
                raise _not_finite(value, mask)
            self.memo[mask] = value
        return value

    def base_state(self, mask: int) -> object:
        """f's incremental state of the base set with this mask, taken at
        most once per guide; ask it only after base_value(mask)."""
        states = self.states
        if mask not in states:
            states[mask] = self.inner_state(mask)
        return states[mask]

    def value(self, s: ElementSet, union: Sequence[int]) -> float:
        """Guide value of s: the sum of occupied_weight[m][|K|] * f(union[K])
        over the subsets K of s's m occupied levels in ascending subset
        order, the empty K only where its weight is not 0, union indexed as
        subset_unions returns it for the occupied level masks, plus
        reg_scale times the left_sum of the regularizer over s."""
        w = self.occupied_weight[len(union).bit_length() - 1]
        base_value = self.base_value
        total = 0.0
        for k in range(0 if w[0] else 1, len(union)):
            total += w[k.bit_count()] * base_value(union[k])
        # without a regularizer the weights are zeros, and adding 0.0 changes
        # no float
        reg, ell = self.reg_weights, self.levels
        total += self.reg_scale * left_sum(reg[x // ell] for x in s)
        if not -math.inf < total < math.inf:
            raise overflow_error(total, s.mask)
        return total

    def eval(self, s: ElementSet) -> float:
        occupied = [mask for mask in level_masks(s, self.levels) if mask]
        return self.value(s, subset_unions(occupied))

    def make_tracker(self, start: ElementSet) -> "LiftedTracker":
        return LiftedTracker(self, start)

    def __repr__(self):
        return f"LiftedGuide(levels={self.levels}, inner={self.inner!r})"


class LiftedTracker:
    """Incremental guide state: the level masks of the tracked set and the
    projection onto every subset of its occupied levels, and nothing that
    set does not determine. value is guide.value of the set, the formula
    eval uses, so it equals eval bit for bit. Each marginal adds the
    guide's reg_terms entry: zero without a regularizer, which changes no
    float.

    A marginal at x = (base element u, level) sums over the subsets K of
    the occupied levels and x's own level, m in all, that hold x's level:
    2^(m-1) terms w_K * (f(P_K + u) - f(P_K)) for an add, skipping the K
    whose projection P_K holds u, or w_K * (f(P_K) - f(P_K - u)) for a
    drop, with w_K = occupied_weight[m][|K|], in ascending order of K. A
    drop that empties its level may count it as occupied, since the rows
    satisfy W[m - 1][k] = W[m][k] + W[m][k + 1]. The levels are disjoint
    and non-empty, so every K has its own projection. A level's table
    lists (w_K, P_K, inner state, f value) per K and is built by the first
    marginal at that level after a move. The tracked set must keep
    each base element on at most one level (solvers maintain this through
    matroid independence).

    f's values and states come from the guide's memo and states, which
    outlive apply() and are shared by every tracker of the guide, so
    repeats across levels, swaps and trackers are free; reuse is exact
    because f is a pure function of the set (the ValueOracle contract). A
    memo miss in marginal_add extends the projection's state by one element
    (inner_extend), and one in marginal_drop retracts one from it
    (inner_retract), each charged as one value query, exactly where an eval
    of the grown or shrunk set would be. apply()
    recomputes the projections and the value, which charges the
    projections not in the memo in subset order, and drops the level
    tables.

    Each marginal, regularizer term included, is also kept per lifted
    element until the next apply(), so a repeat is one dict lookup and the
    same float: it is a pure function of the tracked state, which only
    apply() changes. Membership is checked first, so one dict serves the
    add-marginals of outside elements and the drop-marginals of members.

    Every empty level has the same table, every K of the occupied levels
    with weight row m + 1, and a base element's copies share its
    regularizer term. So the first marginal at an empty level builds the
    one table for all of them, and an add-marginal computed for a copy of
    base element u on an empty level is kept for u's copy on every empty
    level: the sum each of them would compute, term for term. Members sit
    on occupied levels, so drop-marginals never share.
    """

    __slots__ = (
        "guide", "current", "value", "_masks", "_empty", "_proj", "_tables", "_marginal",
    )

    def __init__(self, guide: LiftedGuide, start: ElementSet):
        self.guide = guide
        self._track(start)

    @property
    def ground_size(self) -> int:
        return self.guide.ground_size

    def _track(self, s: ElementSet):
        """Make s the tracked set: its level masks and projections, checked
        before anything is assigned, its value, and no tables or marginals."""
        masks = level_masks(s, self.guide.levels)
        proj = subset_unions([mask for mask in masks if mask])
        if proj[-1].bit_count() != len(s):
            raise ValueError("tracked set holds a base element on two levels")
        self.current, self._masks, self._proj = s, masks, proj
        self._empty = [level for level, mask in enumerate(masks) if not mask]
        self.value = self.guide.value(s, proj)
        self._tables: dict[int, list] = {}
        self._marginal: dict[ElementId, float] = {}

    def _table(self, level: int) -> list:
        """(w_K, P_K, inner state, f value) for each K holding the level,
        in ascending order of K."""
        guide, masks, proj = self.guide, self._masks, self._proj
        base_value, base_state = guide.base_value, guide.base_state
        # an empty level joins every subset of the occupied ones; an
        # occupied one is bit `hold` of the subsets that hold it
        empty = not masks[level]
        hold = 0 if empty else 1 << sum(1 for mask in masks[:level] if mask)
        w = guide.occupied_weight[len(proj).bit_length() - 1 + empty]
        table = []
        for k, p in enumerate(proj):
            if k & hold == hold:
                f = base_value(p)  # charged before its state is taken
                table.append((w[k.bit_count() + empty], p, base_state(p), f))
        for other in self._empty if empty else (level,):
            self._tables[other] = table
        return table

    def marginal_add(self, x: ElementId) -> float:
        if self.current.mask >> x & 1:
            return 0.0
        total = self._marginal.get(x)
        if total is not None:
            return total
        guide = self.guide
        ell = guide.levels
        u, level = x // ell, x % ell
        ubit = 1 << u
        memo, extend = guide.memo, guide.inner_extend
        total = 0.0
        for w, p, state, f in self._tables.get(level) or self._table(level):
            if p & ubit:
                continue
            mask = p | ubit
            value = memo.get(mask)
            if value is None:
                value = extend(state, u)
                if not -math.inf < value < math.inf:
                    raise _not_finite(value, mask)
                memo[mask] = value
            total += w * (value - f)
        total += guide.reg_terms[x]
        if not -math.inf < total < math.inf:
            raise overflow_error(total, self.current.mask | 1 << x)
        if self._masks[level]:
            self._marginal[x] = total
        else:
            for other in self._empty:
                self._marginal[u * ell + other] = total
        return total

    def marginal_drop(self, x: ElementId) -> float:
        if x < 0 or not self.current.mask >> x & 1:
            raise KeyError(x)
        total = self._marginal.get(x)
        if total is not None:
            return total
        guide = self.guide
        ell = guide.levels
        u = x // ell
        ubit = 1 << u
        memo, retract = guide.memo, guide.inner_retract
        total = 0.0
        for w, p, state, f in self._tables.get(x % ell) or self._table(x % ell):
            rest = p & ~ubit
            value = memo.get(rest)
            if value is None:
                value = retract(state, u)
                if not -math.inf < value < math.inf:
                    raise _not_finite(value, rest)
                memo[rest] = value
            total += w * (f - value)
        total += guide.reg_terms[x]
        if not -math.inf < total < math.inf:
            raise overflow_error(total, self.current.mask)
        self._marginal[x] = total
        return total

    def apply(self, add: ElementId | None = None, drop: ElementId | None = None):
        ell = self.guide.levels
        # drop, then add; a move that is not valid raises before any change
        s = self.current if drop is None else self.current.remove(drop)
        if add is not None:
            if add in s:
                raise ValueError(f"element {add} is already tracked")
            s = s.add(add)
            held = self._proj[-1] & ~(0 if drop is None else 1 << drop // ell)
            if held >> (add // ell) & 1:
                raise ValueError("base element already tracked on another level")
        self._track(s)


def as_guide(oracle: ValueOracle) -> LiftedGuide:
    """The oracle as a guide: a LiftedGuide is returned as it is, any other
    oracle becomes its one-level guide, which is the oracle itself (weight
    1, no regularizer). Plain local search is this guide's search."""
    if isinstance(oracle, LiftedGuide):
        return oracle
    return LiftedGuide(oracle, GuideWeights(1))


def make_tracker(oracle: ValueOracle, start: ElementSet) -> LiftedTracker:
    """Marginal tracker for the oracle, tracked as as_guide(oracle)."""
    return LiftedTracker(as_guide(oracle), start)
