"""Value oracles, guide weights, and the lifted guide objective.

The solvers do not optimize the input objective f directly. They optimize a
guide built from f: copies of the ground set are stacked into ``levels``
layers, and the guide value of a lifted set is a weighted sum of f over the
unions of every non-empty subset of layers. The weights (one per subset
size) are chosen so the schedule telescopes, which is what buys the final
approximation factor. This module owns those weights, the lifting/projection
helpers, and the marginal tracker that keeps guide queries cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import ElementId, ElementSet, ValueOracle

MAX_LEVELS = 20  # 2**levels subset evaluations per guide query; hard cap


class CoverageFunction:
    """Weighted coverage: f(S) = total weight of universe points covered by S.

    covers[u] lists the points element u covers. Weights default to 1, in
    which case values are plain ints.

    The incremental pair keeps the covered-point mask as its state:
    extend(state, u) ORs in u's points and prices the result with the same
    formula eval uses, so it equals eval(S + u) exactly.
    """

    __slots__ = ("ground_size", "universe_size", "_cover_masks", "_weights", "_unit")

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
        if point_weights is None:
            self._unit = True
            self._weights = None
        else:
            if len(point_weights) != universe_size:
                raise ValueError("one weight per universe point required")
            if any(w < 0 for w in point_weights):
                raise ValueError("point weights must be non-negative")
            self._unit = all(w == 1 for w in point_weights)
            self._weights = np.asarray(point_weights, dtype=np.float64)

    def eval(self, s: ElementSet) -> float:
        return self._value(self.state(s))

    def state(self, s: ElementSet) -> int:
        covered = 0
        for u in s:
            covered |= self._cover_masks[u]
        return covered

    def extend(self, covered: int, u: ElementId) -> float:
        return self._value(covered | self._cover_masks[u])

    def _value(self, covered: int) -> float:
        if self._unit:
            return covered.bit_count()
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
        if any(w < 0 for w in weights):
            raise ValueError("modular objective weights must be non-negative")
        self.ground_size = len(weights)
        self.weights = tuple(weights)

    def eval(self, s: ElementSet) -> float:
        return sum(self.weights[u] for u in s)


class ConcaveOfModular:
    """phi(sum of weights), phi concave non-decreasing with phi(0) = 0.

    Supported shapes: phi = sqrt, and phi = min(x, cap). The cap shape keeps
    integer weights integer-valued.
    """

    __slots__ = ("ground_size", "weights", "shape", "cap")

    def __init__(self, weights: Sequence[float], shape: str = "sqrt", cap: float = 0):
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if shape not in ("sqrt", "cap"):
            raise ValueError(f"unknown shape {shape!r}")
        if shape == "cap" and cap < 0:
            raise ValueError("cap must be non-negative")
        self.ground_size = len(weights)
        self.weights = tuple(weights)
        self.shape = shape
        self.cap = cap

    def eval(self, s: ElementSet) -> float:
        total = sum(self.weights[u] for u in s)
        if self.shape == "sqrt":
            return math.sqrt(total)
        return min(total, self.cap)


class LinearRegularizer:
    """Modular regularizer; weights may carry either sign."""

    __slots__ = ("ground_size", "weights")

    def __init__(self, weights: Sequence[float]):
        self.ground_size = len(weights)
        self.weights = tuple(weights)

    def eval(self, s: ElementSet) -> float:
        return sum(self.weights[u] for u in s)


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
    non-empty level subsets J, so one guide evaluation costs
    2^levels - 1 inner value queries. Query accounting happens on the inner
    oracle; wrap f with counting before lifting.

    An optional regularizer adds reg_scale = top_weight * (levels + 1) times
    its weight for each lifted element's base element, at no query cost.
    With non-negative regularizer weights the guide stays monotone
    submodular; negative weights are accepted but the solver guarantees are
    then not certified by this package's checks.

    Tables for eval and the tracker: reg_weights (zeros without a
    regularizer), reg_terms (reg_scale * reg_weights[x // levels], the
    regularizer's term in every marginal at lifted element x), the weight
    per level-subset mask, and the level subsets holding each level. memo
    maps a base-set mask to its f value; every tracker of this guide reads
    and writes it, so the inner oracle sees a set at most once in the
    guide's life (one solve, as the solvers build it).

    inner_state(mask) and inner_extend(state, u) are f's incremental pair
    (see ValueOracle), picked once: f's own state/extend, else the mask and
    an eval of the grown set. They are not named state/extend, since the
    guide, itself a value oracle, offers no pair.
    """

    __slots__ = (
        "inner", "levels", "ground_size", "reg_scale", "reg_weights", "reg_terms",
        "subset_weight", "with_level", "memo", "inner_state", "inner_extend",
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
        self.reg_terms = tuple(scale * wu for wu in w for _ in range(ell))
        self.subset_weight = tuple(weights.floats[j.bit_count()] for j in range(1 << ell))
        self.with_level = tuple(
            tuple(j for j in range(1, 1 << ell) if j >> lvl & 1) for lvl in range(ell)
        )
        self.memo: dict[int, float] = {}
        if hasattr(inner, "extend"):
            self.inner_state = lambda mask: inner.state(ElementSet(n, mask))
            self.inner_extend = inner.extend
        else:
            self.inner_state = lambda mask: mask
            self.inner_extend = lambda mask, u: inner.eval(ElementSet(n, mask | 1 << u))

    def eval(self, s: ElementSet) -> float:
        union = subset_unions(level_masks(s, self.levels))
        n = self.inner.ground_size
        total = 0.0
        for j in range(1, len(union)):
            total += self.subset_weight[j] * self.inner.eval(ElementSet(n, union[j]))
        # without a regularizer the weights are zeros, and adding 0.0 changes
        # no float
        w = self.reg_weights
        return total + self.reg_scale * sum(w[x // self.levels] for x in s)

    def make_tracker(self, start: ElementSet) -> "LiftedTracker":
        return LiftedTracker(self, start)

    def __repr__(self):
        return f"LiftedGuide(levels={self.levels}, inner={self.inner!r})"


class LiftedTracker:
    """Incremental guide state: one projection and cached f value per level
    subset, plus the running regularizer total. Each marginal adds the
    guide's reg_terms entry: zero without a regularizer, which changes no
    float.

    A marginal at a lifted element touches only the 2^(levels-1) subsets
    containing its level and costs at most one inner query per touched
    subset whose projection actually changes. apply() refreshes exactly the
    touched projections. The tracked set must keep each base element on at
    most one level (solvers maintain this through matroid independence).

    f values are memoized by base-set mask in the guide's memo, which
    outlives apply() and is shared by every tracker of the guide, so the
    inner oracle sees a set at most once per guide. Repeats across levels,
    across level subsets with equal projections, across swaps, and across
    the trackers of one solve are free, and apply() answers its refresh
    from the memo. The memo grows by at most one entry per charged query.
    Reuse is exact because f is a pure function of the set (the
    ValueOracle contract).

    A memo miss in marginal_add extends the projection's stored state by
    one element with the guide's inner_state/inner_extend pair, charged as
    one value query, exactly where an eval of the grown set would be. The
    states are recomputed at start and wherever apply() changes a
    projection, at no charge; each of those sets is in the memo by then,
    so its value was charged once, and no value is learned for free.
    marginal_drop and the refresh in apply() always use eval.

    Each marginal, regularizer term included, is also kept per lifted
    element until the next apply(), so a repeat is one dict lookup and the
    same float: it is a pure function of the tracked state, which only
    apply() changes. Membership is checked first, so one dict serves the
    add-marginals of outside elements and the drop-marginals of members.
    """

    __slots__ = (
        "guide", "current", "value", "_proj", "_fval", "_reg_total", "_memo",
        "_state", "_marginal",
    )

    def __init__(self, guide: LiftedGuide, start: ElementSet):
        self.guide = guide
        ell = guide.levels
        self.current = start
        proj = subset_unions(level_masks(start, ell))
        if proj[-1].bit_count() != len(start):
            raise ValueError("tracked set holds a base element on two levels")
        self._proj = proj
        self._memo = guide.memo
        self._fval = [0.0] + [self._f(p) for p in proj[1:]]
        self._state = [guide.inner_state(p) for p in proj]
        self._reg_total = sum(guide.reg_weights[x // ell] for x in start)
        self._marginal: dict[ElementId, float] = {}
        self._recompute_value()

    @property
    def ground_size(self) -> int:
        return self.guide.ground_size

    def _f(self, mask: int) -> float:
        """f of the base set with this mask, asked of the inner oracle at
        most once per guide."""
        value = self._memo.get(mask)
        if value is None:
            inner = self.guide.inner
            value = self._memo[mask] = inner.eval(ElementSet(inner.ground_size, mask))
        return value

    def _recompute_value(self):
        wj, fv = self.guide.subset_weight, self._fval
        self.value = sum(wj[j] * fv[j] for j in range(1, len(fv)))
        self.value += self.guide.reg_scale * self._reg_total

    def marginal_add(self, x: ElementId) -> float:
        if x in self.current:
            return 0.0
        total = self._marginal.get(x)
        if total is not None:
            return total
        guide = self.guide
        ell = guide.levels
        u = x // ell
        ubit = 1 << u
        wj, memo, extend = guide.subset_weight, self._memo, guide.inner_extend
        total = 0.0
        for j in guide.with_level[x % ell]:
            pj = self._proj[j]
            if pj & ubit:
                continue
            mask = pj | ubit
            value = memo.get(mask)
            if value is None:
                value = memo[mask] = extend(self._state[j], u)
            total += wj[j] * (value - self._fval[j])
        total = self._marginal[x] = total + guide.reg_terms[x]
        return total

    def marginal_drop(self, x: ElementId) -> float:
        if x not in self.current:
            raise KeyError(x)
        total = self._marginal.get(x)
        if total is not None:
            return total
        guide = self.guide
        ell = guide.levels
        ubit = 1 << (x // ell)
        wj = guide.subset_weight
        total = 0.0
        for j in guide.with_level[x % ell]:
            total += wj[j] * (self._fval[j] - self._f(self._proj[j] & ~ubit))
        total = self._marginal[x] = total + guide.reg_terms[x]
        return total

    def apply(self, add: ElementId | None = None, drop: ElementId | None = None):
        guide = self.guide
        ell, with_level, w = guide.levels, guide.with_level, guide.reg_weights
        # drop, then add; a move that is not valid raises before any change
        s = self.current if drop is None else self.current.remove(drop)
        if add is not None:
            if add in s:
                raise ValueError(f"element {add} is already tracked")
            s = s.add(add)
            held = self._proj[-1] & ~(0 if drop is None else 1 << drop // ell)
            if held >> (add // ell) & 1:
                raise ValueError("base element already tracked on another level")
        self._marginal.clear()
        refresh = set()
        if drop is not None:
            ubit = 1 << (drop // ell)
            for j in with_level[drop % ell]:
                self._proj[j] &= ~ubit
            refresh.update(with_level[drop % ell])
            self._reg_total -= w[drop // ell]
        if add is not None:
            ubit = 1 << (add // ell)
            for j in with_level[add % ell]:
                self._proj[j] |= ubit
            refresh.update(with_level[add % ell])
            self._reg_total += w[add // ell]
        self.current = s
        for j in sorted(refresh):
            self._fval[j] = self._f(self._proj[j])
            self._state[j] = guide.inner_state(self._proj[j])
        self._recompute_value()


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
