"""Local-search solvers and their run artifacts.

Two searches live here. ``deterministic_local_search`` and
``randomized_local_search`` are swap searches over any (value oracle,
matroid) pair that stop at an approximate local optimum certified by a
greedy challenger set (``LocalOptCertificate.at``). ``non_oblivious_solve``
composes them with the lifted guide (optionally carrying a modular
regularizer) to reach the target approximation factor.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import numbers
from dataclasses import dataclass

from .core import (
    COMPARISON_SLACK,
    CountingMatroidOracle,
    CountingValueOracle,
    ElementId,
    ElementSet,
    MatroidOracle,
    QueryLedger,
    RandomSource,
    ValueOracle,
    ge,
    gt,
    left_sum,
    sample_without_replacement,
)
from .matroids import (
    as_lifted,
    extend_to_base,
    lift,
    max_weight_independent,
    min_weight_exchange,
)
from .objectives import (
    LiftedGuide,
    LinearRegularizer,
    MAX_LEVELS,
    GuideWeights,
    as_guide,
    make_tracker,
    overflow_error,
    project_all,
)

DETERMINISTIC = "deterministic"
RANDOMIZED = "randomized"

_DECAY = 0.125  # warm-start threshold decay step


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the solve entry points.

    levels_override replaces the eps-derived level count (1 gives ordinary
    local search on f itself); levels is the count a solve uses.
    """

    eps: float = 0.25
    variant: str = DETERMINISTIC
    seed: int = 0
    levels_override: int | None = None

    def __post_init__(self):
        if isinstance(self.eps, bool) or not isinstance(self.eps, numbers.Real):
            raise ValueError(f"eps must be a real number, got {self.eps!r}")
        if not 0 < self.eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if self.variant not in (DETERMINISTIC, RANDOMIZED):
            raise ValueError(f"unknown variant {self.variant!r}")
        if type(self.seed) is not int:  # isinstance lets True in
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.levels_override is None:
            if self.levels > MAX_LEVELS:
                raise ValueError(
                    f"eps={self.eps} needs {self.levels} levels, more "
                    f"than the cap of {MAX_LEVELS}; use eps >= 1/{MAX_LEVELS - 1} "
                    "or set levels_override"
                )
        elif type(self.levels_override) is not int:  # isinstance lets True in
            raise ValueError(
                f"levels_override must be an int, got {self.levels_override!r}"
            )
        elif not 1 <= self.levels_override <= MAX_LEVELS:
            raise ValueError(
                f"levels_override={self.levels_override} outside [1, {MAX_LEVELS}]"
            )

    @property
    def levels(self) -> int:
        """The level count of a solve: levels_override, else 1 + ceil(1/eps)."""
        return self.levels_override or default_levels(self.eps)


@dataclass(frozen=True)
class LocalOptCertificate:
    """Evidence that no independent challenger set beats the solution.

    gap = sum of f(v | S - v) over the greedy max-weight challenger witness
    minus the same sum over S. The solve-time bound is eps * warm_value;
    both inputs are stored so the product can be rechecked later.
    """

    witness: ElementSet
    gap: float
    bound: float
    eps: float
    warm_value: float

    def passes(self) -> bool:
        return ge(self.bound, self.gap)

    @classmethod
    def at(
        cls,
        tracker,
        matroid: MatroidOracle,
        eps: float,
        warm_value: float,
        *,
        rank: int | None = None,
    ) -> "LocalOptCertificate":
        """Greedy challenger certificate at the tracker's current solution.

        Weights are f(v | S - v) for every ground element; the witness is the
        greedy max-weight independent set, which is exact for linear
        objectives over a matroid, so the gap equals the worst case over all
        independent challengers. Sums run in ascending element order so
        recomputation is float-identical.

        rank (trusted, not queried) is handed to max_weight_independent, so
        the greedy stops once its witness is a base. The searches pass it,
        since their solution is a base; a recheck passes none, since it
        must not trust that the claimed solution is one.
        """
        s = tracker.current
        mask = s.mask
        w: dict[ElementId, float] = {}
        for v in range(tracker.ground_size):
            w[v] = tracker.marginal_drop(v) if mask >> v & 1 else tracker.marginal_add(v)
        witness = max_weight_independent(matroid, w, rank=rank)
        gap = left_sum(w[v] for v in witness) - left_sum(w[u] for u in s)
        return cls(witness, gap, eps * warm_value, eps, warm_value)


@dataclass
class LocalSearchResult:
    """Outcome of one search on the instance it actually ran on (which for
    the lifted solvers is the lifted instance).

    certificate is the passing one, or None when a randomized search ran
    out of attempts; solution and value are then those of the last set it
    tested (the base when it made no attempt). The warm start's guide value
    lives on the certificate."""

    solution: ElementSet
    value: float
    warm_set: ElementSet
    iterations: int
    certificate: LocalOptCertificate | None


@dataclass
class RunReport:
    """Full record of a solve, sufficient to recheck it from the instance.

    The inner eps (inner_eps(eps, levels)) and the warm start's guide value
    are the certificate's eps and warm_value; a failed run has neither."""

    output_set: ElementSet
    objective_value: float
    ledger: QueryLedger
    iterations: int
    failed: bool
    certificate: LocalOptCertificate | None
    eps: float
    levels: int
    variant: str
    seed: int
    rank: int
    lifted_solution: ElementSet | None
    regularized: bool


def default_levels(eps: float) -> int:
    """Level count for a target eps: 1 + ceil(1/eps).

    The small nudge keeps float noise in 1/eps from bumping the ceiling
    (0.2 and friends are not exact binary fractions).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return 1 + math.ceil(1.0 / eps - 1e-9)


def inner_eps(eps: float, levels: int) -> float:
    """Accuracy handed to the inner search: eps / (e * (1 + ln levels))."""
    return eps / (math.e * (1.0 + math.log(levels)))


def amplification_attempts(eps: float) -> int:
    """Retry budget for the randomized search: ceil(log3(1/eps)), at least 1.

    Each attempt fails with probability at most 1/3, so this drives the
    total failure probability below eps.
    """
    return max(1, math.ceil(math.log(1.0 / eps, 3) - 1e-12))


# ----- warm start -----


def _threshold_greedy_warm(f: ValueOracle, matroid: MatroidOracle):
    """Descending-thresholds greedy from the empty set; returns its tracker,
    the set of elements it found dependent, and its first bounds ub, the
    add-marginal of every element at the empty set (regularizer term
    included), which later marginals of a monotone submodular f never
    exceed.

    tau starts at the largest singleton value and decays by (1 - 1/8) until
    below (1/8) * max / n; each sweep visits, in ascending id, every live
    element whose upper bound clears tau, and adds it if its marginal clears
    tau too and the set stays independent. Bounds are lazy (marginals only
    shrink as S grows), and an element whose addition went dependent is
    dead for good (downward closure), so the output matches the eager sweep
    exactly at a fraction of the queries. There are O(log n) sweeps of at
    most n value queries each, so the warm start stays inside both
    searches' query bounds. A largest singleton value that overflows (two
    finite guide totals can sum to inf) raises the guide's ValueError,
    naming that lifted singleton, before the first sweep.

    The live elements wait in a heap keyed by (-bound, id), so a sweep pops
    the elements that clear tau instead of walking all n. It pops exactly
    the ones the eager sweep would visit, and they are visited in the same
    order: ge(x, tau) is monotone in x for tau > 0, and a bound changes
    only when its element is visited. So the same marginals, independence
    queries and applies happen in the same order.

    Independence of S + u is asked through as_lifted's incremental pair,
    from a state of S taken again after each add. On a lift the answer is
    already known for some copies of a base element, and is not asked: a
    copy of a base element the set holds is rejected by the multiplicity
    check, and a copy of one refused since the set last grew would be a
    memo hit on the same projection. Both are dead, as the answer would
    make them. Their add-marginal is still asked, so the value queries and
    the charged independence queries are those of the full sweep.
    """
    matroid = as_lifted(matroid)
    n = f.ground_size
    tracker = make_tracker(f, ElementSet.empty(n))
    ub = [tracker.marginal_add(u) for u in range(n)]
    empty = tracker.value
    singles = [empty + m for m in ub]
    tau = max(singles, default=0.0)  # largest singleton
    if math.isinf(tau):
        raise overflow_error(tau, 1 << singles.index(tau))
    if tau <= 0:
        return tracker, ElementSet.empty(n), ub
    floor = _DECAY * tau / n
    # the decay takes tau below the floor within this many sweeps, plus float
    # slack; the cap alone ends a subnormal tau, whose floor underflows to 0
    sweeps = math.floor(math.log(n / _DECAY) / -math.log1p(-_DECAY)) + 2
    live = [(-m, u) for u, m in enumerate(ub)]
    heapq.heapify(live)
    ell = matroid.levels
    state = matroid.state(tracker.current)
    dead = 0
    held = known = 0  # base elements held; held or refused since the last add
    while live and tau >= floor and sweeps:
        sweeps -= 1
        clearing = []
        while live and ge(-live[0][0], tau):
            clearing.append(heapq.heappop(live)[1])
        for u in sorted(clearing):
            m = tracker.marginal_add(u)
            base = 1 << u // ell
            if not ge(m, tau):
                heapq.heappush(live, (-m, u))
            elif not known & base and matroid.extends(state, u):
                tracker.apply(add=u)
                state = matroid.state(tracker.current)
                held |= base
                known = held
            else:
                dead |= 1 << u
                known |= base
        tau *= 1.0 - _DECAY
    return tracker, ElementSet(n, dead), ub


def warm_start(f: ValueOracle, matroid: MatroidOracle) -> ElementSet:
    """Independent set worth at least a third of the optimum, by
    descending-thresholds greedy.

    The contract is enforced by the brute-force acceptance suite rather
    than assumed from the internals.
    """
    _check_ground(f, matroid)
    return _threshold_greedy_warm(f, matroid)[0].current


def _warm_base(f: ValueOracle, matroid: MatroidOracle):
    """Warm-start a tracker from the empty set, then extend it to a base,
    skipping the elements the warm start found dependent.

    Returns (tracker at the base, warm set, warm value, the warm start's
    singleton marginals ub); no randomness, so every search attempt reaches
    the same base.
    """
    tracker, dead, ub = _threshold_greedy_warm(f, matroid)
    warm_set = tracker.current
    warm_value = tracker.value
    base = extend_to_base(matroid, warm_set, dead)
    for u in base.difference(warm_set):
        tracker.apply(add=u)
    return tracker, warm_set, warm_value, ub


def _clears(value: float, threshold: float) -> bool:
    """The deterministic search's acceptance test: value reaches a positive
    threshold up to the slack; with a zero threshold it must beat 0
    strictly, since accepting rounding noise there could swap forever."""
    return ge(value, threshold) if threshold > 0 else gt(value, 0.0)


def _check_eps(eps) -> None:
    real = isinstance(eps, numbers.Real) and not isinstance(eps, bool)
    if not (real and 0 < eps < math.inf):
        raise ValueError(f"eps must be a positive finite real number, got {eps!r}")


def _check_ground(f: ValueOracle, matroid: MatroidOracle) -> None:
    if f.ground_size != matroid.ground_size:
        raise ValueError(
            f"objective ground size {f.ground_size} does not match matroid "
            f"ground size {matroid.ground_size}"
        )


# ----- deterministic search -----


def deterministic_local_search(
    f: ValueOracle,
    matroid: MatroidOracle,
    eps: float,
) -> LocalSearchResult:
    """Swap local search on as_guide(f), threshold (eps / r) * f(S0).

    Warm start, extend to a base, then repeat: compute the drop marginal of
    every member, and for each candidate v (ascending, singleton
    independent) find the cheapest feasible drop by binary search; the
    first pair clearing the threshold is swapped in. A scan with no
    accepted swap ends the search. Each swap raises f(S) by at least the
    threshold, so scans are bounded by ceil(3 r / eps) + 1. A swap keeps
    the size, so the solution stays a base and the certificate's greedy
    stops once its witness has r elements.

    Three shortcuts skip queries without changing the trajectory. The
    binary search runs only when the upper bound gain_add - min(drop)
    clears the threshold: the feasible drop weighs at least the minimum,
    and float subtraction and the slack comparisons are monotone, so a
    candidate that fails the bound fails the exact test too. A candidate's
    singleton independence, which the binary search needs, is asked only
    once that bound clears, right before the search; a candidate that
    fails is skipped whatever the answer. A loop (an element dependent on
    its own) found there is masked and skipped before any other work for
    the rest of the call, so its singleton is asked at most once. The
    price is that a loop's add-marginal may be asked before it is known
    to be a loop.

    The add-marginal itself is skipped when a bound carried across swaps
    shows the candidate cannot clear gain_add - min(drop). For the monotone
    submodular guide part g, a swap adding w and dropping u at S gives
    g(v | S - u + w) <= g(v | S - u) <= g(v | S) + g(u | S - u), also for
    v = u and for members, whose marginal is 0. So with D the running sum
    of the dropped elements' guide-part drop marginals, m_v + (D - D_v)
    bounds v's marginal, where m_v was computed when D was D_v. The
    regularizer term is modular: it stays in m_v and is kept out of D. The
    bound is capped by ub_v, v's marginal at the empty set, which the warm
    start computed as its first bound: g(v | S) <= g(v | empty) for every
    S, and the regularizer term is in both. A candidate with no carried
    entry is bounded by ub_v alone, so the first scan skips too. The bound
    is padded by the comparison slack against rounding; a skipped
    candidate would have failed the exact test, so the same swaps are made.
    Carried bounds start empty on each call.

    Since every bound is at most ub_v, which is fixed for the whole search,
    a scan visits only the candidates whose ub_v reaches a cut: the ids are
    sorted by ub once, descending, and each scan bisects at threshold +
    min(drop), lowered by a margin of four slacks of the largest of 1 and
    the three magnitudes. Any candidate below the margin fails the padded
    bound test above by more than the slack and any rounding, so the cut
    skips only what the test skips. The candidates above it are visited in
    ascending id and go through the unchanged test.

    eps must be a positive finite real number (not a bool); any other
    raises ValueError.
    """
    _check_eps(eps)
    _check_ground(f, matroid)
    f, matroid = as_guide(f), as_lifted(matroid)
    n = f.ground_size
    tracker, warm_set, warm_value, ub = _warm_base(f, matroid)
    r = len(tracker.current)
    threshold = (eps / r) * warm_value if r > 0 else 0.0
    max_scans = math.ceil(3 * r / eps) + 1 if r > 0 else 1
    by_ub = sorted(range(n), key=ub.__getitem__, reverse=True)
    neg_ub = [-ub[v] for v in by_ub]  # ascending, for bisect
    carried: dict[ElementId, tuple[float, float]] = {}  # v -> (m_v, D_v)
    dropped = 0.0  # D
    loops = 0  # mask of the candidates found dependent on their own
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_scans:
            raise RuntimeError(
                "swap-count invariant violated; value oracle is likely not "
                "monotone submodular"
            )
        s = tracker.current
        drop_w = {u: tracker.marginal_drop(u) for u in s}
        min_drop = min(drop_w.values(), default=0.0)
        swapped = False
        skip = s.mask | loops
        cut = threshold + min_drop
        margin = 4 * COMPARISON_SLACK * max(1.0, abs(cut), abs(threshold), abs(min_drop))
        reach = bisect.bisect_right(neg_ub, margin - cut)  # every ub >= cut - margin
        for v in sorted(by_ub[:reach]):
            if skip >> v & 1:
                continue
            known = carried.get(v)
            bound = ub[v] if known is None else min(ub[v], known[0] + (dropped - known[1]))
            # padded, a bound that reaches a positive threshold clears it; at
            # a zero threshold this only skips less
            if bound - min_drop < threshold:
                bound += COMPARISON_SLACK * max(1.0, abs(bound))
                if not _clears(bound - min_drop, threshold):
                    continue
            gain_add = tracker.marginal_add(v)
            carried[v] = (gain_add, dropped)
            if not _clears(gain_add - min_drop, threshold):
                continue
            if not matroid.is_independent(ElementSet(n, 1 << v)):
                loops |= 1 << v
                continue
            u_v = min_weight_exchange(matroid, s, s, v, drop_w)
            gain = gain_add - drop_w[u_v]
            if _clears(gain, threshold):
                tracker.apply(add=v, drop=u_v)
                dropped += drop_w[u_v] - f.reg_terms[u_v]
                swapped = True
                break
        if not swapped:
            break

    certificate = LocalOptCertificate.at(tracker, matroid, eps, warm_value, rank=r)
    return LocalSearchResult(
        solution=tracker.current,
        value=tracker.value,
        warm_set=warm_set,
        iterations=iterations,
        certificate=certificate,
    )


# ----- randomized search -----


def ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) in exact integer arithmetic."""
    root = math.isqrt(n)
    return root + (1 if root * root < n else 0)


def randomized_local_search(
    f: ValueOracle,
    matroid: MatroidOracle,
    eps: float,
    rng: RandomSource,
    *,
    attempts: int | None = None,
) -> LocalSearchResult:
    """Sampled-swap search on as_guide(f) and as_lifted(matroid), amplified
    over attempts; the first passing attempt wins.

    The search warm-starts and extends to a base once. Each attempt starts
    there, draws an index i uniformly in [0, k) with k = ceil(18 r / eps),
    and runs i iterations that each sample a drop pool R1 from the solution
    (size min(r, ceil(sqrt n))) and a candidate pool R2 from the ground set
    (size max(ceil(n / r), ceil(sqrt n))), then apply the best feasible
    swap if its gain is non-negative. The set S_i it reaches is tested
    against the challenger certificate at threshold eps * f(S0) and
    returned when it passes. i is independent of the run, so S_i has the
    law it would have if all k iterations ran and i were drawn after them.

    attempts defaults to ceil(log3(1/eps)); attempts=1 is a single run and
    attempts=0 makes none, so the search stops at the base. All attempts
    draw from the one generator, so replay is deterministic (the warm start
    draws no randomness, so running it once leaves the stream as it was).
    The result's iterations are the sum of the drawn i, the skipped
    iterations of a settled attempt included. When no attempt passes, its
    certificate is None and its solution is the last set tested.

    Three shortcuts skip work. A candidate's exchange binary search is
    skipped when the upper bound gain_add - min(drop) over R1 fails the
    acceptance test or does not beat the best gain so far: its true gain is
    no larger, so the applied swap, ties included, is the one the full
    search picks. When R1 is the whole solution it is taken without a draw
    (an r-of-r sample is the whole pool), and the feasibility test is a
    singleton query, which the lifted memo answers after the first ask. And
    an attempt whose R1 is the whole solution stops drawing once it settles
    (see _run): its remaining iterations are counted but not run. The draws
    they would have made are made before the next attempt draws, so every
    attempt sees the stream it would see without the shortcut; after the
    last attempt the generator may stand before the draws of its skipped
    iterations.

    eps must be a positive finite real number and attempts, when given, a
    non-negative int (neither may be a bool); any other raises ValueError.
    """
    _check_eps(eps)
    if attempts is None:
        attempts = amplification_attempts(eps)
    elif type(attempts) is not int or attempts < 0:  # isinstance lets True in
        raise ValueError(f"attempts must be a non-negative int, got {attempts!r}")
    _check_ground(f, matroid)
    f, matroid = as_guide(f), as_lifted(matroid)
    n = f.ground_size
    root = ceil_sqrt(n)
    ground = ElementSet.full(n)
    tracker, warm_set, warm_value, _ = _warm_base(f, matroid)
    base = tracker.current
    r = len(base)
    k = max(1, math.ceil(18 * r / eps))
    r1_size = min(r, root)
    r2_size = min(n, max(math.ceil(n / r) if r > 0 else root, root))
    draw_r1 = None if r1_size == r else (
        lambda s: sample_without_replacement(rng, s, r1_size)
    )
    draw_r2 = functools.partial(sample_without_replacement, rng, ground, r2_size)
    certificate = None
    made = iterations = owed = loops = 0
    while certificate is None and made < attempts:
        if made:
            tracker = make_tracker(f, base)
        for _ in range(owed):  # the draws the last attempt skipped
            draw_r2()
        made += 1
        stop = rng.randrange(k)  # the tested index, drawn before the run
        iterations += stop
        ran, loops = _run(tracker, matroid, draw_r1, draw_r2, stop, loops)
        owed = stop - ran
        candidate = LocalOptCertificate.at(tracker, matroid, eps, warm_value, rank=r)
        if candidate.passes():
            certificate = candidate
    return LocalSearchResult(
        solution=tracker.current,
        value=tracker.value,
        warm_set=warm_set,
        iterations=iterations,
        certificate=certificate,
    )


def _best_swap(tracker, matroid: MatroidOracle, s: ElementSet, r1: ElementSet, feasible):
    """One iteration's choice among the feasible candidates (ascending),
    each dropping its cheapest feasible partner from R1 = r1.

    Returns (swap, fails). swap is (gain, v, u_v) for the best candidate,
    the first of largest gain, or None when its gain fails the acceptance
    test. fails is the mask of the candidates whose upper bound or gain
    fails the test.
    """
    drop_w = {u: tracker.marginal_drop(u) for u in r1}
    min_drop = min(drop_w.values())
    best: tuple[float, ElementId, ElementId] | None = None
    fails = 0
    for v in feasible:  # first best kept on ties
        gain_add = tracker.marginal_add(v)
        upper = gain_add - min_drop
        if not ge(upper, 0.0):
            fails |= 1 << v
            continue
        if best is not None and not upper > best[0]:
            continue
        u_v = min_weight_exchange(matroid, s, r1, v, drop_w)
        gain = gain_add - drop_w[u_v]
        if not ge(gain, 0.0):
            fails |= 1 << v
        if best is None or gain > best[0]:
            best = (gain, v, u_v)
    swap = best if best is not None and ge(best[0], 0.0) else None
    return swap, fails


def _run(tracker, matroid: MatroidOracle, draw_r1, draw_r2, stop: int, loops: int):
    """Up to stop iterations of an attempt. draw_r1(S) samples R1 from the
    solution S; with no draw_r1, R1 is S itself.

    Each iteration draws R1, then R2, keeps the candidates v in R2 - S with
    (S - R1) + v independent, asked through the matroid's incremental pair
    from one state of S - R1, and applies the best swap (_best_swap).
    Returns how many iterations ran, fewer than stop only when an attempt
    whose R1 is S settles, and the mask of loops (elements dependent on
    their own) known after them, which the caller carries to the next
    attempt. A loop is marked only when R1 is S, since only then is
    (S - R1) + v the singleton.

    While S and R1 stand, the drop marginals and each candidate's
    add-marginal and cheapest drop are fixed; R1 stands across iterations
    only when it is S, and only until the next apply. So a candidate whose
    upper bound or gain fails the acceptance test is masked with the loops,
    and R2 loses the mask before any other work. Masking changes no swap:
    ge(x, 0.0) is x >= -1e-9, so a gain that fails is below the upper
    bound of every candidate that reaches the exchange search; it is never
    applied and never prunes another candidate. Once every element outside
    S is masked, S cannot change: the remaining iterations are not run and
    their R2 draws are not made.
    """
    n = tracker.ground_size
    full = (1 << n) - 1
    shut = loops
    for ran in range(stop):
        s = tracker.current
        if draw_r1 is None:
            if (s.mask | shut) == full:
                return ran, loops
            r1 = s
        else:
            r1 = draw_r1(s)
        live = draw_r2().mask & ~(s.mask | shut)
        stripped = s.mask & ~r1.mask
        state = matroid.state(ElementSet(n, stripped))
        feasible = []
        while live:
            low = live & -live
            live ^= low
            v = low.bit_length() - 1
            if matroid.extends(state, v):
                feasible.append(v)
            elif not stripped:
                loops |= low
                shut |= low
        if feasible and r1.mask:
            swap, fails = _best_swap(tracker, matroid, s, r1, feasible)
            if swap is not None:
                tracker.apply(add=swap[1], drop=swap[2])
                shut = loops
            elif draw_r1 is None:
                shut |= fails
    return stop, loops


# ----- full solvers -----


def non_oblivious_solve(
    f: ValueOracle,
    matroid: MatroidOracle,
    config: SolverConfig,
    *,
    regularizer: LinearRegularizer | None = None,
) -> RunReport:
    """End-to-end solve: lift, search the guide, project back.

    The level count is 1 + ceil(1/eps) unless overridden; the inner search
    runs at eps / (e (1 + ln levels)) on the lifted instance, whose
    independence queries cost one base query per distinct projection and
    whose guide queries decompose into base value queries through the
    tracker. The guide and the lifted matroid are built once per solve and
    sit above the counting oracles, so their memos charge each distinct base
    set once per solve. The certificate lives on the lifted instance. A
    randomized run that exhausts its retry budget returns the empty set with
    failed=True and no certificate; its iterations and ledger still count
    every query it made.

    A regularizer folds its scaled modular term into the guide, so the
    output trades f against it: for every independent T, f(S) + reg(S) is
    guaranteed near (1 - 1/e) f(T) + reg(T) when its weights are
    non-negative. The solve fails closed: it raises rather than return a
    certificate that does not pass.
    """
    _check_ground(f, matroid)
    ledger = QueryLedger()
    f_counted = CountingValueOracle(f, ledger)
    m_counted = CountingMatroidOracle(matroid, ledger)
    levels = config.levels
    guide = LiftedGuide(f_counted, GuideWeights(levels), regularizer)
    lifted_matroid = lift(m_counted, levels)
    eps_in = inner_eps(config.eps, levels)

    if config.variant == DETERMINISTIC:
        result = deterministic_local_search(guide, lifted_matroid, eps_in)
    else:
        result = randomized_local_search(
            guide, lifted_matroid, eps_in, RandomSource(config.seed)
        )

    certificate = result.certificate
    if certificate is not None and not certificate.passes():
        raise RuntimeError(
            f"solve produced a certificate that does not pass (gap {certificate.gap!r}"
            f" > bound {certificate.bound!r}); the value oracle is likely not "
            "monotone submodular"
        )
    failed = certificate is None
    # a failed run reports the empty set; the set it last tested is a base,
    # so it still gives the rank
    lifted_solution = None if failed else result.solution
    output = (
        ElementSet.empty(f.ground_size)
        if failed
        else project_all(result.solution, levels)
    )
    return RunReport(
        output_set=output,
        objective_value=f.eval(output),  # uncounted; reporting only
        ledger=ledger,
        iterations=result.iterations,
        failed=failed,
        certificate=certificate,
        eps=config.eps,
        levels=levels,
        variant=config.variant,
        seed=config.seed,
        rank=len(result.solution),
        lifted_solution=lifted_solution,
        regularized=regularizer is not None,
    )
