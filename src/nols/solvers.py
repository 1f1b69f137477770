"""Local-search solvers and their run artifacts.

Two searches live here. ``deterministic_local_search`` and
``randomized_local_search`` are swap searches over any (value oracle,
matroid) pair that stop at an approximate local optimum certified by a
greedy challenger set (``LocalOptCertificate.at``). ``non_oblivious_solve``
composes them with the lifted guide (optionally carrying a modular
regularizer) to reach the target approximation factor.
"""

from __future__ import annotations

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
    sample_without_replacement,
)
from .matroids import extend_to_base, lift, max_weight_independent, min_weight_exchange
from .objectives import (
    LiftedGuide,
    LinearRegularizer,
    MAX_LEVELS,
    GuideWeights,
    as_guide,
    make_tracker,
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
        cls, tracker, matroid: MatroidOracle, eps: float, warm_value: float
    ) -> "LocalOptCertificate":
        """Greedy challenger certificate at the tracker's current solution.

        Weights are f(v | S - v) for every ground element; the witness is the
        greedy max-weight independent set, which is exact for linear
        objectives over a matroid, so the gap equals the worst case over all
        independent challengers. Sums run in ascending element order so
        recomputation is float-identical.
        """
        s = tracker.current
        w: dict[ElementId, float] = {}
        for v in range(tracker.ground_size):
            w[v] = tracker.marginal_drop(v) if v in s else tracker.marginal_add(v)
        witness = max_weight_independent(matroid, w)
        gap = sum(w[v] for v in witness) - sum(w[u] for u in s)
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
    """Descending-thresholds greedy from the empty set; returns its tracker
    and the set of elements it found dependent.

    tau starts at the largest singleton value and decays by (1 - 1/8) until
    below (1/8) * max / n; each sweep visits, in ascending id, every live
    element whose upper bound clears tau, and adds it if its marginal clears
    tau too and the set stays independent. Bounds are lazy (marginals only
    shrink as S grows), and an element whose addition went dependent is
    dead for good (downward closure), so the output matches the eager sweep
    exactly at a fraction of the queries. There are O(log n) sweeps of at
    most n value queries each, so the warm start stays inside both
    searches' query bounds.

    The live elements wait in a heap keyed by (-bound, id), so a sweep pops
    the elements that clear tau instead of walking all n. It pops exactly
    the ones the eager sweep would visit, and they are visited in the same
    order: ge(x, tau) is monotone in x for tau > 0 (-inf is queued with
    +inf, since the slack lets both clear), and a bound changes only when
    its element is visited. So the same marginals, independence queries
    and applies happen in the same order. An element whose bound is NaN
    clears no threshold; it never enters the heap, just as the eager sweep
    never visits it.
    """
    n = f.ground_size
    tracker = make_tracker(f, ElementSet.empty(n))
    ub = [tracker.marginal_add(u) for u in range(n)]
    tau = max((tracker.value + m for m in ub), default=0.0)  # largest singleton
    if not 0 < tau < math.inf:  # NaN, non-positive or infinite: no sweep
        return tracker, ElementSet.empty(n)
    floor = _DECAY * tau / n
    # the decay takes tau below the floor within this many sweeps, plus float
    # slack; the cap alone ends a subnormal tau, whose floor underflows to 0
    sweeps = math.floor(math.log(n / _DECAY) / -math.log1p(-_DECAY)) + 2
    live = [(_heap_key(m), u) for u, m in enumerate(ub) if not math.isnan(m)]
    heapq.heapify(live)
    dead = 0
    while live and tau >= floor and sweeps:
        sweeps -= 1
        clearing = []
        while live and ge(-live[0][0], tau):
            clearing.append(heapq.heappop(live)[1])
        for u in sorted(clearing):
            m = tracker.marginal_add(u)
            if not ge(m, tau):
                if not math.isnan(m):
                    heapq.heappush(live, (_heap_key(m), u))
            elif matroid.is_independent(tracker.current.add(u)):
                tracker.apply(add=u)
            else:
                dead |= 1 << u
        tau *= 1.0 - _DECAY
    return tracker, ElementSet(n, dead)


def _heap_key(bound: float) -> float:
    # -inf clears every tau (its slack term is infinite), so it queues with +inf
    return -math.inf if bound == -math.inf else -bound


def warm_start(f: ValueOracle, matroid: MatroidOracle) -> ElementSet:
    """Independent set worth at least a third of the optimum, by
    descending-thresholds greedy.

    The contract is enforced by the brute-force acceptance suite rather
    than assumed from the internals.
    """
    return _threshold_greedy_warm(f, matroid)[0].current


def _warm_base(f: ValueOracle, matroid: MatroidOracle):
    """Warm-start a tracker from the empty set, then extend it to a base,
    skipping the elements the warm start found dependent.

    Returns (tracker at the base, warm set, warm value); no randomness, so
    every search attempt reaches the same base.
    """
    tracker, dead = _threshold_greedy_warm(f, matroid)
    warm_set = tracker.current
    warm_value = tracker.value
    base = extend_to_base(matroid, warm_set, dead)
    for u in base.difference(warm_set):
        tracker.apply(add=u)
    return tracker, warm_set, warm_value


def _clears(value: float, threshold: float) -> bool:
    """The searches' acceptance test: value reaches a positive threshold up
    to the slack; with a zero threshold it must beat 0 strictly, since
    accepting rounding noise there could swap forever."""
    return ge(value, threshold) if threshold > 0 else gt(value, 0.0)


def _alone_oracle(matroid: MatroidOracle, n: int):
    """is_independent({v}) that asks the matroid at most once per element."""
    return functools.cache(lambda v: matroid.is_independent(ElementSet(n, 1 << v)))


def _check_eps(eps) -> None:
    real = isinstance(eps, numbers.Real) and not isinstance(eps, bool)
    if not (real and 0 < eps < math.inf):
        raise ValueError(f"eps must be a positive finite real number, got {eps!r}")


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
    threshold, so scans are bounded by ceil(3 r / eps) + 1.

    Three shortcuts skip queries without changing the trajectory. The
    binary search runs only when the upper bound gain_add - min(drop)
    clears the threshold: the feasible drop weighs at least the minimum,
    and float subtraction and the slack comparisons are monotone, so a
    candidate failing the bound fails the exact test too. Each candidate's
    singleton independence is asked once per call, the first time a scan
    reaches it, so loops (elements dependent on their own) cost one query
    in all.

    The add-marginal itself is skipped when a bound carried across swaps
    shows the candidate cannot clear gain_add - min(drop). For the monotone
    submodular guide part g, a swap adding w and dropping u at S gives
    g(v | S - u + w) <= g(v | S - u) <= g(v | S) + g(u | S - u), also for
    v = u and for members, whose marginal is 0. So with D the running sum
    of the dropped elements' guide-part drop marginals, m_v + (D - D_v)
    bounds v's marginal, where m_v was computed when D was D_v. The
    regularizer term is modular: it stays in m_v and is kept out of D. The
    bound is padded by the comparison slack against rounding; a skipped
    candidate would have failed the exact test, so the same swaps are made.
    Bounds start empty on each call.

    eps must be a positive finite real number (not a bool); any other
    raises ValueError.
    """
    _check_eps(eps)
    f = as_guide(f)
    n = f.ground_size
    tracker, warm_set, warm_value = _warm_base(f, matroid)
    r = len(tracker.current)
    threshold = (eps / r) * warm_value if r > 0 else 0.0
    max_scans = math.ceil(3 * r / eps) + 1 if r > 0 else 1
    independent_alone = _alone_oracle(matroid, n)
    carried: dict[ElementId, tuple[float, float]] = {}  # v -> (m_v, D_v)
    dropped = 0.0  # D
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
        for v in range(n):
            if v in s:
                continue
            if not independent_alone(v):
                continue
            known = carried.get(v)
            if known is not None:
                bound = known[0] + (dropped - known[1])
                # padded, a bound that reaches a positive threshold clears
                # it; at a zero threshold this only skips less
                if bound - min_drop < threshold:
                    bound += COMPARISON_SLACK * max(1.0, abs(bound))
                    if not _clears(bound - min_drop, threshold):
                        continue
            gain_add = tracker.marginal_add(v)
            if math.isfinite(gain_add):
                carried[v] = (gain_add, dropped)
            if not _clears(gain_add - min_drop, threshold):
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

    certificate = LocalOptCertificate.at(tracker, matroid, eps, warm_value)
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
    """Sampled-swap search on as_guide(f), amplified over attempts; the
    first passing attempt wins.

    The search warm-starts and extends to a base once. Each attempt starts
    there and runs k = ceil(18 r / eps) iterations that each sample a drop
    pool R1 from the solution (size min(r, ceil(sqrt n))) and a candidate
    pool R2 from the ground set (size max(ceil(n / r), ceil(sqrt n))), then
    apply the best feasible swap if its gain is non-negative. One trajectory
    index i in [k] is then drawn uniformly; S_{i-1} is tested against the
    challenger certificate at threshold eps * f(S0) and returned when it
    passes.

    attempts defaults to ceil(log3(1/eps)); attempts=1 is a single run and
    attempts=0 makes none, so the search stops at the base. All attempts
    draw from the one generator, so replay is deterministic (the warm start
    draws no randomness, so running it once leaves the stream as it was).
    The result's iterations are k times the attempts made. When no attempt
    passes, its certificate is None and its solution is the last set
    tested.

    Two shortcuts skip queries without changing the trajectory. A
    candidate's exchange binary search is skipped when the upper bound
    gain_add - min(drop) over R1 fails the acceptance test or does not beat
    the best gain so far: its true gain is no larger, so the applied swap,
    ties included, is the one the full search picks. When R1 is the whole
    solution, the feasibility test is a singleton query, asked at most once
    per element per call.

    eps must be a positive finite real number and attempts, when given, a
    non-negative int (neither may be a bool); any other raises ValueError.
    """
    _check_eps(eps)
    if attempts is None:
        attempts = amplification_attempts(eps)
    elif type(attempts) is not int or attempts < 0:  # isinstance lets True in
        raise ValueError(f"attempts must be a non-negative int, got {attempts!r}")
    f = as_guide(f)
    n = f.ground_size
    root = ceil_sqrt(n)
    ground = ElementSet.full(n)
    independent_alone = _alone_oracle(matroid, n)
    tracker, warm_set, warm_value = _warm_base(f, matroid)
    base = tracker.current
    r = len(base)
    k = max(1, math.ceil(18 * r / eps))
    r1_size = min(r, root)
    r2_size = min(n, max(math.ceil(n / r) if r > 0 else root, root))
    certificate = None
    made = 0
    while certificate is None and made < attempts:
        if made:
            tracker = make_tracker(f, base)
        made += 1
        trajectory = [tracker.current]
        for _ in range(k):
            s = tracker.current
            r1 = sample_without_replacement(rng, s, r1_size)
            r2 = sample_without_replacement(rng, ground, r2_size)
            stripped = s.mask & ~r1.mask
            feasible = [
                v
                for v in r2
                if v not in s
                and (
                    independent_alone(v)
                    if stripped == 0
                    else matroid.is_independent(ElementSet(n, stripped | (1 << v)))
                )
            ]
            if feasible and len(r1) > 0:
                drop_w = {u: tracker.marginal_drop(u) for u in r1}
                min_drop = min(drop_w.values())
                best: tuple[float, ElementId, ElementId] | None = None
                for v in feasible:  # ascending; first best kept on ties
                    gain_add = tracker.marginal_add(v)
                    upper = gain_add - min_drop
                    if not ge(upper, 0.0) or (
                        best is not None and not upper > best[0]
                    ):
                        continue
                    u_v = min_weight_exchange(matroid, s, r1, v, drop_w)
                    gain = gain_add - drop_w[u_v]
                    if best is None or gain > best[0]:
                        best = (gain, v, u_v)
                if best is not None and ge(best[0], 0.0):
                    tracker.apply(add=best[1], drop=best[2])
            trajectory.append(tracker.current)

        tested = trajectory[rng.randrange(k)]
        if tested != tracker.current:
            tracker = make_tracker(f, tested)
        candidate = LocalOptCertificate.at(tracker, matroid, eps, warm_value)
        if not _clears(candidate.gap, candidate.bound):
            certificate = candidate
    return LocalSearchResult(
        solution=tracker.current,
        value=tracker.value,
        warm_set=warm_set,
        iterations=made * k,
        certificate=certificate,
    )


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
    if f.ground_size != matroid.ground_size:
        raise ValueError(
            f"objective ground size {f.ground_size} does not match matroid "
            f"ground size {matroid.ground_size}"
        )
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
            "monotone submodular or returned a non-finite value"
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
