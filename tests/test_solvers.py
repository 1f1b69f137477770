import contextlib
import dataclasses
import math
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import suite
from nols import solvers
from nols.core import (
    CountingMatroidOracle,
    CountingValueOracle,
    ElementSet,
    QueryLedger,
    RandomSource,
)
from nols.matroids import (
    GraphicMatroid,
    LiftedMatroid,
    PartitionMatroid,
    UniformMatroid,
    as_lifted,
    lift,
    max_weight_independent,
    rank,
)
from nols.objectives import (
    ConcaveOfModular,
    CoverageFunction,
    GuideWeights,
    LiftedGuide,
    LiftedTracker,
    LinearRegularizer,
    ModularFunction,
    as_guide,
    make_tracker,
    project_all,
)
from nols.solvers import (
    DETERMINISTIC,
    RANDOMIZED,
    SolverConfig,
    amplification_attempts,
    ceil_sqrt,
    default_levels,
    deterministic_local_search,
    inner_eps,
    non_oblivious_solve,
    randomized_local_search,
    warm_start,
)
from nols.instances import generate_instance
from nols.verify import brute_force_opt, check_certificate, reference_local_search
from suite import (
    TINY_UNIVERSE,
    RecordingMatroid,
    RecordingOracle,
    SquaredSize,
    bait_chain,
    eager_local_search,
    eager_threshold_greedy,
    relay,
    tiny_coverage,
)


def _es(n, items):
    return ElementSet.from_iterable(n, items)


def test_config_validation():
    SolverConfig(eps=0.25, variant=DETERMINISTIC, seed=0)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0, variant=DETERMINISTIC, seed=0)
    with pytest.raises(ValueError):
        SolverConfig(eps=1.5, variant=DETERMINISTIC, seed=0)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.25, variant="annealing", seed=0)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.25, variant=DETERMINISTIC, seed=0, levels_override=0)


def test_config_rejects_eps_beyond_level_cap():
    # 1/19 is the smallest eps whose default level count fits the cap
    SolverConfig(eps=1 / 19)
    with pytest.raises(ValueError, match=r"eps=0\.05 needs 21 levels"):
        SolverConfig(eps=0.05)
    # an explicit level count makes the eps-derived one irrelevant
    SolverConfig(eps=0.05, levels_override=3)


def test_config_rejects_levels_override_beyond_cap():
    SolverConfig(eps=0.25, levels_override=20)
    with pytest.raises(ValueError, match="levels_override=21"):
        SolverConfig(eps=0.25, levels_override=21)


@pytest.mark.parametrize("levels", [2.5, 2.0, True])
def test_config_rejects_a_levels_override_that_is_not_an_int(levels):
    # 2.5 would reach GuideWeights and fail there with a TypeError; True
    # would pass as one level
    with pytest.raises(ValueError, match="levels_override must be an int"):
        SolverConfig(eps=0.5, levels_override=levels)


@pytest.mark.parametrize(
    "field, value",
    [
        ("eps", "0.5"),
        ("eps", True),
        ("eps", None),
        ("eps", 0.5j),
        ("seed", 1.5),
        ("seed", "x"),
        ("seed", True),
        ("seed", None),
    ],
)
def test_config_rejects_a_mistyped_eps_or_seed(field, value):
    # "0.5" would fail the range check with a TypeError, a float or string
    # seed would reach RandomSource, and True would run as seed 1
    kind = "a real number" if field == "eps" else "an int"
    with pytest.raises(ValueError, match=f"^{field} must be {kind}, got "):
        SolverConfig(**{field: value})


@pytest.mark.parametrize(
    "entry",
    [
        lambda f, m: non_oblivious_solve(f, m, SolverConfig(eps=0.5)),
        warm_start,
        lambda f, m: deterministic_local_search(f, m, 0.5),
        lambda f, m: randomized_local_search(f, m, 0.5, RandomSource(0)),
    ],
    ids=["solve", "warm_start", "deterministic", "randomized"],
)
@pytest.mark.parametrize(
    "matroid",
    # a smaller uniform matroid used to be searched as if it were larger,
    # and a smaller graphic one raised IndexError
    [UniformMatroid(21, 3), UniformMatroid(4, 2), GraphicMatroid(3, [(0, 1), (1, 2)])],
    ids=["larger", "smaller", "graphic"],
)
def test_solve_rejects_ground_size_mismatch(entry, matroid):
    f = ModularFunction([1] * 20)
    size = matroid.ground_size
    with pytest.raises(ValueError, match=f"ground size 20 .* ground size {size}$"):
        entry(f, matroid)


class _NaNOracle:
    ground_size = 6

    def eval(self, s):
        return float("nan")


@pytest.mark.parametrize("variant", [DETERMINISTIC, RANDOMIZED])
def test_solve_fails_closed_on_nan_oracle(variant):
    # the tracker's start asks f of the empty set through the guide's memo
    config = SolverConfig(eps=0.5, variant=variant, seed=0)
    message = "the value oracle returned nan on the set {}; values must be finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        non_oblivious_solve(_NaNOracle(), UniformMatroid(6, 2), config)


class _OnZero:
    """|S| as a float, except `value` on every set holding element 0."""

    ground_size = 4

    def __init__(self, value):
        self.value = value

    def eval(self, s):
        return self.value if 0 in s else float(len(s))


class _IncrementalOnZero(_OnZero):
    """_OnZero with the incremental pair, the set's mask as its state."""

    def state(self, s):
        return s.mask

    def extend(self, mask, u):
        return self.eval(ElementSet(self.ground_size, mask | 1 << u))


_ON_ZERO_SET = _es(4, [0, 1])


def _check_on_zero_set(f, m):
    certificate = solvers.LocalOptCertificate.at(
        make_tracker(ModularFunction([1] * 4), _ON_ZERO_SET), m, 0.5, 1.0
    )
    return check_certificate(certificate, f, m, _ON_ZERO_SET)


@pytest.mark.parametrize("kind", [_OnZero, _IncrementalOnZero], ids=["eval", "extend"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry, named",
    [
        (lambda f, m: non_oblivious_solve(f, m, SolverConfig(0.5)), "{0}"),
        (lambda f, m: non_oblivious_solve(f, m, SolverConfig(0.5, RANDOMIZED)), "{0}"),
        (warm_start, "{0}"),
        (lambda f, m: deterministic_local_search(f, m, 0.5), "{0}"),
        (lambda f, m: randomized_local_search(f, m, 0.5, RandomSource(0)), "{0}"),
        (_check_on_zero_set, "{0,1}"),
    ],
    ids=["solve-det", "solve-rand", "warm-start", "deterministic", "randomized",
         "check"],
)
def test_a_non_finite_value_is_refused_at_the_guide(entry, named, value, kind):
    # searches first meet element 0 in an add-marginal of the empty set, an
    # extend or an eval of {0}; the recheck meets it in the value of its set
    message = (
        f"the value oracle returned {value!r} on the set {named}; values must be finite"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(kind(value), UniformMatroid(4, 2))


@pytest.mark.parametrize("variant", [DETERMINISTIC, RANDOMIZED])
def test_a_guide_sum_that_overflows_is_refused_by_name(variant):
    # every f value is finite, but at 3 levels the warm start's first
    # marginal weighs f({0}) = 1e308 by 37/9
    f = ConcaveOfModular([1e308] * 6, shape="cap", cap=1.7e308)
    message = (
        "the guide's weighted sum overflowed to inf on the lifted set {0}; "
        "f's values are too large for the guide's weights"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        non_oblivious_solve(f, UniformMatroid(6, 3), SolverConfig(eps=0.5, variant=variant))


class _NearTheLimit:
    """f(empty) = 2e307 and f(S) = 4e307 + 1e300 * min(S): finite, but at
    3 levels the guide's value of the empty set plus a singleton's
    add-marginal overflows."""

    ground_size = 4

    def eval(self, s):
        return 4e307 + 1e300 * min(s) if s else 2e307


@pytest.mark.parametrize(
    "solve",
    [
        lambda f, m: warm_start(LiftedGuide(f, GuideWeights(3)), lift(m, 3)),
        lambda f, m: non_oblivious_solve(f, m, SolverConfig(eps=0.5)),
        lambda f, m: non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=RANDOMIZED)),
    ],
    ids=["warm-start", "solve-det", "solve-rand"],
)
def test_a_warm_start_threshold_that_overflows_is_refused_before_a_sweep(solve):
    # tau, the largest singleton value, would be inf, so every sweep would
    # take nothing and the warm set would be empty; the warm start names the
    # first singleton at inf before its first sweep, and no base extension
    # runs
    message = (
        "the guide's weighted sum overflowed to inf on the lifted set {0}; "
        "f's values are too large for the guide's weights"
    )
    with mock.patch.object(solvers, "extend_to_base", side_effect=AssertionError), \
            pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(_NearTheLimit(), UniformMatroid(4, 2))


def test_level_and_eps_schedule():
    assert default_levels(0.5) == 3
    assert default_levels(0.25) == 5
    assert default_levels(0.2) == 6
    assert default_levels(0.1) == 11
    assert inner_eps(0.5, 3) == pytest.approx(0.5 / (math.e * (1 + math.log(3))))
    assert amplification_attempts(0.5) == 1
    assert amplification_attempts(0.25) == 2
    assert amplification_attempts(0.1) == 3


def test_default_levels_rejects_a_non_positive_eps():
    with pytest.raises(ValueError, match="^eps must be positive$"):
        default_levels(0)


_EPS_MESSAGE = "eps must be a positive finite real number, got "
_ATTEMPTS_MESSAGE = "attempts must be a non-negative int, got "


@pytest.mark.parametrize(
    "variant, eps, attempts, message",
    [
        (DETERMINISTIC, math.nan, None, _EPS_MESSAGE + "nan"),
        (DETERMINISTIC, math.inf, None, _EPS_MESSAGE + "inf"),
        (DETERMINISTIC, True, None, _EPS_MESSAGE + "True"),
        (DETERMINISTIC, "0.5", None, _EPS_MESSAGE + "'0.5'"),
        (RANDOMIZED, math.nan, None, _EPS_MESSAGE + "nan"),
        (RANDOMIZED, math.inf, None, _EPS_MESSAGE + "inf"),
        (RANDOMIZED, 0.5j, None, _EPS_MESSAGE + "0.5j"),
        (RANDOMIZED, 0.5, -1, _ATTEMPTS_MESSAGE + "-1"),
        (RANDOMIZED, 0.5, 1.5, _ATTEMPTS_MESSAGE + "1.5"),
        (RANDOMIZED, 0.5, True, _ATTEMPTS_MESSAGE + "True"),
        (RANDOMIZED, 0.5, "2", _ATTEMPTS_MESSAGE + "'2'"),
    ],
    ids=[
        "det-nan", "det-inf", "det-bool", "det-str", "rand-nan", "rand-inf",
        "rand-complex", "attempts-negative", "attempts-float", "attempts-bool",
        "attempts-str",
    ],
)
def test_inner_searches_reject_a_bad_eps_or_attempts(variant, eps, attempts, message):
    # unchecked, NaN dies converting to an int, inf gives an infinite bound and
    # True runs as 1; a negative attempts reads as an exhausted search, 1.5 as 2
    f, m = tiny_coverage()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if variant == DETERMINISTIC:
            deterministic_local_search(f, m, eps)
        else:
            randomized_local_search(f, m, eps, RandomSource(0), attempts=attempts)


def test_warm_start_is_greedy_competitive():
    f, m = tiny_coverage()
    s0 = warm_start(f, m)
    assert m.is_independent(s0)
    assert 3 * f.eval(s0) >= brute_force_opt(f, m).opt_value


def test_warm_start_on_modular_picks_top_weights():
    f = ModularFunction([5, 1, 9, 2, 7])
    m = UniformMatroid(5, 2)
    s0 = warm_start(f, m)
    assert f.eval(s0) == 16  # elements 2 and 4


_ODD_VALUES = (-3.0, -0.5, 0.0, 1.0, 2.5, 4.0, 6.0, 9.0)


class _OddOracle:
    """Arbitrary values keyed by set, negative ones among them, so marginals
    can be negative. Not submodular, not even monotone."""

    def __init__(self, n, seed, values=_ODD_VALUES):
        self.ground_size = n
        self.seed = seed
        self.values = values

    def eval(self, s):
        return self.values[hash((self.seed, s.mask)) % len(self.values)]


def _warm_instance(family, n, r, seed):
    if family == "odd":
        return _OddOracle(n, seed), UniformMatroid(n, r)
    instance = generate_instance("coverage" if family == "weighted" else family, n, r, seed)
    f = instance.build_objective()
    if family == "weighted":
        rng = RandomSource(seed)
        weights = [rng.randrange(10) for _ in range(f.universe_size)]
        f = CoverageFunction(f.universe_size, [f.covers(u) for u in range(n)], weights)
    return f, instance.build_matroid()


@given(
    family=st.sampled_from(["coverage", "weighted", "partition", "graphic", "odd"]),
    n=st.integers(2, 12),
    r=st.integers(1, 4),
    levels=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_heap_warm_start_matches_the_eager_sweep(family, n, r, levels, seed):
    # the heap visits exactly the elements the eager sweep visits, in the
    # same order: same value and independence queries, same set and value
    f, m = _warm_instance(family, n, min(r, n), seed)
    runs = []
    for warm in (eager_threshold_greedy, warm_start):
        recorder = RecordingOracle(f, hasattr(f, "extend"))
        matroid = RecordingMatroid(lift(m, levels))
        result = warm(LiftedGuide(recorder, GuideWeights(levels)), matroid)
        runs.append((result, recorder.seen, matroid.seen))
    (eager, eager_values, eager_indeps), (s, values, indeps) = runs
    assert values == eager_values
    assert indeps == eager_indeps
    assert s == eager.current
    assert make_tracker(LiftedGuide(f, GuideWeights(levels)), s).value == eager.value


class _ApplyLog:
    """Tracker proxy that logs each apply with the number of value queries
    asked by then. It offers only the tracker surface a tracing proxy
    offers, so the search may read no more."""

    def __init__(self, inner, recorder, log):
        self.inner = inner
        self.recorder = recorder
        self.log = log
        self.ground_size = inner.ground_size

    @property
    def current(self):
        return self.inner.current

    @property
    def value(self):
        return self.inner.value

    def marginal_add(self, x):
        return self.inner.marginal_add(x)

    def marginal_drop(self, x):
        return self.inner.marginal_drop(x)

    def apply(self, add=None, drop=None):
        self.inner.apply(add=add, drop=drop)
        self.log.append((add, drop, len(self.recorder.seen)))


def _per_state(values, log):
    """The value queries split at each apply: the sets asked in each
    tracked state, the apply's own refresh included."""
    ends = [end for _, _, end in log] + [len(values)]
    return [values[start:end] for start, end in zip([0] + ends, ends)]


@given(
    family=st.sampled_from(["coverage", "weighted", "partition", "graphic", "bait", "relay"]),
    n=st.integers(2, 12),
    r=st.integers(1, 4),
    levels=st.integers(1, 4),
    # small enough to leave a bait chain's swaps in place
    reg=st.none() | st.lists(st.integers(-8, 8).map(lambda w: w / 24), min_size=26),
    eps=st.sampled_from([0.5, 0.2, 0.05]),
    seed=st.integers(0, 10**6),
)
@example(family="relay", n=2, r=1, levels=1, reg=None, eps=0.05, seed=0)
@example(family="relay", n=2, r=1, levels=1, reg=[0, -0.5, 0, 0], eps=0.05, seed=0)
# the lazy scan asks sets in state 11 that the eager scan asked in state 9
@example(family="bait", n=6, r=4, levels=3, reg=[0.0] * 8 + [1 / 24] + [0.0] * 17,
         eps=0.05, seed=0)
@settings(max_examples=200, deadline=None)
def test_carried_bounds_skip_only_marginals_the_eager_scan_rejects(
    family, n, r, levels, reg, eps, seed
):
    # the scan skips an add-marginal only when its carried bound fails the
    # test the marginal itself would fail: the same applies, scans,
    # independence queries and certificate, and by the end of each state
    # no value query the eager scan has not asked by then. The guide's
    # memo lasts the whole solve, so a skip can move a set to a later ask,
    # in the same state or a later one (or the certificate), and the order
    # may differ; no set is asked twice. Bait chains swap once per bait,
    # so bounds get carried; relay needs them to grow.
    if family == "bait":
        f, m = bait_chain(2 * (3 + r) + n, 3 + r, seed)
    elif family == "relay":
        f, m = relay()
    else:
        f, m = _warm_instance(family, n, min(r, n), seed)
    regularizer = None if reg is None else LinearRegularizer(reg[: f.ground_size])
    runs = []
    for module, search in ((suite, eager_local_search), (solvers, deterministic_local_search)):
        recorder = RecordingOracle(f, hasattr(f, "extend"))
        matroid = RecordingMatroid(lift(m, levels))
        guide = LiftedGuide(recorder, GuideWeights(levels), regularizer)
        log = []
        track = lambda oracle, start: _ApplyLog(make_tracker(oracle, start), recorder, log)
        with mock.patch.object(module, "make_tracker", track):
            res = search(guide, matroid, eps)
        applies = [(add, drop) for add, drop, _ in log]
        runs.append((res, applies, matroid.seen, _per_state(recorder.seen, log)))
    (eager, eager_applies, eager_indeps, eager_values), (lazy, applies, indeps, values) = runs
    assert lazy == eager
    assert applies == eager_applies
    assert indeps == eager_indeps
    lazy_seen, eager_seen = set(), set()
    for asked, eager_asked in zip(values, eager_values, strict=True):
        lazy_seen.update(asked)
        eager_seen.update(eager_asked)
        assert lazy_seen <= eager_seen
    assert len(lazy_seen) == sum(map(len, values))


def test_carried_bounds_skip_add_marginals_on_a_bait_chain():
    # the carried bounds, capped by the singleton marginals, and the
    # solve-long memos hold the value queries to 545 here (the scans stay
    # 6); each projected set's independence is asked once, singletons only
    # past the gain test and the certificate's greedy only up to the rank,
    # which holds them to 90
    f, m = bait_chain(64, 8, 0)
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=DETERMINISTIC))
    assert rep.ledger.value_queries == 545
    assert rep.ledger.independence_queries == 90
    assert rep.iterations == 6


def test_the_scans_ask_no_junk_add_marginal_on_a_bait_chain():
    # a junk element's singleton marginal, which the warm start computed,
    # never reaches the threshold, so no scan asks its add-marginal, the
    # first scan included, though each swap lifts its carried bound past
    # the threshold
    f, m = bait_chain(64, 8, 0)
    junk = 64 - (2 * 8 - 1)  # the low elements
    phase, asked = ["warm start"], []
    marginal_add, warm_base = LiftedTracker.marginal_add, solvers._warm_base
    certify = solvers.LocalOptCertificate.at

    def logged_add(tracker, x):
        asked.append((phase[0], x))
        return marginal_add(tracker, x)

    def logged_warm(*args):
        out = warm_base(*args)
        phase[0] = "scan"
        return out

    def logged_certify(cls, *args, **kwargs):
        phase[0] = "certificate"
        return certify(*args, **kwargs)

    with mock.patch.object(LiftedTracker, "marginal_add", logged_add), \
            mock.patch.object(solvers, "_warm_base", logged_warm), \
            mock.patch.object(solvers.LocalOptCertificate, "at", classmethod(logged_certify)):
        rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=DETERMINISTIC))
    junk_asked = {"warm start": set(), "scan": set(), "certificate": set()}
    for p, x in asked:
        if x // rep.levels < junk:
            junk_asked[p].add(x)
    assert rep.iterations == 6
    assert not junk_asked["scan"]
    # the warm start and the certificate ask every junk element
    assert junk_asked["warm start"] == junk_asked["certificate"] == set(range(junk * rep.levels))


def _charged_runs(search, reference, f, m, levels):
    """Run search and reference, each on a fresh guide over a recorder of f
    and a fresh lift of a recorder of m; returns each one's result, the
    value sets and the independence sets the base oracles were charged."""
    runs = []
    for run in (search, reference):
        recorder, asked = RecordingOracle(f, hasattr(f, "extend")), RecordingMatroid(m)
        out = run(LiftedGuide(recorder, GuideWeights(levels)), lift(asked, levels))
        runs.append((out, recorder.seen, asked.seen))
    return runs


@given(
    kind=st.sampled_from(["uniform", "partition", "graphic", "explicit"]),
    objective=st.sampled_from(["modular", "coverage"]),
    n=st.integers(2, 9),
    r=st.integers(1, 4),
    levels=st.integers(1, 3),
    ranked=st.booleans(),
    eps=st.sampled_from([0.5, 0.25, 0.0625]),
    weights=st.lists(st.integers(0, 31), min_size=9, max_size=9),
    seed=st.integers(0, 10**6),
)
# the warm start leaves element 2 in the block of element 0, whose weight it
# beats by the threshold exactly (1 = (0.0625 / 2) * 32), so the only swap
# needs a cut at threshold + min(drop) that keeps a bound equal to it
@example(kind="partition", objective="modular", n=3, r=2, levels=1, ranked=False,
         eps=0.0625, weights=[14, 18, 15] + [0] * 6, seed=0)
@settings(max_examples=200, deadline=None)
def test_the_skipping_loops_charge_the_sets_of_the_full_loops(
    kind, objective, n, r, levels, ranked, eps, weights, seed
):
    # the sorted-bound scan visits a prefix of the candidates, and both
    # greedies skip the copies whose answer the lift already knows: the
    # oracles under the guide and the lift are charged the same sets in the
    # same order as by loops that visit and ask every element, and the
    # results are equal
    w = weights[:n]
    if objective == "modular":
        f = ModularFunction(w)
    else:  # element u covers the points of u's weight bits
        f = CoverageFunction(5, [[p for p in range(5) if x >> p & 1] for x in w])
    m = suite.small_matroid(kind, n, r, seed)
    cap = rank(lift(m, levels)) if ranked else None
    lifted_w = [(w[x // levels] - 8 - x % levels) / 2 for x in range(n * levels)]
    (got, *charged), (want, *want_charged) = _charged_runs(
        lambda g, lm: max_weight_independent(lm, lifted_w, rank=cap),
        lambda g, lm: suite.asking_greedy(lm, lifted_w, rank=cap),
        f, m, levels,
    )
    assert (got, charged) == (want, want_charged)
    (got, *charged), (want, *want_charged) = _charged_runs(
        solvers._threshold_greedy_warm, suite._eager_warm, f, m, levels
    )
    assert (got[0].current, got[1].mask, got[2]) == (want[0].current, want[1], want[2])
    assert charged == want_charged
    (got, *charged), (want, *want_charged) = _charged_runs(
        lambda g, lm: deterministic_local_search(g, lm, eps),
        lambda g, lm: suite.full_scan_local_search(g, lm, eps),
        f, m, levels,
    )
    assert got == want
    assert charged == want_charged


class _HiddenLift:
    """Matroid proxy that is not a LiftedMatroid, as a tracing proxy is not,
    so the searches put a one-level lift in front of it and know no answer
    in advance."""

    def __init__(self, inner):
        self.inner = inner
        self.ground_size = inner.ground_size

    def is_independent(self, s):
        return self.inner.is_independent(s)


class _CountingLift(LiftedMatroid):
    """A lift that counts the questions it is asked, whole sets and
    extensions of a held state alike."""

    __slots__ = ("calls",)

    def __init__(self, inner, levels):
        super().__init__(inner, levels)
        self.calls = 0

    def is_independent(self, s):
        self.calls += 1
        return super().is_independent(s)

    def extends(self, state, u):
        self.calls += 1
        return super().extends(state, u)


def _graphic_32():
    instance = generate_instance("graphic", 32, 8, 0)
    return instance.build_objective(), instance.build_matroid()


@pytest.mark.parametrize("build", [lambda: bait_chain(64, 8, 0), _graphic_32],
                         ids=["bait-64-8", "graphic-32-8"])
@pytest.mark.parametrize("variant", [DETERMINISTIC, RANDOMIZED])
def test_a_hidden_lift_gives_the_solve_of_the_plain_lift(build, variant):
    # behind a proxy the lift answers every copy the plain solve skips, but
    # the ledger, outputs and certificate are those of the plain solve
    f, m = build()
    config = SolverConfig(eps=0.5, variant=variant)
    plain = non_oblivious_solve(f, m, config)
    with mock.patch.object(solvers, "lift", lambda *args: _HiddenLift(lift(*args))):
        hidden = non_oblivious_solve(f, m, config)
    assert hidden == plain


@pytest.mark.parametrize("build", [lambda: bait_chain(64, 8, 0), _graphic_32],
                         ids=["bait-64-8", "graphic-32-8"])
@pytest.mark.parametrize("variant", [DETERMINISTIC, RANDOMIZED])
def test_the_incremental_pair_charges_the_sets_of_is_independent(build, variant):
    # the solve and the recheck asked through the matroid's pair, and again
    # through proxies that offer is_independent alone, as a tracing proxy
    # does: the matroid is asked the same sets in the same order, and the
    # ledgers, outputs and certificates are equal
    f, m = build()
    config = SolverConfig(eps=0.5, variant=variant)
    paired, whole = suite.RecordingMatroid(m, incremental=True), suite.RecordingMatroid(m)
    report = non_oblivious_solve(f, paired, config)
    with mock.patch.object(solvers, "lift", lambda *args: _HiddenLift(lift(*args))):
        hidden = non_oblivious_solve(f, whole, config)
    assert hidden == report
    assert paired.extended > 0 and whole.extended == 0
    assert paired.seen == whole.seen
    paired.seen.clear()
    whole.seen.clear()
    checks = [
        check_certificate(
            report.certificate,
            LiftedGuide(f, GuideWeights(report.levels)),
            lifted,
            report.lifted_solution,
        )
        for lifted in (lift(paired, report.levels), _HiddenLift(lift(whole, report.levels)))
    ]
    assert checks == [[], []]
    assert paired.seen == whole.seen


def test_the_greedies_ask_the_lift_once_per_base_element_on_a_bait_chain():
    # at 3 levels, asking every copy would take the warm start 186 lifted
    # calls and the recheck's greedy 192; the copies of a held or
    # just-refused base element are answered without a call, so each asks
    # once per base element here
    f, m = bait_chain(64, 8, 0)
    guide = LiftedGuide(f, GuideWeights(3))
    lifted = _CountingLift(m, 3)
    solvers._threshold_greedy_warm(guide, lifted)
    assert lifted.calls == 64
    report = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=DETERMINISTIC))
    lifted = _CountingLift(m, 3)
    assert check_certificate(report.certificate, guide, lifted, report.lifted_solution) == []
    assert lifted.calls == 64


def _shared_bait_chain(n, r, shared=300):
    """bait_chain(n, r, 0) with one shared set of points added to every
    element, so every singleton marginal clears the scan's threshold."""
    f, m = bait_chain(n, r, 0)
    extra = list(range(f.universe_size, f.universe_size + shared))
    covers = [f.covers(u) + extra for u in range(n)]
    return CoverageFunction(f.universe_size + shared, covers), m


def test_the_carried_bound_skips_where_the_singleton_cap_cannot():
    # the shared points lift every singleton marginal by 300 and the
    # marginal at any non-empty set by nothing, so the cap skips no junk;
    # the carried bound, m_v plus the drops since, still does. With the cap
    # alone this solve asks 3,046 value queries
    f, m = _shared_bait_chain(128, 8)
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=DETERMINISTIC))
    assert rep.ledger.value_queries == 2591
    assert rep.ledger.independence_queries == 142
    assert rep.iterations == 3


class _Expired(Exception):
    """The alarm of _deadline, raised where the block happens to be."""


@contextlib.contextmanager
def _deadline(seconds):
    """Turn a hang in the block into a failure after this many seconds.

    The alarm can land on a bytecode with no line number (on Python 3.11,
    the backward jump of a for loop whose body ends in an if), and pytest
    stops the whole session with INTERNALERROR when it formats a traceback
    through such a frame. So the alarm's exception is raised again here as
    a TimeoutError, from None, whose traceback starts at this block."""

    def hang(signum, frame):
        raise _Expired

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    except _Expired:
        raise TimeoutError(f"no answer within {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


HANGING_TEST = """
from test_solvers import _deadline


def spin(terms):
    total = 0.0
    while True:
        for d in terms:
            if d is not None:
                total += d


def test_hang():
    with _deadline(1):
        spin([1.0, None] * 100)
"""


def test_a_deadline_that_expires_fails_one_test(tmp_path):
    # the alarm lands on the line-less jump of spin's for loop; the run
    # must report one failed test (exit 1), not an internal error (exit 3)
    (tmp_path / "test_hang.py").write_text(HANGING_TEST)
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_hang.py"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "TimeoutError: no answer within 1 s" in proc.stdout
    assert "1 failed" in proc.stdout


def _assert_fails_closed(f, matroid, variant, seconds):
    # a solve either raises, returns failed=True, or returns a certificate
    # that rechecks clean; it never hangs
    config = SolverConfig(eps=0.5, variant=variant, seed=0)
    with _deadline(seconds):
        try:
            report = non_oblivious_solve(f, matroid, config)
        except (ValueError, RuntimeError):
            return
        if not report.failed:
            guide = LiftedGuide(f, GuideWeights(report.levels))
            lifted = lift(matroid, report.levels)
            s = report.lifted_solution
            assert check_certificate(report.certificate, guide, lifted, s) == []


class _SetFunction:
    def __init__(self, n, fn):
        self.ground_size = n
        self.eval = fn


# the largest singleton value is +inf, refused at the guide's door
_INF_SINGLETON = _SetFunction(4, lambda s: math.inf if 0 in s else float(len(s)))
# the largest singleton value is subnormal: the floor underflows to 0.0 and
# tau * 7/8 rounds back to tau, so element 1's bound never clears a sweep
_SUBNORMAL_SINGLETON = _SetFunction(
    4, lambda s: (5e-324 if 0 in s else 0.0) - (1.0 if 1 in s else 0.0)
)


@pytest.mark.parametrize("variant", [DETERMINISTIC, RANDOMIZED])
@pytest.mark.parametrize("f", [_INF_SINGLETON, _SUBNORMAL_SINGLETON])
def test_warm_start_ends_on_infinite_or_subnormal_singletons(f, variant):
    _assert_fails_closed(f, UniformMatroid(4, 2), variant, seconds=1)


@given(
    n=st.integers(1, 6),
    r=st.integers(1, 3),
    partition=st.booleans(),
    variant=st.sampled_from([DETERMINISTIC, RANDOMIZED]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_solve_on_arbitrary_values_fails_closed(n, r, partition, variant, seed):
    f = _OddOracle(n, seed, _ODD_VALUES + (math.inf, 5e-324))
    if partition:
        blocks = [list(range(b, n, r)) for b in range(min(r, n))]
        m = PartitionMatroid(n, blocks, [1 + (seed >> b) % 2 for b in range(len(blocks))])
    else:
        m = UniformMatroid(n, min(r, n))
    _assert_fails_closed(f, m, variant, seconds=5)


def test_deterministic_search_finds_modular_optimum():
    # small integer weights keep every improving swap above the accept
    # threshold, so the search must land exactly on the optimum
    f = ModularFunction([3, 1, 4, 1, 5, 2])
    m = UniformMatroid(6, 3)
    res = deterministic_local_search(f, m, eps=0.5)
    assert res.value == 12  # weights 3, 4, 5
    assert res.certificate.passes()
    assert res.iterations >= 1


def test_deterministic_search_on_coverage_certifies_gap():
    f, m = tiny_coverage()
    res = deterministic_local_search(f, m, eps=0.3)
    assert res.value >= 4
    cert = res.certificate
    assert cert.gap <= cert.bound + 1e-9
    assert cert.bound == pytest.approx(0.3 * cert.warm_value)


def test_deterministic_search_zero_function_terminates():
    f = ModularFunction([0, 0, 0, 0])
    m = UniformMatroid(4, 2)
    res = deterministic_local_search(f, m, eps=0.5)
    assert res.value == 0
    assert res.iterations == 1  # single confirming scan, nothing to improve
    assert len(res.solution) == 2  # still a base


def test_deterministic_scan_budget_is_enforced():
    # the scan cap only trips if the accept threshold is somehow not
    # respected; on real oracles the search must finish within the budget
    f, m = tiny_coverage()
    res = deterministic_local_search(f, m, eps=0.5)
    assert res.iterations <= math.ceil(3 * rank(m) / 0.5) + 1


def test_randomized_sample_sizes():
    # n=100, r=10: R1 = min(10, ceil(sqrt(100))) = 10, R2 = max(10, 10) = 10
    # n=16, r=8: R1 = min(8, 4) = 4, R2 = max(2, 4) = 4
    assert ceil_sqrt(100) == 10
    assert ceil_sqrt(16) == 4
    assert ceil_sqrt(17) == 5
    f = ModularFunction(list(range(1, 17)))
    m = UniformMatroid(16, 8)
    rng = RandomSource(0)
    res = randomized_local_search(f, m, 0.5, rng, attempts=1)
    assert res is not None
    assert m.is_independent(res.solution)


def test_randomized_search_repetitions():
    f, m = tiny_coverage()
    rng = RandomSource(1)
    res = randomized_local_search(f, m, 0.5, rng)
    assert res is not None
    assert res.value >= 4
    # eps=0.1 amplifies to 3 attempts; attempts can also be forced
    forced = randomized_local_search(f, m, 0.5, RandomSource(1), attempts=2)
    assert forced is not None


def test_randomized_search_respects_seed_stream():
    f, m = tiny_coverage()
    a = randomized_local_search(f, m, 0.5, RandomSource(9))
    b = randomized_local_search(f, m, 0.5, RandomSource(9))
    assert a.solution == b.solution
    assert a.value == b.value
    assert a.iterations == b.iterations


def _draw_first_runs(f, m, levels, eps, seed, attempts):
    # both searches on the guide and lifted matroid of a solve, each over
    # oracles a fresh ledger counts
    runs = []
    for search in (suite.full_budget_randomized_search, randomized_local_search):
        ledger = QueryLedger()
        guide = LiftedGuide(CountingValueOracle(f, ledger), GuideWeights(levels))
        matroid = lift(CountingMatroidOracle(m, ledger), levels)
        runs.append((search(guide, matroid, eps, RandomSource(seed), attempts=attempts), ledger))
    (ref, ref_ledger), (res, ledger) = runs
    assert res.solution == ref.solution
    assert res.certificate == ref.certificate
    assert res.iterations == ref.iterations
    assert ledger.value_queries <= ref_ledger.value_queries
    assert ledger.independence_queries <= ref_ledger.independence_queries
    return res


@given(
    family=st.sampled_from(["coverage", "weighted", "partition"]),
    n=st.integers(2, 12),
    r=st.integers(1, 4),
    levels=st.integers(1, 3),
    eps=st.sampled_from([0.5, 0.25]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_an_attempt_runs_only_as_far_as_the_set_it_tests(family, n, r, levels, eps, seed):
    # drawing the tested index first returns the set and certificate that
    # running the whole budget and then testing that index returns; the
    # iterations after it would only have asked more queries
    f, m = _warm_instance(family, n, min(r, n), seed)
    _draw_first_runs(f, m, levels, eps, seed, attempts=1)


@pytest.mark.parametrize("seed", range(4))
def test_failed_attempts_run_only_as_far_as_the_sets_they_test(seed):
    # every attempt on |S|^2 fails, so the second attempt runs too and must
    # draw from the stream where the first one's tested index left it
    res = _draw_first_runs(SquaredSize(), UniformMatroid(6, 2), 1, 0.5, seed, attempts=2)
    assert res.certificate is None


def _watch_settling(monkeypatch, fail_first_test=False):
    """Record each attempt's run as (stop, ran) and count the subset draws
    of randomized_local_search (R2 only, while R1 is the whole solution);
    with fail_first_test, the first certificate test of each search (one
    guide per search) gets an infinite gap, so it fails on both sides of
    _draw_first_runs."""
    runs, draws, tested = [], [], set()
    run_attempt = solvers._run
    sample = solvers.sample_without_replacement
    at = solvers.LocalOptCertificate.at

    def run(tracker, matroid, draw_r1, draw_r2, stop, loops):
        out = run_attempt(tracker, matroid, draw_r1, draw_r2, stop, loops)
        runs.append((stop, out[0]))
        return out

    def draw(rng, pool, k):
        draws.append(k)
        return sample(rng, pool, k)

    def first_fails(tracker, matroid, eps, warm_value, *, rank=None):
        certificate = at(tracker, matroid, eps, warm_value, rank=rank)
        if fail_first_test and id(tracker.guide) not in tested:
            tested.add(id(tracker.guide))
            return dataclasses.replace(certificate, gap=math.inf)
        return certificate

    monkeypatch.setattr(solvers, "_run", run)
    monkeypatch.setattr(solvers, "sample_without_replacement", draw)
    monkeypatch.setattr(solvers.LocalOptCertificate, "at", first_fails)
    return runs, draws


@pytest.mark.parametrize("seed", range(2, 6))
def test_a_settled_attempt_replays_its_skipped_draws(monkeypatch, seed):
    # R1 is the whole solution (lifted n 20, r 3); the first attempt settles
    # and fails its test, so the second must draw from where all of the
    # first attempt's draws, skipped ones included, leave the stream
    instance = generate_instance("coverage", 10, 3, seed)
    f, m = instance.build_objective(), instance.build_matroid()
    runs, draws = _watch_settling(monkeypatch, fail_first_test=True)
    res = _draw_first_runs(f, m, 2, 0.5, seed, attempts=2)
    assert res.certificate is not None and len(runs) == 2
    (stop, ran), _ = runs
    assert ran < stop
    assert len(draws) < res.iterations


def _unsettled_run(tracker, matroid, draw_r1, draw_r2, stop, loops):
    # every iteration in full, with no masks: R1 is drawn, or is S
    n = tracker.ground_size
    for _ in range(stop):
        s = tracker.current
        r1 = s if draw_r1 is None else draw_r1(s)
        stripped = s.mask & ~r1.mask
        feasible = [
            v
            for v in draw_r2()
            if v not in s and matroid.is_independent(ElementSet(n, stripped | 1 << v))
        ]
        if feasible and len(r1) > 0:
            swap = solvers._best_swap(tracker, matroid, s, r1, feasible)[0]
            if swap is not None:
                tracker.apply(add=swap[1], drop=swap[2])
    return stop, loops


@given(
    family=st.sampled_from(["coverage", "partition", "odd"]),
    n=st.integers(2, 10),
    r=st.integers(1, 3),
    levels=st.integers(1, 3),
    attempts=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
@example(family="odd", n=10, r=3, levels=3, attempts=1, seed=143)
@example(family="odd", n=4, r=3, levels=3, attempts=1, seed=524)
# R1 sampled, min(r, ceil(sqrt(n * levels))) < r, and each search swaps
@example(family="coverage", n=10, r=5, levels=1, attempts=2, seed=0)
@example(family="coverage", n=12, r=6, levels=2, attempts=1, seed=3)
@example(family="partition", n=12, r=6, levels=2, attempts=2, seed=0)
@example(family="odd", n=4, r=3, levels=1, attempts=2, seed=5)
@settings(max_examples=150, deadline=None)
def test_settling_changes_nothing_a_search_returns(family, n, r, levels, attempts, seed):
    # also on values that are neither monotone nor submodular: a candidate
    # whose gain fails is masked with those whose upper bound fails, and no
    # later candidate's swap or pruning changes for it
    f, m = _warm_instance(family, n, min(r, n), seed)
    outcomes = []
    for run in (_unsettled_run, solvers._run):
        with mock.patch.object(solvers, "_run", run):
            guide = LiftedGuide(f, GuideWeights(levels))
            res = randomized_local_search(
                guide, lift(m, levels), 0.5, RandomSource(seed), attempts=attempts
            )
        c = res.certificate
        outcomes.append(
            (res.solution, res.iterations, res.value.hex(), c and (c.witness, c.gap.hex()))
        )
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_a_search_with_loops_still_settles(monkeypatch, levels, seed):
    # the loops cover every point, so they would be the best picks if
    # allowed; the attempt settles only if they are masked as loops
    base, _ = tiny_coverage()
    f, m = _with_loops(base, {0, 3, 6}, 2, list(range(TINY_UNIVERSE)))
    runs, draws = _watch_settling(monkeypatch)
    res = _draw_first_runs(f, m, levels, 0.25, seed, attempts=1)
    assert res.certificate is not None
    [(stop, ran)] = runs
    assert ran < stop
    assert len(draws) == ran


def test_non_oblivious_solve_deterministic_coverage():
    f, m = tiny_coverage()
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.2, variant=DETERMINISTIC, seed=0))
    assert rep.levels == 6
    assert rep.certificate.eps == inner_eps(0.2, 6)
    assert rep.objective_value >= 4
    assert m.is_independent(rep.output_set)
    assert rep.output_set == project_all(rep.lifted_solution, rep.levels)
    assert not rep.failed
    assert rep.ledger.value_queries > 0 and rep.ledger.independence_queries > 0


def test_non_oblivious_solve_levels_override():
    f, m = tiny_coverage()
    rep = non_oblivious_solve(
        f, m, SolverConfig(eps=0.25, variant=DETERMINISTIC, seed=0, levels_override=1)
    )
    assert rep.levels == 1
    opt = brute_force_opt(f, m).opt_value
    assert rep.objective_value >= (0.5 - 0.25) * opt


def test_non_oblivious_solve_replay_identical():
    f, m = tiny_coverage()
    cfg = SolverConfig(eps=0.5, variant=RANDOMIZED, seed=123)
    a = non_oblivious_solve(f, m, cfg)
    b = non_oblivious_solve(f, m, cfg)
    assert a.output_set == b.output_set
    assert a.objective_value == b.objective_value
    assert a.ledger.value_queries == b.ledger.value_queries
    assert a.ledger.independence_queries == b.ledger.independence_queries
    assert a.certificate.gap == b.certificate.gap


class EvalOnly:
    """Value oracle that exposes only eval, hiding any incremental pair."""

    def __init__(self, inner):
        self.inner = inner
        self.ground_size = inner.ground_size

    def eval(self, s):
        return self.inner.eval(s)


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("variant", [DETERMINISTIC, RANDOMIZED])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_incremental_marginals_leave_the_solve_unchanged(weighted, variant, eps):
    # add-marginals answered by extend give the same trajectory, answer,
    # certificate and query counts as the eval-only path
    instance = generate_instance("partition", 16, 4, 10)
    f = instance.build_objective()
    if weighted:
        rng = RandomSource(5)
        weights = [rng.randrange(10) for _ in range(f.universe_size)]
        f = CoverageFunction(
            f.universe_size, [f.covers(u) for u in range(f.ground_size)], weights
        )
    assert hasattr(f, "extend")
    m = instance.build_matroid()
    config = SolverConfig(eps=eps, variant=variant, seed=11)
    fast = non_oblivious_solve(f, m, config)
    plain = non_oblivious_solve(EvalOnly(f), m, config)
    assert not fast.failed
    # every field: output and lifted sets, certificate, iterations, ledger
    assert fast == plain


def test_non_oblivious_solve_failure_path(monkeypatch):
    f, m = tiny_coverage()
    monkeypatch.setattr(solvers, "amplification_attempts", lambda eps: 0)
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=RANDOMIZED, seed=0))
    assert rep.failed
    assert len(rep.output_set) == 0
    assert rep.certificate is None
    assert rep.objective_value == 0


def test_solve_wires_counting_through_guide_and_matroid():
    f, m = tiny_coverage()
    ledger = QueryLedger()
    cf, cm = CountingValueOracle(f, ledger), CountingMatroidOracle(m, ledger)
    rep = non_oblivious_solve(cf, cm, SolverConfig(eps=0.5, variant=DETERMINISTIC, seed=0))
    # every algorithmic query reaches the base oracle; the only extra base
    # call is the single reporting eval of the final output set, which the
    # run's ledger deliberately leaves uncounted
    assert ledger.value_queries == rep.ledger.value_queries + 1
    assert ledger.independence_queries == rep.ledger.independence_queries


def test_a_solve_on_many_levels_costs_what_its_occupied_levels_cost():
    # eps 1/16 lifts to 17 levels, but the solution sits on a few, and the
    # guide's work follows those: the solve keeps its answer and counts and
    # takes well under a second, where a walk over all 2^17 level subsets
    # took about 30
    instance = generate_instance("graphic", 128, 8, 0)
    config = SolverConfig(eps=0.0625, variant=DETERMINISTIC, seed=0)
    t0 = time.perf_counter()
    rep = non_oblivious_solve(instance.build_objective(), instance.build_matroid(), config)
    assert time.perf_counter() - t0 < 5
    assert rep.levels == 17
    assert rep.output_set.to_list() == [1, 23, 41, 44, 45, 93, 115, 120]
    assert rep.ledger.value_queries == 912


@pytest.mark.parametrize(
    "variant, attempts, squared",
    [
        (DETERMINISTIC, None, False),
        (RANDOMIZED, None, False),
        (RANDOMIZED, 0, False),
        (RANDOMIZED, 2, True),
    ],
    ids=["deterministic", "randomized", "randomized-no-attempt", "squared-size-failed"],
)
def test_every_oracle_call_of_a_solve_is_on_the_ledger(
    monkeypatch, variant, attempts, squared
):
    # each base query a solve asks is charged, on a failed run too; the one
    # extra value call is the reporting eval of the output
    if attempts is not None:
        monkeypatch.setattr(solvers, "amplification_attempts", lambda eps: attempts)
    if squared:
        f, m, seed = SquaredSize(), UniformMatroid(6, 2), 3
    else:
        inst = generate_instance("coverage", 12, 3, 11)
        f, m, seed = inst.build_objective(), inst.build_matroid(), 9
    recorder, matroid = RecordingOracle(f, hasattr(f, "extend")), RecordingMatroid(m)
    config = SolverConfig(eps=0.5, variant=variant, seed=seed)
    rep = non_oblivious_solve(recorder, matroid, config)
    assert rep.failed == (attempts is not None)
    assert len(matroid.seen) == rep.ledger.independence_queries
    assert len(recorder.seen) == rep.ledger.value_queries + 1
    assert rep.rank == rank(m)


def test_randomized_attempts_share_one_memo(monkeypatch):
    # every attempt restarts at the base, a state the warm start's tracker
    # already held, so each tracker after that one finds its projections in
    # the guide's memo; the ledger charges each distinct set once per solve
    monkeypatch.setattr(solvers, "amplification_attempts", lambda eps: 2)
    recorder = RecordingOracle(SquaredSize(), False)
    made = []

    def track(oracle, start):
        asked = len(recorder.seen)
        tracker = make_tracker(oracle, start)
        made.append((start, len(recorder.seen) - asked))
        return tracker

    monkeypatch.setattr(solvers, "make_tracker", track)
    config = SolverConfig(eps=0.5, variant=RANDOMIZED, seed=3)
    rep = non_oblivious_solve(recorder, UniformMatroid(6, 2), config)
    assert rep.failed
    # the warm start's tracker, then at least the second attempt's
    assert len(made) >= 2 and len(made[0][0]) == 0
    assert [cost for _, cost in made[1:]] == [0] * (len(made) - 1)
    charged = recorder.seen[: rep.ledger.value_queries]
    assert len(charged) == len(set(charged))


def test_reference_search_matches_modular_optimum():
    f = ModularFunction([3, 1, 4, 1, 5])
    m = UniformMatroid(5, 2)
    for L in (1, 2, 3):
        res = reference_local_search(f, m, L)
        assert f.eval(res.union) == 9
        assert res.guide_value == res.guide_value  # Fraction, no NaN
        assert all(m.is_independent(p) for p in res.parts)


def test_reference_search_halves_bound_at_one_level():
    f, m = tiny_coverage()
    truth = brute_force_opt(f, m)
    res = reference_local_search(f, m, 1)
    assert Fraction(f.eval(res.union)) >= Fraction(1, 2) * Fraction(truth.opt_value)


def test_reference_search_is_swap_stable():
    f, m = tiny_coverage()
    res = reference_local_search(f, m, 2)
    guide = LiftedGuide(f, GuideWeights(2))
    lifted_m = lift(m, 2)
    members = []
    for lvl, part in enumerate(res.parts):
        members += [u * 2 + lvl for u in part]
    s = ElementSet.from_iterable(8, members)
    g0 = guide.eval(s)
    # no single relocate/add/swap move improves the exact guide value
    for x in range(8):
        if x in s:
            continue
        cand = s.add(x)
        if lifted_m.is_independent(cand):
            assert guide.eval(cand) <= g0 + 1e-9
        for y in s:
            swapped = s.remove(y).add(x)
            if lifted_m.is_independent(swapped):
                assert guide.eval(swapped) <= g0 + 1e-9


def test_regularized_solve_zero_weights_matches_plain():
    f, m = tiny_coverage()
    cfg = SolverConfig(eps=0.25, variant=DETERMINISTIC, seed=0)
    plain = non_oblivious_solve(f, m, cfg)
    reg = non_oblivious_solve(f, m, cfg, regularizer=LinearRegularizer([0, 0, 0, 0]))
    assert reg.output_set == plain.output_set
    assert reg.objective_value == plain.objective_value


def test_regularized_solve_zero_objective_maximizes_regularizer():
    # with f identically zero the guide reduces to the scaled modular term,
    # so the solver should pick the heaviest feasible set
    f = ModularFunction([0, 0, 0, 0])
    m = UniformMatroid(4, 2)
    reg = LinearRegularizer([1, 3, 0, 2])
    cfg = SolverConfig(eps=0.25, variant=DETERMINISTIC, seed=0)
    rep = non_oblivious_solve(f, m, cfg, regularizer=reg)
    assert reg.eval(rep.output_set) == 5  # elements 1 and 3


def test_partition_constraint_respected_end_to_end():
    f = CoverageFunction(6, [[0], [0, 1], [2], [2, 3], [4], [4, 5]])
    m = PartitionMatroid(6, [[0, 1], [2, 3], [4, 5]], [1, 1, 1])
    for variant in (DETERMINISTIC, RANDOMIZED):
        rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=variant, seed=4))
        assert m.is_independent(rep.output_set)
        assert rep.objective_value == 6  # one two-point element per block


class _SingletonLog(LiftedMatroid):
    """Lifted matroid that logs each singleton asked of it, memo hits
    included: as_lifted takes it as it is, so every ask a search makes
    lands here."""

    def __init__(self, inner, levels, events):
        super().__init__(inner, levels)
        self.events = events

    def is_independent(self, s):
        if len(s) == 1:
            self.events.append(("singleton", s.to_list()[0]))
        return super().is_independent(s)


class _AddLog:
    """Tracker proxy that logs each add-marginal asked of it."""

    def __init__(self, inner, events):
        self.inner = inner
        self.events = events

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def marginal_add(self, v):
        self.events.append(("add", v))
        return self.inner.marginal_add(v)


def _with_loops(f, loops, capacity, loop_cover):
    """f's elements plus loops: a partition matroid whose zero-capacity
    block holds the loops, each covering loop_cover."""
    n = f.ground_size + len(loops)
    rest = iter(range(f.ground_size))
    covers = [loop_cover if u in loops else f.covers(next(rest)) for u in range(n)]
    g = CoverageFunction(f.universe_size, covers)
    others = [u for u in range(n) if u not in loops]
    return g, PartitionMatroid(n, [others, sorted(loops)], [capacity, 0])


def test_solves_never_output_a_loop():
    base, _ = tiny_coverage()
    # the loops cover every point, so they would be the best picks if allowed
    loops = {0, 3, 6}
    f, m = _with_loops(base, loops, 2, list(range(TINY_UNIVERSE)))
    for variant in (DETERMINISTIC, RANDOMIZED):
        for seed in range(4):
            config = SolverConfig(eps=0.5, variant=variant, seed=seed)
            rep = non_oblivious_solve(f, m, config)
            assert not rep.failed
            assert not set(rep.output_set) & loops
            assert m.is_independent(rep.output_set)
            assert len(rep.output_set) == 2


def _loop_events(monkeypatch, valued, levels):
    # a deterministic search on a bait chain with loops {3, 8, 15, 32, 36},
    # each covering every point if valued and none if not: its events, and
    # the lifted copies of the loops
    bait, _ = bait_chain(32, 5, 0)
    loops = {3, 8, 15, 32, 36}
    cover = list(range(bait.universe_size)) if valued else []
    f, m = _with_loops(bait, loops, 5, cover)
    events = []
    extend, at = solvers.extend_to_base, solvers.LocalOptCertificate.at
    track = solvers.make_tracker

    def mark(name, fn):
        def marked(*args, **kwargs):
            events.append((name, None))
            return fn(*args, **kwargs)

        return marked

    monkeypatch.setattr(solvers, "extend_to_base", mark("extend", extend))
    monkeypatch.setattr(solvers.LocalOptCertificate, "at", mark("certificate", at))
    monkeypatch.setattr(solvers, "make_tracker", lambda g, s: _AddLog(track(g, s), events))
    guide = LiftedGuide(f, GuideWeights(levels))
    res = deterministic_local_search(guide, _SingletonLog(m, levels, events), 0.1)
    assert res.iterations >= 2
    assert not set(project_all(res.solution, levels)) & loops
    return events, {u * levels + level for u in loops for level in range(levels)}


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_deterministic_search_asks_each_loop_once(monkeypatch, levels):
    # zero-value loops never clear the gain test, so the swap scans never
    # ask their singletons, and the warm start and the certificate's greedy
    # never reach them while their sets are empty: no ask at all
    events, copies = _loop_events(monkeypatch, False, levels)
    assert not [v for kind, v in events if kind == "singleton" and v in copies]


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_a_found_loop_costs_the_scans_nothing_more(monkeypatch, levels):
    # loops that cover every point clear the gain test; in the swap scans
    # (from the base extension to the certificate) each copy's singleton
    # is asked right after its add-marginal, at most once, and once found
    # the loop gets no further add-marginal
    events, copies = _loop_events(monkeypatch, True, levels)
    scans = events[events.index(("extend", None)) + 1 : events.index(("certificate", None))]
    asked = [i for i, (kind, v) in enumerate(scans) if kind == "singleton" and v in copies]
    assert asked
    for i in asked:
        v = scans[i][1]
        assert scans[i - 1] == ("add", v)
        assert ("singleton", v) not in scans[i + 1 :]
        assert ("add", v) not in scans[i + 1 :]


@given(
    family=st.sampled_from(["coverage", "partition", "graphic", "bait"]),
    n=st.integers(2, 10),
    r=st.integers(1, 4),
    seed=st.integers(0, 50),
    eps=st.sampled_from([0.5, 0.25]),
    variant=st.sampled_from([DETERMINISTIC, RANDOMIZED]),
)
@example(family="bait", n=2, r=1, seed=0, eps=0.25, variant=DETERMINISTIC)
@settings(max_examples=60, deadline=None)
def test_every_passed_solve_carries_a_passing_certificate(
    family, n, r, seed, eps, variant
):
    # fail closed: a report with failed=False always holds a certificate that
    # passes and that an independent recomputation on the lifted instance
    # reproduces exactly. From rank 4 up, a bait chain's warm start must swap
    # its way out at eps=0.25, so a search that stops early fails here too.
    if family == "bait":
        rank = 3 + r
        f, m = bait_chain(2 * rank + n, rank, seed)
    else:
        inst = generate_instance(family, n, min(r, n), seed)
        f, m = inst.build_objective(), inst.build_matroid()
    rep = non_oblivious_solve(f, m, SolverConfig(eps=eps, variant=variant, seed=seed))
    if rep.failed:
        assert rep.certificate is None
        return
    assert rep.certificate.passes()
    guide = LiftedGuide(f, GuideWeights(rep.levels))
    lifted = lift(m, rep.levels)
    assert check_certificate(rep.certificate, guide, lifted, rep.lifted_solution) == []


@pytest.mark.parametrize("variant", [DETERMINISTIC, RANDOMIZED])
def test_a_plain_oracle_is_searched_as_its_one_level_guide(variant):
    inst = generate_instance("coverage", 24, 4, 0)
    runs = []
    plain = lambda oracle: oracle
    for f_door, m_door in ((plain, plain), (as_guide, as_lifted)):
        ledger = QueryLedger()
        f = f_door(CountingValueOracle(inst.build_objective(), ledger))
        m = m_door(CountingMatroidOracle(inst.build_matroid(), ledger))
        if variant == DETERMINISTIC:
            result = deterministic_local_search(f, m, 0.25)
        else:
            result = randomized_local_search(f, m, 0.25, RandomSource(3))
        runs.append((result, ledger.value_queries, ledger.independence_queries))
    assert runs[0] == runs[1]
    assert runs[0][0].certificate is not None


@pytest.mark.parametrize("variant", [DETERMINISTIC, RANDOMIZED])
@pytest.mark.parametrize("family", ["bait", "coverage", "partition", "graphic"])
def test_a_direct_search_asks_a_raw_matroid_each_set_once(variant, family):
    # a raw matroid is searched through its one-level lift, whose memo
    # answers every repeat: the scans' singletons and exchanges, the
    # attempts' feasibility tests and the certificate's greedy
    if family == "bait":
        f, m = bait_chain(24, 4, 0)
    else:
        inst = generate_instance(family, 12, 3, 3)
        f, m = inst.build_objective(), inst.build_matroid()
    m = RecordingMatroid(m)
    if variant == DETERMINISTIC:
        deterministic_local_search(f, m, 0.25)
    else:
        randomized_local_search(f, m, 0.5, RandomSource(0), attempts=2)
    assert m.seen and len(set(m.seen)) == len(m.seen)
