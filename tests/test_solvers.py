import contextlib
import math
import re
import signal
from collections import Counter
from fractions import Fraction
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
from nols.matroids import UniformMatroid, PartitionMatroid, lift, rank
from nols.objectives import (
    CoverageFunction,
    GuideWeights,
    LiftedGuide,
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


def test_solve_rejects_ground_size_mismatch():
    f = ModularFunction([1] * 20)
    with pytest.raises(ValueError, match="ground size 20 .* ground size 21"):
        non_oblivious_solve(f, UniformMatroid(21, 3), SolverConfig(eps=0.5))


class _NaNOracle:
    ground_size = 6

    def eval(self, s):
        return float("nan") if len(s) else 0.0


@pytest.mark.parametrize("variant", [DETERMINISTIC, RANDOMIZED])
def test_solve_fails_closed_on_nan_oracle(variant):
    config = SolverConfig(eps=0.5, variant=variant, seed=0)
    with pytest.raises(RuntimeError, match="certificate that does not pass"):
        non_oblivious_solve(_NaNOracle(), UniformMatroid(6, 2), config)


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


_ODD_VALUES = (math.nan, -math.inf, -3.0, -0.5, 0.0, 1.0, 2.5, 4.0, 6.0, 9.0)


class _OddOracle:
    """Arbitrary values keyed by set, NaN and -inf among them, so marginals
    can be NaN, negative or infinite. Not submodular, not even monotone."""

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


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


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
    assert _same_float(make_tracker(LiftedGuide(f, GuideWeights(levels)), s).value, eager.value)


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
    # the carried bounds and the solve-long memos hold the value queries to
    # 643 here (the scans stay 6), and each projected set's independence is
    # asked once
    f, m = bait_chain(64, 8, 0)
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=DETERMINISTIC))
    assert rep.ledger.value_queries == 643
    assert rep.ledger.independence_queries == 204
    assert rep.iterations == 6


@contextlib.contextmanager
def _deadline(seconds):
    """Turn a hang in the block into a failure after this many seconds."""

    def hang(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


# the largest singleton value is +inf, a threshold that never decays
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
    # every attempt restarts at the base, and every tested point is a state
    # some tracker already held, so each tracker after the warm start's
    # finds its projections in the guide's memo; the ledger charges each
    # distinct set once per solve
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


class _SingletonRecorder:
    """Pass-through matroid that counts singleton queries per element."""

    def __init__(self, inner):
        self.inner = inner
        self.ground_size = inner.ground_size
        self.singletons = Counter()

    def is_independent(self, s):
        if len(s) == 1:
            self.singletons[s.to_list()[0]] += 1
        return self.inner.is_independent(s)


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


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_deterministic_search_asks_each_loop_once(levels):
    # zero-value loops: the warm start and the certificate's greedy never
    # reach them while their sets are empty, so every singleton query of a
    # loop comes from the swap scans, which must ask it once per call
    bait, _ = bait_chain(32, 5, 0)
    loops = {3, 8, 15, 32, 36}
    f, m = _with_loops(bait, loops, 5, [])
    recorder = _SingletonRecorder(lift(m, levels))
    guide = LiftedGuide(f, GuideWeights(levels))
    res = deterministic_local_search(guide, recorder, 0.1)
    assert res.iterations >= 2
    for u in loops:
        for level in range(levels):
            assert recorder.singletons[u * levels + level] == 1
    assert not set(project_all(res.solution, levels)) & loops


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
    for door in (lambda oracle: oracle, as_guide):
        ledger = QueryLedger()
        f = door(CountingValueOracle(inst.build_objective(), ledger))
        m = CountingMatroidOracle(inst.build_matroid(), ledger)
        if variant == DETERMINISTIC:
            result = deterministic_local_search(f, m, 0.25)
        else:
            result = randomized_local_search(f, m, 0.25, RandomSource(3))
        runs.append((result, ledger.value_queries, ledger.independence_queries))
    assert runs[0] == runs[1]
    assert runs[0][0].certificate is not None
