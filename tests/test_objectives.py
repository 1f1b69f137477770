import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nols.core import CountingValueOracle, ElementSet, QueryLedger, RandomSource, left_sum
from nols.objectives import (
    ConcaveOfModular,
    CoverageFunction,
    GuideWeights,
    LiftedGuide,
    LinearRegularizer,
    ModularFunction,
    as_guide,
    level_masks,
    make_tracker,
    project_all,
    subset_unions,
)
from suite import TINY_COVERS, TINY_UNIVERSE, RecordingOracle, tiny_coverage


def _es(n, items):
    return ElementSet.from_iterable(n, items)


def test_coverage_fixture_values():
    f, _ = tiny_coverage()
    assert f.eval(_es(4, [1])) == 2
    assert f.eval(_es(4, [3])) == 3
    assert f.eval(_es(4, [1, 3])) == 5
    # tracker marginals are f(u | S) and f(u | S - u)
    assert make_tracker(f, _es(4, [1])).marginal_add(3) == 3
    assert make_tracker(f, _es(4, [1, 3])).marginal_drop(1) == 2
    assert f.eval(ElementSet.empty(4)) == 0


def test_weighted_coverage_matches_manual_sum():
    weights = [5, 1, 1, 2, 7]
    f = CoverageFunction(TINY_UNIVERSE, TINY_COVERS, point_weights=weights)
    assert f.eval(_es(4, [1])) == 6  # points 0,1
    assert f.eval(_es(4, [1, 3])) == 16  # points 0..4
    assert f.eval(ElementSet.empty(4)) == 0
    unit = CoverageFunction(TINY_UNIVERSE, TINY_COVERS)
    ones = CoverageFunction(TINY_UNIVERSE, TINY_COVERS, point_weights=[1] * 5)
    for mask in range(16):
        s = ElementSet(4, mask)
        assert unit.eval(s) == ones.eval(s)


def test_modular_and_concave_functions():
    f = ModularFunction([3, 0, 2])
    assert f.eval(_es(3, [0, 2])) == 5
    with pytest.raises(ValueError):
        ModularFunction([1, -1])
    g = ConcaveOfModular([4, 9], shape="sqrt")
    assert g.eval(_es(2, [0])) == 2.0
    assert g.eval(_es(2, [0, 1])) == math.sqrt(13)
    h = ConcaveOfModular([4, 9], shape="cap", cap=10)
    assert h.eval(_es(2, [0, 1])) == 10


def test_guide_weight_schedule_exact():
    assert GuideWeights(1).fractions[1:2] == (Fraction(1),)
    assert GuideWeights(2).fractions[1:3] == (Fraction(1), Fraction(3, 2))
    w3 = GuideWeights(3)
    assert w3.fractions[1:4] == (Fraction(1), Fraction(2, 3), Fraction(16, 9))
    assert w3.fractions[0] == 0
    assert GuideWeights(2).fractions[2] == 1.5  # the full level set's weight


def test_guide_weight_recurrence():
    # the schedule satisfies a_{i+1} * (L - i) = a_i * i * (1 + 1/L), which
    # is what makes the per-level contributions telescope
    for L in range(1, 13):
        w = GuideWeights(L).fractions
        for i in range(1, L):
            assert w[i + 1] * (L - i) == w[i] * i * (1 + Fraction(1, L))
        floats = GuideWeights(L).floats
        for i in range(1, L + 1):
            assert abs(floats[i] - float(w[i])) <= 1e-12 * float(w[i])


def test_guide_weights_level_cap():
    with pytest.raises(ValueError):
        GuideWeights(0)
    with pytest.raises(ValueError):
        GuideWeights(21)


def test_occupied_weights_sum_the_subsets_they_stand_for():
    # occupied_weight[m][k] is the float of the summed weight(|J|) over the
    # level subsets J whose part in the first m levels is the first k
    # levels, in exact arithmetic; a guide at the level cap builds it too
    for L in range(1, 11):
        fracs = GuideWeights(L).fractions
        table = LiftedGuide(ModularFunction([1]), GuideWeights(L)).occupied_weight
        assert [len(row) for row in table] == list(range(1, L + 2))
        for m in range(L + 1):
            for k in range(m + 1):
                held = [j for j in range(1 << L) if j & (1 << m) - 1 == (1 << k) - 1]
                want = sum((fracs[j.bit_count()] for j in held), Fraction(0))
                assert table[m][k] == float(want)
    assert len(LiftedGuide(ModularFunction([1]), GuideWeights(20)).occupied_weight) == 21


def test_guide_value_cardinality_example():
    f = ModularFunction([1, 1, 1, 1])
    guide = LiftedGuide(f, GuideWeights(2))
    s = _es(8, [0, 5])  # S1 = {0} on level 1, S2 = {2} on level 2
    # 1*(f(S1)+f(S2)) + 1.5*f(S1 u S2) = (1+1) + 1.5*2 = 5
    assert guide.eval(s) == 5.0
    assert make_tracker(guide, s).value == 5.0
    with pytest.raises(ValueError):
        make_tracker(guide, _es(8, [0, 1, 5]))  # base 0 on both levels


def test_projection_round_trips():
    # lifted universe for n=3, two levels: flat index = base*2 + (level-1)
    s = _es(6, [0, 3, 4])  # base 0 level 1, base 1 level 2, base 2 level 1
    assert level_masks(s, 2) == [0b101, 0b010]
    assert project_all(s, 2).to_list() == [0, 1, 2]
    assert project_all(ElementSet.empty(6), 2).to_list() == []


def _assert_sums(got, terms):
    # got is the exact sum of the Fraction terms within a relative 1e-12 of
    # their absolute sum, the rounding a float sum of few terms can reach
    want = sum(terms, Fraction(0))
    assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * sum(map(abs, terms))


def test_lifted_guide_eval_and_query_cost():
    # eval asks f through the guide memo: the first eval charges one query
    # per distinct projection onto a non-empty level subset (at L = 3 the
    # set leaves level 2 empty, so two subsets share a projection), and a
    # repeat charges none
    raw, _ = tiny_coverage()
    for L in (1, 2, 3):
        ledger = QueryLedger()
        guide = LiftedGuide(CountingValueOracle(raw, ledger), GuideWeights(L))
        assert guide.ground_size == 4 * L
        s = _es(4 * L, [0, 4 * L - 1])
        # the terms of the definition, in exact arithmetic
        terms = []
        fracs = GuideWeights(L).fractions
        lm = level_masks(s, L)
        projections = set()
        for j in range(1, 1 << L):
            mask = 0
            for i in range(L):
                if j >> i & 1:
                    mask |= lm[i]
            projections.add(mask)
            terms.append(fracs[j.bit_count()] * Fraction(raw.eval(ElementSet(4, mask))))
        got = guide.eval(s)
        _assert_sums(got, terms)
        assert ledger.value_queries == len(projections)
        assert guide.eval(s) == got
        assert ledger.value_queries == len(projections)
    assert len(projections) < 2**L - 1


def test_lifted_guide_marginal_matches_eval_difference():
    # fresh trackers on random sets; x may sit on a level of a base element
    # the set already holds, where the touched terms are zero
    raw, _ = tiny_coverage()
    rng = RandomSource(31)
    for L in (1, 2, 3):
        guide = LiftedGuide(raw, GuideWeights(L))
        n2 = guide.ground_size
        for _ in range(200):
            s = _lifted_no_duplicates(rng, 4, L)
            x = rng.randrange(n2)
            tracker = make_tracker(guide, s)
            if x in s:
                got = tracker.marginal_drop(x)
                want = guide.eval(s) - guide.eval(s.remove(x))
            else:
                got = tracker.marginal_add(x)
                want = guide.eval(s.add(x)) - guide.eval(s)
            assert got == pytest.approx(want, abs=1e-9)


def test_lifted_guide_level_permutation_symmetry():
    raw, _ = tiny_coverage()
    guide = LiftedGuide(raw, GuideWeights(3))
    s = _es(12, [0, 4, 8, 11])  # levels 1, 2, 3, 3 over bases 0,1,2,3
    swapped = _es(12, [1, 3, 8, 11])  # levels of bases 0 and 1 exchanged
    assert guide.eval(s) == pytest.approx(guide.eval(swapped), rel=1e-12)


def _lifted_no_duplicates(rng, n, L):
    # at most one level per base element, the invariant trackers require
    members = []
    for base in range(n):
        pick = rng.randrange(L + 1)
        if pick:
            members.append(base * L + (pick - 1))
    return ElementSet.from_iterable(n * L, members)


def test_tracker_matches_fresh_evaluation():
    raw, _ = tiny_coverage()
    rng = RandomSource(77)
    for L in (1, 2, 3):
        ledger = QueryLedger()
        guide = LiftedGuide(CountingValueOracle(raw, ledger), GuideWeights(L))
        n2 = guide.ground_size
        s = _lifted_no_duplicates(rng, 4, L)
        tracker = make_tracker(guide, s)
        assert tracker.value == pytest.approx(guide.eval(s), rel=1e-12)
        for _ in range(60):
            x = rng.randrange(n2)
            if x in s:
                before = ledger.value_queries
                drop = tracker.marginal_drop(x)
                assert ledger.value_queries - before <= 2 ** (L - 1)
                assert drop == pytest.approx(
                    guide.eval(s) - guide.eval(s.remove(x)), abs=1e-9
                )
                if rng.randrange(2):
                    s = s.remove(x)
                    tracker.apply(drop=x)
            else:
                before = ledger.value_queries
                gain = tracker.marginal_add(x)
                assert ledger.value_queries - before <= 2 ** (L - 1)
                assert gain == pytest.approx(
                    guide.eval(s.add(x)) - guide.eval(s), abs=1e-9
                )
                base_free = all(y // L != x // L for y in s)
                if base_free and rng.randrange(2):
                    s = s.add(x)
                    tracker.apply(add=x)
            assert tracker.value == pytest.approx(guide.eval(s), abs=1e-9)


def test_tracker_rejects_duplicate_base_levels():
    f = ModularFunction([1, 2])
    guide = LiftedGuide(f, GuideWeights(2))
    with pytest.raises(ValueError):
        make_tracker(guide, _es(4, [0, 1]))  # both levels of base 0
    tracker = make_tracker(guide, _es(4, [0]))
    with pytest.raises(ValueError):
        tracker.apply(add=1)
    tracker.apply(drop=0, add=1)  # moving a base between levels is fine
    assert tracker.current == _es(4, [1])


@pytest.mark.parametrize(
    "f, start, move, message",
    [
        (ModularFunction([1, 2, 3, 4]), [0], {"add": 0}, "element 0 is already tracked"),
        (
            ConcaveOfModular([1, 2, 3, 4]),
            [0, 2],
            {"add": 1, "drop": 2},  # base 0 is still held on level 1
            "base element already tracked on another level",
        ),
    ],
    ids=["add-tracked", "swap-onto-held-base"],
)
def test_tracker_rejects_a_bad_move_before_changing_state(f, start, move, message):
    # a rejected apply leaves the tracker as a fresh one at the same set, its
    # marginals and value included, so the next move lands where it should
    guide = LiftedGuide(f, GuideWeights(2), LinearRegularizer([1] * 4))
    s = _es(8, start)
    tracker, fresh = make_tracker(guide, s), make_tracker(guide, s)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tracker.apply(**move)

    def marginals(t):
        return [t.marginal_drop(x) if x in s else t.marginal_add(x) for x in range(8)]

    assert (tracker.current, tracker.value) == (s, fresh.value)
    assert marginals(tracker) == marginals(fresh)
    tracker.apply(add=4)
    fresh.apply(add=4)
    assert tracker.value == fresh.value == pytest.approx(guide.eval(s.add(4)), rel=1e-12)


def test_tracker_degenerate_calls():
    f = ModularFunction([1, 2, 3])
    tracker = make_tracker(f, _es(3, [1]))
    assert tracker.marginal_add(1) == 0.0
    for x in (0, -1, -2, 3):  # membership is a mask bit, so a negative id must not wrap
        with pytest.raises(KeyError):
            tracker.marginal_drop(x)


def test_regularized_guide_adds_scaled_modular_term():
    raw, _ = tiny_coverage()
    reg = LinearRegularizer([1, 0, 2, 0])
    L = 2
    plain = LiftedGuide(raw, GuideWeights(L))
    both = LiftedGuide(raw, GuideWeights(L), reg)
    scale = GuideWeights(L).floats[L] * (L + 1)
    s = _es(8, [0, 5])  # bases 0 and 2
    assert both.eval(s) == pytest.approx(plain.eval(s) + scale * 3, rel=1e-12)
    assert both.eval(ElementSet.empty(8)) == 0.0
    # the tracker carries the same term in its value and marginals
    tracker = make_tracker(both, s)
    assert tracker.value == pytest.approx(both.eval(s), rel=1e-12)
    assert tracker.marginal_add(4) == pytest.approx(
        both.eval(s.add(4)) - both.eval(s), abs=1e-9
    )
    assert tracker.marginal_drop(5) == pytest.approx(
        both.eval(s) - both.eval(s.remove(5)), abs=1e-9
    )
    tracker.apply(add=4, drop=5)  # base 2 moves to level 1
    tracker.apply(drop=0)
    assert tracker.value == pytest.approx(both.eval(_es(8, [4])), rel=1e-12)
    with pytest.raises(ValueError):
        LiftedGuide(raw, GuideWeights(L), LinearRegularizer([1, 2]))


def test_regularizer_eval_allows_negative_weights():
    reg = LinearRegularizer([1.5, -2.0, 0.5])
    assert reg.eval(_es(3, [0, 1])) == -0.5
    assert reg.eval(ElementSet.empty(3)) == 0.0


@given(st.integers(1, 3), st.integers(0, 2**9 - 1), st.integers(0, 8))
@settings(max_examples=200)
def test_lifted_guide_monotone_in_members(L, raw_mask, x):
    f = ModularFunction([2, 1, 3])
    guide = LiftedGuide(f, GuideWeights(L))
    n2 = guide.ground_size
    mask = raw_mask & ((1 << n2) - 1)
    s = ElementSet(n2, mask)
    x = x % n2
    assert guide.eval(s.add(x)) >= guide.eval(s) - 1e-12


_BASE_N = 5
_COVERS = [[0, 1], [1, 2, 3], [3], [4, 5, 0], [5, 6, 7, 2]]


@given(
    L=st.integers(1, 4),
    point_weights=st.none() | st.lists(st.integers(0, 9), min_size=8, max_size=8),
    reg_weights=st.none()
    | st.lists(
        st.integers(-3, 5) | st.floats(-1e16, 1e16), min_size=_BASE_N, max_size=_BASE_N
    ),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["add", "drop", "swap"]),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        max_size=12,
    ),
)
# 1.0 is lost when added to 1e16, so a regularizer total kept in swap order
# would read 0.0 here where the set's own sum reads 1.0
@example(
    L=1,
    point_weights=None,
    reg_weights=[1e16, 1.0, 0, 0, 0],
    steps=[("add", 0, 0), ("add", 0, 0), ("drop", 0, 0)],
)
@settings(max_examples=150, deadline=None)
def test_tracker_memo_matches_fresh_tracker(L, point_weights, reg_weights, steps):
    # after any add/drop/swap sequence the memoized tracker answers exactly
    # like a fresh one, its value is the guide's eval of its set bit for
    # bit, and its inner oracle never sees a set twice (the memo lasts as
    # long as the guide and is never stale). A tracker that answers
    # add-marginals by extend and drop-marginals by retract and one that
    # only evaluates agree float-exactly, ask the same sets in the same
    # order, and are charged the same number of queries. Without a
    # regularizer, a third tracker under an all-zero one must agree with
    # them in the same way.
    f = CoverageFunction(8, _COVERS, point_weights=point_weights)
    reg = None if reg_weights is None else LinearRegularizer(reg_weights)
    zero = LinearRegularizer([0.0] * _BASE_N) if reg is None else reg
    recorders, ledgers, trackers = [], [], []
    for incremental, r in ((True, reg), (False, reg), (True, zero)):
        recorder, ledger = RecordingOracle(f, incremental), QueryLedger()
        counted = CountingValueOracle(recorder, ledger)
        assert hasattr(counted, "extend") is incremental
        guide = LiftedGuide(counted, GuideWeights(L), r)
        recorders.append(recorder)
        ledgers.append(ledger)
        trackers.append(make_tracker(guide, ElementSet.empty(guide.ground_size)))
    tracker = trackers[0]
    fresh_guide = LiftedGuide(f, GuideWeights(L), reg)
    n2 = fresh_guide.ground_size

    def check():
        fresh = make_tracker(fresh_guide, tracker.current)
        assert [t.value for t in trackers] == [fresh.value] * len(trackers)
        want_value = fresh_guide.eval(tracker.current).hex()
        assert [t.value.hex() for t in trackers] == [want_value] * len(trackers)
        for _ in range(2):  # a repeated ask is answered from the memo
            for x in range(n2):
                if x in tracker.current:
                    got = [t.marginal_drop(x) for t in trackers]
                    want = fresh.marginal_drop(x)
                else:
                    got = [t.marginal_add(x) for t in trackers]
                    want = fresh.marginal_add(x)
                assert got == [want] * len(trackers)
        for recorder in recorders:
            assert len(recorder.seen) == len(set(recorder.seen))
            assert recorder.seen == recorders[0].seen
        assert all(ledger == ledgers[0] for ledger in ledgers)

    def apply(**move):
        for t in trackers:
            t.apply(**move)

    check()
    assert recorders[0].extends > 0 and recorders[1].extends == 0
    for op, a, b in steps:
        s = tracker.current
        held = {x // L for x in s}
        members = list(s)
        addable = [x for x in range(n2) if x // L not in held]
        if op == "add" and addable:
            apply(add=addable[a % len(addable)])
        elif op == "drop" and members:
            apply(drop=members[a % len(members)])
        elif op == "swap" and members:
            u = members[a % len(members)]
            # the added element may move u's base element to another level
            others = held - {u // L}
            outside = [x for x in range(n2) if x not in s and x // L not in others]
            if not outside:
                continue
            apply(add=outside[b % len(outside)], drop=u)
        else:
            continue
        check()


def _same_number(a, b) -> bool:
    # the same type and the same value to the bit
    return type(a) is type(b) and float(a).hex() == float(b).hex()


def _retract_cover(n: int, holders: list[int]) -> list[list[int]]:
    # covers over n elements with a point held by each element alone and one
    # held by each pair, then one point per mask in holders
    points = [1 << u for u in range(n)]
    points += [1 << u | 1 << v for u in range(n) for v in range(u + 1, n)]
    points += holders
    return [[p for p, held in enumerate(points) if held >> u & 1] for u in range(n)]


_RETRACT_N = 5
_RETRACT_POINTS = _RETRACT_N + _RETRACT_N * (_RETRACT_N - 1) // 2 + 4


@given(
    holders=st.lists(st.integers(0, (1 << _RETRACT_N) - 1), min_size=4, max_size=4),
    point_weights=st.none()
    | st.lists(
        st.integers(0, 9) | st.floats(0, 1e6),
        min_size=_RETRACT_POINTS,
        max_size=_RETRACT_POINTS,
    ),
    mask=st.integers(1, (1 << _RETRACT_N) - 1),
)
@example(holders=[0, 0, 0, 0], point_weights=None, mask=0b10110)
@example(holders=[0b11111, 0, 1, 0], point_weights=[0.1] * _RETRACT_POINTS, mask=0b11111)
@settings(max_examples=150, deadline=None)
def test_coverage_retract_is_eval_of_the_set_less_the_element(holders, point_weights, mask):
    # for every u in S, retract(state(S), u) is eval(S - u) to the bit, over
    # points that u alone holds, that u and other members hold, and that
    # only others hold, with unit and with weighted points
    f = CoverageFunction(
        _RETRACT_POINTS, _retract_cover(_RETRACT_N, holders), point_weights=point_weights
    )
    s = ElementSet(_RETRACT_N, mask)
    state = f.state(s)
    for u in s:
        assert _same_number(f.retract(state, u), f.eval(s.remove(u))), u
    for u in range(_RETRACT_N):
        if u not in s:
            assert _same_number(f.extend(state, u), f.eval(s.add(u))), u


@given(
    L=st.integers(1, 3),
    point_weights=st.none()
    | st.lists(st.integers(0, 9) | st.floats(0, 1e6), min_size=8, max_size=8),
    placed=st.lists(st.tuples(st.integers(0, _BASE_N - 1), st.integers(0, 2)), max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_a_retracting_tracker_drops_as_an_evaluating_one(L, point_weights, placed):
    # trackers whose oracle offers the triple, state/extend without retract
    # (asked through eval alone), or eval only give every drop-marginal
    # float-exactly alike, ask the same sets in the same order, and are
    # charged the same count
    f = CoverageFunction(8, _COVERS, point_weights=point_weights)
    lifted = {}
    for u, level in placed:
        lifted.setdefault(u, u * L + level % L)
    s = ElementSet.from_iterable(_BASE_N * L, lifted.values())
    sides, retracts = [], []
    for incremental, retract in ((True, True), (True, False), (False, False)):
        recorder, ledger = RecordingOracle(f, incremental, retract), QueryLedger()
        counted = CountingValueOracle(recorder, ledger)
        assert hasattr(counted, "retract") is retract
        tracker = make_tracker(LiftedGuide(counted, GuideWeights(L)), s)
        before = ledger.value_queries
        drops = [tracker.marginal_drop(x).hex() for x in s]
        sides.append((drops, recorder.seen, ledger.value_queries))
        # every query a drop charges is a retract, when the oracle has one
        retracts.append((recorder.retracts, ledger.value_queries - before))
    assert sides == [sides[0]] * 3
    charged = retracts[0][1]
    assert retracts == [(charged, charged), (0, charged), (0, charged)]


@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("reg_weights", [None, [0.5, -1.25, 0.0, 3.0, 1.5]])
def test_tracker_keeps_each_marginal_until_apply(L, reg_weights):
    # a repeated marginal with no apply in between is the same float and
    # needs neither the inner oracle nor the guide's memo, which is emptied
    # before the repeat; after an apply every marginal is recomputed, so it
    # matches a fresh tracker's at the new set
    f = CoverageFunction(8, _COVERS)
    reg = None if reg_weights is None else LinearRegularizer(reg_weights)
    ledger = QueryLedger()
    guide = LiftedGuide(CountingValueOracle(f, ledger), GuideWeights(L), reg)
    fresh_guide = LiftedGuide(f, GuideWeights(L), reg)
    n2 = guide.ground_size
    tracker = make_tracker(guide, ElementSet.empty(n2))
    rng = RandomSource(L)

    def marginals(t):
        return [
            (t.marginal_drop(x) if x in t.current else t.marginal_add(x)).hex()
            for x in range(n2)
        ]

    for _ in range(12):
        first = marginals(tracker)
        assert first == marginals(make_tracker(fresh_guide, tracker.current))
        guide.memo.clear()
        before = ledger.value_queries
        assert marginals(tracker) == first
        assert ledger.value_queries == before
        for x in tracker.current:  # its drop-marginal is kept, yet it adds 0
            assert tracker.marginal_add(x) == 0.0
        s = tracker.current
        held = {x // L for x in s}
        addable = [x for x in range(n2) if x // L not in held]
        if s and (not addable or rng.randrange(3) == 0):
            tracker.apply(drop=s.to_list()[rng.randrange(len(s))])
        else:
            tracker.apply(add=addable[rng.randrange(len(addable))])


def _projection(lm, j):
    # union of the level masks of the levels in subset j
    p = 0
    for i, mask in enumerate(lm):
        if j >> i & 1:
            p |= mask
    return p


def _literal_marginal(f, weights, lm, x, reg, add):
    # the terms, in exact arithmetic, over the level subsets J holding x's
    # level: w_J * (f(P_J + u) - f(P_J)) for an add or w_J * (f(P_J) -
    # f(P_J - u)) for a drop, each f an eval on a fresh set; then the
    # regularizer term, the guide's float scale times u's weight
    L, n = len(lm), f.ground_size
    u, level = divmod(x, L)
    terms = []
    for j in range(1, 1 << L):
        if not j >> level & 1:
            continue
        p = _projection(lm, j)
        plus, minus = (p | 1 << u, p) if add else (p, p & ~(1 << u))
        diff = f.eval(ElementSet(n, plus)) - f.eval(ElementSet(n, minus))
        terms.append(weights.fractions[j.bit_count()] * Fraction(diff))
    scale = weights.floats[L] * (L + 1)
    return terms + [Fraction(scale) * Fraction(0.0 if reg is None else reg[u])]


def _literal_value(f, weights, s, reg):
    # the terms of the guide's value of s, in exact arithmetic
    L, n = weights.levels, f.ground_size
    lm = level_masks(s, L)
    terms = []
    for j in range(1, 1 << L):
        p = _projection(lm, j)
        terms.append(weights.fractions[j.bit_count()] * Fraction(f.eval(ElementSet(n, p))))
    reg_total = sum(Fraction(0.0 if reg is None else reg[x // L]) for x in s)
    return terms + [Fraction(weights.floats[L] * (L + 1)) * reg_total]


@given(
    L=st.sampled_from([1, 3, 5, 6]),
    reg_weights=st.none()
    | st.lists(st.integers(-12, 20).map(lambda k: k / 4), min_size=4, max_size=4),
    incremental=st.booleans(),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["add", "drop", "swap"]),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        max_size=8,
    ),
)
@settings(max_examples=150, deadline=None)
def test_tracker_matches_the_guide_definition_subset_by_subset(
    L, reg_weights, incremental, steps
):
    # after any add/drop/swap sequence, every marginal and the value are the
    # exact per-subset sums of the guide's definition up to float rounding,
    # and the value is eval's to the bit; a marginal asked first after a
    # move charges at most one query per distinct projection it can reach:
    # those lacking u for an add, all of them for a drop
    f = CoverageFunction(7, [[0, 1], [1, 2, 3], [3, 6], [4, 5, 0]])
    weights = GuideWeights(L)
    reg = None if reg_weights is None else LinearRegularizer(reg_weights)
    ledger = QueryLedger()
    counted = CountingValueOracle(RecordingOracle(f, incremental), ledger)
    guide = LiftedGuide(counted, weights, reg)
    n2 = guide.ground_size
    tracker = make_tracker(guide, ElementSet.empty(n2))

    def check():
        s = tracker.current
        assert tracker.value.hex() == guide.eval(s).hex()
        _assert_sums(tracker.value, _literal_value(f, weights, s, reg_weights))
        lm = level_masks(s, L)
        for x in range(n2):
            u, level = divmod(x, L)
            projections = {_projection(lm, j) for j in range(1 << L) if j >> level & 1}
            before = ledger.value_queries
            if x in s:
                got = tracker.marginal_drop(x)
                reach = len(projections)
            else:
                got = tracker.marginal_add(x)
                reach = sum(1 for p in projections if not p >> u & 1)
            assert ledger.value_queries - before <= reach
            _assert_sums(got, _literal_marginal(f, weights, lm, x, reg_weights, x not in s))

    check()
    for op, a, b in steps:
        s = tracker.current
        held = {x // L for x in s}
        members = list(s)
        addable = [x for x in range(n2) if x // L not in held]
        if op == "add" and addable:
            tracker.apply(add=addable[a % len(addable)])
        elif op == "drop" and members:
            tracker.apply(drop=members[a % len(members)])
        elif op == "swap" and members:
            u = members[a % len(members)]
            others = held - {u // L}
            outside = [x for x in range(n2) if x not in s and x // L not in others]
            if not outside:
                continue
            tracker.apply(add=outside[b % len(outside)], drop=u)
        else:
            continue
        check()


def _unshared_marginal_add(guide, s, x):
    # x's add-marginal summed afresh, in the tracker's order and float
    # operations, with no table or marginal of another level reused
    L = guide.levels
    u, level = divmod(x, L)
    masks = level_masks(s, L)
    proj = subset_unions([mask for mask in masks if mask])
    empty = not masks[level]
    hold = 0 if empty else 1 << sum(1 for mask in masks[:level] if mask)
    w = guide.occupied_weight[len(proj).bit_length() - 1 + empty]
    total = 0.0
    for k, p in enumerate(proj):
        if k & hold == hold and not p >> u & 1:
            total += w[k.bit_count() + empty] * (
                guide.base_value(p | 1 << u) - guide.base_value(p)
            )
    return total + guide.reg_terms[x]


@given(
    L=st.integers(2, 5),
    regularized=st.booleans(),
    incremental=st.booleans(),
    placed=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=5),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_copies_on_empty_levels_share_the_marginal_they_would_each_sum(
    L, regularized, incremental, placed, seed
):
    # on a set with at least one empty level, every outside copy's
    # add-marginal, asked in a random order, is bit for bit the sum of its
    # own, and the tracker charges the value queries that summing each
    # afresh charges, marginal by marginal
    f = CoverageFunction(9, [[0, 1], [1, 2, 3], [3, 6], [4, 5, 0], [7], [2, 8]])
    reg = LinearRegularizer([0.5, -0.25, 1.0, 0.0, 2.0, 0.75]) if regularized else None
    hole = seed % L  # stays empty
    lifted = {}
    for u, level in placed:
        if level % L != hole:
            lifted.setdefault(u, u * L + level % L)
    n2 = f.ground_size * L
    s = ElementSet.from_iterable(n2, lifted.values())
    order = [x for x in range(n2) if x not in s]
    RandomSource(seed).shuffle(order)
    sides = []
    for _ in range(2):
        ledger = QueryLedger()
        counted = CountingValueOracle(RecordingOracle(f, incremental), ledger)
        sides.append((ledger, LiftedGuide(counted, GuideWeights(L), reg)))
    (shared_ledger, shared), (fresh_ledger, fresh) = sides
    tracker = make_tracker(shared, s)
    make_tracker(fresh, s)  # charges the projections, as the tracker does
    assert shared_ledger == fresh_ledger
    for x in order:
        got = tracker.marginal_add(x)
        assert got.hex() == _unshared_marginal_add(fresh, s, x).hex(), x
        assert shared_ledger == fresh_ledger


@pytest.mark.parametrize(
    "oracle",
    [
        ModularFunction([1e16, 1.0, 1.0]),
        LinearRegularizer([1e16, 1.0, 1.0]),
        ConcaveOfModular([1e16, 1.0, 1.0], shape="cap", cap=1e17),
    ],
    ids=["modular", "regularizer", "concave-cap"],
)
def test_sums_round_at_each_addition_on_every_python(oracle):
    # from Python 3.12 sum() compensates rounding and would give 1e16 + 2;
    # the package sums from the left, as sum() did before, so report floats
    # are the same on every supported Python
    assert oracle.eval(ElementSet.full(3)) == 1e16
    assert left_sum([1e16, 1.0, 1.0]) == 1e16
    assert left_sum([2, 3]) == 5 and type(left_sum([2, 3])) is int


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CoverageFunction(2, [[0, 2]]), "point 2 outside universe"),
        (
            lambda: CoverageFunction(2, [[0]], point_weights=[1]),
            "one weight per universe point required",
        ),
        (
            lambda: CoverageFunction(2, [[0]], point_weights=[1, -1]),
            "point weights must be non-negative",
        ),
        (
            lambda: CoverageFunction(2, [[0], [1]], point_weights=[float("nan"), 1.0]),
            "point weight 0 must be finite, got nan",
        ),
        (
            lambda: CoverageFunction(2, [[0], [1]], point_weights=[1.0, math.inf]),
            "point weight 1 must be finite, got inf",
        ),
        (
            lambda: LinearRegularizer([0, 0, float("nan"), 0]),
            "regularizer weight 2 must be finite, got nan",
        ),
        (
            lambda: LinearRegularizer([1.0, -math.inf]),
            "regularizer weight 1 must be finite, got -inf",
        ),
        (
            lambda: ModularFunction([5, float("nan"), 1, 0]),
            "modular objective weight 1 must be finite, got nan",
        ),
        (
            lambda: ModularFunction([math.inf]),
            "modular objective weight 0 must be finite, got inf",
        ),
        (lambda: ConcaveOfModular([1, -1]), "weights must be non-negative"),
        (
            lambda: ConcaveOfModular([1, 2, float("nan")]),
            "weight 2 must be finite, got nan",
        ),
        (lambda: ConcaveOfModular([-math.inf]), "weight 0 must be finite, got -inf"),
        (lambda: ConcaveOfModular([1], shape="log"), "unknown shape 'log'"),
        (lambda: ConcaveOfModular([1], shape="cap", cap=-1), "cap must be non-negative"),
        (
            lambda: ConcaveOfModular([1], shape="cap", cap=float("nan")),
            "cap must be finite, got nan",
        ),
        (
            lambda: ConcaveOfModular([1], shape="cap", cap=math.inf),
            "cap must be finite, got inf",
        ),
        (
            lambda: level_masks(ElementSet(5), 2),
            "lifted universe size must be a multiple of levels",
        ),
        (  # finite, but 1e308 times the 3-level scale 64/9 is not
            lambda: LiftedGuide(
                ModularFunction([1] * 4),
                GuideWeights(3),
                LinearRegularizer([1e308, 0, 0, 0]),
            ),
            "regularizer weight 0 times reg_scale 7.111111111111111 must be finite, "
            "got inf",
        ),
    ],
    ids=[
        "coverage-point", "coverage-weight-count", "coverage-negative-weight",
        "coverage-nan-weight", "coverage-inf-weight", "regularizer-nan-weight",
        "regularizer-inf-weight", "modular-nan-weight", "modular-inf-weight",
        "concave-negative-weight", "concave-nan-weight", "concave-inf-weight",
        "concave-shape", "concave-cap", "concave-nan-cap", "concave-inf-cap", "level-masks",
        "regularizer-overflow",
    ],
)
def test_objective_guards_name_the_problem(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


class _Swing:
    """Finite values on two elements whose differences overflow: f({1}) is
    -1e308 and f({0, 1}) is 1e308."""

    ground_size = 2

    def eval(self, s):
        return (0.0, 0.0, -1e308, 1e308)[s.mask]


@pytest.mark.parametrize(
    "total, named",
    [
        (  # 37/9 times a finite f value at 3 levels
            lambda: LiftedGuide(
                ConcaveOfModular([1e308] * 2, shape="cap", cap=1.7e308), GuideWeights(3)
            ).eval(ElementSet(6, 1)),
            "{0}",
        ),
        (lambda: make_tracker(_Swing(), ElementSet(2, 2)).marginal_add(0), "{0,1}"),
        (lambda: make_tracker(_Swing(), ElementSet(2, 3)).marginal_drop(0), "{0,1}"),
    ],
    ids=["value", "add", "drop"],
)
def test_a_guide_total_that_overflows_names_its_set(total, named):
    message = (
        f"the guide's weighted sum overflowed to inf on the lifted set {named}; "
        "f's values are too large for the guide's weights"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        total()


def test_as_guide_returns_a_guide_as_it_is_and_wraps_any_other_oracle():
    f, _ = tiny_coverage()
    guide = LiftedGuide(f, GuideWeights(3))
    assert as_guide(guide) is guide
    plain = as_guide(f)
    assert (plain.inner, plain.levels, plain.ground_size) == (f, 1, f.ground_size)
    assert plain.reg_terms == (0.0,) * f.ground_size


def test_a_counted_guide_evaluates_and_tracks():
    # the guide offers no state/extend of its own, so a counting wrapper
    # around it is a plain value oracle, tracked as its one-level guide
    f, _ = tiny_coverage()
    guide = LiftedGuide(f, GuideWeights(2), LinearRegularizer([1, -1, 0.5, 0]))
    ledger = QueryLedger()
    counted = CountingValueOracle(guide, ledger)
    assert not hasattr(counted, "extend")
    s = _es(8, [2, 7])  # base 1 on level 1, base 3 on level 2
    assert counted.eval(s) == guide.eval(s)
    tracker = make_tracker(counted, s)
    assert tracker.value == guide.eval(s)
    for x in range(8):
        if x in s:
            assert tracker.marginal_drop(x) == guide.eval(s) - guide.eval(s.remove(x))
        else:
            assert tracker.marginal_add(x) == guide.eval(s.add(x)) - guide.eval(s)
    assert ledger.value_queries == 1 + 1 + 8  # eval, tracker start, one per marginal
