import math
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nols.core import CountingMatroidOracle, ElementSet, QueryLedger, RandomSource
from nols.matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    extend_to_base,
    lift,
    max_weight_independent,
    min_weight_exchange,
    rank,
)
from nols.objectives import MAX_LEVELS
from nols.verify import check_matroid_axioms
from suite import FamilyMatroid, RecordingMatroid, greedy_independent, small_matroid


def _es(n, items):
    return ElementSet.from_iterable(n, items)


def test_uniform_matroid():
    m = UniformMatroid(5, 2)
    assert m.is_independent(_es(5, []))
    assert m.is_independent(_es(5, [1, 4]))
    assert not m.is_independent(_es(5, [0, 1, 2]))
    assert rank(m) == 2


def test_partition_matroid():
    m = PartitionMatroid(6, [[0, 1, 2], [3, 4, 5]], [2, 1])
    assert m.is_independent(_es(6, [0, 2, 4]))
    assert not m.is_independent(_es(6, [0, 1, 2]))
    assert not m.is_independent(_es(6, [3, 4]))
    assert rank(m) == 3
    with pytest.raises(ValueError):
        PartitionMatroid(4, [[0, 1], [1, 2, 3]], [1, 1])  # overlapping blocks
    with pytest.raises(ValueError):
        PartitionMatroid(4, [[0, 1]], [1])  # not a cover


def test_graphic_matroid_triangle():
    # edges 0:(0,1), 1:(1,2), 2:(0,2) form a triangle: any 2 ok, all 3 cycle
    m = GraphicMatroid(3, [[0, 1], [1, 2], [0, 2]])
    for pair in ([0, 1], [1, 2], [0, 2]):
        assert m.is_independent(_es(3, pair))
    assert not m.is_independent(_es(3, [0, 1, 2]))
    assert rank(m) == 2


def test_graphic_matroid_multigraph():
    # parallel edges form a 2-cycle; a self-loop is never independent
    m = GraphicMatroid(3, [[0, 1], [0, 1], [2, 2]])
    assert m.is_independent(_es(3, [0]))
    assert not m.is_independent(_es(3, [0, 1]))
    assert not m.is_independent(_es(3, [2]))


def _acyclic_by_search(vertex_count, edges, members):
    # reference: an edge closes a cycle iff a breadth-first search over the
    # edges taken before it already reaches one endpoint from the other
    adjacent = [[] for _ in range(vertex_count)]
    for e in members:
        a, b = edges[e]
        seen, frontier = {a}, [a]
        while frontier:
            frontier = [w for v in frontier for w in adjacent[v] if w not in seen]
            seen.update(frontier)
        if b in seen:
            return False
        adjacent[a].append(b)
        adjacent[b].append(a)
    return True


@given(st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_graphic_matroid_matches_a_search_for_cycles(vertex_count, data):
    # random multigraphs, self-loops and parallel edges included
    vertex = st.integers(0, vertex_count - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    m = GraphicMatroid(vertex_count, edges)
    for mask in data.draw(st.lists(st.integers(0, (1 << len(edges)) - 1), max_size=20)):
        s = ElementSet(len(edges), mask)
        assert m.is_independent(s) == _acyclic_by_search(vertex_count, edges, s), s


def test_explicit_matroid_validates_axioms():
    good = [0b00, 0b01, 0b10, 0b11]
    ExplicitMatroid(2, good)  # should not raise
    with pytest.raises(ValueError, match="empty set"):
        ExplicitMatroid(2, [0b01])
    with pytest.raises(ValueError, match="downward closure"):
        ExplicitMatroid(2, [0b00, 0b11])
    with pytest.raises(ValueError, match="exchange"):
        ExplicitMatroid(3, [0b000, 0b001, 0b010, 0b100, 0b011])


def _is_matroid(family: set[frozenset]) -> bool:
    # the textbook definition, on Python sets: the empty set is independent,
    # every subset of an independent set is, and any smaller independent A
    # grows by some element of any larger independent B
    if frozenset() not in family:
        return False
    for a in family:
        for k in range(len(a)):
            if any(frozenset(sub) not in family for sub in combinations(a, k)):
                return False
    return all(
        any(a | {x} in family for x in b - a)
        for a in family
        for b in family
        if len(a) < len(b)
    )


def test_axiom_checkers_agree_with_the_matroid_definition():
    # every family of subsets of an n-set, n <= 3 (256 families at n = 3)
    matroids = 0
    for n in range(4):
        for code in range(1 << (1 << n)):
            masks = [m for m in range(1 << n) if code >> m & 1]
            expected = _is_matroid(
                {frozenset(u for u in range(n) if m >> u & 1) for m in masks}
            )
            try:
                ExplicitMatroid(n, masks)
                built = True
            except ValueError:
                built = False
            assert built == expected, (n, masks)
            assert (check_matroid_axioms(FamilyMatroid(n, masks)) == []) == expected
            matroids += expected
    assert matroids == 1 + 2 + 5 + 16  # labeled matroids on 0..3 points


def test_extend_to_base_examples():
    assert extend_to_base(UniformMatroid(4, 2), _es(4, [])) == _es(4, [0, 1])
    m = PartitionMatroid(4, [[0, 1], [2, 3]], [1, 1])
    assert extend_to_base(m, _es(4, [1])) == _es(4, [1, 2])


def _random_matroid(rng: RandomSource, kind: int):
    """A uniform (kind 0), partition (1) or graphic (2) matroid on 2-10
    elements."""
    n = 2 + rng.randrange(9)
    if kind == 0:
        return UniformMatroid(n, 1 + rng.randrange(n))
    if kind == 1:
        r = 1 + rng.randrange(3)
        blocks = [[u for u in range(n) if u % r == i] for i in range(r)]
        return PartitionMatroid(n, blocks, [1 + rng.randrange(2) for _ in range(r)])
    v = 2 + rng.randrange(min(4, n))
    edges = [[rng.randrange(w), w] for w in range(1, v)]
    while len(edges) < n:
        a, b = rng.randrange(v), rng.randrange(v)
        if a != b:
            edges.append(sorted((a, b)))
    return GraphicMatroid(v, edges)


def _every_third_start(m) -> ElementSet:
    start = ElementSet.empty(m.ground_size)
    for u in range(0, m.ground_size, 3):
        cand = start.add(u)
        if m.is_independent(cand):
            start = cand
    return start


def test_extend_to_base_always_reaches_rank():
    rng = RandomSource(17)
    for _ in range(200):
        m = _random_matroid(rng, rng.randrange(3))
        start = _every_third_start(m)
        base = extend_to_base(m, start)
        assert start.mask & ~base.mask == 0
        assert len(base) == rank(m)


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["uniform", "partition", "graphic"])
def test_extend_to_base_skips_elements_known_dependent(kind):
    # elements dependent with the start set, all of them or a random part,
    # are skipped without a query and the base does not change
    rng = RandomSource(23 + kind)
    skipped_some = False
    for _ in range(100):
        m = _random_matroid(rng, kind)
        n = m.ground_size
        start = _every_third_start(m)
        outside = [u for u in range(n) if u not in start]
        dependent = [u for u in outside if not m.is_independent(start.add(u))]
        for part in (dependent, [u for u in dependent if rng.randrange(2)]):
            mask = ElementSet.from_iterable(n, part)
            recorder = RecordingMatroid(m)
            ledger = QueryLedger()
            base = extend_to_base(CountingMatroidOracle(recorder, ledger), start, mask)
            assert base == extend_to_base(m, start)
            asked = [(s & ~start.mask).bit_length() - 1 for s in recorder.seen]
            assert asked == [u for u in outside if u not in mask]
            assert ledger.independence_queries == n - len(start) - len(mask)
            skipped_some |= len(mask) > 0
    assert skipped_some


def test_max_weight_independent_examples():
    assert max_weight_independent(UniformMatroid(4, 2), [5, 1, 3, 2]) == _es(4, [0, 2])
    m = PartitionMatroid(4, [[0, 1], [2, 3]], [1, 1])
    assert max_weight_independent(m, [2, 9, 4, 4]) == _es(4, [1, 2])
    # zero weights still extend to a base; negative weights are left out
    assert max_weight_independent(UniformMatroid(3, 2), [0, 0, 0]) == _es(3, [0, 1])
    assert max_weight_independent(UniformMatroid(3, 2), [-1, 5, -2]) == _es(3, [1])


def _restricted(m, k):
    """m restricted to its first k elements (all of them if it has fewer),
    as an ExplicitMatroid."""
    n = m.ground_size
    k = min(k, n)
    return ExplicitMatroid(
        k, [mask for mask in range(1 << k) if m.is_independent(ElementSet(n, mask))]
    )


@given(
    kind=st.sampled_from(["uniform", "partition", "graphic", "explicit"]),
    levels=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_max_weight_independent_stops_at_the_rank(kind, levels, seed, data):
    # capped at the rank, the greedy returns the set the full pass returns
    # and asks exactly the full pass's queries up to the one that makes its
    # set a base; weights come with ties, zeros and negatives
    rng = RandomSource(seed)
    if kind == "explicit":
        m = _restricted(_random_matroid(rng, rng.randrange(3)), 2 + rng.randrange(6))
    else:
        m = _random_matroid(rng, ["uniform", "partition", "graphic"].index(kind))
    matroid = m if levels is None else lift(m, levels)
    r = rank(matroid)
    weight = st.integers(-4, 6).map(lambda k: k / 2)
    n = matroid.ground_size
    w = data.draw(st.lists(weight, min_size=n, max_size=n))
    full, capped = RecordingMatroid(matroid), RecordingMatroid(matroid)
    s = max_weight_independent(full, w)
    assert max_weight_independent(capped, w, rank=r) == s
    if len(s) < r:  # negative weights kept the greedy below the rank
        assert capped.seen == full.seen
    elif r == 0:
        assert capped.seen == []
    else:
        assert capped.seen == full.seen[: full.seen.index(s.mask) + 1]


def test_min_weight_exchange_matches_linear_scan():
    rng = RandomSource(42)
    cases = 0
    while cases < 1000:
        n = 3 + rng.randrange(10)
        kind = rng.randrange(3)
        if kind == 0:
            m = UniformMatroid(n, 1 + rng.randrange(max(1, n // 2)))
        elif kind == 1:
            r = 1 + rng.randrange(3)
            blocks = [[u for u in range(n) if u % r == i] for i in range(r)]
            m = PartitionMatroid(n, blocks, [1 + rng.randrange(2) for _ in range(r)])
        else:
            v = 2 + rng.randrange(4)
            edges = [[rng.randrange(w), w] for w in range(1, v)]
            while len(edges) < n:
                a, b = rng.randrange(v), rng.randrange(v)
                if a != b:
                    edges.append(sorted((a, b)))
            m = GraphicMatroid(v, edges)
        s = greedy_independent(m, n, rng)
        blocked = [
            v
            for v in range(n)
            if v not in s
            and m.is_independent(ElementSet.empty(n).add(v))
            and not m.is_independent(s.add(v))
        ]
        if not blocked or len(s) == 0:
            continue
        cases += 1
        v = blocked[rng.randrange(len(blocked))]
        weights = {u: rng.randrange(100) / 7.0 for u in s}
        ledger = QueryLedger()
        got = min_weight_exchange(CountingMatroidOracle(m, ledger), s, s, v, weights)
        want = min(
            (weights[u], u) for u in s if m.is_independent(s.remove(u).add(v))
        )[1]
        assert got == want
        log_term = math.ceil(math.log2(len(s))) if len(s) > 1 else 0
        assert ledger.independence_queries <= log_term + 2


def test_min_weight_exchange_rejects_empty_pool():
    m = UniformMatroid(3, 1)
    with pytest.raises(ValueError):
        min_weight_exchange(m, _es(3, [0]), ElementSet.empty(3), 1, {})


def test_lifted_matroid_counts_one_base_query():
    base = UniformMatroid(3, 2)
    ledger = QueryLedger()
    lm = lift(CountingMatroidOracle(base, ledger), 2)
    assert lm.ground_size == 6
    # elements 0,1 are the two copies of base element 0: free rejection
    before = ledger.independence_queries
    assert not lm.is_independent(_es(6, [0, 1]))
    assert ledger.independence_queries == before
    before = ledger.independence_queries
    assert lm.is_independent(_es(6, [0, 3]))
    assert ledger.independence_queries == before + 1
    # the same base elements on other levels project to the same base set,
    # which the lifted matroid asks once
    assert lm.is_independent(_es(6, [1, 2]))
    assert ledger.independence_queries == before + 1
    assert lm.is_independent(_es(6, [4])) and lm.is_independent(_es(6, [5]))
    assert ledger.independence_queries == before + 2
    assert rank(lm) == rank(base)


def _per_member_walk(inner, levels):
    """Reference lifted oracle: projects member by member, rejects a base
    element met twice, and memoizes inner answers by base mask."""
    memo = {}

    def is_independent(s):
        seen = 0
        for x in s:
            bit = 1 << (x // levels)
            if seen & bit:
                return False
            seen |= bit
        if seen not in memo:
            memo[seen] = inner.is_independent(ElementSet(inner.ground_size, seen))
        return memo[seen]

    return is_independent


@given(st.integers(1, 80), st.integers(1, MAX_LEVELS), st.integers(0, 12), st.data())
@settings(max_examples=150)
def test_lifted_membership_matches_projection_rule(n, levels, k, data):
    # sets over up to 1,600 lifted elements span many int digits, so the
    # level fold shifts across digit boundaries; the inner matroid must be
    # asked exactly the base sets, in the order, that a per-member walk asks
    base = UniformMatroid(n, k)
    asked, reference_asked = RecordingMatroid(base), RecordingMatroid(base)
    lm = lift(asked, levels)
    reference = _per_member_walk(reference_asked, levels)
    element = st.tuples(st.integers(0, n - 1), st.integers(0, levels - 1))
    level = st.integers(0, levels - 1)
    members = []
    for _ in range(data.draw(st.integers(1, 8))):
        if members and data.draw(st.booleans()):
            # the same base elements on other levels: a memo hit
            members = [(u, data.draw(level)) for u, _ in members]
        else:
            members = data.draw(st.lists(element, max_size=14))
        s = ElementSet.from_iterable(n * levels, [u * levels + j for u, j in members])
        assert lm.is_independent(s) == reference(s)
    assert asked.seen == reference_asked.seen


@given(
    kind=st.sampled_from(["uniform", "partition", "graphic", "explicit"]),
    levels=st.sampled_from([None, 1, 2, 3]),
    n=st.integers(1, 12),
    r=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_the_incremental_pair_answers_and_charges_as_is_independent(
    kind, levels, n, r, seed
):
    # along a random chain of growing independent sets S, the pair asked
    # from state(S) answers is_independent(S + u) for every u outside S, and
    # the counted inner oracle is charged the same, query for query; the
    # lift under the pair is its own, so its misses go through the inner
    # pair (or through is_independent, for the explicit matroid)
    m = small_matroid(kind, n, r, seed)
    if levels is None and kind == "explicit":
        assert not hasattr(m, "extends")
        return
    asked, told = QueryLedger(), QueryLedger()
    paired = CountingMatroidOracle(m, told)
    whole = CountingMatroidOracle(m, asked)
    assert hasattr(paired, "extends") == (kind != "explicit")
    grow = m
    if levels is not None:
        paired, whole, grow = lift(paired, levels), lift(whole, levels), lift(m, levels)
    size = paired.ground_size
    order = list(range(size))
    RandomSource(seed).shuffle(order)
    s = ElementSet.empty(size)
    for v in order:
        state = paired.state(s)
        for u in range(size):
            if u not in s:
                assert paired.extends(state, u) == whole.is_independent(s.add(u)), (s, u)
                assert told.independence_queries == asked.independence_queries
        if grow.is_independent(s.add(v)):
            s = s.add(v)


def test_the_graphic_state_sees_a_cycle_through_a_long_path():
    # the unions along a path leave a parent chain four links deep, so the
    # state must point every vertex at its root for the closing edge to see
    # both ends in one tree
    m = GraphicMatroid(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert not m.extends(m.state(ElementSet(5, 0b01111)), 4)
    assert m.extends(m.state(ElementSet(5, 0b00111)), 4)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: UniformMatroid(-1, 0), "n and k must be non-negative"),
        (lambda: UniformMatroid(3, -1), "n and k must be non-negative"),
        (lambda: PartitionMatroid(2, [[0, 1]], [1, 1]), "one capacity per block required"),
        (lambda: PartitionMatroid(2, [[0, 2]], [1]), "element 2 outside universe"),
        (lambda: PartitionMatroid(2, [[0, 1]], [-1]), "capacities must be non-negative"),
        (lambda: GraphicMatroid(2, [[0, 2]]), "edge (0,2) outside vertex range"),
        (lambda: ExplicitMatroid(21, [[]]), "explicit matroid capped at n <= 20"),
        (lambda: ExplicitMatroid(2, [0, 4]), "mask outside universe"),
        (lambda: lift(UniformMatroid(2, 1), 0), "levels must be >= 1"),
        (
            lambda: lift(UniformMatroid(4, 2), 3).is_independent(ElementSet(15, 1 << 13)),
            "lifted set over 15 elements, lifted matroid over 12",
        ),
        (
            lambda: lift(UniformMatroid(4, 2), 3).state(ElementSet(15, 1 << 13)),
            "lifted set over 15 elements, lifted matroid over 12",
        ),
        (
            lambda: extend_to_base(UniformMatroid(3, 2), ElementSet(4, 1)),
            "start set over 4 elements, matroid over 3",
        ),
        (
            lambda: extend_to_base(
                UniformMatroid(3, 2), ElementSet(3, 1), ElementSet(4, 2)
            ),
            "dependent set over 4 elements, matroid over 3",
        ),
        (
            lambda: max_weight_independent(UniformMatroid(3, 1), [1.0, math.nan, 2.0]),
            "weight 1 is NaN",
        ),
        (
            lambda: max_weight_independent(UniformMatroid(3, 1), [1.0, 2.0]),
            "2 weights for a matroid over 3 elements",
        ),
        (
            lambda: max_weight_independent(UniformMatroid(3, 1), [1.0, 2.0, 3.0, 4.0]),
            "4 weights for a matroid over 3 elements",
        ),
    ],
    ids=[
        "uniform-n", "uniform-k", "partition-capacities", "partition-element",
        "partition-negative", "graphic-edge", "explicit-cap", "explicit-mask",
        "lift-levels", "lift-universe", "lift-state-universe", "extend-start-universe",
        "extend-dependent-universe", "max-weight-nan", "max-weight-short",
        "max-weight-long",
    ],
)
def test_matroid_guards_name_the_problem(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
