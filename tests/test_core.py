import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nols.core import (
    CountingMatroidOracle,
    CountingValueOracle,
    ElementSet,
    QueryLedger,
    RandomSource,
    ge,
    ge_cutoff,
    gt,
    sample_without_replacement,
)
from nols.matroids import UniformMatroid
from nols.objectives import ModularFunction


def test_element_set_basics():
    s = ElementSet.from_iterable(6, [4, 1])
    assert list(s) == [1, 4]
    assert len(s) == 2
    assert 1 in s and 4 in s and 0 not in s
    assert s.add(0).to_list() == [0, 1, 4]
    assert s.remove(4).to_list() == [1]
    assert s.add(1) == s
    t = ElementSet.from_iterable(6, [1, 2])
    assert (s - t).to_list() == [4]
    assert (ElementSet.full(6) - s).to_list() == [0, 2, 3, 5]
    assert ElementSet.full(3).to_list() == [0, 1, 2]
    assert len(ElementSet.empty(3)) == 0
    with pytest.raises(ValueError):
        s.add(6)


@given(
    st.integers(1, 12),
    st.lists(st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 11))),
)
@settings(max_examples=200)
def test_element_set_matches_builtin_set(n, ops):
    s = ElementSet.empty(n)
    model: set[int] = set()
    for op, raw in ops:
        u = raw % n
        if op == "add":
            s, model = s.add(u), model | {u}
        elif op == "remove":
            if u not in model:
                with pytest.raises(KeyError):
                    s.remove(u)
                continue
            s, model = s.remove(u), model - {u}
        assert s.to_list() == sorted(model)
        assert len(s) == len(model)
        assert all((u in s) == (u in model) for u in range(n))


def test_random_source_is_deterministic():
    a = RandomSource(123)
    b = RandomSource(123)
    seq_a = [a.randrange(1000) for _ in range(50)]
    seq_b = [b.randrange(1000) for _ in range(50)]
    assert seq_a == seq_b
    c = RandomSource(124)
    assert [c.randrange(1000) for _ in range(50)] != seq_a


def test_random_source_known_words():
    # SplitMix64 from seed 0, as every platform must produce it
    rng = RandomSource(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_randrange_rejection_matches_word_by_word_reference():
    # a bound of 3 * 2**62 rejects every word at or above it, about a
    # quarter of them; no workload draws with a bound that large
    bound = 3 << 62

    def reference(rng):
        limit = (1 << 64) - ((1 << 64) % bound)
        rejected = 0
        while True:
            x = rng.next_u64()
            if x < limit:
                return x % bound, rejected
            rejected += 1

    fast, slow = RandomSource(9), RandomSource(9)
    rejected = 0
    for _ in range(400):
        want, missed = reference(slow)
        assert fast.randrange(bound) == want
        assert fast._state == slow._state
        rejected += missed
    assert 60 < rejected < 200  # the rejection path ran, at about 1/3 per draw


def test_random_source_range_and_shuffle():
    rng = RandomSource(7)
    draws = [rng.randrange(10) for _ in range(2000)]
    assert set(draws) == set(range(10))
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_sampling_edge_sizes():
    rng = RandomSource(5)
    pool = ElementSet.from_iterable(10, [1, 3, 5, 7])
    assert len(sample_without_replacement(rng, pool, 0)) == 0
    full = sample_without_replacement(rng, pool, 4)
    assert full == pool
    sub = sample_without_replacement(rng, pool, 2)
    assert len(sub) == 2 and sub.mask & ~pool.mask == 0
    with pytest.raises(ValueError):
        sample_without_replacement(rng, pool, 5)


def test_sampling_hits_every_element():
    rng = RandomSource(11)
    pool = ElementSet.from_iterable(8, range(8))
    seen = set()
    for _ in range(300):
        seen |= set(sample_without_replacement(rng, pool, 3))
    assert seen == set(range(8))


def _list_path_sample(rng, pool, k):
    # the partial Fisher-Yates over the member list, for any pool
    items = pool.to_list()
    for i in range(k):
        j = i + rng.randrange(len(items) - i)
        items[i], items[j] = items[j], items[i]
    return ElementSet.from_iterable(pool.n, items[:k])


def test_sparse_sampling_matches_the_list_path():
    # the sparse walk draws the same numbers, leaves the generator in the
    # same state and returns the same set as swapping a member list, both
    # for the whole universe (its O(k) case) and for a strict subset
    meta = RandomSource(2024)
    for trial in range(2000):
        n = 1 + meta.randrange(200)
        if trial % 2:
            pool = ElementSet.full(n)
        else:
            words = (meta.next_u64() << 64 * w for w in range(4))
            pool = ElementSet(n, sum(words) % (1 << n))
        k = meta.randrange(len(pool) + 1)
        seed = meta.next_u64()
        fast, slow = RandomSource(seed), RandomSource(seed)
        assert sample_without_replacement(fast, pool, k) == _list_path_sample(
            slow, pool, k
        )
        assert fast._state == slow._state


def test_query_ledger_counts_every_oracle_call():
    rng = RandomSource(3)
    f = ModularFunction([1, 2, 3, 4, 5])
    m = UniformMatroid(5, 3)
    ledger = QueryLedger()
    cf = CountingValueOracle(f, ledger)
    cm = CountingMatroidOracle(m, ledger)
    v_calls = i_calls = 0
    for _ in range(100):
        s = ElementSet(5, rng.randrange(32))
        if rng.randrange(2):
            cf.eval(s)
            v_calls += 1
        else:
            cm.is_independent(s)
            i_calls += 1
    assert ledger.value_queries == v_calls
    assert ledger.independence_queries == i_calls
    assert ledger.total == v_calls + i_calls
    cf.eval(ElementSet.empty(5))
    assert ledger == QueryLedger(v_calls + 1, i_calls)


def test_counting_preserves_oracle_answers():
    f = ModularFunction([2, 0, 7])
    m = UniformMatroid(3, 1)
    ledger = QueryLedger()
    cf, cm = CountingValueOracle(f, ledger), CountingMatroidOracle(m, ledger)
    for mask in range(8):
        s = ElementSet(3, mask)
        assert cf.eval(s) == f.eval(s)
        assert cm.is_independent(s) == m.is_independent(s)
    assert cf.ground_size == 3 and cm.ground_size == 3


def test_numeric_policy_slack():
    assert ge(1.0, 1.0)
    assert not gt(1.0, 1.0)
    assert ge(1.0, 1.0 + 1e-12)
    assert not ge(1.0, 1.0 + 1e-6)
    assert gt(1.0 + 1e-6, 1.0)
    assert not gt(1.0 + 1e-12, 1.0)
    # slack scales with magnitude, not just absolute size
    assert ge(1e12, 1e12 + 100.0)


INF = float("inf")


@pytest.mark.parametrize(
    "lhs, rhs, want_ge, want_gt",
    [
        (-INF, 1.0, False, False),
        (INF, 1.0, True, True),
        (INF, INF, True, False),
        (-INF, -INF, True, False),
        (1.0, INF, False, False),
        (1.0, -INF, True, True),
        (-INF, INF, False, False),
        (INF, -INF, True, True),
    ],
)
def test_an_infinite_operand_is_compared_plainly(lhs, rhs, want_ge, want_gt):
    # a slack scaled by an infinite operand would be infinite, and ge(-inf,
    # 1.0) would hold
    assert ge(lhs, rhs) is want_ge
    assert gt(lhs, rhs) is want_gt


@given(
    st.floats(allow_nan=False),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(-2.0, 5e-324)
@example(-1e300, 1e300)
@example(1e300 * (1 - 1e-9), 1e300)
@example(1.0 - 1e-9, 1.0)
@example(-INF, 1.0)
@example(INF, 1e300)
@settings(max_examples=500)
def test_ge_cutoff_is_ge_against_a_fixed_positive_rhs(x, rhs):
    assert (x >= ge_cutoff(rhs)) is ge(x, rhs)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ElementSet(-1), "universe size must be non-negative"),
        (lambda: ElementSet(3, 8), "mask has bits outside the universe"),
        (lambda: ElementSet(3, -1), "mask has bits outside the universe"),
        (lambda: ElementSet.from_iterable(3, [0, 3]), "element 3 outside universe of size 3"),
        (lambda: ElementSet(3).difference(ElementSet(4)), "sets live over different universes"),
    ],
    ids=["negative-n", "high-mask", "negative-mask", "outside-item", "mixed-universes"],
)
def test_element_set_guards_name_the_problem(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_element_set_rejects_assignment():
    s = ElementSet(3, 1)
    with pytest.raises(AttributeError, match="^ElementSet is immutable$"):
        s.mask = 2
    assert s == ElementSet(3, 1)
