"""Acceptance suite: eleven numbered end-to-end criteria.

Each test checks one criterion and emits a single "[criterion NN] PASS/FAIL"
line (printed and replayed in the terminal summary via conftest). Bound
checks run in exact rational arithmetic: every fixture objective is
integer-valued, so f values convert to Fractions losslessly and the
level-dependent constants are rationals.

The criteria, in order:
  1  deterministic solve meets the level-truncated approximation floor
     (1-(1+1/L)^-L)*OPT + (1+1/L)^-L*f(empty) - eps*OPT on a 32-instance
     brute-forceable suite, eps in {0.5, 0.25, 0.2}, under 1 minute
  2  levels_override=1 recovers the classic (1/2 - eps)*OPT guarantee on
     the same suite, under 10 seconds
  3  warm start is 3-competitive: 3*f(S0) >= OPT on every suite instance
  4  every emitted certificate has gap <= bound = eps_inner*warm_value,
     and at n <= 10 the greedy-witness gap equals the exhaustive maximum
     over all independent challenger sets, float-exact
  5  binary-search exchange matches a linear scan on 1000 random cases
     within ceil(log2 |S|) + 2 independence queries, under 10 seconds
  6  single randomized search failure rate <= 0.45 over 300 seeds on a
     fixed n=12, r=3, eps=0.5 instance, under 1 minute
  7  normalized query counts (det: /(n*r*(1+log2 r)); rand:
     /((n+r*ceil(sqrt n))*(1+log2 r))) vary by < 4x over the grid
     n in {64,128,256,512}, r = ceil(sqrt n), eps = 0.5, under 5 minutes
  8  exhaustive oracle checks: the lifted guide is non-negative, monotone,
     submodular, and the lifted matroid is a matroid of unchanged rank,
     for every fixture with n*levels <= 16
  9  the exact-arithmetic reference search terminates with no improving
     relocate/swap move and meets (1-(1+1/L)^-L)*OPT + (1+1/L)^-L*f(empty)
     at n <= 10, levels in {1,2,3}
  10 regularized solve: f(S)+reg(S) >= (1-1/e-eps)*f(T) + reg(T) for every
     independent T on 10 small fixtures, non-negative weights, eps=0.25,
     under 1 minute
  11 identical (instance, config, seed) produce byte-identical reports
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from nols import (
    ElementSet,
    GraphicMatroid,
    GuideWeights,
    LiftedGuide,
    LiftedMatroid,
    LinearRegularizer,
    PartitionMatroid,
    QueryLedger,
    RandomSource,
    SolverConfig,
    UniformMatroid,
    brute_force_opt,
    check_matroid_axioms,
    check_value_oracle,
    exhaustive_gap,
    generate_instance,
    inner_eps,
    matroid_rank,
    min_weight_exchange,
    non_oblivious_solve,
    randomized_local_search,
    reference_local_search,
    warm_start,
)
from nols.cli import det_normalizer, rand_normalizer
from nols.cli import main as cli_main
from nols.core import CountingMatroidOracle
from nols.solvers import ceil_sqrt

from conftest import record_criterion
from suite import bait_chain, brute_forceable_suite, greedy_independent

EPS_GRID = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 5))


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    record_criterion(line)
    return line


def _truncation(levels: int) -> Fraction:
    return Fraction(levels, levels + 1) ** levels


@pytest.fixture(scope="module")
def suite():
    built = []
    for inst in brute_forceable_suite():
        f = inst.build_objective()
        m = inst.build_matroid()
        built.append((inst, f, m, brute_force_opt(f, m)))
    return built


@pytest.fixture(scope="module")
def det_runs(suite):
    """Deterministic solves of the whole suite at each eps, with wall time."""
    t0 = time.perf_counter()
    runs = {}
    for eps in EPS_GRID:
        cfg = SolverConfig(eps=float(eps), variant="deterministic")
        runs[eps] = [
            (inst, f, m, truth, non_oblivious_solve(f, m, cfg))
            for inst, f, m, truth in suite
        ]
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rand_runs(suite):
    cfg = SolverConfig(eps=0.5, variant="randomized", seed=7)
    return [
        (inst, f, m, truth, non_oblivious_solve(f, m, cfg))
        for inst, f, m, truth in suite
        if inst.n <= 10
    ]


def test_criterion_01_deterministic_bound(det_runs):
    runs, wall = det_runs
    worst = None
    count = 0
    for eps, rows in runs.items():
        for inst, f, m, truth, rep in rows:
            q = _truncation(rep.levels)
            opt = Fraction(truth.opt_value)
            empty = Fraction(f.eval(ElementSet.empty(inst.n)))
            floor = (1 - q) * opt + q * empty - eps * opt
            slack = Fraction(rep.objective_value) - floor
            worst = slack if worst is None or slack < worst else worst
            count += 1
    ok = worst >= 0 and wall < 60
    line = _report(
        1,
        ok,
        f"level-truncated floor on {count} solves "
        f"(32 instances x eps {{1/2,1/4,1/5}}), worst slack "
        f"{float(worst):.3f}, solves took {wall:.1f}s (< 60s)",
    )
    assert ok, line


def test_criterion_02_single_level_recovers_half(suite):
    t0 = time.perf_counter()
    worst = None
    count = 0
    for eps in EPS_GRID:
        cfg = SolverConfig(eps=float(eps), variant="deterministic", levels_override=1)
        for inst, f, m, truth in suite:
            rep = non_oblivious_solve(f, m, cfg)
            assert rep.levels == 1
            slack = Fraction(rep.objective_value) - (Fraction(1, 2) - eps) * Fraction(
                truth.opt_value
            )
            worst = slack if worst is None or slack < worst else worst
            count += 1
    wall = time.perf_counter() - t0
    ok = worst >= 0 and wall < 10
    line = _report(
        2,
        ok,
        f"(1/2 - eps)*OPT floor on {count} single-level solves, worst slack "
        f"{float(worst):.3f}, {wall:.1f}s (< 10s)",
    )
    assert ok, line


def test_criterion_03_warm_start_competitive(suite):
    worst = None
    for inst, f, m, truth in suite:
        s0 = warm_start(f, m)
        slack = 3 * Fraction(f.eval(s0)) - Fraction(truth.opt_value)
        worst = slack if worst is None or slack < worst else worst
    ok = worst >= 0
    line = _report(
        3,
        ok,
        f"3*f(S0) >= OPT for the warm start on 32 instances, worst slack "
        f"{float(worst):.3f}",
    )
    assert ok, line


def test_criterion_04_certificates(det_runs, rand_runs):
    runs, _ = det_runs
    certified = 0
    crosschecked = 0
    for eps, rows in runs.items():
        for inst, f, m, truth, rep in rows:
            cert = rep.certificate
            assert cert is not None
            assert cert.gap <= cert.bound
            assert cert.bound == inner_eps(rep.eps, rep.levels) * cert.warm_value
            certified += 1
    for inst, f, m, truth, rep in rand_runs:
        cert = rep.certificate
        assert cert is not None and cert.gap <= cert.bound
        certified += 1
    # exhaustive challenger cross-check on the lifted instances at n <= 10
    half = Fraction(1, 2)
    small = [row for row in runs[half] if row[0].n <= 10] + rand_runs
    for inst, f, m, truth, rep in small:
        guide = LiftedGuide(f, GuideWeights(rep.levels))
        lifted_m = LiftedMatroid(m, rep.levels)
        exact = exhaustive_gap(guide, lifted_m, rep.lifted_solution)
        assert exact == rep.certificate.gap
        crosschecked += 1
    ok = certified > 0 and crosschecked > 0
    line = _report(
        4,
        ok,
        f"gap <= eps_inner*warm_value on {certified} runs; greedy witness == "
        f"exhaustive challenger max on {crosschecked} lifted runs (float-exact)",
    )
    assert ok, line


def test_criterion_05_exchange_equivalence():
    t0 = time.perf_counter()
    rng = RandomSource(424242)
    cases = 0
    worst_excess = -(10**9)
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
        n = m.ground_size
        s = greedy_independent(m, n, rng)
        blocked = [
            u
            for u in range(n)
            if u not in s
            and m.is_independent(ElementSet.empty(n).add(u))
            and not m.is_independent(s.add(u))
        ]
        if not blocked or len(s) == 0:
            continue
        cases += 1
        v = blocked[rng.randrange(len(blocked))]
        weights = {u: rng.randrange(100) / 7.0 for u in s}
        ledger = QueryLedger()
        got = min_weight_exchange(CountingMatroidOracle(m, ledger), s, s, v, weights)
        want = min((weights[u], u) for u in s if m.is_independent(s.remove(u).add(v)))[1]
        assert got == want
        budget = (math.ceil(math.log2(len(s))) if len(s) > 1 else 0) + 2
        worst_excess = max(worst_excess, ledger.independence_queries - budget)
        assert ledger.independence_queries <= budget
    wall = time.perf_counter() - t0
    ok = wall < 10
    line = _report(
        5,
        ok,
        f"binary-search exchange == linear scan on 1000 cases, query budget "
        f"met with worst margin {-worst_excess}, {wall:.1f}s (< 10s)",
    )
    assert ok, line


def test_criterion_06_randomized_failure_rate():
    t0 = time.perf_counter()
    inst = generate_instance("coverage", 12, 3, 11)
    f, m = inst.build_objective(), inst.build_matroid()
    fails = 0
    for seed in range(300):
        res = randomized_local_search(f, m, 0.5, RandomSource(seed), attempts=1)
        if res.certificate is None:
            fails += 1
    rate = fails / 300
    wall = time.perf_counter() - t0
    ok = rate <= 0.45 and wall < 60
    line = _report(
        6,
        ok,
        f"single randomized search failed {fails}/300 times (rate {rate:.3f} "
        f"<= 0.45) on {inst.name}, {wall:.1f}s (< 60s)",
    )
    assert ok, line


def test_criterion_07_query_scaling():
    t0 = time.perf_counter()
    det_ratios = []
    rand_ratios = []
    for n in (64, 128, 256, 512):
        r = ceil_sqrt(n)
        f, m = bait_chain(n, r, seed=0)
        rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant="deterministic"))
        det_ratios.append(rep.ledger.total / det_normalizer(n, r))
        f, m = bait_chain(n, r, seed=0)
        rep = non_oblivious_solve(
            f, m, SolverConfig(eps=0.5, variant="randomized", seed=0)
        )
        assert not rep.failed
        rand_ratios.append(rep.ledger.total / rand_normalizer(n, r))
    det_spread = max(det_ratios) / min(det_ratios)
    rand_spread = max(rand_ratios) / min(rand_ratios)
    wall = time.perf_counter() - t0
    ok = det_spread < 4 and rand_spread < 4 and wall < 300
    line = _report(
        7,
        ok,
        f"normalized queries over n=64..512: deterministic spread "
        f"{det_spread:.2f}x, randomized spread {rand_spread:.2f}x (< 4x), "
        f"{wall:.0f}s (< 300s)",
    )
    assert ok, line


def test_criterion_08_lifted_structure():
    shapes = [
        ("coverage", 4, 2, 0),
        ("coverage", 5, 2, 1),
        ("modular", 4, 2, 2),
        ("modular", 8, 3, 3),
        ("partition", 4, 2, 4),
        ("partition", 8, 2, 5),
        ("graphic", 5, 2, 6),
        ("graphic", 8, 3, 7),
    ]
    checked = 0
    for family, n, r, seed in shapes:
        inst = generate_instance(family, n, r, seed)
        f, m = inst.build_objective(), inst.build_matroid()
        base_rank = matroid_rank(m)
        for levels in range(1, 16 // n + 1):
            guide = LiftedGuide(f, GuideWeights(levels))
            assert check_value_oracle(guide) == []
            lifted = LiftedMatroid(m, levels)
            assert check_matroid_axioms(lifted) == []
            assert matroid_rank(lifted) == base_rank
            checked += 1
    ok = checked > 0
    line = _report(
        8,
        ok,
        f"lifted guide non-negative/monotone/submodular and lifted matroid "
        f"axioms + rank preserved on {checked} (instance, levels) pairs "
        f"with n*levels <= 16, exhaustive",
    )
    assert ok, line


def _exact_guide(f, fractions, n, levels, part_masks):
    total = Fraction(0)
    for j in range(1, 1 << levels):
        union = 0
        for i in range(levels):
            if j >> i & 1:
                union |= part_masks[i]
        total += fractions[j.bit_count()] * Fraction(f.eval(ElementSet(n, union)))
    return total


def _no_improving_move(f, m, n, levels, parts, current) -> bool:
    """Re-verify stability against the relocate/swap move set, exactly."""
    masks = [p.mask for p in parts]
    wf = GuideWeights(levels).fractions
    union = 0
    for p in masks:
        union |= p
    members = [(u, lvl) for lvl in range(levels) for u in parts[lvl]]
    for u, lvl in members:
        for target in range(levels):
            if target == lvl:
                continue
            cand = list(masks)
            cand[lvl] &= ~(1 << u)
            cand[target] |= 1 << u
            if _exact_guide(f, wf, n, levels, cand) > current:
                return False
    for u, lvl in members:
        for v in range(n):
            if union >> v & 1:
                continue
            swapped = (union & ~(1 << u)) | (1 << v)
            if not m.is_independent(ElementSet(n, swapped)):
                continue
            for target in range(levels):
                cand = list(masks)
                cand[lvl] &= ~(1 << u)
                cand[target] |= 1 << v
                if _exact_guide(f, wf, n, levels, cand) > current:
                    return False
    return True


def test_criterion_09_reference_search(suite):
    worst = None
    stable = 0
    for inst, f, m, truth in suite:
        if inst.n > 10:
            continue
        for levels in (1, 2, 3):
            res = reference_local_search(f, m, levels)
            q = _truncation(levels)
            opt = Fraction(truth.opt_value)
            empty = Fraction(f.eval(ElementSet.empty(inst.n)))
            slack = Fraction(f.eval(res.union)) - ((1 - q) * opt + q * empty)
            worst = slack if worst is None or slack < worst else worst
            assert res.guide_value == _exact_guide(
                f, GuideWeights(levels).fractions, inst.n, levels,
                [p.mask for p in res.parts],
            )
            assert _no_improving_move(f, m, inst.n, levels, res.parts, res.guide_value)
            stable += 1
    ok = worst is not None and worst >= 0
    line = _report(
        9,
        ok,
        f"reference search swap-stable and met the exact level-truncated "
        f"floor on {stable} (instance, levels) runs at n <= 10, worst slack "
        f"{float(worst):.3f}",
    )
    assert ok, line


def test_criterion_10_regularized(suite):
    t0 = time.perf_counter()
    # rational lower bound on 1/e keeps the target at least as strict as
    # the real 1 - 1/e - eps constant
    e_inv_low = Fraction(math.exp(-1)) - Fraction(1, 10**12)
    target = 1 - e_inv_low - Fraction(1, 4)
    cfg = SolverConfig(eps=0.25, variant="deterministic")
    fixtures = [row for row in suite if row[0].n <= 10][:10]
    assert len(fixtures) == 10
    worst = None
    challengers = 0
    for idx, (inst, f, m, truth) in enumerate(fixtures):
        rng = RandomSource(900 + idx)
        reg = LinearRegularizer([rng.randrange(4) for _ in range(inst.n)])
        rep = non_oblivious_solve(f, m, cfg, regularizer=reg)
        s = rep.output_set
        lhs = Fraction(f.eval(s)) + Fraction(reg.eval(s))
        for mask in range(1 << inst.n):
            t = ElementSet(inst.n, mask)
            if not m.is_independent(t):
                continue
            rhs = target * Fraction(f.eval(t)) + Fraction(reg.eval(t))
            slack = lhs - rhs
            worst = slack if worst is None or slack < worst else worst
            challengers += 1
    wall = time.perf_counter() - t0
    ok = worst >= 0 and wall < 60
    line = _report(
        10,
        ok,
        f"f(S)+reg(S) >= (1-1/e-1/4)*f(T)+reg(T) against {challengers} "
        f"enumerated independent T on 10 fixtures, worst slack "
        f"{float(worst):.3f}, {wall:.1f}s (< 60s)",
    )
    assert ok, line


def test_criterion_11_byte_identical_reports(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert (
        cli_main(
            ["gen", "--family", "coverage", "--n", "10", "--r", "3",
             "--seed", "5", "--out", str(inst_path)]
        )
        == 0
    )
    compared = 0
    for variant, seed in (("deterministic", 0), ("randomized", 9)):
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"{variant}-{attempt}.json"
            rc = cli_main(
                ["solve", "--instance", str(inst_path), "--eps", "0.25",
                 "--variant", variant, "--seed", str(seed), "--out", str(out)]
            )
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        compared += 1
    ok = compared == 2
    line = _report(
        11,
        ok,
        "reports byte-identical across reruns for deterministic and "
        "randomized variants",
    )
    assert ok, line
