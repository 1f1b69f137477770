import math
import re
from dataclasses import replace

import pytest

from nols.core import (
    CountingMatroidOracle,
    CountingValueOracle,
    ElementSet,
    QueryLedger,
    RandomSource,
)
from nols.instances import generate_instance
from nols.matroids import ExplicitMatroid, UniformMatroid, lift
from nols.objectives import (
    GuideWeights,
    LiftedGuide,
    ModularFunction,
    make_tracker,
)
from nols.solvers import (
    DETERMINISTIC,
    LocalOptCertificate,
    SolverConfig,
    inner_eps,
    non_oblivious_solve,
)
from nols.verify import (
    approximation_report,
    brute_force_opt,
    check_certificate,
    check_matroid_axioms,
    check_value_oracle,
    exhaustive_gap,
    reference_local_search,
)
from suite import FamilyMatroid, tiny_coverage


def _es(n, items):
    return ElementSet.from_iterable(n, items)


class SquaredCardinality:
    """f(S) = |S|^2: monotone but supermodular, for negative tests."""

    def __init__(self, n):
        self.ground_size = n

    def eval(self, s):
        return len(s) ** 2


class NoisyCoverage:
    """Coverage with one non-monotone dip, for negative tests."""

    def __init__(self, inner, poison_mask):
        self.inner = inner
        self.ground_size = inner.ground_size
        self.poison = poison_mask

    def eval(self, s):
        if s.mask == self.poison:
            return 0
        return self.inner.eval(s)


def test_brute_force_on_tiny_fixture():
    f, m = tiny_coverage()
    truth = brute_force_opt(f, m)
    assert truth.opt_value == 5
    assert truth.opt_set == _es(4, [1, 3])
    with pytest.raises(ValueError):
        brute_force_opt(f, UniformMatroid(5, 2))


def test_brute_force_scale_guard():
    f = ModularFunction([1] * 23)
    m = UniformMatroid(23, 2)
    with pytest.raises(ValueError):
        brute_force_opt(f, m)


def test_certificate_gap_zero_at_modular_optimum():
    f = ModularFunction([3, 1, 4, 1, 5])
    m = UniformMatroid(5, 2)
    # at the true optimum
    cert = LocalOptCertificate.at(make_tracker(f, _es(5, [2, 4])), m, 0.0, 0.0)
    assert cert.gap == 0.0
    assert cert.witness == _es(5, [2, 4])
    worse = LocalOptCertificate.at(make_tracker(f, _es(5, [1, 3])), m, 0.0, 0.0)
    assert worse.gap == 7.0  # witness {2,4} scores 9, current scores 2


def test_exhaustive_gap_agrees_with_greedy_witness():
    rng = RandomSource(13)
    for trial in range(50):
        n = 4 + rng.randrange(5)
        f = ModularFunction([rng.randrange(20) for _ in range(n)])
        m = UniformMatroid(n, 1 + rng.randrange(3))
        s = ElementSet.from_iterable(
            n, [u for u in range(n) if rng.randrange(3) == 0][: 2]
        )
        cert = LocalOptCertificate.at(make_tracker(f, s), m, 0.0, 0.0)
        assert exhaustive_gap(f, m, s) == pytest.approx(cert.gap, abs=1e-9)


def test_exhaustive_gap_on_lifted_instance():
    f, m = tiny_coverage()
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=DETERMINISTIC, seed=0))
    guide = LiftedGuide(f, GuideWeights(rep.levels))
    lifted_m = lift(m, rep.levels)
    tracker = make_tracker(guide, rep.lifted_solution)
    cert = LocalOptCertificate.at(tracker, lifted_m, 0.0, 0.0)
    assert cert.gap == pytest.approx(rep.certificate.gap, abs=0)
    assert exhaustive_gap(guide, lifted_m, rep.lifted_solution) == pytest.approx(
        cert.gap, abs=1e-9
    )


def test_solver_gap_within_eps_of_warm_value():
    # the certified inequality: no challenger beats the output by more than
    # eps_inner times the warm start's guide value
    f, m = tiny_coverage()
    for eps in (0.5, 0.25):
        rep = non_oblivious_solve(f, m, SolverConfig(eps=eps, variant=DETERMINISTIC, seed=0))
        cert = rep.certificate
        assert cert.gap <= cert.bound + 1e-9
        assert cert.bound == pytest.approx(inner_eps(rep.eps, rep.levels) * cert.warm_value)
        assert cert.passes()


def test_matroid_axiom_checker_accepts_real_matroids():
    assert check_matroid_axioms(UniformMatroid(5, 2)) == []
    good = ExplicitMatroid(3, [0b000, 0b001, 0b010, 0b100, 0b011, 0b101])
    assert check_matroid_axioms(good) == []


def test_matroid_axiom_checker_catches_exchange_violation():
    # {0,1} independent but neither {2,0} nor {2,1} independent: the
    # singleton {2} cannot be grown, violating exchange
    bad = FamilyMatroid(3, [0b000, 0b001, 0b010, 0b100, 0b011])
    issues = check_matroid_axioms(bad)
    assert issues
    assert any("exchange" in msg for msg in issues)


def test_matroid_axiom_checker_catches_downward_violation():
    bad = FamilyMatroid(2, [0b00, 0b11])
    issues = check_matroid_axioms(bad)
    assert any("downward closure" in msg for msg in issues)


def test_value_oracle_checker_accepts_submodular():
    f, _ = tiny_coverage()
    assert check_value_oracle(f) == []
    guide = LiftedGuide(f, GuideWeights(2))
    assert check_value_oracle(guide) == []


def test_value_oracle_checker_catches_supermodular():
    issues = check_value_oracle(SquaredCardinality(5))
    assert any("submodularity" in msg for msg in issues)


def test_value_oracle_checker_catches_non_monotone():
    f, _ = tiny_coverage()
    noisy = NoisyCoverage(f, poison_mask=0b1010)
    issues = check_value_oracle(noisy)
    assert any("monotonicity" in msg for msg in issues)


class _SlightlyNegativeEmpty:
    """f(empty) = -1e-12, f(S) = min(|S|, 1) otherwise: negative only by
    rounding noise, well inside the comparison slack."""

    def __init__(self, n):
        self.ground_size = n

    def eval(self, s):
        return -1e-12 if len(s) == 0 else float(min(len(s), 1))


@pytest.mark.parametrize("n", [16])  # the largest size the check takes
def test_value_oracle_checker_gives_one_negativity_verdict_at_every_size(n):
    assert check_value_oracle(_SlightlyNegativeEmpty(n)) == []


class _Modular:
    """f(S) = offset + slope * |S|: modular, so submodular whatever the
    sign of either coefficient."""

    def __init__(self, n, offset, slope):
        self.ground_size = n
        self.offset = offset
        self.slope = slope

    def eval(self, s):
        return self.offset + self.slope * len(s)


def test_value_oracle_checker_catches_a_negative_value_exhaustively():
    assert check_value_oracle(_Modular(3, -1, 1)) == ["negative value at {}"]


def _approximation(rep, truth):
    return approximation_report(
        rep.output_set, rep.objective_value, rep.levels, rep.eps, truth
    )


def test_approximation_report_conventions():
    f, m = tiny_coverage()
    truth = brute_force_opt(f, m)
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.25, variant=DETERMINISTIC, seed=0))
    report = _approximation(rep, truth)
    assert report.passed
    assert report.ratio == pytest.approx(rep.objective_value / truth.opt_value)
    q = (rep.levels / (rep.levels + 1)) ** rep.levels
    assert report.target == pytest.approx(1 - q - 0.25)
    zero_truth = brute_force_opt(ModularFunction([0, 0]), UniformMatroid(2, 1))
    zero_rep = non_oblivious_solve(
        ModularFunction([0, 0]),
        UniformMatroid(2, 1),
        SolverConfig(eps=0.25, variant=DETERMINISTIC, seed=0),
    )
    assert _approximation(zero_rep, zero_truth).ratio == 1.0
    with pytest.raises(ValueError):
        _approximation(rep, zero_truth)


def test_check_certificate_detects_tampering():
    f, m = tiny_coverage()
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=DETERMINISTIC, seed=0))
    guide = LiftedGuide(f, GuideWeights(rep.levels))
    lifted_m = lift(m, rep.levels)
    assert check_certificate(rep.certificate, guide, lifted_m, rep.lifted_solution) == []
    from dataclasses import replace

    forged = replace(rep.certificate, gap=rep.certificate.gap - 1.0)
    issues = check_certificate(forged, guide, lifted_m, rep.lifted_solution)
    assert issues


def test_check_certificate_starts_cold():
    # a recheck pays for every query it asks, even when an earlier recheck
    # filled the memos of the guide and lifted matroid it is handed
    f, m = tiny_coverage()
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, variant=DETERMINISTIC))
    ledger = QueryLedger()
    guide = LiftedGuide(CountingValueOracle(f, ledger), GuideWeights(rep.levels))
    lifted_m = lift(CountingMatroidOracle(m, ledger), rep.levels)
    charged = []
    for _ in range(2):
        before = replace(ledger)
        assert check_certificate(rep.certificate, guide, lifted_m, rep.lifted_solution) == []
        charged.append(
            (
                ledger.value_queries - before.value_queries,
                ledger.independence_queries - before.independence_queries,
            )
        )
    assert charged[0] == charged[1]
    assert min(charged[0]) > 0


def _unfinished_certificate(warm_value):
    # at {0} the challenger {2} gains 3 - 1: gap 2, bound 0.5 * warm_value
    f, m, s = ModularFunction([1, 2, 3]), UniformMatroid(3, 1), _es(3, [0])
    certificate = LocalOptCertificate.at(make_tracker(f, s), m, 0.5, warm_value)
    assert (certificate.gap, certificate.witness) == (2, _es(3, [2]))
    return certificate, f, m, s


def test_check_certificate_names_a_forged_witness():
    certificate, f, m, s = _unfinished_certificate(10.0)
    forged = replace(certificate, witness=_es(3, [1]))
    assert check_certificate(forged, f, m, s) == ["witness mismatch"]


@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("family", ["coverage", "partition", "graphic"])
def test_check_certificate_trusts_no_rank(family, levels):
    # a certificate whose greedy stopped at |s| for an s that is not a base
    # is rejected: the recheck runs the full greedy, which grows past |s|
    # on these non-negative weights; a real solve's certificate, whose
    # greedy stopped at the rank, rechecks clean
    instance = generate_instance(family, 10, 3, 0)
    f, m = instance.build_objective(), instance.build_matroid()
    rep = non_oblivious_solve(f, m, SolverConfig(eps=0.5, levels_override=levels))
    guide, lifted = LiftedGuide(f, GuideWeights(levels)), lift(m, levels)
    assert check_certificate(rep.certificate, guide, lifted, rep.lifted_solution) == []
    s = rep.lifted_solution
    s = s.remove(s.to_list()[-1])  # independent, one short of a base
    certificate = LocalOptCertificate.at(
        make_tracker(guide, s), lifted, 0.5, rep.certificate.warm_value, rank=len(s)
    )
    assert "witness mismatch" in check_certificate(certificate, guide, lifted, s)


def test_check_certificate_names_a_forged_bound():
    certificate, f, m, s = _unfinished_certificate(10.0)
    forged = replace(certificate, bound=6.0)
    assert check_certificate(forged, f, m, s) == [
        "bound mismatch: stored 6.0, eps * warm_value = 5.0"
    ]


@pytest.mark.parametrize(
    "stored_gap, warm_value, mismatch, gap, bound",
    [
        (None, 1.0, [], "2.0", "0.5"),
        (math.inf, 1.0, ["gap mismatch: recomputed 2.0, stored inf"], "inf", "0.5"),
        (math.nan, 1.0, ["gap mismatch: recomputed 2.0, stored nan"], "nan", "0.5"),
        (None, math.nan, [], "2.0", "nan"),
    ],
    ids=["finite", "infinite", "nan", "nan-bound"],
)
def test_check_certificate_names_a_certificate_that_does_not_pass(
    stored_gap, warm_value, mismatch, gap, bound
):
    # the recomputed gap, 2.0, exceeds the bound; a stored infinite or NaN
    # gap, which f's finite values cannot produce, passes no bound and no
    # gap passes a NaN bound, and a recomputed NaN bound matches a stored one
    f, m, s = ModularFunction([1, 2, 3]), UniformMatroid(3, 1), _es(3, [0])
    certificate = LocalOptCertificate.at(make_tracker(f, s), m, 0.5, warm_value)
    if stored_gap is not None:
        certificate = replace(certificate, gap=stored_gap)
    assert check_certificate(certificate, f, m, s) == mismatch + [
        f"certificate does not pass: gap {gap} exceeds bound {bound}"
    ]


@pytest.mark.parametrize(
    "check, message",
    [
        (
            lambda: reference_local_search(ModularFunction([1] * 17), UniformMatroid(17, 1), 2),
            "reference search capped at n <= 16",
        ),
        (
            lambda: reference_local_search(ModularFunction([1] * 7), UniformMatroid(7, 7), 2),
            "reference search capped at rank <= 6",
        ),
        (
            lambda: exhaustive_gap(
                ModularFunction([1] * 65), UniformMatroid(65, 1), ElementSet(65)
            ),
            "exhaustive gap capped at n <= 64",
        ),
        (
            lambda: check_matroid_axioms(UniformMatroid(17, 1)),
            "axiom check capped at n <= 16",
        ),
        (
            lambda: check_value_oracle(_SlightlyNegativeEmpty(17)),
            "value oracle check capped at n <= 16",
        ),
    ],
    ids=[
        "reference-ground", "reference-rank", "gap-ground", "axioms-ground",
        "value-oracle-ground",
    ],
)
def test_scale_caps_name_the_limit(check, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check()
