"""The three benchmark workloads: inputs, one solve, its checks and its
micro-timings.

Every input is a function of the workload seed. A round solves each item of
a workload once; runs are made of whole rounds, so per-solve means of the
exact counts do not depend on how many rounds fit in the time window.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import nols.cli
from nols import (
    RANDOMIZED,
    CoverageFunction,
    ElementSet,
    LiftedGuide,
    LocalOptCertificate,
    RandomSource,
    SolverConfig,
    UniformMatroid,
    check_certificate,
    generate_instance,
    guide_weights,
    lift,
    max_weight_independent,
    non_oblivious_solve,
    project_all,
    sample_without_replacement,
    save_instance,
)

from . import spans

# why each was chosen: see README.md
WORKLOADS = ("chain_det", "cover_rand", "graphic_cli")

# graphic_cli solves this fixed instance set, so its exact counts and its
# quality bound compare across workload seeds; the seed orders the round
GRAPHIC_SEEDS = (0, 1, 2, 3)
COVER_INSTANCE_SEED = 0
COVER_SOLVER_SEEDS = 3
# untraced rechecks per solve: at least this many, and at least this long
VERIFY_REPEATS = 3
VERIFY_SECONDS = 0.1
MAX_CALLS = 64

# Other tenants of a shared host slow it by up to 1.5x for stretches of
# seconds to minutes, so every timing is also read at a reference host
# speed: a fixed pure-Python loop is timed right before and after the
# sample, and REF_SECONDS is that loop's time on an uncontended core of the
# host the bounds were set on (an Intel Xeon, 2 vCPUs, Python 3.11).
REF_ITERATIONS = 50_000
REF_SECONDS = 0.005


def bait_chain(n: int, r: int, seed: int, patch: int = 100, bite: int = 51):
    """Coverage instance whose greedy warm start swallows a chain of baits.

    r disjoint patches of `patch` points sit at the top of the element
    range; each of the r-1 baits covers `bite` points of two neighbouring
    patches, so a bait's singleton value beats a patch and local search must
    swap the baits out one at a time. The n - (2r - 1) low elements are junk
    singletons on 4 * (their count) extra points, one random point each.
    """
    if n < 2 * r:
        raise ValueError("need n >= 2r for the chain construction")
    junk_count = n - (2 * r - 1)
    junk_points = max(4 * junk_count, 1)
    first_junk = r * patch
    rng = RandomSource(seed)
    covers = [[first_junk + rng.randrange(junk_points)] for _ in range(junk_count)]
    for j in range(r - 1):
        left, right = j * patch, (j + 1) * patch
        covers.append([*range(left, left + bite), *range(right, right + bite)])
    covers += [list(range(i * patch, (i + 1) * patch)) for i in range(r)]
    return CoverageFunction(first_junk + junk_points, covers), UniformMatroid(n, r)


def quality_lower_bound(f, matroid, s: ElementSet) -> float:
    """Certified lower bound on f(S) / f(OPT) for monotone submodular f.

    f(OPT) <= f(S) + sum over OPT of f(v | S) <= f(S) + max over independent
    T of sum_{v in T} f(v | S) (Leskovec et al., KDD 2007); greedy finds
    the max exactly over a matroid. Costs n + 1 value and at most n
    independence queries on the oracles given, which should be uncounted.
    """
    fs = f.eval(s)
    weights = [0.0 if u in s else f.eval(s.add(u)) - fs for u in range(f.ground_size)]
    challenger = max_weight_independent(matroid, weights)
    bound = fs + sum(weights[u] for u in challenger)
    return fs / bound if bound > 0 else 1.0


@dataclass
class Item:
    """One solve of a round. instance_path is set for solves through the CLI."""

    label: str
    f: object
    matroid: object
    config: SolverConfig
    instance_path: Path | None = None


@dataclass(frozen=True)
class Sample:
    """A wall time, and the same time at the reference host speed."""

    wall_s: float
    scaled_s: float


@dataclass
class Outcome:
    output: ElementSet
    lifted: ElementSet | None
    objective_value: float
    value_queries: int
    independence_queries: int
    iterations: int
    failed: bool
    certificate: LocalOptCertificate | None
    levels: int
    solve: list[Sample]
    verify: list[Sample]
    issues: list[str] = field(default_factory=list)
    quality_lb: float | None = None

    def replay_key(self) -> tuple:
        """What a traced rerun of the same item must reproduce exactly."""
        return (
            self.output.mask,
            None if self.lifted is None else self.lifted.mask,
            self.value_queries,
            self.independence_queries,
            self.iterations,
            self.failed,
        )


def build_items(workload: str, seed: int, workdir: Path) -> list[Item]:
    if workload == "chain_det":
        f, m = bait_chain(512, 23, seed)
        return [Item(f"bait_chain-n512-r23-s{seed}", f, m, SolverConfig(eps=0.5))]
    if workload == "cover_rand":
        inst = generate_instance("coverage", 64, 8, COVER_INSTANCE_SEED)
        f, m = inst.build_objective(), inst.build_matroid()
        rng = RandomSource(seed)
        return [
            Item(
                f"{inst.name}/solver-seed-{solver_seed}",
                f,
                m,
                SolverConfig(eps=0.5, variant=RANDOMIZED, seed=solver_seed),
            )
            for solver_seed in (rng.next_u64() for _ in range(COVER_SOLVER_SEEDS))
        ]
    if workload == "graphic_cli":
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for instance_seed in GRAPHIC_SEEDS:
            inst = generate_instance("graphic", 256, 16, instance_seed)
            path = workdir / f"{inst.name}.json"
            save_instance(inst, path)
            items.append(
                Item(
                    inst.name,
                    inst.build_objective(),
                    inst.build_matroid(),
                    SolverConfig(eps=0.25),
                    path,
                )
            )
        RandomSource(seed).shuffle(items)
        return items
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ----- one solve -----


def _reference_loop() -> int:
    acc = 0
    for i in range(REF_ITERATIONS):
        acc ^= (acc << 1 | i) & 0xFFFF
    return acc


def host_speed_seconds() -> float:
    """Fastest of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _reference_loop()
        best = min(best, perf_counter() - start)
    return best


def scaled(wall_s: float, before: float, after: float) -> Sample:
    return Sample(wall_s, wall_s * 2 * REF_SECONDS / (before + after))


def timed(call, repeats: int = 1, min_seconds: float = 0.0):
    """Call at least `repeats` times and until `min_seconds` of calls (at
    most MAX_CALLS), each from a freshly collected heap, between two
    readings of the host speed.
    Returns the last result and one Sample per call."""
    walls = []
    before = host_speed_seconds()
    while len(walls) < repeats or (sum(walls) < min_seconds and len(walls) < MAX_CALLS):
        gc.collect()
        start = perf_counter()
        result = call()
        walls.append(perf_counter() - start)
    after = host_speed_seconds()
    return result, [scaled(wall, before, after) for wall in walls]


def _verify_repeats(tracer) -> tuple[int, float]:
    # a traced recheck runs once: its spans are summed per solve
    return (1, 0.0) if tracer else (VERIFY_REPEATS, VERIFY_SECONDS)


def run_library(item: Item, tracer: spans.Tracer | None = None) -> Outcome:
    """non_oblivious_solve, then the certificate recheck on the lifted
    instance; with a tracer, both run on traced oracles inside spans."""
    f, matroid = item.f, item.matroid
    solve, check = non_oblivious_solve, check_certificate
    if tracer is not None:
        f = spans.TracedValueOracle(f, tracer)
        matroid = spans.TracedMatroid(matroid, tracer, spans.INDEP)
        solve = tracer.wrap(spans.SOLVE, solve)
        check = tracer.wrap(spans.CHECK, check)
    report, solve_samples = timed(lambda: solve(f, matroid, item.config))
    verify_samples, issues = [], []
    if report.certificate is not None:
        guide = LiftedGuide(f, guide_weights(report.levels))
        lifted_matroid = lift(matroid, report.levels)
        issues, verify_samples = timed(
            lambda: check(report.certificate, guide, lifted_matroid, report.lifted_solution),
            *_verify_repeats(tracer),
        )
    return Outcome(
        output=report.output_set,
        lifted=report.lifted_solution,
        objective_value=report.objective_value,
        value_queries=report.ledger.value_queries,
        independence_queries=report.ledger.independence_queries,
        iterations=report.iterations,
        failed=report.failed,
        certificate=report.certificate,
        levels=report.levels,
        solve=solve_samples,
        verify=verify_samples,
        issues=issues,
    )


def run_cli(item: Item, tracer: spans.Tracer | None = None) -> Outcome:
    """`nols solve` then `nols verify --certificate-only`, in-process. With a
    tracer, call inside spans.instrument so the CLI's library calls are
    traced too."""
    solve_main = verify_main = nols.cli.main
    if tracer is not None:
        solve_main = tracer.wrap(spans.CLI_SOLVE, solve_main)
        verify_main = tracer.wrap(spans.CLI_VERIFY, verify_main)
    inst = str(item.instance_path)
    report_path = item.instance_path.with_suffix(".report.json")
    config = item.config
    argv = ["solve", "--instance", inst, "--eps", repr(config.eps),
            "--variant", config.variant, "--seed", str(config.seed),
            "--out", str(report_path)]
    solve_rc, solve_samples = timed(lambda: solve_main(argv))
    doc = json.loads(report_path.read_text())
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        verify_rc, verify_samples = timed(
            lambda: verify_main(["verify", "--instance", inst, "--report",
                                 str(report_path), "--certificate-only"]),
            *_verify_repeats(tracer),
        )
    issues = []
    if solve_rc != 0 and not doc["failed"]:
        issues.append(f"nols solve exited {solve_rc}")
    if verify_rc != 0:
        issues.append(f"nols verify exited {verify_rc}: {printed.getvalue().strip()}")

    n, levels = item.f.ground_size, doc["levels"]
    cert = doc["certificate"]
    return Outcome(
        output=ElementSet.from_iterable(n, doc["output_set"]),
        lifted=(
            None
            if doc["lifted_solution"] is None
            else ElementSet.from_iterable(n * levels, doc["lifted_solution"])
        ),
        objective_value=doc["objective_value"],
        value_queries=doc["value_queries"],
        independence_queries=doc["independence_queries"],
        iterations=doc["iterations"],
        failed=doc["failed"],
        certificate=(
            None
            if cert is None
            else LocalOptCertificate(
                witness=ElementSet.from_iterable(n * levels, cert["witness"]),
                gap=cert["gap"],
                bound=cert["bound"],
                eps=cert["eps"],
                warm_value=cert["warm_value"],
            )
        ),
        levels=levels,
        solve=solve_samples,
        verify=verify_samples,
        issues=issues,
    )


def run_item(item: Item, tracer: spans.Tracer | None = None) -> Outcome:
    run = run_library if item.instance_path is None else run_cli
    out = run(item, tracer)
    if not out.failed:
        with tracer.span(spans.QUALITY) if tracer else contextlib.nullcontext():
            out.quality_lb = quality_lower_bound(item.f, item.matroid, out.output)
    return out


def gate(item: Item, out: Outcome) -> list[str]:
    """Correctness checks on one solve, against the uncounted base oracles.

    A randomized solve may fail (that is counted, not an error) but must then
    report the empty set and no certificate.
    """
    issues = list(out.issues)
    if out.failed:
        if item.config.variant != RANDOMIZED:
            issues.append("deterministic solve reported failed")
        if len(out.output) or out.certificate is not None:
            issues.append("failed solve reports a non-empty set or a certificate")
        return issues
    levels = out.levels
    lifted_matroid = lift(item.matroid, levels)
    if item.instance_path is not None:
        guide = LiftedGuide(item.f, guide_weights(levels))
        issues += check_certificate(out.certificate, guide, lifted_matroid, out.lifted)
    if not lifted_matroid.is_independent(out.lifted):
        issues.append("lifted solution is dependent")
    if not item.matroid.is_independent(out.output):
        issues.append("output set is dependent")
    if project_all(out.lifted, levels) != out.output:
        issues.append("output set is not the projection of the lifted solution")
    if item.f.eval(out.output) != out.objective_value:
        issues.append("objective_value differs from f(output_set)")
    return issues


# ----- micro-timings -----


def _per_call_us(op, inputs: list, min_seconds: float = 0.05) -> float:
    """Median over timed passes of one pass's time per call, after one
    warm-up pass; passes repeat until min_seconds and at least five."""
    for x in inputs:
        op(x)
    passes = []
    total = 0.0
    while len(passes) < 5 or total < min_seconds:
        start = perf_counter()
        for x in inputs:
            op(x)
        took = perf_counter() - start
        passes.append(took / len(inputs))
        total += took
    return statistics.median(passes) * 1e6


def micro_timings(item: Item, levels: int, seed: int, sets: int = 64) -> dict:
    """Time per query at |S| = r on the item's instance, on sets drawn from
    the workload seed: random bases, placed on random levels when lifted."""
    f, matroid = item.f, item.matroid
    n = f.ground_size
    rng = RandomSource(seed ^ 0x5EED)
    bases = []
    for _ in range(sets):
        order = list(range(n))
        rng.shuffle(order)
        base = ElementSet.empty(n)
        for u in order:
            if matroid.is_independent(base.add(u)):
                base = base.add(u)
        bases.append(base)
    lifted_bases = [
        ElementSet.from_iterable(n * levels, (u * levels + rng.randrange(levels) for u in b))
        for b in bases
    ]
    lifted_ground = ElementSet.full(n * levels)
    lifted_sets = [sample_without_replacement(rng, lifted_ground, len(b)) for b in bases]
    lifted_matroid = lift(matroid, levels)
    guide = LiftedGuide(f, guide_weights(levels))
    adds, drops = [], []
    for b in lifted_bases:
        tracker = guide.make_tracker(b)
        occupied = project_all(b, levels)
        outside = [x for x in range(n * levels) if x // levels not in occupied]
        members = b.to_list()
        adds.append((tracker, outside[rng.randrange(len(outside))]))
        drops.append((tracker, members[rng.randrange(len(members))]))

    def iterate(s):
        for _ in s:
            pass

    return {
        "core.iter_us": _per_call_us(iterate, lifted_sets),
        "objectives.eval.us": _per_call_us(f.eval, bases),
        "matroids.indep.us": _per_call_us(matroid.is_independent, bases),
        "matroids.lifted.us": _per_call_us(lifted_matroid.is_independent, lifted_bases),
        "objectives.tracker.add_us": _per_call_us(lambda p: p[0].marginal_add(p[1]), adds),
        "objectives.tracker.drop_us": _per_call_us(lambda p: p[0].marginal_drop(p[1]), drops),
    }
