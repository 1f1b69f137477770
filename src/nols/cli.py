"""Command line front end: gen, solve, verify, bench.

Every command is a deterministic function of its arguments, the seed, and
the instance bytes (bench's wall_time column is the one exception), so
reports and instances can be diffed byte for byte across runs.

Exit codes: 0 success, 1 verification failure or bad input (one line on
stderr names the problem), 2 randomized solve that exhausted its retry
budget.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from pathlib import Path

from .instances import (
    FAMILIES,
    dumps_canonical,
    generate_instance,
    load_instance,
    parse_report,
    read_json,
    report_document,
    save_instance,
)
from .matroids import lift
from .objectives import GuideWeights, LiftedGuide
from .solvers import (
    DETERMINISTIC,
    RANDOMIZED,
    SolverConfig,
    ceil_sqrt,
    non_oblivious_solve,
)
from .verify import (
    MAX_BRUTE_FORCE,
    approximation_report,
    brute_force_opt,
    check_certificate,
)

BENCH_COLUMNS = [
    "instance",
    "n",
    "r",
    "eps",
    "variant",
    "seed",
    "f_S",
    "f_opt",
    "ratio",
    "value_queries",
    "independence_queries",
    "iterations",
    "wall_time",
    "failed",
]


def det_normalizer(n: int, r: int) -> float:
    return n * r * (1.0 + math.log2(r)) if r >= 1 else float(n)


def rand_normalizer(n: int, r: int) -> float:
    return (n + r * ceil_sqrt(n)) * (1.0 + math.log2(r)) if r >= 1 else float(n)


def cmd_gen(args) -> int:
    instance = generate_instance(args.family, args.n, args.r, args.seed)
    save_instance(instance, args.out)
    print(f"wrote {args.out} ({instance.name})")
    return 0


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    f, matroid = instance.build_objective(), instance.build_matroid()
    regularizer = instance.build_regularizer()
    config = SolverConfig(
        eps=args.eps,
        variant=args.variant,
        seed=args.seed,
        levels_override=args.levels,
    )
    report = non_oblivious_solve(f, matroid, config, regularizer=regularizer)
    text = dumps_canonical(report_document(report, instance))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if report.failed:
        print("randomized search failed on every attempt; output is empty", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    report = parse_report(read_json(args.report), instance)
    problems: list[str] = []

    def check(ok: bool, label: str):
        print(f"{'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            problems.append(label)

    f, matroid = instance.build_objective(), instance.build_matroid()
    output, levels = report.output_set, report.levels
    check(
        f.eval(output) == report.objective_value,
        "objective value matches the output set",
    )
    check(matroid.is_independent(output), "output set is independent")
    if report.failed:
        if problems:
            return 1
        print("verified (failed run, consistent)")
        return 0

    regularizer = instance.build_regularizer() if report.regularized else None
    guide = LiftedGuide(f, GuideWeights(levels), regularizer)
    lifted_matroid = lift(matroid, levels)
    lifted_solution = report.lifted_solution
    lifted_independent = lifted_matroid.is_independent(lifted_solution)
    check(lifted_independent, "lifted solution is independent in the lifted matroid")
    # a certificate is defined only at an independent lifted set (the
    # tracker cannot hold a base element on two levels)
    issues = (
        check_certificate(report.certificate, guide, lifted_matroid, lifted_solution)
        if lifted_independent
        else ["not recomputed: the lifted solution is dependent"]
    )
    check(not issues, "certificate recomputation matches" + (
        "" if not issues else f" ({'; '.join(issues)})"
    ))

    if not args.certificate_only:
        if instance.n > MAX_BRUTE_FORCE:
            check(
                False,
                f"n={instance.n} exceeds brute force scale; rerun with --certificate-only",
            )
        else:
            truth = brute_force_opt(f, matroid)
            appr = approximation_report(
                output, report.objective_value, levels, report.eps, truth
            )
            check(
                appr.passed,
                f"approximation ratio {appr.ratio:.4f} meets target "
                f"{appr.target:.4f}",
            )

    if problems:
        return 1
    print("verified")
    return 0


def bench_grid(
    family: str,
    cells: list[tuple[int, int]],
    eps_list: list[float],
    seeds: list[int],
    variants: list[str],
    out_csv: str | Path,
) -> dict:
    """Run the grid, stream rows to CSV, and return the normalized summary.

    Each (n, r) cell solves the instance generated with seed 0.

    Returns {(variant, eps): {"max": float, "min": float}} over the cells'
    mean normalized queries. Rows are written incrementally; wall_time is
    measured, everything else is deterministic.
    """
    samples: dict[tuple[str, float], dict[tuple[int, int], list[float]]] = {}
    with open(out_csv, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        handle.flush()
        for n, r in cells:
            instance = generate_instance(family, n, r, 0)
            f = instance.build_objective()
            matroid = instance.build_matroid()
            truth = None
            if n <= MAX_BRUTE_FORCE:
                truth = brute_force_opt(f, matroid)
            for eps in eps_list:
                for variant in variants:
                    for seed in seeds:
                        config = SolverConfig(eps=eps, variant=variant, seed=seed)
                        start = time.perf_counter()
                        report = non_oblivious_solve(f, matroid, config)
                        wall = time.perf_counter() - start
                        queries = report.ledger.total
                        denom = (
                            det_normalizer(n, r)
                            if variant == DETERMINISTIC
                            else rand_normalizer(n, r)
                        )
                        samples.setdefault((variant, eps), {}).setdefault(
                            (n, r), []
                        ).append(queries / denom)
                        f_opt = ratio = ""
                        if truth is not None:
                            f_opt = truth.opt_value
                            ratio = approximation_report(
                                report.output_set,
                                report.objective_value,
                                report.levels,
                                eps,
                                truth,
                            ).ratio
                        writer.writerow(
                            {
                                "instance": instance.name,
                                "n": n,
                                "r": r,
                                "eps": eps,
                                "variant": variant,
                                "seed": seed,
                                "f_S": report.objective_value,
                                "f_opt": f_opt,
                                "ratio": ratio,
                                "value_queries": report.ledger.value_queries,
                                "independence_queries": report.ledger.independence_queries,
                                "iterations": report.iterations,
                                "wall_time": f"{wall:.6f}",
                                "failed": int(report.failed),
                            }
                        )
                        handle.flush()
    summary = {}
    for key, per_cell in samples.items():
        means = [sum(vals) / len(vals) for vals in per_cell.values()]
        summary[key] = {"max": max(means), "min": min(means)}
    return summary


def cmd_bench(args) -> int:
    ns = _comma_ints(args.n)
    if args.r:
        rs = _comma_ints(args.r)
        if len(rs) == 1:
            rs = rs * len(ns)
        if len(rs) != len(ns):
            raise ValueError("--r must have one value or match --n")
    else:
        rs = [ceil_sqrt(n) for n in ns]
    cells = list(zip(ns, rs))
    eps_list = [float(x) for x in args.eps.split(",") if x] if args.eps else []
    seeds = _comma_ints(args.seeds) if args.seeds else []
    variants = [v for v in args.variants.split(",") if v] if args.variants else []
    for v in variants:
        if v not in (DETERMINISTIC, RANDOMIZED):
            raise ValueError(f"unknown variant {v!r}")
    summary = bench_grid(args.family, cells, eps_list, seeds, variants, args.out)
    for (variant, eps), stats in sorted(summary.items()):
        print(
            f"summary variant={variant} eps={eps} "
            f"max_normalized_queries={stats['max']:.6g} "
            f"min_normalized_queries={stats['min']:.6g}"
        )
    print(f"wrote {args.out}")
    return 0


def _comma_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nols",
        description=(
            "Non-oblivious local search for monotone submodular maximization "
            "under a matroid constraint."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--family", choices=FAMILIES, required=True)
    p_gen.add_argument("--n", type=int, required=True, help="ground set size")
    p_gen.add_argument("--r", type=int, required=True, help="matroid rank")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run the solver on an instance")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--eps", type=float, required=True)
    p_solve.add_argument(
        "--variant", choices=(DETERMINISTIC, RANDOMIZED), default=DETERMINISTIC
    )
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument(
        "--levels", type=int, default=None, help="override the level count"
    )
    p_solve.add_argument("--out", default=None, help="report path (stdout if unset)")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="recheck a solve report")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--report", required=True)
    p_verify.add_argument(
        "--certificate-only",
        action="store_true",
        help="skip the brute-force ratio check",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="run a benchmark grid to CSV")
    p_bench.add_argument("--family", choices=FAMILIES, default="coverage")
    p_bench.add_argument("--n", required=True, help="comma list of ground sizes")
    p_bench.add_argument(
        "--r", default=None, help="comma list of ranks (default ceil(sqrt(n)))"
    )
    p_bench.add_argument("--eps", default="0.5", help="comma list of eps values")
    p_bench.add_argument("--seeds", default="0", help="comma list of seeds")
    p_bench.add_argument(
        "--variants", default=DETERMINISTIC, help="comma list of variants"
    )
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        # bad input (a malformed or missing file, an out-of-range value), or
        # a solve that failed closed on an oracle that is not submodular
        print(f"nols {args.command}: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
