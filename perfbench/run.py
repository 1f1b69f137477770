"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain_det --seed 1 --seconds 30 --trace 0

With --trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it first solves untraced for 40% of the window, then replays the
same solves traced, checks that they reproduce outputs and query counts
exactly, and reports the per-layer metrics. Every solve passes the
correctness gate or the run exits 1. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Spans and a full
result record are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 5
# share of --seconds a traced run solves untraced; the traced replay of the
# same rounds costs 1.2-1.5x, so the whole run takes about --seconds
UNTRACED_SHARE = 0.4
IMPORT_PROBE = (
    "import time\nt = time.perf_counter()\nimport nols.cli\n"
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "solve_s": "s",
    "verify_s": "s",
    "value_queries": "count",
    "independence_queries": "count",
    "quality_lb": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.iter_us": "us",
    "core.sample.calls": "count",
    "core.sample.s": "s",
    "core.self_s": "s",
    "objectives.eval.calls": "count",
    "objectives.eval.s": "s",
    "objectives.eval.us": "us",
    "objectives.tracker.marginals": "count",
    "objectives.tracker.applies": "count",
    "objectives.tracker.self_s": "s",
    "objectives.tracker.inner_per_marginal": "count",
    "objectives.tracker.add_us": "us",
    "objectives.tracker.drop_us": "us",
    "objectives.self_s": "s",
    "matroids.indep.calls": "count",
    "matroids.indep.s": "s",
    "matroids.indep.us": "us",
    "matroids.lifted.calls": "count",
    "matroids.lifted.singleton_calls": "count",
    "matroids.lifted.self_s": "s",
    "matroids.lifted.us": "us",
    "matroids.exchange.calls": "count",
    "matroids.exchange.s": "s",
    "matroids.exchange.indep_per_call": "count",
    "matroids.extend.s": "s",
    "matroids.self_s": "s",
    "solvers.warm_start.s": "s",
    "solvers.warm_start.value_queries": "count",
    "solvers.warm_start.independence_queries": "count",
    "solvers.scans": "count",
    "solvers.swaps": "count",
    "solvers.swap_yield": "ratio",
    "solvers.attempts": "count",
    "solvers.attempts_failed": "count",
    "solvers.certificate.s": "s",
    "solvers.certificate.value_queries": "count",
    "solvers.self_s": "s",
    "verify.check_certificate.s": "s",
    "verify.quality_bound.s": "s",
    "instances.load.s": "s",
    "cli.solve.overhead_s": "s",
    "cli.verify.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def _import_program():
    """Import nols from this checkout's src/ and nowhere else."""
    if not (SRC / "nols" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nols sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import nols

    if Path(nols.__file__).resolve().parent != SRC / "nols":
        sys.exit(f"perfbench: imported nols from {nols.__file__}, not {SRC}")
    return nols


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def _import_seconds() -> float:
    """Time `import nols.cli` in a fresh interpreter, as a user pays it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def set_up(workloads, workload: str, seed: int):
    """Import plus input generation, repeated; returns the last inputs and
    one Sample per repeat."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = workloads.host_speed_seconds()
        import_s = _import_seconds()
        start = perf_counter()
        items = workloads.build_items(workload, seed, OUT / workload)
        wall = import_s + perf_counter() - start
        samples.append(workloads.scaled(wall, before, workloads.host_speed_seconds()))
    return items, samples


def run_rounds(workloads, items, *, seconds=None, rounds=None, tracer=None):
    """Solve every item once per round; stop after `rounds` rounds or at
    the first round end past `seconds`. Returns (item, outcome) pairs, the
    tracer index window of each, and the round count."""
    pairs, windows = [], []
    deadline = perf_counter() + (seconds or 0.0)
    done = 0
    while True:
        for item in items:
            lo = len(tracer.name) if tracer else 0
            pairs.append((item, workloads.run_item(item, tracer)))
            windows.append((lo, len(tracer.name) if tracer else 0))
        done += 1
        if done == rounds or (rounds is None and perf_counter() >= deadline):
            return pairs, windows, done


def gate_all(workloads, pairs) -> tuple[list[str], int]:
    """Gate every solve; returns the issues and the number of solves that
    returned failed=True or failed a check."""
    issues, failed = [], 0
    for item, out in pairs:
        found = workloads.gate(item, out)
        failed += out.failed or bool(found)
        issues += [f"{item.label}: {msg}" for msg in found]
    return issues, failed


def _item_mean(pairs, field) -> tuple[float, str]:
    """Mean over items of each item's mean time at reference host speed.

    Items are averaged separately so that every item of a round weighs the
    same. The mean, not the median, is taken: the scaled samples carry
    two-sided residual noise, on which the mean of ten runs spread about
    half as much as the median did.
    """
    per_item: dict[str, list] = {}
    for item, out in pairs:
        per_item.setdefault(item.label, []).extend(getattr(out, field))
    per_item = {label: v for label, v in per_item.items() if v}
    if not per_item:
        return 0.0, "no samples"

    def mean(attr):
        return statistics.fmean(
            statistics.fmean(getattr(x, attr) for x in v) for v in per_item.values()
        )

    counts = "/".join(str(len(v)) for v in per_item.values())
    return mean("scaled_s"), (
        f"mean over {len(per_item)} items of the mean of {counts} samples; "
        f"wall {mean('wall_s'):.6g} s"
    )


def end_to_end(pairs, setup_samples) -> dict:
    outs = [out for _, out in pairs]
    solved = [out for out in outs if not out.failed]
    return {
        "solve_s": _item_mean(pairs, "solve"),
        "verify_s": _item_mean(pairs, "verify"),
        "value_queries": (
            statistics.fmean(out.value_queries for out in outs),
            f"mean of {len(outs)} solves",
        ),
        "independence_queries": (
            statistics.fmean(out.independence_queries for out in outs),
            f"mean of {len(outs)} solves",
        ),
        "quality_lb": (
            min((out.quality_lb for out in solved), default=0.0),
            f"min over {len(solved)} solves",
        ),
        "setup_s": (
            statistics.median(x.scaled_s for x in setup_samples),
            f"median of {len(setup_samples)} set-ups; wall "
            f"{statistics.median(x.wall_s for x in setup_samples):.6g} s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ru_maxrss of this process",
        ),
    }


def per_layer(untraced, traced, breakdowns, micro) -> dict:
    outs = [out for _, out in traced]
    count = len(breakdowns)

    def mean(key):
        return sum(b[key] for b in breakdowns) / count

    def ratio(num, den):
        den_total = sum(b[den] for b in breakdowns)
        return sum(b[num] for b in breakdowns) / den_total if den_total else 0.0

    def layer(name):
        return sum(b["layer_self"].get(name, 0.0) for b in breakdowns) / count

    plain = [k for k in PER_LAYER_UNITS if k in breakdowns[0]]
    metrics = {k: (mean(k), f"mean per solve over {count}") for k in plain}
    metrics.update({k: (v, "median per call, |S| = r") for k, v in micro.items()})
    untraced_s, _ = _item_mean(untraced, "solve")
    traced_s, _ = _item_mean(traced, "solve")
    attempts_failed = sum(
        b["solvers.attempts"] - (0 if out.failed else 1)
        for b, out in zip(breakdowns, outs)
    )
    metrics.update(
        {
            "core.self_s": (layer("core"), "mean per solve"),
            "objectives.self_s": (layer("objectives"), "mean per solve"),
            "matroids.self_s": (layer("matroids"), "mean per solve"),
            "objectives.tracker.inner_per_marginal": (
                ratio("inner_evals", "objectives.tracker.marginals"),
                "inner value queries per tracker marginal",
            ),
            "matroids.exchange.indep_per_call": (
                ratio("exchange_queries", "matroids.exchange.calls"),
                "lifted independence queries per exchange search",
            ),
            "solvers.scans": (
                statistics.fmean(out.iterations for out in outs),
                "mean scans (deterministic) or iterations (randomized) per solve",
            ),
            "solvers.swap_yield": (
                ratio("solvers.swaps", "matroids.exchange.calls"),
                "swaps per exchange search",
            ),
            "solvers.attempts_failed": (attempts_failed / count, "mean per solve"),
            "trace.overhead_frac": (
                traced_s / untraced_s - 1.0,
                f"traced / untraced solve_s - 1, {count} solves each",
            ),
        }
    )
    return {k: metrics[k] for k in PER_LAYER_UNITS}


def traced_checks(untraced, traced, breakdowns) -> tuple[list[str], int]:
    """The traced replay must match the untraced solves exactly, the span
    counts must match the ledger, and the layer self times must add up to
    the traced solve wall time. Returns the issues and the number of traced
    solves that returned failed=True or failed a check."""
    issues, failed = [], 0
    for (item, plain), (_, out), b in zip(untraced, traced, breakdowns):
        before = len(issues)
        if plain.replay_key() != out.replay_key():
            issues.append(f"{item.label}: traced solve differs from the untraced one")
        if b["objectives.eval.calls"] != out.value_queries:
            issues.append(
                f"{item.label}: {b['objectives.eval.calls']} eval spans, "
                f"ledger says {out.value_queries} value queries"
            )
        if b["matroids.indep.calls"] != out.independence_queries:
            issues.append(
                f"{item.label}: {b['matroids.indep.calls']} independence spans, "
                f"ledger says {out.independence_queries}"
            )
        layers = sum(b["layer_self"].values())
        if abs(layers - b["top_s"]) > 1e-6 * max(1.0, b["top_s"]):
            issues.append(
                f"{item.label}: layer self times sum to {layers}, solve took {b['top_s']}"
            )
        failed += out.failed or len(issues) > before
    return issues, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nols = _import_program()
    import numpy

    from perfbench import spans, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    meta = metadata(args, numpy.__version__)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)
    items, setup_samples = set_up(workloads, args.workload, args.seed)

    if not args.trace:
        pairs, _, rounds = run_rounds(workloads, items, seconds=args.seconds)
        issues, failed = gate_all(workloads, pairs)
        metrics = end_to_end(pairs, setup_samples)
        units = END_TO_END_UNITS
        print(f"failed_frac = {failed / len(pairs):.6g} ratio ({failed} of "
              f"{len(pairs)} solves returned failed=True or failed a check)")
    else:
        untraced, _, rounds = run_rounds(
            workloads, items, seconds=args.seconds * UNTRACED_SHARE
        )
        issues, failed = gate_all(workloads, untraced)
        tracer = spans.Tracer()
        with spans.instrument(nols, tracer):
            traced, windows, _ = run_rounds(workloads, items, rounds=rounds, tracer=tracer)
        arrays = spans.SpanArrays(tracer)
        breakdowns = [spans.item_breakdown(arrays, lo, hi) for lo, hi in windows]
        traced_issues, traced_failed = traced_checks(untraced, traced, breakdowns)
        issues += traced_issues
        failed += traced_failed
        micro = workloads.micro_timings(items[0], untraced[0][1].levels, args.seed)
        tracer.write(OUT / f"spans-{args.workload}.npz")
        metrics = per_layer(untraced, traced, breakdowns, micro)
        units = PER_LAYER_UNITS
        pairs = untraced + traced

    for name, (value, detail) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} ({detail})")
    for msg in issues:
        print(f"FAIL {msg}", file=sys.stderr)
    record = {
        "meta": meta,
        "rounds": rounds,
        "issues": issues,
        "metrics": {k: {"value": v, "unit": units[k], "detail": d}
                    for k, (v, d) in metrics.items()},
        "solves": [
            {"item": item.label,
             "solve": [vars(x) for x in out.solve],
             "verify": [vars(x) for x in out.verify],
             "value_queries": out.value_queries,
             "independence_queries": out.independence_queries,
             "iterations": out.iterations, "failed": out.failed,
             "quality_lb": out.quality_lb}
            for item, out in pairs
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": not issues,
        "attempted": len(pairs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 1 if issues else 0


if __name__ == "__main__":
    sys.exit(main())
