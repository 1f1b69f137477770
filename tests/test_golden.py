"""Golden-report lock: solves on a fixed grid reproduce committed results.

Every cell below is solved through ``nols solve`` (or, for the library
cells, through the searches directly) and compared against
``golden_reports.json``. Output sets, lifted solutions, certificates, values
and iteration counts must match exactly; oracle query counts may only go
down. A refactor that changes any answer fails here, even when reruns on its
own commit are byte-identical.

Regenerate only when a change of behaviour is intended:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from nols.cli import main as cli_main
from nols.core import CountingMatroidOracle, CountingValueOracle, QueryLedger, RandomSource
from nols.instances import (
    InstanceFile,
    generate_instance,
    parse_report,
    report_document,
    save_instance,
)
from nols.matroids import UniformMatroid
from nols.solvers import (
    RANDOMIZED,
    SolverConfig,
    deterministic_local_search,
    non_oblivious_solve,
    randomized_local_search,
    warm_start,
)

sys.path.insert(0, str(Path(__file__).parent))
from suite import SquaredSize, bait_chain  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_reports.json")
FAMILIES = ("coverage", "partition", "graphic", "modular")
REPORT_FIELDS = (
    "failed",
    "output_set",
    "objective_value",
    "lifted_solution",
    "certificate",
    "iterations",
    "warm_value",
    "value_queries",
    "independence_queries",
)
QUERY_FIELDS = ("value_queries", "independence_queries")


def _bait_instance() -> InstanceFile:
    f, _ = bait_chain(24, 4, 0)
    return InstanceFile(
        name="bait_chain-n24-r4-s0",
        n=24,
        r=4,
        objective={
            "kind": "coverage",
            "universe": f.universe_size,
            "covers": [f.covers(u) for u in range(24)],
        },
        matroid={"kind": "uniform", "k": 4},
    )


def _instance(key: str) -> InstanceFile:
    if key == "bait":
        return _bait_instance()
    family, n, r, seed = key.split("-")
    return generate_instance(family, int(n), int(r), int(seed))


def _cli_cells() -> dict[str, tuple[str, list[int] | None, list[str]]]:
    """name -> (instance key, regularizer weights or None, solve flags)."""
    keys = {family: f"{family}-12-3-3" for family in FAMILIES}
    keys["partition"] = "partition-12-3-2"  # takes a swap at both eps
    keys["bait"] = "bait"  # takes several swaps
    cells = {}
    for family, key in keys.items():
        for eps in ("0.5", "0.25"):
            for variant, seed in (("deterministic", "0"), ("randomized", "9")):
                flags = ["--eps", eps, "--variant", variant, "--seed", seed]
                cells[f"{family}-{variant}-{eps}"] = (key, None, flags)
    reg = [(3 * i) % 4 for i in range(10)]
    for variant, seed in (("deterministic", "0"), ("randomized", "9")):
        flags = ["--eps", "0.25", "--variant", variant, "--seed", seed]
        cells[f"regularized-{variant}"] = ("coverage-10-3-2", reg, flags)
    cells["levels1-deterministic"] = ("bait", None, ["--eps", "0.25", "--levels", "1"])
    return cells


def _run_cell(tmp: Path, name: str) -> tuple[InstanceFile, dict]:
    """`nols solve` on a cell: its instance and the report it wrote."""
    key, reg, flags = _cli_cells()[name]
    instance = _instance(key)
    if reg is not None:
        instance.regularizer = {"weights": reg}
    inst_path, out_path = tmp / f"{name}.instance.json", tmp / f"{name}.report.json"
    save_instance(instance, inst_path)
    cli_main(["solve", "--instance", str(inst_path), "--out", str(out_path), *flags])
    return instance, json.loads(out_path.read_text())


def _solve_cell(tmp: Path, name: str) -> dict:
    doc = _run_cell(tmp, name)[1]
    return {key: doc[key] for key in REPORT_FIELDS}


def _search_doc(res, ledger: QueryLedger) -> dict | None:
    if res.certificate is None:
        return None
    c = res.certificate
    return {
        "solution": res.solution.to_list(),
        "value": res.value,
        "warm_set": res.warm_set.to_list(),
        "warm_value": c.warm_value,
        "iterations": res.iterations,
        "certificate": {
            "witness": c.witness.to_list(),
            "gap": c.gap,
            "bound": c.bound,
            "eps": c.eps,
            "warm_value": c.warm_value,
        },
        "value_queries": ledger.value_queries,
        "independence_queries": ledger.independence_queries,
    }


def _library_cell(name: str):
    """Library calls on the base oracles themselves (no lifting), plus a
    randomized solve that fails on every attempt."""
    kind, key = name.split(":")
    if kind == "failed":
        config = SolverConfig(
            eps=0.5, variant=RANDOMIZED, seed=3, levels_override=int(key) or None
        )
        # two attempts, each failing: |S|^2 is supermodular
        with mock.patch("nols.solvers.amplification_attempts", return_value=2):
            rep = non_oblivious_solve(SquaredSize(), UniformMatroid(6, 2), config)
        return {
            "failed": rep.failed,
            "iterations": rep.iterations,
            "value_queries": rep.ledger.value_queries,
            "independence_queries": rep.ledger.independence_queries,
        }
    instance = _instance(key)
    ledger = QueryLedger()
    f = CountingValueOracle(instance.build_objective(), ledger)
    m = CountingMatroidOracle(instance.build_matroid(), ledger)
    if kind == "search":
        return _search_doc(deterministic_local_search(f, m, 0.25), ledger)
    if kind.startswith("random"):
        attempts = int(kind[len("random"):])
        return {
            str(seed): _search_doc(
                randomized_local_search(f, m, 0.5, RandomSource(seed), attempts=attempts),
                ledger,
            )
            for seed in range(4)
        }
    s = warm_start(f, m)
    return {
        "solution": s.to_list(),
        "value_queries": ledger.value_queries,
        "independence_queries": ledger.independence_queries,
    }


LIBRARY_CELLS = [
    f"{kind}:{key}"
    for kind in ("search", "warm")
    for key in ("bait", "coverage-12-3-3", "partition-12-3-2", "graphic-12-3-3", "modular-12-3-3")
] + ["random1:coverage-12-3-11", "random2:bait", "failed:0", "failed:1"]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _assert_matches(got, want, where=""):
    """Exact equality everywhere except query counts, which may only drop."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key, value in want.items():
            if key in QUERY_FIELDS:
                assert got[key] <= value, f"{where}.{key}"
            else:
                _assert_matches(got[key], value, f"{where}.{key}")
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(_cli_cells()))
def test_golden_cli_report(name, tmp_path):
    _assert_matches(_solve_cell(tmp_path, name), _golden()["cli"][name], name)


@pytest.mark.parametrize(
    "name, failed",
    [(name, False) for name in sorted(_cli_cells())]
    + [(name, True) for name in sorted(_cli_cells()) if "randomized" in name],
)
def test_report_round_trips(name, failed, tmp_path):
    # parse_report inverts report_document, before and after the JSON text
    reports = []

    def solve(*args, **kwargs):
        reports.append(non_oblivious_solve(*args, **kwargs))
        return reports[-1]

    attempts = mock.patch("nols.solvers.amplification_attempts", return_value=0)
    with mock.patch("nols.cli.non_oblivious_solve", solve), (
        attempts if failed else contextlib.nullcontext()
    ):
        instance, doc = _run_cell(tmp_path, name)
    (report,) = reports
    assert report.failed == failed
    assert parse_report(report_document(report, instance), instance) == report
    assert parse_report(doc, instance) == report


@pytest.mark.parametrize("name", LIBRARY_CELLS)
def test_golden_library_search(name):
    _assert_matches(_library_cell(name), _golden()["library"][name], name)


def _write() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            "cli": {name: _solve_cell(Path(tmp), name) for name in sorted(_cli_cells())},
            "library": {name: _library_cell(name) for name in LIBRARY_CELLS},
        }
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
