"""Public-surface lock.

Pins ``nols.__all__``, the knobs of the solve and verify entry points and
of ``ExplicitMatroid``, and the flags of each ``nols`` subcommand, and
checks that every name the benchmark harness in ``perfbench/`` imports,
reads or patches still resolves, so a refactor cannot silently break the
harness. No module of the package, and no test, imports an
underscore name from a ``nols`` module: each decision has one owner.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import nols
import nols.cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

EXPECTED_ALL = [
    # core
    "ElementSet",
    "QueryLedger",
    "RandomSource",
    "sample_without_replacement",
    # matroids
    "ExplicitMatroid",
    "GraphicMatroid",
    "LiftedMatroid",
    "PartitionMatroid",
    "UniformMatroid",
    "extend_to_base",
    "lift",
    "matroid_rank",
    "max_weight_independent",
    "min_weight_exchange",
    # objectives
    "ConcaveOfModular",
    "CoverageFunction",
    "GuideWeights",
    "LiftedGuide",
    "LinearRegularizer",
    "ModularFunction",
    "guide_weights",
    "make_tracker",
    "project_all",
    # solvers
    "DETERMINISTIC",
    "RANDOMIZED",
    "LocalOptCertificate",
    "LocalSearchResult",
    "RunReport",
    "SolverConfig",
    "default_levels",
    "deterministic_local_search",
    "inner_eps",
    "non_oblivious_solve",
    "randomized_local_search",
    "warm_start",
    # verify
    "BruteForceResult",
    "approximation_report",
    "brute_force_opt",
    "check_certificate",
    "check_matroid_axioms",
    "check_value_oracle",
    "exhaustive_gap",
    "reference_local_search",
    # instances
    "InstanceFile",
    "generate_instance",
    "load_instance",
    "save_instance",
]


def test_public_names_are_pinned():
    assert nols.__all__ == EXPECTED_ALL
    for name in nols.__all__:
        assert hasattr(nols, name), name


# every parameter and config field is a knob; adding one must show up here
EXPECTED_PARAMETERS = {
    "non_oblivious_solve": ["f", "matroid", "config", "regularizer"],
    "deterministic_local_search": ["f", "matroid", "eps"],
    "randomized_local_search": ["f", "matroid", "eps", "rng", "attempts"],
    "warm_start": ["f", "matroid"],
    "check_certificate": ["certificate", "f", "matroid", "s"],
    "approximation_report": ["output_set", "objective_value", "levels", "eps", "truth"],
    "brute_force_opt": ["f", "matroid"],
    "exhaustive_gap": ["f", "matroid", "s"],
    "check_matroid_axioms": ["matroid"],
    "check_value_oracle": ["f"],
    "reference_local_search": ["f", "matroid", "levels"],
    "ExplicitMatroid": ["n", "independent"],
    "extend_to_base": ["matroid", "start", "dependent"],
    "make_tracker": ["oracle", "start"],
    "LiftedGuide": ["inner", "weights", "regularizer"],
}
EXPECTED_CONFIG_FIELDS = ["eps", "variant", "seed", "levels_override"]


def test_entry_point_knobs_are_pinned():
    for name, params in EXPECTED_PARAMETERS.items():
        assert list(inspect.signature(getattr(nols, name)).parameters) == params, name
    fields = [field.name for field in dataclasses.fields(nols.SolverConfig)]
    assert fields == EXPECTED_CONFIG_FIELDS


# every command line flag is a knob too
EXPECTED_FLAGS = {
    "gen": ["-h", "--help", "--family", "--n", "--r", "--seed", "--out"],
    "solve": [
        "-h", "--help", "--instance", "--eps", "--variant", "--seed", "--levels",
        "--out",
    ],
    "verify": ["-h", "--help", "--instance", "--report", "--certificate-only"],
    "bench": [
        "-h", "--help", "--family", "--n", "--r", "--eps", "--seeds", "--variants",
        "--out",
    ],
}


def test_cli_flags_are_pinned():
    parser = nols.cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        command: [flag for action in sub._actions for flag in action.option_strings]
        for command, sub in subparsers.choices.items()
    }
    assert flags == EXPECTED_FLAGS


def _harness_trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "nols":
        return ".".join(["nols", *reversed(parts)])
    return None


def test_harness_imports_and_attribute_reads_resolve():
    checked = 0
    for filename, tree in _harness_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nols"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{filename}: {node.module}.{alias.name}"
                    checked += 1
            elif isinstance(node, ast.Attribute) and _dotted(node):
                obj = nols
                for attr in _dotted(node).split(".")[1:]:
                    assert hasattr(obj, attr), f"{filename}: {_dotted(node)}"
                    obj = getattr(obj, attr)
                checked += 1
    assert checked > 20  # the harness leans on the package throughout


def test_harness_patch_targets_resolve():
    # instrument() reads every name it patches in nols.solvers and nols.cli
    # and restores them on exit
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = {name: getattr(nols.cli, name) for name in ("non_oblivious_solve", "main")}
    with spans.instrument(nols, spans.Tracer()):
        assert nols.cli.non_oblivious_solve is not before["non_oblivious_solve"]
    assert {name: getattr(nols.cli, name) for name in before} == before


def test_no_private_cross_imports():
    # a relative import inside the package, or a nols import in a test, may
    # only name public (non-underscore) names
    sources = sorted((ROOT / "src" / "nols").glob("*.py"))
    sources += sorted((ROOT / "tests").glob("*.py"))
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("nols"):
                continue
            offenders += [
                f"{path.name}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []
