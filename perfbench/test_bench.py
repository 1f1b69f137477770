"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from nols import SolverConfig, brute_force_opt, non_oblivious_solve  # noqa: E402

from perfbench import run, spans, workloads  # noqa: E402


def _test_suite_module():
    # loaded by path: the benchmark itself must not depend on test helpers
    spec = importlib.util.spec_from_file_location("nols_test_suite", ROOT / "tests" / "suite.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n, r", [(64, 8), (512, 23)])
@pytest.mark.parametrize("seed", [0, 5])
def test_bait_chain_copy_matches_the_test_suite(n, r, seed):
    f, m = workloads.bait_chain(n, r, seed)
    f_ref, m_ref = _test_suite_module().bait_chain(n, r, seed)
    assert f.universe_size == f_ref.universe_size
    assert [f.covers(u) for u in range(n)] == [f_ref.covers(u) for u in range(n)]
    assert (m.ground_size, m.k) == (m_ref.ground_size, m_ref.k)


def test_quality_lb_never_exceeds_the_true_ratio():
    checked = 0
    for inst in _test_suite_module().brute_forceable_suite():
        f, m = inst.build_objective(), inst.build_matroid()
        opt = brute_force_opt(f, m).opt_value
        solved = non_oblivious_solve(f, m, SolverConfig(eps=0.5)).output_set
        # a weak set too, so the bound is also tested far from the optimum
        weak = solved.remove(max(solved)) if len(solved) > 1 else solved
        for s in (solved, weak):
            lb = workloads.quality_lower_bound(f, m, s)
            assert 0 < lb <= 1
            assert Fraction(lb) <= Fraction(f.eval(s)) / Fraction(opt), inst.name
            checked += 1
    assert checked == 64


def test_chain_det_reports_the_roadmap_baseline_counts(tmp_path):
    (item,) = workloads.build_items("chain_det", 7, tmp_path)
    out = workloads.run_item(item)
    assert (out.value_queries, out.independence_queries, out.iterations) == (
        119_359,
        128_225,
        17,
    )
    assert workloads.gate(item, out) == []


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["cover_rand", "graphic_cli"])
def test_traced_run_reproduces_the_untraced_run(workload, capsys):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"])
    result = _last_json(capsys.readouterr().out)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    sampled = result["metrics"]["core.sample.calls"]["value"]
    assert (sampled > 0) == (workload == "cover_rand")


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    rc = run.main(["--workload", "cover_rand", "--seed", "3", "--seconds", "0", "--trace", "0"])
    printed = capsys.readouterr().out
    result = _last_json(printed)
    assert rc == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 0)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_frac = 0 " in printed


def test_a_failed_check_makes_the_run_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "check_certificate", lambda *args: ["injected"])
    rc = run.main(["--workload", "cover_rand", "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = _last_json(capsys.readouterr().out)
    assert rc == 1
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_span_self_times_subtract_child_spans():
    tracer = spans.Tracer()
    with tracer.span(spans.SOLVE):
        with tracer.span(spans.EXTEND):
            with tracer.span(spans.INDEP):
                pass
        with tracer.span(spans.INDEP):
            pass
    a = spans.SpanArrays(tracer)
    assert list(a.parent) == [-1, 0, 1, 0]
    assert a.self_time.sum() == pytest.approx(a.dur[0], abs=1e-12)
    assert a.self_time[0] == pytest.approx(a.dur[0] - a.dur[1] - a.dur[3], abs=1e-12)
    assert a.subtree(1) == slice(1, 3)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_det", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
