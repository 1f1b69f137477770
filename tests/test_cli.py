import copy
import csv
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nols import solvers
from nols.cli import BENCH_COLUMNS, main
from nols.instances import InstanceFile, generate_instance, load_instance, save_instance
from nols.matroids import rank
from suite import json_values, mutate


def _gen(tmp_path, family="coverage", n=12, r=3, seed=7):
    path = tmp_path / f"{family}.json"
    assert main(["gen", "--family", family, "--n", str(n), "--r", str(r),
                 "--seed", str(seed), "--out", str(path)]) == 0
    return path


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", "--family", "partition", "--n", "10", "--r", "3",
                     "--seed", "5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("family", ["coverage", "partition", "graphic", "modular"])
def test_generated_instances_have_requested_rank(tmp_path, family):
    path = _gen(tmp_path, family=family, n=10, r=3, seed=2)
    inst = load_instance(path)
    assert inst.n == 10 and inst.r == 3
    m = inst.build_matroid()
    assert rank(m) == 3
    f = inst.build_objective()
    assert f.ground_size == 10


def test_instance_round_trip(tmp_path):
    path = _gen(tmp_path, family="modular", n=8, r=2, seed=3)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert set(doc) >= {"name", "n", "r", "objective", "matroid"}
    assert load_instance(path).to_document() == doc


def test_solve_writes_report_and_verify_accepts(tmp_path, capsys):
    inst = _gen(tmp_path)
    rep = tmp_path / "report.json"
    assert main(["solve", "--instance", str(inst), "--eps", "0.25",
                 "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["format_version"] == 1
    assert doc["variant"] == "deterministic"
    assert not doc["failed"]
    assert sorted(doc["output_set"]) == doc["output_set"]
    assert main(["verify", "--instance", str(inst), "--report", str(rep)]) == 0
    out = capsys.readouterr().out
    assert "verified" in out


def test_solve_replay_is_byte_identical(tmp_path):
    inst = _gen(tmp_path)
    reps = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["solve", "--instance", str(inst), "--eps", "0.5",
                     "--variant", "randomized", "--seed", "11",
                     "--out", str(out)]) == 0
        reps.append(out.read_bytes())
    assert reps[0] == reps[1]
    assert main(["verify", "--instance", str(inst), "--report", str(out)]) == 0


def test_solve_without_out_writes_the_report_to_stdout(tmp_path, capsys):
    inst = _gen(tmp_path)
    rep = tmp_path / "report.json"
    argv = ["solve", "--instance", str(inst), "--eps", "0.5"]
    assert main([*argv, "--out", str(rep)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == rep.read_text()


def test_verify_rejects_tampered_output(tmp_path, capsys):
    inst = _gen(tmp_path)
    rep = tmp_path / "report.json"
    main(["solve", "--instance", str(inst), "--eps", "0.25", "--out", str(rep)])
    doc = json.loads(rep.read_text())
    doc["output_set"] = doc["output_set"][:-1]  # drop one element
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst), "--report", str(rep)]) == 1
    # the output set is the projection of the lifted solution
    assert "report.output_set must be " in capsys.readouterr().err


def test_verify_rejects_forged_certificate(tmp_path, capsys):
    inst = _gen(tmp_path)
    rep = tmp_path / "report.json"
    main(["solve", "--instance", str(inst), "--eps", "0.25", "--out", str(rep)])
    doc = json.loads(rep.read_text())
    doc["certificate"]["gap"] = -1.0
    rep.write_text(json.dumps(doc))
    assert main(["verify", "--instance", str(inst), "--report", str(rep)]) == 1


_DROP = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), [], "report must be a JSON object"),
        (("levels",), _DROP, "report missing 'levels'"),
        (("output_set",), [99], "report.output_set must be "),
        (("lifted_solution",), None, "report.lifted_solution must be a list"),
        (("certificate",), [1.0], "report.certificate must be a JSON object"),
        (("certificate", "gap"), "0", "report.certificate.gap must be a number"),
        (("iterations",), -617, "report.iterations must be a non-negative integer"),
        (("rank",), 2.5, "report.rank must be "),
        (("eps_inner",), "0.1", "report.eps_inner must be "),
        (("warm_value",), None, "report.warm_value must be a number"),
        (("variant",), "greedy", "report.variant must be 'deterministic' or"),
        (("regularized",), "false", "report.regularized must be true or false"),
        (("regularized",), 1, "report.regularized must be true or false"),
        (("seed",), "0", "report.seed must be an integer"),
        (("value_queries",), "lots", "report.value_queries must be a non-negative integer"),
        (("independence_queries",), -7,
         "report.independence_queries must be a non-negative integer"),
        (("n",), "eight", 'report.n must be 12, got "eight"'),
        (("n",), 8, "report.n must be 12, got 8"),
        (("warm_start",), 42, 'report.warm_start must be "threshold_greedy", got 42'),
        (("value_queries",), _DROP, "report missing 'value_queries'"),
        (("n",), _DROP, "report missing 'n'"),
    ],
    ids=[
        "list", "no-levels", "output-range", "null-lifted", "cert-list", "cert-gap",
        "negative-iterations", "float-rank", "string-eps-inner", "null-warm-value",
        "unknown-variant", "string-regularized", "int-regularized", "string-seed",
        "string-value-queries", "negative-independence-queries", "string-n", "other-n",
        "int-warm-start", "no-value-queries", "no-n",
    ],
)
def test_verify_rejects_malformed_report(tmp_path, capsys, path, value, message):
    inst = _gen(tmp_path)
    rep = tmp_path / "report.json"
    main(["solve", "--instance", str(inst), "--eps", "0.5", "--out", str(rep)])
    doc = json.loads(rep.read_text())
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst), "--report", str(rep)]) == 1
    out = capsys.readouterr()
    assert out.out == ""  # rejected before any other check
    assert message in out.err
    assert len(out.err.splitlines()) == 1


def _widen_certificate(doc):
    cert = doc["certificate"]
    cert["eps"] = 1e6
    cert["bound"] = cert["eps"] * cert["warm_value"]


def _forge_all(doc):
    _widen_certificate(doc)
    doc.update(eps_inner=0.9, rank=7)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_widen_certificate, "report.certificate.bound must be "),
        (lambda doc: doc.update(eps_inner=0.9), "report.eps_inner must be "),
        (lambda doc: doc.update(rank=7), "report.rank must be 2, got 7"),
        (_forge_all, "report.rank must be 2, got 7"),
        (lambda doc: doc["certificate"].update(bound=1e6),
         "report.certificate.bound must be "),
        (lambda doc: doc["certificate"].update(warm_value=1e6),
         "report.certificate.warm_value must be "),
        (lambda doc: doc.update(extra=0), "report has unknown key 'extra'"),
        (lambda doc: doc.update(rank=True), "report.rank must be 2, got true"),
        (lambda doc: doc.update(warm_value=10**400),
         "report.warm_value is too large for a float"),
    ],
    ids=[
        "certificate-eps", "eps-inner", "rank", "all-three", "inflated-bound",
        "certificate-warm-value", "extra-key", "bool-rank", "huge-warm-value",
    ],
)
def test_verify_rejects_inconsistent_report(tmp_path, capsys, edit, message):
    # every derived field must equal what the primary fields determine, so a
    # forger cannot widen the certificate's bound
    inst = _gen(tmp_path, n=8, r=2)
    rep = tmp_path / "report.json"
    assert main(["solve", "--instance", str(inst), "--eps", "0.5", "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    edit(doc)
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst), "--report", str(rep)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert message in out.err


def test_verify_certificate_only_skips_brute_force(tmp_path, capsys):
    inst = _gen(tmp_path, n=30, r=4, seed=1)
    rep = tmp_path / "report.json"
    assert main(["solve", "--instance", str(inst), "--eps", "0.5",
                 "--out", str(rep)]) == 0
    # n=30 is beyond brute force: the full check refuses, the
    # certificate-only path passes
    assert main(["verify", "--instance", str(inst), "--report", str(rep)]) == 1
    assert "certificate-only" in capsys.readouterr().out
    assert main(["verify", "--instance", str(inst), "--report", str(rep),
                 "--certificate-only"]) == 0


def test_forced_randomized_failure_exits_two(tmp_path, monkeypatch):
    inst = _gen(tmp_path)
    rep = tmp_path / "report.json"
    monkeypatch.setattr(solvers, "amplification_attempts", lambda eps: 0)
    code = main(["solve", "--instance", str(inst), "--eps", "0.5",
                 "--variant", "randomized", "--seed", "0", "--out", str(rep)])
    assert code == 2
    doc = json.loads(rep.read_text())
    assert doc["failed"] and doc["output_set"] == []
    assert doc["certificate"] is None
    # a failed report that is internally consistent still verifies
    assert main(["verify", "--instance", str(inst), "--report", str(rep)]) == 0
    doc["iterations"] = -617  # checked on failed runs too
    rep.write_text(json.dumps(doc))
    assert main(["verify", "--instance", str(inst), "--report", str(rep)]) == 1


def test_bench_tiny_grid(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--family", "coverage", "--n", "8,12", "--r", "2,3",
                 "--eps", "0.5", "--seeds", "0,1", "--variants",
                 "deterministic,randomized", "--out", str(out)]) == 0
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == BENCH_COLUMNS
    assert len(rows) == 1 + 2 * 1 * 2 * 2  # cells * eps * variants * seeds
    stdout = capsys.readouterr().out
    assert "summary variant=deterministic" in stdout
    assert "summary variant=randomized" in stdout
    # brute-forceable sizes fill the optimum columns
    by_col = dict(zip(rows[0], rows[1]))
    assert by_col["f_opt"] != ""
    assert float(by_col["ratio"]) > 0


def test_verify_rejects_a_regularized_report_on_a_plain_instance(tmp_path, capsys):
    plain = _gen(tmp_path)
    instance = load_instance(plain)
    instance.regularizer = {"weights": [1] * instance.n}
    regularized = tmp_path / "regularized.json"
    save_instance(instance, regularized)
    rep = tmp_path / "report.json"
    assert main(["solve", "--instance", str(regularized), "--eps", "0.5",
                 "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["regularized"] is True
    assert main(["verify", "--instance", str(regularized), "--report", str(rep),
                 "--certificate-only"]) == 0
    capsys.readouterr()
    assert main(["verify", "--instance", str(plain), "--report", str(rep),
                 "--certificate-only"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "nols verify: error: report.regularized is true, but the instance has no "
        "regularizer"
    ]


def test_readme_examples_print_what_the_readme_says(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(quick_start, {})
    assert f"# {capsys.readouterr().out.splitlines()[0]}\n" in quick_start
    # the README's bench grid, deterministic cells only
    assert main(["bench", "--family", "coverage", "--n", "64,128,256", "--eps", "0.5",
                 "--variants", "deterministic", "--seeds", "0,1",
                 "--out", str(tmp_path / "bench.csv")]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("summary variant=deterministic eps=0.5 ")
    assert f"  {summary}\n" in readme


def test_bench_broadcasts_a_single_rank(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--n", "8,12", "--r", "2", "--out", str(out)]) == 0
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["n"], row["r"]) for row in rows] == [("8", "2"), ("12", "2")]


def test_bench_empty_grid_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["bench", "--family", "coverage", "--n", "", "--eps", "",
                 "--seeds", "", "--variants", "", "--out", str(out)]) == 0
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert rows == [BENCH_COLUMNS]


def test_bench_rejects_mismatched_rank_list(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    for extra in (["--r", "2,3"], ["--variants", "foo"]):
        assert main(["bench", "--family", "coverage", "--n", "8,12,16", *extra,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nols bench: error:")
        assert len(err.splitlines()) == 1
    assert not out.exists()


def test_console_module_entry_point(tmp_path):
    inst = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nols.cli", "gen", "--family", "coverage",
         "--n", "8", "--r", "2", "--seed", "0", "--out", str(inst)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert inst.exists()
    proc = subprocess.run(
        [sys.executable, "-m", "nols.cli", "solve", "--instance", str(inst),
         "--eps", "0.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["instance"] == "coverage-n8-r2-s0"


def test_a_solve_that_fails_closed_exits_one_with_one_stderr_line(tmp_path, capsys):
    # negative regularizer weights load, but the guide is then not monotone:
    # the solve raises rather than return a certificate that does not pass
    inst = tmp_path / "negative.json"
    save_instance(
        InstanceFile(
            name="negative", n=4, r=2,
            objective={"kind": "modular", "weights": [1, 2, 3, 4]},
            matroid={"kind": "uniform", "k": 2},
            regularizer={"weights": [-10] * 4},
        ),
        inst,
    )
    assert main(["solve", "--instance", str(inst), "--eps", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("nols solve: error: solve produced a certificate that does not pass")
    assert len(err.splitlines()) == 1


def test_a_regularizer_that_overflows_once_scaled_exits_one(tmp_path, capsys):
    # the weight is finite, but 1e308 times the 3-level scale 64/9 is not
    inst = _gen(tmp_path)
    doc = json.loads(inst.read_text())
    doc["regularizer"] = {"weights": [1e308] + [0] * (doc["n"] - 1)}
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["solve", "--instance", str(inst), "--eps", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "nols solve: error: regularizer weight 0 times reg_scale 7.111111111111111 "
        "must be finite, got inf\n"
    )


def test_verify_refuses_an_overflowing_regularizer_before_any_check_line(tmp_path, capsys):
    # the report was solved on a zero regularizer, which then grew to the
    # weight that overflows once scaled; verify builds the guide before its
    # first check line, so stdout stays empty
    inst = _gen(tmp_path)
    doc = json.loads(inst.read_text())
    doc["regularizer"] = {"weights": [0] * doc["n"]}
    inst.write_text(json.dumps(doc))
    rep = tmp_path / "report.json"
    assert main(["solve", "--instance", str(inst), "--eps", "0.5", "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["regularized"] is True
    doc["regularizer"] = {"weights": [1e308] + [0] * (doc["n"] - 1)}
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst), "--report", str(rep)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "nols verify: error: regularizer weight 0 times reg_scale 7.111111111111111 "
        "must be finite, got inf\n"
    )

def test_gen_rejects_bad_shapes(tmp_path, capsys):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit):
        main(["gen", "--family", "nosuch", "--n", "8", "--r", "2",
              "--out", str(out)])
    assert main(["gen", "--family", "coverage", "--n", "4", "--r", "9",
                 "--out", str(out)]) == 1
    assert "rank cannot exceed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize(
    "case",
    ["instance-list", "instance-not-json", "instance-missing", "eps-2", "weight-inf"],
)
def test_bad_input_exits_one_with_one_stderr_line(tmp_path, capsys, command, case):
    inst = _gen(tmp_path)
    rep = tmp_path / "report.json"
    assert main(["solve", "--instance", str(inst), "--eps", "0.5", "--out", str(rep)]) == 0
    eps = "0.5"
    if case == "instance-list":
        inst.write_text("[]")
    elif case == "instance-not-json":
        inst.write_text("{")
    elif case == "instance-missing":
        inst = tmp_path / "missing.json"
    elif case == "weight-inf":  # json writes and reads the token Infinity
        doc = json.loads(inst.read_text())
        doc["objective"] = {"kind": "modular", "weights": [math.inf] + [1] * (doc["n"] - 1)}
        inst.write_text(json.dumps(doc))
    else:  # solve takes eps as a flag, verify reads it from the report
        eps = "2"
        doc = json.loads(rep.read_text())
        doc["eps"] = 2.0
        rep.write_text(json.dumps(doc))
    argv = ["--eps", eps] if command == "solve" else ["--report", str(rep)]
    capsys.readouterr()
    assert main([command, "--instance", str(inst), *argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert "Traceback" not in out.err
    if case == "weight-inf":
        assert "objective.weights[0] must be finite" in out.err


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """An instance, its passed and failed reports, and a scratch report path."""
    tmp = tmp_path_factory.mktemp("fuzz")
    inst = _gen(tmp, n=8, r=2)
    docs = []
    rep = tmp / "report.json"
    argv = ["solve", "--instance", str(inst), "--eps", "0.5", "--out", str(rep)]
    assert main(argv) == 0
    docs.append(json.loads(rep.read_text()))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "amplification_attempts", lambda eps: 0)
        assert main([*argv, "--variant", "randomized"]) == 2
    docs.append(json.loads(rep.read_text()))
    return inst, docs, tmp / "fuzz.json"


def _verify_completes_or_rejects(inst, rep, doc):
    """Run nols verify on doc: it either completes its checks, printing one
    ok/FAIL line each, or rejects the report with one stderr line and exit
    1 before any check. Any other exception escapes and fails the test."""
    rep.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--instance", str(inst), "--report", str(rep)])
    lines = out.getvalue().splitlines()
    if err.getvalue():
        assert code == 1 and lines == []
        assert len(err.getvalue().splitlines()) == 1
        return
    fails = [line for line in lines if line.startswith("FAIL: ")]
    assert code == (1 if fails else 0)
    assert all(line.startswith(("ok: ", "FAIL: ")) for line in lines[:-1])
    assert fails or lines[-1].startswith("verified")


@given(
    st.sampled_from([0, 1]), st.lists(st.integers(0, 50), max_size=4), json_values
)
@settings(max_examples=300, deadline=None)
@example(which=0, path=[29, 1], value=10)  # one base element on two levels
def test_verify_survives_mutated_reports(fuzz_inputs, which, path, value):
    inst, docs, rep = fuzz_inputs
    doc = mutate(copy.deepcopy(docs[which]), path, value)
    _verify_completes_or_rejects(inst, rep, doc)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verify_survives_arbitrary_json(fuzz_inputs, data):
    inst, docs, rep = fuzz_inputs
    # arbitrary values, and objects built from the report's own keys
    report_keys = st.sampled_from(sorted(docs[0]))
    doc = data.draw(json_values | st.dictionaries(report_keys, json_values))
    _verify_completes_or_rejects(inst, rep, doc)
