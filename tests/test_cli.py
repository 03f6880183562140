"""Command-line behaviour: outputs, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmpsat as F
from fmpsat import batch as batch_mod
from fmpsat import encode as enc
from fmpsat import explain as explain_mod
from fmpsat import sdd as sdd_mod
from fmpsat.cli import main
from fmpsat.batch import generate_random_obdd

import pins

DATA = Path(__file__).parent / "data"

ELLA_SDD = [
    "--sdd", str(DATA / "ella.sdd"),
    "--vtree", str(DATA / "ella.vtree"),
    "--instance", str(DATA / "ella.inst"),
]
ELLA_OBDD = ["--obdd", str(DATA / "ella.obdd"), "--instance", str(DATA / "ella.inst")]
ELLA_DT = ["--dt", str(DATA / "ella.dt"), "--instance", str(DATA / "ella.inst")]
ELLA_XPG = ["--xpg", str(DATA / "ella.xpg")]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- fmp

def test_fmp_yes_for_male(capsys):
    code, out, _ = run(capsys, ["fmp", *ELLA_SDD, "--target", "3"])
    assert code == 0
    assert out.strip() == "YES witness=1,3"


def test_stats_line_reports_the_search_counters(capsys):
    code, _, err = run(capsys, ["fmp", *ELLA_OBDD, "--target", "2", "--method", "one-step"])
    assert code == 1
    line = next(line for line in err.splitlines() if line.startswith("stats:"))
    counters = dict(field.split("=") for field in line.split()[5:])
    assert list(counters) == ["decisions", "conflicts", "propagations", "restarts",
                              "learned_clauses", "learned_literals"]
    assert all(value.isdigit() for value in counters.values())


def test_fmp_no_for_young(capsys):
    code, out, _ = run(capsys, ["fmp", *ELLA_SDD, "--target", "2"])
    assert code == 1
    assert out.strip() == "NO"


def test_fmp_missing_vtree(capsys):
    code, _, err = run(
        capsys,
        ["fmp", "--sdd", str(DATA / "ella.sdd"),
         "--instance", str(DATA / "ella.inst"), "--target", "3"],
    )
    assert code == 2
    assert "--vtree" in err


def test_fmp_all_methods_and_routes(capsys):
    for base in (ELLA_SDD, ELLA_OBDD, ELLA_DT, ELLA_XPG):
        for method in ("one-step", "two-step"):
            code, out, _ = run(
                capsys, ["fmp", *base, "--target", "1", "--method", method]
            )
            assert code == 0
            assert out.strip() == "YES witness=1,3"


def test_dt_route_matches_obdd_route(capsys):
    for target, expected in ((2, 1), (3, 0), (4, 1)):
        code_dt, out_dt, _ = run(capsys, ["fmp", *ELLA_DT, "--target", str(target)])
        code_ob, out_ob, _ = run(capsys, ["fmp", *ELLA_OBDD, "--target", str(target)])
        assert code_dt == code_ob == expected
        assert out_dt == out_ob


def test_fmp_invalid_target(capsys):
    code, _, err = run(capsys, ["fmp", *ELLA_SDD, "--target", "9"])
    assert code == 2
    assert "outside" in err


def test_fmp_timeout_is_an_error(capsys):
    code, out, err = run(
        capsys, ["fmp", *ELLA_SDD, "--target", "3", "--time-limit-s", "0"]
    )
    assert code == 2
    assert out == ""
    assert "limit" in err


def test_fmp_mismatched_instance(capsys, tmp_path):
    bad = tmp_path / "bad.inst"
    bad.write_text("v: 0,1,0,1\nc: 1\n")
    code, _, err = run(
        capsys,
        ["fmp", "--sdd", str(DATA / "ella.sdd"), "--vtree", str(DATA / "ella.vtree"),
         "--instance", str(bad), "--target", "1"],
    )
    assert code == 2
    assert "predicts" in err


# --------------------------------------------------------------- axp/cxp

def test_axp_output(capsys):
    code, out, _ = run(capsys, ["axp", *ELLA_SDD])
    assert code == 0 and out.strip() == "AXP 1,3"


def test_axp_via_xpg(capsys):
    code, out, _ = run(capsys, ["axp", *ELLA_XPG])
    assert code == 0 and out.strip() == "AXP 1,3"


def test_cxp_output(capsys):
    # ascending deletion over the contrastive sets {P} and {M} keeps M
    code, out, _ = run(capsys, ["cxp", *ELLA_OBDD])
    assert code == 0 and out.strip() == "CXP 3"


def test_constant_classifier_rejected(capsys, tmp_path):
    path = tmp_path / "const.obdd"
    path.write_text("obdd 2 3\nT 0 1\nT 1 1\nN 2 1 0 1\n")
    inst = tmp_path / "const.inst"
    inst.write_text("v: 0,0\nc: 1\n")
    code, _, err = run(
        capsys, ["axp", "--obdd", str(path), "--instance", str(inst)]
    )
    assert code == 2
    assert "constant" in err


@pytest.mark.parametrize("body, label", [("F 0", 0), ("T 0", 1)])
def test_constant_sdd_rejected(capsys, tmp_path, body, label):
    path = tmp_path / "const.sdd"
    path.write_text(f"sdd 1\n{body}\n")
    inst = tmp_path / "const.inst"
    inst.write_text(f"v: 0,0,0,0\nc: {label}\n")
    code, _, err = run(
        capsys,
        ["fmp", "--sdd", str(path), "--vtree", str(DATA / "ella.vtree"),
         "--instance", str(inst), "--target", "1"],
    )
    assert code == 2
    assert "constant" in err


REJECTED_FILES = {
    "const.dt": "dt 1\nDOM 1 2 0 1\nN 0 1\nT 1 0\nT 2 0\nE 0 1 0\nE 0 2 1\n",
    "const.xpg": "xpg 1 3\nN 0 1\nT 1 1\nT 2 1\nE 0 1 0\nE 0 2 1\n",
    "one.inst": "v: 0\nc: 0\n",
}
REJECTED = {
    "constant-dt": (["axp", "--dt", "const.dt", "--instance", "one.inst"], "constant"),
    "xpg-without-0-terminal": (["axp", "--xpg", "const.xpg"], "constant"),
    "obdd-without-instance": (["axp", "--obdd", str(DATA / "ella.obdd")],
                              "--obdd needs --instance"),
    "xpg-instance-length": (["axp", *ELLA_XPG, "--instance", "one.inst"],
                            "instance has 1 features, graph has 4"),
    "two-classifiers": (["axp", *ELLA_OBDD, *ELLA_XPG], "exactly one classifier input"),
    "nan-time-limit": (["fmp", *ELLA_OBDD, "--target", "3", "--method", "one-step",
                        "--time-limit-s", "nan"], "time limit nan"),
}


@pytest.mark.parametrize("argv, fragment", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_arguments(capsys, tmp_path, argv, fragment):
    for name, text in REJECTED_FILES.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(capsys, [str(tmp_path / a) if a in REJECTED_FILES else a for a in argv])
    assert code == 2
    assert fragment in err


def _no_negation(sdd):
    raise AssertionError("built the negated diagram")


def _spy_on_the_sdd_lowering(monkeypatch):
    """The polarity of each SDD lowering from now on, with sdd.negate refused."""
    polarities = []
    lower = explain_mod._lower_sdd

    def spy(sdd, values, negated, *args):
        polarities.append(negated)
        return lower(sdd, values, negated, *args)

    monkeypatch.setattr(explain_mod, "_lower_sdd", spy)
    monkeypatch.setattr(sdd_mod, "negate", _no_negation)
    return polarities


def test_an_sdd_command_lowers_once_in_the_instance_polarity(capsys, tmp_path, monkeypatch):
    polarities = _spy_on_the_sdd_lowering(monkeypatch)
    # ella.inst has class 0: the diagram is lowered as it is
    for argv in (["fmp", *ELLA_SDD, "--target", "3"], ["encode", *ELLA_SDD, "--target", "3"]):
        polarities.clear()
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert polarities == [False]
    # a class-1 instance is lowered once in negated polarity, a record shared
    # by the constant check and the encoding, and no note is printed
    inst = tmp_path / "accepted.inst"
    inst.write_text("v: 1,1,0,0\nc: 1\n")
    polarities.clear()
    code, _, err = run(
        capsys,
        ["fmp", "--sdd", str(DATA / "ella.sdd"), "--vtree", str(DATA / "ella.vtree"),
         "--instance", str(inst), "--target", "1"],
    )
    assert code == 0
    assert polarities == [True]
    assert "note:" not in err


def test_an_sdd_command_evaluates_the_diagram_once(capsys, tmp_path, monkeypatch):
    # the instance's class is checked when the adapter makes its record;
    # the lowering and the encoder trust that check
    calls = []
    evaluate = sdd_mod.evaluate

    def counting(sdd, point):
        calls.append(point)
        return evaluate(sdd, point)

    monkeypatch.setattr(sdd_mod, "evaluate", counting)
    monkeypatch.setattr(enc, "evaluate", counting)
    for argv in (["axp", *ELLA_SDD], ["fmp", *ELLA_SDD, "--target", "3"],
                 ["encode", *ELLA_SDD, "--target", "3", "--out", str(tmp_path / "q.cnf")]):
        calls.clear()
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert len(calls) == 1, argv


def test_an_obdd_command_checks_the_instance_once(capsys, tmp_path, monkeypatch):
    # loading makes the adapter's record, which checks the instance; the
    # query and the encoding read that record
    calls = []
    check = F.ObddClassifier.check_instance

    def counting(self, instance):
        calls.append(instance)
        return check(self, instance)

    monkeypatch.setattr(F.ObddClassifier, "check_instance", counting)
    for argv in (["axp", *ELLA_OBDD], ["fmp", *ELLA_OBDD, "--target", "3"],
                 ["encode", *ELLA_OBDD, "--target", "3", "--out", str(tmp_path / "q.cnf")]):
        calls.clear()
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert len(calls) == 1, argv


def test_import_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fmpsat, fmpsat.cli; "
         "print([m for m in ('numpy', 'subprocess', 'shlex') if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_names_file(capsys, tmp_path):
    names = tmp_path / "names.txt"
    names.write_text("Top\nYoung\nMale\nWork\n")
    code, out, err = run(capsys, ["axp", *ELLA_SDD, "--names", str(names)])
    assert code == 0 and out.strip() == "AXP 1,3"
    assert "Top, Male" in err


# ------------------------------------------------------------------- enum

def test_enum_running_example(capsys):
    code, out, _ = run(capsys, ["enum", *ELLA_SDD])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "AXPS: {1,3}"
    assert lines[1] == "CXPS: {1} {3}"


def test_enum_agrees_across_routes(capsys):
    _, out_sdd, _ = run(capsys, ["enum", *ELLA_SDD])
    _, out_xpg, _ = run(capsys, ["enum", *ELLA_XPG])
    assert out_sdd == out_xpg


def test_enum_guard_trips(capsys, tmp_path):
    obdd = generate_random_obdd(17, 40, seed=3)
    path = tmp_path / "wide.obdd"
    path.write_text(F.serialize_obdd(obdd))
    inst = tmp_path / "wide.inst"
    point = tuple([0] * 17)
    inst.write_text(
        "v: " + ",".join("0" for _ in range(17)) + f"\nc: {obdd.predict(point)}\n"
    )
    code, _, err = run(capsys, ["enum", "--obdd", str(path), "--instance", str(inst)])
    assert code == 2
    assert "limited to 16" in err


# ----------------------------------------------------------------- encode

@pytest.mark.pins("ella-dimacs")
def test_encode_golden():
    got = pins.ella_dimacs()
    assert got == {name: (DATA / name).read_text() for name in got}


def test_encode_streams_the_goldens_to_file_and_stdout(capsys, tmp_path):
    negated = tmp_path / "class1.inst"
    negated.write_text("v: 1,0,1,1\nc: 1\n")
    cases = [
        (["--obdd", str(DATA / "ella.obdd"), "--instance", str(DATA / "ella.inst"),
          "--method", "one-step"], "ella_xpg_onestep_t3.cnf"),
        (["--sdd", str(DATA / "ella.sdd"), "--vtree", str(DATA / "ella.vtree"),
          "--instance", str(negated), "--method", "two-step"], "ella_sdd_negated_twostep_t3.cnf"),
    ]
    goldens = pins.ella_dimacs()
    for args, golden in cases:
        expected = goldens[golden].encode()
        out_path = tmp_path / golden
        code, out, _ = run(capsys, ["encode", *args, "--target", "3", "--out", str(out_path)])
        assert code == 0 and out == ""
        assert out_path.read_bytes() == expected
        code, out, _ = run(capsys, ["encode", *args, "--target", "3"])
        assert code == 0
        assert out.encode() == expected


# the desk-dimacs family, one test per file as the files were added; the CI
# job checks the same digests through the installed script

def _keeps_its_bytes(*keys):
    assert pins.desk_dimacs(*keys) == {key: pins.load()["desk-dimacs"][key] for key in keys}


@pytest.mark.pins("desk-dimacs", "obdd-m60-q0-t48-onestep")
def test_encode_keeps_the_bytes_of_a_desk_one_step_file():
    # the 132k-clause one-step file of the benchmark's desk query obdd-m60-q0
    _keeps_its_bytes("obdd-m60-q0-t48-onestep")


@pytest.mark.pins("desk-dimacs", "obdd-m100-q0-t84-onestep")
def test_encode_keeps_the_bytes_of_the_largest_desk_one_step_file():
    # desk query obdd-m100-q0 with target 84 gives the largest one-step file
    _keeps_its_bytes("obdd-m100-q0-t84-onestep")


@pytest.mark.pins("desk-dimacs", "sdd-m100-q0-t8-onestep", "sdd-m100-q0-t8-twostep")
@pytest.mark.parametrize("method", ["one-step", "two-step"])
def test_encode_keeps_the_bytes_of_the_desk_negated_sdd_files(method):
    # desk query sdd-m100-q0 is of class 1 with target 8, so both files
    # encode the negated diagram
    _keeps_its_bytes(f"sdd-m100-q0-t8-{method.replace('-', '')}")


def test_encode_twostep_smaller(capsys, tmp_path):
    one, two = tmp_path / "one.cnf", tmp_path / "two.cnf"
    run(capsys, ["encode", *ELLA_SDD, "--target", "3", "--method", "one-step", "--out", str(one)])
    run(capsys, ["encode", *ELLA_SDD, "--target", "3", "--method", "two-step", "--out", str(two)])
    clause_count = lambda p: int(p.read_text().split("p cnf ")[1].split()[1])
    assert clause_count(two) < clause_count(one)


def test_encode_invalid_target(capsys):
    code, _, _ = run(capsys, ["encode", *ELLA_SDD, "--target", "0"])
    assert code == 2


# ------------------------------------------------------------------ bench

def test_bench_deterministic(capsys, tmp_path):
    argv = [
        "bench", "--kind", "obdd", "--count", "2", "--m", "6", "--nodes", "20",
        "--queries", "8", "--seed", "13",
    ]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    # timing columns vary; everything else must not
    scrub = lambda text: [
        ",".join(line.split(",")[:7] + line.split(",")[9:])
        for line in text.splitlines()
    ]
    assert scrub(first) == scrub(second)


@pytest.mark.pins("bench-seed7")
def test_bench_keeps_its_seed7_answers():
    # the CI job's bench runs, every column but the timings
    assert pins.bench_seed7() == pins.load()["bench-seed7"]


def test_bench_paired_rows_and_method_agreement(capsys):
    code, out, _ = run(
        capsys,
        ["bench", "--kind", "sdd", "--count", "1", "--m", "5", "--nodes", "16",
         "--queries", "6", "--seed", "2"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + one row per method
    one = lines[1].split(",")
    two = lines[2].split(",")
    assert {one[3], two[3]} == {"one-step", "two-step"}
    assert one[4] == two[4]  # same yes percentage


def test_bench_holds_one_instance_and_lowers_each_once(capsys, monkeypatch):
    polarities = _spy_on_the_sdd_lowering(monkeypatch)
    decide = batch_mod.decide_membership
    instances = []

    def decide_holding_one_instance(query):
        clf = query.classifier
        assert set(clf._records) <= {query.instance}
        instances.append((clf, query.instance))
        return decide(query)

    monkeypatch.setattr(batch_mod, "decide_membership", decide_holding_one_instance)
    code, out, err = run(capsys, ["bench", "--kind", "sdd", "--count", "2", "--m", "6",
                                  "--nodes", "20", "--queries", "8", "--seed", "3"])
    assert code == 0 and len(out.splitlines()) == 5
    assert err == ""
    # one lowering per instance, in negated polarity exactly for class 1
    labels = [inst.label for _, inst in dict.fromkeys(instances)]
    assert polarities == [label == 1 for label in labels]
    assert set(labels) == {0, 1}
