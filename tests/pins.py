"""Every trajectory pin of the test suite, one function per family.

A pin is an exact value that a change to the encoder or to the search
may move: an answer with its witness and two-step seed, a formula's
size, the kernel's counters, a DIMACS digest, a bench CSV row. Each
family function below is the only code that computes its family's
values. Its test, marked ``pins(<family>)``, compares them exactly with
``tests/data/pins.json``, or, for a family in ``FILES``, with the files
of the same names in ``tests/data``. The CI job reads its expected stats
lines, witnesses, digests and CSV rows from the same table.

``python tests/pins.py`` re-records: it runs tier-1 without the pin
tests (``-m "not pins"``) and writes nothing unless that passes; then it
rewrites the table and the pinned files and prints a
``family/key: old -> new`` line for each value that moved.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
DESK = ROOT / "perfbench" / "data" / "desk"

if __name__ == "__main__":  # run as a script: import the package from the checkout
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fmpsat as F  # noqa: E402
from fmpsat import cli  # noqa: E402
from fmpsat.batch import (  # noqa: E402
    generate_random_classifier,
    generate_random_obdd,
    obdd_to_shannon_sdd,
    random_instance,
)
from fmpsat.encode import CnfFormula, write_dimacs  # noqa: E402
from fmpsat.sat import solve  # noqa: E402
from random_graphs import random_dt  # noqa: E402


def _sorted(features):
    return None if features is None else sorted(features)


def _outcome(out):
    return {"answer": out.answer, "counters": dict(out.stats),
            "witness": _sorted(out.witness), "seed": _sorted(out.two_step_seed)}


# ------------------------------------------------------------ formulas

def php_formula(pigeons, holes):
    """The pigeonhole formula: every pigeon in a hole, no two in one."""
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return CnfFormula(num_vars=pigeons * holes, clauses=clauses)


def random_3cnf_formula(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, 3) * 2 - 1
        clauses.append([int(v * s) for v, s in zip(variables, signs)])
    return CnfFormula(num_vars=num_vars, clauses=clauses)


# ---------------------------------------------------------------- desk

def desk_classifier(name):
    if name.startswith("sdd"):
        vtree = F.parse_vtree((DESK / f"{name}.vtree").read_text())
        return F.SddClassifier(F.parse_sdd((DESK / f"{name}.sdd").read_text(), vtree))
    return F.ObddClassifier(F.parse_obdd((DESK / f"{name}.obdd").read_text()))


def desk_instance(query):
    return F.parse_instance((DESK / f"{query}.inst").read_text())


def desk_queries():
    """(query, classifier, target) for each line of the desk's queries.txt."""
    rows = [line.split() for line in (DESK / "queries.txt").read_text().splitlines()
            if not line.startswith("c")]
    return [(name, classifier, int(target)) for name, classifier, target, _ in rows]


# -------------------------------------------------------------- families

def _digest_corpus():
    """(name, classifier, instance, target): OBDDs and their Shannon SDDs
    with m = 10, 20, 30 (class 1, 0, 1), three targets each, and one DT."""
    rng = np.random.default_rng(14)
    for kind in ("obdd", "shannon-sdd"):
        for m in (10, 20, 30):
            clf = generate_random_classifier(kind, m, 10 * m, seed=m)
            inst = random_instance(clf, rng)
            while inst.label != m // 10 % 2:  # both classes on both kinds
                inst = random_instance(clf, rng)
            for t in sorted(int(t) for t in rng.choice(np.arange(1, m + 1), 3, replace=False)):
                yield f"{kind}-m{m}-t{t}", clf, inst, t
    dt = random_dt(rng, 8)
    while len(dt.nodes) < 25:
        dt = random_dt(rng, 8)
    clf = F.DtClassifier(dt)
    inst = random_instance(clf, rng)
    for t in sorted(int(t) for t in rng.choice(np.arange(1, 9), 3, replace=False)):
        yield f"dt-m8-t{t}", clf, inst, t


def encoding_digests():
    """SHA-256 of write_dimacs(cnf, vm) for each case and method of the
    digest corpus: any change to variables, clause order or literals."""
    digests = {}
    for name, clf, inst, t in _digest_corpus():
        for method in ("one-step", "two-step"):
            cnf, vm = F.build_encoding(F.FmpQuery(clf, inst, t, method))
            digests[f"{name}/{method}"] = hashlib.sha256(
                write_dimacs(cnf, vm).encode()).hexdigest()
    return digests


def desk():
    """The nine two-step desk queries, each on a fresh adapter under a
    10 s limit: the formula's size, the search's counters, witness and
    two-step seed, and the gates of the instance's circuit (those its
    output reads through folded live terms, a gate whose only live term
    is one operand taken as that operand)."""
    table = {}
    for name, classifier, target in desk_queries():
        clf, inst = desk_classifier(classifier), desk_instance(name)
        out = F.decide_membership(F.FmpQuery(clf, inst, target, "two-step", time_limit_s=10.0))
        table[name] = {"target": target, "vars": out.num_vars, "clauses": out.num_clauses,
                       **_outcome(out), "gates": len(clf.circuit_for(inst).terms)}
    return table


SDD_SWEEPS = ((14, 80, 3), (18, 150, 8))  # (features, node budget, seed)


def sdd_sweeps():
    """Two-step sweeps of every target on one adapter of a small random
    Shannon SDD; the seed draws the diagram and the instance, of class 1
    and 0 here."""
    table = {}
    for m, nodes, seed in SDD_SWEEPS:
        clf = F.SddClassifier(obdd_to_shannon_sdd(generate_random_obdd(m, nodes, seed)))
        inst = random_instance(clf, np.random.default_rng(seed))
        for target in range(1, m + 1):
            out = F.decide_membership(F.FmpQuery(clf, inst, target, "two-step"))
            table[f"m{m}-n{nodes}-s{seed}/t{target}"] = _outcome(out)
    return table


# (kind, m, node budget, seed) of generate_random_classifier -> (instance
# values, target); every Yes target here lies in two or more AXps, so a
# search change that returns another model shows up as another witness
GOLDEN_QUERIES = {
    ("obdd", 10, 40, 5): (("0100000010", 7), ("1110011100", 6), ("0111011010", 4),
                          ("1101011010", 3), ("0100010100", 6)),
    ("shannon-sdd", 10, 40, 6): (("1011011001", 1), ("1001001001", 9), ("0000110101", 10),
                                 ("1110111111", 2), ("0001110111", 2), ("1100111100", 8)),
}


def golden():
    """Fixed-seed queries, one-step and two-step, on one adapter each."""
    table = {}
    for (kind, m, budget, seed), queries in GOLDEN_QUERIES.items():
        clf = generate_random_classifier(kind, m, budget, seed=seed)
        for text, target in queries:
            values = tuple(int(ch) for ch in text)
            inst = F.Instance(values, clf.predict(values))
            for method in ("one-step", "two-step"):
                out = F.decide_membership(F.FmpQuery(clf, inst, target, method))
                table[f"{kind}-m{m}-n{budget}-s{seed}/{text}-t{target}/{method}"] = {
                    "membership": out.membership, "witness": _sorted(out.witness),
                    "seed": _sorted(out.two_step_seed), "vars": out.num_vars,
                    "clauses": out.num_clauses}
    return table


def pigeonhole():
    """The search of 7 pigeons into 6 holes: restarts and long learned clauses."""
    result = solve(php_formula(7, 6))
    return {"php-7-6": {"satisfiable": result.satisfiable, "counters": dict(result.stats)}}


def random_3cnf():
    """Twelve near-threshold random 3-CNF searches from seed 17: the size,
    the counters and the model as a bit mask over variables 1.., or None."""
    rng = np.random.default_rng(17)
    table = {}
    for i in range(12):
        n = int(rng.integers(40, 61))
        result = solve(random_3cnf_formula(rng, n, round(4.26 * n)))
        mask = (sum(1 << v for v, x in enumerate(result.model[1:]) if x)
                if result.satisfiable else None)
        table[f"seed17/{i}"] = {"vars": n, "counters": dict(result.stats), "model": mask}
    return table


def _encode(args, target, method, out):
    """`fmpsat encode` of the arguments to the file out, read back as bytes."""
    argv = ["encode", *map(str, args), "--target", str(target), "--method", method,
            "--out", str(out)]
    if cli.main(argv) != 0:
        raise RuntimeError(f"fmpsat {' '.join(argv)} failed")
    return out.read_bytes()


def desk_dimacs(*keys):
    """SHA-256 of `fmpsat encode` on desk queries: the one-step files of
    obdd-m60-q0 and of obdd-m100-q0 (the desk's largest), and both files
    of sdd-m100-q0, whose class 1 makes both lower the diagram in negated
    polarity.
    Given keys, only those files are made."""
    sdd = ["--sdd", DESK / "sdd-m100.sdd", "--vtree", DESK / "sdd-m100.vtree"]
    cases = (("obdd-m60-q0", ["--obdd", DESK / "obdd-m60.obdd"], 48, "one-step"),
             ("obdd-m100-q0", ["--obdd", DESK / "obdd-m100.obdd"], 84, "one-step"),
             ("sdd-m100-q0", sdd, 8, "one-step"), ("sdd-m100-q0", sdd, 8, "two-step"))
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for query, diagram, target, method in cases:
            key = f"{query}-t{target}-{method.replace('-', '')}"
            if keys and key not in keys:
                continue
            text = _encode([*diagram, "--instance", DESK / f"{query}.inst"], target, method,
                           Path(tmp) / key)
            digests[key] = hashlib.sha256(text).hexdigest()
    return digests


def bench_seed7():
    """`fmpsat bench` on four m = 30 classifiers of each kind from seed 7:
    every column of each row but the timings."""
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("obdd", "sdd"):
            report = Path(tmp) / f"{kind}.csv"
            cli.main(["bench", "--kind", kind, "--count", "4", "--m", "30", "--nodes", "200",
                      "--queries", "100", "--seed", "7", "--out", str(report)])
            for line in report.read_text().splitlines()[1:]:
                fields = line.split(",")
                rows[f"{fields[0]}/{fields[3]}"] = ",".join(fields[:7] + fields[9:])
    return rows


def ella_dimacs():
    """The two Ella DIMACS files: the OBDD's one-step encoding of target 3,
    and the SDD's two-step one for an instance of class 1, lowered in
    negated polarity."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "class1.inst").write_text("v: 1,0,1,1\nc: 1\n")
        obdd = ["--obdd", DATA / "ella.obdd", "--instance", DATA / "ella.inst"]
        sdd = ["--sdd", DATA / "ella.sdd", "--vtree", DATA / "ella.vtree",
               "--instance", tmp / "class1.inst"]
        return {name: _encode(args, 3, method, tmp / name).decode()
                for name, args, method in (("ella_xpg_onestep_t3.cnf", obdd, "one-step"),
                                           ("ella_sdd_negated_twostep_t3.cnf", sdd, "two-step"))}


# the families kept in the table, and those kept as files of tests/data
TABLE = {"encoding-digests": encoding_digests, "desk": desk, "sdd-sweeps": sdd_sweeps,
         "golden": golden, "pigeonhole": pigeonhole, "random-3cnf": random_3cnf,
         "desk-dimacs": desk_dimacs, "bench-seed7": bench_seed7}
FILES = {"ella-dimacs": ella_dimacs}


# -------------------------------------------------------------- recorder

def load():
    with open(DATA / "pins.json") as table:
        return json.load(table)


def dumps(table):
    """The table with one line per key, in the order given, so that a
    re-record changes only the lines of the values that moved."""
    families = []
    for family, values in table.items():
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                          for key, value in values.items())
        families.append(f" {json.dumps(family)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(families) + "\n}\n"


_NONE = object()  # the side of a change that lacks the key


def _changes(path, old, new):
    """`path: old -> new` for each value that differs, down through dicts."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in {**old, **new}:
            yield from _changes(f"{path}/{key}".lstrip("/"), old.get(key, _NONE),
                                new.get(key, _NONE))
    elif old != new:
        def show(value):
            return "(none)" if value is _NONE else json.dumps(value)
        yield f"{path}: {show(old)} -> {show(new)}"


def _digests(texts):
    """Each file's text as the head of its SHA-256, for the change lines."""
    return {name: hashlib.sha256(text.encode()).hexdigest()[:16] for name, text in texts.items()}


def main():
    gate = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-m", "not pins"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))})
    if gate.returncode != 0:
        print("tier-1 without the pin tests failed: nothing written", file=sys.stderr)
        return 1
    old = load()
    new = {family: compute() for family, compute in TABLE.items()}
    files = {family: compute() for family, compute in FILES.items()}
    on_disk = {family: {name: (DATA / name).read_text() for name in texts
                        if (DATA / name).exists()}
               for family, texts in files.items()}
    lines = [*_changes("", old, new),
             *_changes("", {family: _digests(texts) for family, texts in on_disk.items()},
                       {family: _digests(texts) for family, texts in files.items()})]
    (DATA / "pins.json").write_text(dumps(new))
    for texts in files.values():
        for name, text in texts.items():
            (DATA / name).write_text(text)
    print("\n".join(lines) or "no pin moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
