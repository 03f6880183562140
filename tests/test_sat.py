"""Internal solver correctness and the external-solver adapter."""

import re
import sys
import textwrap
import time

import numpy as np
import pytest

from fmpsat.encode import CnfFormula
from fmpsat.errors import (
    SolverError,
    SolverModelError,
    SolverOutputError,
    SolverSpawnError,
    SolverTimeout,
)
from fmpsat.sat import solve, solve_external
from fmpsat.sat.kernel import model_satisfies

from oracles import dpll_sat, exhaustive_sat


def _random_3cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, 3) * 2 - 1
        clauses.append([int(v * s) for v, s in zip(variables, signs)])
    return CnfFormula(num_vars=num_vars, clauses=clauses)


def _php(pigeons, holes):
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return CnfFormula(num_vars=pigeons * holes, clauses=clauses)


# ----------------------------------------------------------------- basics

def test_single_unit():
    result = solve(CnfFormula(num_vars=1, clauses=[[1]]))
    assert result.satisfiable and result.value(1)


def test_contradiction():
    assert not solve(CnfFormula(num_vars=1, clauses=[[1], [-1]])).satisfiable


def test_pigeonhole_4_into_3():
    cnf = _php(4, 3)
    assert exhaustive_sat(cnf.num_vars, cnf.clauses) is False
    assert not solve(cnf).satisfiable


def test_empty_formula():
    assert solve(CnfFormula()).satisfiable


def test_model_is_total_and_sound():
    rng = np.random.default_rng(1)
    cnf = _random_3cnf(rng, 30, 100)
    result = solve(cnf)
    if result.satisfiable:
        assert result.model.shape[0] == cnf.num_vars + 1
        assert model_satisfies(cnf.clauses, result.model[1:])


def test_tautological_clause_ignored():
    cnf = CnfFormula(num_vars=2, clauses=[[1, -1], [2]])
    result = solve(cnf)
    assert result.satisfiable and result.value(2)


# ----------------------------------------------------------- completeness

def test_agreement_with_truth_tables():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        n = int(rng.integers(3, 21))
        k = int(rng.integers(2, int(4.4 * n) + 1))
        cnf = _random_3cnf(rng, n, k)
        assert solve(cnf).satisfiable == exhaustive_sat(n, cnf.clauses)


def test_agreement_with_dpll_beyond_table_range():
    rng = np.random.default_rng(4096)
    for _ in range(30):
        n = int(rng.integers(22, 29))
        k = int(rng.integers(3 * n, int(4.4 * n) + 1))
        cnf = _random_3cnf(rng, n, k)
        assert solve(cnf).satisfiable == dpll_sat(n, cnf.clauses)


def test_assumption_semantics():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(4, 15))
        cnf = _random_3cnf(rng, n, int(rng.integers(5, 4 * n)))
        k = int(rng.integers(1, 4))
        assumed = [
            int((v + 1) * s)
            for v, s in zip(
                rng.choice(n, size=k, replace=False), rng.integers(0, 2, k) * 2 - 1
            )
        ]
        with_assumptions = solve(cnf, assumptions=assumed)
        as_units = CnfFormula(
            num_vars=n, clauses=list(cnf.clauses) + [[a] for a in assumed]
        )
        assert with_assumptions.satisfiable == solve(as_units).satisfiable


def test_zero_time_limit_raises():
    cnf = _php(5, 4)
    with pytest.raises(SolverTimeout):
        solve(cnf, time_limit_s=0.0)


def test_time_limit_holds_during_search():
    cnf = _php(9, 8)  # far more than half a second of search
    started = time.perf_counter()
    with pytest.raises(SolverTimeout):
        solve(cnf, time_limit_s=0.5)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.5, f"a 0.5 s limit ended the search after {elapsed:.2f} s"


# ------------------------------------------------------- external adapter

@pytest.fixture(scope="module")
def stub_solver(tmp_path_factory):
    """A genuinely separate process: parses DIMACS, answers in
    competition format using this package's own engine."""
    path = tmp_path_factory.mktemp("stub") / "stub_solver.py"
    path.write_text(
        textwrap.dedent(
            """
            import sys

            from fmpsat.encode import CnfFormula
            from fmpsat.sat import solve

            clauses, num_vars = [], 0
            for line in open(sys.argv[1]):
                line = line.strip()
                if not line or line[0] in "c%":
                    continue
                if line.startswith("p "):
                    num_vars = int(line.split()[2])
                    continue
                lits = [int(t) for t in line.split()]
                clauses.append([l for l in lits if l != 0])
            result = solve(CnfFormula(num_vars=num_vars, clauses=clauses))
            if result.satisfiable:
                print("s SATISFIABLE")
                lits = [v if result.value(v) else -v for v in range(1, num_vars + 1)]
                print("v " + " ".join(map(str, lits)) + " 0")
            else:
                print("s UNSATISFIABLE")
            """
        )
    )
    return f"{sys.executable} {path}"


def test_external_agrees_with_internal(stub_solver):
    rng = np.random.default_rng(4242)
    for _ in range(100):
        cnf = _random_3cnf(rng, 50, 200)
        assert solve_external(cnf, stub_solver).satisfiable == solve(cnf).satisfiable


def test_external_unsat_line(tmp_path):
    script = tmp_path / "always_unsat.py"
    script.write_text("print('s UNSATISFIABLE')\n")
    cnf = CnfFormula(num_vars=1, clauses=[[1]])
    assert not solve_external(cnf, f"{sys.executable} {script}").satisfiable


def test_external_unparseable_output(tmp_path):
    script = tmp_path / "garbage.py"
    script.write_text("print('hello world')\n")
    cnf = CnfFormula(num_vars=1, clauses=[[1]])
    with pytest.raises(SolverOutputError, match="no s-line"):
        solve_external(cnf, f"{sys.executable} {script}")


def test_external_lying_model(tmp_path):
    script = tmp_path / "liar.py"
    script.write_text("print('s SATISFIABLE')\nprint('v -1 0')\n")
    cnf = CnfFormula(num_vars=1, clauses=[[1]])
    with pytest.raises(SolverModelError, match="verification"):
        solve_external(cnf, f"{sys.executable} {script}")


def test_external_spawn_failure():
    cnf = CnfFormula(num_vars=1, clauses=[[1]])
    with pytest.raises(SolverSpawnError):
        solve_external(cnf, "/nonexistent/solver-binary")


# ------------------------------------------------------ malformed formulas

MALFORMED = {
    "past-num-vars": (1, [[2], [1]], (), 2),  # once read as -1: unsatisfiable
    "zero": (2, [[0, 1]], (), 0),  # once read as the last variable
    "past-code-table": (1, [[2]], (), 2),  # once an IndexError
    "negative": (3, [[1, 2], [-4, 3]], (), -4),
    "assumption": (2, [[1, 2]], (1, 3), 3),
}


@pytest.mark.parametrize(
    "num_vars,clauses,assumptions,bad", MALFORMED.values(), ids=MALFORMED.keys()
)
def test_malformed_formula_is_a_solver_error(num_vars, clauses, assumptions, bad, stub_solver):
    cnf = CnfFormula(num_vars=num_vars, clauses=clauses)
    message = re.escape(f"literal {bad} outside 1..{num_vars}")
    with pytest.raises(SolverError, match=message):
        solve(cnf, assumptions=assumptions)
    if not assumptions:
        with pytest.raises(SolverError, match=message):
            solve_external(cnf, stub_solver)
