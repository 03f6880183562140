"""Internal solver correctness and the external-solver adapter."""

import math
import re
import sys
import textwrap
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmpsat import errors as errors_mod
from fmpsat.encode import CnfFormula
from fmpsat.errors import (
    SolverError,
    SolverModelError,
    SolverOutputError,
    SolverSpawnError,
    SolverTimeout,
)
from fmpsat.sat import kernel, solve, solve_external
from fmpsat.sat import solver as solver_mod
from fmpsat.sat.kernel import model_satisfies

import pins
from oracles import dpll_sat, exhaustive_sat
from pins import php_formula, random_3cnf_formula


# ----------------------------------------------------------------- basics

def test_single_unit():
    result = solve(CnfFormula(num_vars=1, clauses=[[1]]))
    assert result.satisfiable and result.value(1)


def test_contradiction():
    assert not solve(CnfFormula(num_vars=1, clauses=[[1], [-1]])).satisfiable
    assert not solve(CnfFormula(num_vars=1, clauses=[[1], []])).satisfiable


def test_pigeonhole_4_into_3():
    cnf = php_formula(4, 3)
    assert exhaustive_sat(cnf.num_vars, cnf.clauses) is False
    assert not solve(cnf).satisfiable


def test_empty_formula():
    assert solve(CnfFormula()).satisfiable


def test_model_is_total_and_sound():
    rng = np.random.default_rng(1)
    cnf = random_3cnf_formula(rng, 30, 100)
    result = solve(cnf)
    if result.satisfiable:
        assert len(result.model) == cnf.num_vars + 1
        assert model_satisfies(cnf.clauses, result.model[1:])


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_model_satisfies_matches_a_literal_by_literal_check(data):
    n = data.draw(st.integers(1, 8))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = data.draw(st.lists(st.lists(literal, max_size=5), max_size=12))
    model = data.draw(st.lists(st.sampled_from((0, 1, False, True)), min_size=n, max_size=n))
    expected = all(any((lit > 0) == bool(model[abs(lit) - 1]) for lit in clause)
                   for clause in clauses)
    assert model_satisfies(clauses, model) is expected


def test_search_counters():
    rng = np.random.default_rng(8)
    for cnf, satisfiable in ((php_formula(5, 4), False),
                             (random_3cnf_formula(rng, 40, 150), True)):
        result = solve(cnf)
        assert result.satisfiable is satisfiable
        stats = result.stats
        assert stats["decisions"] > 0 and stats["propagations"] > 0
        assert stats["conflicts"] > 0 or satisfiable
        assert stats["learned_literals"] >= stats["learned_clauses"]
        # every conflict above level 0 learns a clause; UNSAT may end on one at level 0
        assert stats["conflicts"] - stats["learned_clauses"] in ((0,) if satisfiable else (0, 1))


def test_a_copy_searches_as_its_whole_clause_list():
    # a copy's search starts from its base's packing, kept on the base once
    # the first copy is solved, and must run as on the full list
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(5, 30))
        base = random_3cnf_formula(rng, n, int(rng.integers(1, 4 * n)))
        base.clauses += [[int(rng.integers(1, n + 1))], [1, -1, 2], [2, 2, -3]][: trial % 4]
        if trial % 2:  # tuples, as the encoders make them
            base.clauses = list(map(tuple, base.clauses))
        for _ in range(3):
            cnf = base.copy()
            for _ in range(int(rng.integers(0, 3))):
                cnf.new_var()
            extra = random_3cnf_formula(rng, cnf.num_vars, int(rng.integers(0, n)))
            cnf.clauses += extra.clauses + [[-cnf.num_vars]][: trial % 2]
            whole = CnfFormula(cnf.num_vars, list(cnf.clauses))
            assert solve(cnf) == solve(whole)
        assert base.packed is not None


def test_a_copy_no_longer_starting_with_its_base_is_packed_whole():
    base = CnfFormula(2, [[1], [1, 2]])
    assert solve(base.copy()).value(1)
    for edit in (lambda c: c.__setitem__(0, [-1]), lambda c: c.__delitem__(0)):
        cnf = base.copy()
        edit(cnf.clauses)
        cnf.clauses.append([-1])
        assert solve(cnf) == solve(CnfFormula(2, list(cnf.clauses)))
    cnf = base.copy()
    cnf.num_vars = 0
    with pytest.raises(SolverError, match="literal 1 outside 1..0"):
        solve(cnf)


def test_a_base_changed_after_packing_is_searched_as_it_is_now():
    # the packing covers the clauses the base had when it was packed:
    # clauses added to the base later, or edited in place, are not skipped
    base = CnfFormula(2, [[1, 2]])
    assert solve(base.copy()).satisfiable
    base.add([-1])
    base.add([-2])
    cnf = base.copy()
    assert solve(cnf) == solve(CnfFormula(2, list(cnf.clauses)))
    assert not solve(cnf).satisfiable
    base.add([3])
    with pytest.raises(SolverError, match="literal 3 outside 1..2"):
        solve(base.copy())
    base = CnfFormula(2, [[1, 2], [-1]])
    assert solve(base.copy()).satisfiable
    base.clauses[0][1] = 1  # the shared clause is now [1, 1]
    cnf = base.copy()
    assert solve(cnf) == solve(CnfFormula(2, list(cnf.clauses)))
    assert not solve(cnf).satisfiable
    # the encoders' tuples are kept as they are, and a list among them is
    # copied, so an edit in place after packing is still caught
    base = CnfFormula(3, [(1, 2), (-1, 3), (-3,), [2, 3]])
    assert solve(base.copy()).value(2)
    packed = base.packed[0]
    assert all(p is c for p, c in zip(packed[:3], base.clauses)) and packed[3] is not base.clauses[3]
    base.clauses[3][0] = -2  # the list clause is now [-2, 3]
    cnf = base.copy()
    assert solve(cnf) == solve(CnfFormula(3, list(cnf.clauses)))
    assert not solve(cnf).satisfiable
    base = CnfFormula(1, [[2]])  # out of the base's range, not of its copy's
    cnf = base.copy()
    cnf.new_var()
    assert solve(cnf).value(2)
    with pytest.raises(TypeError):
        CnfFormula(2, [[1]], packed=([[1]], 2, [0], []))


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
        cnf = random_3cnf_formula(rng, n, k)
        assert solve(cnf).satisfiable == exhaustive_sat(n, cnf.clauses)


def test_agreement_with_dpll_beyond_table_range():
    rng = np.random.default_rng(4096)
    for _ in range(30):
        n = int(rng.integers(22, 29))
        k = int(rng.integers(3 * n, int(4.4 * n) + 1))
        cnf = random_3cnf_formula(rng, n, k)
        assert solve(cnf).satisfiable == dpll_sat(n, cnf.clauses)


# a clause of 1-6 literals, most of two or three
_MIXED_SIZES = (1, 2, 3, 4, 5, 6)
_MIXED_WEIGHTS = (0.04, 0.3, 0.36, 0.1, 0.1, 0.1)


def _mixed_clauses(rng, num_vars, num_clauses):
    """Clauses of 1-6 literals drawn with replacement, so that repeated
    literals and complementary pairs occur; lists and tuples mixed."""
    clauses = []
    for _ in range(num_clauses):
        size = int(rng.choice(_MIXED_SIZES, p=_MIXED_WEIGHTS))
        lits = (rng.integers(1, num_vars + 1, size) * rng.choice((-1, 1), size)).tolist()
        clauses.append(lits if rng.integers(2) else tuple(lits))
    return clauses


def _code(lit):
    """The kernel's code of a literal: 2*(v-1) for v, 2*(v-1)+1 for -v, -1 for 0."""
    return 2 * lit - 2 if lit > 0 else -2 * lit - 1


def _pack_per_literal(num_vars, clauses):
    """`kernel.clean_clauses` written literal by literal, without its deadline."""
    units, body = [], []
    for clause in clauses:
        codes = []
        for code in map(_code, clause):
            if code ^ 1 in codes:
                break
            if code not in codes:
                codes.append(code)
        else:
            if not codes:
                return kernel.UNSAT, None, None
            if len(codes) == 1:
                units.append(codes[0])
            else:
                body.append(codes)
    return kernel.UNKNOWN, units, body


def test_agreement_on_mixed_clauses():
    # input clauses of every length from 1 to 6, with repeated literals and
    # complementary pairs, which the 3-CNF tests above never draw: each call
    # agrees with the truth table and searches as on the per-literal packing
    rng = np.random.default_rng(1207)
    kinds = set()
    for _ in range(300):
        n = int(rng.integers(3, 13))
        clauses = _mixed_clauses(rng, n, int(rng.integers(2, 5 * n)))
        for clause in clauses:
            kinds.add(len(clause) if len(clause) < 4 else "long")
            if len(set(clause)) < len(clause):
                kinds.add("repeated")
            if any(-lit in clause for lit in clause):
                kinds.add("complementary")
        result = solve(CnfFormula(n, clauses))
        assert result.satisfiable == exhaustive_sat(n, clauses)
        if result.satisfiable:
            assert model_satisfies(clauses, result.model[1:])
        status, units, body = _pack_per_literal(n, clauses)
        expected = ((status, None, kernel._counters()) if body is None
                    else kernel._search(n, body, units, math.inf))
        assert kernel.search(n, clauses) == expected
    assert kinds == {1, 2, 3, "long", "repeated", "complementary"}


PACKING_CASES = {
    "repeated-pair": (2, [(1, 1), [-2, -2]]),
    "complementary-pair": (2, [(1, -1), [2, 1]]),
    "repeated-in-three": (3, [(1, 2, 1), [-3, 2, -3]]),
    "complementary-in-three": (3, [(1, 2, -2), [3, -1, 1], (2, 3, 1)]),
    "zero": (2, [(0, 1), [1, 0, 2], (0, 0), [0, -1]]),
    "empty": (2, [[1, 2], [], (2,)]),
    "long": (4, [(1, 2, 3, 4), [4, -4, 1, 2], (1, 2, 3, 1, 2)]),
}


@pytest.mark.parametrize("num_vars,clauses", PACKING_CASES.values(), ids=PACKING_CASES.keys())
def test_packing_matches_a_per_literal_reference(num_vars, clauses):
    assert kernel.clean_clauses(num_vars, clauses) == _pack_per_literal(num_vars, clauses)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_random_packing_matches_a_per_literal_reference(data):
    n = data.draw(st.integers(1, 6))
    clause = st.lists(st.integers(-n, n), max_size=6)
    clauses = data.draw(st.lists(clause | clause.map(tuple), max_size=12))
    assert kernel.clean_clauses(n, clauses) == _pack_per_literal(n, clauses)


def test_packing_stops_at_the_batch_after_a_deadline_passes(monkeypatch):
    # the clock, read before each batch of 4 clauses, passes the deadline
    # while the first batch is packed: the next batch is never packed
    monkeypatch.setattr(kernel, "_POLL_CLAUSES", 4)
    clauses = [(1, 2), [2, -3, 1], (3, 3), [-1, 2, 4, -4], (2, -1), [4]]
    for cut, expected in ((4, _pack_per_literal(4, clauses[:4])),
                          (6, (kernel.UNKNOWN, None, None))):
        clock = iter([0.0])
        monkeypatch.setattr(kernel, "time", SimpleNamespace(time=lambda: next(clock, 10.0)))
        assert kernel.clean_clauses(4, clauses[:cut], deadline=5.0) == expected
    # an empty clause in the first batch still makes the input UNSAT
    clock = iter([0.0])
    assert kernel.clean_clauses(4, [(1, 2), [], *clauses], deadline=5.0) == (
        kernel.UNSAT, None, None)


def test_zero_time_limit_raises():
    cnf = php_formula(5, 4)
    with pytest.raises(SolverTimeout):
        solve(cnf, deadline=time.time())


def test_time_limit_holds_during_search():
    cnf = php_formula(9, 8)  # far more than half a second of search
    started = time.perf_counter()
    with pytest.raises(SolverTimeout):
        solve(cnf, deadline=time.time() + 0.5)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.5, f"a 0.5 s limit ended the search after {elapsed:.2f} s"


def test_time_limit_counts_the_literal_check(monkeypatch):
    # the limit starts when solve is called, so the time the literal-range
    # check takes leaves less for the search
    check = solver_mod._check_literals

    def slow_check(*args):
        time.sleep(0.2)
        check(*args)

    monkeypatch.setattr(solver_mod, "_check_literals", slow_check)
    with pytest.raises(SolverTimeout):
        solve(CnfFormula(num_vars=2, clauses=[[1, 2], [-1, 2]]), deadline=time.time() + 0.1)


def test_passed_deadline_ends_search_during_clause_packing():
    n = 60_000
    clauses = [[v, -(v % n + 1), (7 * v) % n + 1] for v in range(1, n + 1)] * 4
    started = time.perf_counter()
    kernel.clean_clauses(n, clauses)
    full_pass = time.perf_counter() - started
    started = time.perf_counter()
    assert kernel.search(n, clauses, deadline=time.time() - 1.0) == (
        kernel.UNKNOWN, None, kernel._counters())
    elapsed = time.perf_counter() - started
    assert elapsed < full_pass / 10, (elapsed, full_pass)



def test_deadline_passing_during_propagation_returns_the_counters(monkeypatch):
    # a chain x1 -> x2 -> ... -> x100 under the unit x1, as kernel codes: the
    # first propagation makes 99 watch visits, and the clock, read at entry
    # and then at every 8 visits, has passed the deadline after entry
    clock = iter([0.0])
    monkeypatch.setattr(kernel, "time", SimpleNamespace(time=lambda: next(clock, 10.0)))
    monkeypatch.setattr(kernel, "_POLL_VISITS", 8)
    chain = [[2 * v + 1, 2 * v + 2] for v in range(99)]
    status, model, stats = kernel._search(100, chain, [0], deadline=5.0)
    assert (status, model) == (kernel.UNKNOWN, None)
    assert stats == kernel._counters(propagations=stats["propagations"])
    assert 8 <= stats["propagations"] < 99


def _read_by_pass(monkeypatch, passes_at=None):
    """Batches of 4 clauses, and a clock that names the function reading
    it for each read; it passes the deadline 5.0 from the ``passes_at``-th
    read on."""
    monkeypatch.setattr(kernel, "_POLL_CLAUSES", 4)
    reads = []

    def clock():
        frame = sys._getframe(1)
        if frame.f_code.co_name == "check_deadline":
            frame = frame.f_back
        reads.append(frame.f_code.co_name)
        return 10.0 if passes_at is not None and len(reads) >= passes_at else 0.0

    monkeypatch.setattr(kernel, "time", SimpleNamespace(time=clock))
    monkeypatch.setattr(errors_mod, "time", SimpleNamespace(time=clock))
    return reads


def _based_formula():
    """A copy of a 24-clause base with 16 clauses appended; each clause has
    two or three literals on distinct variables."""
    rng = np.random.default_rng(5)
    clauses = [tuple(int(v) * int(rng.choice((-1, 1)))
                     for v in rng.choice(np.arange(1, 31), size=2 + k % 2, replace=False))
               for k in range(40)]
    base = CnfFormula(30, clauses[:24])
    cnf = base.copy()
    for clause in clauses[24:]:
        cnf.add(clause)
    return base, cnf


# the reads before the search, a batch of 4 clauses per read in each pass: the
# base's literal check, packing and private copy, then the appended clauses'
# literal check and packing, the search's copy of the base's packing, and the
# watches of all 40, whose first batch the search's read at entry covers
FIRST_SOLVE_READS = (["solve"] + ["_check_literals"] * 6 + ["clean_clauses"] * 6
                     + ["_packed_base"] * 6 + ["_check_literals"] * 4 + ["clean_clauses"] * 4
                     + ["search"] * 6 + ["_search"] * 10)


def test_every_pass_before_the_search_reads_the_deadline_per_batch(monkeypatch):
    reads = _read_by_pass(monkeypatch)
    base, cnf = _based_formula()
    assert solve(cnf, deadline=5.0).satisfiable
    assert reads[:len(FIRST_SOLVE_READS)] == FIRST_SOLVE_READS
    # a second copy of the base reuses its checked packing and private copy
    reads.clear()
    again = base.copy()
    again.clauses += cnf.clauses[24:]
    assert solve(again, deadline=5.0).satisfiable
    reused = FIRST_SOLVE_READS[:1] + FIRST_SOLVE_READS[19:]
    assert reads[:len(reused)] == reused


def test_a_deadline_passing_before_any_batch_stops_the_solve(monkeypatch):
    # the base keeps its packing only once its private copy is complete
    for passes_at in range(1, len(FIRST_SOLVE_READS) + 1):
        reads = _read_by_pass(monkeypatch, passes_at)
        base, cnf = _based_formula()
        with pytest.raises(SolverTimeout):
            solve(cnf, deadline=5.0)
        assert len(reads) == passes_at
        assert (base.packed is None) == (passes_at <= 19), passes_at


# ---------------------------------------------------- pinned trajectories
# Counters and models of searches with restarts and long learned clauses,
# off the desk's formulas: a change that only speeds the kernel up keeps
# all of them.

@pytest.mark.pins("pigeonhole")
def test_pigeonhole_7_into_6_keeps_its_trajectory():
    assert pins.pigeonhole() == pins.load()["pigeonhole"]


@pytest.mark.pins("random-3cnf")
def test_near_threshold_3cnf_batch_keeps_its_trajectories():
    assert pins.random_3cnf() == pins.load()["random-3cnf"]


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
        cnf = random_3cnf_formula(rng, 50, 200)
        assert solve_external(cnf, stub_solver).satisfiable == solve(cnf).satisfiable


def test_external_unsat_line(tmp_path):
    script = tmp_path / "always_unsat.py"
    script.write_text("print('s UNSATISFIABLE')\n")
    cnf = CnfFormula(num_vars=1, clauses=[[1]])
    assert not solve_external(cnf, f"{sys.executable} {script}").satisfiable


UNPARSEABLE_OUTPUT = {
    "no-s-line": ("hello world\n", "no s-line"),
    "unknown": ("s UNKNOWN\n", "answered UNKNOWN"),
    "bad-status": ("s MAYBE\n", "unrecognized status line 's MAYBE'"),
    "bad-literal": ("s SATISFIABLE\nv 1 x 0\n", "bad literal 'x'"),
    "past-num-vars": ("s SATISFIABLE\nv 1 2 0\n", "unknown variable 2"),
}


@pytest.mark.parametrize("output, message", UNPARSEABLE_OUTPUT.values(),
                         ids=UNPARSEABLE_OUTPUT.keys())
def test_external_unparseable_output(tmp_path, output, message):
    script = tmp_path / "prints.py"
    script.write_text(f"print({output!r}, end='')\n")
    cnf = CnfFormula(num_vars=1, clauses=[[1]])
    with pytest.raises(SolverOutputError, match=re.escape(message)):
        solve_external(cnf, f"{sys.executable} {script}")


def test_external_lying_model(tmp_path):
    script = tmp_path / "liar.py"
    script.write_text("print('s SATISFIABLE')\nprint('v -1 0')\n")
    cnf = CnfFormula(num_vars=1, clauses=[[1]])
    with pytest.raises(SolverModelError, match="verification"):
        solve_external(cnf, f"{sys.executable} {script}")


def _slow_literal_check(monkeypatch, seconds):
    check = solver_mod._check_literals

    def slow_check(*args):
        time.sleep(seconds)
        check(*args)

    monkeypatch.setattr(solver_mod, "_check_literals", slow_check)


def test_external_time_limit_counts_the_literal_check(tmp_path, monkeypatch):
    # the limit starts when solve_external is called: a literal check that
    # uses it up leaves no time, so no process is started
    marker = tmp_path / "started"
    script = tmp_path / "marks.py"
    script.write_text(f"open({str(marker)!r}, 'w').close()\nprint('s UNSATISFIABLE')\n")
    _slow_literal_check(monkeypatch, 0.2)
    cnf = CnfFormula(num_vars=2, clauses=[[1, 2], [-1, 2]])
    with pytest.raises(SolverTimeout):
        solve_external(cnf, f"{sys.executable} {script}", deadline=time.time() + 0.1)
    assert not marker.exists()


def test_external_solver_gets_the_time_left(tmp_path, monkeypatch):
    script = tmp_path / "sleeps.py"
    script.write_text("import time\ntime.sleep(10)\n")
    _slow_literal_check(monkeypatch, 0.5)
    cnf = CnfFormula(num_vars=2, clauses=[[1, 2], [-1, 2]])
    started = time.perf_counter()
    with pytest.raises(SolverTimeout):
        solve_external(cnf, f"{sys.executable} {script}", deadline=time.time() + 0.8)
    elapsed = time.perf_counter() - started
    # the whole call takes the limit, not the check plus the limit (1.3 s)
    assert elapsed < 1.15, f"a 0.8 s limit ended the call after {elapsed:.2f} s"


def test_external_spawn_failure():
    cnf = CnfFormula(num_vars=1, clauses=[[1]])
    with pytest.raises(SolverSpawnError):
        solve_external(cnf, "/nonexistent/solver-binary")
    with pytest.raises(SolverSpawnError, match="empty"):
        solve_external(cnf, "")


# ------------------------------------------------------ malformed formulas

MALFORMED = {
    "past-num-vars": (1, [[2], [1]], 2),  # once read as -1: unsatisfiable
    "zero": (2, [[0, 1]], 0),  # once read as the last variable
    "past-code-table": (1, [[2]], 2),  # once an IndexError
    "negative": (3, [[1, 2], [-4, 3]], -4),
    # once an assumption: a bad unit clause after good ones
    "assumption": (2, [[1, 2], [1], [3]], 3),
}


@pytest.mark.parametrize("num_vars,clauses,bad", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_formula_is_a_solver_error(num_vars, clauses, bad, stub_solver):
    cnf = CnfFormula(num_vars=num_vars, clauses=clauses)
    message = re.escape(f"literal {bad} outside 1..{num_vars}")
    with pytest.raises(SolverError, match=message):
        solve(cnf)
    with pytest.raises(SolverError, match=message):
        solve_external(cnf, stub_solver)


@pytest.mark.parametrize("num_vars,clauses,bad", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_copy_is_a_solver_error(num_vars, clauses, bad):
    # the bad literal in a copy's base, and after a base already packed
    message = re.escape(f"literal {bad} outside 1..{num_vars}")
    with pytest.raises(SolverError, match=message):
        solve(CnfFormula(num_vars, clauses).copy())
    base = CnfFormula(num_vars, [[1, -1], [-1]])
    assert solve(base.copy()).satisfiable
    assert base.packed is not None
    cnf = base.copy()
    cnf.clauses += clauses
    with pytest.raises(SolverError, match=message):
        solve(cnf)
