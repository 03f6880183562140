"""Solver front end: internal CDCL engine plus a DIMACS adapter for
external solvers. Both reject literals outside 1..num_vars, and re-check
every satisfiable verdict against the full clause set before returning it."""

from __future__ import annotations

import math
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from ..encode import CnfFormula, iter_dimacs
from ..errors import (
    SolverError,
    SolverModelError,
    SolverOutputError,
    SolverSpawnError,
    SolverTimeout,
    check_deadline,
)
from . import kernel

__all__ = ["SatResult", "solve", "solve_external"]


@dataclass(frozen=True)
class SatResult:
    """Outcome of a complete SAT call."""

    satisfiable: bool
    model: list[bool] | None = None  # bool per variable, entry 0 unused
    # the internal search's counters (kernel._counters); empty for an external solver
    stats: dict = field(default_factory=dict)

    def value(self, var: int) -> bool:
        if not self.satisfiable:
            raise SolverError("no model: the formula is unsatisfiable")
        return self.model[var]


def _check_literals(num_vars: int, clauses: list, deadline: float = math.inf) -> None:
    """Every literal of the clauses must name a variable 1..num_vars.
    Raises SolverTimeout if the deadline has passed before a batch of
    the kernel's ``_POLL_CLAUSES`` clauses."""
    used: set[int] = set()
    for start in range(0, len(clauses), kernel._POLL_CLAUSES):
        check_deadline(deadline, "solve exceeded its time limit in the literal check")
        used.update(chain.from_iterable(clauses[start:start + kernel._POLL_CLAUSES]))
    if used and (min(used) < -num_vars or max(used) > num_vars or 0 in used):
        # name the first bad literal in clause order
        lit = next(lit for lit in chain.from_iterable(clauses) if lit == 0 or abs(lit) > num_vars)
        raise SolverError(f"literal {lit} outside 1..{num_vars}")


def _packed_base(cnf: CnfFormula, deadline: float):
    """How many of the formula's first clauses its base's packing
    covers, and that packing as (units, body); (0, an empty packing)
    when it has no base, a base with a literal out of its range, or no
    longer starts with the clauses the packing came from. The first
    solve that reaches a base checks and packs its clauses, and keeps
    the packing with a private copy of those clauses only once it is
    complete: an empty clause leaves the whole formula to this call,
    and a deadline passing during the literal check, the packing or the
    copy raises SolverTimeout. Comparing with that copy catches clauses
    since added to or edited in the base. The copy keeps a tuple clause
    itself, which nothing can edit, and copies any other.
    """
    base = cnf.base
    if base is None:
        return 0, ((), ())
    if base.packed is None:
        try:
            _check_literals(base.num_vars, base.clauses, deadline)
        except SolverError:  # the check of the whole formula names the literal
            return 0, ((), ())
        status, units, body = kernel.clean_clauses(base.num_vars, base.clauses, deadline)
        if status == kernel.UNSAT:  # the search of the whole formula finds the empty clause
            return 0, ((), ())
        if body is None:
            raise SolverTimeout("solve exceeded its time limit")
        clauses = []
        for start in range(0, len(base.clauses), kernel._POLL_CLAUSES):
            check_deadline(deadline, "solve exceeded its time limit copying the packed clauses")
            clauses += [c if isinstance(c, tuple) else c.copy()
                        for c in base.clauses[start:start + kernel._POLL_CLAUSES]]
        base.packed = clauses, base.num_vars, units, body
    clauses, num_vars, units, body = base.packed
    if num_vars > cnf.num_vars or clauses != cnf.clauses[:len(clauses)]:
        return 0, ((), ())
    return len(clauses), (units, body)


def _verified_result(cnf: CnfFormula, values, error, stats: dict) -> SatResult:
    """The model of ``values`` (one truth value per variable 1..num_vars),
    once it satisfies every clause; else raise ``error``."""
    if not kernel.model_satisfies(cnf.clauses, values):
        raise error
    return SatResult(True, [False, *map(bool, values)], stats)


def solve(cnf: CnfFormula, *, deadline: float = math.inf) -> SatResult:
    """Decide the formula with the internal engine.

    A model covers every variable. The clauses a copy shares with its
    base are checked and packed once per base (see `CnfFormula`), the
    rest on every call. Raises SolverTimeout once the deadline (a
    ``time.time()`` value, ``math.inf`` for none) passes: it is read at
    entry, and then before each batch of ``kernel._POLL_CLAUSES``
    clauses in every pass over the clauses before the search (literal
    check, packing, the base's private copy, the search's copy of the
    base's packing, and watching), and during the search.
    """
    check_deadline(deadline, "solve exceeded its time limit before the literal check")
    shared, prefix = _packed_base(cnf, deadline)
    rest = cnf.clauses[shared:]
    _check_literals(cnf.num_vars, rest, deadline)
    status, raw, stats = kernel.search(cnf.num_vars, rest, deadline, prefix)
    if status == kernel.UNSAT:
        return SatResult(False, stats=stats)
    if status == kernel.UNKNOWN:
        raise SolverTimeout("solve exceeded its time limit")
    return _verified_result(
        cnf, raw, SolverError("internal solver returned a model that violates a clause"), stats
    )


def _parse_external_output(text: str, num_vars: int):
    verdict = None
    values = [False] * num_vars
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            token = line[2:].strip().upper()
            if token == "SATISFIABLE":
                verdict = True
            elif token == "UNSATISFIABLE":
                verdict = False
            elif token == "UNKNOWN":
                raise SolverOutputError("external solver answered UNKNOWN")
            else:
                raise SolverOutputError(f"unrecognized status line {line!r}")
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                try:
                    lit = int(tok)
                except ValueError:
                    raise SolverOutputError(f"bad literal {tok!r} in value line") from None
                if lit == 0:
                    continue
                if abs(lit) > num_vars:
                    raise SolverOutputError(f"value line mentions unknown variable {abs(lit)}")
                values[abs(lit) - 1] = lit > 0
    if verdict is None:
        raise SolverOutputError("external solver printed no s-line")
    return verdict, values


def solve_external(
    cnf: CnfFormula,
    solver_command: str,
    *,
    deadline: float = math.inf,
) -> SatResult:
    """Run an external DIMACS solver and verify its answer locally.

    The command receives the path of a temporary DIMACS file as its
    last argument and must print competition-format output
    (an ``s`` status line, ``v`` value lines for models). The process
    gets the time left before the deadline (a ``time.time()`` value,
    ``math.inf`` for none) once the literal check and the file are
    done, and is not started if nothing is left.
    """
    _check_literals(cnf.num_vars, cnf.clauses, deadline)
    argv = shlex.split(solver_command)
    if not argv:
        raise SolverSpawnError("empty external solver command")
    with tempfile.TemporaryDirectory(prefix="fmpsat-") as tmp:
        path = Path(tmp) / "problem.cnf"
        with open(path, "w") as sink:
            sink.writelines(iter_dimacs(cnf))
        check_deadline(deadline, "no time left to run the external solver")
        try:
            proc = subprocess.run(
                argv + [str(path)],
                capture_output=True,
                text=True,
                timeout=None if deadline == math.inf else deadline - time.time(),
            )
        except OSError as exc:
            raise SolverSpawnError(f"cannot run {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise SolverTimeout("external solver exceeded its time limit") from exc
    verdict, values = _parse_external_output(proc.stdout, cnf.num_vars)
    if not verdict:
        return SatResult(False)
    return _verified_result(
        cnf, values, SolverModelError("external model fails local clause verification"), {}
    )
