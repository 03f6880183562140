"""Solver front end: internal CDCL engine plus a DIMACS adapter for
external solvers. Both reject literals outside 1..num_vars, and re-check
every satisfiable verdict against the full clause set before returning it."""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from ..encode import CnfFormula, write_dimacs
from ..errors import (
    SolverError,
    SolverModelError,
    SolverOutputError,
    SolverSpawnError,
    SolverTimeout,
)
from . import kernel

__all__ = ["SatResult", "solve", "solve_external"]


@dataclass(frozen=True)
class SatResult:
    """Outcome of a complete SAT call."""

    satisfiable: bool
    model: np.ndarray | None = None  # bool per variable, entry 0 unused

    def value(self, var: int) -> bool:
        if not self.satisfiable:
            raise SolverError("no model: the formula is unsatisfiable")
        return bool(self.model[var])

    def literal_true(self, lit: int) -> bool:
        value = self.value(abs(lit))
        return value if lit > 0 else not value


def _check_literals(cnf: CnfFormula, assumptions: Sequence[int]) -> None:
    """Every literal of the clauses and assumptions must name a variable 1..num_vars."""
    n = cnf.num_vars
    for clause in chain(cnf.clauses, (assumptions,)):
        if clause and (min(clause) < -n or max(clause) > n or 0 in clause):
            lit = next(lit for lit in clause if lit == 0 or abs(lit) > n)
            raise SolverError(f"literal {lit} outside 1..{n}")


def _verified_result(cnf: CnfFormula, assumptions: Sequence[int], values, error) -> SatResult:
    """The model of ``values`` (one truth value per variable 1..num_vars),
    once it satisfies every clause and assumption; else raise ``error``."""
    if not kernel.model_satisfies(chain(cnf.clauses, ([a] for a in assumptions)), values):
        raise error
    model = np.zeros(cnf.num_vars + 1, dtype=bool)
    model[1:] = values
    return SatResult(True, model)


def solve(
    cnf: CnfFormula,
    assumptions: Sequence[int] = (),
    time_limit_s: float | None = None,
) -> SatResult:
    """Decide the formula with the internal engine.

    Assumptions are added as unit clauses; a model covers every
    variable. Raises SolverTimeout when the limit elapses.
    """
    _check_literals(cnf, assumptions)
    deadline = None if time_limit_s is None else time.time() + time_limit_s
    status, raw = kernel.search(cnf.num_vars, cnf.clauses, assumptions, deadline)
    if status == kernel.UNSAT:
        return SatResult(False)
    if status == kernel.UNKNOWN:
        raise SolverTimeout(f"solve exceeded the {time_limit_s} s limit")
    return _verified_result(
        cnf, assumptions, raw, SolverError("internal solver returned a model that violates a clause")
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
    time_limit_s: float | None = None,
) -> SatResult:
    """Run an external DIMACS solver and verify its answer locally.

    The command receives the path of a temporary DIMACS file as its
    last argument and must print competition-format output
    (an ``s`` status line, ``v`` value lines for models).
    """
    _check_literals(cnf, ())
    argv = shlex.split(solver_command)
    if not argv:
        raise SolverSpawnError("empty external solver command")
    with tempfile.TemporaryDirectory(prefix="fmpsat-") as tmp:
        path = Path(tmp) / "problem.cnf"
        path.write_text(write_dimacs(cnf))
        try:
            proc = subprocess.run(
                argv + [str(path)],
                capture_output=True,
                text=True,
                timeout=time_limit_s,
            )
        except FileNotFoundError as exc:
            raise SolverSpawnError(f"cannot run {argv[0]!r}: {exc}") from exc
        except OSError as exc:
            raise SolverSpawnError(f"cannot run {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise SolverTimeout(f"external solver exceeded {time_limit_s} s") from exc
    verdict, values = _parse_external_output(proc.stdout, cnf.num_vars)
    if not verdict:
        return SatResult(False)
    return _verified_result(
        cnf, (), values, SolverModelError("external model fails local clause verification")
    )
