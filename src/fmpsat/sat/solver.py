"""Solver front end: the internal CDCL engine. It rejects literals
outside 1..num_vars, and re-checks every satisfiable verdict against the
full clause set before returning it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from ..encode import CnfFormula
from ..errors import SolverError, SolverTimeout, check_deadline
from . import kernel

__all__ = ["SatResult", "solve"]


@dataclass(frozen=True)
class SatResult:
    """Outcome of a complete SAT call."""

    satisfiable: bool
    model: list[bool] | None = None  # bool per variable, entry 0 unused
    # the search's counters (kernel._counters)
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
    if not kernel.model_satisfies(cnf.clauses, raw):
        raise SolverError("internal solver returned a model that violates a clause")
    return SatResult(True, [False, *map(bool, raw)], stats)
