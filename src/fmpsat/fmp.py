"""Feature membership decisions and witness extraction.

A membership query asks whether a target feature occurs in some
abductive explanation of an instance. Both encodings answer the
decision; the two-step route additionally shrinks the decoded
selection into a witness explanation, which is guaranteed to contain
the target because the selection stays weak only while the target is
in it.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import encode as enc
from .errors import ClassifierError, FmpsatError, check_deadline
from .explain import (
    DtClassifier,
    Instance,
    ObddClassifier,
    SddClassifier,
    XpgClassifier,
    find_axp,
    is_weak_axp,
)
from .sat import solve, solve_external

__all__ = ["FmpQuery", "FmpOutcome", "build_encoding", "decide_membership"]

METHODS = ("one-step", "two-step")


@dataclass(frozen=True)
class FmpQuery:
    classifier: object
    instance: Instance | None
    target: int
    method: str = "two-step"
    solver_command: str | None = None  # None = internal engine
    time_limit_s: float | None = None


@dataclass
class FmpOutcome:
    membership: bool
    witness: frozenset[int] | None
    num_vars: int
    num_clauses: int
    encode_s: float
    solve_s: float
    total_s: float
    pre_negated: bool = False
    # the decoded selection a two-step model produced, before shrinking
    two_step_seed: frozenset[int] | None = None
    # the internal search's counters (decisions, conflicts, ...); empty for an external solver
    stats: dict = field(default_factory=dict)

    @property
    def answer(self) -> str:
        return "Yes" if self.membership else "No"


def build_encoding(query: FmpQuery, deadline: float = math.inf):
    """Produce (cnf, varmap, pre_negated) for the query's route.

    The encoders read the circuit of the adapter's record for the
    instance, which the deletion scan and the witness check read too, and
    keep replica 0 in it, so the queries of a relevancy sweep, one-step
    and two-step alike, each emit only their target's replicas. The
    adapter checks the instance when it makes that record. The SDD
    negation and the encoder raise ``SolverTimeout`` if the deadline (a
    ``time.time()`` value, ``math.inf`` for none) passes during the one
    or before a replica of the other.
    """
    clf, instance, t = query.classifier, query.instance, query.target
    if query.method not in METHODS:
        raise ClassifierError(f"unknown method {query.method!r}")
    one_step = query.method == "one-step"
    if isinstance(clf, SddClassifier):
        enc._check_target(clf.num_features, t)  # before the diagram may be negated
        diagram = clf.diagram_for(instance, deadline=deadline)
        encoder = enc.encode_sdd_onestep if one_step else enc.encode_sdd_twostep
        cnf, vm = encoder(diagram, Instance(instance.values, 0), t, deadline=deadline,
                          circuit=clf.circuit_for(instance))
        return cnf, vm, instance.label == 1
    if not isinstance(clf, (ObddClassifier, DtClassifier, XpgClassifier)):
        raise ClassifierError(f"unsupported classifier type {type(clf).__name__}")
    encoder = enc.encode_xpg_onestep if one_step else enc.encode_xpg_twostep
    cnf, vm = encoder(clf.xpg_for(instance), t, deadline=deadline,
                      circuit=clf.circuit_for(instance))
    return cnf, vm, False


@contextmanager
def collector_paused():
    """Pause CPython's cyclic garbage collector for the block, and leave
    it on exit, normal or not, as enabled or disabled as it was.

    A query allocates hundreds of thousands of clause tuples and kernel
    lists, which the collector would walk again and again though none
    of them can be part of a reference cycle: the query path creates
    none, so reference counting frees all it drops and the pause leaves
    no garbage behind. `cli.main` pauses around its subcommand; its
    argparse parser, built before, is cyclic (about 440 objects per
    call) and is freed once the collector resumes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@collector_paused()
def decide_membership(query: FmpQuery) -> FmpOutcome:
    """Decide whether the target occurs in some abductive explanation.

    On a positive answer the returned witness is a verified AXp
    containing the target, checked with each of its one-feature
    deletions in one bit-parallel circuit pass; the two-step seed is
    checked against its contract before extraction: it is no longer weak
    once the target is dropped, and the deletion scan's entry pass finds
    it weak. The time limit counts from entry: encoding spends part of
    it, the solver gets what is left, and the deletion scan and the
    witness check read it too.

    The query runs with the cyclic garbage collector paused, which
    saves its walks over the query's clauses and loses nothing, as the
    query path makes no reference cycle (see `collector_paused`); on
    return or any exception the collector is as the caller had it.
    """
    clf, instance, t = query.classifier, query.instance, query.target
    started = time.perf_counter()
    deadline = math.inf if query.time_limit_s is None else time.time() + query.time_limit_s
    cnf, vm, pre_negated = build_encoding(query, deadline)
    encode_s = time.perf_counter() - started

    solve_started = time.perf_counter()
    if query.solver_command:
        result = solve_external(cnf, query.solver_command, deadline=deadline)
    else:
        result = solve(cnf, deadline=deadline)
    solve_s = time.perf_counter() - solve_started

    seed = None
    if not result.satisfiable:
        outcome_witness = None
        membership = False
    else:
        selected = vm.selected_features(result)
        if query.method == "one-step":
            witness = selected
        else:
            seed = selected
            if is_weak_axp(clf, instance, selected - {t}):
                raise FmpsatError(
                    "two-step model stays weak without the target; encoding is broken"
                )
            witness = find_axp(clf, instance, selected, deadline=deadline)
        _verify_witness(clf, instance, witness, t, deadline)
        outcome_witness = witness
        membership = True
    total_s = time.perf_counter() - started
    return FmpOutcome(
        membership=membership,
        witness=outcome_witness,
        num_vars=cnf.num_vars,
        num_clauses=cnf.num_clauses,
        encode_s=encode_s,
        solve_s=solve_s,
        total_s=total_s,
        pre_negated=pre_negated,
        two_step_seed=seed,
        stats=result.stats,
    )


def _verify_witness(clf, instance, witness: frozenset[int], target: int, deadline: float) -> None:
    """Check, in one bit-parallel circuit pass independent of the scan's
    state, that the witness is weak and that dropping any one of its
    features leaves it not weak; name the lowest droppable feature. The
    deadline is read once, before the pass."""
    if target not in witness:
        raise FmpsatError(f"witness {sorted(witness)} misses the target feature {target}")
    check_deadline(deadline, "witness check exceeded its time limit")
    outputs = clf.circuit_for(instance).outputs_without_each(witness)
    if outputs & 1:
        raise FmpsatError(f"witness {sorted(witness)} is not a weak explanation")
    # bit j clear: dropping the j-th smallest feature leaves a weak explanation
    droppable = (((2 << len(witness)) - 1) ^ outputs) >> 1
    if droppable:
        members = sorted(witness)
        i = members[(droppable & -droppable).bit_length() - 1]
        raise FmpsatError(f"witness {members} is not minimal: {i} is droppable")
