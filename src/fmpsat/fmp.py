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
from .sat import solve

__all__ = ["FmpQuery", "FmpOutcome", "build_encoding", "decide_membership"]

METHODS = ("one-step", "two-step")


@dataclass(frozen=True)
class FmpQuery:
    classifier: object
    instance: Instance | None
    target: int
    method: str = "two-step"
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
    # the decoded selection a two-step model produced, before shrinking
    two_step_seed: frozenset[int] | None = None
    # the search's counters (decisions, conflicts, ...)
    stats: dict = field(default_factory=dict)

    @property
    def answer(self) -> str:
        return "Yes" if self.membership else "No"


def build_encoding(query: FmpQuery, deadline: float = math.inf):
    """Produce (cnf, varmap) for the query's route.

    The encoders read the adapter's record for the instance, its one
    circuit, which the deletion scan and the witness check read too,
    with the diagram or graph it was lowered from as its ``source``; they
    keep replica 0 in it, so the queries of a relevancy sweep, one-step
    and two-step alike, each emit only their target's replicas. The
    target is checked first, so a bad one makes no record; the adapter
    checks the instance when it makes the record. A negated SDD lowering
    and the encoder raise ``SolverTimeout`` if the deadline (a
    ``time.time()`` value, ``math.inf`` for none) passes during the one
    or before a replica of the other.
    """
    clf, instance, t = query.classifier, query.instance, query.target
    if query.method not in METHODS:
        raise ClassifierError(f"unknown method {query.method!r}")
    if not isinstance(clf, (SddClassifier, ObddClassifier, DtClassifier, XpgClassifier)):
        raise ClassifierError(f"unsupported classifier type {type(clf).__name__}")
    enc._check_target(clf.num_features, t)
    one_step = query.method == "one-step"
    circuit = clf.circuit_for(instance, deadline)
    if isinstance(clf, SddClassifier):
        encoder = enc.encode_sdd_onestep if one_step else enc.encode_sdd_twostep
        return encoder(circuit.source, instance, t, deadline=deadline, circuit=circuit)
    encoder = enc.encode_xpg_onestep if one_step else enc.encode_xpg_twostep
    return encoder(circuit.source, t, deadline=deadline, circuit=circuit)


# objects frozen before fmpsat was imported: CPython 3.12 starts with some of
# its own (375 tuples on 3.12.1), which the pause may move like the rest
_FROZEN_AT_IMPORT = gc.get_freeze_count()


@contextmanager
def collector_paused():
    """Pause CPython's cyclic garbage collector for the block, and leave
    it on exit, normal or not, as enabled or disabled as it was.

    A query allocates hundreds of thousands of clause tuples and kernel
    lists, which the collector would walk again and again though none
    of them can be part of a reference cycle: the query path creates
    none, so reference counting frees all it drops and the pause leaves
    no garbage behind.

    When the collector was enabled, the pause also keeps the first
    young collection after it from walking the query's survivors (a
    record, its circuit and store: ~30k objects on an m=100 desk diagram).
    At entry a collection of the two young generations frees the
    caller's young cyclic garbage and moves what survives to the oldest
    generation. At exit, unless the caller has frozen objects of their
    own (more than were frozen when fmpsat was imported),
    ``gc.freeze(); gc.unfreeze()`` moves everything young, which is now
    only what the block (and any other thread meanwhile) made, to the
    oldest generation unwalked.
    Exit alone would leak: it would promote the caller's young garbage
    too, where only a full collection, which promotion never schedules,
    frees it. A caller that allocates cycles between queries would then
    keep them all. `cli.main` drops its argparse parser, which is
    cyclic, before it pauses, so the entry collection frees it.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_freeze_count() in (0, _FROZEN_AT_IMPORT):
                gc.freeze()
                gc.unfreeze()
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
    witness check read it too. A NaN limit raises FmpsatError.

    The query runs with the cyclic garbage collector paused, which
    saves its walks over the query's clauses and loses nothing, as the
    query path makes no reference cycle (see `collector_paused`); on
    return or any exception the collector is as the caller had it.
    """
    clf, instance, t = query.classifier, query.instance, query.target
    started = time.perf_counter()
    limit = query.time_limit_s
    if limit is not None and math.isnan(limit):  # every deadline comparison would be False
        raise FmpsatError(f"time limit {limit} is not a number of seconds")
    deadline = math.inf if limit is None else time.time() + limit
    cnf, vm = build_encoding(query, deadline)
    encode_s = time.perf_counter() - started

    solve_started = time.perf_counter()
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
