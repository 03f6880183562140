"""Conflict-driven clause learning search over Python lists.

Literals are stored as codes: variable v (0-based) appears positively
as ``2*v`` and negatively as ``2*v + 1``; ``value[code]`` is True,
False or None (unassigned). Each clause is a sequence of codes whose
first two positions are its watched literals: a list for an input
clause, an ``array('i')`` for a learned one, since on hard queries the
learned clauses hold most of the search's memory.
``watches[code]`` lists the clauses watching that literal. It keeps
its most recent watch last and is visited from the end, so watches are
visited newest first; a clause that moves its watch elsewhere leaves
the list, the others keep their order.

Branching picks the free variable of highest activity, the lowest
index among equals, from a binary heap of ``(-activity, variable)``
pairs. ``queued[v]`` says whether the heap holds an entry for v at its
current activity. Bumping clears it, and backtracking pushes a freed
variable only when it is clear, so every free variable keeps a current
entry. Popped entries that are out of date or belong to an assigned
variable are dropped. The heap is rebuilt from the free variables when
activities are rescaled and when it outgrows four entries per variable.
"""

from __future__ import annotations

import math
import time
from array import array
from heapq import heapify, heappop, heappush
from itertools import chain

SAT = 10
UNSAT = 20
UNKNOWN = 0

# the deadline is read after at most this many watch visits, and on every conflict
_POLL_VISITS = 1 << 14


def _backtrack(trail, bound, value, phase, activity, heap, queued) -> None:
    """Undo the trail down to ``bound``, saving phases and re-queueing variables."""
    for code in trail[bound:]:
        v = code >> 1
        phase[v] = code
        value[code] = value[code ^ 1] = None
        if not queued[v]:
            queued[v] = True
            heappush(heap, (-activity[v], v))
    del trail[bound:]


def _free_heap(value, activity, queued):
    """A heap holding each free variable once, at its current activity;
    marks exactly those variables as queued."""
    queued[:] = [x is None for x in value[0::2]]
    heap = [(-a, v) for v, a in enumerate(activity) if queued[v]]
    heapify(heap)
    return heap


def _search(n_vars, clauses, units, deadline):  # noqa: C901
    """Run CDCL to completion; returns (status, 0/1 model list or None).

    ``clauses`` are lists of two or more codes, whose literals the
    search reorders. Restarts follow a Luby sequence, branching follows
    additive-bump variable activities with phase saving.
    """
    now = time.time
    if now() > deadline:
        return UNKNOWN, None
    value: list[bool | None] = [None] * (2 * n_vars)
    level = [0] * n_vars
    reason: list = [None] * n_vars  # the clause that implied each variable
    phase = list(range(1, 2 * n_vars, 2))  # the literal to decide on: negative at first
    activity = [0.0] * n_vars
    seen = [False] * n_vars
    trail: list[int] = []
    trail_lim: list[int] = []
    queued: list[bool] = []
    heap = _free_heap(value, activity, queued)
    watches: list[list] = [[] for _ in range(2 * n_vars)]

    qhead = 0
    var_inc = 1.0
    conflicts = 0
    props = 0
    next_poll = _POLL_VISITS
    luby_u = 1
    luby_v = 1
    restart_base = 100
    restart_at = restart_base

    # root-level units
    for code in units:
        if value[code] is None:
            value[code] = True
            value[code ^ 1] = False
            trail.append(code)
        elif value[code] is False:
            return UNSAT, None

    # watch the first two literals of every input clause
    for clause in clauses:
        watches[clause[0]].append(clause)
        watches[clause[1]].append(clause)

    while True:
        # ------------------------------------------------------ propagate
        confl = None
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            ws = watches[falsified]
            if not ws:
                continue
            # watches that stay are packed at the end, above slot w
            w = len(ws)
            for i in range(w - 1, -1, -1):
                clause = ws[i]
                other = clause[0]
                if other == falsified:
                    other = clause[1]
                if value[other] is True:
                    w -= 1
                    ws[w] = clause
                    continue
                for k in range(2, len(clause)):
                    q = clause[k]
                    if value[q] is not False:
                        # move this watch onto q, which takes the slot of falsified
                        clause[k] = falsified
                        clause[clause[0] != falsified] = q
                        watches[q].append(clause)
                        break
                else:
                    w -= 1
                    ws[w] = clause
                    if value[other] is None:
                        ov = other >> 1
                        value[other] = True
                        value[other ^ 1] = False
                        level[ov] = len(trail_lim)
                        reason[ov] = clause
                        trail.append(other)
                    else:
                        confl = clause
                        qhead = len(trail)
                        break
            props += len(ws) - i
            del ws[i:w]
            if confl is not None:
                break
            if props >= next_poll:
                next_poll = props + _POLL_VISITS
                if now() > deadline:
                    return UNKNOWN, None

        # ------------------------------------------------------- conflict
        if confl is not None:
            conflicts += 1
            n_levels = len(trail_lim)
            if n_levels == 0:
                return UNSAT, None
            if now() > deadline:
                return UNKNOWN, None

            # first-UIP learning
            learnt = [0]
            counter = 0
            p_var = -1
            clause = confl
            idx = len(trail) - 1
            while True:
                for q in clause:
                    qv = q >> 1
                    if qv == p_var:
                        continue
                    if seen[qv]:
                        continue
                    lv = level[qv]
                    if lv > 0:
                        seen[qv] = True
                        activity[qv] += var_inc
                        queued[qv] = False
                        if activity[qv] > 1e100:
                            activity[:] = [a * 1e-100 for a in activity]
                            var_inc *= 1e-100
                            heap = _free_heap(value, activity, queued)
                        if lv == n_levels:
                            counter += 1
                        else:
                            learnt.append(q)
                while not seen[trail[idx] >> 1]:
                    idx -= 1
                pcode = trail[idx]
                p_var = pcode >> 1
                seen[p_var] = False
                idx -= 1
                counter -= 1
                if counter <= 0:
                    break
                clause = reason[p_var]
            learnt[0] = pcode ^ 1
            var_inc *= 1.0 / 0.95

            n_learnt = len(learnt)
            if n_learnt == 1:
                bt_level = 0
            else:
                max_i = 1
                for i in range(2, n_learnt):
                    if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                        max_i = i
                learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
                bt_level = level[learnt[1] >> 1]
            for q in learnt[1:]:
                seen[q >> 1] = False

            _backtrack(trail, trail_lim[bt_level], value, phase, activity, heap, queued)
            del trail_lim[bt_level:]
            qhead = len(trail)

            code = learnt[0]
            v = code >> 1
            if n_learnt == 1:
                if value[code] is None:
                    value[code] = True
                    value[code ^ 1] = False
                    level[v] = 0
                    trail.append(code)
                elif value[code] is False:
                    return UNSAT, None
            else:
                # store the learned clause and watch its first two literals
                learnt = array("i", learnt)
                watches[code].append(learnt)
                watches[learnt[1]].append(learnt)
                value[code] = True
                value[code ^ 1] = False
                level[v] = bt_level
                reason[v] = learnt
                trail.append(code)

            if conflicts >= restart_at:
                # Luby-scheduled restart
                if (luby_u & -luby_u) == luby_v:
                    luby_u += 1
                    luby_v = 1
                else:
                    luby_v *= 2
                restart_at = conflicts + restart_base * luby_v
                if trail_lim:
                    _backtrack(trail, trail_lim[0], value, phase, activity, heap, queued)
                    trail_lim.clear()
                    qhead = len(trail)
            continue

        # -------------------------------------------------------- decide
        if len(trail) == n_vars:
            return SAT, [1 if x else 0 for x in value[0::2]]
        if len(heap) > 4 * n_vars:
            heap = _free_heap(value, activity, queued)
        while True:
            key, v = heappop(heap)
            if key == -activity[v]:
                queued[v] = False
                if value[2 * v] is None:
                    break
        code = phase[v]
        trail_lim.append(len(trail))
        value[code] = True
        value[code ^ 1] = False
        level[v] = len(trail_lim)
        trail.append(code)


def clean_clauses(num_vars, clauses, assumptions=()):
    """Normalize input clauses into kernel lists.

    Returns (status, units, clauses) with literals as codes: duplicate
    literals are dropped, tautologies removed, unit clauses separated
    out. Status is UNSAT when an empty clause is present, else UNKNOWN.
    """
    units: list[int] = []
    body: list[list[int]] = []
    # the code of literal l sits at index l (negative l counts from the end),
    # so all clauses share one int object per code
    code_of = [-1, *range(0, 2 * num_vars, 2), *range(2 * num_vars - 1, 0, -2)]
    for clause in chain(clauses, ([a] for a in assumptions)):
        codes: list[int] = []
        tautology = False
        for lit in clause:
            code = code_of[lit]
            if code in codes:
                continue
            if code ^ 1 in codes:
                tautology = True
                break
            codes.append(code)
        if tautology:
            continue
        if not codes:
            return UNSAT, None, None
        if len(codes) == 1:
            units.append(codes[0])
        else:
            body.append(codes)
    return UNKNOWN, units, body


def search(num_vars, clauses, assumptions=(), deadline=None):
    """Decide the clause set; returns (status, 0/1 model list or None)."""
    status, units, body = clean_clauses(num_vars, clauses, assumptions)
    if status == UNSAT:
        return UNSAT, None
    return _search(num_vars, body, units, math.inf if deadline is None else deadline)


def model_satisfies(clauses, model) -> bool:
    """Check a 0-based boolean model against signed-literal clauses."""
    for clause in clauses:
        for lit in clause:
            value = bool(model[abs(lit) - 1])
            if (lit > 0) == value:
                break
        else:
            return False
    return True


def warm_up() -> None:
    """Solve a throwaway formula, for callers that run every layer once before timing."""
    search(2, [[1, 2], [-1, 2], [1, -2]])
