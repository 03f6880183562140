"""Conflict-driven clause learning search over Python lists.

Literals are stored as codes: variable v (0-based) appears positively
as ``2*v`` and negatively as ``2*v + 1``; ``value[code]`` is True,
False or None (unassigned). Each clause, input or learned, is a list
of codes whose first two positions are its watched literals.
``watches[code]`` lists the clauses watching that literal. It keeps
its most recent watch last and is visited from the end, so watches are
visited newest first; a clause that moves its watch elsewhere leaves
the list, the others keep their order. A visited clause not satisfied
by its other watch looks for a new one by its length: a two-literal
clause has none to look at and is unit or in conflict, a three-literal
clause tests its third literal, and only a longer one scans.
`clean_clauses` likewise packs a two- or three-literal clause on
distinct variables in one step, and any other literal by literal.

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
from heapq import heapify, heappop, heappush
from itertools import islice, repeat

SAT = 10
UNSAT = 20
UNKNOWN = 0

# the deadline is read after at most this many watch visits, and on every conflict
_POLL_VISITS = 1 << 14
# a pass over the clauses (packing, copying, watching) reads the deadline
# before each batch of this many
_POLL_CLAUSES = 1 << 12


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


def _counters(decisions=0, conflicts=0, propagations=0, restarts=0, learned=0, learned_lits=0):
    """A search's counters; ``propagations`` counts watch visits."""
    return {"decisions": decisions, "conflicts": conflicts, "propagations": propagations,
            "restarts": restarts, "learned_clauses": learned, "learned_literals": learned_lits}


def _search(n_vars, clauses, units, deadline):  # noqa: C901
    """Run CDCL to completion; returns (status, 0/1 model list or None,
    counters).

    ``clauses`` are lists of two or more codes, whose literals the
    search reorders. Restarts follow a Luby sequence, branching follows
    additive-bump variable activities with phase saving.
    """
    now = time.time
    if now() > deadline:
        return UNKNOWN, None, _counters()
    value: list[bool | None] = [None] * (2 * n_vars)
    level = [0] * n_vars
    reason: list = [None] * n_vars  # the clause that implied each variable
    phase = list(range(1, 2 * n_vars, 2))  # the literal to decide on: negative at first
    activity = [0.0] * n_vars
    seen = [False] * n_vars
    trail: list[int] = []
    trail_lim: list[int] = []
    queued = [True] * n_vars
    heap = list(zip(repeat(-0.0), range(n_vars)))  # every variable free at activity 0: a heap
    watches: list[list] = [[] for _ in range(2 * n_vars)]

    qhead = 0
    var_inc = 1.0
    decisions = 0
    conflicts = 0
    props = 0
    restarts = 0
    learned = 0
    learned_lits = 0
    next_poll = _POLL_VISITS
    model = None
    luby_u = 1
    luby_v = 1
    restart_base = 100
    restart_at = restart_base
    status = None  # set when the search ends

    # root-level units
    for code in units:
        if value[code] is None:
            value[code] = True
            value[code ^ 1] = False
            trail.append(code)
        elif value[code] is False:
            return UNSAT, None, _counters()

    # watch the first two literals of every input clause, reading the
    # deadline between batches (the read at entry covers the first)
    for start in range(0, len(clauses), _POLL_CLAUSES):
        if start and now() > deadline:
            return UNKNOWN, None, _counters()
        for clause in clauses[start:start + _POLL_CLAUSES]:
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
                # look for a literal not false to watch instead, by clause length
                n = len(clause)
                if n == 3:
                    q = clause[2]
                    if value[q] is not False:
                        # move this watch onto q, which takes the slot of falsified
                        clause[2] = falsified
                        clause[clause[0] != falsified] = q
                        watches[q].append(clause)
                        continue
                elif n > 3:
                    for k in range(2, n):
                        q = clause[k]
                        if value[q] is not False:
                            clause[k] = falsified
                            clause[clause[0] != falsified] = q
                            watches[q].append(clause)
                            break
                    if value[q] is not False:  # the scan moved the watch onto q
                        continue
                # every other literal is false: the clause is unit or in conflict
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
                    status = UNKNOWN
                    break
        if status is not None:  # the deadline passed during propagation
            break

        # ------------------------------------------------------- conflict
        if confl is not None:
            conflicts += 1
            n_levels = len(trail_lim)
            if n_levels == 0:
                status = UNSAT
                break
            if now() > deadline:
                status = UNKNOWN
                break

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
            learned += 1
            learned_lits += n_learnt
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
                    status = UNSAT
                    break
            else:
                # store the learned clause and watch its first two literals
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
                restarts += 1
                if trail_lim:
                    _backtrack(trail, trail_lim[0], value, phase, activity, heap, queued)
                    trail_lim.clear()
                    qhead = len(trail)
            continue

        # -------------------------------------------------------- decide
        if len(trail) == n_vars:
            status = SAT
            model = list(map(int, value[0::2]))
            break
        if len(heap) > 4 * n_vars:
            heap = _free_heap(value, activity, queued)
        while True:
            key, v = heappop(heap)
            if key == -activity[v]:
                queued[v] = False
                if value[2 * v] is None:
                    break
        code = phase[v]
        decisions += 1
        trail_lim.append(len(trail))
        value[code] = True
        value[code ^ 1] = False
        level[v] = len(trail_lim)
        trail.append(code)
    return status, model, _counters(decisions, conflicts, props, restarts, learned, learned_lits)


def clean_clauses(num_vars, clauses, deadline=math.inf):
    """Normalize input clauses into kernel lists.

    Returns (status, units, clauses) with literals as codes: duplicate
    literals are dropped, tautologies removed, unit clauses separated
    out. Status is UNSAT when an empty clause is present, else UNKNOWN;
    units and clauses are None when the input is UNSAT or the deadline
    (a ``time.time()`` value) passes first.
    """
    now = time.time
    units: list[int] = []
    body: list[list[int]] = []
    # the code of literal l sits at index l (negative l counts from the end),
    # so all clauses share one int object per code
    code_of = [-1, *range(0, 2 * num_vars, 2), *range(2 * num_vars - 1, 0, -2)]
    stream = iter(clauses)
    while batch := list(islice(stream, _POLL_CLAUSES)):
        if now() > deadline:
            return UNKNOWN, None, None
        for clause in batch:
            # a clause of two or three literals on distinct variables is packed
            # in one step (the codes of two such literals, both >= 0, differ
            # above bit 0); any other goes literal by literal
            n = len(clause)
            if n == 2:
                a, b = clause
                a = code_of[a]
                b = code_of[b]
                if a ^ b > 1:
                    body.append([a, b])
                    continue
            elif n == 3:
                a, b, c = clause
                a = code_of[a]
                b = code_of[b]
                c = code_of[c]
                if a ^ b > 1 and a ^ c > 1 and b ^ c > 1:
                    body.append([a, b, c])
                    continue
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


def search(num_vars, clauses, deadline=math.inf, prefix=((), ())):
    """Decide the clause set; returns (status, 0/1 model list or None,
    counters).

    ``prefix`` is the (units, body) that `clean_clauses` gave for the
    clauses that come before ``clauses``. The search starts from its
    units, then those of ``clauses``, and works on
    fresh copies of its body before the clauses packed here, so it runs
    as on one packing of the whole list. The status is UNKNOWN when the
    deadline (a ``time.time()`` value) passes, during clause packing,
    while the prefix's body is copied, or during the search.
    """
    now = time.time
    status, units, body = clean_clauses(num_vars, clauses, deadline)
    if body is None:
        return status, None, _counters()
    units0, body0 = prefix
    copies: list[list[int]] = []
    for start in range(0, len(body0), _POLL_CLAUSES):
        if now() > deadline:
            return UNKNOWN, None, _counters()
        copies += map(list.copy, body0[start:start + _POLL_CLAUSES])
    copies += body
    return _search(num_vars, copies, [*units0, *units], deadline)


def model_satisfies(clauses, model) -> bool:
    """Check a 0-based boolean model against signed-literal clauses."""
    true = {v if x else -v for v, x in enumerate(model, 1)}
    return not any(map(true.isdisjoint, clauses))


def warm_up() -> None:
    """Solve a throwaway formula, for callers that run every layer once before timing."""
    search(2, [[1, 2], [-1, 2], [1, -2]])
