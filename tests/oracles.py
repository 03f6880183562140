"""Independent reference implementations used to pin expected values.

Everything here works by exhaustive enumeration and deliberately
avoids the package's diagram traversals and CNF machinery.
"""

from itertools import combinations, product


def kappa(point):
    """The running example: (Y and P) or (P and W) or (W and M)."""
    p, y, m, w = point
    return int(bool((y and p) or (p and w) or (w and m)))


def weak_axp_by_definition(predict, instance, features, m):
    """Eq-style check: every completion of the fixed features keeps the class."""
    free = [i for i in range(1, m + 1) if i not in features]
    point = list(instance.values)
    for bits in product((0, 1), repeat=len(free)):
        for i, b in zip(free, bits):
            point[i - 1] = b
        if predict(tuple(point)) != instance.label:
            return False
    return True


def consistent_by_completions(evaluate, term, m):
    """Some completion of the variables fixed by `term` satisfies `evaluate`."""
    free = [i for i in range(1, m + 1) if i not in term]
    point = [term.get(i, 0) for i in range(1, m + 1)]
    for bits in product((0, 1), repeat=len(free)):
        for i, b in zip(free, bits):
            point[i - 1] = b
        if evaluate(tuple(point)):
            return True
    return False


def weak_cxp_by_definition(predict, instance, features, m):
    """Some completion over the freed features flips the class."""
    freed = sorted(features)
    point = list(instance.values)
    for bits in product((0, 1), repeat=len(freed)):
        for i, b in zip(freed, bits):
            point[i - 1] = b
        if predict(tuple(point)) != instance.label:
            return True
    return False


def enumerate_minimal(m, predicate):
    """All subset-minimal satisfying sets, by increasing cardinality."""
    found = []
    for size in range(m + 1):
        for combo in combinations(range(1, m + 1), size):
            candidate = frozenset(combo)
            if any(known <= candidate for known in found):
                continue
            if predicate(candidate):
                found.append(candidate)
    return frozenset(found)


def minimal_hitting_sets(families):
    """Subset-minimal sets meeting every member of `families`."""
    families = [frozenset(s) for s in families]
    universe = sorted(set().union(*families)) if families else []
    found = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            candidate = frozenset(combo)
            if any(known <= candidate for known in found):
                continue
            if all(candidate & fam for fam in families):
                found.append(candidate)
    return frozenset(found)


def dpll_sat(num_vars, clauses):
    """Plain recursive DPLL with unit propagation; independent of the
    package's engine. Usable a little beyond the truth-table range."""

    def propagate(assign, active):
        changed = True
        while changed:
            changed = False
            for clause in active:
                unassigned = []
                satisfied = False
                for lit in clause:
                    value = assign.get(abs(lit))
                    if value is None:
                        unassigned.append(lit)
                    elif (lit > 0) == value:
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    assign[abs(lit)] = lit > 0
                    changed = True
        return assign

    def search(assign):
        assign = propagate(dict(assign), clauses)
        if assign is None:
            return False
        for v in range(1, num_vars + 1):
            if v not in assign:
                for value in (False, True):
                    trial = dict(assign)
                    trial[v] = value
                    if search(trial):
                        return True
                return False
        return True

    return search({})


def exhaustive_sat(num_vars, clauses):
    """Truth-table satisfiability via bitset masks (num_vars <= 20)."""
    assert num_vars <= 20
    total_bits = 1 << num_vars
    full = (1 << total_bits) - 1
    masks = []
    for v in range(1, num_vars + 1):
        half = 1 << (v - 1)
        block = ((1 << half) - 1) << half
        width = 1 << v
        while width < total_bits:
            block |= block << width
            width <<= 1
        masks.append(block)
    acc = full
    for clause in clauses:
        clause_mask = 0
        for lit in clause:
            vm = masks[abs(lit) - 1]
            clause_mask |= vm if lit > 0 else (~vm & full)
        acc &= clause_mask
        if acc == 0:
            return False
    return acc != 0
