"""Reference computations the benchmark checks fmpsat's answers against.

Nothing here imports fmpsat. The OBDD reader, the weak-AXp test, the
deletion scan, the exhaustive relevancy set and the DIMACS reader with
unit propagation are written from the definitions, so a fault shared by
fmpsat's own layers cannot hide behind them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXHAUSTIVE_MAX_FEATURES = 16


class OracleError(Exception):
    """An input the oracle cannot decide, or a malformed file."""


@dataclass(frozen=True)
class SourceObdd:
    """An OBDD as plain tuples: ``var`` is 0 at terminals, whose class is in ``lo``."""

    num_features: int
    var: tuple[int, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    root: int

    def predict(self, values) -> int:
        j = self.root
        while self.var[j]:
            j = self.hi[j] if values[self.var[j] - 1] else self.lo[j]
        return self.lo[j]


def read_obdd(text: str) -> SourceObdd:
    """Read the ``obdd`` text format: ``obdd m n``, ``N id var lo hi``, ``T id class``."""
    m = None
    rows: dict[int, tuple[int, int, int]] = {}
    last = None
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "obdd":
            m = int(parts[1])
        elif parts[0] == "N":
            last = int(parts[1])
            rows[last] = (int(parts[2]), int(parts[3]), int(parts[4]))
        elif parts[0] == "T":
            last = int(parts[1])
            rows[last] = (0, int(parts[2]), int(parts[2]))
        else:
            raise OracleError(f"unknown OBDD line {raw!r}")
    if m is None or last is None or sorted(rows) != list(range(len(rows))):
        raise OracleError("OBDD text lacks a header or has non-dense ids")
    var, lo, hi = zip(*(rows[j] for j in range(len(rows))))
    return SourceObdd(m, var, lo, hi, last)


def is_weak_axp(obdd: SourceObdd, values, label: int, fixed) -> bool:
    """No terminal of another class is reachable on a path consistent
    with the fixed features' instance values."""
    fixed = set(fixed)
    var, lo, hi = obdd.var, obdd.lo, obdd.hi
    seen = set()
    stack = [obdd.root]
    while stack:
        j = stack.pop()
        if j in seen:
            continue
        seen.add(j)
        v = var[j]
        if not v:
            if lo[j] != label:
                return False
        elif v in fixed:
            stack.append(hi[j] if values[v - 1] else lo[j])
        else:
            stack.append(lo[j])
            stack.append(hi[j])
    return True


def is_axp(obdd: SourceObdd, values, label: int, features) -> bool:
    features = set(features)
    return is_weak_axp(obdd, values, label, features) and not any(
        is_weak_axp(obdd, values, label, features - {i}) for i in features
    )


def deletion_scan(obdd: SourceObdd, values, label: int, order) -> frozenset[int]:
    """Drop features in the given order while the rest stays weak; the
    result is an AXp. Features not in ``order`` are dropped first."""
    current = set(order)
    if not is_weak_axp(obdd, values, label, current):
        raise OracleError("deletion scan started from a set that is not weak")
    for i in order:
        if is_weak_axp(obdd, values, label, current - {i}):
            current.discard(i)
    return frozenset(current)


def scan_target_last(obdd: SourceObdd, values, label: int, target: int) -> frozenset[int]:
    """Deletion scan over all features with the target examined last.
    If the target survives, the result is an AXp containing it."""
    order = [i for i in range(1, obdd.num_features + 1) if i != target] + [target]
    return deletion_scan(obdd, values, label, order)


def disagreement_sets(obdd: SourceObdd, values, label: int) -> list[int]:
    """Subset-minimal bitmasks of features on which a path to a terminal
    of another class disagrees with the instance. Bit i-1 is feature i."""
    memo: dict[int, frozenset[int]] = {}
    stack = [(obdd.root, False)]
    while stack:
        j, done = stack.pop()
        if j in memo:
            continue
        if done or not obdd.var[j]:
            if not obdd.var[j]:
                memo[j] = frozenset() if obdd.lo[j] == label else frozenset((0,))
            else:
                v = obdd.var[j]
                bit = 1 << (v - 1)
                agree, other = (obdd.hi[j], obdd.lo[j]) if values[v - 1] else (obdd.lo[j], obdd.hi[j])
                memo[j] = _minimal(set(memo[agree]) | {d | bit for d in memo[other]})
            continue
        stack.append((j, True))
        stack.append((obdd.lo[j], False))
        stack.append((obdd.hi[j], False))
    return sorted(memo[obdd.root])


def _minimal(masks: set[int]) -> frozenset[int]:
    ordered = sorted(masks, key=lambda d: bin(d).count("1"))
    kept: list[int] = []
    for d in ordered:
        if not any(k & d == k for k in kept):
            kept.append(d)
    return frozenset(kept)


def relevant_features(obdd: SourceObdd, values, label: int) -> frozenset[int]:
    """Every feature in some AXp, found as the union of the minimal hitting
    sets of the disagreement sets, over all 2^m feature subsets."""
    m = obdd.num_features
    if m > EXHAUSTIVE_MAX_FEATURES:
        raise OracleError(f"exhaustive relevancy is capped at {EXHAUSTIVE_MAX_FEATURES} features")
    masks = np.arange(1 << m, dtype=np.int64)
    hits = np.ones(1 << m, dtype=bool)
    for d in disagreement_sets(obdd, values, label):
        hits &= (masks & d) != 0
    droppable = np.zeros(1 << m, dtype=bool)
    for i in range(m):
        bit = 1 << i
        has = (masks & bit) != 0
        droppable |= has & hits[masks & ~bit]
    minimal = hits & ~droppable
    return frozenset(i + 1 for i in range(m) if np.any(minimal & ((masks >> i) & 1).astype(bool)))


# --------------------------------------------------------------------------
# DIMACS
# --------------------------------------------------------------------------

@dataclass
class Dimacs:
    num_vars: int
    lits: np.ndarray    # clause literals, 0-terminated clauses removed
    starts: np.ndarray  # CSR offsets into ``lits``; len = clauses + 1
    legend: dict[str, int]

    @property
    def num_clauses(self) -> int:
        return len(self.starts) - 1


def read_dimacs(text: str) -> Dimacs:
    """Read DIMACS CNF; ``c map <var> <name>`` comments give the legend.
    The clause count and variable range must match the header."""
    at = text.find("p cnf")
    if at < 0:
        raise OracleError("DIMACS text has no 'p cnf' header")
    end = text.find("\n", at)
    header = text[at:end].split()
    if len(header) != 4:
        raise OracleError(f"malformed header {text[at:end]!r}")
    num_vars, num_clauses = int(header[2]), int(header[3])
    legend: dict[str, int] = {}
    for raw in text[:at].splitlines():
        parts = raw.split()
        if len(parts) == 4 and parts[:2] == ["c", "map"]:
            legend[parts[3]] = int(parts[2])
    body = text[end + 1:]
    if any(ch in body for ch in "cp"):
        raise OracleError("comment or header line after the DIMACS header")
    flat = np.fromstring(body, dtype=np.int64, sep=" ")
    zeros = np.flatnonzero(flat == 0)
    if len(zeros) != num_clauses:
        raise OracleError(f"header announces {num_clauses} clauses, body has {len(zeros)}")
    if len(flat) and flat[-1] != 0:
        raise OracleError("last clause is not terminated by 0")
    if len(flat) and int(np.abs(flat).max()) > num_vars:
        raise OracleError(f"a literal exceeds the header's {num_vars} variables")
    lengths = np.diff(np.concatenate(([-1], zeros))) - 1
    if np.any(lengths == 0):
        raise OracleError("empty clause in the body")
    starts = np.concatenate(([0], np.cumsum(lengths)))
    return Dimacs(num_vars, flat[flat != 0], starts, legend)


def unit_propagate(cnf: Dimacs, assignment: dict[int, bool]) -> str:
    """Propagate the assigned variables to fixpoint.

    Returns ``"satisfied"`` when every clause ends up satisfied,
    ``"conflict"`` when some clause is falsified, and ``"undetermined"``
    when propagation stops with open clauses left.
    """
    n = cnf.num_vars
    lits, starts = cnf.lits, cnf.starts
    num_clauses = cnf.num_clauses
    length = np.diff(starts)
    clause_of = np.repeat(np.arange(num_clauses), length)
    codes = 2 * (np.abs(lits) - 1) + (lits < 0)   # literal -> code; code ^ 1 negates
    by_code = np.argsort(codes, kind="stable")
    occ_start = np.searchsorted(codes[by_code], np.arange(2 * n + 1))
    value = np.zeros(n, dtype=np.int8)             # 0 open, 1 true, -1 false
    n_false = np.zeros(num_clauses, dtype=np.int64)
    satisfied = np.zeros(num_clauses, dtype=bool)

    unit = length == 1
    frontier = list(lits[starts[:-1][unit]])
    frontier += [v if val else -v for v, val in assignment.items()]
    frontier = np.asarray(frontier, dtype=np.int64)
    while len(frontier):
        frontier = np.unique(frontier)
        var = np.abs(frontier) - 1
        if len(np.unique(var)) != len(var):
            return "conflict"   # both polarities forced at once
        sign = np.where(frontier > 0, 1, -1).astype(np.int8)
        old = value[var]
        if np.any(old == -sign):
            return "conflict"
        fresh = old == 0
        var, sign = var[fresh], sign[fresh]
        value[var] = sign
        true_codes = 2 * var + (sign < 0)
        satisfied[clause_of[by_code[_gather(occ_start, true_codes)]]] = True
        touched = clause_of[by_code[_gather(occ_start, true_codes ^ 1)]]
        np.add.at(n_false, touched, 1)
        touched = np.unique(touched)
        touched = touched[~satisfied[touched]]
        if np.any(n_false[touched] == length[touched]):
            return "conflict"
        units = touched[n_false[touched] == length[touched] - 1]
        if not len(units):
            break
        idx = _gather(starts, units)
        cand = lits[idx]
        open_lit = value[np.abs(cand) - 1] == 0
        frontier = cand[open_lit]
    return "satisfied" if satisfied.all() else "undetermined"


def _gather(offsets: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Concatenated index ranges offsets[k]..offsets[k+1] for each key."""
    lo = offsets[keys]
    counts = offsets[keys + 1] - lo
    total = int(counts.sum())
    if not total:
        return np.zeros(0, dtype=np.int64)
    base = np.repeat(lo - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return base + np.arange(total)


# --------------------------------------------------------------------------
# self-check on the paper's running example
# --------------------------------------------------------------------------

# Ella: (Young and ToP) or (ToP and Work) or (Work and Male); ToP=1,
# Young=2, Male=3, Work=4; Ella = (0, 1, 0, 1) is rejected (class 0).
ELLA_OBDD = """\
obdd 4 6
T 4 0
T 5 1
N 3 4 4 5
N 1 3 4 3
N 2 2 3 5
N 0 1 1 2
"""
ELLA_VALUES = (0, 1, 0, 1)
ELLA_LABEL = 0


def self_check() -> None:
    """Each oracle must agree with the paper on Ella: ToP and Male are in
    some AXp, with witness {1,3}; Young and Work are in none."""
    obdd = read_obdd(ELLA_OBDD)
    v, c = ELLA_VALUES, ELLA_LABEL
    checks = [
        obdd.predict(v) == c,
        is_axp(obdd, v, c, {1, 3}),
        not is_weak_axp(obdd, v, c, {1}),
        not is_weak_axp(obdd, v, c, {2, 3, 4}),
        scan_target_last(obdd, v, c, 1) == frozenset({1, 3}),
        scan_target_last(obdd, v, c, 3) == frozenset({1, 3}),
        2 not in scan_target_last(obdd, v, c, 2),
        relevant_features(obdd, v, c) == frozenset({1, 3}),
    ]
    # the DIMACS side: clauses for s1 and s3 <-> w, with w forced true
    cnf = read_dimacs("p cnf 5 4\n-5 1 0\n-5 3 0\n5 -1 -3 0\n5 0\n")
    checks += [
        unit_propagate(cnf, {1: True, 2: False, 3: True, 4: False}) == "satisfied",
        unit_propagate(cnf, {1: False, 2: True, 3: True, 4: True}) == "conflict",
        unit_propagate(read_dimacs("p cnf 2 1\n1 2 0\n"), {}) == "undetermined",
    ]
    if not all(checks):
        failed = [k for k, ok in enumerate(checks) if not ok]
        raise OracleError(f"oracle self-check failed on the running example: checks {failed}")
