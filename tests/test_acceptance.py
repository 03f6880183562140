"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION-n PASS line on success (visible
with ``pytest -s`` or in captured output); a failure shows up as a
normal pytest failure. Criteria 2, 3 and 4 share one randomized sweep.
"""

import io
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import pytest

import fmpsat as F
from fmpsat.encode import (
    encode_xpg_onestep,
    encode_xpg_twostep,
    write_dimacs,
)
from fmpsat.batch import (
    BatchQuery,
    batch_run,
    generate_random_classifier,
    generate_random_obdd,
    obdd_to_shannon_sdd,
    random_instance,
)
from fmpsat.fmp import FmpQuery, decide_membership

from oracles import minimal_hitting_sets


def _report(name):
    print(f"{name} PASS")


# --------------------------------------------------------------------------
# criterion 1: running-example reproduction
# --------------------------------------------------------------------------

def test_criterion_1_running_example(ella_sdd_clf, ella_obdd_clf, ella_instance):
    expected = {3: True, 2: False, 4: False, 1: True}
    started = time.perf_counter()
    for clf in (ella_sdd_clf, ella_obdd_clf):
        for method in ("one-step", "two-step"):
            for target, want in expected.items():
                outcome = decide_membership(
                    FmpQuery(clf, ella_instance, target, method)
                )
                assert outcome.membership == want, (type(clf).__name__, method, target)
                if want:
                    assert outcome.witness == {1, 3}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"16 queries took {elapsed:.3f} s"
    _report("CRITERION-1 running-example")


# --------------------------------------------------------------------------
# criteria 2-4: randomized oracle sweep (shared)
# --------------------------------------------------------------------------

@dataclass
class SweepStats:
    classifiers: int = 0
    queries: int = 0
    verdict_mismatches: list = field(default_factory=list)
    witness_violations: list = field(default_factory=list)
    seed_violations: list = field(default_factory=list)
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def oracle_sweep():
    started = time.perf_counter()
    rng = np.random.default_rng(20240617)
    stats = SweepStats()
    for index in range(200):
        m = 3 + index % 6  # m in [3, 8]
        kind = "obdd" if index % 2 == 0 else "shannon-sdd"
        clf = generate_random_classifier(
            kind, m, int(rng.integers(8, 40)), seed=10_000 + index
        )
        stats.classifiers += 1
        for _ in range(5):
            inst = random_instance(clf, rng)
            axps = F.enumerate_axps_bruteforce(clf, inst)
            members = {i for axp in axps for i in axp}
            for target in range(1, m + 1):
                want = target in members
                for method in ("one-step", "two-step"):
                    tag = (kind, index, inst.values, target, method)
                    outcome = decide_membership(FmpQuery(clf, inst, target, method))
                    stats.queries += 1
                    if outcome.membership != want:
                        stats.verdict_mismatches.append(tag)
                        continue
                    if outcome.membership:
                        witness = outcome.witness
                        ok = (
                            target in witness
                            and F.is_weak_axp(clf, inst, witness)
                            and all(
                                not F.is_weak_axp(clf, inst, witness - {i})
                                for i in witness
                            )
                        )
                        if not ok:
                            stats.witness_violations.append(tag)
                        if method == "two-step":
                            seed = outcome.two_step_seed
                            if not (
                                F.is_weak_axp(clf, inst, seed)
                                and not F.is_weak_axp(clf, inst, seed - {target})
                            ):
                                stats.seed_violations.append(tag)
    stats.elapsed = time.perf_counter() - started
    return stats


def test_criterion_2_oracle_equivalence(oracle_sweep):
    assert oracle_sweep.classifiers >= 200
    assert oracle_sweep.verdict_mismatches == []
    assert oracle_sweep.elapsed < 300.0, f"sweep took {oracle_sweep.elapsed:.1f} s"
    _report(
        f"CRITERION-2 oracle-equivalence ({oracle_sweep.queries} queries, "
        f"{oracle_sweep.elapsed:.1f} s)"
    )


def test_criterion_3_witness_contract(oracle_sweep):
    assert oracle_sweep.witness_violations == []
    _report("CRITERION-3 witness-contract")


def test_criterion_4_twostep_seed_contract(oracle_sweep):
    assert oracle_sweep.seed_violations == []
    _report("CRITERION-4 two-step-seed-contract")


# --------------------------------------------------------------------------
# criterion 5: duality suite
# --------------------------------------------------------------------------

def test_criterion_5_duality():
    rng = np.random.default_rng(555)
    for index in range(50):
        m = 3 + index % 6
        kind = "shannon-sdd" if index % 2 else "obdd"
        clf = generate_random_classifier(kind, m, 24, seed=20_000 + index)
        inst = random_instance(clf, rng)
        features = frozenset(range(1, m + 1))
        for bits in product((0, 1), repeat=m):
            Y = frozenset(i + 1 for i in range(m) if bits[i])
            assert F.is_weak_cxp(clf, inst, Y) == (
                not F.is_weak_axp(clf, inst, features - Y)
            )
        axps = F.enumerate_axps_bruteforce(clf, inst)
        cxps = F.enumerate_cxps_bruteforce(clf, inst)
        assert minimal_hitting_sets(cxps) == axps
        assert minimal_hitting_sets(axps) == cxps
        assert {i for s in axps for i in s} == {i for s in cxps for i in s}
    _report("CRITERION-5 duality")


# --------------------------------------------------------------------------
# criterion 6: encoding-size reduction
# --------------------------------------------------------------------------

def test_criterion_6_encoding_size():
    rng = np.random.default_rng(66)
    checked = 0
    for seed in range(30_000, 30_005):
        obdd = generate_random_obdd(40, 420, seed=seed)
        assert len(obdd.nodes) >= 300, f"generator produced {len(obdd.nodes)} nodes"
        clf = F.ObddClassifier(obdd)
        inst = random_instance(clf, rng)
        graph = clf.xpg_for(inst)
        target = int(rng.integers(1, 41))
        one, _ = encode_xpg_onestep(graph, target)
        two, _ = encode_xpg_twostep(graph, target)
        ratio = one.num_clauses / two.num_clauses
        assert ratio >= 5.0, f"clause ratio {ratio:.2f} below 5"
        checked += 1
    assert checked == 5
    _report("CRITERION-6 encoding-size")


# --------------------------------------------------------------------------
# criterion 7: SDD algebra, exhaustive
# --------------------------------------------------------------------------

def _check_sdd_algebra(sdd, rng):
    m = sdd.num_features
    points = list(product((0, 1), repeat=m))
    base = [F.evaluate(sdd, p) for p in points]
    negated = F.negate(sdd)
    for p, b in zip(points, base):
        assert F.evaluate(negated, p) != b
    assert F.is_consistent(sdd) == any(base)
    assert F.is_consistent(negated) == (not all(base))
    size = int(rng.integers(1, m + 1))
    term = {
        int(i) + 1: int(rng.integers(0, 2))
        for i in rng.choice(m, size=size, replace=False)
    }
    conditioned = F.condition(sdd, term)
    for p in points:
        overridden = tuple(term.get(i + 1, p[i]) for i in range(m))
        assert F.evaluate(conditioned, p) == F.evaluate(sdd, overridden)
    assert F.consistency_under(sdd, term) == F.is_consistent(conditioned)


def test_criterion_7_sdd_algebra(ella_sdd):
    rng = np.random.default_rng(77)
    _check_sdd_algebra(ella_sdd, rng)
    count = 0
    for index in range(100):
        m = 12 if index % 25 == 0 else 3 + index % 8
        obdd = generate_random_obdd(m, 10 + index % 40, seed=40_000 + index)
        _check_sdd_algebra(obdd_to_shannon_sdd(obdd), rng)
        count += 1
    assert count == 100
    _report("CRITERION-7 sdd-algebra")


# --------------------------------------------------------------------------
# criterion 8: determinism
# --------------------------------------------------------------------------

def test_criterion_8_determinism(ella_xpg):
    first_cnf, first_vm = encode_xpg_onestep(ella_xpg, 3)
    second_cnf, second_vm = encode_xpg_onestep(ella_xpg, 3)
    assert write_dimacs(first_cnf, first_vm) == write_dimacs(second_cnf, second_vm)

    def run_batch():
        rng = np.random.default_rng(88)
        clf = generate_random_classifier("obdd", 8, 30, seed=88)
        picks = [
            (random_instance(clf, rng), int(rng.integers(1, 9))) for _ in range(20)
        ]
        queries = [
            BatchQuery("det", FmpQuery(clf, inst, t, method))
            for method in ("one-step", "two-step")
            for inst, t in picks
        ]
        sink = io.StringIO()
        batch_run(queries, sink)
        # timing columns legitimately vary between runs
        return [
            ",".join(line.split(",")[:7] + line.split(",")[9:])
            for line in sink.getvalue().splitlines()
        ]

    assert run_batch() == run_batch()
    _report("CRITERION-8 determinism")


# --------------------------------------------------------------------------
# criterion 9: desk-scale performance
# --------------------------------------------------------------------------

def test_criterion_9_desk_scale():
    rng = np.random.default_rng(99)
    cases = [
        ("obdd", 100, 1900),
        ("obdd", 60, 1000),
        ("shannon-sdd", 100, 900),
    ]
    worst = 0.0
    for kind, m, budget in cases:
        clf = generate_random_classifier(kind, m, budget, seed=50_000 + m)
        assert clf.num_nodes <= 2000
        for _ in range(3):
            inst = random_instance(clf, rng)
            target = int(rng.integers(1, m + 1))
            started = time.perf_counter()
            decide_membership(FmpQuery(clf, inst, target, "two-step"))
            elapsed = time.perf_counter() - started
            worst = max(worst, elapsed)
            assert elapsed < 10.0, f"{kind} m={m}: query took {elapsed:.2f} s"
    _report(f"CRITERION-9 desk-scale (worst query {worst:.2f} s)")
