"""Vtree/SDD parsing and the algebra the explainers rely on."""

from itertools import product

import pytest

import fmpsat as F
from fmpsat.errors import ParseError
from fmpsat.batch import generate_random_obdd, obdd_to_shannon_sdd
from fmpsat.sdd import SddDecision

from oracles import consistent_by_completions, kappa

ALL_POINTS = list(product((0, 1), repeat=4))


# ---------------------------------------------------------------- parsing

def test_parse_vtree_balanced(ella_vtree):
    assert ella_vtree.num_features == 4
    root = ella_vtree.nodes[ella_vtree.root]
    assert ella_vtree.vars_below(root.left) == {1, 2}
    assert ella_vtree.vars_below(root.right) == {3, 4}


def test_parse_vtree_single_leaf():
    vt = F.parse_vtree("L 0 1\n")
    assert vt.num_features == 1


def test_parse_vtree_dangling_child():
    text = "vtree 3\nL 0 1\nL 1 2\nI 2 0 9\n"
    with pytest.raises(ParseError, match="missing node 9"):
        F.parse_vtree(text)


def test_parse_vtree_duplicate_id():
    with pytest.raises(ParseError, match="duplicate vtree node id"):
        F.parse_vtree("L 0 1\nL 0 2\n")


def test_parse_vtree_duplicate_leaf_var():
    with pytest.raises(ParseError, match="duplicate vtree leaf variable"):
        F.parse_vtree("L 0 1\nL 1 1\nI 2 0 1\n")


def test_parse_vtree_malformed_line_has_lineno():
    with pytest.raises(ParseError, match="line 2"):
        F.parse_vtree("L 0 1\nL x\n")


def test_parse_sdd_matches_truth_table(ella_sdd):
    for point in ALL_POINTS:
        assert int(F.evaluate(ella_sdd, point)) == kappa(point)


def test_parse_sdd_terminal_only(ella_vtree):
    sdd = F.parse_sdd("T 0\n", ella_vtree)
    assert all(F.evaluate(sdd, point) for point in ALL_POINTS)


def test_parse_sdd_forward_reference(ella_vtree):
    text = "D 0 2 1 1 2\nL 1 0 1\nL 2 1 2\n"
    with pytest.raises(ParseError, match="forward or dangling reference"):
        F.parse_sdd(text, ella_vtree)


def test_parse_sdd_unknown_vtree_id(ella_vtree):
    with pytest.raises(ParseError, match="unknown vtree id"):
        F.parse_sdd("L 0 42 1\n", ella_vtree)


def test_parse_sdd_literal_on_wrong_leaf(ella_vtree):
    with pytest.raises(ParseError, match="not its leaf"):
        F.parse_sdd("L 0 0 2\n", ella_vtree)


def test_parse_sdd_empty_elements(ella_vtree):
    with pytest.raises(ParseError, match="empty element list"):
        F.parse_sdd("D 0 2 0\n", ella_vtree)


def test_parse_sdd_prime_outside_left_subtree(ella_vtree):
    text = "L 0 3 3\nL 1 1 2\nD 2 2 1 0 1\n"
    with pytest.raises(ParseError, match="outside the left subtree"):
        F.parse_sdd(text, ella_vtree)


def test_serialize_round_trip(ella_sdd, ella_vtree):
    text = F.serialize_sdd(ella_sdd)
    again = F.parse_sdd(text, ella_vtree)
    for point in ALL_POINTS:
        assert F.evaluate(again, point) == F.evaluate(ella_sdd, point)
    assert F.serialize_sdd(again) == text


# ---------------------------------------------------------------- evaluate

def test_evaluate_ella_is_rejected(ella_sdd):
    assert F.evaluate(ella_sdd, (0, 1, 0, 1)) is False


def test_evaluate_example_point(ella_sdd):
    assert F.evaluate(ella_sdd, (1, 1, 0, 0)) is True


def test_evaluate_wrong_length(ella_sdd):
    with pytest.raises(F.ClassifierError, match="4 features"):
        F.evaluate(ella_sdd, (0, 1, 0))


# ----------------------------------------- conditioning, by consistency_under

def test_condition_empty_term_is_identity(ella_sdd):
    # nothing fixed: consistency under the empty term is the diagram's own
    for sdd in (ella_sdd, F.negate(ella_sdd)):
        some_point = any(F.evaluate(sdd, point) for point in ALL_POINTS)
        assert F.consistency_under(sdd, {}) == F.is_consistent(sdd) == some_point


def test_condition_to_contradiction(ella_sdd):
    # fixing P=0, M=0 kills every satisfying point of kappa
    term = {1: 0, 3: 0}
    assert not F.consistency_under(ella_sdd, term)
    assert not consistent_by_completions(lambda p: F.evaluate(ella_sdd, p), term, 4)


def test_condition_to_tautology(ella_sdd):
    # fixing P=1, W=1 makes every completion a model, so the negation has none
    term = {1: 1, 4: 1}
    for point in ALL_POINTS:
        assert F.evaluate(ella_sdd, tuple(term.get(i + 1, point[i]) for i in range(4)))
    assert F.consistency_under(ella_sdd, term)
    assert not F.consistency_under(F.negate(ella_sdd), term)


def test_condition_out_of_range(ella_sdd):
    with pytest.raises(F.ClassifierError, match="outside"):
        F.consistency_under(ella_sdd, {9: 1})


def test_condition_agrees_with_override(ella_sdd):
    # a term fixing every variable leaves one completion: the overridden point
    for term in ({1: 1}, {2: 0, 4: 1}, {1: 0, 2: 1, 3: 0, 4: 1}):
        for point in ALL_POINTS:
            overridden = tuple(
                term.get(i + 1, point[i]) for i in range(4)
            )
            full = {i + 1: v for i, v in enumerate(overridden)}
            assert F.consistency_under(ella_sdd, full) == F.evaluate(ella_sdd, overridden)


# ----------------------------------------------------------------- negate

def test_negate_constant(ella_vtree):
    top = F.parse_sdd("T 0\n", ella_vtree)
    assert not F.is_consistent(F.negate(top))


def test_negate_is_involution(ella_sdd):
    twice = F.negate(F.negate(ella_sdd))
    for point in ALL_POINTS:
        assert F.evaluate(twice, point) == F.evaluate(ella_sdd, point)


def test_negate_flips_every_point(ella_sdd):
    negated = F.negate(ella_sdd)
    for point in ALL_POINTS:
        assert F.evaluate(negated, point) != F.evaluate(ella_sdd, point)
    assert F.evaluate(negated, (0, 1, 0, 1)) is True  # Ella


# ------------------------------------------------------------ consistency

def test_consistency_basics(ella_sdd, ella_vtree):
    assert not F.is_consistent(F.parse_sdd("F 0\n", ella_vtree))
    assert F.is_consistent(ella_sdd)


def test_consistency_under_matches_condition(ella_sdd):
    # the definition: some completion of the fixed variables is a model
    for sdd in (ella_sdd, F.negate(ella_sdd)):
        for term in ({}, {1: 0, 3: 0}, {1: 0, 2: 1, 3: 0, 4: 1}, {2: 1}, {4: 0}):
            assert F.consistency_under(sdd, term) == consistent_by_completions(
                lambda p: F.evaluate(sdd, p), term, 4
            )


def test_consistency_under_ella_full_fix(ella_sdd):
    assert not F.consistency_under(ella_sdd, {1: 0, 2: 1, 3: 0, 4: 1})


# ------------------------------------------------- randomized invariants

def _random_sdds(count, max_features=10):
    out = []
    for trial in range(count):
        m = 3 + trial % (max_features - 2)
        obdd = generate_random_obdd(m, 8 + 3 * trial % 30, seed=900 + trial)
        out.append((m, obdd_to_shannon_sdd(obdd)))
    return out


def test_random_sdd_semantic_invariants():
    import numpy as np

    rng = np.random.default_rng(5)
    for m, sdd in _random_sdds(25):
        points = list(product((0, 1), repeat=m))
        base = [F.evaluate(sdd, p) for p in points]
        # negation flips every point
        negated = F.negate(sdd)
        assert all(
            F.evaluate(negated, p) != b for p, b in zip(points, base)
        )
        # consistency == some satisfying point
        assert F.is_consistent(sdd) == any(base)
        # consistency under a term == some completion of it is a model
        term = {
            int(i) + 1: int(rng.integers(0, 2))
            for i in rng.choice(m, size=rng.integers(1, m + 1), replace=False)
        }
        assert F.consistency_under(sdd, term) == consistent_by_completions(
            lambda p: F.evaluate(sdd, p), term, m
        )


def test_element_partition_property(ella_sdd):
    # on any full assignment to the left-subtree variables, exactly one
    # prime of every decision node holds
    _assert_partition(ella_sdd)


def test_element_partition_on_generated():
    for _, sdd in _random_sdds(10, max_features=8):
        _assert_partition(sdd)


def _assert_partition(sdd):
    m = sdd.num_features
    for node in sdd.nodes:
        if not isinstance(node, SddDecision):
            continue
        vnode = sdd.vtree.nodes[node.vtree_id]
        left_vars = sorted(sdd.vtree.vars_below(vnode.left))
        for bits in product((0, 1), repeat=len(left_vars)):
            point = [0] * m
            for var, bit in zip(left_vars, bits):
                point[var - 1] = bit
            holds = 0
            for prime, _sub in node.elements:
                # a prime mentions only left vars, so the other values
                # of the point do not change it
                if F.evaluate(F.Sdd(sdd.nodes, prime, sdd.vtree), point):
                    holds += 1
            assert holds == 1
