"""Explanation graph construction, evaluation, and serialization."""

from itertools import product
from pathlib import Path

import pytest

import fmpsat as F
from fmpsat.errors import ClassifierError, ParseError
from fmpsat.batch import generate_random_obdd
from fmpsat.xpg import XpgNonTerminal, XpgTerminal

from oracles import kappa

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------- OBDD mapping

def test_build_structure_of_worked_example(ella_xpg):
    # root selects P, its 1-edge goes to the M node, its 0-edge to the Y
    # node; the rejecting terminal carries 1 (Ella's class), the accepting
    # terminal carries 0
    g = ella_xpg
    assert isinstance(g.nodes[g.root], XpgNonTerminal)
    assert g.nodes[g.root].var == 1
    by_label = {}
    for src, dst, label in g.edges:
        if src == g.root:
            by_label[label] = g.nodes[dst].var
    assert by_label == {1: 3, 0: 2}  # solid to s_M, dashed to s_Y
    terminals = sorted(
        node.label for node in g.nodes if isinstance(node, XpgTerminal)
    )
    assert terminals == [0, 1]


def test_build_rejects_constant_classifier(ella_instance):
    from fmpsat.xpg import Obdd, ObddTerminal

    constant = Obdd([ObddTerminal(0)], 0, 4)
    inst = F.Instance((0, 0, 0, 0), 0)
    with pytest.raises(ClassifierError, match="constant"):
        F.build_xpg_from_obdd(constant, inst)


def test_build_rejects_mismatched_class(ella_obdd):
    with pytest.raises(ClassifierError, match="predicts"):
        F.build_xpg_from_obdd(ella_obdd, F.Instance((0, 1, 0, 1), 1))


def test_one_terminal_on_all_ones_path(ella_xpg):
    # follow the unique 1-labeled path from the root by hand
    g = ella_xpg
    j = g.root
    hops = 0
    while isinstance(g.nodes[j], XpgNonTerminal):
        (nxt,) = [dst for src, dst, label in g.edges if src == j and label == 1]
        j = nxt
        hops += 1
        assert hops <= len(g.nodes)
    assert g.nodes[j].label == 1


# ----------------------------------------------------------------- sigma

def test_sigma_all_ones(ella_xpg):
    assert F.evaluate_sigma(ella_xpg, [1, 1, 1, 1]) is True


def test_sigma_all_zeros(ella_xpg):
    assert F.evaluate_sigma(ella_xpg, [0, 0, 0, 0]) is False


def test_sigma_fixing_p_and_m(ella_xpg):
    assert F.evaluate_sigma(ella_xpg, [1, 0, 1, 0]) is True


def test_sigma_length_mismatch(ella_xpg):
    with pytest.raises(ClassifierError, match="selector vector"):
        F.evaluate_sigma(ella_xpg, [1, 0, 1])


def test_sigma_means_prediction_unchanged(ella_obdd, ella_instance):
    # sigma(s) == 1 iff every point agreeing with Ella on the fixed
    # features is still rejected
    g = F.build_xpg_from_obdd(ella_obdd, ella_instance)
    m = 4
    for bits in product((0, 1), repeat=m):
        fixed = [i + 1 for i in range(m) if bits[i]]
        expected = all(
            kappa(p) == ella_instance.label
            for p in product((0, 1), repeat=m)
            if all(p[i - 1] == ella_instance.values[i - 1] for i in fixed)
        )
        assert F.evaluate_sigma(g, bits) == expected


def test_sigma_is_monotone_on_random_graphs():
    import numpy as np

    rng = np.random.default_rng(11)
    for trial in range(10):
        m = int(rng.integers(3, 7))
        obdd = generate_random_obdd(m, 14, seed=300 + trial)
        clf = F.ObddClassifier(obdd)
        values = tuple(int(v) for v in rng.integers(0, 2, m))
        inst = F.Instance(values, obdd.predict(values))
        g = F.build_xpg_from_obdd(obdd, inst)
        for bits in product((0, 1), repeat=m):
            if not F.evaluate_sigma(g, bits):
                continue
            for i in range(m):
                if not bits[i]:
                    raised = list(bits)
                    raised[i] = 1
                    assert F.evaluate_sigma(g, raised)


def test_sigma_semantics_on_random_graphs():
    # sigma(s) == "every point agreeing on the fixed features keeps the
    # class", exhaustively over points and selector vectors
    import numpy as np

    rng = np.random.default_rng(17)
    for trial in range(8):
        m = int(rng.integers(3, 8))
        obdd = generate_random_obdd(m, 16, seed=350 + trial)
        values = tuple(int(v) for v in rng.integers(0, 2, m))
        inst = F.Instance(values, obdd.predict(values))
        g = F.build_xpg_from_obdd(obdd, inst)
        for bits in product((0, 1), repeat=m):
            fixed = [i + 1 for i in range(m) if bits[i]]
            expected = all(
                obdd.predict(p) == inst.label
                for p in product((0, 1), repeat=m)
                if all(p[i - 1] == values[i - 1] for i in fixed)
            )
            assert F.evaluate_sigma(g, bits) == expected


# ------------------------------------------------------------------- DTs

def _depth_one_dt():
    from fmpsat.xpg import DecisionTree, DtInternal, DtLeaf

    nodes = [DtInternal(1), DtLeaf(0), DtLeaf(1)]
    edges = [(0, 1, frozenset({0})), (0, 2, frozenset({1}))]
    return DecisionTree(nodes, edges, 0, {1: (0, 1)})


def test_depth_one_dt_xpg():
    dt = _depth_one_dt()
    inst = F.Instance((0,), 0)
    g = F.build_xpg_from_dt(dt, inst)
    # fixing the single feature keeps the class, freeing it does not
    assert F.evaluate_sigma(g, [1]) is True
    assert F.evaluate_sigma(g, [0]) is False


def test_dt_matching_obdd_sigma(ella_obdd, ella_instance):
    # a tree realizing kappa agrees with the OBDD-derived graph on every
    # selector vector
    dt = _kappa_tree()
    assert all(
        dt.predict(p) == kappa(p) for p in product((0, 1), repeat=4)
    )
    g_dt = F.build_xpg_from_dt(dt, ella_instance)
    g_ob = F.build_xpg_from_obdd(ella_obdd, ella_instance)
    for bits in product((0, 1), repeat=4):
        assert F.evaluate_sigma(g_dt, bits) == F.evaluate_sigma(g_ob, bits)


def _kappa_tree():
    # expand kappa as a tree over P, then Y / M, then W
    from fmpsat.xpg import DecisionTree, DtInternal, DtLeaf

    nodes = [
        DtInternal(1),  # 0: P
        DtInternal(3),  # 1: M      (P=0)
        DtInternal(2),  # 2: Y      (P=1)
        DtInternal(4),  # 3: W      (P=0, M=1)
        DtLeaf(0),      # 4
        DtInternal(4),  # 5: W      (P=1, Y=0)
        DtLeaf(1),      # 6
        DtLeaf(0),      # 7
        DtLeaf(1),      # 8
        DtLeaf(0),      # 9
        DtLeaf(1),      # 10
    ]
    edges = [
        (0, 1, frozenset({0})),
        (0, 2, frozenset({1})),
        (1, 4, frozenset({0})),
        (1, 3, frozenset({1})),
        (3, 7, frozenset({0})),
        (3, 8, frozenset({1})),
        (2, 5, frozenset({0})),
        (2, 6, frozenset({1})),
        (5, 9, frozenset({0})),
        (5, 10, frozenset({1})),
    ]
    domains = {i: (0, 1) for i in range(1, 5)}
    return DecisionTree(nodes, edges, 0, domains)


def test_ternary_domain_dt():
    from fmpsat.xpg import DecisionTree, DtInternal, DtLeaf

    nodes = [DtInternal(1), DtInternal(2), DtLeaf(0), DtLeaf(1), DtLeaf(1)]
    edges = [
        (0, 1, frozenset({0, 2})),
        (0, 3, frozenset({1})),
        (1, 2, frozenset({0})),
        (1, 4, frozenset({1, 2})),
    ]
    dt = DecisionTree(nodes, edges, 0, {1: (0, 1, 2), 2: (0, 1, 2)})
    inst = F.Instance((0, 0), dt.predict((0, 0)))
    g = F.build_xpg_from_dt(dt, inst)
    assert F.evaluate_sigma(g, [1, 1]) is True


def test_dt_value_sets_must_partition():
    from fmpsat.xpg import DecisionTree, DtInternal, DtLeaf

    nodes = [DtInternal(1), DtLeaf(0), DtLeaf(1)]
    edges = [(0, 1, frozenset({0})), (0, 2, frozenset({0, 1}))]
    with pytest.raises(ClassifierError, match="overlap"):
        DecisionTree(nodes, edges, 0, {1: (0, 1)})


# --------------------------------------------------------- file formats

def test_xpg_round_trip(ella_xpg):
    text = F.serialize_xpg(ella_xpg)
    parsed = F.parse_xpg(text)
    assert F.serialize_xpg(parsed) == text
    assert F.evaluate_sigma(parsed, [1, 1, 1, 1]) is True


def test_xpg_fixture_file(ella_xpg):
    text = (DATA / "ella.xpg").read_text()
    assert F.serialize_xpg(ella_xpg) == text


def test_xpg_multiple_roots_error():
    text = "xpg 1 4\nN 0 1\nN 1 1\nT 2 1\nT 3 0\nE 0 2 1\nE 1 3 0\nE 0 3 0\nE 1 2 1\n"
    with pytest.raises(ParseError, match="multiple roots"):
        F.parse_xpg(text)
    # a graph built directly says which of the two faults it has
    nodes = [XpgNonTerminal(1), XpgNonTerminal(1)]
    with pytest.raises(ClassifierError, match=r"^multiple roots: nodes \[0, 1\]"):
        F.XpGraph(nodes, [], 0, 1)
    with pytest.raises(ClassifierError,
                       match="^XpG has no root: every node has an incoming edge$"):
        F.XpGraph(nodes, [(0, 1, 1), (1, 0, 1)], 0, 1)


def test_xpg_two_one_edges_error():
    text = "xpg 1 3\nN 0 1\nT 1 1\nT 2 0\nE 0 1 1\nE 0 2 1\n"
    with pytest.raises(ClassifierError, match="two 1-labeled"):
        F.parse_xpg(text)


def test_xpg_no_reachable_one_terminal():
    text = "xpg 1 3\nN 0 1\nT 1 0\nT 2 0\nE 0 1 1\nE 0 2 0\n"
    with pytest.raises(ClassifierError, match="no reachable 1-terminal"):
        F.parse_xpg(text)


def test_obdd_round_trip(ella_obdd):
    text = F.serialize_obdd(ella_obdd)
    parsed = F.parse_obdd(text)
    for point in product((0, 1), repeat=4):
        assert parsed.predict(point) == ella_obdd.predict(point)
    assert F.serialize_obdd(parsed) == text


def test_obdd_repeated_variable_rejected():
    text = "obdd 2 4\nT 0 0\nT 1 1\nN 2 1 0 1\nN 3 1 2 1\n"
    with pytest.raises(ClassifierError, match="repeats"):
        F.parse_obdd(text)


def test_obdd_repeat_several_levels_below_names_the_upper_node():
    # node 5 tests feature 1, and so does node 2 three levels beneath it
    # (5 -> 4 -> 3 -> 2); the root, node 6, tests feature 4 above both
    text = ("obdd 4 7\nT 0 0\nT 1 1\nN 2 1 0 1\nN 3 3 2 1\nN 4 2 3 0\n"
            "N 5 1 4 1\nN 6 4 5 1\n")
    with pytest.raises(ClassifierError,
                       match="^feature 1 repeats on a path through OBDD node 5$"):
        F.parse_obdd(text)


def test_dt_file_round_trip_semantics(tmp_path):
    dt = _kappa_tree()
    text_lines = ["dt 4"]
    for i in range(1, 5):
        text_lines.append("DOM %d 2 0 1" % i)
    for j, node in enumerate(dt.nodes):
        from fmpsat.xpg import DtInternal

        if isinstance(node, DtInternal):
            text_lines.append(f"N {j} {node.var}")
        else:
            text_lines.append(f"T {j} {node.label}")
    for src, dst, values in dt.edges:
        text_lines.append(f"E {src} {dst} " + " ".join(str(v) for v in sorted(values)))
    parsed = F.parse_dt("\n".join(text_lines) + "\n")
    for point in product((0, 1), repeat=4):
        assert parsed.predict(point) == dt.predict(point)
