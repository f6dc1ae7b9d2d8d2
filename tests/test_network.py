import json

import pytest

from clpbn.errors import MalformedCptError, NetworkCycleError
from clpbn.network import ConstraintNetwork, normalize_columns
from clpbn.parser import parse_term, term_to_text
from clpbn.terms import EMPTY_SUBST, Atom, Struct, Var, unify

H, L = Atom("h"), Atom("l")


def _net():
    return ConstraintNetwork(skolem_functors=[("s", 1), ("t", 1)])


def _chain():
    """s(a) -> t(b): child table depends on the parent."""
    net = _net()
    net, a = net.add_node(parse_term("s(a)"), [H, L], [0.7, 0.3])
    net, b = net.add_node(
        parse_term("t(b)"), [H, L], [0.9, 0.2, 0.1, 0.8], parents=[a]
    )
    return net, a, b


def test_add_node_assigns_ids():
    net, a, b = _chain()
    assert (a, b) == (0, 1)
    assert net.node_ids() == [0, 1]
    assert net.nodes[b].parents == (a,)


def test_add_node_rejects_bad_shapes():
    net = _net()
    with pytest.raises(MalformedCptError):
        net.add_node(parse_term("s(a)"), [H, L], [0.5, 0.5, 0.5])
    with pytest.raises(MalformedCptError):
        net.add_node(parse_term("s(a)"), [H, L], [0.5, 0.5], parents=[4])
    net, a = net.add_node(parse_term("s(a)"), [H, L], [0.5, 0.5])
    with pytest.raises(MalformedCptError):
        net.add_node(parse_term("t(b)"), [H, L], [0.5, 0.5], parents=[a, a])
    with pytest.raises(MalformedCptError):
        net.add_node(parse_term("t(b)"), [H, L], [0.5, 0.5], evidence=Atom("x"))


def test_add_node_is_copy_on_write():
    net0 = _net()
    net1, _ = net0.add_node(parse_term("s(a)"), [H, L], [0.5, 0.5])
    assert len(net0) == 0 and len(net1) == 1


def test_normalize_columns():
    assert normalize_columns([0.2, 0.2], 2) == [0.5, 0.5]
    assert normalize_columns([1.0, 0.0], 2) == [1.0, 0.0]
    assert normalize_columns([0.0, 0.0], 2) is None
    # two columns, d=2, layout row-major: col0=(2,2), col1=(1,3)
    out = normalize_columns([2.0, 1.0, 2.0, 3.0], 2)
    assert out == [0.5, 0.25, 0.5, 0.75]


def test_set_evidence():
    net, a, b = _chain()
    net2 = net.set_evidence(a, H)
    assert net2 is not None
    assert net2.nodes[a].evidence_value() == H
    assert net.nodes[a].evidence is None  # original untouched
    assert net.set_evidence(a, Atom("nope")) is None


def test_find_by_label():
    net, a, b = _chain()
    assert net.find_by_label(parse_term("s(a)")) == a
    assert net.find_by_label(parse_term("s(zzz)")) is None


def test_topological_order_ties_by_id():
    net = _net()
    net, a = net.add_node(parse_term("s(a)"), [H, L], [0.5, 0.5])
    net, b = net.add_node(parse_term("s(b)"), [H, L], [0.5, 0.5])
    net, c = net.add_node(
        parse_term("s(c)"), [H, L], [0.5, 0.5, 0.5, 0.5], parents=[b]
    )
    assert net.topological_order() == [a, b, c]


def test_cycle_detection_and_order_error():
    from dataclasses import replace

    net, a, b = _chain()
    # force a cycle directly (the construction API would reject it)
    net = net.copy()
    net.nodes[a] = replace(
        net.nodes[a], parents=(b,), table=(0.5, 0.5, 0.5, 0.5)
    )
    ok, cycle = net.check_acyclic()
    assert not ok and len(cycle) >= 2
    with pytest.raises(NetworkCycleError):
        net.topological_order()


def test_long_chain_acyclic_and_order():
    # 1,200 links: deeper than Python's default recursion limit
    net = _net()
    net, prev = net.add_node(Struct("s", (0,)), [H, L], [0.5, 0.5])
    for i in range(1, 1200):
        net, prev = net.add_node(
            Struct("s", (i,)), [H, L], [0.7, 0.2, 0.3, 0.8], parents=[prev]
        )
    assert net.check_acyclic() == (True, [])
    assert net.topological_order() == list(range(1200))
    from dataclasses import replace

    net.nodes[0] = replace(net.nodes[0], parents=(prev,), table=(0.5,) * 4)
    assert net.check_acyclic() == (False, list(range(1200)) + [0])
    with pytest.raises(NetworkCycleError):
        net.topological_order()


def test_cycle_search_and_order_match_reference_on_random_graphs():
    import random

    from clpbn.network import Node
    from oracles import check_acyclic_recursive, topological_order_rescan

    rng = random.Random(5)
    cyclic = 0
    for _ in range(600):
        ids = rng.sample(range(30), rng.randint(0, 10))
        net = _net()
        # insertion order differs from id order; parents may repeat, point
        # at the node itself, or name a node that does not exist
        for nid in rng.sample(ids, len(ids)):
            pool = ids + [99]
            parents = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            net.nodes[nid] = Node(nid, Atom(f"n{nid}"), (H,), (1.0,), parents)
        expected = check_acyclic_recursive(net)
        assert net.check_acyclic() == expected
        cyclic += not expected[0]
        order = topological_order_rescan(net)
        if order is None:
            with pytest.raises(NetworkCycleError):
                net.topological_order()
        else:
            assert net.topological_order() == order
    assert 100 < cyclic < 500


def test_merge_same_label_nodes():
    net = _net()
    v1, v2 = Var(101, "A"), Var(102, "B")
    s = EMPTY_SUBST
    net, a = net.add_node(parse_term("s(a)"), [H, L], [0.7, 0.3])
    net.binding[v1.id] = a
    net, b = net.add_node(parse_term("s(a)"), [H, L], [0.7, 0.3])
    net.binding[v2.id] = b
    out = net.unify_constrained(v1, v2, s)
    assert out is not None
    merged, _s2, _trail, survivor = out
    assert len(merged) == 1
    assert survivor in (a, b)


def test_merge_conflicting_labels_fails():
    net = _net()
    v1, v2 = Var(103, "A"), Var(104, "B")
    net, a = net.add_node(parse_term("s(a)"), [H, L], [0.7, 0.3])
    net.binding[v1.id] = a
    net, b = net.add_node(parse_term("t(b)"), [H, L], [0.7, 0.3])
    net.binding[v2.id] = b
    assert net.unify_constrained(v1, v2, EMPTY_SUBST) is None


def test_restrict_node_domain_conditions_children():
    net, a, b = _chain()
    out = net.restrict_node_domain(a, [0])  # keep h only
    assert out is not None
    pa = out.nodes[a]
    assert pa.domain == (H,)
    assert pa.table == (1.0,)
    child = out.nodes[b]
    # child lost the parent=l column
    assert child.table == (0.9, 0.1)
    assert net.restrict_node_domain(a, []) is None


def test_apply_substitution_specializes_labels():
    net = _net()
    x = Var(105, "X")
    label = Struct("s", (x,))
    net, a = net.add_node(label, [H, L], [0.6, 0.4])
    s = unify(x, Atom("a"))
    out = net.apply_substitution(s)
    assert out is not None
    assert term_to_text(out.nodes[a].label) == "s(a)"


def test_json_roundtrip():
    net, a, b = _chain()
    net = net.set_evidence(a, L)
    doc = net.to_json()
    text = json.dumps(doc, sort_keys=True)
    back = ConstraintNetwork.from_json(json.loads(text))
    assert back.node_ids() == net.node_ids()
    for nid in net.node_ids():
        n1, n2 = net.nodes[nid], back.nodes[nid]
        assert term_to_text(n1.label) == term_to_text(n2.label)
        assert n1.table == n2.table
        assert n1.parents == n2.parents
        assert n1.evidence == n2.evidence
    assert json.dumps(back.to_json(), sort_keys=True) == text
