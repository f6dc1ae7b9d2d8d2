import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from clpbn.errors import NetworkCycleError
from clpbn.network import ConstraintNetwork, Node, normalize_columns
from clpbn.parser import parse_term, term_to_text
from clpbn.engine import Engine
from clpbn.program import parse_program
from clpbn.terms import Atom, Struct, Subst, Var, unify
from netgen import add_node

H, L = Atom("h"), Atom("l")


def _net():
    return ConstraintNetwork(skolem_functors=[("s", 1), ("t", 1)])


def _chain():
    """s(a) -> t(b): child table depends on the parent."""
    net = _net()
    a = add_node(net, parse_term("s(a)"), [H, L], [0.7, 0.3])
    b = add_node(
        net, parse_term("t(b)"), [H, L], [0.9, 0.2, 0.1, 0.8], parents=[a]
    )
    return net, a, b


def test_add_node_assigns_ids():
    net, a, b = _chain()
    assert (a, b) == (0, 1)
    assert net.node_ids() == [0, 1]
    assert net.nodes[b].parents == (a,)


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
    assert net2.nodes[a].domain[net2.nodes[a].evidence] == H
    assert net.nodes[a].evidence is None  # original untouched
    assert net.set_evidence(a, Atom("nope")) is None


def test_find_by_label():
    net, a, b = _chain()
    assert net.find_by_label(parse_term("s(a)")) == a
    assert net.find_by_label(parse_term("s(zzz)")) is None


def test_topological_order_ties_by_id():
    net = _net()
    a = add_node(net, parse_term("s(a)"), [H, L], [0.5, 0.5])
    b = add_node(net, parse_term("s(b)"), [H, L], [0.5, 0.5])
    c = add_node(
        net, parse_term("s(c)"), [H, L], [0.5, 0.5, 0.5, 0.5], parents=[b]
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
    prev = add_node(net, Struct("s", (0,)), [H, L], [0.5, 0.5])
    for i in range(1, 1200):
        prev = add_node(
            net, Struct("s", (i,)), [H, L], [0.7, 0.2, 0.3, 0.8], parents=[prev]
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


# Two nodes whose labels hold a variable at posting time; A = B then routes
# the binding of two constrained variables through the engine's node merge.
MERGE_PROGRAM = """
s_node(V, K) :- {V = s(K) with p([h,l],[0.7,0.3],[])}.
t_node(V, K) :- {V = t(K) with p([h,l],[0.7,0.3],[])}.
"""


def test_merge_same_label_nodes():
    engine = Engine(parse_program(MERGE_PROGRAM))
    query = "s_node(A, X), s_node(B, Y), X = a, Y = a, A = B."
    answers = list(engine.solve_text(query))
    assert len(answers) == 1
    net = answers[0].network
    assert len(net) == 1
    assert answers[0].query_nodes["A"] == answers[0].query_nodes["B"]
    assert term_to_text(net.nodes[answers[0].query_nodes["A"]].label) == "s(a)"


def test_merge_conflicting_labels_fails():
    engine = Engine(parse_program(MERGE_PROGRAM))
    assert list(engine.solve_text("s_node(A, X), t_node(B, Y), A = B.")) == []
    assert list(engine.solve_text("s_node(A, a), s_node(B, b), A = B.")) == []


def test_restrict_node_domain_conditions_children():
    net, a, b = _chain()
    out = net.copy()
    assert out._restrict(a, [0])  # keep h only
    pa = out.nodes[a]
    assert pa.domain == (H,)
    assert pa.table == (1.0,)
    child = out.nodes[b]
    # child lost the parent=l column
    assert child.table == (0.9, 0.1)
    assert net.nodes[a].domain == (H, L)  # the copy was changed, not net
    assert not net.copy()._restrict(a, [])


def test_apply_substitution_specializes_labels():
    net = _net()
    x = Var(105, "X")
    label = Struct("s", (x,))
    a = add_node(net, label, [H, L], [0.6, 0.4])
    s = Subst()
    assert unify(x, Atom("a"), s)
    out = net.apply_substitution(s)
    assert term_to_text(out.nodes[a].label) == "s(a)"
    assert net.nodes[a].label is label  # original untouched


def test_json_roundtrip():
    net, a, b = _chain()
    net = net.set_evidence(a, L)
    doc = net.to_json()
    assert json.loads(json.dumps(doc)) == doc
    assert doc == {
        "nodes": [
            {"id": a, "label": "s(a)", "domain": ["h", "l"], "parents": [],
             "table": [0.7, 0.3], "evidence": "l"},
            {"id": b, "label": "t(b)", "domain": ["h", "l"], "parents": [a],
             "table": [0.9, 0.2, 0.1, 0.8], "evidence": None},
        ]
    }


# --- the label index and the undo trail ------------------------------------------

_LABEL_ARGS = [Atom("a"), Atom("b"), 1, 1.0, Var(201, "X"), Var(202, "Y"), Var(203, "Z")]
_BOUND_TO = [Atom("a"), Atom("b"), 1, 1.0, Var(202, "Y")]


def _label(rng):
    if rng.random() < 0.3:
        return Struct("t", (rng.choice(_LABEL_ARGS), rng.choice(_LABEL_ARGS)))
    return Struct("s", (rng.choice(_LABEL_ARGS),))


def _ground_labels():
    ground = [x for x in _LABEL_ARGS if not isinstance(x, Var)]
    return [Struct("s", (x,)) for x in ground] + [
        Struct("t", (x, y)) for x in ground for y in ground
    ]


def _index_from_scratch(net):
    """The label index rebuilt from the nodes: (ground keys -> ids, open ids)."""
    from clpbn.terms import ground_key

    by_label, open_ids = {}, set()
    for nid in sorted(net.nodes):
        key = ground_key(net.nodes[nid].label)
        if key is None:
            open_ids.add(nid)
        else:
            by_label[key] = by_label.get(key, ()) + (nid,)
    return by_label, open_ids


def _live_store():
    s = Subst()
    net = _net()
    net.trail = s.trail
    return s, net


def test_find_by_label_matches_linear_scan_across_backtracking():
    import random

    from oracles import find_by_label_scan

    rng = random.Random(11)
    queries = _ground_labels() + [Struct("s", (Var(201, "X"),))]
    for _ in range(200):
        s, net = _live_store()
        marks = []
        for step in range(rng.randint(1, 14)):
            roll = rng.random()
            if roll < 0.45:
                free = [i for i in range(100, 130) if i not in net.nodes]
                label = _label(rng)
                net._put(Node(rng.choice(free), label, (H, L), (0.5, 0.5), ()))
            elif roll < 0.7:
                # a later binding can make a stored label ground
                v = rng.choice([x for x in _LABEL_ARGS if isinstance(x, Var)])
                unify(v, rng.choice(_BOUND_TO), s)
            elif roll < 0.85:
                marks.append(s.mark())
            elif marks:
                s.undo(marks.pop())
            for label in queries:
                for subst in (s, None):
                    want = find_by_label_scan(net, label, subst)
                    assert net.find_by_label(label, subst) == want, (label, subst)
            by_label, open_ids = _index_from_scratch(net)
            assert net._by_label == by_label and set(net._open) == open_ids


def _spec(rng, parents):
    from clpbn.program import CptSpec, Domain

    domain = Domain([H, L, Atom("m")][: rng.choice([2, 3])])
    cols = math.prod(parents)
    return CptSpec(domain, (1.0 / len(domain),) * (len(domain) * cols), ())


def _run_ops(ops, s, net, ids, pool):
    """Apply post, evidence, restrict, merge and bind operations in place;
    a failed operation leaves what it changed for the trail to undo."""
    import random

    from clpbn.errors import ClpbnError
    from clpbn.program import CptSpec

    for code, seed in ops:
        rng = random.Random(seed)
        nids = sorted(net.nodes)
        try:
            if code == 0 or not nids:
                v = ids.new("V")
                pool.append(v)
                spec = _spec(rng, [])
                if nids and rng.random() < 0.4:
                    parent = rng.choice([p for p in pool if p.id in net.binding] or [None])
                    if parent is not None:
                        psize = net.nodes[net.binding[parent.id]].cardinality
                        base = _spec(rng, [psize])
                        spec = CptSpec(base.domain, base.table, (parent,))
                net.post_constraint(v, _label(rng), spec, s, ids)
            elif code == 1:
                nid = rng.choice(nids)
                net._set_evidence(nid, rng.choice([H, L, Atom("m")]))
            elif code == 2:
                nid = rng.choice(nids)
                card = net.nodes[nid].cardinality
                net._restrict(nid, sorted(rng.sample(range(card), rng.randint(1, card))))
            elif code == 3 and len(nids) > 1:
                n1, n2 = rng.sample(nids, 2)
                net._merge_nodes(n1, n2, s)
            else:
                v = rng.choice([x for x in _LABEL_ARGS if isinstance(x, Var)])
                unify(v, rng.choice(_BOUND_TO), s)
        except ClpbnError:
            pass


_ops = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10**6)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(_ops, _ops)
def test_undo_to_a_mark_restores_store_and_bindings(before, after):
    from clpbn.terms import FreshVars

    s, net = _live_store()
    ids, pool = FreshVars(300), []
    _run_ops(before, s, net, ids, pool)
    def stores():
        return net.nodes, net.binding, net._by_label, net._open, s._m

    snapshot = [dict(d) for d in stores()]
    mark = s.mark()
    _run_ops(after, s, net, ids, pool)
    s.undo(mark)
    assert len(s.trail) == mark
    for old, now in zip(snapshot, stores()):
        # the very same objects come back, not just equal ones
        assert old.keys() == now.keys()
        assert all(now[k] is v for k, v in old.items())
    by_label, open_ids = _index_from_scratch(net)
    assert net._by_label == by_label and set(net._open) == open_ids


def test_value_position_keeps_int_and_float_apart():
    from clpbn.program import Domain, value_position

    for values in ([1, 1.0], [1, 1.0] + [Atom(f"v{i}") for i in range(20)]):
        for domain in (tuple(values), Domain(values)):
            assert value_position(domain, 1) == 0
            assert value_position(domain, 1.0) == 1
            assert value_position(domain, 2) is None
            assert value_position(domain, Var(9, "X")) is None
    wide = Domain(Struct("c", (i,)) for i in range(50))
    assert value_position(wide, Struct("c", (49,))) == 49
    assert value_position(wide, Struct("c", (49.0,))) is None
