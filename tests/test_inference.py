import functools

import numpy as np
import pytest

from clpbn import inference
from clpbn.engine import Engine
from clpbn.errors import GroundingError, InconsistentEvidenceError, InferenceError
from clpbn.fixtures import SCHOOL_DRIVERS, fixture_text
from clpbn.network import ConstraintNetwork
from clpbn.parser import parse_term, term_to_text
from clpbn.program import parse_program
from clpbn.terms import Atom, Struct, Subst
from netgen import add_node, random_net
from oracles import (
    JointSizeError,
    enumerate_joint,
    expand_product,
    joint_marginal,
    min_degree_order_rescan,
    run_elimination_scan,
    uncached_factor,
)

TOL = 1e-9


def _query_marginal(program, query, var):
    ans = next(Engine(program).solve_text(query))
    return inference.marginal(ans.network, ans.query_nodes[var])


# --- anchors ---------------------------------------------------------------------


def test_school_grade_prior(school):
    m = _query_marginal(school, "grade(r2, G).", "G")
    assert m.probs == pytest.approx((0.415, 0.31, 0.275), abs=TOL)


def test_school_intelligence_given_grade(school):
    m = _query_marginal(school, "grade(r2, a), intelligence(ann, I).", "I")
    assert m.probs[0] == pytest.approx(0.6746987951807228, abs=TOL)


def test_hmm_caught_zero(hmm):
    m = _query_marginal(hmm, "caught(0, C).", "C")
    assert m.probs == pytest.approx((0.0, 1.0), abs=TOL)


def test_hmm_fixed_caught_one(hmm_fixed):
    m = _query_marginal(hmm_fixed, "caught(1, C).", "C")
    assert m.probs == pytest.approx((0.0255, 0.9745), abs=TOL)


def test_hmm_fixed_watch_posterior(hmm_fixed):
    m = _query_marginal(hmm_fixed, "caught(1, t), watch(1, W).", "W")
    assert m.probs[0] == pytest.approx(0.025 / 0.0255, abs=TOL)


# --- variable elimination internals -----------------------------------------------


def _school_net(school):
    return inference.ground_program(school, drivers=SCHOOL_DRIVERS)


def test_ve_matches_joint_on_school(school):
    net = _school_net(school)
    joint = enumerate_joint(net)
    for nid in net.node_ids():
        ve = inference.marginal(net, nid)
        je = joint_marginal(joint, net, nid)
        assert ve.probs == pytest.approx(je.probs, abs=TOL)


def _marginal_in_order(net, target, order):
    """The normalized marginal of target, eliminating the other nodes in order."""
    result = run_elimination_scan(inference._clamped_factors(net), order)
    assert result.vars == (target,)
    return tuple(result.values / result.values.sum())


def test_elimination_order_does_not_change_marginals(school):
    net = _school_net(school)
    rng = np.random.default_rng(5)
    for nid in net.node_ids():
        order = [int(n) for n in rng.permutation(net.node_ids()) if n != nid]
        want = inference.marginal(net, nid).probs
        assert _marginal_in_order(net, nid, order) == pytest.approx(want, abs=TOL)


def test_explicit_elimination_order(school):
    net = _school_net(school)
    target = net.node_ids()[0]
    order = [n for n in reversed(net.node_ids()) if n != target]
    want = inference.marginal(net, target).probs
    assert _marginal_in_order(net, target, order) == pytest.approx(want, abs=TOL)


def test_marginal_accepts_label_and_text(school):
    net = _school_net(school)
    by_text = inference.marginal(net, "i(ann)")
    by_term = inference.marginal(net, parse_term("i(ann)"))
    assert by_text.probs == by_term.probs
    assert term_to_text(by_text.label) == "i(ann)"


def test_evidence_target_is_point_mass(school):
    net = _school_net(school)
    nid = net.find_by_label(parse_term("i(ann)"))
    net = net.set_evidence(nid, parse_term("h"))
    m = inference.marginal(net, nid)
    assert m.probs == (1.0, 0.0)


def test_inconsistent_evidence_raises():
    net = ConstraintNetwork(skolem_functors=[("x", 1)])
    a = add_node(net, parse_term("x(1)"), [parse_term("t"), parse_term("f")], [1.0, 0.0])
    net = net.set_evidence(a, parse_term("f"))  # P(f) = 0
    with pytest.raises(InconsistentEvidenceError):
        inference.marginal(net, a)
    with pytest.raises(InconsistentEvidenceError):
        enumerate_joint(net)


def test_joint_size_guard():
    net = ConstraintNetwork(skolem_functors=[("x", 1)])
    for i in range(25):
        add_node(
            net, parse_term(f"x({i})"), [parse_term("t"), parse_term("f")], [0.5, 0.5]
        )
    with pytest.raises(JointSizeError):
        enumerate_joint(net)


def test_random_nets_ve_vs_joint():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        net = random_net(rng)
        joint = enumerate_joint(net)
        for nid in net.node_ids():
            ve = inference.marginal(net, nid)
            je = joint_marginal(joint, net, nid)
            assert ve.probs == pytest.approx(je.probs, abs=TOL)


# --- elimination order -------------------------------------------------------------


def _eliminations(net):
    """The clamped factors, and every free set `marginal` and `all_marginals`
    eliminate: all free nodes, then all but each one."""
    factors = inference._clamped_factors(net)
    free = {nid for nid in net.nodes if net.nodes[nid].evidence is None}
    return factors, [free] + [free - {nid} for nid in sorted(free)]


def _assert_same_orders(net):
    factors, eliminations = _eliminations(net)
    for eliminate in eliminations:
        order, _, _ = inference._eliminate(factors, eliminate)
        assert order == min_degree_order_rescan(factors, eliminate)


def test_min_degree_order_matches_rescan_on_random_nets():
    rng = np.random.default_rng(77)
    for _ in range(200):
        _assert_same_orders(random_net(rng))


def test_min_degree_order_matches_rescan_on_school(school):
    _assert_same_orders(_school_net(school))


def test_min_degree_order_matches_rescan_on_hmm_answer(hmm_fixed):
    ans = next(Engine(hmm_fixed).solve_text("caught(30, C)."))
    assert len(ans.network) > 60
    _assert_same_orders(ans.network)


def _assert_same_elimination(net):
    factors, eliminations = _eliminations(net)
    for eliminate in eliminations:
        order, buckets, leftovers = inference._eliminate(factors, eliminate)
        assert len(buckets) == len(order)
        fast = functools.reduce(inference._factor_product, leftovers)
        slow = run_elimination_scan(factors, order)
        assert fast.vars == slow.vars
        assert np.array_equal(fast.values, slow.values)


def test_elimination_matches_scan_on_random_nets():
    rng = np.random.default_rng(78)
    for _ in range(100):
        _assert_same_elimination(random_net(rng))


def test_elimination_matches_scan_on_school_and_hmm(school, hmm_fixed):
    _assert_same_elimination(_school_net(school))
    ans = next(Engine(hmm_fixed).solve_text("caught(12, C), watch(5, m)."))
    _assert_same_elimination(ans.network)


# --- all marginals in one sweep ---------------------------------------------------


def _observe_forward_sample(net, rng, k):
    """Observe k random nodes at the values of one forward sample, so the
    evidence has positive probability even where tables hold zeros."""
    order, rows = inference.sample(net, 1, seed=int(rng.integers(2**32)))
    value = {nid: int(rows[0, j]) for j, nid in enumerate(order)}
    for nid in rng.choice(net.node_ids(), size=min(k, len(net)), replace=False):
        node = net.nodes[int(nid)]
        net = net.set_evidence(node.id, node.domain[value[node.id]])
    return net


def _assert_matches_per_node(net):
    got = inference.all_marginals(net)
    assert [m.node_id for m in got] == net.node_ids()
    for m in got:
        want = inference.marginal(net, m.node_id)
        assert m.label == want.label and m.domain == want.domain
        assert m.probs == pytest.approx(want.probs, abs=TOL)


def test_all_marginals_vs_joint_on_random_nets():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        net = random_net(rng, max_evidence=0)
        net = _observe_forward_sample(net, rng, int(rng.integers(0, 3)))
        joint = enumerate_joint(net)
        for m in inference.all_marginals(net):
            je = joint_marginal(joint, net, m.node_id)
            assert m.probs == pytest.approx(je.probs, abs=TOL)


@pytest.mark.parametrize("observed", [0, 1, 3])
def test_all_marginals_vs_per_node_on_school(school, observed):
    net = _observe_forward_sample(
        _school_net(school), np.random.default_rng(observed), observed
    )
    _assert_matches_per_node(net)


def _two_chains():
    t, f = parse_term("t"), parse_term("f")
    net = ConstraintNetwork(skolem_functors=[("x", 1), ("y", 1)])
    a = add_node(net, parse_term("x(1)"), [t, f], [0.3, 0.7])
    b = add_node(net, parse_term("x(2)"), [t, f], [0.9, 0.2, 0.1, 0.8], [a])
    c = add_node(net, parse_term("y(1)"), [t, f], [0.6, 0.4])
    d = add_node(net, parse_term("y(2)"), [t, f], [0.5, 0.0, 0.5, 1.0], [c])
    return net


def test_all_marginals_disconnected_components():
    net = _two_chains()
    _assert_matches_per_node(net)
    net = net.set_evidence(3, parse_term("t"))  # y(2)=t forces y(1)=t
    ms = inference.all_marginals(net)
    assert ms[2].probs == pytest.approx((1.0, 0.0), abs=TOL)
    assert ms[3].probs == (1.0, 0.0)
    _assert_matches_per_node(net)


def test_all_marginals_all_evidence():
    net = _two_chains()
    for nid, value in [(0, "t"), (1, "f"), (2, "f"), (3, "f")]:
        net = net.set_evidence(nid, parse_term(value))
    ms = inference.all_marginals(net)
    assert [m.probs for m in ms] == [(1.0, 0.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


def test_all_marginals_empty_network():
    assert inference.all_marginals(ConstraintNetwork()) == []


def test_all_marginals_zero_probability_evidence():
    net = _two_chains()
    net = net.set_evidence(2, parse_term("f"))
    net = net.set_evidence(3, parse_term("t"))  # P(y(2)=t | y(1)=f) = 0
    with pytest.raises(InconsistentEvidenceError):
        inference.all_marginals(net)
    for nid in net.node_ids():
        with pytest.raises(InconsistentEvidenceError):
            inference.marginal(net, nid)


def _observed_coins(n: int, pairs: bool = False) -> ConstraintNetwork:
    """n fair coins x(i), every one but x(0) observed t; with pairs, each
    x(i) instead has a free parent y(i), and the scalars come from
    eliminating the y(i)."""
    t, f = parse_term("t"), parse_term("f")
    net = ConstraintNetwork(skolem_functors=[("x", 1), ("y", 1)])
    for i in range(n):
        parents = []
        if pairs:
            y = add_node(net, parse_term(f"y({i})"), [t, f], [0.5, 0.5])
            parents = [y]
        table = [0.5, 0.5, 0.5, 0.5] if pairs else [0.5, 0.5]
        x = add_node(net, parse_term(f"x({i})"), [t, f], table, parents)
        if i:
            net = net.set_evidence(x, t)
    return net


@pytest.mark.parametrize("pairs", [False, True])
def test_many_observations_do_not_underflow(pairs):
    # the evidence has probability 2**-1099, below the smallest float
    net = _observed_coins(1100, pairs)
    x0 = net.find_by_label(parse_term("x(0)"))
    assert inference.marginal(net, x0).probs == (0.5, 0.5)
    ms = inference.all_marginals(net)
    assert {m.probs for m in ms} == {(0.5, 0.5), (1.0, 0.0)}
    assert ms[x0].probs == (0.5, 0.5)
    assert inference.marginal(net, x0 + 2).probs == (1.0, 0.0)


def test_all_marginals_zero_mass_column():
    t, f = parse_term("t"), parse_term("f")
    net = ConstraintNetwork(skolem_functors=[("x", 1)])
    a = add_node(net, parse_term("x(1)"), [t, f], [0.5, 0.5])
    add_node(net, parse_term("x(2)"), [t, f], [0.4, 0.0, 0.6, 0.0], [a])
    with pytest.raises(InferenceError, match="zero-mass"):
        inference.all_marginals(net)


def test_all_marginals_orders_once(school, monkeypatch):
    net = _school_net(school)
    calls = []
    original = inference._eliminate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(inference, "_eliminate", counting)
    inference.all_marginals(net)
    assert len(calls) == 1
    inference.all_marginals(_observe_forward_sample(net, np.random.default_rng(5), 2))
    assert len(calls) == 2
    inference.marginal(net, net.node_ids()[0])
    assert len(calls) == 3


# --- cached factors and the product oracle -------------------------------------

SCHOOL_EXTRA = [
    "professor(p3)", "course(c3, p3)", "student(cal)",
    "reg(r4, c2, ann)", "reg(r5, c3, cal)", "reg(r6, c3, bob)", "reg(r7, c1, cal)",
]


def _probs_bits(net) -> bytes:
    """The bytes of all_marginals and of every per-node marginal."""
    probs = [m.probs for m in inference.all_marginals(net)]
    probs += [inference.marginal(net, nid).probs for nid in net.node_ids()]
    return np.array([p for ps in probs for p in ps]).tobytes()


def _assert_bits_match_oracle(monkeypatch, nets):
    fast = [_probs_bits(net) for net in nets]
    with monkeypatch.context() as m:
        m.setattr(inference, "_factor_product", expand_product)
        m.setattr(inference, "_cpt_factor", uncached_factor)
        slow = [_probs_bits(net) for net in nets]
    assert fast == slow


def test_products_match_expand_oracle_bit_for_bit_on_random_nets(monkeypatch):
    # domains of 8 or more values make numpy's sums depend on memory layout
    rng = np.random.default_rng(91)
    nets = [random_net(rng) for _ in range(200)]
    nets += [random_net(rng, max_nodes=7, max_domain=11) for _ in range(40)]
    _assert_bits_match_oracle(monkeypatch, nets)


def test_products_match_expand_oracle_bit_for_bit_on_school(monkeypatch, school):
    pop = [parse_term(t) for t in SCHOOL_EXTRA]
    rng = np.random.default_rng(92)
    nets = []
    for base in (_school_net(school), inference.ground_program(school, pop, SCHOOL_DRIVERS)):
        for k in (0, 1, 1, 2, 2, 3, 3):
            nets.append(_observe_forward_sample(base, rng, k))
    assert [len(n) for n in nets[::7]] == [18, 32]
    _assert_bits_match_oracle(monkeypatch, nets)


def test_evidence_copies_reuse_the_base_factors(monkeypatch, school):
    net = _school_net(school)
    built = []
    original = inference.node_factor

    def counting(n, node):
        built.append(node.id)
        return original(n, node)

    monkeypatch.setattr(inference, "node_factor", counting)
    inference.all_marginals(net)
    assert sorted(built) == net.node_ids()
    rng = np.random.default_rng(93)
    for k in (1, 2, 3):
        built.clear()
        observed = _observe_forward_sample(net, rng, k)
        inference.all_marginals(observed)
        inference.marginal(observed, observed.node_ids()[-1])
        inference.sample(observed, 3, seed=k)
        # an observed node is a new object that keeps its node's factor
        replaced = [nid for nid in net.node_ids() if observed.nodes[nid] is not net.nodes[nid]]
        assert built == [] and len(replaced) == k
    # observing changed the copies' entries, not the base's
    built.clear()
    inference.all_marginals(net)
    assert built == []


def test_undoing_evidence_rebuilds_the_restored_nodes_factor(monkeypatch):
    net = _two_chains()
    s = Subst()
    net.trail = s.trail
    built = []
    original = inference.node_factor

    def counting(n, node):
        built.append(node.id)
        return original(n, node)

    monkeypatch.setattr(inference, "node_factor", counting)
    before = inference.all_marginals(net)
    mark = s.mark()
    assert net._set_evidence(1, parse_term("f"))
    built.clear()
    observed = inference.all_marginals(net)
    assert built == [] and observed[0].probs != before[0].probs
    s.undo(mark)  # the cache is not on the trail: node 1's entry misses
    assert inference.all_marginals(net) == before and built == [1]


def _twin_net(rng):
    """A random net, plus for some nodes a twin under the same label, with
    the same parents and table rows (sometimes one value fewer), that has a
    child of its own. Merging a twin into its node repoints that child and
    may restrict the node, and with it the node's children."""
    net = random_net(rng, max_evidence=0)
    twins = []
    for nid in rng.choice(net.node_ids(), size=min(2, len(net)), replace=False):
        node = net.nodes[int(nid)]
        d = node.cardinality - int(rng.integers(0, 2))
        cols = len(node.table) // node.cardinality
        twin = add_node(net, node.label, node.domain[:d], node.table[: d * cols], node.parents)
        table = rng.random((2, d)) + 1e-3
        add_node(net, Struct("kid", (twin,)), [Atom("a"), Atom("b")],
                 (table / table.sum(axis=0)).ravel(), [twin])
        twins.append((node.id, twin))
    return net, twins


def _step(net, s, twins, rng):
    """One in-place store change; False if it failed part way."""
    nid = int(rng.choice(net.node_ids()))
    node = net.nodes[nid]
    roll = rng.random()
    if roll < 0.35:
        return net._set_evidence(nid, node.domain[int(rng.integers(node.cardinality))])
    if roll < 0.7:
        size = int(rng.integers(1, node.cardinality + 1))
        keep = sorted(int(i) for i in rng.choice(node.cardinality, size=size, replace=False))
        return net._restrict(nid, keep)
    n1, n2 = twins[int(rng.integers(len(twins)))]
    if n1 in net.nodes and n2 in net.nodes:
        return net._merge_nodes(n1, n2, s) is not None
    return True


def test_replaced_nodes_never_get_a_stale_factor():
    # every step caches the factors of the nodes it sees; restricting,
    # merging, setting evidence and undoing replace nodes, and each result
    # must equal that of a copy with an empty cache
    from clpbn.errors import ClpbnError
    from clpbn.terms import Subst

    rng = np.random.default_rng(94)
    for _ in range(60):
        net, twins = _twin_net(rng)
        s = Subst()
        net.trail = s.trail
        marks = []
        for _ in range(14):
            roll = rng.random()
            if roll < 0.2:
                marks.append(s.mark())
            elif roll < 0.4 and marks:
                s.undo(marks.pop())
            else:
                mark = s.mark()
                try:
                    ok = _step(net, s, twins, rng)
                except ClpbnError:
                    ok = False
                if not ok:
                    s.undo(mark)
            fresh = net.copy()
            fresh._factors.clear()
            assert _probs_bits(net) == _probs_bits(fresh)


# --- sampling ---------------------------------------------------------------------


def test_sampling_deterministic(school):
    net = _school_net(school)
    a = inference.sample_csv(net, 500, seed=9)
    b = inference.sample_csv(net, 500, seed=9)
    assert a == b
    c = inference.sample_csv(net, 500, seed=10)
    assert a != c


def test_sample_csv_header_topological(school):
    net = _school_net(school)
    header = inference.sample_csv(net, 1, seed=0).splitlines()[0]
    labels = header.split(",")
    order = [term_to_text(net.nodes[n].label) for n in net.topological_order()]
    assert labels == order


def test_sample_respects_evidence(school):
    net = _school_net(school)
    nid = net.find_by_label(parse_term("i(ann)"))
    net = net.set_evidence(nid, parse_term("l"))
    text = inference.sample_csv(net, 50, seed=3)
    rows = text.splitlines()
    col = rows[0].split(",").index("i(ann)")
    assert all(r.split(",")[col] == "l" for r in rows[1:])


def test_sample_frequencies_match_prior():
    net = ConstraintNetwork(skolem_functors=[("x", 1)])
    a = add_node(
        net, parse_term("x(1)"), [parse_term("t"), parse_term("f")], [0.25, 0.75]
    )
    _, draws = inference.sample(net, 20000, seed=5)
    freq = float((draws[:, 0] == 0).mean())
    assert abs(freq - 0.25) < 0.01


# --- grounding --------------------------------------------------------------------


def test_ground_school_node_count(school):
    net = _school_net(school)
    assert len(net) == 18


def test_ground_hmm_horizon(hmm_fixed):
    net = inference.ground_program(hmm_fixed, drivers=["caught(3, C)"])
    labels = sorted(term_to_text(n.label) for n in net.nodes.values())
    assert labels == [
        "c(0)", "c(1)", "c(2)", "c(3)", "p(0)", "p(1)", "p(2)", "p(3)",
    ]


def test_ground_rejects_non_ground_labels(school):
    # default drivers leave entity arguments unbound for school's
    # guard-free clauses
    with pytest.raises(GroundingError):
        inference.ground_program(school)


def test_cyclic_program_cannot_be_ground_by_queries():
    # resolution never terminates on mutually dependent clauses; the
    # structural grounding in the learn module is the tool for these
    from clpbn.errors import LimitExceededError
    from clpbn.learn import structural_ground

    prog = parse_program(fixture_text("cyclic.clpbn"))
    with pytest.raises(LimitExceededError):
        inference.ground_program(prog, drivers=["a(E, X)"])
    net = structural_ground(prog)
    ok, _ = net.check_acyclic()
    assert not ok


def test_ground_with_population(school):
    pop = [parse_term("reg(r4, c2, ann)")]
    net = inference.ground_program(school, population=pop, drivers=SCHOOL_DRIVERS)
    assert net.find_by_label(parse_term("grade(r4)")) is not None
    assert len(net) == 20  # +grade(r4), +sat(r4)
    # the same merge as writing the fact at the end of the program
    merged = parse_program(school.to_text() + "reg(r4, c2, ann).\n")
    assert net.to_json() == inference.ground_program(
        merged, drivers=SCHOOL_DRIVERS
    ).to_json()
    assert len(inference.ground_program(school, drivers=SCHOOL_DRIVERS)) == 18
    report = inference.agreement_sweep(school, drivers=SCHOOL_DRIVERS, population=pop)
    assert report["agree"], report["failures"]
    assert report["comparisons"] > inference.agreement_sweep(
        school, drivers=SCHOOL_DRIVERS
    )["comparisons"]


# --- agreement --------------------------------------------------------------------


def test_agreement_sweep_school(school):
    report = inference.agreement_sweep(school, drivers=SCHOOL_DRIVERS)
    assert report["agree"], report["failures"]
    assert report["comparisons"] >= 100


def test_agreement_sweep_hmm(hmm_fixed):
    report = inference.agreement_sweep(hmm_fixed, drivers=["caught(3, C)"])
    assert report["agree"], report["failures"]
    assert report["comparisons"] >= 100
