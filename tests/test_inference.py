import numpy as np
import pytest

from clpbn import inference
from clpbn.engine import Engine
from clpbn.errors import GroundingError, InconsistentEvidenceError, InferenceError
from clpbn.fixtures import SCHOOL_DRIVERS, fixture_text
from clpbn.network import ConstraintNetwork
from clpbn.parser import parse_term, term_to_text
from clpbn.program import parse_program
from netgen import random_net
from oracles import (
    JointSizeError,
    enumerate_joint,
    joint_marginal,
    min_degree_order_rescan,
    run_elimination_scan,
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


def test_elimination_order_does_not_change_marginals(school):
    net = _school_net(school)
    for nid in net.node_ids():
        a = inference.marginal(net, nid)
        b = inference.marginal(net, nid, reverse_ties=True)
        assert a.probs == pytest.approx(b.probs, abs=TOL)


def test_explicit_elimination_order(school):
    net = _school_net(school)
    target = net.node_ids()[0]
    order = [n for n in reversed(net.node_ids()) if n != target]
    a = inference.marginal(net, target)
    b = inference.marginal(net, target, order=order)
    assert a.probs == pytest.approx(b.probs, abs=TOL)


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
    net, a = net.add_node(parse_term("x(1)"), [parse_term("t"), parse_term("f")], [1.0, 0.0])
    net = net.set_evidence(a, parse_term("f"))  # P(f) = 0
    with pytest.raises(InconsistentEvidenceError):
        inference.marginal(net, a)
    with pytest.raises(InconsistentEvidenceError):
        enumerate_joint(net)


def test_joint_size_guard():
    net = ConstraintNetwork(skolem_functors=[("x", 1)])
    for i in range(25):
        net, _ = net.add_node(
            parse_term(f"x({i})"), [parse_term("t"), parse_term("f")], [0.5, 0.5]
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


def _assert_same_orders(net):
    factors = inference._clamped_factors(net)
    free = {nid for nid in net.nodes if net.nodes[nid].evidence is None}
    eliminations = [free] + [free - {nid} for nid in sorted(free)]
    for eliminate in eliminations:
        for reverse_ties in (False, True):
            fast = inference._min_degree_order(factors, eliminate, reverse_ties)
            slow = min_degree_order_rescan(factors, eliminate, reverse_ties)
            assert fast == slow


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
    factors = inference._clamped_factors(net)
    free = {nid for nid in net.nodes if net.nodes[nid].evidence is None}
    for eliminate in [free] + [free - {nid} for nid in sorted(free)]:
        for reverse_ties in (False, True):
            order = inference._min_degree_order(factors, eliminate, reverse_ties)
            fast = inference._run_elimination(factors, order)
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


def _assert_matches_per_node(net, reverse_ties=False):
    got = inference.all_marginals(net, reverse_ties=reverse_ties)
    assert [m.node_id for m in got] == net.node_ids()
    for m in got:
        want = inference.marginal(net, m.node_id, reverse_ties=reverse_ties)
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
@pytest.mark.parametrize("reverse_ties", [False, True])
def test_all_marginals_vs_per_node_on_school(school, observed, reverse_ties):
    net = _observe_forward_sample(
        _school_net(school), np.random.default_rng(observed), observed
    )
    _assert_matches_per_node(net, reverse_ties)


def _two_chains():
    t, f = parse_term("t"), parse_term("f")
    net = ConstraintNetwork(skolem_functors=[("x", 1), ("y", 1)])
    net, a = net.add_node(parse_term("x(1)"), [t, f], [0.3, 0.7])
    net, b = net.add_node(parse_term("x(2)"), [t, f], [0.9, 0.2, 0.1, 0.8], [a])
    net, c = net.add_node(parse_term("y(1)"), [t, f], [0.6, 0.4])
    net, d = net.add_node(parse_term("y(2)"), [t, f], [0.5, 0.0, 0.5, 1.0], [c])
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


def test_all_marginals_zero_mass_column():
    t, f = parse_term("t"), parse_term("f")
    net = ConstraintNetwork(skolem_functors=[("x", 1)])
    net, a = net.add_node(parse_term("x(1)"), [t, f], [0.5, 0.5])
    net, _ = net.add_node(parse_term("x(2)"), [t, f], [0.4, 0.0, 0.6, 0.0], [a])
    with pytest.raises(InferenceError, match="zero-mass"):
        inference.all_marginals(net)


def test_all_marginals_orders_once(school, monkeypatch):
    net = _school_net(school)
    calls = []
    original = inference._min_degree_order

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(inference, "_min_degree_order", counting)
    inference.all_marginals(net)
    assert len(calls) == 1
    inference.all_marginals(_observe_forward_sample(net, np.random.default_rng(5), 2))
    assert len(calls) == 2


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
    net, a = net.add_node(
        parse_term("x(1)"), [parse_term("t"), parse_term("f")], [0.25, 0.75]
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
    report = inference.agreement_check(
        school, "grade(r4, G).", population=pop, drivers=SCHOOL_DRIVERS
    )
    assert report["agree"] and report["entries"]


# --- agreement --------------------------------------------------------------------


def test_agreement_check_single_query(school):
    report = inference.agreement_check(
        school, "grade(r2, G).", drivers=SCHOOL_DRIVERS
    )
    assert report["agree"]
    assert report["max_abs_diff"] <= TOL
    assert report["entries"]


def test_agreement_sweep_school(school):
    report = inference.agreement_sweep(school, drivers=SCHOOL_DRIVERS)
    assert report["agree"], report["failures"]
    assert report["comparisons"] >= 100


def test_agreement_sweep_hmm(hmm_fixed):
    report = inference.agreement_sweep(hmm_fixed, drivers=["caught(3, C)"])
    assert report["agree"], report["failures"]
    assert report["comparisons"] >= 100
