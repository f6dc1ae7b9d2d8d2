"""Memoed calls of random-variable predicates.

The engine memoes a call to a predicate with a constraint goal when the
call exits deterministically. The oracle is the same engine with its set of
memoed predicates emptied, which is plain SLD resolution: answers, networks
(up to node numbering) and marginals must agree. The scoping tests each
break when the memo table outlives backtracking or memoes a call it
should not.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

import pytest

from clpbn.engine import Engine
from clpbn.errors import LimitExceededError
from clpbn.fixtures import SCHOOL_DRIVERS, fixture_text
from clpbn.inference import _driver_goals, all_marginals, marginal
from clpbn.parser import term_to_text
from clpbn.program import parse_program
from oracles import hmm_chain_forward
from reference_sld import binding_text


@contextmanager
def plain_sld():
    """Every engine built inside memoes nothing."""
    init = Engine.__init__

    def no_memo(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._memoed.clear()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "__init__", no_memo)
        yield


def _network_key(net):
    """The network with node ids replaced by labels."""
    text = {nid: term_to_text(node.label) for nid, node in net.nodes.items()}
    return sorted(
        (
            text[nid],
            tuple(map(term_to_text, node.domain)),
            node.table,
            tuple(text[p] for p in node.parents),
            node.evidence,
        )
        for nid, node in net.nodes.items()
    )


def _marginals(net) -> dict[str, tuple[float, ...]]:
    return {term_to_text(m.label): m.probs for m in all_marginals(net)}


def _assert_same_marginals(a, b) -> None:
    assert a.keys() == b.keys()
    for label, probs in a.items():
        assert probs == pytest.approx(b[label], abs=1e-12, rel=0), label


def _answer_key(ans):
    net = ans.network
    nodes = {k: term_to_text(net.nodes[nid].label) for k, nid in ans.query_nodes.items()}
    return binding_text(ans), nodes, _network_key(net)


def _assert_query_agrees(program, query: str) -> None:
    memoed = list(Engine(program).solve_text(query))
    with plain_sld():
        plain = list(Engine(program).solve_text(query))
    assert [_answer_key(a) for a in memoed] == [_answer_key(a) for a in plain], query
    assert memoed, query
    for a, b in zip(memoed, plain):
        _assert_same_marginals(_marginals(a.network), _marginals(b.network))


def _record_tables(monkeypatch) -> list[dict]:
    """The memo table of every query run from now on."""
    tables = []
    start = Engine._start

    def recording(self):
        s, n, memo = start(self)
        tables.append(memo)
        return s, n, memo

    monkeypatch.setattr(Engine, "_start", recording)
    return tables


def _count_tries(monkeypatch) -> list[int]:
    count = [0]
    try_clause = Engine._try_clause

    def counting(self, *args):
        count[0] += 1
        return try_clause(self, *args)

    monkeypatch.setattr(Engine, "_try_clause", counting)
    return count


# --- on/off oracle -------------------------------------------------------------


@pytest.mark.parametrize("name", ["hmm.clpbn", "hmm_fixed.clpbn"])
@pytest.mark.parametrize("evidence", [False, True])
def test_chain_queries_agree_with_plain_sld(name, evidence):
    program = parse_program(fixture_text(name))
    for n in range(41):
        query = f"caught({n}, C)"
        if evidence:
            query += f", watch({n * 7 % (n + 1)}, {'ml'[n % 2]})"
        _assert_query_agrees(program, query + ".")


SCHOOL_QUERIES = [
    "ability(P, A).",
    "popularity(p1, X).",
    "difficulty(C, D).",
    "intelligence(S, I).",
    "grade(r2, G).",
    "grade(R, G).",
    "satisfaction(r3, S).",
    "rating(C, R).",
    "ranking(ann, K).",
    "ranking(S, K), intelligence(S, I).",
    "grade(r1, G1), grade(r3, G3).",
    "intelligence(bob, h), grade(r1, G), grade(r3, H).",
    "grade(r1, a), rating(c1, R), ranking(ann, K).",
    "reg(R, C, S), grade(R, G).",
    "rating(C, R), popularity(P, X), ranking(bob, K).",
]


@pytest.mark.parametrize("query", SCHOOL_QUERIES)
def test_school_queries_agree_with_plain_sld(school, query):
    _assert_query_agrees(school, query)


def _union(program, drivers):
    net, instances = Engine(program).union_network(_driver_goals(program, drivers))

    def node_label(m: re.Match) -> str:
        nid = net.binding.get(int(m.group(1)))
        return term_to_text(net.nodes[nid].label) if nid in net.nodes else "_"

    texts = [re.sub(r"_G(\d+)", node_label, term_to_text(t)) for t in instances]
    return net, texts


@pytest.mark.parametrize(
    "name, drivers",
    [
        ("school.clpbn", SCHOOL_DRIVERS),
        ("hmm_fixed.clpbn", ["caught(8, C)"]),
        ("hmm.clpbn", ["caught(12, C)", "watch(15, P)", "caught(3, C), watch(3, P)"]),
    ],
)
def test_union_network_agrees_with_plain_sld(name, drivers):
    program = parse_program(fixture_text(name))
    net, texts = _union(program, drivers)
    with plain_sld():
        plain_net, plain_texts = _union(program, drivers)
    assert texts == plain_texts
    assert _network_key(net) == _network_key(plain_net)
    _assert_same_marginals(_marginals(net), _marginals(plain_net))


# --- scoping ----------------------------------------------------------------------


def _hmm_with(extra: str):
    return parse_program(fixture_text("hmm_fixed.clpbn") + extra)


def _labels(net) -> list[str]:
    return sorted(term_to_text(node.label) for node in net.nodes.values())


def test_memo_is_undone_when_its_clause_fails():
    program = _hmm_with("q(P) :- watch(3, P0), fail.\nq(P) :- watch(3, P).\n")
    ans = next(Engine(program).solve_text("q(P)."))
    assert _labels(ans.network) == ["p(0)", "p(1)", "p(2)", "p(3)"]
    assert term_to_text(ans.network.nodes[ans.query_nodes["P"]].label) == "p(3)"


def test_memo_made_inside_findall_is_not_reused_after_it(monkeypatch):
    program = _hmm_with("r(L, P) :- findall(X, watch(2, X), L), watch(2, P).\n")
    tries = _count_tries(monkeypatch)
    ans = next(Engine(program).solve_text("r(L, P)."))
    assert _labels(ans.network) == ["p(0)", "p(1)", "p(2)"]
    assert term_to_text(ans.network.nodes[ans.query_nodes["P"]].label) == "p(2)"
    # r, then watch(2) .. watch(0) inside findall and again after it
    assert tries[0] == 1 + 2 * 5


def test_call_with_constrained_arguments_is_not_memoed(hmm_fixed, monkeypatch):
    tables = _record_tables(monkeypatch)
    next(Engine(hmm_fixed).solve_text("caught(5, C)."))
    assert sorted({key[0] for key in tables[0]}) == [("caught", 2), ("watch", 2)]
    assert len(tables[0]) == 12


NOT_MEMOED = """
t(_).
s(X) :- t(Z), {X = b(Z) with p([t,f], [0.5,0.5], [])}.
r(X, Y) :- t(Y), {X = a with p([t,f], [0.5,0.5], [])}.
"""


def test_answer_with_a_free_variable_is_not_memoed(monkeypatch):
    tables = _record_tables(monkeypatch)
    ans = next(Engine(parse_program(NOT_MEMOED)).solve_text("r(A, B), r(C, D)."))
    assert not tables[0]
    assert ans.bindings["B"] != ans.bindings["D"]
    assert ans.query_nodes["A"] == ans.query_nodes["C"]
    assert len(ans.network) == 1


def test_answer_with_a_non_ground_label_is_not_memoed(monkeypatch):
    tables = _record_tables(monkeypatch)
    ans = next(Engine(parse_program(NOT_MEMOED)).solve_text("s(A), s(B)."))
    assert not tables[0]
    assert ans.query_nodes["A"] != ans.query_nodes["B"]
    assert len(ans.network) == 2
    with plain_sld():
        plain = next(Engine(parse_program(NOT_MEMOED)).solve_text("s(A), s(B)."))
    assert len(plain.network) == 2


def test_memo_whose_answer_was_bound_since_is_not_reused(hmm_fixed):
    query = "watch(3, P), P = m, watch(3, Q)."
    ans = next(Engine(hmm_fixed).solve_text(query))
    assert binding_text(ans) == {"P": "m", "Q": "Q"}
    assert term_to_text(ans.network.nodes[ans.query_nodes["Q"]].label) == "p(3)"
    _assert_query_agrees(hmm_fixed, query)


def test_last_answer_of_a_call_with_several_is_not_memoed():
    program = parse_program(
        "v(1, X) :- {X = a(1) with p([t,f], [0.5,0.5], [])}.\n"
        "v(2, X) :- {X = a(2) with p([t,f], [0.5,0.5], [])}.\n"
    )
    answers = list(Engine(program).solve_text("v(K, X), v(L, Y)."))
    pairs = [(binding_text(a)["K"], binding_text(a)["L"]) for a in answers]
    assert pairs == [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
    _assert_query_agrees(program, "v(K, X), v(L, Y).")


def test_hit_does_not_recurse():
    program = _hmm_with(
        "d(P) :- watch(50, _), e(10, P).\n"
        "e(0, P) :- watch(50, P).\n"
        "e(I, P) :- I > 0, I1 is I - 1, e(I1, P).\n"
    )
    # watch(50) recurses 52 calls deep under d; re-derived under e, 63 deep
    ans = next(Engine(program, depth_limit=52).solve_text("d(P)."))
    assert term_to_text(ans.network.nodes[ans.query_nodes["P"]].label) == "p(50)"
    with plain_sld(), pytest.raises(LimitExceededError):
        next(Engine(program, depth_limit=62).solve_text("d(P)."))
    with plain_sld():
        next(Engine(program, depth_limit=63).solve_text("d(P)."))


def test_int_and_float_arguments_are_different_calls():
    program = parse_program(
        "p(1.0, X) :- {X = b with p([t,f], [0.5,0.5], [])}.\n"
        "p(1, X) :- {X = a with p([t,f], [0.5,0.5], [])}.\n"
    )
    ans = next(Engine(program).solve_text("p(1, X), p(1.0, Y)."))
    assert _labels(ans.network) == ["a", "b"]


# --- cost ----------------------------------------------------------------------------


@pytest.mark.parametrize("n", [50, 200])
def test_chain_query_clause_tries_are_linear(hmm_fixed, monkeypatch, n):
    tries = _count_tries(monkeypatch)
    next(Engine(hmm_fixed).solve_text(f"caught({n}, C)."))
    # N^2 + 5N + 1 without the memo: 2,751 at N = 50
    assert tries[0] <= 6 * n + 1


def test_long_chain_answers_at_the_default_depth_limit(hmm_fixed):
    ans = next(Engine(hmm_fixed).solve_text("caught(1000, C)."))
    assert len(ans.network) == 2002
    m = marginal(ans.network, ans.query_nodes["C"])
    assert m.probs == pytest.approx(hmm_chain_forward(1000), abs=1e-9, rel=0)
