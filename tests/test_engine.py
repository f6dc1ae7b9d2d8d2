import pytest

from clpbn.engine import Engine, solve
from clpbn.errors import (
    ArithmeticGoalError,
    EngineError,
    FindallMergeError,
    LimitExceededError,
    MalformedCptError,
    UnconstrainedParentError,
)
from clpbn.inference import marginal
from clpbn.parser import term_to_text
from clpbn.program import parse_program

PURE = """
edge(a, b).
edge(b, c).
edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""


def _answers(text, query, limit=None):
    return [a.binding_text() for a in solve(parse_program(text), query, limit)]


def test_fact_lookup_order():
    assert _answers(PURE, "edge(a, X).") == [{"X": "b"}]
    assert _answers(PURE, "edge(X, Y).") == [
        {"X": "a", "Y": "b"},
        {"X": "b", "Y": "c"},
        {"X": "c", "Y": "d"},
    ]


def test_recursion_depth_first_order():
    assert [a["Z"] for a in _answers(PURE, "path(a, Z).")] == ["b", "c", "d"]


def test_limit_stops_early():
    assert len(_answers(PURE, "path(X, Y).", limit=2)) == 2


def test_failure_yields_no_answers():
    assert _answers(PURE, "edge(d, X).") == []


def test_cut_commits_to_first_clause():
    text = """
first(X) :- member(X, [1, 2, 3]), !.
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
"""
    assert _answers(text, "first(X).") == [{"X": "1"}]


def test_cut_local_to_clause():
    text = """
p(1).
p(2).
q(X) :- p(X), !.
r(X, Y) :- q(X), p(Y).
"""
    # the cut inside q must not prune p(Y) alternatives
    assert _answers(text, "r(X, Y).") == [
        {"X": "1", "Y": "1"},
        {"X": "1", "Y": "2"},
    ]


def test_negation_via_cut_fail():
    text = """
blocked(b).
open_road(X) :- blocked(X), !, fail.
open_road(_).
"""
    assert _answers(text, "open_road(a).") == [{}]
    assert _answers(text, "open_road(b).") == []


def test_arithmetic_and_comparisons():
    text = "double(X, Y) :- Y is X * 2.\n"
    assert _answers(text, "double(3, Y).") == [{"Y": "6"}]
    assert _answers(text, "double(3, Y), Y > 5.") == [{"Y": "6"}]
    assert _answers(text, "double(3, Y), Y < 5.") == []
    assert _answers(text, "X is 7 mod 2.") == [{"X": "1"}]


def test_arithmetic_on_unbound_raises():
    with pytest.raises(ArithmeticGoalError):
        _answers("f(a).", "X is Y + 1.")


def test_findall_collects_in_order():
    assert _answers(PURE, "findall(Y, edge(X, Y), L).") == [
        {"Y": "Y", "X": "X", "L": "[b, c, d]"}
    ]
    assert _answers(PURE, "findall(Y, edge(zz, Y), L).") == [
        {"Y": "Y", "L": "[]"}
    ]


def test_setof_sorts_and_dedups():
    text = """
score(b, 2).
score(a, 1).
score(a, 1).
"""
    assert _answers(text, "setof(N, S^score(S, N), L).") == [
        {"N": "N", "S": "S", "L": "[1, 2]"}
    ]


def test_setof_fails_on_empty():
    assert _answers(PURE, "setof(X, edge(zz, X), L).") == []


def test_depth_limit():
    text = "loop(X) :- loop(X).\n"
    with pytest.raises(LimitExceededError):
        list(solve(parse_program(text), "loop(a).", depth_limit=50))


def test_depth_limit_bounds_recursion_depth_not_steps(hmm_fixed):
    # caught(100, C) tries 502 clauses (watch(I-1) is memoed when watch(I)
    # needs it) and recurses 102 calls deep: caught(100) down to caught(1),
    # then watch(1) and watch(0), which caught(1) calls first
    ans = next(Engine(hmm_fixed, depth_limit=400).solve_text("caught(100, C)."))
    assert len(ans.network) == 202
    next(Engine(hmm_fixed, depth_limit=102).solve_text("caught(100, C)."))
    with pytest.raises(LimitExceededError, match="limit of 101 frames"):
        next(Engine(hmm_fixed, depth_limit=101).solve_text("caught(100, C)."))
    with pytest.raises(LimitExceededError, match="limit of 50 frames"):
        list(solve(parse_program("loop(X) :- loop(X).\n"), "loop(a).", depth_limit=50))


# --- constraints ------------------------------------------------------------------


def test_constraint_posts_node(school):
    eng = Engine(school)
    ans = next(eng.solve_text("intelligence(bob, I)."))
    assert set(ans.query_nodes) == {"I"}
    net = ans.network
    assert len(net) == 1
    node = net.nodes[ans.query_nodes["I"]]
    assert term_to_text(node.label) == "i(bob)"
    assert node.table == (0.7, 0.3)


def test_query_builds_dependency_network(school):
    eng = Engine(school)
    ans = next(eng.solve_text("grade(r2, G)."))
    labels = sorted(term_to_text(n.label) for n in ans.network.nodes.values())
    assert labels == ["dif(c1)", "grade(r2)", "i(ann)"]
    gnode = ans.network.nodes[ans.query_nodes["G"]]
    assert len(gnode.parents) == 2


def test_same_skolem_merges_to_one_node(school):
    eng = Engine(school)
    ans = next(eng.solve_text("intelligence(bob, X), intelligence(bob, Y)."))
    assert len(ans.network) == 1
    assert ans.query_nodes["X"] == ans.query_nodes["Y"]


def test_ground_argument_at_constraint_position_is_evidence(school):
    eng = Engine(school)
    ans = next(eng.solve_text("grade(r2, a), intelligence(ann, I)."))
    gid = ans.network.find_by_label(parse_term_label("grade(r2)"))
    assert gid is not None
    assert term_to_text(ans.network.nodes[gid].evidence_value()) == "a"


def parse_term_label(text):
    from clpbn.parser import parse_term

    return parse_term(text)


def test_evidence_value_outside_domain_fails(school):
    eng = Engine(school)
    assert list(eng.solve_text("grade(r2, zz).")) == []


def test_declared_evidence_conditions_every_query():
    text = """
coin(X) :- {X = flip(1) with p([heads,tails],[0.5,0.5],[])}.
same(Y) :- coin(X), {Y = match(1) with p([t,f],[0.9,0.2,0.1,0.8],[X])}.
:- evidence(flip(1), heads).
"""
    prog = parse_program(text)
    ans = next(Engine(prog).solve_text("same(Y)."))
    from clpbn.inference import marginal

    m = marginal(ans.network, ans.query_nodes["Y"])
    assert m.probs == pytest.approx((0.9, 0.1), abs=1e-12)


def test_declared_evidence_without_deriving_clause_raises():
    text = """
coin(X) :- {X = flip(1) with p([heads,tails],[0.5,0.5],[])}.
:- evidence(flip(2), heads).
"""
    with pytest.raises(EngineError):
        next(Engine(parse_program(text)).solve_text("coin(X)."))


def test_unconstrained_parent_raises():
    text = "bad(X, Y) :- {X = b1(a) with p([h,l],[0.5,0.5],[Y])}.\n"
    with pytest.raises(UnconstrainedParentError):
        list(solve(parse_program(text), "bad(X, Y)."))


# Constraints posted from the query or by a goal built at run time name
# random variables whose Skolem functors no clause declares (a/0, foo/1, h/0
# here). A label names its variable and is never one of its values, so such
# a variable keeps the distribution its constraint gives.
COIN = """
coin(X) :- {X = c with p([h,t],[0.5,0.5],[])}.
run(G) :- G.
"""


@pytest.mark.parametrize(
    "query, expected",
    [
        ("{X = a with p([a,b],[0.3,0.7],[])}.", {"a": 0.3, "b": 0.7}),
        ("{X = foo(a) with p([h,t],[0.3,0.7],[])}.", {"h": 0.3, "t": 0.7}),
        ("run({X = h with p([h,t],[0.3,0.7],[])}).", {"h": 0.3, "t": 0.7}),
    ],
)
def test_undeclared_skolem_label_is_not_a_value(query, expected):
    answers = list(solve(parse_program(COIN), query))
    assert len(answers) == 1
    ans = answers[0]
    m = marginal(ans.network, ans.query_nodes["X"])
    assert dict(zip(map(term_to_text, m.domain), m.probs)) == pytest.approx(expected)


@pytest.mark.parametrize(
    "constraint, message",
    [
        (
            "{Y = b with p([h,t],[0.5,0.5,0.5,0.5,0.5,0.5],[X])}",
            "posting b: table length 6 does not match domain x parents (4)",
        ),
        (
            "{Y = b with p([h,t],[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5],[X, X])}",
            "posting b: duplicate parent in constraint",
        ),
    ],
)
def test_posting_checks_table_shape_against_parents(constraint, message):
    with pytest.raises(MalformedCptError) as err:
        list(solve(parse_program(COIN), f"coin(X), {constraint}."))
    assert str(err.value) == message


def test_findall_merges_derivations_whose_tables_agree():
    # two derivations post kv; tables within the merge tolerance give one
    # node, tables further apart stop the collection
    text = """
t(1, p([a,b],[0.5,0.5],[])).
t(2, p([a,b],[{x},{y}],[])).
k(X) :- t(_, C), {{X = kv with C}}.
all(L) :- findall(X, k(X), L).
"""
    close = parse_program(text.format(x=0.5 + 1e-12, y=0.5 - 1e-12))
    ans = next(Engine(close).solve_text("all(L)."))
    assert len(ans.network) == 1
    apart = parse_program(text.format(x=0.6, y=0.4))
    with pytest.raises(FindallMergeError, match="disagree about kv"):
        next(Engine(apart).solve_text("all(L)."))


def test_recursive_chain_builds_all_nodes(hmm_fixed):
    eng = Engine(hmm_fixed)
    ans = next(eng.solve_text("caught(2, C)."))
    labels = sorted(term_to_text(n.label) for n in ans.network.nodes.values())
    assert labels == ["c(0)", "c(1)", "c(2)", "p(0)", "p(1)", "p(2)"]


def test_average_braces_cpt(school):
    eng = Engine(school)
    ans = next(eng.solve_text("rating(c1, R)."))
    node = ans.network.nodes[ans.query_nodes["R"]]
    assert term_to_text(node.label) == "rating(c1)"
    # two satisfaction parents, domain [1,2] each
    assert len(node.parents) == 2
    assert [term_to_text(v) for v in node.domain] == ["1", "2"]


def test_aggregate_cpt_mode():
    text = """
vote(1, v1).
vote(2, v2).
vote(3, v3).
pick(I, X) :- vote(I, _), {X = choice(I) with p([y,n],[0.5,0.5],[])}.
decision(D) :-
  findall(X, pick(_, X), Vs),
  aggregate_cpt(mode, Vs, [y,n], p([win,lose],[0.8,0.3,0.2,0.7],[]), CPT),
  {D = outcome(1) with CPT}.
"""
    ans = next(Engine(parse_program(text)).solve_text("decision(D)."))
    node = ans.network.nodes[ans.query_nodes["D"]]
    assert len(node.parents) == 3
    assert [term_to_text(v) for v in node.domain] == ["win", "lose"]
    # mode of three binary parents: column for (y,y,y) -> 0.8, (n,n,n) -> 0.3
    assert node.table[0] == 0.8 and node.table[7] == 0.3


def test_answers_are_reproducible(school):
    eng = Engine(school)
    first = [a.binding_text() for a in eng.solve_text("reg(R, C, S).", limit=None)]
    second = [a.binding_text() for a in eng.solve_text("reg(R, C, S).", limit=None)]
    assert first == second == [
        {"R": "r1", "C": "c1", "S": "bob"},
        {"R": "r2", "C": "c1", "S": "ann"},
        {"R": "r3", "C": "c2", "S": "bob"},
    ]
