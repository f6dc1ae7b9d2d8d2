"""Answer-set and answer-order agreement on constraint-free programs.

Every case pairs a small program with a query and runs both through the
engine and through the from-scratch interpreter in reference_sld, then
compares the full answer lists, bindings and order both. Only goals both
sides implement appear here: user clauses, ',', true, fail, !, =, is, the
arithmetic comparisons, and findall.
"""

import pytest

from clpbn.engine import solve
from clpbn.program import parse_program

from reference_sld import Reference, binding_text

EDGES = """
edge(a, b).
edge(a, c).
edge(b, d).
edge(c, d).
node(a).
node(b).
node(c).
"""

PATH = EDGES + """
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""

FIRST_EDGE = EDGES + """
first_edge(X, Y) :- edge(X, Y), !.
"""

APPEND = """
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""

MEMBER = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
"""

REVERSE = APPEND + """
rev([], []).
rev([H|T], R) :- rev(T, RT), append(RT, [H], R).
"""

PERM = """
select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).
perm([], []).
perm(L, [X|P]) :- select(X, L, R), perm(R, P).
"""

MAX3 = """
max3(X, Y, X) :- X >= Y, !.
max3(_, Y, Y).
"""

LOCAL_CUT = """
pick(1).
pick(2).
cand(a).
cand(b).
firstof(Y) :- cand(Y), !.
q(X, Y) :- pick(X), firstof(Y).
"""

CUT_FAIL = """
banned(b).
ok(X) :- banned(X), !, fail.
ok(_).
"""

FACTORIAL = """
fact(0, 1) :- !.
fact(N, F) :- N > 0, N1 is N - 1, fact(N1, F1), F is N * F1.
"""

FIB = """
fib(0, 0).
fib(1, 1).
fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2, fib(N1, F1), fib(N2, F2),
    F is F1 + F2.
"""

RANGE = """
range(L, H, L) :- L =< H.
range(L, H, X) :- L < H, L1 is L + 1, range(L1, H, X).
"""

FILTER = """
less3([], []).
less3([H|T], [H|R]) :- H < 3, less3(T, R).
less3([H|T], R) :- H >= 3, less3(T, R).
"""

SHAPES = """
shape(f(X, g(X)), p(X)).
"""

TAGS = """
tag(f(A, B), pair) :- A = B.
tag(f(_, _), mixed).
"""

LAST = """
last([X], X) :- !.
last([_|T], X) :- last(T, X).
"""

SUM = """
suml([], 0).
suml([H|T], S) :- suml(T, S1), S is S1 + H.
"""

TAKE = """
take(0, _, []) :- !.
take(N, [H|T], [H|R]) :- N > 0, N1 is N - 1, take(N1, T, R).
"""

GCD = """
gcd(X, 0, X) :- !.
gcd(X, Y, G) :- Y > 0, R is X mod Y, gcd(Y, R, G).
"""

PAIRS = """
pairs([], [], []).
pairs([X|Xs], [Y|Ys], [X - Y|R]) :- pairs(Xs, Ys, R).
"""

ARITH_ONLY = """
dummy(0).
"""

CASES = [
    ("facts_all", EDGES, "edge(X, Y)."),
    ("conjunction", EDGES, "edge(a, X), edge(X, Z)."),
    ("no_solution", EDGES, "edge(d, X)."),
    ("toplevel_cut", EDGES, "edge(X, Y), !."),
    ("recursion_order", PATH, "path(a, Z)."),
    ("clause_cut_once", FIRST_EDGE, "first_edge(X, Y)."),
    ("append_splits", APPEND, "append(X, Y, [1, 2, 3])."),
    ("member_order", MEMBER, "member(X, [a, b, c])."),
    ("naive_reverse", REVERSE, "rev([1, 2, 3, 4], R)."),
    ("permutations", PERM, "perm([1, 2, 3], P)."),
    ("cut_commits", MAX3, "max3(3, 2, M)."),
    ("cut_guard_fails", MAX3, "max3(2, 5, M)."),
    ("cut_is_local", LOCAL_CUT, "q(X, Y)."),
    ("cut_fail_blocks", CUT_FAIL, "ok(b)."),
    ("cut_fail_passes", CUT_FAIL, "ok(a)."),
    ("factorial", FACTORIAL, "fact(6, F)."),
    ("factorial_base", FACTORIAL, "fact(0, F)."),
    ("fibonacci", FIB, "fib(10, F)."),
    ("range_enumerates", RANGE, "range(1, 5, X)."),
    ("arith_filter", FILTER, "less3([1, 4, 2, 5, 0], R)."),
    (
        "arith_operators",
        ARITH_ONLY,
        "X is ((7 // 2) * 3 + (10 mod 4)) - 1, Y is -3 - -2.",
    ),
    (
        "comparison_chain",
        ARITH_ONLY,
        "2 + 3 =:= 5, 7 =\\= 8, 1 < 2, 2 =< 2, 3 >= 3, 4 > 1.",
    ),
    ("unify_compound", SHAPES, "shape(f(2, g(2)), R)."),
    ("unify_propagates", SHAPES, "X = f(Y), Y = 3."),
    ("clause_order_ties", TAGS, "tag(f(1, 1), T)."),
    ("last_element", LAST, "last([1, 2, 3], X)."),
    ("sum_list", SUM, "suml([1, 2, 3, 4], S)."),
    ("take_prefix", TAKE, "take(2, [a, b, c, d], R)."),
    ("gcd", GCD, "gcd(48, 18, G)."),
    ("pairs_zip", PAIRS, "pairs([1, 2], [a, b], L)."),
    ("findall_basic", EDGES, "findall(X, edge(X, Y), L)."),
    ("findall_empty", EDGES, "findall(X, edge(zz, X), L)."),
    ("findall_template", EDGES, "findall(f(Y, X), edge(X, Y), L)."),
    (
        "findall_nested",
        EDGES,
        "findall(Es, (node(N), findall(E, edge(N, E), Es)), L).",
    ),
    ("findall_of_failing_conj", EDGES, "findall(X, (edge(X, d), fail), L)."),
]

EMPTY_OK = {"no_solution", "cut_fail_blocks"}


def test_corpus_has_twenty_distinct_programs():
    assert len({program for _, program, _ in CASES}) >= 20


@pytest.mark.parametrize("name,program,query", CASES, ids=[c[0] for c in CASES])
def test_engine_matches_reference(name, program, query):
    got = [binding_text(a) for a in solve(parse_program(program), query)]
    want = Reference(program).answers(query)
    assert got == want
    if name in EMPTY_OK:
        assert want == []
    else:
        assert want, "oracle produced no answers: case is vacuous"
