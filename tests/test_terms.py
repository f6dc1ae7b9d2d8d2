import hypothesis.strategies as st
from hypothesis import example, given, settings

from clpbn.terms import (
    EMPTY_SUBST,
    Atom,
    FreshVars,
    Struct,
    Subst,
    Var,
    is_ground,
    is_variant,
    list_items,
    mklist,
    rename_term,
    term_equal,
    term_sort_key,
    unify,
    vars_of,
)

X = Var(1, "X")
Y = Var(2, "Y")
Z = Var(3, "Z")


def f(*args):
    return Struct("f", tuple(args))


def test_unify_atoms():
    assert unify(Atom("a"), Atom("a")) is not None
    assert unify(Atom("a"), Atom("b")) is None


def test_unify_binds_var():
    s = unify(X, Atom("a"))
    assert s is not None
    assert term_equal(s.resolve(X), Atom("a"))


def test_unify_struct_recurses():
    s = unify(f(X, Atom("b")), f(Atom("a"), Y))
    assert s is not None
    assert term_equal(s.resolve(X), Atom("a"))
    assert term_equal(s.resolve(Y), Atom("b"))


def test_unify_functor_mismatch():
    assert unify(f(X), Struct("g", (X,))) is None
    assert unify(f(X), f(X, Y)) is None


def test_unify_var_aliasing():
    s = unify(X, Y)
    assert s is not None
    s2 = unify(s.resolve(X), Atom("a"), s)
    assert term_equal(s2.resolve(Y), Atom("a"))


def test_unify_numbers():
    assert unify(1, 1) is not None
    assert unify(1, 2) is None
    assert unify(1.5, 1.5) is not None


def test_mklist_roundtrip():
    items = [Atom("a"), 3, f(X)]
    lst = mklist(items)
    back = list_items(lst)
    assert back is not None
    assert len(back) == 3
    assert all(term_equal(a, b) for a, b in zip(items, back))


def test_list_items_rejects_improper():
    improper = Struct(".", (Atom("a"), Atom("b")))
    assert list_items(improper) is None


def test_vars_of_and_groundness():
    t = f(X, f(Y, Atom("a")), 3)
    ids = {v.id for v in vars_of(t)}
    assert ids == {1, 2}
    assert not is_ground(t)
    assert is_ground(f(Atom("a"), 3))


def test_rename_is_variant():
    t = f(X, f(Y, X))
    mapping = {}
    t2 = rename_term(t, mapping, FreshVars())
    assert is_variant(t, t2)
    # shared variables stay shared: both X occurrences map to one new var
    assert mapping[X.id].id == t2.args[0].id == t2.args[1].args[1].id
    # renaming again with the same mapping reproduces the same term
    assert term_equal(t2, rename_term(t, mapping, FreshVars()))


def test_is_variant_distinguishes_shared_vars():
    assert is_variant(f(X, X), f(Y, Y))
    assert not is_variant(f(X, X), f(X, Y))
    assert not is_variant(f(X), f(Atom("a")))


def test_term_sort_key_total_order():
    terms = [Atom("b"), 2, 1.5, Atom("a"), f(Atom("a")), X, f(X, Y)]
    ordered = sorted(terms, key=term_sort_key)
    # sorting twice gives the same order (key is total and stable)
    assert sorted(ordered, key=term_sort_key) == ordered


# --- properties ----------------------------------------------------------------

_atoms = st.sampled_from([Atom("a"), Atom("b"), Atom("c")])
_vars = st.sampled_from([X, Y, Z])
_numbers = st.integers(min_value=-3, max_value=3)

_terms = st.recursive(
    st.one_of(_atoms, _vars, _numbers),
    lambda inner: st.builds(
        lambda functor, args: Struct(functor, tuple(args)),
        st.sampled_from(["f", "g"]),
        st.lists(inner, min_size=1, max_size=3),
    ),
    max_leaves=8,
)


@given(_terms)
def test_unify_reflexive(t):
    assert unify(t, t) is not None


@given(_terms, _terms)
def test_unify_makes_terms_equal(t1, t2):
    s = unify(t1, t2)
    if s is not None:
        assert term_equal(s.resolve(t1), s.resolve(t2))


@given(_terms, _terms)
def test_unify_symmetric_in_success(t1, t2):
    assert (unify(t1, t2) is None) == (unify(t2, t1) is None)


@settings(max_examples=60)
@given(_terms)
def test_rename_preserves_structure(t):
    t2 = rename_term(t, {}, FreshVars())
    assert is_variant(t, t2)
    if is_ground(t):
        assert term_equal(t, t2)


@given(_terms)
def test_resolve_after_self_unify_is_fixpoint(t):
    s = unify(t, t, EMPTY_SUBST)
    r = s.resolve(t)
    assert term_equal(r, s.resolve(r))


# --- the explicit-stack walkers against the recursive references ---------------

_mixed_numbers = st.sampled_from([0, 1, 1.0, -2, -2.0, 0.5])
_any_var = st.integers(min_value=1, max_value=6).map(lambda i: Var(i, f"V{i}"))

_mixed_terms = st.recursive(
    st.one_of(_atoms, _any_var, _mixed_numbers),
    lambda inner: st.builds(
        lambda functor, args: Struct(functor, tuple(args)),
        st.sampled_from(["f", "g", "."]),
        st.lists(inner, min_size=1, max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def _chained_subst(draw):
    """Bindings for some of V1..V6, each to a term over higher-numbered
    variables only, so walks follow chains but never cycle."""
    m = {}
    for i in range(1, 7):
        if draw(st.booleans()):
            t = draw(_mixed_terms)
            t = rename_term(
                t, {v.id: Var(v.id + i, f"V{v.id + i}") for v in vars_of(t)}, FreshVars()
            )
            m[i] = t
    return Subst(m)


@given(_mixed_terms, _mixed_terms)
@example(1, 1.0)
@example(f(X, 1), f(Y, 1.0))
def test_equal_and_variant_match_recursive(a, b):
    from oracles import is_variant_recursive, term_equal_recursive

    assert term_equal(a, b) == term_equal_recursive(a, b)
    assert is_variant(a, b) == is_variant_recursive(a, b)
    renamed = rename_term(a, {}, FreshVars(100))
    assert is_variant(a, renamed) and is_variant_recursive(a, renamed)


@given(_mixed_terms, _mixed_terms)
@example(1, 1.0)
@example(f(Atom("a"), -2.0), f(Atom("a"), -2))
def test_sort_key_orders_pairs_like_recursive(a, b):
    from oracles import term_sort_key_recursive

    ka, kb = term_sort_key(a), term_sort_key(b)
    ra, rb = term_sort_key_recursive(a), term_sort_key_recursive(b)
    assert (ka < kb, ka == kb) == (ra < rb, ra == rb)


@given(_mixed_terms, _chained_subst())
def test_resolve_and_rename_match_recursive(t, s):
    from oracles import rename_term_recursive, resolve_recursive

    assert term_equal(s.resolve(t), resolve_recursive(s, t))
    m1, m2 = {}, {}
    r1 = rename_term(t, m1, FreshVars(50))
    r2 = rename_term_recursive(t, m2, FreshVars(50))
    assert term_equal(r1, r2)
    assert {k: v.id for k, v in m1.items()} == {k: v.id for k, v in m2.items()}


def test_ground_subterms_are_shared_not_copied():
    table = mklist([0.5, 0.5, 0.25, 0.75])
    cpt = Struct("p", (mklist([Atom("t"), Atom("f")]), table, mklist([X])))
    assert rename_term(cpt.args[1], {}, FreshVars()) is table
    assert rename_term(Atom("a"), {}, FreshVars()) == Atom("a")
    renamed = rename_term(cpt, {}, FreshVars(10))
    assert renamed is not cpt
    assert renamed.args[0] is cpt.args[0] and renamed.args[1] is table
    s = unify(X, Atom("a"))
    assert s.resolve(table) is table
    resolved = s.resolve(cpt)
    assert resolved.args[1] is table and term_equal(resolved.args[2], mklist([Atom("a")]))


def test_walkers_handle_long_lists_without_recursion():
    import sys

    from clpbn.parser import term_to_text
    from clpbn.program import Program, cpt_spec_from_term
    from clpbn.terms import conj_items, mkconj, subterms

    n = 5000
    assert sys.getrecursionlimit() < n
    items = [
        Var(i, f"V{i}") if i % 7 == 0 else (i if i % 2 else float(i)) for i in range(1, n + 1)
    ]
    lst = mklist(items)
    ground = mklist([Atom("a") if isinstance(x, Var) else x for x in items])
    s = unify(lst, ground)
    assert s is not None and len(s) == n // 7
    assert is_ground(s.resolve(lst)) and not is_ground(lst)
    renamed = rename_term(lst, {}, FreshVars(n + 1))
    assert is_variant(lst, renamed) and not term_equal(lst, renamed)
    assert term_equal(lst, rename_term(lst, {v.id: v for v in vars_of(lst)}, FreshVars()))
    assert len(term_sort_key(lst)) > n
    assert sum(1 for _ in subterms(lst)) == 2 * n + 1
    # the occur check walks the whole list before it meets X
    assert unify(X, Struct("f", (lst, X))) is None
    assert list_items(s.resolve(lst))[-1] == n
    assert Program([]).has_skolem_subterm(lst) is False
    table = mklist([2.0 / n] * n)
    spec = cpt_spec_from_term(
        Struct("p", (mklist([Atom("t"), ground]), table, mklist([]))),
        lambda t: False,
    )
    assert len(spec.table) == n
    goals = [Struct("g", (i,)) for i in range(n)]
    assert conj_items(mkconj(goals)) == goals
    assert term_to_text(lst).count(",") == n - 1


def test_terms_module_has_no_recursive_function():
    import ast
    import inspect

    import clpbn.terms

    tree = ast.parse(inspect.getsource(clpbn.terms))
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            called = {
                c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)
                for c in ast.walk(fn)
                if isinstance(c, ast.Call)
            }
            assert fn.name not in called, fn.name
