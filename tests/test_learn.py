import numpy as np
import pytest

from clpbn import inference
from clpbn.errors import LearnError
from clpbn.fixtures import SCHOOL_DRIVERS, fixture_text
from clpbn.learn import (
    SampleSet,
    bic_score,
    compare_structures,
    fit_cpts,
    remove_cycles,
    structural_ground,
    structural_instances,
)
from clpbn.parser import term_to_text
from clpbn.program import parse_program


@pytest.fixture(scope="module")
def school_samples(school):
    net = inference.ground_program(school, drivers=SCHOOL_DRIVERS)
    return SampleSet.from_csv(inference.sample_csv(net, 10000, seed=7))


@pytest.fixture(scope="module")
def cyclic():
    return parse_program(fixture_text("cyclic.clpbn"))


# the clause calls itself with its arguments swapped
SWAPPED_SELF_CALL = """
pair(a, b). pair(b, a).
r(X, Y, A) :- pair(X, Y), r(Y, X, B),
  {A = r(X, Y) with p([t, f], [0.6, 0.3, 0.4, 0.7], [B])}.
"""

# x's clause comes first, so a bad y cell is met as a parent cell first
CHILD_FIRST = (
    "x(X) :- y(Y), {X = x with p([a, b], [0.6, 0.3, 0.4, 0.7], [Y])}.\n"
    "y(Y) :- {Y = y with p([u, v], [0.5, 0.5], [])}.\n"
)

NEAR_DETERMINISTIC = """
e(1).
src(X) :- {X = s(0) with p([t,f],[0.5,0.5],[])}.
dst(E, Y) :- e(E), src(X), {Y = d(E) with p([t,f],[1.0,0.0,0.0,1.0],[X])}.
"""

# a and b list each other and a shared root c as parents
CYCLIC_WITH_ROOT = """
ent(e1).
c(E, Z) :- ent(E), {Z = cv(E) with p([t,f],[0.5,0.5],[])}.
a(E, X) :- ent(E), b(E, Y), c(E, Z),
  {X = av(E) with p([t,f],[0.6,0.3,0.5,0.5,0.4,0.7,0.5,0.5],[Y, Z])}.
b(E, Y) :- ent(E), a(E, X), c(E, Z),
  {Y = bv(E) with p([t,f],[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5],[X, Z])}.
"""

SPURIOUS_PARENT = """
e(1).
x(X) :- {X = vx(0) with p([t,f],[0.5,0.5],[])}.
y(E, Y) :- e(E), x(X), {Y = vy(E) with p([t,f],[0.4,0.4,0.6,0.6],[X])}.
"""


def _cyclic_samples(seed, n=4000, independent_b=True):
    """Draws where a depends on b; b is uniform regardless of a."""
    rng = np.random.default_rng(seed)
    cols = ["av(e1)", "av(e2)", "bv(e1)", "bv(e2)"]
    rows = []
    for _ in range(n):
        row = {}
        for e in ("e1", "e2"):
            b = "t" if rng.random() < 0.5 else "f"
            pa = 0.6 if b == "t" else 0.3
            a = "t" if rng.random() < pa else "f"
            row[f"av({e})"] = a
            row[f"bv({e})"] = b
        rows.append([row[c] for c in cols])
    return SampleSet(cols, rows)


# --- SampleSet -----------------------------------------------------------------


def test_sampleset_csv_roundtrip():
    s = SampleSet.from_csv('x,y\na,1\n\n"b,c",2\n')
    assert (s.columns, s.rows) == (["x", "y"], [["a", "1"], ["b,c", "2"]])


def test_sampleset_rejects_ragged():
    with pytest.raises(LearnError):
        SampleSet(["x", "y"], [["a"]])


def test_sampleset_missing_column():
    s = SampleSet(["x"], [["a"]])
    with pytest.raises(LearnError):
        s.column("zz")


def test_sampleset_encodes_each_column_once():
    s = SampleSet(["x", "y", "x"], [["a", "1", "b"], ["b", "1", "a"], ["a", "2", "c"]])
    assert s.texts == [["a", "b"], ["1", "2"], ["b", "a", "c"]]
    assert s.codes.tolist() == [[0, 1, 0], [0, 0, 1], [0, 1, 2]]
    assert s.codes.dtype == np.int32
    # a duplicate header name resolves to its first column, as list.index does
    assert (s.column("x"), s.column("y")) == (0, 1)
    empty = SampleSet(["x", "y"], [])
    assert empty.texts == [[], []] and empty.codes.shape == (2, 0)


# --- structural grounding ---------------------------------------------------------


def test_structural_ground_school_nodes(school):
    net = structural_ground(school)
    labels = sorted(term_to_text(n.label) for n in net.nodes.values())
    # rating is outside the fitting fragment (computed table); all other
    # random variables appear
    assert len(labels) == 16
    assert "i(ann)" in labels and "rank(bob)" in labels
    assert not any(l.startswith("rating") for l in labels)
    ok, _ = net.check_acyclic()
    assert ok


def test_structural_ground_matches_query_grounding_edges(school):
    snet = structural_ground(school)
    qnet = inference.ground_program(school, drivers=SCHOOL_DRIVERS)

    def edges(net):
        out = set()
        for n in net.nodes.values():
            for p in n.parents:
                out.add(
                    (term_to_text(net.nodes[p].label), term_to_text(n.label))
                )
        return out

    qedges = {
        e for e in edges(qnet) if not e[1].startswith("rating")
    }
    assert edges(snet) == qedges


def test_structural_ground_cyclic(cyclic):
    net = structural_ground(cyclic)
    assert len(net) == 4
    ok, _ = net.check_acyclic()
    assert not ok


def test_structural_ground_population(school):
    from clpbn.parser import parse_term
    from clpbn.program import with_population

    pop = [parse_term("reg(r4, c2, ann)")]
    net = structural_ground(school, population=pop)
    labels = {term_to_text(n.label): n for n in net.nodes.values()}
    r4 = labels["grade(r4)"]
    assert [term_to_text(net.nodes[p].label) for p in r4.parents] == [
        "dif(c2)", "i(ann)"
    ]
    # the population is merged as if its facts ended the program text, and
    # the caller's program is left as it was
    merged = parse_program(school.to_text() + "reg(r4, c2, ann).\n")
    assert net.to_json() == structural_ground(merged).to_json()
    assert with_population(school, pop).to_text() == merged.to_text()
    assert with_population(school, []) is school
    assert len(structural_ground(school)) == len(net) - 2


def test_unknown_predicate_grounds_to_nothing():
    text = """
f(X) :- mystery(X), {X = v(1) with p([t,f],[0.5,0.5],[])}.
"""
    insts, _ = structural_instances(parse_program(text))
    assert insts[("f", 1)] == []


def test_swapped_self_call_terminates():
    # the callee is renamed apart before its head meets the goal, so the
    # recursive call maps X' -> Y and Y' -> X; mapping the clause's own X
    # and Y onto each other would loop in Subst.walk, or with unify give
    # the parent r(a, a)
    prog = parse_program(SWAPPED_SELF_CALL)
    insts, _ = structural_instances(prog)
    assert [
        (term_to_text(i.label), [term_to_text(p) for p in i.parents])
        for i in insts[("r", 3)]
    ] == [("r(a, b)", ["r(b, a)"]), ("r(b, a)", ["r(a, b)"])]
    net = structural_ground(prog)
    assert [n.parents for n in net.nodes.values()] == [(1,), (0,)]
    assert net.check_acyclic() == (False, [0, 1, 0])


def _count_calls(monkeypatch, calls, module, name):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_learning_calls_ground_and_parse_once(monkeypatch, school, school_samples):
    from clpbn import learn, program
    from clpbn.parser import parse_term

    grounds, parses = [], []
    _count_calls(monkeypatch, grounds, learn, "structural_instances")
    _count_calls(monkeypatch, parses, program, "parse_program")
    # a program object of its own, so no earlier test has planned it
    fresh = program.Program(school.items)
    fit_cpts(fresh, samples=school_samples)
    assert (len(grounds), len(parses)) == (1, 0)
    bic_score(fresh, samples=school_samples)
    fit_cpts(fresh, samples=school_samples, alpha=2.0)
    assert (len(grounds), len(parses)) == (1, 0)
    # a population costs one merge per call, shared by grounding and counting
    pop = [parse_term("reg(r4, c2, ann)")]
    samples = SampleSet.from_csv(
        inference.sample_csv(
            inference.ground_program(school, pop, drivers=SCHOOL_DRIVERS), 50, 1
        )
    )
    del grounds[:], parses[:]
    fit_cpts(school, pop, samples)
    assert (len(grounds), len(parses)) == (1, 1)
    bic_score(school, pop, samples)
    assert (len(grounds), len(parses)) == (2, 2)


def _counts_or_error(count, program, samples):
    try:
        out = count(program, (), samples)
    except LearnError as e:
        return str(e)
    return {k: (c.tolist(), ps) for k, (c, _, ps) in out.items()}


def test_count_tables_match_loop(school, school_samples):
    import random

    from oracles import count_rows

    from clpbn.learn import _count_tables

    outcome = _counts_or_error
    child_first = parse_program(CHILD_FIRST)
    child_first_samples = SampleSet.from_csv(
        inference.sample_csv(inference.ground_program(child_first), 300, 2)
    )
    rng = random.Random(11)
    errors = 0
    for program, samples in (
        (school, school_samples),
        (child_first, child_first_samples),
    ):
        assert outcome(_count_tables, program, samples) == outcome(
            count_rows, program, samples
        )
        for _ in range(25):
            rows = [list(r) for r in samples.rows[:300]]
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(rows))
                rows[i][rng.randrange(len(rows[i]))] = f"zz{rng.randint(0, 9)}"
            bad = SampleSet(list(samples.columns), rows)
            expected = outcome(count_rows, program, bad)
            errors += isinstance(expected, str)
            assert outcome(_count_tables, program, bad) == expected
        missing = SampleSet(samples.columns[1:], [r[1:] for r in samples.rows[:5]])
        assert outcome(_count_tables, program, missing) == outcome(
            count_rows, program, missing
        )
    assert errors >= 30
    # the first bad row decides; in it, the child is checked before its parent
    for rows, expected in (
        ([["a", "u"], ["b", "w"], ["c", "v"]], "value 'w' is outside a parent domain of x"),
        ([["a", "u"], ["c", "w"], ["d", "v"]], "value 'c' is outside the domain of x"),
    ):
        samples = SampleSet(["x", "y"], rows)
        assert outcome(_count_tables, child_first, samples) == expected
        assert outcome(count_rows, child_first, samples) == expected


def _net_program(net, order) -> str:
    """One defining clause per node of a netgen net, in the given order;
    node i is labelled ni."""
    clauses = []
    for node in map(net.nodes.get, order):
        pvars = [f"P{p}" for p in node.parents]
        calls = "".join(f"n{p}({v}), " for p, v in zip(node.parents, pvars))
        domain = ", ".join(map(term_to_text, node.domain))
        table = ", ".join(map(repr, node.table))
        clauses.append(
            f"n{node.id}(X) :- {calls}"
            f"{{X = n{node.id} with p([{domain}], [{table}], [{', '.join(pvars)}])}}.\n"
        )
    return "".join(clauses)


def test_count_tables_match_rows_on_random_nets():
    from netgen import random_net
    from oracles import count_rows

    from clpbn.learn import _count_tables

    rng = np.random.default_rng(17)
    kinds = {"counts": 0, "the domain": 0, "a parent domain": 0}
    for trial in range(100):
        net = random_net(rng, max_nodes=6, max_domain=3, max_evidence=0)
        # clause order decides whether a bad cell is met as a child or a parent
        program = parse_program(_net_program(net, rng.permutation(len(net)).tolist()))
        columns = [f"n{i}" for i in rng.permutation(len(net))]
        n = 0 if trial % 10 == 0 else int(rng.integers(1, 80))
        rows = [
            [f"v{rng.integers(len(net.nodes[int(c[1:])].domain))}" for c in columns]
            for _ in range(n)
        ]
        # a later column under a taken name is never read, whatever it holds
        dup = int(rng.integers(len(columns)))
        columns.append(columns[dup])
        for row in rows:
            row.append("zz")
        if n and trial % 2:
            for _ in range(int(rng.integers(1, 3))):
                rows[rng.integers(n)][rng.integers(len(columns) - 1)] = "v9"
        samples = SampleSet(columns, rows)
        expected = _counts_or_error(count_rows, program, samples)
        assert _counts_or_error(_count_tables, program, samples) == expected
        kind = "counts" if isinstance(expected, dict) else expected.split("outside ")[1].split(" of")[0]
        kinds[kind] += 1
    assert min(kinds.values()) >= 5, kinds


# a's clause joins b's instances before b's clause has found any, so a
# grounds only when it is rerun after b has grown
JOINS_LATER_CLAUSE = """
e(1). e(2).
a(E, X) :- b(E, Y), {X = va(E) with p([t,f],[0.6,0.4,0.4,0.6],[Y])}.
b(E, Y) :- e(E), {Y = vb(E) with p([t,f],[0.5,0.5],[])}.
"""


@pytest.mark.parametrize(
    "name", ["school", "school_population", "cyclic", "swapped", "child_first",
             "near_deterministic", "spurious", "joins_later_clause"]
)
def test_semi_naive_instances_match_naive_rounds(monkeypatch, name, school, cyclic):
    import oracles

    from clpbn import learn
    from clpbn.parser import parse_term

    program, pop = {
        "school": (school, []),
        "school_population": (school, [parse_term("reg(r4, c2, ann)")]),
        "cyclic": (cyclic, []),
        "swapped": (parse_program(SWAPPED_SELF_CALL), []),
        "child_first": (parse_program(CHILD_FIRST), []),
        "near_deterministic": (parse_program(NEAR_DETERMINISTIC), []),
        "spurious": (parse_program(SPURIOUS_PARENT), []),
        "joins_later_clause": (parse_program(JOINS_LATER_CLAUSE), []),
    }[name]

    def listed(insts):
        return {
            key: [(term_to_text(i.label), [term_to_text(p) for p in i.parents]) for i in found]
            for key, found in insts.items()
        }

    runs = {"semi": [], "naive": []}
    _count_calls(monkeypatch, runs["semi"], learn, "_enumerate_clause")
    _count_calls(monkeypatch, runs["naive"], oracles, "_enumerate_clause")
    semi, _ = structural_instances(program, pop)
    naive, _ = oracles.structural_instances_naive(program, pop)
    assert listed(semi) == listed(naive)
    if name == "joins_later_clause":
        assert listed(semi)[("a", 2)] == [("va(1)", ["vb(1)"]), ("va(2)", ["vb(2)"])]
    # the naive rounds end with one that reruns every job and finds nothing
    assert len(runs["semi"]) <= len(runs["naive"])
    if name.startswith("school"):
        assert len(runs["semi"]) < len(runs["naive"])


# --- fitting ------------------------------------------------------------------


def test_fit_recovers_tables(school, school_samples):
    fitted = fit_cpts(school, samples=school_samples)
    _, truth = structural_instances(school)
    _, est = structural_instances(fitted)
    for key in truth.fields:
        t = np.asarray(truth.fields[key].table)
        f = np.asarray(est.fields[key].table)
        d = len(truth.fields[key].domain)
        worst = np.abs(t.reshape(d, -1) - f.reshape(d, -1)).sum(axis=0).max()
        assert worst <= 0.05, f"{key}: column L1 {worst}"


def test_fit_keeps_untouched_clauses(school, school_samples):
    fitted = fit_cpts(school, samples=school_samples)
    orig = next(c for c in school.clauses if c.key == ("rating", 2))
    kept = next(c for c in fitted.clauses if c.key == ("rating", 2))
    assert kept.to_text() == orig.to_text()


def test_fit_columns_stochastic(school, school_samples):
    fitted = fit_cpts(school, samples=school_samples)
    _, est = structural_instances(fitted)
    for fc in est.fields.values():
        d = len(fc.domain)
        cols = np.asarray(fc.table).reshape(d, -1)
        assert np.allclose(cols.sum(axis=0), 1.0, atol=1e-9)
        assert ((cols > 0) & (cols < 1)).all()


def test_fit_empty_sample_gives_uniform(school):
    # columns are only consulted per instance row; zero rows and the
    # right columns give pure smoothing
    net = structural_ground(school)
    cols = [term_to_text(n.label) for n in net.nodes.values()]
    empty = SampleSet(cols, [])
    fitted = fit_cpts(school, samples=empty)
    _, est = structural_instances(fitted)
    intel = est.fields[("intelligence", 2)]
    assert intel.table == (0.5, 0.5)
    grade = est.fields[("grade", 2)]
    assert all(abs(x - 1 / 3) < 1e-12 for x in grade.table)


@pytest.mark.parametrize("alpha", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_bad_smoothing_constant_is_a_learn_error(school, school_samples, alpha):
    for learn_fn in (fit_cpts, bic_score):
        with pytest.raises(LearnError, match="smoothing constant must be a finite number"):
            learn_fn(school, samples=school_samples, alpha=alpha)


def test_estimates_must_be_positive_finite_numbers(school, school_samples):
    # alpha * domain size overflows, so every estimate rounds to 0
    for learn_fn in (fit_cpts, bic_score):
        with pytest.raises(LearnError, match="not a positive finite number"):
            learn_fn(school, samples=school_samples, alpha=1e308)
    # unsmoothed, a parent configuration that never occurs has no estimate:
    # fitting needs one, scoring skips it
    rows = SampleSet(school_samples.columns, school_samples.rows[:2])
    with pytest.raises(LearnError, match="never occurs in the samples"):
        fit_cpts(school, samples=rows, alpha=0.0)
    assert np.isfinite(bic_score(school, samples=rows, alpha=0.0))
    assert fit_cpts(school, samples=rows, alpha=1e300) is not None


def test_fit_near_deterministic_recovery():
    prog = parse_program(NEAR_DETERMINISTIC)
    net = inference.ground_program(
        prog, drivers=["src(X)", "e(E), dst(E, Y)"]
    )
    samples = SampleSet.from_csv(inference.sample_csv(net, 10000, seed=1))
    fitted = fit_cpts(prog, samples=samples)
    _, est = structural_instances(fitted)
    table = est.fields[("dst", 2)].table
    for x in table:
        assert x <= 0.001 or x >= 0.999


def test_fit_l1_shrinks_with_more_data(school):
    net = inference.ground_program(school, drivers=SCHOOL_DRIVERS)
    _, truth = structural_instances(school)

    def l1_at(n, seed):
        samples = SampleSet.from_csv(inference.sample_csv(net, n, seed=seed))
        fitted = fit_cpts(school, samples=samples)
        _, est = structural_instances(fitted)
        total = 0.0
        for key in truth.fields:
            t = np.asarray(truth.fields[key].table)
            f = np.asarray(est.fields[key].table)
            total += float(np.abs(t - f).sum())
        return total

    small = [l1_at(300, s) for s in range(5)]
    large = [l1_at(3000, s) for s in range(5)]
    assert np.median(large) <= np.median(small)


def _cpt_parents_in_body(program) -> int:
    """How many parents the literal tables of the program have; each must
    be the very object of a variable in a non-constraint goal of its
    clause's body."""
    from clpbn.terms import Struct, list_items, vars_of

    count = 0
    for clause in program.clauses:
        goals = [g for g in clause.body if not (isinstance(g, Struct) and g.functor == "{}")]
        body = [v for g in goals for v in vars_of(g)]
        for con in clause.constraints:
            if not isinstance(con.cpt, Struct):
                continue  # a computed table
            for parent in list_items(con.cpt.args[2]):
                assert any(parent is v for v in body), term_to_text(parent)
                count += 1
    return count


def test_plan_follows_each_sample_set(school):
    program = parse_program(school.to_text())
    net = inference.ground_program(school, drivers=SCHOOL_DRIVERS)
    good = [SampleSet.from_csv(inference.sample_csv(net, n, seed)) for seed, n in ((1, 300), (2, 40), (3, 900))]
    missing = SampleSet(good[0].columns[1:], [r[1:] for r in good[0].rows])

    def outcome(learn, program, samples):
        try:
            out = learn(program, samples=samples)
        except LearnError as e:
            return str(e)
        return out.to_text() if learn is fit_cpts else out

    for samples in (good[0], missing, good[1], good[2]):
        fresh = parse_program(school.to_text())
        for learn in (fit_cpts, bic_score):
            assert outcome(learn, program, samples) == outcome(learn, fresh, samples)
    assert outcome(fit_cpts, program, missing).startswith("sample set has no column")
    fitted = fit_cpts(program, samples=good[2])
    assert fit_cpts(fitted, samples=good[2]).to_text() == fitted.to_text()


def test_fit_with_a_population_keeps_the_clause_variables(school):
    from clpbn.parser import parse_term
    from clpbn.program import with_population

    pop = [parse_term("reg(r4, c2, ann)")]
    samples = SampleSet.from_csv(
        inference.sample_csv(inference.ground_program(school, pop, drivers=SCHOOL_DRIVERS), 200, 3)
    )
    fitted = fit_cpts(school, pop, samples)
    assert _cpt_parents_in_body(fitted) >= 4
    merged = fit_cpts(with_population(school, pop), samples=samples).to_text()
    assert fitted.to_text() + "reg(r4, c2, ann).\n" == merged


# --- BIC ----------------------------------------------------------------------


def test_bic_degenerate_single_node():
    text = "only(X) :- {X = one(a) with p([h,l],[0.9,0.1],[])}.\n"
    prog = parse_program(text)
    n = 64
    samples = SampleSet(["one(a)"], [["h"]] * n)
    score = bic_score(prog, samples=samples)
    assert score == pytest.approx(-0.5 * np.log(n), abs=1e-12)


def test_bic_zero_rows():
    prog = parse_program("only(X) :- {X = one(a) with p([h,l],[0.9,0.1],[])}.\n")
    assert bic_score(prog, samples=SampleSet(["one(a)"], [])) == 0.0


def test_bic_prefers_true_structure(school, school_samples):
    alt_text = fixture_text("school.clpbn").replace(
        "[0.4,0.9,0.4,0.0,\n              0.4,0.1,0.4,0.1,\n              0.2,0.0,0.2,0.9], [Dif, Int])",
        "[0.4,0.4,\n              0.3,0.3,\n              0.3,0.3], [Dif])",
    )
    alt = parse_program(alt_text)
    assert len(alt.clauses) == len(school.clauses)
    assert bic_score(school, samples=school_samples) > bic_score(
        alt, samples=school_samples
    )


def test_bic_penalizes_spurious_parent():
    base = """
e(1).
x(X) :- {X = vx(0) with p([t,f],[0.5,0.5],[])}.
y(E, Y) :- e(E), {Y = vy(E) with p([t,f],[0.4,0.6],[])}.
"""
    b = parse_program(base)
    s = parse_program(SPURIOUS_PARENT)
    net = inference.ground_program(b, drivers=["x(X)", "e(E), y(E, Y)"])
    for seed in range(5):
        samples = SampleSet.from_csv(inference.sample_csv(net, 10000, seed=seed))
        assert bic_score(b, samples=samples) >= bic_score(s, samples=samples)


# --- cycle removal ----------------------------------------------------------------


def test_remove_cycles_noop_on_acyclic(school, school_samples):
    assert remove_cycles(school, samples=school_samples) is school


def test_remove_cycles_breaks_mutual_dependency(cyclic):
    samples = _cyclic_samples(3)
    fixed = remove_cycles(cyclic, samples=samples)
    net = structural_ground(fixed)
    ok, _ = net.check_acyclic()
    assert ok
    # exactly one clause parent was deleted
    def parents(p):
        _, analysis = structural_instances(p)
        return sum(len(fc.parent_vars) for fc in analysis.fields.values())

    assert parents(cyclic) - parents(fixed) == 1


def test_remove_cycles_deletes_weak_edge(cyclic):
    # b was generated independent of a, so dropping b's parent loses
    # nothing; dropping a's parent would cost real likelihood
    samples = _cyclic_samples(11)
    fixed = remove_cycles(cyclic, samples=samples)
    _, analysis = structural_instances(fixed)
    assert len(analysis.fields[("a", 2)].parent_vars) == 1
    assert len(analysis.fields[("b", 2)].parent_vars) == 0


def test_remove_cycles_greedy_not_worse_than_random(cyclic):
    # with two candidate deletions the random sequence picks one at
    # uniform; greedy must match or beat it in at least 4 of 5 trials
    wins = 0
    for seed in range(5):
        samples = _cyclic_samples(seed, n=2000)
        greedy = remove_cycles(cyclic, samples=samples)
        greedy_bic = bic_score(greedy, samples=samples)
        rng = np.random.default_rng(seed)
        # random legal deletion: drop a's parent or b's parent
        _, analysis = structural_instances(cyclic)
        from clpbn.learn import _delete_parent

        choice = rng.integers(0, 2)
        key = ("a", 2) if choice == 0 else ("b", 2)
        rand = _delete_parent(cyclic, analysis.fields[key], 0, [2])
        rand_bic = bic_score(rand, samples=samples)
        if greedy_bic >= rand_bic - 1e-9:
            wins += 1
    assert wins >= 4


def test_remove_cycles_with_a_population_keeps_the_clause_variables():
    from clpbn.parser import parse_term
    from clpbn.program import with_population

    program = parse_program(CYCLIC_WITH_ROOT)
    pop = [parse_term("ent(e2)")]
    base = _cyclic_samples(5)
    rng = np.random.default_rng(5)
    samples = SampleSet(
        base.columns + ["cv(e1)", "cv(e2)"],
        [row + [str(rng.choice(["t", "f"])) for _ in range(2)] for row in base.rows],
    )
    fixed = remove_cycles(program, pop, samples)
    assert structural_ground(fixed, pop).check_acyclic()[0]
    # one of a and b lost its cyclic parent and kept c
    assert _cpt_parents_in_body(fixed) == _cpt_parents_in_body(program) - 1
    merged = remove_cycles(with_population(program, pop), samples=samples)
    assert fixed.to_text() + "ent(e2).\n" == merged.to_text()
    assert _cpt_parents_in_body(fit_cpts(fixed, pop, samples)) == 3


# --- structure comparison ----------------------------------------------------------


def test_compare_identical(school):
    r = compare_structures(school, school)
    assert r.to_json() == {
        "link_precision": 1.0,
        "link_recall": 1.0,
        "direction_match": 1.0,
        "markov_precision": 1.0,
        "markov_recall": 1.0,
    }


def test_compare_missing_arc_counts():
    truth_text = """
e(1).
a(E, X) :- e(E), {X = va(E) with p([t,f],[0.5,0.5],[])}.
b(E, Y) :- e(E), a(E, X), {Y = vb(E) with p([t,f],[0.6,0.4,0.4,0.6],[X])}.
c(E, Z) :- e(E), a(E, X), {Z = vc(E) with p([t,f],[0.6,0.4,0.4,0.6],[X])}.
"""
    learned_text = """
e(1).
a(E, X) :- e(E), {X = va(E) with p([t,f],[0.5,0.5],[])}.
b(E, Y) :- e(E), a(E, X), {Y = vb(E) with p([t,f],[0.6,0.4,0.4,0.6],[X])}.
c(E, Z) :- e(E), {Z = vc(E) with p([t,f],[0.5,0.5],[])}.
"""
    r = compare_structures(
        parse_program(learned_text), parse_program(truth_text)
    )
    assert r.link_precision == 1.0
    assert r.link_recall == pytest.approx(0.5)


def test_compare_flipped_direction():
    fwd = """
a(X) :- {X = va(1) with p([t,f],[0.5,0.5],[])}.
b(Y) :- a(X), {Y = vb(1) with p([t,f],[0.6,0.4,0.4,0.6],[X])}.
"""
    rev = """
b(Y) :- {Y = vb(1) with p([t,f],[0.5,0.5],[])}.
a(X) :- b(Y), {X = va(1) with p([t,f],[0.6,0.4,0.4,0.6],[Y])}.
"""
    r = compare_structures(parse_program(rev), parse_program(fwd))
    assert r.link_precision == 1.0 and r.link_recall == 1.0
    assert r.direction_match == 0.0
    assert r.markov_precision == 1.0 and r.markov_recall == 1.0


def test_compare_node_mismatch_raises(school, cyclic):
    with pytest.raises(LearnError):
        compare_structures(school, cyclic)
