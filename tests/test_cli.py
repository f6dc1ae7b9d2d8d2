import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import clpbn
from clpbn import cli, inference
from clpbn.fixtures import SCHOOL_DRIVERS, fixture_text

DRIVER_ARGS = sum((["--driver", d] for d in SCHOOL_DRIVERS), [])


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory, school):
    net = inference.ground_program(school, drivers=SCHOOL_DRIVERS)
    path = tmp_path_factory.mktemp("cli") / "school_samples.csv"
    path.write_text(inference.sample_csv(net, 2000, seed=5))
    return str(path)


# --- check --------------------------------------------------------------------


def test_check_school_clean(capsys):
    assert run(["check", "school.clpbn"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_check_reports_warnings(capsys):
    assert run(["check", "hmm.clpbn"]) == 0
    out = capsys.readouterr().out
    assert "column 4 sums to 0.1" in out
    assert "0 error(s), 1 warning(s)" in out


def test_check_json(capsys):
    assert run(["check", "int_table.clpbn", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["errors"] == 0
    assert doc["warnings"] == 1
    assert len(doc["diagnostics"]) == 1


def test_check_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.clpbn"
    bad.write_text("w(X) :- {X = s(a) with p([h,l],[0.5,0.5],[P])}.\n")
    assert run(["check", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "1 error(s)" in out


def test_missing_file_exits_2(capsys):
    assert run(["check", "no_such_program.clpbn"]) == 2
    assert "cannot read" in capsys.readouterr().err


# --- query --------------------------------------------------------------------


def test_query_text_marginal(capsys):
    assert run(["query", "school.clpbn", "-q", "grade(r2, G)."]) == 0
    out = capsys.readouterr().out
    assert out == "G = {a: 0.415, b: 0.31, c: 0.275}\n"


def test_query_conditional(capsys):
    code = run(
        [
            "query",
            "school.clpbn",
            "-q",
            "intelligence(ann, I), grade(r2, a).",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    [answer] = doc["answers"]
    m = answer["marginals"]["I"]
    assert m["node"] == "i(ann)"
    assert m["probs"][0] == pytest.approx(0.6746987951807228, abs=1e-9)


def test_query_failure_exits_1(capsys):
    assert run(["query", "school.clpbn", "-q", "grade(r99, G)."]) == 1
    assert capsys.readouterr().out == "no.\n"


def test_query_json_bytes_stable(capsys):
    argv = ["query", "school.clpbn", "-q", "reg(R, C, S), grade(R, G).", "--format", "json", "--limit", "3"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert len(doc["answers"]) == 3
    assert doc["answers"][0]["bindings"]["R"] == "r1"


def test_query_inconsistent_evidence_exits_1(tmp_path, capsys):
    prog = tmp_path / "dead.clpbn"
    prog.write_text(
        "a(X) :- {X = av(1) with p([t,f],[1.0,0.0],[])}.\n"
        ":- evidence(av(1), f).\n"
    )
    assert run(["query", str(prog), "-q", "a(X)."]) == 1
    assert "error:" in capsys.readouterr().err


def test_query_level_constraints_keep_the_exit_code_contract(tmp_path, capsys):
    prog = tmp_path / "coin.clpbn"
    prog.write_text("coin(X) :- {X = c with p([h,t],[0.5,0.5],[])}.\n")
    # foo(a) unifies with no value of the domain, yet it names X
    assert run(["query", str(prog), "-q", "{X = foo(a) with p([h,t],[0.3,0.7],[])}."]) == 0
    assert capsys.readouterr().out == "X = {h: 0.3, t: 0.7}\n"
    for parents, table, message in [
        ("[X]", [0.5] * 6, "table length 6 does not match domain x parents (4)"),
        ("[X, X]", [0.5] * 8, "duplicate parent in constraint"),
    ]:
        cells = ",".join(map(str, table))
        query = f"coin(X), {{Y = b with p([h,t],[{cells}],{parents})}}."
        assert run(["query", str(prog), "-q", query]) == 2
        assert capsys.readouterr().err == f"error: posting b: {message}\n"


def test_query_depth_flag(capsys):
    code = run(["query", "hmm.clpbn", "-q", "caught(3, C).", "--depth", "4"])
    assert code == 1
    assert "depth exceeded" in capsys.readouterr().err
    assert run(["query", "hmm.clpbn", "-q", "caught(3, C)."]) == 0
    assert "C = {" in capsys.readouterr().out


# --- usage errors ----------------------------------------------------------------


def test_no_arguments_exits_3(capsys):
    assert run([]) == 3


def test_unknown_subcommand_exits_3(capsys):
    assert run(["frobnicate", "school.clpbn"]) == 3


def test_sample_requires_seed(capsys):
    assert run(["sample", "school.clpbn", "-n", "5"]) == 3
    assert "--seed" in capsys.readouterr().err


def test_seed_must_be_u64(capsys):
    assert run(["sample", "school.clpbn", "-n", "5", "--seed", "-1"]) == 3


def test_sample_negative_rows_is_usage_error(capsys):
    argv = ["sample", "school.clpbn", "-n", "-5", "--seed", "1"] + DRIVER_ARGS
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "argument -n: must be at least 0" in err
    assert "Traceback" not in err


def test_sample_zero_rows_prints_header(capsys):
    argv = ["sample", "school.clpbn", "-n", "0", "--seed", "1"] + DRIVER_ARGS
    assert run(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--limit", "--depth"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_query_limit_and_depth_must_be_positive(capsys, flag, value):
    argv = ["query", "school.clpbn", "-q", "reg(R, C, S), grade(R, G).", flag, value]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least 1" in captured.err


def test_repl_limit_must_be_positive(capsys):
    assert run(["repl", "school.clpbn", "--limit", "0"]) == 3
    assert "argument --limit: must be at least 1" in capsys.readouterr().err


def test_integer_flag_rejects_text(capsys):
    argv = ["query", "school.clpbn", "-q", "grade(r2, G).", "--limit", "two"]
    assert run(argv) == 3
    assert "invalid int value: 'two'" in capsys.readouterr().err


# --- sample / ground --------------------------------------------------------------


def test_sample_deterministic(capsys):
    argv = ["sample", "school.clpbn", "-n", "10", "--seed", "42"] + DRIVER_ARGS
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().split("\n")
    assert len(lines) == 11
    assert "i(ann)" in lines[0].split(",")


def test_ground_json_roundtrip(capsys):
    argv = ["ground", "school.clpbn", "--format", "json"] + DRIVER_ARGS
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    by_id = {n["id"]: n for n in doc["nodes"]}
    assert len(by_id) == len({n["label"] for n in doc["nodes"]}) == 18
    for n in doc["nodes"]:
        cols = math.prod(len(by_id[p]["domain"]) for p in n["parents"])
        assert len(n["table"]) == len(n["domain"]) * cols
        assert n["evidence"] in [None] + n["domain"]


def test_ground_with_fact(capsys):
    argv = [
        "ground",
        "school.clpbn",
        "--format",
        "json",
        "--fact",
        "reg(r4, c2, ann)",
        "--driver",
        "reg(R, C, S), grade(R, G)",
    ]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    labels = {n["label"] for n in doc["nodes"]}
    assert "grade(r4)" in labels


# --- compile-prm -------------------------------------------------------------------


def test_compile_prm(capsys):
    code = run(
        [
            "compile-prm",
            "--schema",
            "school_schema.json",
            "--skeleton",
            "school_skeleton_small.json",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "registration4(" in out
    assert "professor2(" in out


def _school_schema_without_grade_domain() -> str:
    doc = json.loads(fixture_text("school_schema.json"))
    del doc["tables"][3]["probabilistic"]["grade"]["domain"]
    return json.dumps(doc)


# case -> (input, its text, the start of the one error line compile-prm prints)
MALFORMED_PRM = {
    "schema-empty": ("schema", "{}", "malformed schema: missing entry 'tables'"),
    "schema-no-fields": (
        "schema", '{"tables": [{"name": "a"}]}', "malformed schema: missing entry 'fields'"),
    "schema-no-domain": (
        "schema", _school_schema_without_grade_domain(), "malformed schema: missing entry 'domain'"),
    "schema-not-json": (
        "schema", "not json", "malformed schema: Expecting value: line 1 column 1 (char 0)"),
    "schema-list": (
        "schema", "[1, 2]", "malformed schema: list indices must be integers or slices, not str"),
    "schema-too-deep": (
        "schema", "[" * 100_000, "malformed schema: maximum recursion depth exceeded"),
    "skeleton-row-not-object": (
        "skeleton", '{"student": [1]}', "malformed skeleton: 'int' object has no attribute 'values'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PRM))
def test_malformed_prm_inputs_keep_the_exit_code_contract(tmp_path, case):
    which, text, message = MALFORMED_PRM[case]
    path = tmp_path / f"{which}.json"
    path.write_text(text)
    files = {"schema": "school_schema.json", "skeleton": "school_skeleton_small.json", which: str(path)}
    code, out, err = _main_captured(
        ["compile-prm", "--schema", files["schema"], "--skeleton", files["skeleton"]]
    )
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(f"error: {message}")


def test_unreadable_inputs_exit_2(tmp_path):
    binary = tmp_path / "samples.csv"
    binary.write_bytes(b"\xff\xfe\x00")
    code, out, err = _main_captured(["check", str(tmp_path)])
    assert (code, out, err) == (2, "", f"error: cannot read {tmp_path}: Is a directory\n")
    code, out, err = _main_captured(["fit", "school.clpbn", "--samples", str(binary)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {binary}: not UTF-8 text (invalid start byte)\n"


# --- fit / score / compare ----------------------------------------------------------


def test_fit_outputs_program(sample_file, capsys):
    assert run(["fit", "school.clpbn", "--samples", sample_file]) == 0
    out = capsys.readouterr().out
    from clpbn.program import parse_program

    fitted = parse_program(out)
    assert len(fitted.clauses) > 0
    assert "intelligence(" in out


def test_score_text_and_json(sample_file, capsys):
    assert run(["score", "school.clpbn", "--samples", sample_file]) == 0
    text = capsys.readouterr().out
    assert text.startswith("bic ")
    assert run(
        ["score", "school.clpbn", "--samples", sample_file, "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == 2000
    assert doc["bic"] == pytest.approx(float(text.split()[1]))
    assert doc["bic"] < 0


def test_compare_self(capsys):
    assert run(["compare", "school.clpbn", "school.clpbn", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc.values()) == {1.0}


# --- agree --------------------------------------------------------------------


def test_agree_school(capsys):
    assert run(["agree", "school.clpbn"] + DRIVER_ARGS) == 0
    out = capsys.readouterr().out
    assert out.strip().split("\n")[-1] == "agree"


def test_agree_impossible_tolerance_exits_1(capsys):
    argv = ["agree", "school.clpbn", "--agree-tolerance", "1e-30"] + DRIVER_ARGS
    assert run(argv) == 1
    out = capsys.readouterr().out
    assert out.strip().split("\n")[-1] == "disagree"


# --- large terms and the exit-code contract ------------------------------------


def _main_captured(argv):
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _wide_program(child_domain, parent_domains, table=None):
    """Roots y0, y1, ... with uniform tables and a child x over all of them;
    x's table defaults to uniform columns."""
    lines = []
    for i, d in enumerate(parent_domains):
        values = ", ".join(f"v{j}" for j in range(d))
        probs = ", ".join([repr(1.0 / d)] * d)
        lines.append(f"y{i}(Y) :- {{Y = y{i} with p([{values}], [{probs}], [])}}.")
    cols = math.prod(parent_domains)
    if table is None:
        table = [1.0 / child_domain] * (child_domain * cols)
    calls = "".join(f"y{i}(Y{i}), " for i in range(len(parent_domains)))
    parents = ", ".join(f"Y{i}" for i in range(len(parent_domains)))
    values = ", ".join(f"x{j}" for j in range(child_domain))
    entries = ", ".join(repr(x) for x in table)
    lines.append(
        f"x(X) :- {calls}{{X = x with p([{values}], [{entries}], [{parents}])}}."
    )
    return "\n".join(lines) + "\n"


def test_700_value_table_answers_under_every_command(tmp_path):
    # a 700-value root and a 1,400-entry child table: one CPT list deeper
    # than Python's default recursion limit
    prog = tmp_path / "wide.clpbn"
    prog.write_text(_wide_program(2, [700]))
    code, csv_text, err = _main_captured(
        ["sample", str(prog), "-n", "200", "--seed", "3"]
    )
    assert (code, err) == (0, "")
    samples = tmp_path / "wide.csv"
    samples.write_text(csv_text)
    for argv in (
        ["query", str(prog), "-q", "x(X), y0(v699)."],
        ["ground", str(prog)],
        ["agree", str(prog)],
        ["fit", str(prog), "--samples", str(samples)],
        ["score", str(prog), "--samples", str(samples)],
    ):
        code, out, err = _main_captured(argv)
        assert (code, err) == (0, ""), argv
        assert out
    code, out, _ = _main_captured(["query", str(prog), "-q", "y0(Y)."])
    assert code == 0 and "v699" in out


def test_wide_domain_lookups_are_linear(tmp_path, monkeypatch):
    # a 1,500-value root and a 3,000-entry child table: domain lookups and
    # duplicate checks keyed by value, not by comparing every pair
    import clpbn.terms

    prog = tmp_path / "wide.clpbn"
    prog.write_text(_wide_program(2, [1500]))
    calls = [0]
    original = clpbn.terms.term_equal

    def counted(a, b):
        calls[0] += 1
        return original(a, b)

    for module in ("terms", "network", "engine", "inference", "program", "learn"):
        module = getattr(clpbn, module)
        if hasattr(module, "term_equal"):
            monkeypatch.setattr(module, "term_equal", counted)
    code, out, err = _main_captured(["agree", str(prog), "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["agree"]
    assert calls[0] < 100_000


# number literals that no int or float holds, with the syntax error each gives
BAD_LITERALS = {
    "1.0e999": "float literal out of range",
    "-1.0e999": "float literal out of range",
    "9" * 5000: "integer literal has too many digits",
    "-" + "9" * 5000: "integer literal has too many digits",
}


@pytest.mark.parametrize("literal", sorted(BAD_LITERALS))
@pytest.mark.parametrize("where", ["program", "query"])
def test_unrepresentable_literals_are_syntax_errors(tmp_path, literal, where):
    prog = tmp_path / "lit.clpbn"
    col = 5 + literal.startswith("-")
    if where == "program":
        prog.write_text(f"f(1).\nbig({literal}).\n")
        query, line = "big(X).", 2
    else:
        prog.write_text("f(1).\n")
        query, line = f"X = {literal}.", 1
    code, out, err = _main_captured(["query", str(prog), "-q", query])
    assert (code, out) == (2, "")
    assert err == f"error: line {line}:{col}: {BAD_LITERALS[literal]}\n"


@st.composite
def _large_input(draw):
    """A program with a wide table, a long list, a long t/2 chain or a
    number literal no int or float holds, and one command line to run on
    it."""
    kind = draw(st.sampled_from(["wide", "list", "chain", "literal"]))
    if kind == "wide":
        child = draw(st.integers(2, 4))
        parents = draw(
            st.one_of(
                st.lists(st.integers(2, 15), max_size=3),
                st.integers(16, 750).map(lambda d: [d]),
            )
        )
        while child * math.prod(parents) > 3000:
            parents.pop()
        size = child * math.prod(parents)
        table = draw(
            st.one_of(
                st.none(),
                st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), min_size=size,
                         max_size=size),
                st.just([0.5] * (size - 1)),
            )
        )
        text = _wide_program(child, parents, table)
        argv = draw(
            st.sampled_from(
                [["check"], ["query", "-q", "x(X)."], ["ground"],
                 ["sample", "-n", "5", "--seed", "1"], ["agree"]]
            )
        )
    elif kind == "list":
        n = draw(st.integers(1, 5000))
        text = "items([" + ", ".join(f"e{i}" for i in range(n)) + "]).\n"
        text += "items([" + ", ".join(str(i / 4) for i in range(n)) + "|T]).\n"
        argv = draw(
            st.sampled_from(
                [["check"], ["query", "-q", "items(L)."],
                 ["query", "-q", "items([e0|T]).", "--limit", "2"]]
            )
        )
    elif kind == "literal":
        literal = draw(st.sampled_from(sorted(BAD_LITERALS)))
        if draw(st.booleans()):
            text, argv = f"big({literal}).\n", ["query", "-q", "big(X)."]
        else:
            text, argv = "f(1).\n", ["query", "-q", f"X = {literal}."]
    else:
        text = (
            "t(0, X) :- !, {X = t(0) with p([a, b], [0.5, 0.5], [])}.\n"
            "t(I, X) :- I1 is I - 1, t(I1, Y),\n"
            "    {X = t(I) with p([a, b], [0.6, 0.3, 0.4, 0.7], [Y])}.\n"
        )
        command = draw(st.sampled_from(["query", "ground", "sample", "agree"]))
        # agree runs variable elimination for every (evidence node, value,
        # query node) triple, cubic in the chain length: keep it short
        n = draw(st.integers(1, 12 if command == "agree" else 400))
        goal = f"t({n}, X)"
        argv = {
            "query": ["query", "-q", goal + "."],
            "ground": ["ground", "--driver", goal],
            "sample": ["sample", "-n", "3", "--seed", "2", "--driver", goal],
            "agree": ["agree", "--driver", goal],
        }[command]
        if command != "agree" and draw(st.booleans()):
            argv = argv + ["--depth", str(draw(st.integers(1, 2 * n + 2)))]
    return text, argv


@settings(max_examples=15, deadline=None)
@given(_large_input())
def test_large_inputs_keep_the_exit_code_contract(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        prog = os.path.join(tmp, "p.clpbn")
        with open(prog, "w") as f:
            f.write(text)
        code, _, err = _main_captured([argv[0], prog] + argv[1:])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# A term nested once per resolution step: printing the answer, or
# evaluating it, goes as deep as the derivation.
DEEP_TERMS = {
    "printer": (
        "build(0, z).\nbuild(N, s(T)) :- N > 0, M is N - 1, build(M, T).\n",
        "build(400, T).",
        "T = " + "s(" * 400 + "z" + ")" * 400 + "\n",
    ),
    "arithmetic": (
        "expr(0, 0).\nexpr(N, E + 1) :- N > 0, M is N - 1, expr(M, E).\n",
        "expr(2000, E), X is E.",
        "X = 2000\n",
    ),
}


@pytest.mark.parametrize("name", sorted(DEEP_TERMS))
def test_deep_runtime_terms_keep_the_exit_code_contract(tmp_path, name):
    text, query, line = DEEP_TERMS[name]
    prog = tmp_path / "deep.clpbn"
    prog.write_text(text)
    code, out, err = _main_captured(["query", str(prog), "-q", query])
    assert (code, err) == (0, "")
    assert line in out


# Results that could not be printed back as numbers stop the query with
# exit 1 (an int power is refused before it is computed); results just
# inside those limits still answer.
ARITHMETIC_LIMITS = {
    "X is 10.0 ^ 400.": (1, "error: float overflow\n"),
    "X is 1.0e308 * 10.0.": (1, "error: float overflow\n"),
    "X is 10 ^ 400 / 3.": (1, "error: float overflow\n"),
    "X is (0 - 8) ^ 0.5.": (1, "error: result is not a real number\n"),
    "X is 2 ^ 100000.": (1, "error: integer result over 14000 bits\n"),
    "X is 10 ^ 10 ^ 10.": (1, "error: integer result over 14000 bits\n"),
    "X is 2 ^ 10000 * 2 ^ 10000.": (1, "error: integer result over 14000 bits\n"),
    "X is 2 ^ 13000, Y is X mod 7.": (0, "Y = 2\n"),
    "X is 1 ^ 10 ^ 10.": (0, "X = 1\n"),
    "X is (0 - 2) ^ 3.": (0, "X = -8\n"),
    "X is 2.0 ^ 1000.": (0, "X = 1.0715086071862673e+301\n"),
}


@pytest.mark.parametrize("query", sorted(ARITHMETIC_LIMITS))
def test_arithmetic_limits_keep_the_exit_code_contract(tmp_path, query):
    prog = tmp_path / "one.clpbn"
    prog.write_text("f(1).\n")
    code, out, err = _main_captured(["query", str(prog), "-q", query])
    want_code, want = ARITHMETIC_LIMITS[query]
    if want_code:
        assert (code, out, err) == (1, "", want)
    else:
        assert (code, err) == (0, "")
        assert want in out


def test_posting_errors_name_the_constraint(tmp_path):
    # CPTs computed by body goals pass `check`; posting rejects them and
    # names the Skolem label it was posting
    prog = tmp_path / "computed.clpbn"
    prog.write_text(
        "c(p([a,a],[0.5,0.5],[])).\n"
        "k(X) :- c(C), {X = kv with C}.\n"
        "q(a).\n"
        "u(X) :- q(Y), {X = uv(Y) with p([a,b],[0.5,0.5,0.5,0.5],[Y])}.\n"
    )
    for query, err_line in [
        ("k(X).", "error: posting kv: domain values are not distinct: a\n"),
        ("u(X).", "error: posting uv(a): parent is not a constrained variable: a\n"),
    ]:
        assert _main_captured(["query", str(prog), "-q", query]) == (2, "", err_line)


# --- repl ---------------------------------------------------------------------


def test_repl_matches_query(monkeypatch, capsys):
    assert run(["query", "school.clpbn", "-q", "grade(r2, G)."]) == 0
    query_out = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO("grade(r2, G).\nhalt.\n"))
    assert run(["repl", "school.clpbn"]) == 0
    assert capsys.readouterr().out == query_out


def test_repl_recovers_from_errors(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("][bogus\n\ngrade(r2, G).\n")
    )
    assert run(["repl", "school.clpbn"]) == 0
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "G = {a: 0.415," in captured.out


def test_repl_prints_every_constrained_variable(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO("intelligence(ann, I), difficulty(c1, D).\nquit.\n"),
    )
    assert run(["repl", "school.clpbn"]) == 0
    out = capsys.readouterr().out
    assert "D = {" in out and "I = {" in out


# --- installed entry points ----------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "clpbn", "query", "school.clpbn", "-q", "grade(r2, G)."],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "G = {a: 0.415, b: 0.31, c: 0.275}\n"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script():
    """The `clpbn` target of `[project.scripts]`, as `(module, function)`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["clpbn"]
    module, _, function = target.strip().partition(":")
    return module, function


def test_console_script():
    # Runs the declared entry point through the launcher pip writes for a
    # console script, so no install is needed; an installed `clpbn` on PATH
    # is run as well.
    module, function = declared_console_script()
    launcher = (
        f"import sys; from {module} import {function}; "
        f"sys.argv[0] = 'clpbn'; sys.exit({function}())"
    )
    package_root = str(Path(clpbn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    runs = [([sys.executable, "-c", launcher], env)]
    installed = shutil.which("clpbn")
    if installed:
        runs.append(([installed], None))
    for command, run_env in runs:
        proc = subprocess.run(
            command + ["check", "school.clpbn"],
            capture_output=True,
            text=True,
            env=run_env,
        )
        assert proc.returncode == 0
        assert "0 error(s)" in proc.stdout


# --- numeric options ---------------------------------------------------------------

GOLDEN_SAMPLES = Path(__file__).resolve().parent / "golden" / "sample_school.csv"
ALPHA_USAGE = "error: argument --alpha: must be a finite number at least 0\n"
TOLERANCE_USAGE = "error: argument --tolerance: must be a finite number at least 0\n"
ALPHA_OVERFLOW = (
    "error: smoothing constant 1e+308 gives an estimate that is not a positive "
    "finite number\n"
)

# argv (TWO_ROWS and ALL_ROWS name sample files) -> exit code, stderr's end
BAD_NUMERIC_OPTIONS = {
    ("score", "school.clpbn", "--samples", "TWO_ROWS", "--alpha=-1"): (3, ALPHA_USAGE),
    ("score", "school.clpbn", "--samples", "ALL_ROWS", "--alpha=1e308"): (2, ALPHA_OVERFLOW),
    ("fit", "school.clpbn", "--samples", "ALL_ROWS", "--alpha=1e308"): (2, ALPHA_OVERFLOW),
    ("fit", "school.clpbn", "--samples", "ALL_ROWS", "--alpha=nan"): (3, ALPHA_USAGE),
    ("score", "school.clpbn", "--samples", "ALL_ROWS", "--alpha=nan"): (3, ALPHA_USAGE),
    ("fit", "school.clpbn", "--samples", "ALL_ROWS", "--alpha=inf"): (3, ALPHA_USAGE),
    ("fit", "school.clpbn", "--samples", "ALL_ROWS", "--alpha=x"): (
        3, "error: argument --alpha: invalid float value: 'x'\n"),
    ("check", "hmm.clpbn", "--tolerance=nan"): (3, TOLERANCE_USAGE),
    ("check", "hmm.clpbn", "--tolerance=-1"): (3, TOLERANCE_USAGE),
    ("query", "hmm.clpbn", "-q", "caught(1, C).", "--tolerance=-inf"): (3, TOLERANCE_USAGE),
    # a NaN agreement tolerance passed every comparison, -1 failed them all
    ("agree", "school.clpbn", "--agree-tolerance=nan"): (
        3, "error: argument --agree-tolerance: must be a finite number at least 0\n"),
    ("agree", "school.clpbn", "--agree-tolerance=-1"): (
        3, "error: argument --agree-tolerance: must be a finite number at least 0\n"),
}


@pytest.mark.parametrize("argv", sorted(BAD_NUMERIC_OPTIONS), ids=" ".join)
def test_bad_numeric_options_keep_the_exit_code_contract(tmp_path, argv):
    # a negative, infinite or NaN alpha or tolerance is a usage error; an
    # alpha so large that the estimates round to 0 is a learning error
    two_rows = tmp_path / "two.csv"
    two_rows.write_text("".join(GOLDEN_SAMPLES.read_text().splitlines(keepends=True)[:3]))
    files = {"TWO_ROWS": str(two_rows), "ALL_ROWS": str(GOLDEN_SAMPLES)}
    code, out, err = _main_captured([files.get(a, a) for a in argv])
    want_code, want_end = BAD_NUMERIC_OPTIONS[argv]
    assert (code, out) == (want_code, "")
    assert err.endswith(want_end) and "Traceback" not in err


def test_zero_alpha_and_tolerance_are_accepted(tmp_path):
    code, out, err = _main_captured(
        ["score", "school.clpbn", "--samples", str(GOLDEN_SAMPLES), "--alpha=0", "--tolerance=0"]
    )
    assert (code, err) == (0, "") and out.startswith("bic ")
    code, out, err = _main_captured(["check", "hmm.clpbn", "--tolerance", "0"])
    assert code == 0 and err == "" and "1 warning(s)" in out
