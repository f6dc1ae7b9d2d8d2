import pytest
from hypothesis import given
from hypothesis import strategies as st

from clpbn.errors import ClpbnSyntaxError, InvalidProgramError, MalformedCptError
from clpbn.parser import term_to_text
from clpbn.program import Clause, Directive, cpt_spec_from_term, parse_program
from clpbn.parser import parse_term


def _codes(text):
    return [d.code for d in parse_program(text).validate()]


def _diags(text):
    return parse_program(text).validate()


GOOD = "q(X) :- {X = s(a) with p([h,l],[0.5,0.5],[])}.\n"


def test_clean_program_has_no_diagnostics():
    assert _codes(GOOD) == []


def test_school_fixture_clean(school):
    assert school.validate() == []


def test_hmm_warns_on_column_four(hmm):
    diags = hmm.validate()
    assert [d.severity for d in diags] == ["warning"]
    assert diags[0].code == "non-normalized-column"
    assert "column 4" in diags[0].message and "0.1" in diags[0].message


def test_hmm_fixed_clean(hmm_fixed):
    assert hmm_fixed.validate() == []


# --- well-formedness codes, one fixture per code --------------------------------

WF1 = "w1(X) :- {X = s1(a) with p([h,l],[0.5,0.5],[P])}.\n"
WF2 = (
    "w2a(X) :- {X = shared(k) with p([h,l],[0.5,0.5],[])}.\n"
    "w2b(X) :- {X = shared(k) with p([h,l],[0.5,0.5],[])}.\n"
)
WF3A = "w3(X) :- {X = s3(a) with p(oops,[0.5,0.5],[])}.\n"
WF3B = "w4(X) :- {X = s4(a) with p([h,l],[0.5,0.5],oops)}.\n"
WF3C = "w5(X) :- {X = s5(a) with p([h,l],[0.5,0.5,0.5],[])}.\n"


@pytest.mark.parametrize(
    "text,code",
    [(WF1, "WF1"), (WF2, "WF2"), (WF3A, "WF3a"), (WF3B, "WF3b"), (WF3C, "WF3c")],
    ids=["WF1", "WF2", "WF3a", "WF3b", "WF3c"],
)
def test_wf_codes(text, code):
    assert _codes(text) == [code]


def test_wf3a_duplicate_domain_value():
    text = "d(X) :- {X = s6(a) with p([h,h],[0.5,0.5],[])}.\n"
    assert _codes(text) == ["WF3a"]


def test_duplicate_domain_value_reports_the_first_repeated():
    # a and b both repeat; the error names a, whose first copy comes first,
    # and 1 and 1.0 are different values
    values = "[a, 1, b, 1.0, a, b]"
    text = f"d(X) :- {{X = s6(a) with p({values},[0.5,0.5,0,0,0,0],[])}}.\n"
    (diag,) = _diags(text)
    assert diag.message == "domain values are not distinct: a"
    with pytest.raises(MalformedCptError, match="domain values are not distinct: a$"):
        cpt_spec_from_term(parse_term(f"p({values}, [0.5,0.5,0,0,0,0], [])"), lambda t: False)
    assert _diags("d(X) :- {X = s6(a) with p([1, 1.0],[0.5,0.5],[])}.\n") == []


def test_wf3c_non_p_cpt():
    text = "c6(X) :- {X = s7(a) with q([h],[1.0])}.\n"
    assert _codes(text) == ["WF3c"]


def test_wf2_allows_specialization_chain():
    # a recursive family may re-introduce the functor at different terms
    text = """
base(X) :- {X = c(0) with p([t,f],[0.5,0.5],[])}.
step(I, X) :- I > 0, {X = c(I) with p([t,f],[0.5,0.5],[])}.
"""
    assert _codes(text) == []


def test_wf1_var_only_in_skolem_argument():
    text = "v(X) :- {X = s8(Q) with p([h,l],[0.5,0.5],[])}.\n"
    assert _codes(text) == ["WF1"]


def test_non_normalized_column_threshold():
    off = "n1(X) :- {X = s9(a) with p([h,l],[0.6,0.5],[])}.\n"
    diags = _diags(off)
    assert [d.code for d in diags] == ["non-normalized-column"]
    assert diags[0].severity == "warning"
    # within tolerance: quiet
    near = "n2(X) :- {X = s10(a) with p([h,l],[0.5000000001,0.4999999999],[])}.\n"
    assert _codes(near) == []


def test_validate_honours_each_tolerance_on_one_program():
    program = parse_program("n1(X) :- {X = s9(a) with p([h,l],[0.6,0.5],[])}.\n")
    assert [d.code for d in program.validate(1e-6)] == ["non-normalized-column"]
    assert program.validate(0.5) == []
    assert program.validate(1e-6) is program.validate(1e-6)


def test_fact_scan_warns_on_non_normalized_bound_table(school):
    from clpbn.fixtures import fixture_text

    diags = parse_program(fixture_text("int_table.clpbn")).validate()
    assert [d.code for d in diags] == ["non-normalized-column"]
    assert "int_table" in diags[0].message


# --- structure ------------------------------------------------------------------


def test_items_clauses_directives():
    p = parse_program(":- skolem_constants([sk1]).\nf(a).\ng(X) :- f(X).\n")
    kinds = [type(i).__name__ for i in p.items]
    assert kinds == ["Directive", "Clause", "Clause"]
    assert p.clauses[1].key == ("g", 1)
    assert ("sk1" in p.skolem_constants)


def test_evidence_directive_collected():
    p = parse_program(
        "e(X) :- {X = ev(a) with p([h,l],[0.5,0.5],[])}.\n:- evidence(ev(a), h).\n"
    )
    assert len(p.evidence) == 1
    label, value = p.evidence[0]
    assert term_to_text(label) == "ev(a)"
    assert term_to_text(value) == "h"


def test_skolem_registry(school):
    for functor in ["ab", "pop", "dif", "i", "grade", "sat", "rating", "rank"]:
        assert (functor, 1) in school.skolem_registry


def test_to_text_reparses(school):
    text = school.to_text()
    again = parse_program(text)
    assert again.validate() == []
    assert len(again.clauses) == len(school.clauses)
    # printing is a fixed point once normalized
    assert again.to_text() == text


def test_clause_to_text():
    c = parse_program("h(X) :- a(X), b(X).\n").clauses[0]
    assert c.to_text() == "h(X) :- a(X), b(X)."
    d = Directive(parse_term("skolem_constants([sk1])"))
    assert d.to_text() == ":- skolem_constants([sk1])."


# --- cpt_spec_from_term ----------------------------------------------------------


def _spec(text):
    p = parse_program(GOOD)
    return cpt_spec_from_term(parse_term(text), p.is_skolem_term)


def test_cpt_spec_ok():
    spec = _spec("p([h,l],[0.3,0.7],[])")
    assert [term_to_text(v) for v in spec.domain] == ["h", "l"]
    assert spec.table == (0.3, 0.7)
    assert spec.parents == ()


def test_cpt_spec_rejects_bad_shapes():
    bad = [
        "q([h],[1.0])",  # not p/3
        "p(x,[0.5],[])",  # domain not list
        "p([h,l],[0.5],[])",  # length not a multiple
        "p([h,l],[0.5,x],[])",  # non-number entry
        "p([h,l],[0.5,1.5],[])",  # out of [0,1]
        "p([h,l],[0.5,0.5],x)",  # parents not list
    ]
    for text in bad:
        with pytest.raises(MalformedCptError):
            _spec(text)


def _list_text(items, tail=None):
    return "[" + ", ".join(items) + (f"|{tail}" if tail else "") + "]"


_value = st.sampled_from(["a", "b", "1", "1.0", "sv", "f(sv)", "f(a)"])
_entry = st.sampled_from(["0", "0.5", "1", "1.0", "0.25", "1.5", "-0.5", "x", "f(a)"])
_improper = st.sampled_from(["oops", "3", "[a|b]"])


@st.composite
def _ground_cpt_text(draw):
    """A ground CPT term: mostly p/3 with empty, improper, repeating or
    Skolem-holding domains and empty, out-of-range, non-numeric or
    wrongly sized tables. sv is the Skolem term the clause introduces."""
    if draw(st.integers(0, 9)) == 0:
        return "q([a], [1.0])"
    domain = draw(st.one_of(st.lists(_value, max_size=3).map(_list_text), _improper))
    table = draw(st.one_of(st.lists(_entry, max_size=6).map(_list_text), _improper))
    parents = draw(st.sampled_from(["[]", "[sv]", "oops", "[sv|b]"]))
    return f"p({domain}, {table}, {parents})"


@given(_ground_cpt_text())
def test_check_and_posting_apply_one_set_of_cpt_rules(text):
    # validate reports a WF3 error exactly when posting rejects the term,
    # and both name the same first violation
    p = parse_program(f"t(X) :- {{X = sv with {text}}}.\n")
    errors = [d.message for d in p.validate() if d.code.startswith("WF3")]
    try:
        cpt_spec_from_term(p.clauses[0].constraints[0].cpt, p.is_skolem_term)
        raised = None
    except MalformedCptError as e:
        raised = str(e)
    assert raised == (errors[0] if errors else None)


def test_empty_domain_and_table_are_errors_at_load_time():
    assert _codes("e(X) :- {X = ev with p([], [], [])}.\n") == ["WF3a", "WF3c"]
    assert _codes("f(X) :- {X = fv with p([a], [], [])}.\n") == ["WF3c"]


def test_posting_rejects_a_cpt_still_unbound():
    for text in ("p([h,l],T,[])", "p([h,l],[0.5,W],[])", "p([h,l],[0.5,0.5],Ps)"):
        with pytest.raises(MalformedCptError, match="not bound when posted"):
            _spec(text)


def test_program_level_errors_raise_on_ensure_valid():
    p = parse_program(WF1)
    with pytest.raises(InvalidProgramError):
        p.ensure_valid()


def test_parse_error_has_line():
    with pytest.raises(ClpbnSyntaxError):
        parse_program("f(a.\n")
