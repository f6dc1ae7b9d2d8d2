import copy
import json

import pytest

from clpbn import inference, prm
from clpbn.engine import Engine
from clpbn.errors import PrmError
from clpbn.fixtures import fixture_text
from clpbn.parser import term_to_text
from clpbn.program import parse_program
from clpbn.terms import Struct

from oracles import prm_roundtrip_diffs


def _schema_doc():
    return json.loads(fixture_text("school_schema.json"))


def _skeleton_doc():
    return json.loads(fixture_text("school_skeleton_small.json"))


def test_load_schema_tables():
    schema = prm.load_schema(_schema_doc())
    assert set(schema.tables) == {"professor", "course", "student", "registration"}
    reg = schema.tables["registration"]
    assert reg.key == "registration"
    assert "grade" in reg.probabilistic


def test_load_schema_rejects_unknown_fk_target():
    doc = _schema_doc()
    doc["tables"][1]["foreign_keys"]["professor"] = "nowhere"
    with pytest.raises(PrmError):
        prm.load_schema(doc)


def test_load_schema_rejects_bad_chain():
    doc = _schema_doc()
    grade = doc["tables"][3]["probabilistic"]["grade"]
    # registration holds no professor key, so the second step cannot follow
    grade["parents"][0] = {
        "chain": [["registration", "course"], ["professor", "ability"]]
    }
    with pytest.raises(PrmError):
        prm.load_schema(doc)


def test_load_schema_rejects_malformed_parent_entry():
    doc = _schema_doc()
    doc["tables"][3]["probabilistic"]["grade"]["parents"][0] = [
        ["registration", "course"]
    ]
    with pytest.raises(PrmError):
        prm.load_schema(doc)


def test_compiled_program_validates():
    text = prm.compile_prm(_schema_doc(), _skeleton_doc())
    prog = parse_program(text)
    assert [d for d in prog.validate() if d.severity == "error"] == []


def test_long_chain_compiles_to_expected_literals():
    """The ranking clause walks registration -> course -> professor ->
    ability through one backward and three forward steps."""
    prog = parse_program(prm.compile_prm(_schema_doc(), _skeleton_doc()))
    clause = next(c for c in prog.clauses if c.key == ("student3", 2))
    findall = next(
        g
        for g in clause.body
        if isinstance(g, Struct) and g.functor == "findall"
    )
    goals = []
    g = findall.args[1]
    while isinstance(g, Struct) and g.functor == "," and g.arity == 2:
        goals.append(g.args[0])
        g = g.args[1]
    goals.append(g)
    assert [term_to_text(x) for x in goals] == [
        "registration3(RegKey, StudentKey)",
        "registration2(RegKey, CourseKey)",
        "course2(CourseKey, ProfKey)",
        "professor2(ProfKey, Ability)",
    ]


def test_roundtrip_marginals_match_reference():
    diffs = prm_roundtrip_diffs(_schema_doc(), _skeleton_doc())
    assert len(diffs) == 5  # 3 grades + 2 intelligences
    assert max(diffs) <= 1e-9


def test_aggregated_ranking_marginal():
    text = prm.compile_prm(_schema_doc(), _skeleton_doc())
    eng = Engine(parse_program(text))
    ans = next(eng.solve_text("student3(bob, R)."))
    m = inference.marginal(ans.network, ans.query_nodes["R"])
    # bob has two registrations -> two ability parents; mode aggregation:
    # 0.75 * 0.9 + 0.25 * 0.2
    assert m.probs == pytest.approx((0.725, 0.275), abs=1e-9)
    ans2 = next(eng.solve_text("student3(ann, R)."))
    m2 = inference.marginal(ans2.network, ans2.query_nodes["R"])
    assert m2.probs == pytest.approx((0.55, 0.45), abs=1e-9)


def test_missing_foreign_key_invents_constant():
    skel = _skeleton_doc()
    skel["registration"].append({"registration": "r9", "student": "bob"})
    text = prm.compile_prm(_schema_doc(), skel)
    assert ":- skolem_constants([sk1])." in text
    assert "registration2(r9, sk1)." in text
    prog = parse_program(text)
    assert [d for d in prog.validate() if d.severity == "error"] == []


def test_observed_probabilistic_cell_becomes_evidence():
    skel = copy.deepcopy(_skeleton_doc())
    skel["registration"][1]["grade"] = "a"  # r2, ann's registration
    text = prm.compile_prm(_schema_doc(), skel)
    assert ":- evidence(registration4(r2), a)." in text
    # no fact line for the observed cell
    assert "registration4(r2, a)." not in text
    eng = Engine(parse_program(text))
    ans = next(eng.solve_text("student2(ann, I)."))
    m = inference.marginal(ans.network, ans.query_nodes["I"])
    assert m.probs[0] == pytest.approx(0.6746987951807228, abs=1e-9)


def test_missing_probabilistic_cell_emits_nothing():
    text = prm.compile_prm(_schema_doc(), _skeleton_doc())
    assert "evidence" not in text


def test_duplicate_key_rejected():
    skel = _skeleton_doc()
    skel["student"].append({"student": "ann"})
    with pytest.raises(PrmError):
        prm.compile_prm(_schema_doc(), skel)


def test_missing_key_rejected():
    skel = _skeleton_doc()
    skel["student"].append({"intelligence": "h"})
    with pytest.raises(PrmError):
        prm.compile_prm(_schema_doc(), skel)


def test_unknown_table_in_skeleton_rejected():
    skel = _skeleton_doc()
    skel["aliens"] = [{"alien": "zork"}]
    with pytest.raises(PrmError):
        prm.compile_prm(_schema_doc(), skel)


def test_multivalued_chain_must_be_only_parent():
    doc = _schema_doc()
    ranking = doc["tables"][2]["probabilistic"]["ranking"]
    ranking["parents"].append({"chain": [["student", "intelligence"]]})
    with pytest.raises(PrmError):
        prm.load_schema(doc)


def test_observed_cell_outside_domain_rejected():
    skel = copy.deepcopy(_skeleton_doc())
    skel["registration"][0]["grade"] = "z"
    with pytest.raises(PrmError):
        prm.compile_prm(_schema_doc(), skel)
