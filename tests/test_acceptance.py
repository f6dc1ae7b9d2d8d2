"""Acceptance gate: one test per shipping criterion, one printed verdict
line each. The printed lines bypass capture so a full run always shows

    ACCEPTANCE criterion N: PASS (...)

for every criterion, with the measured numbers inline. Tolerances and
time bounds are asserted, not just reported.
"""

import json
import time

import numpy as np
import pytest

from clpbn import inference, prm
from clpbn.engine import solve
from clpbn.fixtures import SCHOOL_DRIVERS, fixture_names, fixture_text
from clpbn.learn import (
    SampleSet,
    bic_score,
    fit_cpts,
    remove_cycles,
    structural_ground,
    structural_instances,
)
from clpbn.parser import term_to_text
from clpbn.program import parse_program
from clpbn.terms import Struct

from netgen import random_net
from oracles import enumerate_joint, joint_marginal, prm_roundtrip_diffs
from reference_sld import Reference, binding_text
from test_logic_corpus import CASES, EMPTY_OK

TOL = 1e-9


def _report(capsys, n, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE criterion {n}: {verdict}" + (f" ({detail})" if detail else "")
    with capsys.disabled():
        print(line)
    assert ok, line


def _query_marginal(program, query, var):
    [answer] = list(solve(program, query, limit=1))
    return inference.marginal(answer.network, answer.query_nodes[var])


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


# --- 1: anchor marginals ---------------------------------------------------------


def test_criterion_1_anchor_values(capsys, school, hmm, hmm_fixed):
    checks = []

    m, dt = _timed(lambda: _query_marginal(hmm, "caught(0, C).", "C"))
    checks.append(
        max(abs(m.probs[0] - 0.0), abs(m.probs[1] - 1.0)) <= TOL and dt < 1.0
    )

    m, dt = _timed(lambda: _query_marginal(school, "grade(r2, G).", "G"))
    diff = max(
        abs(a - b) for a, b in zip(m.probs, (0.415, 0.310, 0.275))
    )
    checks.append(diff <= TOL and dt < 1.0)

    m, dt = _timed(
        lambda: _query_marginal(
            school, "intelligence(ann, I), grade(r2, a).", "I"
        )
    )
    cdiff = max(
        abs(m.probs[0] - 0.6746987952), abs(m.probs[1] - 0.3253012048)
    )
    checks.append(cdiff <= TOL and dt < 1.0)

    m, dt = _timed(lambda: _query_marginal(hmm_fixed, "caught(1, C).", "C"))
    hdiff = max(abs(m.probs[0] - 0.0255), abs(m.probs[1] - 0.9745))
    checks.append(hdiff <= TOL and dt < 1.0)

    _report(
        capsys,
        1,
        all(checks),
        f"4 anchor queries, worst diff {max(diff, cdiff, hdiff):.3g}, each < 1 s",
    )


# --- 2: elimination vs joint enumeration -----------------------------------------


def test_criterion_2_oracle_equivalence(capsys):
    def run():
        rng = np.random.default_rng(20260817)
        worst = 0.0
        nodes = 0
        for _ in range(200):
            net = random_net(rng)
            joint = enumerate_joint(net)
            for nid in net.node_ids():
                ve = inference.marginal(net, nid)
                je = joint_marginal(joint, net, nid)
                worst = max(
                    worst,
                    max(abs(a - b) for a, b in zip(ve.probs, je.probs)),
                )
                nodes += 1
        return worst, nodes

    (worst, nodes), dt = _timed(run)
    _report(
        capsys,
        2,
        worst <= TOL and dt < 60.0,
        f"200 nets, {nodes} node marginals, worst diff {worst:.3g}, {dt:.1f} s",
    )


# --- 3: query network vs full ground network ---------------------------------------


def test_criterion_3_agreement(capsys, school, hmm_fixed):
    def run():
        a = inference.agreement_sweep(school, drivers=SCHOOL_DRIVERS, tolerance=TOL)
        b = inference.agreement_sweep(
            hmm_fixed, drivers=["caught(3, C)"], tolerance=TOL
        )
        return a, b

    (a, b), dt = _timed(run)
    ok = (
        a["agree"]
        and b["agree"]
        and a["max_abs_diff"] <= TOL
        and b["max_abs_diff"] <= TOL
        and dt < 30.0
    )
    _report(
        capsys,
        3,
        ok,
        f"{a['comparisons']} + {b['comparisons']} comparisons, "
        f"worst diff {max(a['max_abs_diff'], b['max_abs_diff']):.3g}, {dt:.1f} s",
    )


# --- 4: validator diagnostics ------------------------------------------------------


def test_criterion_4_validator(capsys):
    def run():
        by_name = {}
        for name in fixture_names():
            if not name.endswith(".clpbn"):
                continue
            by_name[name] = parse_program(fixture_text(name)).validate()
        return by_name

    by_name, dt = _timed(run)
    errors = sum(
        1 for ds in by_name.values() for d in ds if d.severity == "error"
    )
    hmm_diags = by_name["hmm.clpbn"]
    int_diags = by_name["int_table.clpbn"]
    ok = (
        errors == 0
        and [d.code for d in hmm_diags] == ["non-normalized-column"]
        and "column 4" in hmm_diags[0].message
        and "0.1" in hmm_diags[0].message
        and [d.code for d in int_diags] == ["non-normalized-column"]
        and "int_table" in int_diags[0].message
        and dt < 1.0
    )
    _report(
        capsys,
        4,
        ok,
        f"{len(by_name)} bundled programs, 0 errors, both expected warnings, {dt:.2f} s",
    )


# --- 5: well-formedness codes -------------------------------------------------------


def test_criterion_5_wf_codes(capsys):
    fixtures = [
        ("WF1", "w1(X) :- {X = s1(a) with p([h,l],[0.5,0.5],[P])}.\n"),
        (
            "WF2",
            "w2a(X) :- {X = shared(k) with p([h,l],[0.5,0.5],[])}.\n"
            "w2b(X) :- {X = shared(k) with p([h,l],[0.5,0.5],[])}.\n",
        ),
        ("WF3a", "w3(X) :- {X = s3(a) with p(oops,[0.5,0.5],[])}.\n"),
        ("WF3b", "w4(X) :- {X = s4(a) with p([h,l],[0.5,0.5],oops)}.\n"),
        ("WF3c", "w5(X) :- {X = s5(a) with p([h,l],[0.5,0.5,0.5],[])}.\n"),
    ]
    results = []
    for code, text in fixtures:
        got = [d.code for d in parse_program(text).validate()]
        results.append(got == [code])
    _report(
        capsys,
        5,
        all(results),
        "codes " + ", ".join(c for c, _ in fixtures) + " each detected exactly",
    )


# --- 6: sampling statistics ----------------------------------------------------------


def test_criterion_6_sampling(capsys, school):
    def run():
        net = inference.ground_program(school, drivers=SCHOOL_DRIVERS)
        first = inference.sample_csv(net, 100000, seed=42)
        second = inference.sample_csv(net, 100000, seed=42)
        return net, first, second

    (net, first, second), dt = _timed(run)
    lines = first.strip().split("\n")
    header = lines[0].split(",")
    col = header.index("i(ann)")
    freq = sum(1 for ln in lines[1:] if ln.split(",")[col] == "h") / 100000
    ok = 0.695 <= freq <= 0.705 and first == second and dt < 10.0
    _report(
        capsys,
        6,
        ok,
        f"freq(h) = {freq:.4f} in [0.695, 0.705], reruns byte-identical, {dt:.1f} s",
    )


# --- 7: schema compilation round trip --------------------------------------------------


def test_criterion_7_prm_roundtrip(capsys):
    schema_doc = json.loads(fixture_text("school_schema.json"))
    skeleton_doc = json.loads(fixture_text("school_skeleton_small.json"))

    def run():
        diffs = prm_roundtrip_diffs(schema_doc, skeleton_doc)
        prog = parse_program(prm.compile_prm(schema_doc, skeleton_doc))
        return diffs, prog

    (diffs, prog), dt = _timed(run)

    clause = next(c for c in prog.clauses if c.key == ("student3", 2))
    findall = next(
        g for g in clause.body if isinstance(g, Struct) and g.functor == "findall"
    )
    goals = []
    g = findall.args[1]
    while isinstance(g, Struct) and g.functor == "," and g.arity == 2:
        goals.append(g.args[0])
        g = g.args[1]
    goals.append(g)
    chain_ok = [term_to_text(x) for x in goals] == [
        "registration3(RegKey, StudentKey)",
        "registration2(RegKey, CourseKey)",
        "course2(CourseKey, ProfKey)",
        "professor2(ProfKey, Ability)",
    ]

    ok = (
        max(diffs) <= TOL
        and len(diffs) == 5
        and chain_ok
        and dt < 5.0
    )
    _report(
        capsys,
        7,
        ok,
        f"{len(diffs)} query pairs, worst diff "
        f"{max(diffs):.3g}, slot chain compiles to the four "
        f"expected literals, {dt:.1f} s",
    )


# --- 8: learning ----------------------------------------------------------------


def test_criterion_8_learning(capsys, school):
    def run():
        net = inference.ground_program(school, drivers=SCHOOL_DRIVERS)
        samples = SampleSet.from_csv(inference.sample_csv(net, 10000, seed=7))

        fitted = fit_cpts(school, samples=samples)
        _, truth = structural_instances(school)
        _, est = structural_instances(fitted)
        worst_l1 = 0.0
        for key in truth.fields:
            t = np.asarray(truth.fields[key].table)
            f = np.asarray(est.fields[key].table)
            d = len(truth.fields[key].domain)
            worst_l1 = max(
                worst_l1,
                float(
                    np.abs(t.reshape(d, -1) - f.reshape(d, -1)).sum(axis=0).max()
                ),
            )

        alt_text = fixture_text("school.clpbn").replace(
            "[0.4,0.9,0.4,0.0,\n              0.4,0.1,0.4,0.1,\n              0.2,0.0,0.2,0.9], [Dif, Int])",
            "[0.4,0.4,\n              0.3,0.3,\n              0.3,0.3], [Dif])",
        )
        alt = parse_program(alt_text)
        assert len(alt.clauses) == len(school.clauses)
        bic_true = bic_score(school, samples=samples)
        bic_alt = bic_score(alt, samples=samples)

        cyclic = parse_program(fixture_text("cyclic.clpbn"))
        rng = np.random.default_rng(3)
        cols = ["av(e1)", "av(e2)", "bv(e1)", "bv(e2)"]
        rows = []
        for _ in range(4000):
            row = {}
            for e in ("e1", "e2"):
                b = "t" if rng.random() < 0.5 else "f"
                pa = 0.6 if b == "t" else 0.3
                row[f"av({e})"] = "t" if rng.random() < pa else "f"
                row[f"bv({e})"] = b
            rows.append([row[c] for c in cols])
        cyc_samples = SampleSet(cols, rows)

        ground = structural_ground(cyclic)
        edge_count = sum(len(n.parents) for n in ground.nodes.values())
        fixed = remove_cycles(cyclic, samples=cyc_samples)

        def parent_total(p):
            _, analysis = structural_instances(p)
            return sum(len(fc.parent_vars) for fc in analysis.fields.values())

        steps = parent_total(cyclic) - parent_total(fixed)
        acyclic, _ = structural_ground(fixed).check_acyclic()
        return worst_l1, bic_true, bic_alt, steps, edge_count, acyclic

    (worst_l1, bic_true, bic_alt, steps, edge_count, acyclic), dt = _timed(run)
    ok = (
        worst_l1 <= 0.05
        and bic_true > bic_alt
        and acyclic
        and 0 < steps <= edge_count
        and dt < 60.0
    )
    _report(
        capsys,
        8,
        ok,
        f"fit worst column L1 {worst_l1:.3f} <= 0.05, BIC {bic_true:.0f} > "
        f"{bic_alt:.0f}, cycle removed in {steps} step(s) <= {edge_count} "
        f"edges, {dt:.1f} s",
    )


# --- 9: pure-logic conformance --------------------------------------------------------


def test_criterion_9_logic_corpus(capsys):
    programs = {program for _, program, _ in CASES}
    mismatches = 0
    vacuous = 0
    for name, program, query in CASES:
        got = [binding_text(a) for a in solve(parse_program(program), query)]
        want = Reference(program).answers(query)
        if got != want:
            mismatches += 1
        if not want and name not in EMPTY_OK:
            vacuous += 1
    ok = mismatches == 0 and vacuous == 0 and len(programs) >= 20
    _report(
        capsys,
        9,
        ok,
        f"{len(CASES)} queries over {len(programs)} programs, answers and "
        "order match the reference interpreter",
    )
