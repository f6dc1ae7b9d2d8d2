"""Byte-identical CLI output on the bundled programs.

Each case runs one ``clpbn`` command and compares its exit code, stdout
and stderr with a file under ``tests/golden/``. The files were written by
an earlier version of the engine, so a change that alters any answer,
node id, sample or score shows here as a diff.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from clpbn import cli
from clpbn.fixtures import SCHOOL_DRIVERS, fixture_text
from clpbn.learn import SampleSet, remove_cycles
from clpbn.program import parse_program

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHOOL = sum((["--driver", d] for d in SCHOOL_DRIVERS), [])
HMM = ["--driver", "caught(8, C)"]
JSON = ["--format", "json"]


def _input(name: str) -> str:
    return str(GOLDEN / name)


# name -> argv; fit and score read the CSV that the matching sample case printed
CASES = {
    "query_school": ["query", "school.clpbn", "-q", "grade(r2, G).", *JSON],
    "query_school_evidence": [
        "query", "school.clpbn", "-q", "grade(r1, a), rating(c1, R), ranking(ann, K).", *JSON,
    ],
    "query_school_many": [
        "query", "school.clpbn", "-q", "reg(R, C, S), grade(R, G).", "--limit", "3", *JSON,
    ],
    "ground_school": ["ground", "school.clpbn", *SCHOOL, *JSON],
    "agree_school": ["agree", "school.clpbn", *SCHOOL, *JSON],
    "sample_school": ["sample", "school.clpbn", "-n", "300", "--seed", "7", *SCHOOL, *JSON],
    "fit_school": ["fit", "school.clpbn", "--samples", _input("sample_school.csv"), *JSON],
    "score_school": ["score", "school.clpbn", "--samples", _input("sample_school.csv"), *JSON],
    "compare_school": ["compare", _input("fit_school.clpbn"), "school.clpbn", *JSON],
    "query_hmm": ["query", "hmm_fixed.clpbn", "-q", "caught(12, C).", *JSON],
    "query_hmm_evidence": [
        "query", "hmm_fixed.clpbn", "-q", "caught(12, C), watch(5, m), watch(9, l).", *JSON,
    ],
    "ground_hmm": ["ground", "hmm_fixed.clpbn", *HMM, *JSON],
    "agree_hmm": ["agree", "hmm_fixed.clpbn", *HMM, *JSON],
    "sample_hmm": ["sample", "hmm_fixed.clpbn", "-n", "300", "--seed", "11", *HMM, *JSON],
    "fit_hmm": ["fit", "hmm_fixed.clpbn", "--samples", _input("sample_hmm.csv"), *JSON],
    "score_hmm": ["score", "hmm_fixed.clpbn", "--samples", _input("sample_hmm.csv"), *JSON],
    "compare_hmm": ["compare", "hmm.clpbn", "hmm_fixed.clpbn", *JSON],
    "query_cyclic": ["query", "cyclic.clpbn", "-q", "a(e1, X).", "--depth", "300", *JSON],
    "ground_cyclic": ["ground", "cyclic.clpbn", "--depth", "300", *JSON],
    "sample_cyclic": ["sample", "cyclic.clpbn", "-n", "5", "--seed", "1", "--depth", "300", *JSON],
    "agree_cyclic": ["agree", "cyclic.clpbn", "--driver", "ent(E), b(E, Y)", *JSON],
    "fit_cyclic": ["fit", "cyclic.clpbn", "--samples", _input("cyclic_samples.csv"), *JSON],
    "score_cyclic": ["score", "cyclic.clpbn", "--samples", _input("cyclic_samples.csv"), *JSON],
    "compare_cyclic": ["compare", _input("cyclic_repaired.clpbn"), "cyclic.clpbn", *JSON],
    "compare_cyclic_school": ["compare", _input("fit_school.clpbn"), "cyclic.clpbn", *JSON],
    "compare_cyclic_self": ["compare", "cyclic.clpbn", "cyclic.clpbn", *JSON],
    "check_school": ["check", "school.clpbn", *JSON],
    "check_hmm": ["check", "hmm.clpbn", *JSON],
    "check_hmm_fixed": ["check", "hmm_fixed.clpbn", *JSON],
    "check_cyclic": ["check", "cyclic.clpbn", *JSON],
    "check_int_table": ["check", "int_table.clpbn", *JSON],
    "check_wf3": ["check", _input("check_wf3.clpbn"), *JSON],
    "compile_prm_school": [
        "compile-prm", "--schema", "school_schema.json",
        "--skeleton", "school_skeleton_small.json", *JSON,
    ],
}


# fit and score on a sample too large to commit: 5,000 rows drawn by the CLI
# with a fixed seed, written where the test can read it back
LARGE_SAMPLE = ["sample", "school.clpbn", "-n", "5000", "--seed", "5", *SCHOOL]
LARGE_CASES = {
    "fit_school_5000": ["fit", "school.clpbn", *JSON],
    "score_school_5000": ["score", "school.clpbn", *JSON],
}


def run_case(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def repaired_cyclic() -> str:
    """``remove_cycles`` on cyclic.clpbn, fitted to the committed samples."""
    samples = SampleSet.from_csv((GOLDEN / "cyclic_samples.csv").read_text(encoding="utf-8"))
    return remove_cycles(parse_program(fixture_text("cyclic.clpbn")), samples=samples).to_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name):
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert run_case(CASES[name]) == want


@pytest.fixture(scope="module")
def large_sample(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("samples") / "school_5000.csv"
    path.write_text(_stdout_of(run_case(LARGE_SAMPLE)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(LARGE_CASES))
def test_learning_on_a_large_sample_is_byte_identical(name, large_sample):
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert run_case(LARGE_CASES[name] + ["--samples", large_sample]) == want


def test_remove_cycles_output_is_byte_identical():
    assert repaired_cyclic() == (GOLDEN / "cyclic_repaired.clpbn").read_text(encoding="utf-8")


def _cyclic_samples_csv(rows: int = 400, seed: int = 3) -> str:
    """Draws where av(E) depends on bv(E) and bv(E) is uniform."""
    rng = random.Random(seed)
    lines = ["av(e1),av(e2),bv(e1),bv(e2)"]
    for _ in range(rows):
        b = ["t" if rng.random() < 0.5 else "f" for _ in range(2)]
        a = ["t" if rng.random() < (0.6 if x == "t" else 0.3) else "f" for x in b]
        lines.append(",".join(a + b))
    return "\n".join(lines) + "\n"


def _stdout_of(text: str) -> str:
    return text.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "cyclic_samples.csv").write_text(_cyclic_samples_csv(), encoding="utf-8")
    (GOLDEN / "cyclic_repaired.clpbn").write_text(repaired_cyclic(), encoding="utf-8")
    # sample cases first: their stdout is the CSV the fit and score cases read
    order = sorted(CASES, key=lambda n: (not n.startswith("sample"), n != "fit_school", n))
    for name in order:
        text = run_case(CASES[name])
        (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
        if name.startswith("sample"):
            (GOLDEN / f"{name}.csv").write_text(_stdout_of(text), encoding="utf-8")
        if name == "fit_school":
            program = json.loads(_stdout_of(text))["program"]
            (GOLDEN / "fit_school.clpbn").write_text(program, encoding="utf-8")
    large = GOLDEN / "school_5000.csv"
    large.write_text(_stdout_of(run_case(LARGE_SAMPLE)), encoding="utf-8")
    try:
        for name, argv in LARGE_CASES.items():
            text = run_case(argv + ["--samples", str(large)])
            (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
    finally:
        large.unlink()


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
