"""The four benchmark workloads and their oracles.

Each workload has the same shape:

- ``setup(tr)`` generates the program text, parses and validates it, builds
  the engine and grounds where the workload needs a ground network. The
  harness times it (several times per run) as ``setup_s``.
- ``make_op(state, i)`` is a pure function of the seed, the set-up state and
  the operation index.
- ``run(state, op, tr)`` is one timed operation. It calls clpbn only through
  public names, and opens a span around each call into a clpbn module.
- ``check(state, op, result)`` is the oracle. It runs outside the timed
  region and returns ``None`` or the reason the answer is wrong.
- ``size(op, result)`` is the input size the growth exponent is fitted
  against, or ``None``.

Sizes were chosen by cost per operation, so that a 25 s run completes
enough operations for a steady median and tail. ``caught(200, C)`` is left
out because one such query takes about 81 s, which no per-run budget can
hold; the depth-limit defect it also triggers is not the reason.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
import re
from collections import Counter

from clpbn import (
    ClpbnError,
    Engine,
    SampleSet,
    all_marginals,
    bic_score,
    fit_cpts,
    ground_program,
    marginal,
    parse_program,
    sample_csv,
    term_to_text,
)
from clpbn.fixtures import SCHOOL_DRIVERS, fixture_text
from clpbn.terms import list_items

TOL = 1e-9
PHI = (math.sqrt(5.0) - 1.0) / 2.0


class SetupError(Exception):
    """The workload's program did not validate."""


def _op_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def _load(text: str, tr) -> tuple:
    with tr.span("parser.parse"):
        program = parse_program(text)
    with tr.span("program.validate"):
        diags = program.validate()
    errors = [d.format() for d in diags if d.severity == "error"]
    if errors:
        raise SetupError("; ".join(errors))
    with tr.span("engine.init"):
        engine = Engine(program)
    return program, engine


def _ground(program, tr):
    with tr.span("inference.ground") as attrs:
        net = ground_program(program, drivers=SCHOOL_DRIVERS)
        attrs["nodes"] = len(net)
    return net


def _solve_one(engine, query: str, kind: str, tr):
    """The single answer a CLI ``query`` prints (its default is --limit 1)."""
    with tr.span("engine.solve", kind=kind) as attrs:
        answers = list(engine.solve_text(query, limit=1))
        if answers:
            attrs["nodes"] = len(answers[0].network)
    if not answers:
        raise ClpbnError(f"no answer to {query}")
    return answers[0]


def _probs_differ(a, b) -> bool:
    return len(a) != len(b) or any(abs(x - y) > TOL for x, y in zip(a, b))


# --- chain_query ------------------------------------------------------------------


class ChainQuery:
    """Queries on the fixed hmm chain. Resolution does nearly all the work.

    N follows a golden-ratio sequence from a seeded start, so every stretch of
    the run covers 10..50 evenly and the median does not depend on which
    chain lengths happened to be drawn.
    """

    name = "chain_query"
    N_MIN, N_MAX = 10, 50

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.u0 = random.Random(seed).random()

    def setup(self, tr):
        _program, engine = _load(fixture_text("hmm_fixed.clpbn"), tr)
        return engine

    def make_op(self, engine, i: int) -> dict:
        u = (self.u0 + i * PHI) % 1.0
        n = self.N_MIN + int(u * (self.N_MAX - self.N_MIN + 1))
        if i % 2 == 0:
            return {"n": n, "evidence": None, "query": f"caught({n}, C)."}
        rng = _op_rng(self.seed, i)
        m, v = rng.randint(0, n), rng.choice("ml")
        return {"n": n, "evidence": (m, v), "query": f"caught({n}, C), watch({m}, {v})."}

    def run(self, engine, op, tr):
        kind = "plain" if op["evidence"] is None else "evidence"
        answer = _solve_one(engine, op["query"], kind, tr)
        with tr.span("inference.marginal"):
            m = marginal(answer.network, answer.query_nodes["C"])
        return [term_to_text(v) for v in m.domain], m.probs

    def check(self, engine, op, result):
        domain, probs = result
        if domain != ["t", "f"]:
            return f"domain {domain}"
        want = chain_forward(op["n"], op["evidence"])
        if _probs_differ(probs, want):
            return f"P(c({op['n']})) = {probs}, forward recursion gives {want}"
        return None

    def size(self, op, result):
        return op["n"]


def chain_forward(n: int, evidence) -> tuple[float, float]:
    """P(c(n) = t), P(c(n) = f) by a forward recursion over (c, p) pairs.

    The tables are those of hmm_fixed.clpbn: p follows a two-state chain
    that stays with probability 0.8; c(0) is f, and c(i) is t once c(i-1)
    is t, else t with probability 0.05 (p = m) or 0.001 (p = l).
    """
    stay = 0.8
    catch = {"m": 0.05, "l": 0.001}
    alpha = {("f", "m"): 0.5, ("f", "l"): 0.5, ("t", "m"): 0.0, ("t", "l"): 0.0}

    def observe(i):
        if evidence is not None and evidence[0] == i:
            for c, p in alpha:
                if p != evidence[1]:
                    alpha[(c, p)] = 0.0

    observe(0)
    for i in range(1, n + 1):
        nxt = dict.fromkeys(alpha, 0.0)
        for (c0, p0), w in alpha.items():
            for p in "ml":
                wp = w * (stay if p == p0 else 1.0 - stay)
                pt = 1.0 if c0 == "t" else catch[p]
                nxt[("t", p)] += wp * pt
                nxt[("f", p)] += wp * (1.0 - pt)
        alpha = nxt
        observe(i)
    t = alpha[("t", "m")] + alpha[("t", "l")]
    f = alpha[("f", "m")] + alpha[("f", "l")]
    return t / (t + f), f / (t + f)


# --- the school population ------------------------------------------------------------

_POPULATION_FACT = re.compile(r"^(professor|course|student|reg)\(")

# Random-variable functor -> the predicate that defines it.
SCHOOL_PREDICATE = {
    "ab": "ability",
    "pop": "popularity",
    "dif": "difficulty",
    "i": "intelligence",
    "grade": "grade",
    "sat": "satisfaction",
    "rating": "rating",
    "rank": "ranking",
}


def school_rules() -> str:
    """The school fixture without its two-student population."""
    lines = fixture_text("school.clpbn").splitlines()
    return "\n".join(ln for ln in lines if not _POPULATION_FACT.match(ln)) + "\n"


def school_population(k: int, rng: random.Random) -> tuple[str, list[tuple]]:
    """k professors, 2k courses, 3k students and 6k registrations.

    Course j is taught by professor j mod k; every course gets exactly three
    registrations and every student two, so every ``rating`` has a
    population to average over. Which student takes which course is a
    fixed pseudo-random pairing per k; ``rng`` renames every entity and
    reorders the facts. Runs with different seeds therefore see different
    program text over isomorphic networks, and their costs stay comparable.
    """
    pairing = random.Random(k)
    by_course, by_student = list(range(2 * k)) * 3, list(range(3 * k)) * 2
    pairing.shuffle(by_course)
    pairing.shuffle(by_student)

    def names(prefix, n):
        ids = list(range(n))
        rng.shuffle(ids)
        return [f"{prefix}{j}" for j in ids]

    prof, course, student, reg = names("p", k), names("c", 2 * k), names("s", 3 * k), names("r", 6 * k)
    regs = [(reg[j], course[by_course[j]], student[by_student[j]]) for j in range(6 * k)]
    groups = [
        [f"professor({p})." for p in prof],
        [f"course({c}, {prof[j % k]})." for j, c in enumerate(course)],
        [f"student({s})." for s in student],
        [f"reg({r}, {c}, {s})." for r, c, s in regs],
    ]
    return school_rules() + "\n".join(itertools.chain(*groups)) + "\n", regs


def _cpt_prob(node, values: dict, net) -> float:
    """P(node = values[node.id] | its parents' values), column-normalized."""
    d = len(node.domain)
    col, cols = 0, 1
    for p in node.parents:
        size = len(net.nodes[p].domain)
        col = col * size + values[p]
        cols *= size
    column = [node.table[r * cols + col] for r in range(d)]
    return column[values[node.id]] / sum(column)


def forward_sample(net, rng: random.Random) -> dict[int, int]:
    """One joint assignment (node id -> value index) drawn parents first.

    Every value it draws has positive probability given the values drawn
    before, so any subset of the assignment is evidence of positive
    probability.
    """
    values: dict[int, int] = {}
    pending = sorted(net.nodes)
    while pending:
        later = []
        for n in pending:
            node = net.nodes[n]
            if any(p not in values for p in node.parents):
                later.append(n)
                continue
            weights = []
            for v in range(len(node.domain)):
                values[n] = v
                weights.append(_cpt_prob(node, values, net))
            values[n] = rng.choices(range(len(node.domain)), weights)[0]
        pending = later
    return values


def brute_force_marginals(net, targets) -> dict[int, list[float]]:
    """Marginals of ``targets`` by summing the full joint, evidence clamped."""
    ids = sorted(net.nodes)
    free = [n for n in ids if net.nodes[n].evidence is None]
    values = {n: net.nodes[n].evidence for n in ids if net.nodes[n].evidence is not None}
    acc = {t: [0.0] * len(net.nodes[t].domain) for t in targets}
    for combo in itertools.product(*(range(len(net.nodes[n].domain)) for n in free)):
        values.update(zip(free, combo))
        w = 1.0
        for n in ids:
            w *= _cpt_prob(net.nodes[n], values, net)
            if w == 0.0:
                break
        for t in targets:
            acc[t][values[t]] += w
    return {t: [x / sum(a) for x in a] for t, a in acc.items()}


# --- school_query --------------------------------------------------------------------


class SchoolQuery:
    """Point queries over a 64-professor school: shallow resolution that scans
    wide fact tables and merges aggregated results."""

    name = "school_query"
    K = 64
    KINDS = ("grade", "evidence", "rating", "ranking", "popularity")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.offset = random.Random(seed).randrange(len(self.KINDS))

    def setup(self, tr):
        text, regs = school_population(self.K, random.Random(self.seed))
        _program, engine = _load(text, tr)
        return engine, regs

    def make_op(self, state, i: int) -> dict:
        rng = _op_rng(self.seed, i)
        kind = self.KINDS[(i + self.offset) % len(self.KINDS)]
        k = self.K
        if kind == "grade":
            q = f"grade(r{rng.randrange(6 * k)}, X)."
        elif kind == "evidence":
            r, _c, s = state[1][rng.randrange(6 * k)]
            q = f"intelligence({s}, X), grade({r}, a)."
        elif kind == "rating":
            q = f"rating(c{rng.randrange(2 * k)}, X)."
        elif kind == "ranking":
            q = f"ranking(s{rng.randrange(3 * k)}, X)."
        else:
            q = f"popularity(p{rng.randrange(k)}, X)."
        return {"kind": kind, "query": q}

    def run(self, state, op, tr):
        engine, _regs = state
        kind = "evidence" if op["kind"] == "evidence" else "plain"
        answer = _solve_one(engine, op["query"], kind, tr)
        nid = answer.query_nodes["X"]
        with tr.span("inference.marginal"):
            m = marginal(answer.network, nid)
        return answer.network, nid, m.probs

    def check(self, state, op, result):
        net, nid, probs = result
        want = brute_force_marginals(net, [nid])[nid]
        if _probs_differ(probs, want):
            return f"{op['query']} gives {probs}, enumeration gives {want}"
        return None

    def size(self, op, result):
        return None


# --- school_marginals -----------------------------------------------------------------


class SchoolMarginals:
    """All marginals of the ground school network under 0-3 observations.

    Operations cycle k=2, k=2, k=3, so the median lands among the 48-node
    operations and the tail among the 72-node ones, rather than on the
    boundary between the two. The seed picks which nodes are observed and
    their values.
    """

    name = "school_marginals"
    SIZES = (2, 3)
    PATTERN = (2, 2, 3)
    MAX_EVIDENCE = 3
    CHECKED_TARGETS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr):
        state = {}
        for k in self.SIZES:
            text, _regs = school_population(k, random.Random(self.seed * 10 + k))
            program, engine = _load(text, tr)
            net = _ground(program, tr)
            # A rating's value is an average, which a point query cannot
            # name as a constant, so the oracle could not check it.
            observable = [n for n in sorted(net.nodes) if net.nodes[n].label.functor != "rating"]
            labels = [net.nodes[n].label for n in sorted(net.nodes)]
            state[k] = (engine, net, observable, labels)
        return state

    def make_op(self, state, i: int) -> dict:
        rng = _op_rng(self.seed, i)
        k = self.PATTERN[i % len(self.PATTERN)]
        # Every twelve operations hold each (k, 0..3 observations) pair once.
        n_evidence = (i // len(self.PATTERN)) % (self.MAX_EVIDENCE + 1)
        _engine, net, observable, labels = state[k]
        # Observed values come from one joint sample of the network, so the
        # evidence never has probability zero (grade's table has zeros).
        joint = forward_sample(net, rng)
        picks = rng.sample(observable, n_evidence)
        evidence = [(net.nodes[n].label, net.nodes[n].domain[joint[n]]) for n in picks]
        observed = {term_to_text(label) for label, _ in evidence}
        unobserved = [lb for lb in labels if term_to_text(lb) not in observed]
        return {"k": k, "evidence": evidence, "targets": rng.sample(unobserved, self.CHECKED_TARGETS)}

    def run(self, state, op, tr):
        _engine, net, _observable, _labels = state[op["k"]]
        for label, value in op["evidence"]:
            with tr.span("network.evidence"):
                net = net.set_evidence(net.find_by_label(label), value)
        with tr.span("inference.all_marginals"):
            ms = all_marginals(net)
        return ms

    def check(self, state, op, ms):
        engine, net, _observable, _labels = state[op["k"]]
        evidence = op["evidence"]
        if len(ms) != len(net):
            return f"{len(ms)} marginals for {len(net)} nodes"
        by_label = {term_to_text(m.label): m for m in ms}
        for m in ms:
            if abs(sum(m.probs) - 1.0) > TOL:
                return f"marginal of {term_to_text(m.label)} sums to {sum(m.probs)}"
        for label, value in evidence:
            m = by_label[term_to_text(label)]
            if m.probs[[term_to_text(v) for v in m.domain].index(term_to_text(value))] != 1.0:
                return f"observed {term_to_text(label)} is not one-hot"
        goals = [_school_goal(label, term_to_text(value)) for label, value in evidence]
        for target in op["targets"]:
            query = ", ".join(goals + [_school_goal(target, "X")]) + "."
            answer = next(iter(engine.solve_text(query, limit=1)), None)
            if answer is None:
                return f"point query {query} has no answer"
            want = marginal(answer.network, answer.query_nodes["X"]).probs
            got = by_label[term_to_text(target)].probs
            if _probs_differ(got, want):
                return f"{term_to_text(target)}: all_marginals {got}, point query {want}"
        return None

    def size(self, op, ms):
        return len(ms)


def _school_goal(label, value_text: str) -> str:
    entity = term_to_text(label.args[0])
    return f"{SCHOOL_PREDICATE[label.functor]}({entity}, {value_text})"


# --- school_learn -----------------------------------------------------------------------


class SchoolLearn:
    """Sample, reload, fit and score on the k=2 ground school network."""

    name = "school_learn"
    K = 2
    ROWS = 2000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr):
        text, _regs = school_population(self.K, random.Random(self.seed))
        program, _engine = _load(text, tr)
        net = _ground(program, tr)
        roots = sorted({net.nodes[n].label.functor for n in net.nodes if not net.nodes[n].parents})
        return program, net, roots

    def make_op(self, state, i: int) -> dict:
        return {"sample_seed": self.seed * 100_000 + i}

    def run(self, state, op, tr):
        program, net, _roots = state
        with tr.span("inference.sample_csv"):
            text = sample_csv(net, self.ROWS, op["sample_seed"])
        with tr.span("learn.from_csv"):
            samples = SampleSet.from_csv(text)
        with tr.span("learn.fit"):
            fitted = fit_cpts(program, samples=samples)
        with tr.span("learn.bic"):
            score = bic_score(program, samples=samples)
        return text, fitted, score

    def check(self, state, op, result):
        program, net, roots = state
        text, fitted, score = result
        if sample_csv(net, self.ROWS, op["sample_seed"]) != text:
            return "sample_csv is not byte-identical on a rerun with the same seed"
        if not (math.isfinite(score) and score < 0.0):
            return f"BIC score {score}"
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        if len(body) != self.ROWS:
            return f"{len(body)} sample rows"
        for functor in roots:
            domain, table = _literal_table(fitted, functor)
            counts = Counter(
                row[j] for j, col in enumerate(header) if col.startswith(functor + "(") for row in body
            )
            total = sum(counts.values())
            want = [(counts[v] + 1.0) / (total + len(domain)) for v in domain]
            if _probs_differ(table, want):
                return f"fitted {functor} table {table}, smoothed counts give {want}"
        return None

    def size(self, op, result):
        return None


def _literal_table(program, functor: str) -> tuple[list[str], list[float]]:
    for clause in program.clauses:
        for c in clause.constraints:
            if c.functor_key[0] == functor:
                domain, table, _parents = c.cpt.args
                return [term_to_text(v) for v in list_items(domain)], list_items(table)
    raise LookupError(f"no clause defines {functor}")


WORKLOADS = {w.name: w for w in (ChainQuery, SchoolQuery, SchoolMarginals, SchoolLearn)}
