"""Parameter fitting, BIC scoring, cycle removal, and structure comparison.

Everything here works on complete sample tables (one column per ground
random variable, one row per draw) and on a *structural* grounding of the
program: instead of running queries, the clause structure is instantiated
directly over the fact base, so programs whose ground networks contain
directed cycles can still be grounded, scored, and repaired. Running such
a program would recurse forever; reading its structure terminates.

The structural grounding covers a deliberately simple clause fragment:
one defining clause per random-variable functor, a literal p/3 table,
body goals that are either facts or calls to other defining clauses.
Clauses outside the fragment (computed tables, aggregation, arithmetic)
are left untouched by fitting and ignored by scoring. A ``SampleSet`` is
encoded once, when it is built, and every count reads that encoding.

Counting reads a plan built once per program object: its structural
grounding, its network, and each instance's column label and domain texts,
printed once. A call with the same program only looks up the columns and
makes one ``np.bincount`` per clause; a population merges into a new
program, so it is grounded again on every call. A fitted program is built
from the program's own items, not printed and parsed again.

The structural grounder runs on the engine's term layer: a clause body is
joined depth first on one ``terms.Subst``, bound by ``terms.unify`` and
taken back with ``mark``/``undo`` between alternatives; a called clause is
renamed apart with ``rename_term`` before its head meets the goal, and
the population is merged by ``program.with_population``.
"""

from __future__ import annotations

import csv
import io
import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import LearnError
from .network import ConstraintNetwork, Node
from .parser import term_to_text
from .program import (
    Clause,
    Program,
    cpt_spec_from_term,
    with_population,
)
from .terms import (
    Atom,
    FreshVars,
    Struct,
    Subst,
    Term,
    Var,
    is_ground,
    list_items,
    mklist,
    rename_term,
    unify,
    vars_of,
)


# --- sample tables -------------------------------------------------------------


@dataclass
class SampleSet:
    """Rectangular table of printed node labels and printed domain values,
    encoded when built and not to be changed after: ``texts[j]`` lists
    column j's distinct cells in first-seen order, and
    ``texts[j][codes[j, i]] == rows[i][j]``."""

    columns: list[str]
    rows: list[list[str]]
    provenance: dict = field(default_factory=dict)
    codes: np.ndarray = field(init=False, repr=False, compare=False)
    texts: list[list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for r in self.rows:
            if len(r) != len(self.columns):
                raise LearnError(
                    f"ragged sample row: {len(r)} cells, "
                    f"{len(self.columns)} columns"
                )
        # the first column of a repeated name wins, as with list.index
        self._column_of = {c: j for j, c in reversed(list(enumerate(self.columns)))}
        n = len(self.rows)
        self.codes = np.zeros((len(self.columns), n), dtype=np.int32)
        self.texts = [[] for _ in self.columns]
        for j, cells in enumerate(zip(*self.rows)):
            code = {t: i for i, t in enumerate(dict.fromkeys(cells))}
            self.codes[j] = np.fromiter(map(code.__getitem__, cells), np.int32, n)
            self.texts[j] = list(code)

    @classmethod
    def from_csv(cls, text: str, provenance: Optional[dict] = None) -> "SampleSet":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise LearnError("empty sample CSV") from None
        rows = [row for row in reader if row]
        return cls(header, rows, provenance or {})

    def column(self, label_text: str) -> int:
        """Position of the first column named label_text."""
        j = self._column_of.get(label_text)
        if j is None:
            raise LearnError(f"sample set has no column for {label_text}")
        return j

    def __len__(self) -> int:
        return len(self.rows)


# --- clause fragment analysis ----------------------------------------------------


@dataclass
class _FieldClause:
    clause_index: int
    key: tuple[str, int]
    head: Struct
    cvar_pos: int  # head argument position of the constraint variable
    label: Term
    domain: tuple[Term, ...]
    table: tuple[float, ...]
    parent_vars: tuple[Var, ...]
    body_goals: list[Struct]  # non-constraint goals in order


@dataclass
class _Analysis:
    facts: dict[tuple[str, int], list[Term]]  # ground fact heads
    fields: dict[tuple[str, int], _FieldClause]
    skipped: dict[tuple[str, int], str]  # reason per skipped predicate


def _goal_key(g: Term) -> Optional[tuple[str, int]]:
    if isinstance(g, Struct):
        return (g.functor, g.arity)
    if isinstance(g, Atom):
        return (g.name, 0)
    return None


def _is_braces(g: Term) -> bool:
    return isinstance(g, Struct) and g.functor == "{}" and g.arity == 1


def _entity(t: Struct, cvar_pos: int) -> Struct:
    """The head or goal t without its constraint-variable argument."""
    return Struct(t.functor, t.args[:cvar_pos] + t.args[cvar_pos + 1 :])


def _analyze(program: Program) -> _Analysis:
    facts: dict[tuple[str, int], list[Term]] = {}
    fields: dict[tuple[str, int], _FieldClause] = {}
    skipped: dict[tuple[str, int], str] = {}
    by_key: dict[tuple[str, int], list[tuple[int, Clause]]] = {}
    for i, c in enumerate(program.clauses):
        by_key.setdefault(c.key, []).append((i, c))
    for key, entries in by_key.items():
        if all(
            not c.body and is_ground(c.head) for _, c in entries
        ):
            facts[key] = [c.head for _, c in entries]
            continue
        with_constraints = [(i, c) for i, c in entries if c.constraints]
        if not with_constraints:
            skipped[key] = "no defining constraint clause"
            continue
        if len(entries) > 1:
            skipped[key] = "more than one clause"
            continue
        i, c = entries[0]
        if len(c.constraints) != 1:
            skipped[key] = "more than one constraint in the clause"
            continue
        con = c.constraints[0]
        if not isinstance(c.head, Struct):
            skipped[key] = "atomic head"
            continue
        cvar_pos = next(
            (
                j
                for j, a in enumerate(c.head.args)
                if isinstance(a, Var) and a.id == con.var.id
            ),
            None,
        )
        if cvar_pos is None:
            skipped[key] = "constraint variable not a head argument"
            continue
        cpt = con.cpt
        if not (isinstance(cpt, Struct) and cpt.functor == "p" and cpt.arity == 3):
            skipped[key] = "table is computed, not literal"
            continue
        try:
            spec = cpt_spec_from_term(cpt, program.is_skolem_term)
        except Exception as e:  # malformed literal table
            skipped[key] = str(e)
            continue
        if not all(isinstance(p, Var) for p in spec.parents):
            skipped[key] = "non-variable CPT parent"
            continue
        goals = [g for g in c.body if not _is_braces(g)]
        if not all(isinstance(g, (Struct, Atom)) for g in goals):
            skipped[key] = "body goal outside the supported fragment"
            continue
        fields[key] = _FieldClause(
            clause_index=i,
            key=key,
            head=c.head,
            cvar_pos=cvar_pos,
            label=con.skolem,
            domain=spec.domain,
            table=spec.table,
            parent_vars=tuple(spec.parents),
            body_goals=goals,
        )
    return _Analysis(facts, fields, skipped)


# --- structural grounding --------------------------------------------------------


@dataclass
class _Instance:
    label: Term
    parents: tuple[Term, ...]  # parent labels, CPT order


def _callee_label(
    goal: Struct, callee: _FieldClause, fresh: FreshVars
) -> Optional[Term]:
    """The callee's label in the goal's variables; None if the goal cannot
    call the callee's head.

    The callee is renamed apart first, as the engine does, so a clause that
    calls itself with its arguments swapped maps X' to Y and Y' to X instead
    of binding X and Y to each other."""
    mapping: dict[int, Var] = {}
    head = rename_term(callee.head, mapping, fresh)
    label = rename_term(callee.label, mapping, fresh)
    s = Subst()
    if not unify(_entity(head, callee.cvar_pos), _entity(goal, callee.cvar_pos), s):
        return None
    return s.resolve(label)


def structural_instances(
    program: Program, population: Iterable[Term] = ()
) -> tuple[dict[tuple[str, int], list[_Instance]], _Analysis]:
    """Ground instances of every supported defining clause, by fixpoint.

    Fact goals join against the fact base. A call to another defining
    clause with its entity arguments already bound is taken on faith (no
    existence check, which is what lets mutually dependent clauses ground
    instead of deadlocking) and *demands* the callee instance with those
    arguments, so clauses with no guard goals of their own still produce
    the nodes their callers rely on. A call with unbound arguments joins
    generatively against the callee instances found so far.
    """
    prog = with_population(program, population)
    analysis = _analyze(prog)
    # each call's label pattern in the caller's variables; callees are
    # renamed apart with ids above every caller variable
    rules = [(fc, g) for fc in analysis.fields.values() for g in fc.body_goals]
    top = max(
        (v.id for fc, g in rules for t in (fc.head, fc.label, g) for v in vars_of(t)),
        default=-1,
    )
    fresh = FreshVars(top + 1)
    labels = {
        id(g): _callee_label(g, analysis.fields[_goal_key(g)], fresh)
        for _, g in rules
        if _goal_key(g) in analysis.fields
    }
    insts: dict[tuple[str, int], list[_Instance]] = {
        key: [] for key in analysis.fields
    }
    seen: dict[tuple[str, int], set[str]] = {key: set() for key in analysis.fields}
    # ground entity arguments of each instance found so far
    head_tuples: dict[tuple[str, int], list[Term]] = {
        key: [] for key in analysis.fields
    }
    # text-keyed so repeat demands are cheap; values are the entity arguments
    demands: dict[tuple, tuple[tuple[str, int], Term]] = {}

    # semi-naive: a job (a clause, or one demand) reads nothing that grows but
    # its callees' instances, so it reruns only once one of them has grown
    callees = {
        key: {_goal_key(g) for g in fc.body_goals} & insts.keys()
        for key, fc in analysis.fields.items()
    }
    ran: dict[tuple, tuple[int, ...]] = {}  # job -> its callees' sizes then

    changed = True
    while changed:
        changed = False
        jobs: list[tuple[tuple, tuple[str, int], Optional[Term]]] = [
            (key, key, None) for key in analysis.fields
        ]
        jobs.extend((job, key, args) for job, (key, args) in demands.items())
        for job, key, demanded in jobs:
            sizes = tuple(len(insts[k]) for k in callees[key])
            if ran.get(job) == sizes:
                continue
            ran[job] = sizes
            fc = analysis.fields[key]
            theta = Subst()
            head = _entity(fc.head, fc.cvar_pos)
            if demanded is not None and not unify(head, demanded, theta):
                continue
            before = len(demands)
            solutions = _enumerate_clause(
                fc, analysis, head_tuples, demands, labels, theta, seen[key]
            )
            for ltext, label, parents, entity in solutions:
                if ltext in seen[key]:
                    continue
                for pv, parent in zip(fc.parent_vars, parents):
                    if parent is None:
                        raise LearnError(
                            f"clause for {key[0]}/{key[1]}: CPT parent "
                            f"{pv.display()} is not bound by a defining-"
                            "clause call in the body"
                        )
                if not all(is_ground(p) for p in parents):
                    continue
                seen[key].add(ltext)
                insts[key].append(_Instance(label, tuple(parents)))
                head_tuples[key].append(entity)
                changed = True
            if len(demands) != before:
                changed = True
    return insts, analysis


def _enumerate_clause(
    fc: _FieldClause,
    analysis: _Analysis,
    head_tuples: dict[tuple[str, int], list[Term]],
    demands: dict[tuple, tuple[tuple[str, int], Term]],
    labels: dict[int, Optional[Term]],
    theta: Subst,
    seen: set[str],
) -> list[tuple[str, Term, list[Optional[Term]], Term]]:
    """Every solution of the clause body under theta whose label is ground
    and not in seen, read off as (label text, label, CPT parent labels,
    head entity arguments), resolved. A parent is None when no
    defining-clause call in the body binds it.

    The body is joined depth first: each goal binds one alternative at a
    time into theta and undoes it before the next, so solutions come in
    the order of a goal-by-goal join over lists of bindings. Calls with
    bound entity arguments demand that callee instance; demands are
    recorded in that same goal-by-goal order."""
    goals = fc.body_goals
    # CPT-parent variable id -> parent label pattern in the clause's variables
    parent_map: dict[int, Term] = {}
    # per goal: (pattern, fact heads to join, callee key for a clause call)
    plans: list[tuple[Optional[Term], tuple | list, Optional[tuple[str, int]]]] = []
    for goal in goals:
        gkey = _goal_key(goal)
        if gkey in analysis.fields:
            callee = analysis.fields[gkey]
            out_var = goal.args[callee.cvar_pos]
            pattern = labels[id(goal)]
            if pattern is not None and isinstance(out_var, Var):
                parent_map[out_var.id] = pattern
            entity = None if pattern is None else _entity(goal, callee.cvar_pos)
            plans.append((entity, (), gkey))
        elif gkey in analysis.skipped:
            raise LearnError(
                f"clause for {fc.key[0]}/{fc.key[1]} calls {gkey[0]}/{gkey[1]}, "
                f"which is outside the supported fragment "
                f"({analysis.skipped[gkey]})"
            )
        else:  # facts; a predicate with no clauses has no alternatives
            plans.append((goal, analysis.facts.get(gkey, ()), None))
    demanded: list[list[tuple[tuple[str, int], Term]]] = [[] for _ in goals]

    def choices(k: int) -> Iterator[bool]:
        """Bind each alternative for goal k in turn."""
        pattern, values, callee = plans[k]
        if callee is not None:
            if pattern is None:
                return
            args = theta.resolve(pattern)
            if is_ground(args):
                demanded[k].append((callee, args))
                yield True
                return
            values = head_tuples[callee]
        mark = theta.mark()
        for value in values:
            if unify(pattern, value, theta):
                yield True
                theta.undo(mark)

    entity = _entity(fc.head, fc.cvar_pos)
    out = []

    def read_off() -> None:
        label = theta.resolve(fc.label)
        if not is_ground(label):
            return
        ltext = term_to_text(label)
        if ltext in seen:
            return
        parents = [
            theta.resolve(parent_map[pv.id]) if pv.id in parent_map else None
            for pv in fc.parent_vars
        ]
        out.append((ltext, label, parents, theta.resolve(entity)))

    if not goals:
        read_off()
    stack = [choices(0)] if goals else []  # one generator per goal entered
    while stack:
        if not next(stack[-1], False):
            stack.pop()
        elif len(stack) < len(goals):
            stack.append(choices(len(stack)))
        else:
            read_off()
    for level in demanded:
        for gkey, args in level:
            demands.setdefault((gkey, term_to_text(args)), (gkey, args))
    return out


def structural_ground(
    program: Program, population: Iterable[Term] = ()
) -> ConstraintNetwork:
    """Ground network read off the clause structure; may contain cycles."""
    return _network(program, *structural_instances(program, population))[0]


def _network(
    program: Program,
    insts: dict[tuple[str, int], list[_Instance]],
    analysis: _Analysis,
) -> tuple[ConstraintNetwork, dict[str, int]]:
    """The network over instances already found by structural_instances,
    and the id of each label's node by the label's text."""
    ordered: list[tuple[tuple[str, int], str, _Instance]] = []
    for key in sorted(insts):
        labelled = sorted(((term_to_text(i.label), i) for i in insts[key]), key=lambda e: e[0])
        ordered += [(key, text, inst) for text, inst in labelled]
    net = ConstraintNetwork(
        skolem_functors=set(program.skolem_registry),
        skolem_constants=program.skolem_constants,
    )
    ids = {text: nid for nid, (_, text, _) in enumerate(ordered)}
    for nid, (key, _, inst) in enumerate(ordered):
        fc = analysis.fields[key]
        parents = []
        for plabel in inst.parents:
            pid = ids.get(term_to_text(plabel))
            if pid is None:
                raise LearnError(
                    f"parent {term_to_text(plabel)} of "
                    f"{term_to_text(inst.label)} was never derived"
                )
            parents.append(pid)
        net._put(Node(nid, inst.label, fc.domain, fc.table, tuple(parents), None))
    for node in net.nodes.values():
        expected = len(node.domain)
        for p in node.parents:
            expected *= net.nodes[p].cardinality
        if len(node.table) != expected:
            raise LearnError(
                f"node {term_to_text(node.label)}: table length "
                f"{len(node.table)} does not match domain and parents "
                f"({expected})"
            )
    return net, ids


# --- counting -----------------------------------------------------------------


@dataclass
class _ClausePlan:
    fc: _FieldClause
    psizes: list[int]  # parent domain sizes, CPT order
    # per instance: (label text, domain texts) of the child, then its parents
    cells: list[list[tuple[str, tuple[str, ...]]]]


@dataclass
class _CountPlan:
    """What counting needs of one program, whatever the samples."""

    insts: dict[tuple[str, int], list[_Instance]]
    net: ConstraintNetwork
    ids: dict[str, int]  # node id by label text
    clauses: dict[tuple[str, int], _ClausePlan]  # defining clauses with instances


_plans: "weakref.WeakKeyDictionary[Program, _CountPlan]" = weakref.WeakKeyDictionary()


def _count_plan(program: Program, population: Iterable[Term]) -> _CountPlan:
    """The plan of the program with the population merged in, built once
    per merged program object."""
    prog = with_population(program, population)
    plan = _plans.get(prog)
    if plan is not None:
        return plan
    insts, analysis = structural_instances(prog)
    net, ids = _network(prog, insts, analysis)
    domains: dict[int, tuple[str, ...]] = {}

    def cell(label: str) -> tuple[str, tuple[str, ...]]:
        nid = ids[label]
        if nid not in domains:
            domains[nid] = tuple(map(term_to_text, net.nodes[nid].domain))
        return label, domains[nid]

    clauses = {}
    for key, fc in analysis.fields.items():
        if not insts[key]:
            continue
        cells = [
            [cell(term_to_text(inst.label))] + [cell(term_to_text(p)) for p in inst.parents]
            for inst in insts[key]
        ]
        psizes = [len(texts) for _, texts in cells[0][1:]]
        clauses[key] = _ClausePlan(fc, psizes, cells)
    plan = _plans[prog] = _CountPlan(insts, net, ids, clauses)
    return plan


def _count_tables(
    program: Program,
    population: Iterable[Term],
    samples: SampleSet,
) -> dict[tuple[str, int], tuple[np.ndarray, _FieldClause, list[int]]]:
    """Per defining clause: pooled (d x cols) counts over all instances.

    Returns counts, the clause record, and the parent domain sizes."""
    plan = _count_plan(program, population)
    # one parent column serves many instances: index each column once
    indexed: dict[tuple[str, tuple[str, ...]], tuple[np.ndarray, bool]] = {}

    def domain_indices(label: str, texts: tuple[str, ...]) -> tuple[np.ndarray, bool]:
        """Domain index of each cell of label's column, -1 outside the
        domain, and whether every cell is inside."""
        if (label, texts) not in indexed:
            j = samples.column(label)
            pos = {t: i for i, t in enumerate(texts)}
            lookup = np.array([pos.get(t, -1) for t in samples.texts[j]], dtype=np.int64)
            indexed[label, texts] = (lookup[samples.codes[j]], -1 not in lookup)
        return indexed[label, texts]

    out: dict[tuple[str, int], tuple[np.ndarray, _FieldClause, list[int]]] = {}
    for key, cp in plan.clauses.items():
        flats = []
        for cells in cp.cells:
            found = [domain_indices(*c) for c in cells]
            if not all(inside for _, inside in found):
                # the first bad row; in it, the child before its parents
                i = int(np.any([idx < 0 for idx, _ in found], axis=0).argmax())
                k = next(k for k, (idx, _) in enumerate(found) if idx[i] < 0)
                value = samples.rows[i][samples.column(cells[k][0])]
                where = "the domain" if k == 0 else "a parent domain"
                raise LearnError(f"value {value!r} is outside {where} of {cells[0][0]}")
            flat = found[0][0]  # row-major (value, parent 1, ..., parent k)
            for (idx, _), size in zip(found[1:], cp.psizes):
                flat = flat * size + idx
            flats.append(flat)
        shape = (len(cp.fc.domain), math.prod(cp.psizes))
        counts = np.bincount(np.concatenate(flats), minlength=math.prod(shape))
        out[key] = (counts.reshape(shape).astype(float), cp.fc, cp.psizes)
    return out


# --- fitting ------------------------------------------------------------------


def _literal_cpt(
    program: Program, fc: _FieldClause, table: Iterable[float], drop: Optional[int] = None
) -> Struct:
    """A literal table for clause fc with the given entries, without the
    parent at position drop. The domain and parents are taken from the
    program's own clause: with a population, fc belongs to a merged copy
    of the program, whose variables are not the program's."""
    domain, _table, parents = program.clauses[fc.clause_index].constraints[0].cpt.args
    kept = [p for j, p in enumerate(list_items(parents)) if j != drop]
    return Struct("p", (domain, mklist([float(x) for x in table]), mklist(kept)))


def _rewrite_tables(program: Program, cpts: dict[int, Struct]) -> Program:
    """The program with the literal table of clause i replaced by cpts[i],
    built from the program's own items in one pass, without printing them."""
    clause_no = {id(c): i for i, c in enumerate(program.clauses)}
    items = []
    for item in program.items:
        cpt = cpts.get(clause_no.get(id(item)))
        if cpt is not None:
            con = replace(item.constraints[0], cpt=cpt)
            eq = Struct("=", (con.var, con.skolem))
            braces = Struct("{}", (Struct("with", (eq, cpt)),))
            item = replace(
                item,
                body=tuple(braces if _is_braces(g) else g for g in item.body),
                constraints=(con,),
            )
        items.append(item)
    return Program(items)


def fit_cpts(
    program: Program,
    population: Iterable[Term] = (),
    samples: Optional[SampleSet] = None,
    alpha: float = 1.0,
) -> Program:
    """Replace every literal table with smoothed ML estimates.

    Counts are pooled over all ground instances of each defining clause
    (all instances share one table). Entries become
    (count + alpha) / (column-total + alpha * domain-size). LearnError if
    alpha is negative or not finite, if an entry with count + alpha above
    0 is not a positive finite number, or if alpha is 0 and a parent
    configuration never occurs.
    """
    if samples is None:
        raise LearnError("fit_cpts needs a sample set")
    _check_alpha(alpha)
    # population facts follow the program's clauses, so indexes carry over
    cpts = {}
    for counts, fc, _psizes in _count_tables(program, population, samples).values():
        smoothed = _smoothed(counts, alpha)
        if np.isnan(smoothed).any():
            raise LearnError(
                "a parent configuration never occurs in the samples; "
                "fit with a smoothing constant above 0"
            )
        cpts[fc.clause_index] = _literal_cpt(program, fc, smoothed.ravel())
    return _rewrite_tables(program, cpts)


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise LearnError(f"smoothing constant must be a finite number at least 0, got {alpha!r}")


def _smoothed(counts: np.ndarray, alpha: float) -> np.ndarray:
    """(count + alpha) / (column total + alpha * domain size) for every cell.

    A column with no count and no smoothing is 0/0, NaN. Every cell with
    count + alpha above 0 must come out a positive finite number; a huge
    alpha overflows the denominator and rounds its estimates to 0.
    """
    num = counts + alpha
    with np.errstate(invalid="ignore"):
        est = num / (counts.sum(axis=0) + alpha * counts.shape[0])
    if ((num > 0) & ~((est > 0) & np.isfinite(est))).any():
        raise LearnError(
            f"smoothing constant {alpha!r} gives an estimate that is not a positive finite number"
        )
    return est


# --- scoring ------------------------------------------------------------------


def bic_score(
    program: Program,
    population: Iterable[Term] = (),
    samples: Optional[SampleSet] = None,
    alpha: float = 0.0,
) -> float:
    """Log-likelihood under ML parameters minus (k/2) ln N; higher is better.

    ML parameters are unsmoothed by default (alpha = 0); pass alpha > 0 to
    score against smoothed estimates instead (LearnError if alpha is
    negative or not finite, or if an estimate for a counted cell is not a
    positive finite number). k counts
    (domain-1) x product(parent sizes) free parameters per defining clause
    (tables are tied across instances). Parent configurations that never
    occur contribute nothing. Cycles in the ground structure are no
    obstacle: the score is a sum of per-node conditional terms.
    """
    if samples is None:
        raise LearnError("bic_score needs a sample set")
    _check_alpha(alpha)
    n = len(samples)
    if n == 0:
        return 0.0
    tables = _count_tables(program, population, samples)
    loglik = 0.0
    k = 0
    for key in sorted(tables):
        counts, fc, psizes = tables[key]
        d, cols = counts.shape
        k += (d - 1) * int(np.prod(psizes)) if psizes else (d - 1)
        est = _smoothed(counts, alpha)
        for j in range(cols):
            for r in range(d):
                c = counts[r, j]
                if c > 0:
                    loglik += c * math.log(est[r, j])
    return loglik - 0.5 * k * math.log(n)


# --- cycle removal --------------------------------------------------------------


def _cycle_edges(net: ConstraintNetwork) -> set[tuple[int, int]]:
    """Directed edges that lie inside a strongly connected component."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comp: dict[int, int] = {}
    counter = [0]
    comp_id = [0]
    children = {v: sorted(cs) for v, cs in net._child_lists().items()}

    def strongconnect(v: int) -> None:
        work = [(v, iter(children[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(children[w])))
                    advanced = True
                    break
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = comp_id[0]
                    if w == node:
                        break
                comp_id[0] += 1

    for v in net.nodes:
        if v not in index:
            strongconnect(v)
    members: dict[int, int] = {}
    for v, c in comp.items():
        members[c] = members.get(c, 0) + 1
    edges = set()
    for child in net.nodes.values():
        for p in child.parents:
            if comp[p] == comp[child.id] and members[comp[child.id]] > 1:
                edges.add((p, child.id))
    return edges


def _delete_parent(
    program: Program, fc: _FieldClause, position: int, psizes: list[int]
) -> Program:
    """Remove one CPT parent from a defining clause, averaging the table
    over the removed axis."""
    vals = np.asarray(fc.table, dtype=float).reshape(len(fc.domain), *psizes)
    table = vals.mean(axis=1 + position).ravel()
    cpt = _literal_cpt(program, fc, table, drop=position)
    return _rewrite_tables(program, {fc.clause_index: cpt})


def remove_cycles(
    program: Program,
    population: Iterable[Term] = (),
    samples: Optional[SampleSet] = None,
) -> Program:
    """Delete single CPT parents until the ground network is acyclic.

    Each step considers every parent deletion that removes at least one
    edge inside a cycle, scores the resulting program, and keeps the
    deletion with the smallest BIC drop (ties by the parent predicate's
    name, then clause order). Acyclic input comes back unchanged.
    """
    if samples is None:
        raise LearnError("remove_cycles needs a sample set")
    current = program
    while True:
        plan = _count_plan(current, population)
        ok, _cycle = plan.net.check_acyclic()
        if ok:
            return current
        bad = _cycle_edges(plan.net)
        candidates = []
        for key, cp in plan.clauses.items():
            for j in range(len(cp.psizes)):
                removed = {
                    (plan.ids[cells[1 + j][0]], plan.ids[cells[0][0]])
                    for cells in cp.cells
                }
                if not (removed & bad):
                    continue
                trial = _delete_parent(current, cp.fc, j, cp.psizes)
                score = bic_score(trial, population, samples)
                parent_functor = _parent_functor_name(plan.insts[key][0].parents[j])
                candidates.append(
                    (-score, parent_functor, cp.fc.clause_index, j, trial)
                )
        if not candidates:
            raise LearnError(
                "the ground network is cyclic but no parent deletion "
                "breaks a cycle"
            )
        candidates.sort(key=lambda c: c[:4])
        current = candidates[0][4]


def _parent_functor_name(label: Term) -> str:
    if isinstance(label, Struct):
        return label.functor
    if isinstance(label, Atom):
        return label.name
    return term_to_text(label)


# --- structure comparison --------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    link_precision: float
    link_recall: float
    direction_match: float
    markov_precision: float
    markov_recall: float

    def to_json(self) -> dict:
        return {
            "link_precision": self.link_precision,
            "link_recall": self.link_recall,
            "direction_match": self.direction_match,
            "markov_precision": self.markov_precision,
            "markov_recall": self.markov_recall,
        }


def _edges_by_label(net: ConstraintNetwork) -> set[tuple[str, str]]:
    out = set()
    for child in net.nodes.values():
        for p in child.parents:
            out.add(
                (term_to_text(net.nodes[p].label), term_to_text(child.label))
            )
    return out


def _markov_pairs(net: ConstraintNetwork) -> set[frozenset]:
    """Unordered pairs where one node is in the other's Markov blanket."""
    pairs: set[frozenset] = set()
    for child in net.nodes.values():
        clabel = term_to_text(child.label)
        plabels = [term_to_text(net.nodes[p].label) for p in child.parents]
        for pl in plabels:
            pairs.add(frozenset((pl, clabel)))
        for i in range(len(plabels)):
            for j in range(i + 1, len(plabels)):
                if plabels[i] != plabels[j]:
                    pairs.add(frozenset((plabels[i], plabels[j])))
    return pairs


def _ratio(hit: int, total: int) -> float:
    return hit / total if total else 1.0


def compare_structures(
    learned: Program,
    truth: Program,
    population: Iterable[Term] = (),
) -> StructureReport:
    lnet = structural_ground(learned, population)
    tnet = structural_ground(truth, population)
    lnodes = {term_to_text(n.label) for n in lnet.nodes.values()}
    tnodes = {term_to_text(n.label) for n in tnet.nodes.values()}
    if lnodes != tnodes:
        only_l = sorted(lnodes - tnodes)[:3]
        only_t = sorted(tnodes - lnodes)[:3]
        raise LearnError(
            f"node sets differ (only learned: {only_l}, only truth: {only_t})"
        )
    ledges = _edges_by_label(lnet)
    tedges = _edges_by_label(tnet)
    llinks = {frozenset(e) for e in ledges}
    tlinks = {frozenset(e) for e in tedges}
    shared = llinks & tlinks
    direction_hits = 0
    for link in shared:
        l_dir = {e for e in ledges if frozenset(e) == link}
        t_dir = {e for e in tedges if frozenset(e) == link}
        if l_dir == t_dir:
            direction_hits += 1
    lmark = _markov_pairs(lnet)
    tmark = _markov_pairs(tnet)
    return StructureReport(
        link_precision=_ratio(len(shared), len(llinks)),
        link_recall=_ratio(len(shared), len(tlinks)),
        direction_match=_ratio(direction_hits, len(shared)),
        markov_precision=_ratio(len(lmark & tmark), len(lmark)),
        markov_recall=_ratio(len(lmark & tmark), len(tmark)),
    )
