"""Program representation, CPT tables, and well-formedness validation.

A program is a sequence of clauses. Constraint goals (``{V = Sk with
Cpt}``) stay in the body at their written position, because the CPT may
be computed by goals that run before it; ``Clause.constraints`` is an
extracted view used by the validator and the Skolem registry.

Table layout: for a domain of size d and parents with domain sizes
n1..nk, the flat table has length d * n1 * ... * nk. Entry for output
value r under parent assignment (i1..ik) sits at ``r * C + col`` where
``C = n1*...*nk`` and ``col = ((i1*n2 + i2)*n3 + ...)*nk + ik``: the first
parent varies slowest. Every column of a well-formed table sums to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .errors import ClpbnSyntaxError, InvalidProgramError, MalformedCptError
from .parser import read_terms, term_to_text
from .terms import (
    Atom,
    FreshVars,
    Struct,
    Term,
    Var,
    conj_items,
    is_ground,
    is_number,
    is_variant,
    list_items,
    subterms,
    term_equal,
    vars_of,
)

NORMALIZATION_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Constraint:
    """``{var = skolem with cpt}``; cpt is a p/3 term or a variable."""

    var: Var
    skolem: Union[Struct, Atom]
    cpt: Term

    @property
    def functor_key(self) -> tuple[str, int]:
        if isinstance(self.skolem, Struct):
            return (self.skolem.functor, self.skolem.arity)
        return (self.skolem.name, 0)

    def to_text(self) -> str:
        sk = term_to_text(self.skolem)
        return f"{{{term_to_text(self.var)} = {sk} with {term_to_text(self.cpt)}}}"


@dataclass(frozen=True)
class Clause:
    head: Term
    body: tuple[Term, ...]
    constraints: tuple[Constraint, ...]
    line: int = 0

    @property
    def key(self) -> tuple[str, int]:
        if isinstance(self.head, Struct):
            return (self.head.functor, self.head.arity)
        if isinstance(self.head, Atom):
            return (self.head.name, 0)
        raise ClpbnSyntaxError(f"clause head must be callable: {self.head!r}")

    def to_text(self) -> str:
        if not self.body:
            return term_to_text(self.head) + "."
        parts = [term_to_text(g) for g in self.body]
        return term_to_text(self.head) + " :- " + ", ".join(parts) + "."


@dataclass(frozen=True)
class Directive:
    goal: Term
    line: int = 0

    def to_text(self) -> str:
        return ":- " + term_to_text(self.goal) + "."


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    clause_index: Optional[int] = None
    line: Optional[int] = None

    def format(self) -> str:
        where = f" (clause {self.clause_index + 1}" + (
            f", line {self.line})" if self.line else ")"
        ) if self.clause_index is not None else ""
        return f"{self.severity}: {self.code}: {self.message}{where}"

    def to_json(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "clause": self.clause_index,
            "line": self.line,
        }


def _constraint_from_braces(inner: Term, line: int) -> Constraint:
    if (
        isinstance(inner, Struct)
        and inner.functor == "with"
        and inner.arity == 2
        and isinstance(inner.args[0], Struct)
        and inner.args[0].functor == "="
        and inner.args[0].arity == 2
    ):
        v, sk = inner.args[0].args
        cpt = inner.args[1]
        if not isinstance(v, Var):
            raise ClpbnSyntaxError(
                f"constraint variable must be a variable, found {term_to_text(v)}", line
            )
        if not isinstance(sk, (Struct, Atom)):
            raise ClpbnSyntaxError(
                f"Skolem term must be an atom or compound, found {term_to_text(sk)}", line
            )
        return Constraint(v, sk, cpt)
    raise ClpbnSyntaxError(
        "constraint must have the form {Var = Skolem with Cpt}", line
    )


class Program:
    """Clauses plus the Skolem registry and program-level declarations."""

    def __init__(self, items: Iterable[Union[Clause, Directive]]) -> None:
        self.items: tuple[Union[Clause, Directive], ...] = tuple(items)
        self.clauses: tuple[Clause, ...] = tuple(
            c for c in self.items if isinstance(c, Clause)
        )
        self.index: dict[tuple[str, int], list[int]] = {}
        for i, c in enumerate(self.clauses):
            self.index.setdefault(c.key, []).append(i)
        # A functor may anchor a recursive family with terms of different
        # shapes (c(0) in a base clause, c(I) in the step clause), so only
        # re-introducing a functor with a *variant* Skolem term counts as
        # a duplicate. First introduction owns the registry entry.
        self.skolem_registry: dict[tuple[str, int], tuple[int, int]] = {}
        self._skolem_intros: dict[tuple[str, int], list[tuple[int, int, Term]]] = {}
        self._duplicate_skolems: list[tuple[int, int, tuple[str, int], int]] = []
        for i, c in enumerate(self.clauses):
            for j, con in enumerate(c.constraints):
                key = con.functor_key
                intros = self._skolem_intros.setdefault(key, [])
                clash = next(
                    (ci for ci, _, sk in intros if is_variant(con.skolem, sk)), None
                )
                if clash is not None:
                    self._duplicate_skolems.append((i, j, key, clash))
                else:
                    intros.append((i, j, con.skolem))
                if key not in self.skolem_registry:
                    self.skolem_registry[key] = (i, j)
        self.skolem_constants: frozenset[str] = frozenset()
        self.evidence: list[tuple[Term, Term]] = []
        for d in self.items:
            if not isinstance(d, Directive):
                continue
            g = d.goal
            if isinstance(g, Struct) and g.functor == "skolem_constants" and g.arity == 1:
                names = list_items(g.args[0]) or []
                self.skolem_constants = self.skolem_constants | {
                    a.name for a in names if isinstance(a, Atom)
                }
            elif isinstance(g, Struct) and g.functor == "evidence" and g.arity == 2:
                self.evidence.append((g.args[0], g.args[1]))
        self._diagnostics: Optional[list[Diagnostic]] = None

    # --- structure ----------------------------------------------------

    def is_skolem_functor(self, name: str, arity: int) -> bool:
        if (name, arity) in self.skolem_registry:
            return True
        return arity == 0 and name in self.skolem_constants

    def is_skolem_term(self, t: Term) -> bool:
        if isinstance(t, Struct):
            return self.is_skolem_functor(t.functor, t.arity)
        if isinstance(t, Atom):
            return self.is_skolem_functor(t.name, 0)
        return False

    def has_skolem_subterm(self, t: Term) -> bool:
        return any(self.is_skolem_term(x) for x in subterms(t))

    def constraint_defining_predicates(self) -> list[tuple[str, int]]:
        """Predicates with at least one constraint-carrying clause, in order."""
        seen: list[tuple[str, int]] = []
        for c in self.clauses:
            if c.constraints and c.key not in seen:
                seen.append(c.key)
        return seen

    # --- validation ---------------------------------------------------

    def validate(self, tolerance: float = NORMALIZATION_TOLERANCE) -> list[Diagnostic]:
        if self._diagnostics is None:
            self._diagnostics = validate(self, tolerance=tolerance)
        return self._diagnostics

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.validate() if d.severity == "error"]

    def ensure_valid(self) -> None:
        errs = self.errors()
        if errs:
            raise InvalidProgramError(errs)

    def to_text(self) -> str:
        return "\n".join(item.to_text() for item in self.items) + "\n"


def parse_program(text: str) -> Program:
    """Parse program text. Raises ClpbnSyntaxError on malformed input;
    well-formedness issues are reported by ``validate`` instead."""
    items: list[Union[Clause, Directive]] = []
    for term, line, _vars in read_terms(text):
        if isinstance(term, Struct) and term.functor == ":-" and term.arity == 1:
            items.append(Directive(term.args[0], line))
            continue
        if isinstance(term, Struct) and term.functor == ":-" and term.arity == 2:
            head, body_term = term.args
            goals: list[Term] = []
            constraints: list[Constraint] = []
            for g in conj_items(body_term):
                if isinstance(g, Struct) and g.functor == "{}" and g.arity == 1:
                    constraints.append(_constraint_from_braces(g.args[0], line))
                goals.append(g)
            items.append(Clause(head, tuple(goals), tuple(constraints), line))
            continue
        if isinstance(term, (Atom, Struct)):
            items.append(Clause(term, (), (), line))
            continue
        raise ClpbnSyntaxError(f"not a valid clause: {term_to_text(term)}", line)
    return Program(items)


def with_population(program: Program, population: Iterable[Term]) -> Program:
    """The program with extra ground facts (entity tables) appended."""
    facts = list(population)
    if not facts:
        return program
    return parse_program(
        program.to_text() + "\n" + "".join(term_to_text(f) + ".\n" for f in facts)
    )


def parse_query(text: str) -> tuple[list[Term], dict[str, Var]]:
    """Parse a query (a goal conjunction, optional trailing period)."""
    stripped = text.strip()
    if stripped.startswith("?-"):
        stripped = stripped[2:]
    if stripped.endswith("."):
        stripped = stripped[:-1]
    if not stripped.strip():
        raise ClpbnSyntaxError("empty query")
    from .parser import _Reader, tokenize  # local import to reuse varmap capture

    reader = _Reader(tokenize(stripped + " ."), FreshVars())
    c = reader.read_clause()
    assert c is not None
    term, _line, varmap = c
    if reader.peek().kind != "eof":
        raise ClpbnSyntaxError("trailing input after query")
    return conj_items(term), varmap


# --- CPT tables --------------------------------------------------------


@dataclass(frozen=True)
class CptSpec:
    """A ground p(Domain, Table, Parents) payload."""

    domain: tuple[Term, ...]
    table: tuple[float, ...]
    parents: tuple[Term, ...]


def column_count(table_len: int, domain_size: int) -> int:
    return table_len // domain_size


def column(table: tuple[float, ...] | list[float], domain_size: int, col: int) -> list[float]:
    c = column_count(len(table), domain_size)
    return [table[r * c + col] for r in range(domain_size)]


def col_index(parent_value_indices: Iterable[int], parent_sizes: Iterable[int]) -> int:
    idx = 0
    for i, n in zip(parent_value_indices, parent_sizes):
        idx = idx * n + i
    return idx


def cpt_spec_from_term(t: Term, is_skolem: Callable[[Term], bool]) -> CptSpec:
    """Destructure a ground p/3 term, enforcing the deferred shape conditions."""
    if not (isinstance(t, Struct) and t.functor == "p" and t.arity == 3):
        raise MalformedCptError(f"CPT is not p(Domain, Table, Parents): {term_to_text(t)}")
    d_items = list_items(t.args[0])
    if d_items is None or not d_items:
        raise MalformedCptError("CPT domain must be a non-empty list")
    for v in d_items:
        if not is_ground(v):
            raise MalformedCptError(f"domain value not ground: {term_to_text(v)}")
        if any(is_skolem(x) for x in subterms(v)):
            raise MalformedCptError(f"domain value contains a Skolem term: {term_to_text(v)}")
    for i, v in enumerate(d_items):
        for w in d_items[i + 1 :]:
            if term_equal(v, w):
                raise MalformedCptError(f"duplicate domain value: {term_to_text(v)}")
    t_items = list_items(t.args[1])
    if t_items is None or not t_items:
        raise MalformedCptError("CPT table must be a non-empty list")
    table: list[float] = []
    for x in t_items:
        if not is_number(x):
            raise MalformedCptError(f"table entry is not a number: {term_to_text(x)}")
        if not (0.0 <= float(x) <= 1.0):
            raise MalformedCptError(f"table entry outside [0,1]: {x}")
        table.append(float(x))
    if len(table) % len(d_items) != 0:
        raise MalformedCptError(
            f"table length {len(table)} is not a multiple of domain size {len(d_items)}"
        )
    p_items = list_items(t.args[2])
    if p_items is None:
        raise MalformedCptError("CPT parent list must be a proper list")
    return CptSpec(tuple(d_items), tuple(table), tuple(p_items))


# --- validator ---------------------------------------------------------


def validate(program: Program, tolerance: float = NORMALIZATION_TOLERANCE) -> list[Diagnostic]:
    """Well-formedness diagnostics, stable order (clause, constraint, code).

    Errors use codes WF1, WF2, WF3a, WF3b, WF3c. Tables bound at runtime
    are deferred to posting time, except that clauses whose heads can bind
    the table variable to a ground list get their candidate tables'
    columns checked here (warnings only).
    """
    out: list[Diagnostic] = []
    dup = {(i, j): (key, owner) for i, j, key, owner in program._duplicate_skolems}
    for ci, clause in enumerate(program.clauses):
        # Logical portion: head plus body goals that are not constraints.
        body_vars = {v.id for v in vars_of(clause.head)}
        for g in clause.body:
            if isinstance(g, Struct) and g.functor == "{}" and g.arity == 1:
                continue
            body_vars.update(v.id for v in vars_of(g))
        for ki, con in enumerate(clause.constraints):
            # WF2: a Skolem term is introduced by exactly one constraint
            if (ci, ki) in dup:
                (name, arity), owner = dup[(ci, ki)]
                out.append(
                    Diagnostic(
                        "error",
                        "WF2",
                        f"Skolem functor {name}/{arity} already introduced in clause {owner + 1}",
                        ci,
                        clause.line,
                    )
                )
            # WF1: constraint variables must occur in the clause proper
            con_vars = {v.id for v in vars_of(con.var)}
            con_vars.update(v.id for v in vars_of(con.skolem))
            con_vars.update(v.id for v in vars_of(con.cpt))
            if not con_vars <= body_vars:
                out.append(
                    Diagnostic(
                        "error",
                        "WF1",
                        "constraint uses a variable that appears nowhere else in the clause",
                        ci,
                        clause.line,
                    )
                )
            out.extend(_check_cpt_shape(program, clause, ci, con, tolerance))
    return out


def _check_cpt_shape(
    program: Program,
    clause: Clause,
    ci: int,
    con: Constraint,
    tolerance: float,
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    cpt = con.cpt
    if isinstance(cpt, Var):
        return out  # bound at runtime; nothing checkable statically
    if not (isinstance(cpt, Struct) and cpt.functor == "p" and cpt.arity == 3):
        out.append(
            Diagnostic(
                "error",
                "WF3c",
                f"CPT must be p(Domain, Table, Parents), found {term_to_text(cpt)}",
                ci,
                clause.line,
            )
        )
        return out
    d_term, t_term, p_term = cpt.args
    d_items = list_items(d_term)
    d_ok = False
    if d_items is None:
        out.append(
            Diagnostic(
                "error", "WF3a", "domain is not a proper list", ci, clause.line
            )
        )
    else:
        d_ok = True
        if not all(is_ground(v) for v in d_items):
            out.append(
                Diagnostic("error", "WF3a", "domain is not ground", ci, clause.line)
            )
            d_ok = False
        else:
            for i, v in enumerate(d_items):
                if any(term_equal(v, w) for w in d_items[i + 1 :]):
                    out.append(
                        Diagnostic(
                            "error",
                            "WF3a",
                            f"domain values are not distinct: {term_to_text(v)}",
                            ci,
                            clause.line,
                        )
                    )
                    d_ok = False
                    break
            for v in d_items:
                if is_ground(v) and program.has_skolem_subterm(v):
                    out.append(
                        Diagnostic(
                            "error",
                            "WF3a",
                            f"domain value contains a Skolem term: {term_to_text(v)}",
                            ci,
                            clause.line,
                        )
                    )
                    d_ok = False
                    break
    p_items = list_items(p_term)
    if p_items is None and not isinstance(p_term, Var):
        out.append(
            Diagnostic(
                "error", "WF3b", "parent list is not a proper list", ci, clause.line
            )
        )
    elif p_items is not None:
        for pv in p_items:
            if isinstance(pv, Var):
                continue
            if program.is_skolem_term(pv) and is_ground(pv):
                continue
            out.append(
                Diagnostic(
                    "error",
                    "WF3b",
                    f"parent is not a Skolem-constrained variable: {term_to_text(pv)}",
                    ci,
                    clause.line,
                )
            )
    if isinstance(t_term, Var):
        if d_ok and d_items:
            out.extend(
                _scan_fact_bound_tables(program, clause, ci, t_term, len(d_items), tolerance)
            )
        return out
    t_items = list_items(t_term)
    if t_items is None:
        out.append(
            Diagnostic(
                "error", "WF3c", "table is not a proper list", ci, clause.line
            )
        )
        return out
    ground_table = True
    for x in t_items:
        if isinstance(x, Var):
            ground_table = False
            continue
        if not is_number(x):
            out.append(
                Diagnostic(
                    "error",
                    "WF3c",
                    f"table entry is not a number: {term_to_text(x)}",
                    ci,
                    clause.line,
                )
            )
            ground_table = False
        elif not (0.0 <= float(x) <= 1.0):
            out.append(
                Diagnostic(
                    "error",
                    "WF3c",
                    f"table entry outside [0,1]: {term_to_text(x)}",
                    ci,
                    clause.line,
                )
            )
    if d_ok and d_items and len(t_items) % len(d_items) != 0:
        out.append(
            Diagnostic(
                "error",
                "WF3c",
                f"table length {len(t_items)} is not a multiple of domain size {len(d_items)}",
                ci,
                clause.line,
            )
        )
        return out
    if d_ok and d_items and ground_table:
        table = [float(x) for x in t_items]
        out.extend(_column_warnings(table, len(d_items), ci, clause.line, "", tolerance))
    return out


def _column_warnings(
    table: list[float],
    d: int,
    clause_index: int,
    line: Optional[int],
    origin: str,
    tolerance: float,
) -> list[Diagnostic]:
    out = []
    cols = column_count(len(table), d)
    for j in range(cols):
        s = sum(column(table, d, j))
        if abs(s - 1.0) > tolerance:
            out.append(
                Diagnostic(
                    "warning",
                    "non-normalized-column",
                    f"{origin}column {j + 1} sums to {s:.6g}, not 1",
                    clause_index,
                    line,
                )
            )
    return out


def _scan_fact_bound_tables(
    program: Program,
    clause: Clause,
    ci: int,
    table_var: Var,
    d: int,
    tolerance: float,
) -> list[Diagnostic]:
    """Check tables a body goal can bind the CPT table variable to.

    For a constraint like ``{V = sk(S) with p(Dom, T, [])}`` where T is
    produced by a body goal ``lookup(S, T)``, every program clause head
    for lookup whose corresponding argument is a ground number list is a
    candidate table; its column sums are checked against the constraint's
    domain size. Warnings only; real shape errors surface at posting time.
    """
    out: list[Diagnostic] = []
    for g in clause.body:
        if not isinstance(g, Struct):
            continue
        for j, arg in enumerate(g.args):
            if not (isinstance(arg, Var) and arg.id == table_var.id):
                continue
            for idx in program.index.get((g.functor, g.arity), []):
                head = program.clauses[idx].head
                if not isinstance(head, Struct):
                    continue
                cand = list_items(head.args[j])
                if cand is None or not cand or not all(is_number(x) for x in cand):
                    continue
                if len(cand) % d != 0:
                    continue
                out.extend(
                    _column_warnings(
                        [float(x) for x in cand],
                        d,
                        idx,
                        program.clauses[idx].line,
                        f"table bound via {g.functor}/{g.arity}: ",
                        tolerance,
                    )
                )
    return out
