"""Compiling relational schemas with probabilistic fields into programs.

A schema lists tables; each table's first field is its key, other fields
are foreign keys or plain data, and any field may be declared
probabilistic with a domain, a CPT, and parent slot chains. Every non-key
field i of table r becomes a binary predicate r<i>(Key, Value) (1-based
field index). Probabilistic fields compile to one clause each, built in
three stages: the relational stage walks the parent slot chains as
r<i>(Key, Value) literals, the aggregation stage reduces a multi-valued
parent set through findall plus a deterministic aggregate CPT, and the
constraint stage posts the field's CPT with the chain endpoints as
parents.

A skeleton holds the data: per table, a list of rows. Non-key relational
cells become facts; a missing one is filled with a fresh Skolem constant
that appears nowhere else. Observed probabilistic cells become evidence
declarations (so inference conditions on them); missing ones need no
entry at all, the field's clause derives them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import PrmError
from .parser import term_to_text
from .program import Program, parse_program
from .terms import Atom, FreshVars, Struct, Term, Var, conj_items, mkconj, mklist, term_equal

AGGREGATORS = ("mean", "mode", "min", "max")


# --- schema -------------------------------------------------------------------


@dataclass(frozen=True)
class SlotChain:
    steps: tuple[tuple[str, str], ...]  # (table, field) per step
    aggregate: Optional[str] = None
    aggregate_domain: tuple[Term, ...] = ()


@dataclass(frozen=True)
class ProbabilisticField:
    table: str
    name: str
    domain: tuple[Term, ...]
    cpt: tuple[float, ...]
    parents: tuple[SlotChain, ...]


@dataclass(frozen=True)
class Table:
    name: str
    abbrev: str
    fields: tuple[str, ...]
    foreign_keys: dict[str, str] = field(default_factory=dict)
    probabilistic: dict[str, ProbabilisticField] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return self.fields[0]

    def field_index(self, name: str) -> int:
        return self.fields.index(name) + 1


@dataclass(frozen=True)
class PrmSchema:
    tables: dict[str, Table]
    order: tuple[str, ...]

    def table(self, name: str) -> Table:
        if name not in self.tables:
            raise PrmError(f"schema has no table named {name}")
        return self.tables[name]


def _value_term(v: Union[str, int, float]) -> Term:
    if isinstance(v, bool) or v is None:
        raise PrmError(f"unsupported cell value {v!r}")
    if isinstance(v, (int, float)):
        return v
    return Atom(str(v))


def load_schema(source: Union[str, dict]) -> PrmSchema:
    data = json.loads(source) if isinstance(source, str) else source
    tables: dict[str, Table] = {}
    order = []
    for t in data["tables"]:
        name = t["name"]
        fields = tuple(t["fields"])
        if len(fields) < 1:
            raise PrmError(f"table {name} has no fields")
        if len(set(fields)) != len(fields):
            raise PrmError(f"table {name} repeats a field name")
        fks = dict(t.get("foreign_keys", {}))
        prob = {}
        for fname, spec in t.get("probabilistic", {}).items():
            if fname not in fields:
                raise PrmError(f"table {name} has no field {fname}")
            if fname == fields[0]:
                raise PrmError(f"key field {name}.{fname} cannot be probabilistic")
            if fname in fks:
                raise PrmError(
                    f"field {name}.{fname} cannot be both a foreign key and "
                    "probabilistic"
                )
            chains = []
            for p in spec.get("parents", []):
                if not isinstance(p, dict) or "chain" not in p:
                    raise PrmError(
                        f"parent of {name}.{fname} must be an object with "
                        'a "chain" list'
                    )
                agg = p.get("aggregate")
                if agg is not None and agg not in AGGREGATORS:
                    raise PrmError(f"unknown aggregator {agg!r}")
                chains.append(
                    SlotChain(
                        steps=tuple((s[0], s[1]) for s in p["chain"]),
                        aggregate=agg,
                        aggregate_domain=tuple(
                            _value_term(v) for v in p.get("aggregate_domain", [])
                        ),
                    )
                )
            prob[fname] = ProbabilisticField(
                table=name,
                name=fname,
                domain=tuple(_value_term(v) for v in spec["domain"]),
                cpt=tuple(float(x) for x in spec["cpt"]),
                parents=tuple(chains),
            )
        if name in tables:
            raise PrmError(f"duplicate table name {name}")
        tables[name] = Table(
            name=name,
            abbrev=t.get("abbrev", name.capitalize()),
            fields=fields,
            foreign_keys=fks,
            probabilistic=prob,
        )
        order.append(name)
    schema = PrmSchema(tables=tables, order=tuple(order))
    _check_schema(schema)
    return schema


def _field_type(schema: PrmSchema, table: Table, fname: str) -> Optional[str]:
    """The entity type a field holds: the table itself for its key, the
    target table for a foreign key, None for attribute fields."""
    if fname == table.key:
        return table.name
    return table.foreign_keys.get(fname)


def _check_schema(schema: PrmSchema) -> None:
    for table in schema.tables.values():
        for fname, target in table.foreign_keys.items():
            if fname not in table.fields:
                raise PrmError(f"table {table.name} has no field {fname}")
            if target not in schema.tables:
                raise PrmError(
                    f"foreign key {table.name}.{fname} references unknown "
                    f"table {target}"
                )
        for pf in table.probabilistic.values():
            _check_field(schema, table, pf)


def _check_field(schema: PrmSchema, table: Table, pf: ProbabilisticField) -> None:
    cols = 1
    aggregated = [
        c for c in pf.parents if _is_multivalued(schema, table, c, pf.name)
    ]
    if aggregated and len(pf.parents) != 1:
        raise PrmError(
            f"{table.name}.{pf.name}: an aggregated parent must be the only "
            "parent"
        )
    for chain in pf.parents:
        _, end = _walk_chain(schema, table, chain, pf.name)
        if chain in aggregated:
            if chain.aggregate is None:
                raise PrmError(
                    f"{table.name}.{pf.name}: multi-valued parent chain "
                    "needs an aggregator"
                )
            if not chain.aggregate_domain:
                raise PrmError(
                    f"{table.name}.{pf.name}: aggregated parent needs an "
                    "aggregate_domain"
                )
            cols *= len(chain.aggregate_domain)
        else:
            cols *= len(end.domain)
    if len(pf.cpt) != len(pf.domain) * cols:
        raise PrmError(
            f"{table.name}.{pf.name}: CPT has {len(pf.cpt)} entries, "
            f"expected {len(pf.domain) * cols}"
        )


def _walk_chain(
    schema: PrmSchema, owner: Table, chain: SlotChain, context: str
) -> tuple[list[str], ProbabilisticField]:
    """Type-check a chain and classify each relational step.

    Returns the direction of every non-terminal step ("forward" when the
    current entity holds the step table's key, "backward" when it matches
    the step field's type) and the probabilistic field the chain ends on.
    A backward step can reach many rows, which is what makes a chain
    multi-valued.
    """
    if not chain.steps:
        raise PrmError(f"{owner.name}.{context}: empty parent chain")
    cur = owner.name
    directions: list[str] = []
    for i, (stable, sfield) in enumerate(chain.steps):
        t = schema.table(stable)
        if sfield not in t.fields:
            raise PrmError(
                f"{owner.name}.{context}: chain step references missing "
                f"field {stable}.{sfield}"
            )
        last = i == len(chain.steps) - 1
        if last:
            if sfield not in t.probabilistic:
                raise PrmError(
                    f"{owner.name}.{context}: chain must end on a "
                    f"probabilistic field, got {stable}.{sfield}"
                )
            if cur != t.name:
                raise PrmError(
                    f"{owner.name}.{context}: cannot reach {stable}.{sfield} "
                    f"from {cur}"
                )
            return directions, t.probabilistic[sfield]
        ftype = _field_type(schema, t, sfield)
        if ftype is None:
            raise PrmError(
                f"{owner.name}.{context}: {stable}.{sfield} is not a key "
                "or foreign key"
            )
        if cur == t.name and cur == ftype:
            raise PrmError(
                f"{owner.name}.{context}: ambiguous step {stable}.{sfield}"
            )
        if cur == t.name:
            directions.append("forward")
            cur = ftype
        elif cur == ftype:
            directions.append("backward")
            cur = t.name
        else:
            raise PrmError(
                f"{owner.name}.{context}: step {stable}.{sfield} does not "
                f"connect to {cur}"
            )
    raise PrmError("unreachable")


def _is_multivalued(
    schema: PrmSchema, owner: Table, chain: SlotChain, context: str = "?"
) -> bool:
    directions, _ = _walk_chain(schema, owner, chain, context)
    return "backward" in directions


# --- clause construction --------------------------------------------------------


class _Names:
    """Fresh query variables with readable, collision-free names."""

    def __init__(self) -> None:
        self.ids = FreshVars()
        self.used: set[str] = set()

    def var(self, base: str) -> Var:
        name = base
        k = 2
        while name in self.used:
            name = f"{base}{k}"
            k += 1
        self.used.add(name)
        return self.ids.new(name)


def predicate_name(table: Table, fname: str) -> str:
    return f"{table.name}{table.field_index(fname)}"


def _chain_literals(
    schema: PrmSchema,
    owner: Table,
    chain: SlotChain,
    key_var: Var,
    names: _Names,
) -> tuple[list[Term], Var]:
    """Relational literals for one chain plus the endpoint value variable.

    Every step emits the literal r<i>(KeyVar, FieldVar) regardless of which
    direction the chain traverses it; direction only decides which side is
    already bound.
    """
    directions, _ = _walk_chain(schema, owner, chain, "chain")
    literals: list[Term] = []
    cur_var = key_var
    for i, (stable, sfield) in enumerate(chain.steps):
        t = schema.table(stable)
        pred = predicate_name(t, sfield)
        last = i == len(chain.steps) - 1
        if last:
            value = names.var(sfield.capitalize())
            literals.append(Struct(pred, (cur_var, value)))
            return literals, value
        if directions[i] == "forward":
            ftype = _field_type(schema, t, sfield)
            new = names.var(schema.table(ftype).abbrev + "Key")
            literals.append(Struct(pred, (cur_var, new)))
        else:
            new = names.var(t.abbrev + "Key")
            literals.append(Struct(pred, (new, cur_var)))
        cur_var = new
    raise PrmError("unreachable")


def compile_field_clause(schema: PrmSchema, table: Table, fname: str) -> Term:
    """The defining clause of one probabilistic field, as a ':-'/2 term."""
    pf = table.probabilistic[fname]
    names = _Names()
    key_var = names.var(table.abbrev + "Key")
    value_var = names.var(fname.capitalize())
    head = Struct(predicate_name(table, fname), (key_var, value_var))
    label = Struct(predicate_name(table, fname), (key_var,))
    body: list[Term] = []
    domain_t = mklist(list(pf.domain))
    cpt_t = mklist([float(x) for x in pf.cpt])

    aggregated = [
        c for c in pf.parents if _is_multivalued(schema, table, c)
    ]
    if aggregated:
        chain = pf.parents[0]
        literals, end_var = _chain_literals(schema, table, chain, key_var, names)
        collected = names.var("Vs")
        cpt_var = names.var("CPT")
        body.append(
            Struct("findall", (end_var, mkconj(literals), collected))
        )
        field_cpt = Struct("p", (domain_t, cpt_t, mklist([])))
        body.append(
            Struct(
                "aggregate_cpt",
                (
                    Atom(chain.aggregate),
                    collected,
                    mklist(list(chain.aggregate_domain)),
                    field_cpt,
                    cpt_var,
                ),
            )
        )
        constraint = Struct(
            "{}",
            (Struct("with", (Struct("=", (value_var, label)), cpt_var)),),
        )
    else:
        parent_vars = []
        for chain in pf.parents:
            literals, end_var = _chain_literals(
                schema, table, chain, key_var, names
            )
            body.extend(literals)
            parent_vars.append(end_var)
        spec = Struct("p", (domain_t, cpt_t, mklist(parent_vars)))
        constraint = Struct(
            "{}",
            (Struct("with", (Struct("=", (value_var, label)), spec)),),
        )
    body.append(constraint)
    return Struct(":-", (head, mkconj(body)))


def _clause_text(clause: Struct) -> str:
    """head :- g1, g2. with one goal per line; nicer than the raw term."""
    head, body = clause.args
    goals = conj_items(body)
    if len(goals) == 1:
        return f"{term_to_text(head)} :- {term_to_text(goals[0])}."
    inner = ",\n  ".join(term_to_text(x) for x in goals)
    return f"{term_to_text(head)} :-\n  {inner}."


def compile_schema_text(schema: PrmSchema) -> str:
    lines = ["% Generated from a relational schema.", ""]
    for tname in schema.order:
        table = schema.tables[tname]
        for fname in table.fields:
            if fname in table.probabilistic:
                clause = compile_field_clause(schema, table, fname)
                lines.append(_clause_text(clause))
                lines.append("")
    return "\n".join(lines)


def compile_schema(schema: PrmSchema) -> Program:
    return parse_program(compile_schema_text(schema))


# --- skeleton -----------------------------------------------------------------


def compile_skeleton_text(schema: PrmSchema, skeleton: Union[str, dict]) -> str:
    data = json.loads(skeleton) if isinstance(skeleton, str) else skeleton
    for tname in data:
        schema.table(tname)  # unknown table -> error
    used_constants: set[str] = set()
    for rows in data.values():
        for row in rows:
            for v in row.values():
                if isinstance(v, str):
                    used_constants.add(v)
    fresh_count = 0

    def fresh_constant() -> str:
        nonlocal fresh_count
        while True:
            fresh_count += 1
            name = f"sk{fresh_count}"
            if name not in used_constants:
                used_constants.add(name)
                return name

    facts: list[str] = []
    evidence: list[str] = []
    skolems: list[str] = []
    for tname in schema.order:
        table = schema.tables[tname]
        rows = data.get(tname, [])
        seen_keys: set[str] = set()
        for row in rows:
            if table.key not in row or row[table.key] is None:
                raise PrmError(f"table {tname}: row with missing key: {row}")
            key = _value_term(row[table.key])
            key_text = term_to_text(key)
            if key_text in seen_keys:
                raise PrmError(f"table {tname}: duplicate key {key_text}")
            seen_keys.add(key_text)
            for fname in table.fields[1:]:
                pred = predicate_name(table, fname)
                cell = row.get(fname)
                if fname in table.probabilistic:
                    if cell is not None:
                        value = _value_term(cell)
                        domain = table.probabilistic[fname].domain
                        if not any(term_equal(value, d) for d in domain):
                            raise PrmError(
                                f"table {tname}, key {key_text}: observed "
                                f"{fname} value {term_to_text(value)} is not "
                                "in the field's domain"
                            )
                        evidence.append(
                            f":- evidence({pred}({key_text}), "
                            f"{term_to_text(value)})."
                        )
                    continue
                if cell is None:
                    sk = fresh_constant()
                    skolems.append(sk)
                    facts.append(f"{pred}({key_text}, {sk}).")
                else:
                    facts.append(
                        f"{pred}({key_text}, {term_to_text(_value_term(cell))})."
                    )
    lines = []
    if skolems:
        lines.append(f":- skolem_constants([{', '.join(skolems)}]).")
        lines.append("")
    lines.extend(facts)
    if evidence:
        lines.append("")
        lines.extend(evidence)
    return "\n".join(lines) + "\n"


def compile_prm(
    schema: Union[PrmSchema, str, dict], skeleton: Union[str, dict]
) -> str:
    """Full program text for a schema and its data."""
    if not isinstance(schema, PrmSchema):
        schema = load_schema(schema)
    text = compile_schema_text(schema) + "\n" + compile_skeleton_text(
        schema, skeleton
    )
    program = parse_program(text)
    program.ensure_valid()
    return text


# --- round trip ---------------------------------------------------------------


def default_roundtrip_queries(skeleton: Union[str, dict]) -> list[dict]:
    """Every grade and intelligence query the small school data supports,
    each phrased for the compiled program and for the hand-written one."""
    data = json.loads(skeleton) if isinstance(skeleton, str) else skeleton
    queries = []
    for row in data.get("registration", []):
        key = row.get("registration")
        if key is None:
            continue
        queries.append(
            {
                "compiled": f"registration4({key}, G).",
                "reference": f"grade({key}, G).",
                "var": "G",
            }
        )
    for row in data.get("student", []):
        key = row.get("student")
        if key is None:
            continue
        queries.append(
            {
                "compiled": f"student2({key}, I).",
                "reference": f"intelligence({key}, I).",
                "var": "I",
            }
        )
    return queries


def roundtrip_check(
    schema: Union[PrmSchema, str, dict],
    skeleton: Union[str, dict],
    queries: Optional[list[dict]] = None,
    reference: Union[Program, str, None] = None,
    tolerance: float = 1e-9,
) -> dict:
    """Compare marginals of the compiled program against a reference program.

    Each query is {"compiled": text, "reference": text, "var": name}; the
    named variable must be constrained on both sides. Queries that fail must
    fail on both sides to count as agreement. With no queries given, every
    grade and intelligence variable in the skeleton is checked.
    """
    from .engine import Engine
    from .inference import marginal

    if queries is None:
        queries = default_roundtrip_queries(skeleton)
    if reference is None:
        from .fixtures import fixture_text

        reference = fixture_text("school.clpbn")
    ref_prog = (
        reference if isinstance(reference, Program) else parse_program(reference)
    )
    compiled = parse_program(compile_prm(schema, skeleton))
    eng_c = Engine(compiled)
    eng_r = Engine(ref_prog)
    entries = []
    worst = 0.0
    for q in queries:
        var = q["var"]
        probs = {}
        for side, eng, text in (
            ("compiled", eng_c, q["compiled"]),
            ("reference", eng_r, q["reference"]),
        ):
            ans = next(eng.solve_text(text, limit=1), None)
            if ans is None or var not in ans.query_nodes:
                probs[side] = None
            else:
                probs[side] = marginal(ans.network, ans.query_nodes[var]).probs
        if probs["compiled"] is None or probs["reference"] is None:
            diff = 0.0 if probs["compiled"] == probs["reference"] else float("inf")
        else:
            diff = max(
                abs(a - b)
                for a, b in zip(probs["compiled"], probs["reference"])
            )
        worst = max(worst, diff)
        entries.append(
            {
                "compiled": q["compiled"],
                "reference": q["reference"],
                "variable": var,
                "compiled_probs": (
                    list(probs["compiled"]) if probs["compiled"] else None
                ),
                "reference_probs": (
                    list(probs["reference"]) if probs["reference"] else None
                ),
                "max_abs_diff": diff,
            }
        )
    return {
        "entries": entries,
        "max_abs_diff": worst,
        "agree": worst <= tolerance,
    }
