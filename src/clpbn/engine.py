"""SLD resolution with a growing constraint network.

The machine is an explicit-stack depth-first interpreter over one set of
bindings (a ``Subst``) and one constraint store, both changed in place
and both logged on one undo trail. Its state is a cons-list of pending
goal entries; each entry carries its goal's recursion depth, which the
depth limit bounds. Clause choice pushes an alternatives frame holding a
trail mark; backtracking undoes the trail to that mark, reverting
bindings and store together, as in a WAM. Cut truncates the alternatives
stack back to the height recorded when the calling goal was selected.
Bindings that touch constrained variables are routed into the network
after every unification: variable-variable bindings merge or retarget
nodes, ground bindings become evidence.

Clauses are precompiled once per engine: each keeps a code that builds
a renamed copy while sharing its ground subterms unwalked, and the
checked domain and table of each CPT whose lists are ground.

Calls to predicates with a constraint goal in some clause are memoed
per query, in a table logged on the same trail. A call whose arguments
are each ground or a variable not bound to a node pushes an exit entry
after its body; if no alternatives frame younger than the call is left
there, the call had exactly one answer, and if each of that answer's
variables is bound to a node with a ground label, the resolved call is
stored under its variant key. A later variant call unifies with it and
tries no clauses: its nodes are in the store already, which is where
re-deriving it would merge them. Backtracking past the call drops the
entry along with those nodes. A hit draws as many fresh ids as the
re-derivation would, so node ids do not depend on the memo.

findall/setof run the sub-goal in a nested machine on the same bindings
and store, snapshot each solution before backtracking, then union the
solution networks into the caller's store, deduplicating nodes by ground
label.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .errors import (
    AggregatorError,
    ArithmeticGoalError,
    EngineError,
    EvidenceConflictError,
    FindallMergeError,
    LimitExceededError,
    MalformedCptError,
    NetworkCycleError,
)
from .network import ConstraintNetwork, tables_agree
from .parser import term_to_text
from .program import (
    Clause,
    CptSpec,
    Domain,
    Program,
    column_count,
    cpt_spec_from_term,
    parse_query,
)
from .terms import (
    Atom,
    FreshVars,
    Struct,
    Subst,
    Term,
    Var,
    compile_terms,
    ground_key,
    instantiate,
    is_ground,
    is_number,
    list_items,
    mklist,
    rename_term,
    term_equal,
    term_sort_key,
    trail_set,
    unify,
    vars_of,
)

DEFAULT_DEPTH_LIMIT = 10_000

_COMPARISONS = {"<", ">", "=<", ">=", "=:=", "=\\="}
_BUILTIN_KEYS = {
    ("true", 0),
    ("fail", 0),
    ("=", 2),
    ("is", 2),
    ("findall", 3),
    ("setof", 3),
    ("average", 2),
    ("mean", 2),
    ("aggregate_cpt", 5),
} | {(op, 2) for op in _COMPARISONS}


@dataclass
class Answer:
    """One solution: resolved query bindings plus the final network."""

    bindings: dict[str, Term]
    network: ConstraintNetwork
    query_nodes: dict[str, int]  # query variables that ended up constrained


def _cons(entries: list, rest=None):
    out = rest
    for e in reversed(entries):
        out = (e, out)
    return out


# A goal list is a cons-list of entries, None when empty; _FAIL is failure.
# Entries are ("goal", term, cut barrier, depth, precompiled CPT or None),
# ("evidence", variable, value) and ("exit", variant key, call, alternatives
# height at the call, next id at the call, store size at the call, [True]
# until the exit is first reached).
_FAIL = False


def _goal(term: Term, depth: int = 0, barrier: int = 0) -> tuple:
    return ("goal", term, barrier, depth, None)


class _Compiled:
    """A clause precompiled for resolution (see ``terms.compile_terms``).

    Fresh variables are drawn in the order renaming would draw them: the
    head's on every try, the body's only once the head has unified."""

    __slots__ = ("head", "body", "head_names", "body_names", "shared")

    def __init__(self, clause: Clause, is_skolem) -> None:
        codes, names, shared = compile_terms([clause.head, *clause.body])
        n_head = len({v.id for v in vars_of(clause.head)})
        self.head = codes[0]
        # clause.constraints are the body's constraint goals, in body order
        constraints = iter(clause.constraints)
        cpts = [
            _ground_cpt(next(constraints).cpt, is_skolem)
            if isinstance(g, Struct) and g.functor == "{}" and g.arity == 1
            else None
            for g in clause.body
        ]
        # (goal code, precompiled CPT), last goal first for consing
        self.body = list(zip(codes[1:], cpts))[::-1]
        self.head_names = names[:n_head]
        self.body_names = names[n_head:]
        self.shared = shared[::-1]  # fill order: see terms.instantiate


def _ground_cpt(cpt: Term, is_skolem) -> Optional[CptSpec]:
    """The checked spec of a CPT whose domain and table are ground and whose
    parent list is a proper list; None leaves the whole CPT to posting."""
    if not (
        isinstance(cpt, Struct)
        and cpt.functor == "p"
        and cpt.arity == 3
        and is_ground(cpt.args[0])
        and is_ground(cpt.args[1])
        and list_items(cpt.args[2]) is not None
    ):
        return None
    return cpt_spec_from_term(cpt, is_skolem)


def _variant_key(key: tuple[str, int], g: Term, s: Subst, n: ConstraintNetwork):
    """Key shared by the variants of call g, if each of its arguments is
    ground or a variable not bound to a node; None otherwise. Variables are
    numbered by first occurrence."""
    out: list = [key]
    seen: dict[int, int] = {}
    for a in g.args if type(g) is Struct else ():
        w = s.walk(a)
        tw = type(w)
        if tw is Var:
            if w.id in n.binding:
                return None
            out.append(seen.setdefault(w.id, len(seen)))
        elif tw is Struct:
            k = ground_key(s.resolve(w))
            if k is None:
                return None
            out.append(k)
        else:
            out.append((tw, w))  # an atom or a number; 1 and 1.0 differ
    return tuple(out)


class Engine:
    """Resolution engine for one program. Reusable across queries; each
    query draws node and variable ids from the shared counter."""

    def __init__(self, program: Program, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> None:
        program.ensure_valid()
        self.program = program
        self.depth_limit = depth_limit
        self.ids = FreshVars()
        self.declared_evidence: dict[str, Term] = {}
        for label, value in program.evidence:
            if is_ground(label):
                self.declared_evidence[term_to_text(label)] = value
        self._clauses: dict[tuple[str, int], list[_Compiled]] = {}  # filled on first call
        # Predicates with a constraint goal in some clause: their calls are
        # memoed when they exit deterministically (see _solutions).
        self._memoed = set(program.constraint_defining_predicates())
        # Head argument positions that hold a constraint variable in some
        # clause: a ground query argument there is evidence, not a filter.
        self._evidence_positions: dict[tuple[str, int], set[int]] = {}
        for clause in program.clauses:
            if not clause.constraints or not isinstance(clause.head, Struct):
                continue
            cvar_ids = {c.var.id for c in clause.constraints}
            for pos, arg in enumerate(clause.head.args):
                if isinstance(arg, Var) and arg.id in cvar_ids:
                    self._evidence_positions.setdefault(clause.key, set()).add(pos)

    # --- public API -----------------------------------------------------

    def solve_text(self, query: str, limit: Optional[int] = None) -> Iterator[Answer]:
        goals, varmap = parse_query(query)
        return self.solve_goals(goals, varmap, limit)

    def solve_goals(
        self,
        goals: list[Term],
        varmap: dict[str, Var],
        limit: Optional[int] = None,
    ) -> Iterator[Answer]:
        mapping: dict[int, Var] = {}
        renamed = [rename_term(g, mapping, self.ids) for g in goals]
        qvars = {name: mapping[v.id] for name, v in varmap.items() if v.id in mapping}
        entries: list = []
        for g in renamed:
            g2, ev = self._extract_evidence(g)
            entries.append(_goal(g2))
            for ev_var, value in ev:
                entries.append(("evidence", ev_var, value))
        s, n, memo = self._start()
        if self.program.evidence:
            # Declared evidence conditions every query, so the observed
            # nodes must be in the network before the query runs. Derive
            # them once, committing to the first derivation.
            pre_entries = [_goal(g) for g in self._evidence_derivation_goals()]
            if not next(self._solutions(_cons(pre_entries), s, n, memo), False):
                return
        count = 0
        for _ in self._solutions(_cons(entries), s, n, memo):
            frozen = n.apply_substitution(s)
            ok, cycle = frozen.check_acyclic()
            if not ok:
                raise NetworkCycleError("answer network is cyclic", cycle)
            bindings = {name: s.resolve(v) for name, v in qvars.items()}
            query_nodes = {}
            for name, v in qvars.items():
                w = s.walk(v)
                if isinstance(w, Var):
                    nid = frozen.binding.get(w.id)
                    if nid is not None and nid in frozen.nodes:
                        query_nodes[name] = nid
            yield Answer(bindings, frozen, query_nodes)
            count += 1
            if limit is not None and count >= limit:
                return

    def _start(self) -> tuple[Subst, ConstraintNetwork, dict]:
        """Empty bindings, an empty store and an empty memo table, all
        logged on one trail."""
        s = Subst()
        n = ConstraintNetwork(
            skolem_functors=set(self.program.skolem_registry),
            skolem_constants=self.program.skolem_constants,
        )
        n.trail = s.trail
        return s, n, {}

    def _evidence_derivation_goals(self) -> list[Term]:
        """One goal per evidence directive that derives the observed node.

        The directive names a ground random-variable label; the goal is the
        head of the clause introducing that label's functor, specialized by
        unifying the clause's written label against the directive's."""
        goals: list[Term] = []
        for label, _value in self.program.evidence:
            if isinstance(label, Struct):
                key = (label.functor, label.arity)
            elif isinstance(label, Atom):
                key = (label.name, 0)
            else:
                raise EngineError(
                    f"evidence label must be a ground term: {term_to_text(label)}"
                )
            intros = self.program._skolem_intros.get(key)
            if not intros:
                raise EngineError(
                    f"evidence declared on {term_to_text(label)}, but no "
                    "clause introduces that random variable"
                )
            goal = None
            for ci, _cj, sk in intros:
                clause = self.program.clauses[ci]
                mapping: dict[int, Var] = {}
                head2 = rename_term(clause.head, mapping, self.ids)
                sk2 = rename_term(sk, mapping, self.ids)
                s = Subst()
                if not unify(sk2, label, s):
                    continue
                candidate = s.resolve(head2)
                # Callable only if the label pins down everything except the
                # constraint variables; otherwise the clause needs arguments
                # a caller would have to supply.
                cvars = {
                    mapping[c.var.id].id
                    for c in clause.constraints
                    if c.var.id in mapping
                }
                if all(v.id in cvars for v in vars_of(candidate)):
                    goal = candidate
                    break
            if goal is None:
                raise EngineError(
                    f"no clause can derive the evidence node "
                    f"{term_to_text(label)} from its label alone; enter this "
                    "observation through a query argument instead"
                )
            goals.append(goal)
        return goals

    def union_network(
        self, driver_goals: list[Term]
    ) -> tuple[ConstraintNetwork, list[Term]]:
        """Union the networks of every solution of every driver goal,
        deduplicating nodes by ground label. Returns the combined network
        and the resolved driver-goal instances (one per solution)."""
        s, net, memo = self._start()
        instances: list[Term] = []
        for g in driver_goals:
            g2 = rename_term(g, {}, self.ids)
            instances.extend(self._collect(g2, g2, 0, s, net, memo))
        net.trail = []  # the derivations' undo history is not part of the result
        return net, instances

    # --- evidence preprocessing ------------------------------------------

    def _extract_evidence(self, goal: Term) -> tuple[Term, list[tuple[Var, Term]]]:
        if not isinstance(goal, Struct):
            return goal, []
        positions = self._evidence_positions.get((goal.functor, goal.arity))
        if not positions:
            return goal, []
        args = list(goal.args)
        out: list[tuple[Var, Term]] = []
        for pos in sorted(positions):
            a = args[pos]
            if is_ground(a) and not self.program.has_skolem_subterm(a):
                e = self.ids.new()
                args[pos] = e
                out.append((e, a))
        if not out:
            return goal, []
        return Struct(goal.functor, tuple(args)), out

    # --- the machine ------------------------------------------------------

    def _compile(self, key: tuple[str, int]) -> list[_Compiled]:
        program = self.program
        clauses = [
            _Compiled(program.clauses[i], program.is_skolem_term)
            for i in program.index.get(key, ())
        ]
        self._clauses[key] = clauses
        return clauses

    def _solutions(self, goals, s: Subst, n: ConstraintNetwork, memo: dict) -> Iterator[bool]:
        """Yield True once per solution, with s and n holding it. Once the
        alternatives run out, s, n and memo are as they were on entry."""
        base = s.mark()
        # frames: (goal, cut barrier, clauses, next index, rest, trail mark, depth)
        alts: list[tuple] = []
        while True:
            if goals is _FAIL:
                if not alts:
                    s.undo(base)
                    return
                goal, barrier, clauses, idx, rest, mark, depth = alts[-1]
                s.undo(mark)
                if idx + 1 < len(clauses):
                    alts[-1] = (goal, barrier, clauses, idx + 1, rest, mark, depth)
                else:
                    alts.pop()
                goals = self._try_clause(clauses[idx], goal, barrier, depth, rest, s, n)
                continue
            if goals is None:
                yield True
                goals = _FAIL
                continue
            entry, rest = goals
            if entry[0] == "evidence":
                goals = self._query_evidence(entry[1], entry[2], rest, s, n)
                continue
            if entry[0] == "exit":
                self._memo_exit(entry, len(alts), s, n, memo)
                goals = rest
                continue
            _kind, term, barrier, depth, cpt = entry
            g = s.walk(term)
            if isinstance(g, Var):
                raise EngineError("goal is an unbound variable")
            if is_number(g):
                raise EngineError(f"goal is not callable: {term_to_text(g)}")
            key = (g.functor, len(g.args)) if type(g) is Struct else (g.name, 0)
            if key == ("!", 0):
                del alts[barrier:]
                goals = rest
            elif key == (",", 2):
                goals = (
                    _goal(g.args[0], depth, barrier),
                    (_goal(g.args[1], depth, barrier), rest),
                )
            elif key == ("^", 2):
                goals = (_goal(g.args[1], depth, barrier), rest)
            elif key == ("{}", 1):
                goals = self._post(g, cpt, rest, s, n)
            elif key in _BUILTIN_KEYS:
                goals = self._builtin(key, g, depth, rest, s, n, memo)
            else:
                vkey = _variant_key(key, g, s, n) if key in self._memoed else None
                if vkey is not None:
                    hit = memo.get(vkey)
                    # usable while its answer's variables are still unbound
                    if hit is not None and all(
                        type(s.walk(v)) is Var for v in vars_of(hit[0])
                    ):
                        goals = self._memo_reuse(vkey, hit, g, rest, s, n, memo)
                        continue
                    exit_ = ("exit", vkey, g, len(alts), self.ids.peek(), len(n.nodes), [True])
                    rest = (exit_, rest)
                clauses = self._clauses.get(key)
                if clauses is None:
                    clauses = self._compile(key)
                if clauses:
                    alts.append((g, len(alts), clauses, 0, rest, s.mark(), depth))
                goals = _FAIL

    def _memo_exit(self, entry, height_now: int, s, n, memo) -> None:
        """Store the answer of a memoed call that exited deterministically,
        if each of its variables is bound to a node with a ground label, so
        that a re-derivation would merge into the same nodes."""
        _kind, vkey, call, height, ids0, size0, first = entry
        # Backtracking into the call reaches its exit again, with its later
        # answers; the first exit with no frame younger than the call left
        # is its only answer.
        if not (first and first.pop() and height_now == height):
            return
        answer = s.resolve(call)
        for v in vars_of(answer):
            nid = n.binding.get(v.id)
            if nid not in n.nodes or nid in n._open:  # _open: labels not ground
                return
        # the ids a re-derivation draws: all but the new nodes', as its
        # posts merge into them
        drawn = self.ids.peek() - ids0 - (len(n.nodes) - size0)
        trail_set(s.trail, memo, vkey, (answer, drawn))

    def _memo_reuse(self, vkey, hit, g, rest, s, n, memo):
        """Answer call g from its memo entry instead of its clauses."""
        answer, drawn = hit
        self.ids.skip(drawn)  # keep ids as a re-derivation would
        # Bound toward the call's variables, as a clause head's are, and
        # stored anew so that walks from the entry stay one step long.
        goals = self._unify_goal(answer, g, rest, s, n)
        trail_set(s.trail, memo, vkey, (s.resolve(g), drawn))
        return goals

    def _try_clause(self, clause: _Compiled, goal, barrier, depth, rest, s, n):
        if depth + 1 > self.depth_limit:
            raise LimitExceededError(
                f"derivation depth exceeded the limit of {self.depth_limit} frames"
            )
        mark = s.mark()
        fill = self.ids.new_many(clause.head_names)
        head = instantiate(clause.head, fill + clause.shared)
        if not unify(head, goal, s) or not self._absorb(s, n, mark):
            return _FAIL
        fill += self.ids.new_many(clause.body_names)
        fill += clause.shared
        goals = rest
        for code, cpt in clause.body:
            goals = (("goal", instantiate(code, fill), barrier, depth + 1, cpt), goals)
        return goals

    def _absorb(self, s: Subst, n: ConstraintNetwork, mark: int) -> bool:
        """Route the bindings made since mark into the network, including
        those that merges make along the way."""
        for vid, t in s.bound_since(mark):
            nid = n.binding.get(vid)
            if nid is None or nid not in n.nodes:
                continue
            tw = s.walk(t)
            if isinstance(tw, Var):
                other = n.binding.get(tw.id)
                if other is None:
                    n._bind(tw.id, nid)
                elif other != nid and n._merge_nodes(nid, other, s) is None:
                    return False
                continue
            value = s.resolve(tw)
            if is_ground(value):
                try:
                    if not n._set_evidence(nid, value):
                        return False
                except EvidenceConflictError:
                    return False
            else:
                node = n.nodes[nid]
                keep = [
                    i for i, val in enumerate(node.domain) if unify(val, value, Subst())
                ]
                if not n._restrict(nid, keep):
                    return False
        return True

    def _unify_goal(self, a: Term, b: Term, rest, s, n):
        mark = s.mark()
        if unify(a, b, s) and self._absorb(s, n, mark):
            return rest
        return _FAIL

    def _query_evidence(self, ev_var: Var, value: Term, rest, s, n):
        w = s.walk(ev_var)
        if isinstance(w, Var):
            nid = n.binding.get(w.id)
            if nid is not None and nid in n.nodes:
                try:
                    return rest if n._set_evidence(nid, value) else _FAIL
                except EvidenceConflictError:
                    return _FAIL
        return self._unify_goal(ev_var, value, rest, s, n)

    # --- constraint posting -----------------------------------------------

    def _post(self, g: Struct, cpt, rest, s, n):
        inner = g.args[0]
        if not (
            isinstance(inner, Struct)
            and inner.functor == "with"
            and inner.arity == 2
            and isinstance(inner.args[0], Struct)
            and inner.args[0].functor == "="
            and inner.args[0].arity == 2
        ):
            raise MalformedCptError(
                f"constraint goal must be {{V = Skolem with Cpt}}: {term_to_text(g)}"
            )
        v_t, sk_t = inner.args[0].args
        cpt_t = inner.args[1]
        v = s.walk(v_t)
        label = s.resolve(sk_t)
        if not isinstance(label, (Struct, Atom)):
            raise MalformedCptError(
                f"Skolem term must be an atom or compound: {term_to_text(label)}"
            )
        mark = s.mark()
        try:
            if cpt is None:
                spec = cpt_spec_from_term(s.resolve(cpt_t), n.is_skolem_term)
            else:
                parents = tuple(list_items(s.resolve(cpt_t.args[2])))
                spec = CptSpec(cpt.domain, cpt.table, parents)
            nid = n.post_constraint(v, label, spec, s, self.ids, self.declared_evidence)
        except EvidenceConflictError:
            return _FAIL
        except MalformedCptError as e:  # name the constraint being posted
            raise type(e)(f"posting {term_to_text(label)}: {e}") from e
        if nid is None or not self._absorb(s, n, mark):
            return _FAIL
        return rest

    # --- builtins ----------------------------------------------------------

    def _builtin(self, key, g, depth, rest, s, n, memo):
        name, _arity = key
        if name == "true":
            return rest
        if name == "fail":
            return _FAIL
        if name == "=":
            return self._unify_goal(g.args[0], g.args[1], rest, s, n)
        if name == "is":
            value = _arith(g.args[1], s)
            return self._unify_goal(g.args[0], value, rest, s, n)
        if name in _COMPARISONS:
            a = _arith(g.args[0], s)
            b = _arith(g.args[1], s)
            ok = {
                "<": a < b,
                ">": a > b,
                "=<": a <= b,
                ">=": a >= b,
                "=:=": a == b,
                "=\\=": a != b,
            }[name]
            return rest if ok else _FAIL
        if name == "findall":
            template, goal, out = g.args
            items = self._collect(template, goal, depth, s, n, memo)
            return self._unify_goal(out, mklist(items), rest, s, n)
        if name == "setof":
            return self._setof(g, depth, rest, s, n, memo)
        if name == "average":
            return self._average(g, rest, s, n)
        if name == "mean":
            items = list_items(s.resolve(g.args[0]))
            if items is None or not items:
                raise ArithmeticGoalError("mean needs a non-empty proper list")
            if not all(is_number(x) for x in items):
                raise ArithmeticGoalError("mean needs a ground list of numbers")
            value = float(sum(items)) / len(items)
            return self._unify_goal(g.args[1], value, rest, s, n)
        if name == "aggregate_cpt":
            return self._aggregate_cpt(g, rest, s, n)
        raise EngineError(f"unhandled builtin {name}")

    # --- collection (findall / setof) ---------------------------------------

    def _collect(self, template, goal, depth, s, n, memo) -> list[Term]:
        """Run goal to exhaustion, then import every solution's new nodes
        into n; the collected template instances, one per solution."""
        snapshots = [
            (s.snapshot(), n.copy())
            for _ in self._solutions((_goal(goal, depth), None), s, n, memo)
        ]
        return [self._import_branch(n, template, s_i, n_i) for s_i, n_i in snapshots]

    def _import_branch(self, n, template, s_i, n_i) -> Term:
        """Copy one solution's new nodes into the running store and return
        the collected instance with node-referencing variables rebound."""
        remap: dict[int, int] = {}
        for nid in sorted(n_i.nodes):
            if nid in n.nodes:
                continue
            node = n_i.nodes[nid]
            label = s_i.resolve(node.label)
            parents = tuple(remap.get(p, p) for p in node.parents)
            existing = n.find_by_label(label, s_i) if is_ground(label) else None
            if existing is not None:
                target = n.nodes[existing]
                same = (
                    len(target.domain) == len(node.domain)
                    and all(
                        term_equal(a, b)
                        for a, b in zip(target.domain, node.domain)
                    )
                    and target.parents == parents
                    and len(target.table) == len(node.table)
                    and tables_agree(
                        target.table,
                        node.table,
                        [(i, i) for i in range(len(node.domain))],
                        column_count(len(node.table), len(node.domain)),
                    )
                )
                if not same:
                    raise FindallMergeError(
                        f"two derivations disagree about {term_to_text(label)}"
                    )
                remap[nid] = existing
                continue
            for p in parents:
                if p not in n.nodes:
                    raise FindallMergeError(
                        f"node {term_to_text(label)} depends on a node "
                        "that did not survive collection"
                    )
            n._put(replace(node, label=label, parents=parents))
        mapping: dict[int, Var] = {}
        item = rename_term(s_i.resolve(template), mapping, self.ids)
        for old_id, new_var in mapping.items():
            src = n_i.binding.get(old_id)
            if src is not None:
                target = remap.get(src, src)
                if target in n.nodes:
                    n._bind(new_var.id, target)
        return item

    def _setof(self, g, depth, rest, s, n, memo):
        template, goal, out = g.args
        goal = s.walk(goal)
        while isinstance(goal, Struct) and goal.functor == "^" and goal.arity == 2:
            goal = s.walk(goal.args[1])
        items = self._collect(template, goal, depth, s, n, memo)
        if not items:
            return _FAIL
        keyed = []
        for it in items:
            w = s.walk(it) if isinstance(it, Var) else it
            if isinstance(w, Var):
                nid = n.binding.get(w.id)
                if nid is not None:
                    keyed.append(((1, nid), it))
                else:
                    keyed.append(((2, w.id), it))
            else:
                keyed.append(((0, term_sort_key(s.resolve(w))), it))
        keyed.sort(key=lambda kv: kv[0])
        deduped: list[Term] = []
        last_key = None
        for k, it in keyed:
            if k == last_key:
                continue
            deduped.append(it)
            last_key = k
        return self._unify_goal(out, mklist(deduped), rest, s, n)

    # --- aggregation --------------------------------------------------------

    def _parent_nodes(self, lst: Term, s, n, what: str):
        items = list_items(s.resolve(lst))
        if items is None:
            raise AggregatorError(f"{what} needs a proper list of constrained variables")
        if not items:
            raise AggregatorError(f"{what} over an empty list")
        pvars: list[Var] = []
        nodes = []
        for it in items:
            w = s.walk(it)
            nid = n.binding.get(w.id) if isinstance(w, Var) else None
            if nid is None or nid not in n.nodes:
                raise AggregatorError(
                    f"{what} argument is not a constrained variable: {term_to_text(w)}"
                )
            pvars.append(w)
            nodes.append(n.nodes[nid])
        return pvars, nodes

    def _average(self, g, rest, s, n):
        lst, out = g.args
        pvars, nodes = self._parent_nodes(lst, s, n, "average")
        _require_numeric("average", nodes)
        # the rounded means that occur, each its own row of an identity field
        domain = sorted(
            {
                _round_half_down(sum(float(x) for x in combo) / len(combo))
                for combo in itertools.product(*[node.domain for node in nodes])
            }
        )
        identity = tuple(float(r == k) for r in range(len(domain)) for k in range(len(domain)))
        field = CptSpec(Domain(domain), identity, ())
        return self._unify_goal(out, _aggregate("mean", pvars, nodes, domain, field), rest, s, n)

    def _aggregate_cpt(self, g, rest, s, n):
        op_t, lst, agg_dom_t, field_cpt_t, out = g.args
        op = s.walk(op_t)
        if not isinstance(op, Atom) or op.name not in ("mean", "min", "max", "mode"):
            raise AggregatorError(
                f"aggregate operator must be mean, min, max, or mode: {term_to_text(op)}"
            )
        pvars, nodes = self._parent_nodes(lst, s, n, "aggregate_cpt")
        agg_dom = list_items(s.resolve(agg_dom_t))
        if agg_dom is None or not agg_dom:
            raise AggregatorError("aggregate domain must be a non-empty proper list")
        field = cpt_spec_from_term(s.resolve(field_cpt_t), n.is_skolem_term)
        field_cols = len(field.table) // len(field.domain)
        if field_cols != len(agg_dom):
            raise AggregatorError(
                f"field table has {field_cols} columns but the aggregate "
                f"domain has {len(agg_dom)} values"
            )
        if op.name in ("mean", "min", "max"):
            _require_numeric(op.name, nodes)
        return self._unify_goal(out, _aggregate(op.name, pvars, nodes, agg_dom, field), rest, s, n)


def _require_numeric(what: str, nodes) -> None:
    for node in nodes:
        if not all(is_number(x) for x in node.domain):
            raise AggregatorError(
                f"{what} parent {term_to_text(node.label)} has a non-numeric domain"
            )


def _aggregate(op: str, pvars, nodes, agg_dom: list, field: CptSpec) -> Struct:
    """The CPT of an aggregate of the parents' values: for each combination
    of parent values, the field column of the value op aggregates it to."""
    combos = list(itertools.product(*[node.domain for node in nodes]))
    cols = len(combos)
    d_out = len(field.domain)
    table = [0.0] * (d_out * cols)
    for j, combo in enumerate(combos):
        if op == "mean":
            value: Term = _round_half_down(sum(float(x) for x in combo) / len(combo))
        elif op == "min":
            value = min(combo, key=float)
        elif op == "max":
            value = max(combo, key=float)
        else:
            counts: list[tuple[Term, int]] = []
            for x in combo:
                for i, (y, c) in enumerate(counts):
                    if term_equal(x, y):
                        counts[i] = (y, c + 1)
                        break
                else:
                    counts.append((x, 1))
            top = max(c for _, c in counts)
            candidates = [y for y, c in counts if c == top]
            value = min(candidates, key=term_sort_key)
        k = _agg_index(agg_dom, value)
        if k is None:
            raise AggregatorError(
                f"aggregate value {term_to_text(value)} is outside the "
                "declared aggregate domain"
            )
        for r in range(d_out):
            table[r * cols + j] = field.table[r * len(agg_dom) + k]
    return Struct(
        "p", (mklist(list(field.domain)), mklist(table), mklist(list(pvars)))
    )


def _agg_index(domain: list[Term], value: Term) -> Optional[int]:
    for k, dv in enumerate(domain):
        if is_number(dv) and is_number(value):
            if float(dv) == float(value):
                return k
        elif term_equal(dv, value):
            return k
    return None


def _round_half_down(m: float) -> int:
    """Round to the nearest integer; exact halves round toward the smaller."""
    return int(math.ceil(m - 0.5))


def _arith(t: Term, s: Subst):
    """The value of an arithmetic expression. Runs on an explicit stack of
    subexpressions still to evaluate and operator names (``str``) to apply
    to the values they left, so a deep expression needs no recursion."""
    t = s.walk(t)
    if is_number(t):
        return t
    if type(t) is Struct and t.arity == 2 and t.functor in _ARITH_OPS:
        x, y = s.walk(t.args[0]), s.walk(t.args[1])
        if is_number(x) and is_number(y):  # one operation: the common case
            return _apply(t.functor, x, y)
    todo: list = [t]
    values: list = []
    while todo:
        t = todo.pop()
        if type(t) is str:
            if t == "neg":
                values.append(-values.pop())
            else:
                y = values.pop()
                values.append(_apply(t, values.pop(), y))
            continue
        t = s.walk(t)
        if is_number(t):
            values.append(t)
        elif isinstance(t, Var):
            raise ArithmeticGoalError("arithmetic on an unbound variable")
        elif type(t) is Struct and t.arity == 1 and t.functor == "-":
            todo += ("neg", t.args[0])
        elif type(t) is Struct and t.arity == 1 and t.functor == "+":
            todo.append(t.args[0])
        elif type(t) is Struct and t.arity == 2 and t.functor in _ARITH_OPS:
            todo += (t.functor, t.args[1], t.args[0])
        else:
            raise ArithmeticGoalError(f"not an arithmetic expression: {term_to_text(t)}")
    return values[0]


_ARITH_OPS = ("+", "-", "*", "/", "//", "mod", "^")

# Results stay printable: an int of this many bits has about 4,200 decimal
# digits, under Python's default limit of 4,300 for int-to-text conversion.
_MAX_INT_BITS = 14_000


def _apply(f: str, x, y):
    """One arithmetic operation. A result that could not be printed back as
    a number (an int too long, an infinite or NaN float, a complex power) is
    an ArithmeticGoalError, as is division by zero."""
    if (
        f == "^"
        and type(x) is int
        and type(y) is int
        and (abs(x).bit_length() - 1) * y > _MAX_INT_BITS
    ):  # 2^(bits - 1) <= |x|, so the power has at least that many bits
        raise ArithmeticGoalError(f"integer result over {_MAX_INT_BITS} bits")
    try:
        if f == "+":
            r = x + y
        elif f == "-":
            r = x - y
        elif f == "*":
            r = x * y
        elif f == "/":
            if isinstance(x, int) and isinstance(y, int) and x % y == 0:
                r = x // y
            else:
                r = x / y
        elif f == "//":
            r = x // y
        elif f == "mod":
            r = x % y
        else:
            r = x**y
    except ZeroDivisionError as e:
        raise ArithmeticGoalError("division by zero") from e
    except OverflowError as e:
        raise ArithmeticGoalError("float overflow") from e
    if type(r) is int:
        if r.bit_length() > _MAX_INT_BITS:
            raise ArithmeticGoalError(f"integer result over {_MAX_INT_BITS} bits")
    elif type(r) is complex:
        raise ArithmeticGoalError("result is not a real number")
    elif not math.isfinite(r):
        raise ArithmeticGoalError("float overflow")
    return r


def solve(
    program: Program,
    query: str,
    limit: Optional[int] = None,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
) -> Iterator[Answer]:
    return Engine(program, depth_limit).solve_text(query, limit)
