"""Independent reference implementations that the fast paths must agree with.

`expand_product` multiplies two factors by transposing and reshaping
each operand onto the sorted union of their scopes, and `uncached_factor`
builds a node's CPT factor afresh on every call. With both patched into
`clpbn.inference`, `marginal` and `all_marginals` must give the same
probabilities bit for bit as with the cached factors and the
broadcast-or-einsum `_factor_product`.

`enumerate_joint` builds the full joint table over all non-evidence nodes
by brute-force broadcasting. It is only feasible for small networks, but it
shares no elimination machinery with `inference.marginal` or
`inference.all_marginals`, which makes it a good cross-check for both.

`min_degree_order_rescan` is the plain min-degree ordering that rescans
every scope for every remaining variable; the order that
`inference._eliminate` reports must be exactly the same.
`run_elimination_scan` finds each bucket by scanning every live factor,
and takes any order; the product of `_eliminate`'s leftovers, which it
finds through a variable-to-factor incidence, must equal its result bit
for bit.

`check_acyclic_recursive` and `topological_order_rescan` are the plain
recursive cycle search and the rescanning topological sort; the network's
iterative versions must report the same cycle and the same order.

`count_rows` counts learning tables with one Python step per sample row,
reading the printed cells; `learn._count_tables`, which counts the
sample set's integer encoding, must give the same counts and, on a
missing column or an out-of-domain cell, the same error.

`structural_instances_naive` reruns every clause and every demand in each
round until a round finds nothing new; the semi-naive
`learn.structural_instances` must return the same instance lists in the
same order.

`find_by_label_scan` is the linear label search that the network's label
index replaced; `ConstraintNetwork.find_by_label` must return the same id.

`term_equal_recursive`, `is_variant_recursive`, `term_sort_key_recursive`,
`resolve_recursive` and `rename_term_recursive` are the plain recursive term
walks; the explicit-stack versions in `clpbn.terms` must give equal results
(for the sort key, the same order of every pair of terms).

`hmm_chain_forward` is the posterior of `c(n)` in `hmm_fixed.clpbn` by a
forward recursion over the four (c, p) states; it never builds a network,
so it checks chains far longer than joint enumeration can.

`prm_roundtrip_diffs` compares the program compiled from a school schema
and skeleton with the hand-written `school.clpbn`, grade by grade and
intelligence by intelligence.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from clpbn.engine import solve
from clpbn.errors import InconsistentEvidenceError, InferenceError, LearnError
from clpbn.fixtures import fixture_text
from clpbn.inference import (
    Factor,
    Marginal,
    NodeRef,
    _clamped_factors,
    marginal,
    node_factor,
    resolve_node,
)
from clpbn.learn import (
    SampleSet,
    _analyze,
    _callee_label,
    _entity,
    _enumerate_clause,
    _goal_key,
    _Instance,
    _network,
    structural_instances,
)
from clpbn.network import ConstraintNetwork
from clpbn.parser import term_to_text
from clpbn.prm import compile_prm
from clpbn.program import Program, parse_program, with_population
from clpbn.terms import (
    Atom,
    FreshVars,
    Struct,
    Subst,
    Term,
    Var,
    is_ground,
    is_number,
    unify,
    vars_of,
)

JOINT_STATE_LIMIT = 2 ** 24


class JointSizeError(InferenceError):
    """Joint enumeration would exceed the state-count guard."""


def expand(f: Factor, allvars: tuple[int, ...]) -> np.ndarray:
    """View of f.values broadcastable over the axes listed in allvars."""
    positions = [allvars.index(v) for v in f.vars]
    perm = sorted(range(len(f.vars)), key=lambda i: positions[i])
    vals = np.transpose(f.values, perm) if f.vars else f.values
    shape = [1] * len(allvars)
    for i in perm:
        shape[positions[i]] = f.values.shape[i]
    return vals.reshape(shape)


def expand_product(a: Factor, b: Factor) -> Factor:
    """Product over the sorted union of the scopes, both operands expanded."""
    allvars = tuple(sorted(set(a.vars) | set(b.vars)))
    return Factor(allvars, expand(a, allvars) * expand(b, allvars))


def uncached_factor(net: ConstraintNetwork, nid: int) -> Factor:
    """The node's CPT factor, built afresh on every call."""
    return node_factor(net, net.nodes[nid])


def enumerate_joint(net: ConstraintNetwork) -> Factor:
    """Normalized joint over all non-evidence nodes, by direct enumeration.

    Deliberately shares nothing with the elimination path: every clamped
    CPT is broadcast over the full joint shape and multiplied in.
    """
    free = [nid for nid in net.node_ids() if net.nodes[nid].evidence is None]
    states = 1
    for nid in free:
        states *= net.nodes[nid].cardinality
        if states > JOINT_STATE_LIMIT:
            raise JointSizeError(
                f"joint would exceed {JOINT_STATE_LIMIT} states"
            )
    shape = tuple(net.nodes[nid].cardinality for nid in free)
    joint = np.ones(shape)
    allvars = tuple(free)
    for f in _clamped_factors(net):
        joint = joint * expand(f, allvars)
    z = float(joint.sum())
    if z <= 0.0:
        raise InconsistentEvidenceError(
            "the network's evidence has zero probability"
        )
    return Factor(allvars, joint / z)


def joint_marginal(joint: Factor, net: ConstraintNetwork, node: NodeRef) -> Marginal:
    """Read one node's marginal out of an enumerate_joint result."""
    target = resolve_node(net, node)
    tnode = net.nodes[target]
    if tnode.evidence is not None:
        probs = tuple(
            1.0 if i == tnode.evidence else 0.0 for i in range(tnode.cardinality)
        )
        return Marginal(target, tnode.label, tnode.domain, probs)
    f = joint
    for v in joint.vars:
        if v != target:
            f = f.sum_out(v)
    return Marginal(
        target, tnode.label, tnode.domain, tuple(float(x) for x in f.values)
    )


def min_degree_order_rescan(factors: list[Factor], eliminate: set[int]) -> list[int]:
    """Min-degree order by rescanning every scope for every candidate."""
    scopes = [set(f.vars) for f in factors]
    remaining = set(eliminate)
    order = []
    while remaining:
        best = None
        for v in remaining:
            neighbors: set[int] = set()
            for s in scopes:
                if v in s:
                    neighbors |= s
            neighbors.discard(v)
            key = (len(neighbors), v)
            if best is None or key < best[0]:
                best = (key, v, neighbors)
        _, v, neighbors = best
        order.append(v)
        remaining.discard(v)
        # simulate elimination: merge the scopes containing v
        scopes = [s for s in scopes if v not in s]
        scopes.append(neighbors)
    return order


def run_elimination_scan(factors: list[Factor], order) -> Factor:
    """Bucket elimination that scans every live factor for each bucket."""
    scalar = 1.0
    work = list(factors)
    for v in order:
        bucket = [f for f in work if v in f.vars]
        work = [f for f in work if v not in f.vars]
        if not bucket:
            continue
        prod = bucket[0]
        for f in bucket[1:]:
            prod = expand_product(prod, f)
        prod = prod.sum_out(v)
        if not prod.vars:
            scalar *= float(prod.values)
        else:
            work.append(prod)
    result = Factor((), np.array(scalar))
    for f in work:
        result = expand_product(result, f)
    return result


def check_acyclic_recursive(net: ConstraintNetwork) -> tuple[bool, list[int]]:
    """Recursive depth-first search from each node in id order, visiting
    children in node insertion order; the first back edge closes the cycle."""
    color = {nid: "white" for nid in net.nodes}
    path: list[int] = []

    def dfs(u: int):
        color[u] = "gray"
        path.append(u)
        for c in net.nodes:
            if u in net.nodes[c].parents:
                if color[c] == "gray":
                    return path[path.index(c):] + [c]
                if color[c] == "white":
                    found = dfs(c)
                    if found:
                        return found
        path.pop()
        color[u] = "black"
        return None

    for nid in sorted(net.nodes):
        if color[nid] == "white":
            cycle = dfs(nid)
            if cycle:
                return False, cycle
    return True, []


def topological_order_rescan(net: ConstraintNetwork):
    """Smallest ready id first, found by rescanning every remaining node at
    every step; None when some node never becomes ready."""
    placed: set[int] = set()
    order: list[int] = []
    while len(order) < len(net.nodes):
        ready = [
            nid
            for nid in net.nodes
            if nid not in placed
            and all(p in placed for p in net.nodes[nid].parents)
        ]
        if not ready:
            return None
        placed.add(min(ready))
        order.append(min(ready))
    return order


def term_equal_recursive(a: Term, b: Term) -> bool:
    if is_number(a) or is_number(b):
        return type(a) is type(b) and a == b
    if isinstance(a, Atom) and isinstance(b, Atom):
        return a.name == b.name
    if isinstance(a, Var) and isinstance(b, Var):
        return a.id == b.id
    if isinstance(a, Struct) and isinstance(b, Struct):
        return (
            a.functor == b.functor
            and a.arity == b.arity
            and all(term_equal_recursive(x, y) for x, y in zip(a.args, b.args))
        )
    return False


def find_by_label_scan(net: ConstraintNetwork, label: Term, subst: Subst | None = None):
    """Lowest id of a node whose label, resolved under subst, equals label."""
    for nid in sorted(net.nodes):
        stored = net.nodes[nid].label
        if subst is not None:
            stored = resolve_recursive(subst, stored)
        if term_equal_recursive(stored, label):
            return nid
    return None


def resolve_recursive(s: Subst, t: Term) -> Term:
    t = s.walk(t)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(resolve_recursive(s, a) for a in t.args))
    return t


def rename_term_recursive(t: Term, mapping: dict[int, Var], fresh: FreshVars) -> Term:
    if isinstance(t, Var):
        v = mapping.get(t.id)
        if v is None:
            v = fresh.new(t.name)
            mapping[t.id] = v
        return v
    if isinstance(t, Struct):
        return Struct(
            t.functor, tuple(rename_term_recursive(a, mapping, fresh) for a in t.args)
        )
    return t


def term_sort_key_recursive(t: Term) -> tuple:
    if is_number(t):
        return (0, t, 0 if type(t) is int else 1)
    if isinstance(t, Atom):
        return (1, t.name)
    if isinstance(t, Struct):
        return (2, t.arity, t.functor, tuple(term_sort_key_recursive(a) for a in t.args))
    if isinstance(t, Var):
        return (3, t.id)
    raise TypeError(f"not a term: {t!r}")


def is_variant_recursive(a: Term, b: Term) -> bool:
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}

    def go(x: Term, y: Term) -> bool:
        if isinstance(x, Var) and isinstance(y, Var):
            if fwd.setdefault(x.id, y.id) != y.id:
                return False
            return bwd.setdefault(y.id, x.id) == x.id
        if isinstance(x, Var) or isinstance(y, Var):
            return False
        if isinstance(x, Struct) and isinstance(y, Struct):
            return (
                x.functor == y.functor
                and x.arity == y.arity
                and all(go(p, q) for p, q in zip(x.args, y.args))
            )
        return term_equal_recursive(x, y)

    return go(a, b)


def count_rows(
    program: Program,
    population: Iterable[Term],
    samples: SampleSet,
) -> dict[tuple[str, int], tuple[np.ndarray, object, list[int]]]:
    """Per defining clause: pooled counts, one Python loop step per row."""
    insts, analysis = structural_instances(program, population)
    net, _ = _network(program, insts, analysis)
    label_to_node = {
        term_to_text(n.label): n for n in net.nodes.values()
    }
    out: dict[tuple[str, int], tuple[np.ndarray, object, list[int]]] = {}
    for key, fc in analysis.fields.items():
        if not insts[key]:
            continue
        first = insts[key][0]
        psizes = [
            len(label_to_node[term_to_text(p)].domain) for p in first.parents
        ]
        cols = 1
        for s in psizes:
            cols *= s
        counts = np.zeros((len(fc.domain), cols))
        value_index = {t: i for i, t in enumerate(map(term_to_text, fc.domain))}
        for inst in insts[key]:
            ci = samples.column(term_to_text(inst.label))
            parent_cols = []
            parent_indexes = []
            for p in inst.parents:
                pnode = label_to_node[term_to_text(p)]
                parent_cols.append(samples.column(term_to_text(p)))
                parent_indexes.append(
                    {t: i for i, t in enumerate(map(term_to_text, pnode.domain))}
                )
            for row in samples.rows:
                try:
                    r = value_index[row[ci]]
                except KeyError:
                    raise LearnError(
                        f"value {row[ci]!r} is outside the domain of "
                        f"{term_to_text(inst.label)}"
                    ) from None
                col = 0
                for pc, pidx, size in zip(parent_cols, parent_indexes, psizes):
                    try:
                        col = col * size + pidx[row[pc]]
                    except KeyError:
                        raise LearnError(
                            f"value {row[pc]!r} is outside a parent domain "
                            f"of {term_to_text(inst.label)}"
                        ) from None
                counts[r, col] += 1.0
        out[key] = (counts, fc, psizes)
    return out


def structural_instances_naive(program: Program, population: Iterable[Term] = ()):
    """Instances by rounds that rerun every clause and every demand until
    one round adds no instance and no demand."""
    prog = with_population(program, population)
    analysis = _analyze(prog)
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
    insts = {key: [] for key in analysis.fields}
    seen = {key: set() for key in analysis.fields}
    head_tuples = {key: [] for key in analysis.fields}
    demands: dict = {}
    changed = True
    while changed:
        changed = False
        jobs = [(key, None) for key in analysis.fields]
        jobs.extend(demands.values())
        for key, demanded in jobs:
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


def hmm_chain_forward(n: int, evidence: dict[int, str] | None = None) -> tuple[float, float]:
    """P(c(n) = t), P(c(n) = f) on hmm_fixed.clpbn, given watch evidence
    {i: "m" or "l"}, by alpha_i = alpha_{i-1} T over the states (c, p).

    p(i) stays with probability 0.8; c(0) is f and p(0) uniform; c(i) is t
    when c(i-1) is, and otherwise with 0.05 if p(i) is m, 0.001 if l."""
    evidence = evidence or {}
    stay = np.array([[0.8, 0.2], [0.2, 0.8]])  # [p(i-1), p(i)], m then l
    catch = np.array([0.05, 0.001])  # P(c(i) = t | c(i-1) = f, p(i))
    # state index 2 * c + p, with c = 0 for t and p = 0 for m
    step = np.zeros((4, 4))
    for c0 in range(2):
        for p0 in range(2):
            for p in range(2):
                to_t = 1.0 if c0 == 0 else catch[p]
                step[2 * c0 + p0, p] = stay[p0, p] * to_t
                step[2 * c0 + p0, 2 + p] = stay[p0, p] * (1.0 - to_t)

    def observe(alpha: np.ndarray, i: int) -> np.ndarray:
        if i in evidence:
            keep = 0 if evidence[i] == "m" else 1
            alpha = alpha * np.array([p == keep for c in range(2) for p in range(2)])
        return alpha

    alpha = observe(np.array([0.0, 0.0, 0.5, 0.5]), 0)
    for i in range(1, n + 1):
        alpha = observe(alpha / alpha.sum() @ step, i)
    t, f = alpha[:2].sum(), alpha[2:].sum()
    return float(t / (t + f)), float(f / (t + f))


def prm_roundtrip_diffs(schema: dict, skeleton: dict) -> list[float]:
    """Largest marginal difference per registration grade and per student
    intelligence in the skeleton, compiled program against school.clpbn."""
    compiled = parse_program(compile_prm(schema, skeleton))
    reference = parse_program(fixture_text("school.clpbn"))
    pairs = [(f"registration4({r['registration']}, X).", f"grade({r['registration']}, X).")
             for r in skeleton["registration"]]
    pairs += [(f"student2({s['student']}, X).", f"intelligence({s['student']}, X).")
              for s in skeleton["student"]]
    diffs = []
    for query_compiled, query_reference in pairs:
        probs = []
        for program, query in ((compiled, query_compiled), (reference, query_reference)):
            [answer] = solve(program, query, limit=1)
            probs.append(marginal(answer.network, answer.query_nodes["X"]).probs)
        assert len(probs[0]) == len(probs[1])
        diffs.append(max(abs(a - b) for a, b in zip(*probs)))
    return diffs
