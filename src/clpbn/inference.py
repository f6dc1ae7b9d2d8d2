"""Exact inference over constraint networks.

`marginal` runs variable elimination for one node: the node's conditional
tables become factors, evidence is clamped by slicing, and every other
free variable is summed out in min-degree order. `all_marginals` answers
every node at once with one two-pass sweep over the bucket tree that the
same elimination builds, reusing its messages instead of eliminating once
per node.

The module also houses forward sampling (seeded, reproducible, CSV
output), whole-program grounding over a population of facts, and the
agreement checks that compare query-time networks against the fully
ground network.
"""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import GroundingError, InconsistentEvidenceError, InferenceError
from .network import ConstraintNetwork, Node
from .parser import parse_term, term_to_text
from .program import Program, parse_query, with_population
from .terms import FreshVars, Struct, Term, is_ground, mkconj, term_equal

NodeRef = Union[int, str, Term]


# --- factors ----------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """A nonnegative table over a tuple of node ids.

    `values` has one axis per entry of `vars`, in order, with axis size
    equal to that node's (current) cardinality.
    """

    vars: tuple[int, ...]
    values: np.ndarray

    def reduce(self, var: int, index: int) -> "Factor":
        axis = self.vars.index(var)
        vals = np.take(self.values, index, axis=axis)
        rest = self.vars[:axis] + self.vars[axis + 1 :]
        return Factor(rest, vals)

    def sum_out(self, var: int) -> "Factor":
        axis = self.vars.index(var)
        rest = self.vars[:axis] + self.vars[axis + 1 :]
        return Factor(rest, self.values.sum(axis=axis))


def node_factor(net: ConstraintNetwork, node: Node) -> Factor:
    """CPT of one node as a factor with axes (node, parent1, ...).

    Columns are renormalized exactly here, so tables that pass the parse-time
    tolerance check (or arrive slightly off) do not leak drift into results.
    """
    d = node.cardinality
    psizes = net.parent_sizes(node)
    cols = 1
    for s in psizes:
        cols *= s
    vals = np.asarray(node.table, dtype=float).reshape(d, cols)
    sums = vals.sum(axis=0)
    if np.any(sums <= 0.0):
        raise InferenceError(
            f"node {term_to_text(node.label)} has a zero-mass table column"
        )
    vals = (vals / sums).reshape(d, *psizes)
    return Factor((node.id,) + node.parents, vals)


def _factor_product(a: Factor, b: Factor) -> Factor:
    allvars = tuple(sorted(set(a.vars) | set(b.vars)))
    return Factor(allvars, _expand(a, allvars) * _expand(b, allvars))


def _expand(f: Factor, allvars: tuple[int, ...]) -> np.ndarray:
    """View of f.values broadcastable over the axes listed in allvars."""
    positions = [allvars.index(v) for v in f.vars]
    perm = sorted(range(len(f.vars)), key=lambda i: positions[i])
    vals = np.transpose(f.values, perm) if f.vars else f.values
    shape = [1] * len(allvars)
    for i in perm:
        shape[positions[i]] = f.values.shape[i]
    return vals.reshape(shape)


# --- marginals by variable elimination ---------------------------------------


@dataclass(frozen=True)
class Marginal:
    node_id: int
    label: Term
    domain: tuple[Term, ...]
    probs: tuple[float, ...]

    def prob(self, value: Term) -> float:
        for v, p in zip(self.domain, self.probs):
            if term_equal(v, value):
                return p
        raise InferenceError(
            f"{term_to_text(value)} is not in the domain of "
            f"{term_to_text(self.label)}"
        )

    def to_json(self) -> dict:
        return {
            "node": term_to_text(self.label),
            "domain": [term_to_text(v) for v in self.domain],
            "probs": list(self.probs),
        }

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{term_to_text(v)}: {p:.6g}" for v, p in zip(self.domain, self.probs)
        )
        return f"{term_to_text(self.label)} = {{{pairs}}}"


def resolve_node(net: ConstraintNetwork, node: NodeRef) -> int:
    if isinstance(node, int):
        if node not in net.nodes:
            raise InferenceError(f"no node with id {node}")
        return node
    label = parse_term(node) if isinstance(node, str) else node
    nid = net.find_by_label(label)
    if nid is None:
        raise InferenceError(f"no node labeled {term_to_text(label)}")
    return nid


def _clamped_factors(net: ConstraintNetwork) -> list[Factor]:
    factors = []
    for nid in net.node_ids():
        f = node_factor(net, net.nodes[nid])
        for var in tuple(f.vars):
            ev = net.nodes[var].evidence
            if ev is not None:
                f = f.reduce(var, ev)
        factors.append(f)
    return factors


def _min_degree_order(
    factors: list[Factor], eliminate: set[int], reverse_ties: bool
) -> list[int]:
    """Greedy min-degree elimination order, ties broken by (reversed) id.

    `incident` maps each variable to the live scopes containing it, so a
    degree is computed from those scopes alone, and only the neighbours of
    an eliminated variable are re-keyed; a heap with stale entries skipped
    on pop picks the smallest (degree, tie) key.
    """
    scopes = [set(f.vars) for f in factors]
    incident: dict[int, set[int]] = {}
    for sid, s in enumerate(scopes):
        for v in s:
            incident.setdefault(v, set()).add(sid)

    def neighbors(v: int) -> set[int]:
        out: set[int] = set()
        for sid in incident.get(v, ()):
            out |= scopes[sid]
        out.discard(v)
        return out

    def key(v: int) -> tuple[int, int, int]:
        return (len(neighbors(v)), -v if reverse_ties else v, v)

    current = {v: key(v) for v in eliminate}
    heap = list(current.values())
    heapq.heapify(heap)
    order = []
    while heap:
        entry = heapq.heappop(heap)
        v = entry[2]
        if current.get(v) != entry:
            continue
        del current[v]
        order.append(v)
        # simulate elimination: the scopes containing v merge into one
        merged = neighbors(v)
        for sid in incident.pop(v, ()):
            for u in scopes[sid]:
                if u != v:
                    incident[u].discard(sid)
        sid = len(scopes)
        scopes.append(merged)
        for u in merged:
            incident[u].add(sid)
            if u in current:
                current[u] = key(u)
                heapq.heappush(heap, current[u])
    return order


def _run_elimination(factors: list[Factor], order: Sequence[int]) -> Factor:
    """Sum out each variable of order in turn, then multiply what is left.

    Live factors are numbered in creation order, and `incident` maps each
    variable to the numbers of the factors that held it (consumed ones are
    skipped on lookup), so a bucket is found without scanning every live
    factor and is multiplied in creation order."""
    scalar = 1.0
    work = dict(enumerate(factors))
    incident: dict[int, list[int]] = {}
    for i, f in work.items():
        for v in f.vars:
            incident.setdefault(v, []).append(i)
    fresh = len(factors)
    for v in order:
        bucket = [work.pop(i) for i in incident.pop(v, ()) if i in work]
        if not bucket:
            continue
        prod = bucket[0]
        for f in bucket[1:]:
            prod = _factor_product(prod, f)
        prod = prod.sum_out(v)
        if not prod.vars:
            scalar *= float(prod.values)
        else:
            work[fresh] = prod
            for u in prod.vars:
                incident.setdefault(u, []).append(fresh)
            fresh += 1
    result = Factor((), np.array(scalar))
    for f in work.values():
        result = _factor_product(result, f)
    return result


def marginal(
    net: ConstraintNetwork,
    node: NodeRef,
    order: Optional[Sequence[int]] = None,
    reverse_ties: bool = False,
) -> Marginal:
    """Exact posterior marginal of one node given the network's evidence.

    `order` forces an explicit elimination order (it must cover exactly the
    non-evidence, non-target nodes); otherwise min-degree with ties broken
    by node id, or by reversed id when `reverse_ties` is set.
    """
    target = resolve_node(net, node)
    tnode = net.nodes[target]
    factors = _clamped_factors(net)
    eliminate = {
        nid
        for nid in net.nodes
        if nid != target and net.nodes[nid].evidence is None
    }
    if tnode.evidence is not None:
        eliminate = {nid for nid in net.nodes if net.nodes[nid].evidence is None}
    if order is not None:
        if set(order) != eliminate or len(order) != len(set(order)):
            raise InferenceError(
                "explicit elimination order must list each non-evidence "
                "non-target node exactly once"
            )
        elim_order = list(order)
    else:
        elim_order = _min_degree_order(factors, eliminate, reverse_ties)
    result = _run_elimination(factors, elim_order)

    if tnode.evidence is not None:
        z = float(result.values)
        if z <= 0.0:
            raise InconsistentEvidenceError(
                f"evidence on {term_to_text(tnode.label)} and its context "
                "has zero probability"
            )
        probs = tuple(
            1.0 if i == tnode.evidence else 0.0 for i in range(tnode.cardinality)
        )
        return Marginal(target, tnode.label, tnode.domain, probs)

    if result.vars != (target,):
        raise InferenceError("elimination left unexpected variables")
    vec = result.values.astype(float)
    z = float(vec.sum())
    if z <= 0.0:
        raise InconsistentEvidenceError(
            "the network's evidence has zero probability"
        )
    return Marginal(
        target, tnode.label, tnode.domain, tuple(float(x) for x in vec / z)
    )


def all_marginals(
    net: ConstraintNetwork, reverse_ties: bool = False
) -> list[Marginal]:
    """Exact posterior marginal of every node, in `node_ids()` order.

    One bucket-elimination sweep serves every node. Each clamped factor
    hangs on the bucket of its earliest-eliminated variable (min-degree
    order, ties as in `marginal`). The upward pass eliminates bucket by
    bucket and sends each message to the bucket of the earliest-eliminated
    variable in its scope, so the buckets form a tree (a forest when the
    network is disconnected), and the messages reaching the roots multiply
    to the evidence probability. The downward pass sends each child the
    product of everything else in its parent's bucket, summed down to the
    child's separator. That is the Shafer-Shenoy form, which never divides,
    so tables with zeros are safe. A bucket's belief, summed down to its
    variable, is that node's marginal.
    """
    factors = _clamped_factors(net)
    free = [nid for nid in net.node_ids() if net.nodes[nid].evidence is None]
    order = _min_degree_order(factors, set(free), reverse_ties)
    pos = {v: i for i, v in enumerate(order)}
    z = 1.0
    own: list[list[Factor]] = [[] for _ in order]
    for f in factors:
        if f.vars:
            own[min(pos[v] for v in f.vars)].append(f)
        else:
            z *= float(f.values)

    # upward: inbox[i] holds (child bucket, message) pairs
    inbox: list[list[tuple[int, Factor]]] = [[] for _ in order]
    for i, v in enumerate(order):
        prod = None
        for f in own[i] + [m for _, m in inbox[i]]:
            prod = _times(prod, f)
        msg = prod.sum_out(v)
        if msg.vars:
            inbox[min(pos[u] for u in msg.vars)].append((i, msg))
        else:
            z *= float(msg.values)
    if z <= 0.0:
        raise InconsistentEvidenceError(
            "the network's evidence has zero probability"
        )

    # downward: a parent's message to each child leaves that child's own
    # upward message out, by prefix and suffix products over the inbox
    down: list[Optional[Factor]] = [None] * len(order)
    probs: dict[int, tuple[float, ...]] = {}
    for i in reversed(range(len(order))):
        msgs = [m for _, m in inbox[i]]
        suffix: list[Optional[Factor]] = [None] * (len(msgs) + 1)
        for j in reversed(range(len(msgs))):
            suffix[j] = _times(msgs[j], suffix[j + 1])
        prefix = down[i]
        for f in own[i]:
            prefix = _times(f, prefix)
        for j, (child, msg) in enumerate(inbox[i]):
            rest = _times(prefix, suffix[j + 1])
            if rest is not None:
                down[child] = _sum_to(rest, msg.vars)
            prefix = _times(prefix, msg)
        vec = _sum_to(prefix, (order[i],)).values
        probs[order[i]] = tuple(float(x) for x in vec / vec.sum())

    out = []
    for nid in net.node_ids():
        node = net.nodes[nid]
        if node.evidence is not None:
            probs[nid] = tuple(
                1.0 if i == node.evidence else 0.0 for i in range(node.cardinality)
            )
        out.append(Marginal(nid, node.label, node.domain, probs[nid]))
    return out


def _times(a: Optional[Factor], b: Optional[Factor]) -> Optional[Factor]:
    """Factor product where None stands for the empty product."""
    if a is None:
        return b
    if b is None:
        return a
    return _factor_product(a, b)


def _sum_to(f: Factor, keep: Sequence[int]) -> Factor:
    for v in f.vars:
        if v not in keep:
            f = f.sum_out(v)
    return f


# --- forward sampling ---------------------------------------------------------


def sample(net: ConstraintNetwork, n: int, seed: int) -> tuple[list[int], np.ndarray]:
    """Draw n assignments by ancestral sampling in topological order.

    Returns (node ids in topological order, an n-by-k array of domain
    indices). Evidence nodes are clamped to their observed value. The draw
    sequence is fixed by the seed and the topological order, so identical
    inputs reproduce identical output.
    """
    order = net.topological_order()
    rng = np.random.default_rng(seed)
    col_of = {nid: j for j, nid in enumerate(order)}
    out = np.zeros((n, len(order)), dtype=np.int64)
    for j, nid in enumerate(order):
        node = net.nodes[nid]
        if node.evidence is not None:
            out[:, j] = node.evidence
            continue
        d = node.cardinality
        table = node_factor(net, node).values.reshape(d, -1)
        col = np.zeros(n, dtype=np.int64)
        for p, size in zip(node.parents, net.parent_sizes(node)):
            col = col * size + out[:, col_of[p]]
        cum = np.cumsum(table[:, col], axis=0)  # shape (d, n)
        draws = rng.random(n)
        out[:, j] = np.minimum((draws[None, :] >= cum).sum(axis=0), d - 1)
    return order, out


def sample_csv(net: ConstraintNetwork, n: int, seed: int) -> str:
    """CSV with one column per node (printed labels, topological order)."""
    order, rows = sample(net, n, seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(term_to_text(net.nodes[nid].label) for nid in order)
    # each domain value is printed once; the sampled indices pick the texts
    columns = [
        np.array([term_to_text(v) for v in net.nodes[nid].domain], dtype=object)[rows[:, j]]
        for j, nid in enumerate(order)
    ]
    writer.writerows(zip(*columns) if columns else [()] * n)
    return buf.getvalue()


# --- grounding ----------------------------------------------------------------


def default_drivers(program: Program) -> list[Term]:
    ids = FreshVars()
    goals = []
    for name, arity in program.constraint_defining_predicates():
        goals.append(Struct(name, tuple(ids.new() for _ in range(arity))))
    return goals


def _driver_goals(
    program: Program, drivers: Optional[Sequence[Union[Term, str]]]
) -> list[Term]:
    if drivers is None:
        return default_drivers(program)
    # a conjunction in the text stays one goal term
    return [mkconj(parse_query(d)[0]) if isinstance(d, str) else d for d in drivers]


def ground_program(
    program: Program,
    population: Iterable[Term] = (),
    drivers: Optional[Sequence[Union[Term, str]]] = None,
    depth_limit: Optional[int] = None,
) -> ConstraintNetwork:
    """Full network over every random variable the program can derive.

    `population` supplies extra ground facts (entity tables). Driver goals
    determine which derivations get enumerated; by default, one fresh-variable
    goal per constraint-defining predicate. Programs whose recursion cannot
    run with unbound arguments need explicit drivers (for instance a bounded
    horizon goal for a chain model).
    """
    from .engine import DEFAULT_DEPTH_LIMIT, Engine

    prog = with_population(program, population)
    goals = _driver_goals(prog, drivers)
    engine = Engine(prog, depth_limit=depth_limit or DEFAULT_DEPTH_LIMIT)
    net, _ = engine.union_network(goals)
    for nid in net.node_ids():
        label = net.nodes[nid].label
        if not is_ground(label):
            raise GroundingError(
                f"grounding produced the non-ground label {term_to_text(label)}; "
                "supply driver goals that bind every entity argument"
            )
    ok, cycle = net.check_acyclic()
    if not ok:
        labels = " -> ".join(term_to_text(net.nodes[n].label) for n in cycle)
        raise GroundingError(f"ground network is cyclic: {labels}")
    return net


# --- query-vs-ground agreement -------------------------------------------------


def _transfer_evidence(
    ground: ConstraintNetwork, answer_net: ConstraintNetwork
) -> Optional[ConstraintNetwork]:
    """Copy the answer network's evidence onto the ground network by label."""
    g = ground
    for nid in answer_net.node_ids():
        node = answer_net.nodes[nid]
        if node.evidence is None:
            continue
        gid = g.find_by_label(node.label)
        if gid is None:
            raise GroundingError(
                f"evidence node {term_to_text(node.label)} is missing from "
                "the ground network"
            )
        g2 = g.set_evidence(gid, node.evidence_value())
        if g2 is None:
            return None
        g = g2
    return g


def agreement_check(
    program: Program,
    query: str,
    population: Iterable[Term] = (),
    drivers: Optional[Sequence[Union[Term, str]]] = None,
    limit: int = 1,
    tolerance: float = 1e-9,
) -> dict:
    """Compare query-network marginals against ground-network marginals.

    Solves the query, then for every constrained query variable computes its
    marginal twice: once on the answer's own network, once on the full ground
    network carrying the same evidence. Reports both distributions and the
    largest absolute difference seen.
    """
    from .engine import Engine

    prog = with_population(program, population)
    ground = ground_program(prog, drivers=drivers)
    engine = Engine(prog)
    entries = []
    worst = 0.0
    answers = list(engine.solve_text(query, limit=limit))
    for ans in answers:
        gnet = _transfer_evidence(ground, ans.network)
        for name in sorted(ans.query_nodes):
            nid = ans.query_nodes[name]
            m_query = marginal(ans.network, nid)
            if gnet is None:
                raise InconsistentEvidenceError(
                    "evidence rejected by the ground network but accepted "
                    "by the query network"
                )
            m_ground = marginal(gnet, resolve_node(gnet, m_query.label))
            diff = max(
                abs(a - b) for a, b in zip(m_query.probs, m_ground.probs)
            )
            worst = max(worst, diff)
            entries.append(
                {
                    "variable": name,
                    "node": term_to_text(m_query.label),
                    "query_probs": list(m_query.probs),
                    "ground_probs": list(m_ground.probs),
                    "max_abs_diff": diff,
                }
            )
    return {
        "query": query,
        "answers": len(answers),
        "entries": entries,
        "max_abs_diff": worst,
        "agree": worst <= tolerance,
    }


def agreement_sweep(
    program: Program,
    drivers: Optional[Sequence[Union[Term, str]]] = None,
    population: Iterable[Term] = (),
    tolerance: float = 1e-9,
) -> dict:
    """Exhaustive agreement check over single-node queries.

    Every driver solution yields an answer network; every node of every
    answer network is compared against the ground network, both with no
    evidence and under each single-node evidence assignment (querying each
    other node). Evidence with zero probability must be rejected on both
    sides to count as agreement.
    """
    from .engine import Engine

    prog = with_population(program, population)
    ground = ground_program(prog, drivers=drivers)
    engine = Engine(prog)
    goals = _driver_goals(prog, drivers)
    worst = 0.0
    comparisons = 0
    failures: list[str] = []

    def compare(bnet: ConstraintNetwork, gnet: ConstraintNetwork, qid: int):
        nonlocal worst, comparisons
        label = bnet.nodes[qid].label
        try:
            mq = marginal(bnet, qid)
            q_failed = False
        except InconsistentEvidenceError:
            q_failed = True
        try:
            mg = marginal(gnet, resolve_node(gnet, label))
            g_failed = False
        except InconsistentEvidenceError:
            g_failed = True
        comparisons += 1
        if q_failed or g_failed:
            if q_failed != g_failed:
                failures.append(
                    f"{term_to_text(label)}: zero-probability evidence "
                    f"rejected on one side only"
                )
            return
        if len(mq.probs) != len(mg.probs):
            failures.append(f"{term_to_text(label)}: domain size mismatch")
            return
        diff = max(abs(a - b) for a, b in zip(mq.probs, mg.probs))
        worst = max(worst, diff)
        if diff > tolerance:
            failures.append(f"{term_to_text(label)}: differs by {diff:.3g}")

    for goal in goals:
        for ans in engine.solve_goals([goal], {}, limit=None):
            bnet = ans.network
            for qid in bnet.node_ids():
                compare(bnet, ground, qid)
            for eid in bnet.node_ids():
                enode = bnet.nodes[eid]
                if enode.evidence is not None:
                    continue
                for value in enode.domain:
                    b2 = bnet.set_evidence(eid, value)
                    gid = ground.find_by_label(enode.label)
                    g2 = ground.set_evidence(gid, value) if gid is not None else None
                    if b2 is None or g2 is None:
                        if (b2 is None) != (g2 is None):
                            failures.append(
                                f"{term_to_text(enode.label)}={term_to_text(value)}: "
                                "evidence accepted on one side only"
                            )
                        continue
                    for qid in bnet.node_ids():
                        if qid != eid:
                            compare(b2, g2, qid)
    return {
        "comparisons": comparisons,
        "max_abs_diff": worst,
        "failures": failures,
        "agree": not failures,
    }
