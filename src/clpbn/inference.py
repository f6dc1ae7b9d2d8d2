"""Exact inference over constraint networks.

One bucket-elimination pass, `_eliminate`, picks a min-degree order,
sums the variables out and keeps each bucket: the nodes' conditional
tables become factors, and evidence is clamped by slicing first.
`marginal` runs it over every free node but the target and multiplies
what is left. `all_marginals` runs it over every free node and then one
downward pass over the bucket tree it built, reusing its messages instead
of eliminating once per node.

Each node's normalized CPT factor is built once per node object and
cached on the network (`_cpt_factor`); copies share the entries, and
observing a node keeps its entry, so observing a few nodes of a ground
network rebuilds no factor. A product is one numpy call over the sorted union
of the two scopes (`_factor_product`), and every result is bit for bit
what transposing both operands onto that union and multiplying gives.

The module also houses forward sampling (seeded, reproducible, CSV
output), whole-program grounding over a population of facts, and the
agreement sweep that compares query-time networks against the fully
ground network.
"""

from __future__ import annotations

import csv
import functools
import heapq
import io
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import GroundingError, InconsistentEvidenceError, InferenceError
from .network import ConstraintNetwork, Node
from .parser import parse_term, term_to_text
from .program import Program, parse_query, with_population
from .terms import FreshVars, Struct, Term, is_ground, mkconj

NodeRef = Union[int, str, Term]

# 1,100 observed fair coins have probability 2**-1100, below the smallest
# float; a power of two rescales a product exactly (see _product_in_range)
_TINY, _LIFT = 2.0 ** -500, 2.0 ** 500


# --- factors ----------------------------------------------------------------


class Factor(NamedTuple):
    """A nonnegative table over a tuple of node ids.

    `values` has one axis per entry of `vars`, in order, with axis size
    equal to that node's (current) cardinality. A named tuple, since
    elimination builds one per product and sum; no code writes into
    `values`, and the cached CPT factors' arrays are read-only.
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


def _cpt_factor(net: ConstraintNetwork, nid: int) -> Factor:
    """`node_factor` of node nid, built at most once per node object.

    Nodes are frozen and every change replaces one, so a cached entry is
    valid exactly while it holds the node now stored under nid; a
    replaced, dropped or restored node needs no invalidation. Copies of
    the network start with the same cache (see `ConstraintNetwork.copy`),
    and `_set_evidence` moves an entry to the observed node, whose factor
    is the same.
    """
    node = net.nodes[nid]
    entry = net._factors.get(nid)
    if entry is None or entry[0] is not node:
        f = node_factor(net, node)
        f.values.flags.writeable = False
        entry = net._factors[nid] = (node, f)
    return entry[1]


def _factor_product(a: Factor, b: Factor) -> Factor:
    """Elementwise product over the sorted union of the two scopes.

    Two scopes in ascending order each reshape onto the union (equal ones
    need no reshape) and broadcast-multiply; anything else is one einsum,
    labelled by position in the union since einsum takes only labels
    below 52.
    """
    allvars = tuple(sorted(set(a.vars).union(b.vars)))
    if _in_order(a.vars) and _in_order(b.vars):
        return Factor(allvars, _broadcastable(a, allvars) * _broadcastable(b, allvars))
    axis = {v: i for i, v in enumerate(allvars)}
    vals = np.einsum(
        a.values, [axis[v] for v in a.vars], b.values, [axis[v] for v in b.vars],
        list(range(len(allvars))),
    )
    return Factor(allvars, vals)


def _in_order(vs: tuple[int, ...]) -> bool:
    return list(vs) == sorted(vs)


def _broadcastable(f: Factor, allvars: tuple[int, ...]) -> np.ndarray:
    """f.values with a unit axis for each variable of allvars that f lacks;
    f.vars must be in allvars' order."""
    if f.vars == allvars:
        return f.values
    size = dict(zip(f.vars, f.values.shape))
    return f.values.reshape([size.get(v, 1) for v in allvars])


# --- marginals by variable elimination ---------------------------------------


@dataclass(frozen=True)
class Marginal:
    node_id: int
    label: Term
    domain: tuple[Term, ...]
    probs: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "node": term_to_text(self.label),
            "domain": [term_to_text(v) for v in self.domain],
            "probs": list(self.probs),
        }


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
        f = _cpt_factor(net, nid)
        for var in f.vars:
            ev = net.nodes[var].evidence
            if ev is not None:
                f = f.reduce(var, ev)
        factors.append(f)
    return factors


def _eliminate(
    factors: list[Factor], eliminate: set[int]
) -> tuple[list[int], list[list[tuple[Optional[int], Factor]]], list[Factor]]:
    """Bucket elimination of `eliminate`, in min-degree order.

    The next variable is the one with the smallest key (number of
    neighbours in the live factors, node id). A heap holds the keys, stale
    entries are skipped on pop, and only the variables in a new message's
    scope are re-keyed. `incident` maps each variable to the live factors
    that held it, numbered in creation order (consumed ones are skipped on
    lookup), so a bucket is found without scanning every factor and is
    multiplied in creation order.

    Returns the order; each variable's bucket, as (source, factor) pairs in
    creation order, where source is the bucket that sent the message or
    None for a clamped CPT; and the leftover factors: a unit scalar and
    the scalar messages first, then the factors no bucket took.
    """
    live: dict[int, tuple[Optional[int], Factor]] = {
        i: (None, f) for i, f in enumerate(factors)
    }
    incident: dict[int, list[int]] = {}
    for i, (_, f) in live.items():
        for v in f.vars:
            incident.setdefault(v, []).append(i)

    def key(v: int) -> tuple[int, int]:
        neighbours = set().union(
            *(live[i][1].vars for i in incident.get(v, ()) if i in live)
        )
        neighbours.discard(v)
        return (len(neighbours), v)

    current = {v: key(v) for v in eliminate}
    heap = list(current.values())
    heapq.heapify(heap)
    order: list[int] = []
    buckets: list[list[tuple[Optional[int], Factor]]] = []
    scalars = [Factor((), np.array(1.0))]
    fresh = len(factors)
    while heap:
        entry = heapq.heappop(heap)
        v = entry[1]
        if current.get(v) != entry:
            continue
        del current[v]
        bucket = [live.pop(i) for i in incident.pop(v, ()) if i in live]
        order.append(v)
        buckets.append(bucket)
        msg = functools.reduce(_factor_product, [f for _, f in bucket]).sum_out(v)
        if not msg.vars:
            scalars.append(msg)
            continue
        live[fresh] = (len(buckets) - 1, msg)
        for u in msg.vars:
            incident[u].append(fresh)
            if u in current:
                current[u] = key(u)
                heapq.heappush(heap, current[u])
        fresh += 1
    leftovers = [f for _, f in live.values()]
    return order, buckets, scalars + leftovers


def marginal(net: ConstraintNetwork, node: NodeRef) -> Marginal:
    """Exact posterior marginal of one node given the network's evidence:
    `_eliminate` sums out every other free node, and the leftover factors
    multiply to the node's unnormalized marginal."""
    target = resolve_node(net, node)
    tnode = net.nodes[target]
    eliminate = {
        nid for nid in net.nodes if nid != target and net.nodes[nid].evidence is None
    }
    _, _, leftovers = _eliminate(_clamped_factors(net), eliminate)
    result = _product_in_range(leftovers)

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


def all_marginals(net: ConstraintNetwork) -> list[Marginal]:
    """Exact posterior marginal of every node, in `node_ids()` order.

    One bucket-elimination sweep serves every node. The upward pass is
    `_eliminate` over every free node, the same pass `marginal` runs: each
    clamped factor lands in the bucket of its earliest-eliminated variable
    and each message in the bucket of the earliest-eliminated variable in
    its scope, so the buckets form a tree (a forest when the network is
    disconnected), and the leftovers multiply to the evidence
    probability. The downward pass sends each child the
    product of everything else in its parent's bucket, summed down to the
    child's separator. That is the Shafer-Shenoy form, which never divides,
    so tables with zeros are safe. A bucket's belief, summed down to its
    variable, is that node's marginal.
    """
    free = {nid for nid in net.nodes if net.nodes[nid].evidence is None}
    order, buckets, leftovers = _eliminate(_clamped_factors(net), free)
    if float(_product_in_range(leftovers).values) <= 0.0:
        raise InconsistentEvidenceError(
            "the network's evidence has zero probability"
        )

    # downward: a parent's message to each child leaves that child's own
    # upward message out, by prefix and suffix products over the inbox
    down: list[Optional[Factor]] = [None] * len(order)
    probs: dict[int, tuple[float, ...]] = {}
    for i in reversed(range(len(order))):
        inbox = [(src, m) for src, m in buckets[i] if src is not None]
        suffix: list[Optional[Factor]] = [None] * (len(inbox) + 1)
        for j in reversed(range(len(inbox))):
            suffix[j] = _times(inbox[j][1], suffix[j + 1])
        prefix = down[i]
        for src, f in buckets[i]:
            if src is None:
                prefix = _times(f, prefix)
        for j, (child, msg) in enumerate(inbox):
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


def _product_in_range(factors: list[Factor]) -> Factor:
    """The product of factors, left to right, times _LIFT whenever its largest
    entry falls below _TINY; callers only normalize it or test it for zero."""
    out = factors[0]
    for f in factors[1:]:
        out = _factor_product(out, f)
        if 0.0 < out.values.max() < _TINY:
            out = Factor(out.vars, out.values * _LIFT)
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
    row_of = {nid: j for j, nid in enumerate(order)}
    out = np.zeros((len(order), n), dtype=np.int64)  # one row per node
    for j, nid in enumerate(order):
        node = net.nodes[nid]
        if node.evidence is not None:
            out[j] = node.evidence
            continue
        d = node.cardinality
        # a draw's value is the number of cumulative rows at or below it;
        # the sums never decrease, so the last row need not be compared
        cum = np.cumsum(_cpt_factor(net, nid).values.reshape(d, -1), axis=0)[: d - 1]
        if node.parents:
            col = np.zeros(n, dtype=np.int64)
            for p, size in zip(node.parents, net.parent_sizes(node)):
                col = col * size + out[row_of[p]]
            cum = cum[:, col]  # shape (d - 1, n)
        out[j] = (rng.random(n) >= cum).sum(axis=0)
    return order, out.T


def _csv_cells(texts: Iterable[str]) -> list[str]:
    """Each text as csv.writer writes it as a cell of a row. A row of one
    empty cell would differ, but no printed term is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for text in texts:
        buf.seek(0)
        buf.truncate()
        writer.writerow((text,))
        cells.append(buf.getvalue()[:-1])
    return cells


def sample_csv(net: ConstraintNetwork, n: int, seed: int) -> str:
    """CSV with one column per node (printed labels, topological order)."""
    order, rows = sample(net, n, seed)
    nodes = [net.nodes[nid] for nid in order]
    # each label and domain value is printed and quoted once; the sampled
    # indices pick the cells
    columns = [
        np.array(_csv_cells(map(term_to_text, node.domain)), dtype=object)[idx].tolist()
        for node, idx in zip(nodes, rows.T)
    ]
    header = ",".join(_csv_cells(term_to_text(node.label) for node in nodes))
    lines = [header, *map(",".join, zip(*columns))] if columns else [""] * (n + 1)
    return "\n".join(lines) + "\n"


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
