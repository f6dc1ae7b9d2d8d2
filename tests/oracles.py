"""Independent reference implementations that the fast paths must agree with.

`enumerate_joint` builds the full joint table over all non-evidence nodes
by brute-force broadcasting. It is only feasible for small networks, but it
shares no elimination machinery with `inference.marginal` or
`inference.all_marginals`, which makes it a good cross-check for both.

`min_degree_order_rescan` is the plain min-degree ordering that rescans
every scope for every remaining variable; the library's incremental
ordering must return exactly the same order.

`check_acyclic_recursive` and `topological_order_rescan` are the plain
recursive cycle search and the rescanning topological sort; the network's
iterative versions must report the same cycle and the same order.
"""

from __future__ import annotations

import numpy as np

from clpbn.errors import InconsistentEvidenceError, InferenceError
from clpbn.inference import (
    Factor,
    Marginal,
    NodeRef,
    _clamped_factors,
    _expand,
    resolve_node,
)
from clpbn.network import ConstraintNetwork

JOINT_STATE_LIMIT = 2 ** 24


class JointSizeError(InferenceError):
    """Joint enumeration would exceed the state-count guard."""


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
        joint = joint * _expand(f, allvars)
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


def min_degree_order_rescan(
    factors: list[Factor], eliminate: set[int], reverse_ties: bool
) -> list[int]:
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
            key = (len(neighbors), -v if reverse_ties else v)
            if best is None or key < best[0]:
                best = (key, v, neighbors)
        _, v, neighbors = best
        order.append(v)
        remaining.discard(v)
        # simulate elimination: merge the scopes containing v
        scopes = [s for s in scopes if v not in s]
        scopes.append(neighbors)
    return order


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
