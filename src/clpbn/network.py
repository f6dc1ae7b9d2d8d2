"""The constraint store: a Bayesian network grown during resolution.

Nodes are labeled by Skolem terms (possibly non-ground mid-derivation)
and carry a domain, a flat CPT (see ``program`` for the layout), parent
node ids, and optional evidence. All operations are functional: they
return a new network, so the engine can backtrack by dropping a state.

Failure semantics: operations return None for logical failure (label
clash, empty domain intersection, incompatible tables, all-zero column);
structural problems raise (malformed CPT, unconstrained parent, directed
cycle, evidence conflict).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .errors import (
    EvidenceConflictError,
    MalformedCptError,
    NetworkCycleError,
    UnconstrainedParentError,
)
from .parser import parse_term, term_to_text
from .program import CptSpec, col_index, column_count
from .terms import (
    EMPTY_SUBST,
    Atom,
    FreshVars,
    Struct,
    Subst,
    Term,
    Var,
    is_ground,
    term_equal,
    unify_trail,
)

MERGE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Node:
    id: int
    label: Term
    domain: tuple[Term, ...]
    table: tuple[float, ...]
    parents: tuple[int, ...]
    evidence: Optional[int] = None  # index into domain

    @property
    def cardinality(self) -> int:
        return len(self.domain)

    def evidence_value(self) -> Optional[Term]:
        return self.domain[self.evidence] if self.evidence is not None else None


def normalize_columns(table: list[float], d: int) -> Optional[list[float]]:
    """Divide each column by its sum; None if any column sums to zero."""
    cols = column_count(len(table), d)
    out = list(table)
    for j in range(cols):
        s = sum(table[r * cols + j] for r in range(d))
        if s <= 0.0:
            return None
        for r in range(d):
            out[r * cols + j] = table[r * cols + j] / s
    return out


class ConstraintNetwork:
    """Mapping of node ids to nodes plus variable-to-node bindings."""

    def __init__(
        self,
        skolem_functors: Iterable[tuple[str, int]] = (),
        skolem_constants: Iterable[str] = (),
    ) -> None:
        self.nodes: dict[int, Node] = {}
        self.binding: dict[int, int] = {}  # var id -> node id
        self.skolem_functors = frozenset(skolem_functors)
        self.skolem_constants = frozenset(skolem_constants)

    # --- plumbing -------------------------------------------------------

    def copy(self) -> "ConstraintNetwork":
        net = ConstraintNetwork.__new__(ConstraintNetwork)
        net.nodes = dict(self.nodes)
        net.binding = dict(self.binding)
        net.skolem_functors = self.skolem_functors
        net.skolem_constants = self.skolem_constants
        return net

    def __len__(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def is_skolem_term(self, t: Term) -> bool:
        if isinstance(t, Struct):
            return (t.functor, t.arity) in self.skolem_functors
        if isinstance(t, Atom):
            return (t.name, 0) in self.skolem_functors or t.name in self.skolem_constants
        return False

    def children(self, node_id: int) -> list[int]:
        return sorted(c.id for c in self.nodes.values() if node_id in c.parents)

    def find_by_label(self, label: Term, subst: Subst = EMPTY_SUBST) -> Optional[int]:
        for nid in sorted(self.nodes):
            if term_equal(subst.resolve(self.nodes[nid].label), label):
                return nid
        return None

    def parent_sizes(self, node: Node) -> list[int]:
        return [self.nodes[p].cardinality for p in node.parents]

    # --- basic construction ----------------------------------------------

    def add_node(
        self,
        label: Term,
        domain: list[Term] | tuple[Term, ...],
        table: list[float] | tuple[float, ...],
        parents: list[int] | tuple[int, ...] = (),
        evidence: Optional[Term] = None,
        node_id: Optional[int] = None,
    ) -> tuple["ConstraintNetwork", int]:
        """Insert a node directly (network construction API, also used by
        tests and the JSON loader). Raises on shape problems."""
        domain = tuple(domain)
        table = tuple(float(x) for x in table)
        parents = tuple(parents)
        for p in parents:
            if p not in self.nodes:
                raise MalformedCptError(f"parent node {p} does not exist")
        if len(set(parents)) != len(parents):
            raise MalformedCptError("parents must be distinct")
        expected = len(domain)
        for p in parents:
            expected *= self.nodes[p].cardinality
        if len(table) != expected:
            raise MalformedCptError(
                f"table length {len(table)} does not match domain x parents ({expected})"
            )
        nid = node_id if node_id is not None else (max(self.nodes, default=-1) + 1)
        if nid in self.nodes:
            raise MalformedCptError(f"node id {nid} already in use")
        ev_idx = None
        if evidence is not None:
            ev_idx = self._domain_index(domain, evidence)
            if ev_idx is None:
                raise MalformedCptError(
                    f"evidence value {term_to_text(evidence)} not in domain"
                )
        net = self.copy()
        net.nodes[nid] = Node(nid, label, domain, table, parents, ev_idx)
        return net, nid

    @staticmethod
    def _domain_index(domain: tuple[Term, ...], value: Term) -> Optional[int]:
        for i, v in enumerate(domain):
            if term_equal(v, value):
                return i
        return None

    # --- evidence --------------------------------------------------------

    def set_evidence(self, node_id: int, value: Term) -> Optional["ConstraintNetwork"]:
        """None if the value is not in the domain (logical failure);
        EvidenceConflictError if different evidence is already set."""
        node = self.nodes[node_id]
        idx = self._domain_index(node.domain, value)
        if idx is None:
            return None
        if node.evidence is not None:
            if node.evidence != idx:
                raise EvidenceConflictError(
                    f"node {term_to_text(node.label)} already has evidence "
                    f"{term_to_text(node.domain[node.evidence])}, got {term_to_text(value)}"
                )
            return self
        net = self.copy()
        net.nodes[node_id] = replace(node, evidence=idx)
        return net

    # --- posting -----------------------------------------------------------

    def post_constraint(
        self,
        v: Term,
        label: Term,
        spec: CptSpec,
        subst: Subst,
        ids: FreshVars,
        declared_evidence: Optional[dict[str, Term]] = None,
    ):
        """Post one constraint. ``v`` is the walked constraint variable (an
        unbound Var, or a ground term which becomes evidence); ``label`` and
        ``spec`` are already resolved under ``subst``.

        Returns (net, subst, node_id, trail) or None for logical failure.
        The trail carries bindings added by label unification on merges; the
        caller must absorb them (they may touch constrained variables).
        """
        parent_ids: list[int] = []
        for p in spec.parents:
            pw = subst.walk(p)
            if isinstance(pw, Var):
                if isinstance(v, Var) and pw.id == v.id:
                    raise NetworkCycleError(
                        "constraint lists its own variable as a parent"
                    )
                nid = self.binding.get(pw.id)
                if nid is None:
                    raise UnconstrainedParentError(
                        f"parent variable {pw.display()} is not constrained"
                    )
                parent_ids.append(nid)
                continue
            resolved = subst.resolve(pw)
            if is_ground(resolved) and self.is_skolem_term(resolved):
                # Ground programs name parents by their Skolem terms.
                nid = self.find_by_label(resolved, subst)
                if nid is None:
                    raise UnconstrainedParentError(
                        f"parent {term_to_text(resolved)} has no node in the store"
                    )
                parent_ids.append(nid)
                continue
            raise UnconstrainedParentError(
                f"parent is not a constrained variable: {term_to_text(pw)}"
            )
        if len(set(parent_ids)) != len(parent_ids):
            raise MalformedCptError("duplicate parent in constraint")
        expected = len(spec.domain)
        for pid in parent_ids:
            expected *= self.nodes[pid].cardinality
        if len(spec.table) != expected:
            raise MalformedCptError(
                f"table length {len(spec.table)} does not match domain x parents "
                f"({expected}) for {term_to_text(label)}"
            )

        target: Optional[int] = None
        if isinstance(v, Var) and v.id in self.binding:
            target = self.binding[v.id]
        elif is_ground(label):
            target = self.find_by_label(label, subst)

        if target is None:
            nid = ids.next_id()
            net = self.copy()
            net.nodes[nid] = Node(
                nid, label, spec.domain, spec.table, tuple(parent_ids), None
            )
            if isinstance(v, Var):
                net.binding[v.id] = nid
            result = net._apply_post_evidence(nid, v, label, subst, declared_evidence)
            if result is None:
                return None
            return result, subst, nid, []

        # Merge with the existing node: same random variable reached twice.
        merged = self._merge_spec_into(
            target, label, spec, tuple(parent_ids), subst
        )
        if merged is None:
            return None
        net, s2, trail = merged
        if isinstance(v, Var):
            net = net.copy()
            net.binding[v.id] = target
        result = net._apply_post_evidence(target, v, label, s2, declared_evidence)
        if result is None:
            return None
        return result, s2, target, trail

    def _apply_post_evidence(
        self,
        nid: int,
        v: Term,
        label: Term,
        subst: Subst,
        declared_evidence: Optional[dict[str, Term]],
    ) -> Optional["ConstraintNetwork"]:
        net = self
        if not isinstance(v, Var):
            # The constraint variable was already bound to a ground value:
            # record it as evidence on the node.
            net = net.set_evidence(nid, v)
            if net is None:
                return None
        if declared_evidence:
            resolved = subst.resolve(label)
            if is_ground(resolved):
                val = declared_evidence.get(term_to_text(resolved))
                if val is not None:
                    net = net.set_evidence(nid, val)
                    if net is None:
                        return None
        return net

    def _merge_spec_into(
        self,
        target: int,
        label: Term,
        spec: CptSpec,
        parent_ids: tuple[int, ...],
        subst: Subst,
    ):
        """Check the posted spec against an existing node and merge."""
        node = self.nodes[target]
        r = unify_trail(node.label, label, subst)
        if r is None:
            return None
        s2, trail = r
        if node.parents != parent_ids:
            return None
        keep_node = [
            i
            for i, val in enumerate(node.domain)
            if any(term_equal(val, w) for w in spec.domain)
        ]
        if not keep_node:
            return None
        # Align the new table's rows to the surviving values and compare.
        cols = column_count(len(node.table), node.cardinality)
        for i in keep_node:
            val = node.domain[i]
            j = self._domain_index(spec.domain, val)
            for c in range(cols):
                a = node.table[i * cols + c]
                b = spec.table[j * cols + c]
                if not math.isclose(a, b, rel_tol=0.0, abs_tol=MERGE_TOLERANCE):
                    return None
        net = self
        if len(keep_node) != node.cardinality:
            net = net.restrict_node_domain(target, keep_node)
            if net is None:
                return None
        # Store the unified label (resolved as far as the bindings go).
        net = net.copy()
        cur = net.nodes[target]
        net.nodes[target] = replace(cur, label=s2.resolve(cur.label))
        return net, s2, trail

    # --- merging of two nodes -------------------------------------------

    def unify_constrained(self, v1: Var, v2: Var, subst: Subst):
        """Merge the nodes of two constrained variables.

        Returns (net, subst, trail, survivor_id) or None for failure.
        Raises NetworkCycleError if the merge creates a directed cycle.
        """
        n1 = self.binding.get(v1.id)
        n2 = self.binding.get(v2.id)
        if n1 is None or n2 is None:
            raise UnconstrainedParentError("unify_constrained needs two constrained variables")
        if n1 == n2:
            return self, subst, [], n1
        return self._merge_nodes(n1, n2, subst)

    def _merge_nodes(self, n1: int, n2: int, subst: Subst):
        a = self.nodes[n1]
        b = self.nodes[n2]
        r = unify_trail(a.label, b.label, subst)
        if r is None:
            return None
        s2, trail = r
        if a.parents != b.parents:
            return None
        keep_a: list[int] = []
        keep_b: list[int] = []
        for i, val in enumerate(a.domain):
            j = self._domain_index(b.domain, val)
            if j is not None:
                keep_a.append(i)
                keep_b.append(j)
        if not keep_a:
            return None
        cols_a = column_count(len(a.table), a.cardinality)
        cols_b = column_count(len(b.table), b.cardinality)
        if cols_a != cols_b:
            return None
        for i, j in zip(keep_a, keep_b):
            for c in range(cols_a):
                if not math.isclose(
                    a.table[i * cols_a + c],
                    b.table[j * cols_b + c],
                    rel_tol=0.0,
                    abs_tol=MERGE_TOLERANCE,
                ):
                    return None
        # Evidence compatibility under the intersected domain.
        ev_vals = []
        for node in (a, b):
            if node.evidence is not None:
                ev_vals.append(node.domain[node.evidence])
        if len(ev_vals) == 2 and not term_equal(ev_vals[0], ev_vals[1]):
            return None
        net = self
        if len(keep_a) != a.cardinality:
            net = net.restrict_node_domain(n1, keep_a)
            if net is None:
                return None
        net = net.copy()
        # Restrict n2's slice in each of its children, then repoint to n1.
        if len(keep_b) != b.cardinality:
            tmp = net.restrict_node_domain(n2, keep_b)
            if tmp is None:
                return None
            net = tmp.copy()
        for cid in list(net.nodes):
            child = net.nodes[cid]
            if n2 in child.parents and cid != n2:
                new_parents = tuple(n1 if p == n2 else p for p in child.parents)
                if len(set(new_parents)) != len(new_parents):
                    return None  # child would list the merged node twice
                net.nodes[cid] = replace(child, parents=new_parents)
        survivor = net.nodes[n1]
        if ev_vals:
            idx = self._domain_index(survivor.domain, ev_vals[0])
            if idx is None:
                return None
            survivor = replace(survivor, evidence=idx)
        survivor = replace(survivor, label=s2.resolve(survivor.label))
        net.nodes[n1] = survivor
        del net.nodes[n2]
        for vid, nid in list(net.binding.items()):
            if nid == n2:
                net.binding[vid] = n1
        ok, cycle = net.check_acyclic()
        if not ok:
            raise NetworkCycleError("merge created a directed cycle", cycle)
        return net, s2, trail, n1

    # --- domain restriction ------------------------------------------------

    def restrict_node_domain(
        self, node_id: int, keep: list[int]
    ) -> Optional["ConstraintNetwork"]:
        """Marginalize away domain values not in ``keep`` (conditioning):
        drop the rows, renormalize columns, and restrict the node's slice
        in every child's table. None if a column becomes all-zero or the
        node's evidence value is dropped."""
        node = self.nodes[node_id]
        if keep == list(range(node.cardinality)):
            return self
        if not keep:
            return None
        new_domain = tuple(node.domain[i] for i in keep)
        cols = column_count(len(node.table), node.cardinality)
        new_table = [node.table[i * cols + c] for i in keep for c in range(cols)]
        new_table = normalize_columns(new_table, len(keep))
        if new_table is None:
            return None
        new_evidence = None
        if node.evidence is not None:
            if node.evidence not in keep:
                return None
            new_evidence = keep.index(node.evidence)
        net = self.copy()
        net.nodes[node_id] = replace(
            node,
            domain=new_domain,
            table=tuple(new_table),
            evidence=new_evidence,
        )
        for cid in list(net.nodes):
            child = net.nodes[cid]
            if node_id not in child.parents or cid == node_id:
                continue
            sizes = [self.nodes[p].cardinality for p in child.parents]
            axis = child.parents.index(node_id)
            d = child.cardinality
            # enumerate old columns, keep those whose value on `axis` survives
            keep_set = set(keep)
            remap = {old: new for new, old in enumerate(keep)}
            old_cols = column_count(len(child.table), d)
            new_sizes = list(sizes)
            new_sizes[axis] = len(keep)
            new_table_child = [0.0] * (d * (old_cols // sizes[axis] * len(keep)))
            new_col_total = old_cols // sizes[axis] * len(keep)
            for combo in itertools.product(*[range(n) for n in sizes]):
                if combo[axis] not in keep_set:
                    continue
                oc = col_index(combo, sizes)
                nc_combo = list(combo)
                nc_combo[axis] = remap[combo[axis]]
                nc = col_index(nc_combo, new_sizes)
                for r in range(d):
                    new_table_child[r * new_col_total + nc] = child.table[r * old_cols + oc]
            normalized = normalize_columns(new_table_child, d)
            if normalized is None:
                return None
            net.nodes[cid] = replace(child, table=tuple(normalized))
        return net

    # --- whole-net substitution -------------------------------------------

    def apply_substitution(self, subst: Subst) -> Optional["ConstraintNetwork"]:
        """Apply a substitution to every label. Domain values that cannot be
        a denotation of the new label are marginalized away; None if that
        empties a domain or zeroes a column."""
        net = self
        for nid in sorted(self.nodes):
            node = net.nodes[nid]
            new_label = subst.resolve(node.label)
            if isinstance(new_label, Var) or net.is_skolem_term(new_label):
                keep = list(range(node.cardinality))
            else:
                keep = [
                    i
                    for i, val in enumerate(node.domain)
                    if unify_trail(val, new_label, EMPTY_SUBST) is not None
                ]
            if len(keep) != node.cardinality:
                restricted = net.restrict_node_domain(nid, keep)
                if restricted is None:
                    return None
                net = restricted
            net = net.copy()
            net.nodes[nid] = replace(net.nodes[nid], label=new_label)
        return net

    # --- structure checks ----------------------------------------------------

    def _child_lists(self) -> dict[int, list[int]]:
        """Children of every node, each list in node insertion order."""
        children: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for c, node in self.nodes.items():
            for p in set(node.parents):
                if p in children:
                    children[p].append(c)
        return children

    def check_acyclic(self) -> tuple[bool, list[int]]:
        """(True, []) or (False, cycle as a node id sequence)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {nid: WHITE for nid in self.nodes}
        children = self._child_lists()
        for root in sorted(self.nodes):
            if color[root] != WHITE:
                continue
            # explicit DFS stack: the path so far, each with its child iterator
            color[root] = GRAY
            path = [root]
            work = [iter(children[root])]
            while work:
                c = next(work[-1], None)
                if c is None:
                    color[path.pop()] = BLACK
                    work.pop()
                elif color[c] == GRAY:
                    return False, path[path.index(c):] + [c]
                elif color[c] == WHITE:
                    color[c] = GRAY
                    path.append(c)
                    work.append(iter(children[c]))
        return True, []

    def topological_order(self) -> list[int]:
        """Parents before children; ties broken by node id."""
        waiting = {nid: len(set(n.parents)) for nid, n in self.nodes.items()}
        children = self._child_lists()
        ready = [nid for nid, k in waiting.items() if k == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for c in children[nid]:
                waiting[c] -= 1
                if waiting[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) < len(self.nodes):
            raise NetworkCycleError("network is cyclic", self.check_acyclic()[1])
        return order

    # --- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        nodes = []
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            nodes.append(
                {
                    "id": n.id,
                    "label": term_to_text(n.label),
                    "domain": [term_to_text(v) for v in n.domain],
                    "parents": list(n.parents),
                    "table": list(n.table),
                    "evidence": (
                        term_to_text(n.domain[n.evidence])
                        if n.evidence is not None
                        else None
                    ),
                }
            )
        return {"nodes": nodes}

    @classmethod
    def from_json(cls, data: dict) -> "ConstraintNetwork":
        net = cls()
        functors = set()
        entries = sorted(data["nodes"], key=lambda e: e["id"])
        for e in entries:
            label = parse_term(e["label"])
            if isinstance(label, Struct):
                functors.add((label.functor, label.arity))
            elif isinstance(label, Atom):
                functors.add((label.name, 0))
            domain = [parse_term(v) for v in e["domain"]]
            evidence = parse_term(e["evidence"]) if e.get("evidence") else None
            net, _ = net.add_node(
                label,
                domain,
                e["table"],
                e.get("parents", ()),
                evidence=evidence,
                node_id=e["id"],
            )
        net.skolem_functors = frozenset(functors)
        return net
