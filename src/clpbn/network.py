"""The constraint store: a Bayesian network grown during resolution.

Each node is one random variable, labeled by the Skolem term that names
it (possibly non-ground mid-derivation); a label is never one of the
node's values. A node carries a domain, a flat CPT (see ``program`` for
the layout), parent node ids, and optional evidence.

A network is changed in place, through the underscore operations
(``_set_evidence``, ``_restrict``, ``_merge_nodes``) and
``post_constraint``. Every change to ``nodes``, ``binding`` and the label
index goes through ``_put``, ``_drop`` and ``_bind``, which log it on
``trail``, the undo trail that the engine's ``Subst`` logs its bindings
to, so one ``Subst.undo`` on backtracking reverts bindings and store
together. Two public operations copy the network and change the copy,
leaving the one they are called on as it was: ``set_evidence`` observes
one node, and ``apply_substitution`` resolves every label under the
answer's bindings to freeze an answer network.

Nodes are frozen: a change replaces a node with a new object, never edits
one. ``_factors`` caches each node's CPT factor for inference together
with the node it was built from, and an entry counts only while that very
node is stored, so replacing, dropping or restoring a node needs no
invalidation and the cache is not on the trail. Observing a node moves
its entry to the observed node, since evidence changes neither its
table, its domain nor its parents; an undo brings back the old node,
whose factor is then built again.

The label index maps each ground stored label, by ``term_sort_key``, to
its node ids. Nodes whose stored label holds a variable are kept in a
small set and resolved when searched, so ``find_by_label`` is a dict
lookup plus a scan of that set.

Failure semantics: operations return None (or False in place) for logical
failure (label clash, empty domain intersection, incompatible tables,
all-zero column); structural problems raise (malformed CPT, unconstrained
parent, directed cycle, evidence conflict).
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
from .parser import term_to_text
from .program import CptSpec, Domain, col_index, column_count, value_position
from .terms import (
    Atom,
    FreshVars,
    Struct,
    Subst,
    Term,
    Var,
    ground_key,
    is_ground,
    term_equal,
    term_sort_key,
    trail_del,
    trail_set,
    unify,
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


def _common_values(a: tuple[Term, ...], b: tuple[Term, ...]) -> list[tuple[int, int]]:
    """(i, j) with a[i] equal to b[j], for each value of a that b holds, in
    a's order."""
    if a is b:
        return [(i, i) for i in range(len(a))]
    pairs = ((i, value_position(b, v)) for i, v in enumerate(a))
    return [(i, j) for i, j in pairs if j is not None]


def tables_agree(
    a: tuple[float, ...], b: tuple[float, ...], pairs: list[tuple[int, int]], cols: int
) -> bool:
    """Whether row i of table a and row j of table b agree within
    MERGE_TOLERANCE in each of their `cols` columns, for every (i, j) in
    pairs."""
    return all(
        math.isclose(a[i * cols + c], b[j * cols + c], rel_tol=0.0, abs_tol=MERGE_TOLERANCE)
        for i, j in pairs
        for c in range(cols)
    )


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
        self.trail: list = []
        self._by_label: dict[tuple, tuple[int, ...]] = {}  # ground label key -> ids
        self._open: dict[int, None] = {}  # ids of nodes whose label is not ground
        # node id -> (node, its CPT factor), see inference.cached_factor
        self._factors: dict[int, tuple] = {}

    # --- plumbing -------------------------------------------------------

    def copy(self) -> "ConstraintNetwork":
        """An independent network with the same contents, the same cached
        factors and an empty trail."""
        net = ConstraintNetwork.__new__(ConstraintNetwork)
        net.nodes = dict(self.nodes)
        net.binding = dict(self.binding)
        net.skolem_functors = self.skolem_functors
        net.skolem_constants = self.skolem_constants
        net.trail = []
        net._by_label = dict(self._by_label)
        net._open = dict(self._open)
        net._factors = dict(self._factors)
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

    def find_by_label(self, label: Term, subst: Optional[Subst] = None) -> Optional[int]:
        """Lowest id of a node whose label, resolved under subst, equals label."""
        return self._find(term_sort_key(label), label, subst)

    def _find(self, key: tuple, label: Term, subst: Optional[Subst]) -> Optional[int]:
        ids = self._by_label.get(key)
        best = ids[0] if ids else None
        for nid in self._open:
            if best is not None and nid > best:
                continue
            stored = self.nodes[nid].label
            if term_equal(stored if subst is None else subst.resolve(stored), label):
                best = nid
        return best

    def parent_sizes(self, node: Node) -> list[int]:
        return [self.nodes[p].cardinality for p in node.parents]

    # --- in-place changes, logged on the trail ---------------------------

    def _put(self, node: Node) -> None:
        """Insert or replace a node, keeping the label index current."""
        old = self.nodes.get(node.id)
        trail_set(self.trail, self.nodes, node.id, node)
        if old is not None:
            if old.label is node.label:
                return
            self._index(old, False)
        self._index(node, True)

    def _drop(self, nid: int) -> None:
        node = self.nodes[nid]
        trail_del(self.trail, self.nodes, nid)
        self._index(node, False)

    def _index(self, node: Node, add: bool) -> None:
        key = ground_key(node.label)
        if key is None:
            if add:
                trail_set(self.trail, self._open, node.id, None)
            else:
                trail_del(self.trail, self._open, node.id)
            return
        ids = self._by_label.get(key, ())
        ids = tuple(sorted(ids + (node.id,))) if add else tuple(i for i in ids if i != node.id)
        if ids:
            trail_set(self.trail, self._by_label, key, ids)
        else:
            trail_del(self.trail, self._by_label, key)

    def _bind(self, var_id: int, nid: int) -> None:
        trail_set(self.trail, self.binding, var_id, nid)

    # --- evidence --------------------------------------------------------

    def set_evidence(self, node_id: int, value: Term) -> Optional["ConstraintNetwork"]:
        """None if the value is not in the domain (logical failure);
        EvidenceConflictError if different evidence is already set."""
        net = self.copy()
        return net if net._set_evidence(node_id, value) else None

    def _set_evidence(self, node_id: int, value: Term) -> bool:
        node = self.nodes[node_id]
        idx = value_position(node.domain, value)
        if idx is None:
            return False
        if node.evidence is not None:
            if node.evidence != idx:
                raise EvidenceConflictError(
                    f"node {term_to_text(node.label)} already has evidence "
                    f"{term_to_text(node.domain[node.evidence])}, got {term_to_text(value)}"
                )
            return True
        observed = replace(node, evidence=idx)
        entry = self._factors.get(node_id)
        if entry is not None and entry[0] is node:
            # evidence leaves the table, domain and parents as they were
            self._factors[node_id] = (observed, entry[1])
        self._put(observed)
        return True

    # --- posting -----------------------------------------------------------

    def post_constraint(
        self,
        v: Term,
        label: Term,
        spec: CptSpec,
        subst: Subst,
        ids: FreshVars,
        declared_evidence: Optional[dict[str, Term]] = None,
    ) -> Optional[int]:
        """Post one constraint in place. ``v`` is the walked constraint
        variable (an unbound Var, or a ground term which becomes evidence);
        ``label`` and ``spec`` are already resolved under ``subst``.

        Returns the node id, or None for logical failure (the caller undoes
        the trail). A merge may unify labels, binding into ``subst``; the
        caller must absorb those bindings (they may touch constrained
        variables).
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
                f"({expected})"
            )

        target: Optional[int] = None
        if isinstance(v, Var) and v.id in self.binding:
            target = self.binding[v.id]
        else:
            key = ground_key(label)
            if key is not None:
                target = self._find(key, label, subst)

        if target is None:
            target = ids.next_id()
            self._put(Node(target, label, spec.domain, spec.table, tuple(parent_ids), None))
        elif not self._merge_spec_into(target, label, spec, tuple(parent_ids), subst):
            # Merge with the existing node: same random variable reached twice.
            return None
        if isinstance(v, Var):
            self._bind(v.id, target)
        if not self._post_evidence(target, v, label, subst, declared_evidence):
            return None
        return target

    def _post_evidence(
        self,
        nid: int,
        v: Term,
        label: Term,
        subst: Subst,
        declared_evidence: Optional[dict[str, Term]],
    ) -> bool:
        if not isinstance(v, Var):
            # The constraint variable was already bound to a ground value:
            # record it as evidence on the node.
            if not self._set_evidence(nid, v):
                return False
        if declared_evidence:
            resolved = subst.resolve(label)
            if is_ground(resolved):
                val = declared_evidence.get(term_to_text(resolved))
                if val is not None and not self._set_evidence(nid, val):
                    return False
        return True

    def _merge_spec_into(
        self,
        target: int,
        label: Term,
        spec: CptSpec,
        parent_ids: tuple[int, ...],
        subst: Subst,
    ) -> bool:
        """Check the posted spec against an existing node and merge."""
        node = self.nodes[target]
        if not unify(node.label, label, subst):
            return False
        if node.parents != parent_ids:
            return False
        pairs = _common_values(node.domain, spec.domain)
        if not pairs:
            return False
        if node.domain is not spec.domain or node.table is not spec.table:
            # Align the new table's rows to the surviving values and compare.
            cols = column_count(len(node.table), node.cardinality)
            if not tables_agree(node.table, spec.table, pairs, cols):
                return False
        if len(pairs) != node.cardinality:
            if not self._restrict(target, [i for i, _ in pairs]):
                return False
        # Store the unified label (resolved as far as the bindings go).
        cur = self.nodes[target]
        new_label = subst.resolve(cur.label)
        if new_label is not cur.label:
            self._put(replace(cur, label=new_label))
        return True

    # --- merging of two nodes -------------------------------------------

    def _merge_nodes(self, n1: int, n2: int, subst: Subst) -> Optional[int]:
        """Merge node n2 into n1 in place; the survivor's id, or None.

        Label unification binds into subst. Raises NetworkCycleError if the
        merge creates a directed cycle."""
        a = self.nodes[n1]
        b = self.nodes[n2]
        if not unify(a.label, b.label, subst):
            return None
        if a.parents != b.parents:
            return None
        pairs = _common_values(a.domain, b.domain)
        if not pairs:
            return None
        cols_a = column_count(len(a.table), a.cardinality)
        cols_b = column_count(len(b.table), b.cardinality)
        if cols_a != cols_b or not tables_agree(a.table, b.table, pairs, cols_a):
            return None
        # Evidence compatibility under the intersected domain.
        ev_vals = []
        for node in (a, b):
            if node.evidence is not None:
                ev_vals.append(node.domain[node.evidence])
        if len(ev_vals) == 2 and not term_equal(ev_vals[0], ev_vals[1]):
            return None
        keep_a = [i for i, _ in pairs]
        keep_b = [j for _, j in pairs]
        if len(keep_a) != a.cardinality and not self._restrict(n1, keep_a):
            return None
        # Restrict n2's slice in each of its children, then repoint to n1.
        if len(keep_b) != b.cardinality and not self._restrict(n2, keep_b):
            return None
        for cid in list(self.nodes):
            child = self.nodes[cid]
            if n2 in child.parents and cid != n2:
                new_parents = tuple(n1 if p == n2 else p for p in child.parents)
                if len(set(new_parents)) != len(new_parents):
                    return None  # child would list the merged node twice
                self._put(replace(child, parents=new_parents))
        survivor = self.nodes[n1]
        if ev_vals:
            idx = value_position(survivor.domain, ev_vals[0])
            if idx is None:
                return None
            survivor = replace(survivor, evidence=idx)
        self._put(replace(survivor, label=subst.resolve(survivor.label)))
        self._drop(n2)
        for vid, nid in list(self.binding.items()):
            if nid == n2:
                self._bind(vid, n1)
        ok, cycle = self.check_acyclic()
        if not ok:
            raise NetworkCycleError("merge created a directed cycle", cycle)
        return n1

    # --- domain restriction ------------------------------------------------

    def _restrict(self, node_id: int, keep: list[int]) -> bool:
        """Keep only the domain values at positions ``keep`` (conditioning):
        drop the other rows, renormalize columns, and restrict the node's
        slice in every child's table. False if a column becomes all-zero or
        the node's evidence value is dropped."""
        node = self.nodes[node_id]
        if keep == list(range(node.cardinality)):
            return True
        if not keep:
            return False
        new_domain = Domain(node.domain[i] for i in keep)
        cols = column_count(len(node.table), node.cardinality)
        new_table = [node.table[i * cols + c] for i in keep for c in range(cols)]
        new_table = normalize_columns(new_table, len(keep))
        if new_table is None:
            return False
        new_evidence = None
        if node.evidence is not None:
            if node.evidence not in keep:
                return False
            new_evidence = keep.index(node.evidence)
        # children first: their old tables are laid out by the old domain size
        keep_set = set(keep)
        remap = {old: new for new, old in enumerate(keep)}
        for cid in list(self.nodes):
            child = self.nodes[cid]
            if node_id not in child.parents or cid == node_id:
                continue
            sizes = [self.nodes[p].cardinality for p in child.parents]
            axis = child.parents.index(node_id)
            d = child.cardinality
            # enumerate old columns, keep those whose value on `axis` survives
            old_cols = column_count(len(child.table), d)
            new_sizes = list(sizes)
            new_sizes[axis] = len(keep)
            new_col_total = old_cols // sizes[axis] * len(keep)
            new_table_child = [0.0] * (d * new_col_total)
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
                return False
            self._put(replace(child, table=tuple(normalized)))
        self._put(
            replace(node, domain=new_domain, table=tuple(new_table), evidence=new_evidence)
        )
        return True

    # --- whole-net substitution -------------------------------------------

    def apply_substitution(self, subst: Subst) -> "ConstraintNetwork":
        """A copy with the bindings applied to every label."""
        net = self.copy()
        for nid in sorted(net.nodes):
            node = net.nodes[nid]
            new_label = subst.resolve(node.label)
            if new_label is not node.label:
                net._put(replace(node, label=new_label))
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
