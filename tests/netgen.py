"""Random network generator for cross-checking the two inference engines.

Sampler: node count uniform in [2, max_nodes]; domain sizes uniform in
[2, max_domain]; each node may take parents only among lower-numbered
nodes (at most 3, to bound table width), each lower node kept with
probability 0.4; tables are column-normalized uniforms, so every entry is
strictly positive and any evidence assignment has nonzero probability.

`add_node` builds networks by hand for tests: it adds one node in place,
with the next free id.
"""

from __future__ import annotations

import numpy as np

from clpbn.network import ConstraintNetwork, Node
from clpbn.program import Domain
from clpbn.terms import Atom, Struct, Term


def add_node(net: ConstraintNetwork, label: Term, domain, table, parents=()) -> int:
    """Add a node without evidence to net in place and return its id, one
    above the largest in use."""
    nid = max(net.nodes, default=-1) + 1
    net._put(Node(nid, label, Domain(domain), tuple(map(float, table)), tuple(parents)))
    return nid


def random_net(
    rng: np.random.Generator,
    max_nodes: int = 12,
    max_domain: int = 4,
    max_evidence: int = 3,
) -> ConstraintNetwork:
    n = int(rng.integers(2, max_nodes + 1))
    net = ConstraintNetwork(skolem_functors=[("n", 1)])
    sizes = []
    for i in range(n):
        d = int(rng.integers(2, max_domain + 1))
        lower = list(range(i))
        rng.shuffle(lower)
        parents = sorted(p for p in lower[:3] if rng.random() < 0.4)
        cols = 1
        for p in parents:
            cols *= sizes[p]
        table = rng.random((d, cols)) + 1e-3
        table = table / table.sum(axis=0)
        nid = add_node(
            net,
            Struct("n", (i,)),
            [Atom(f"v{k}") for k in range(d)],
            [float(x) for x in table.flatten()],
            parents=parents,
        )
        assert nid == i
        sizes.append(d)
    k = int(rng.integers(0, max_evidence + 1))
    chosen = rng.choice(n, size=min(k, n), replace=False)
    for nid in chosen:
        node = net.nodes[int(nid)]
        value = node.domain[int(rng.integers(0, len(node.domain)))]
        out = net.set_evidence(int(nid), value)
        assert out is not None
        net = out
    return net
