"""Reproducible instance generators.

Two families matter here: the core-fringe stochastic block model (random
hyperedges with planted core probabilities) and the adversarial forest of
complete b-ary trees whose root-to-leaf paths force a union of minimal
hitting sets covering every node.  A generic seeded random hypergraph is
included as a fixture generator for property tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph, HittingSet, LabeledHypergraph

# Refuse an sbm instance with more size-r subsets that contain a core node
# (one uniform draw each, ~30 ns per draw on a 2-core host) than this, and
# a tree family with more nodes.
_MAX_SUBSETS = 20_000_000

# Uniforms drawn per chunk of the sbm stream; bounds the generator's working
# memory (~8 bytes per uniform plus the survivors) whatever the instance size.
_CHUNK = 1 << 20


@dataclass(frozen=True)
class SbmParams:
    """Core-fringe block model: p for core-only subsets, q for mixed ones.

    Fringe-only subsets never become hyperedges, so the core is a hitting
    set of every sample by construction.
    """

    core_size: int
    fringe_size: int
    r: int
    p: float
    q: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.core_size < 1:
            raise ValueError(f"core_size must be >= 1, got {self.core_size}")
        if self.fringe_size < 0:
            raise ValueError(f"fringe_size must be >= 0, got {self.fringe_size}")
        if self.r < 2:
            raise ValueError(f"r must be >= 2, got {self.r}")
        if self.r > self.core_size + self.fringe_size:
            raise ValueError("r exceeds the total node count")
        for name, prob in (("p", self.p), ("q", self.q)):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {prob}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class TreeFamilyParams:
    """b disjoint complete b-ary trees, r levels on every root-to-leaf path."""

    b: int
    r: int

    def __post_init__(self) -> None:
        if self.b < 2:
            raise ValueError(f"b must be >= 2, got {self.b}")
        if self.r < 2:
            raise ValueError(f"r must be >= 2, got {self.r}")
        if self.node_count > _MAX_SUBSETS:
            raise ValueError(
                f"tree family with b={self.b}, r={self.r} has {self.node_count} "
                "nodes; choose smaller parameters"
            )

    @property
    def nodes_per_tree(self) -> int:
        return (self.b**self.r - 1) // (self.b - 1)

    @property
    def node_count(self) -> int:
        return self.b * self.nodes_per_tree


def sbm_hypergraph(params: SbmParams) -> LabeledHypergraph:
    """Sample a core-fringe hypergraph with the core recorded as ground truth.

    The size-r subset of lexicographic rank i owns the i-th uniform of a
    counter-based Philox stream keyed by the seed, so the sample is a pure
    function of (params, seed) no matter how the subsets are traversed.
    Core nodes are indices 0..core_size-1.

    The fringe-only subsets (first element >= core_size) are exactly the
    rank suffix [C(n,r) - C(n-c,r), C(n,r)); their probability is zero, so
    their uniforms are never drawn.  The prefix is drawn in chunks of
    ``_CHUNK`` uniforms, and only ranks whose uniform is below max(p, q)
    are unranked, so working memory is bounded by one chunk plus the edges
    kept.
    """
    c, r = params.core_size, params.r
    n = c + params.fringe_size
    drawn = math.comb(n, r) - math.comb(n - c, r)
    if drawn > _MAX_SUBSETS:
        raise ValueError(
            f"{drawn} subsets with a core node to draw at n={n}, r={r}; "
            "use a smaller instance"
        )
    # tables[k][v] = C(n - v, k): the k-subsets of {v, ..., n-1}
    tables = [np.array([math.comb(n - v, k) for v in range(n + 1)], dtype=np.int64)
              for k in range(r + 1)]
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    top = max(params.p, params.q)
    kept = []
    for start in range(0, drawn, _CHUNK):
        uniforms = rng.random(min(_CHUNK, drawn - start))
        ranks = np.flatnonzero(uniforms < top)
        subsets = _unrank(ranks + start, tables, r)
        prob = np.where(subsets[:, -1] < c, params.p, params.q)
        kept.append(subsets[uniforms[ranks] < prob])
    edges = tuple(map(tuple, np.concatenate(kept).tolist()))
    graph = Hypergraph(n=n, edges=edges)
    return LabeledHypergraph(graph=graph, core=frozenset(range(c)))


def _unrank(ranks: np.ndarray, tables: list[np.ndarray], r: int) -> np.ndarray:
    """The r-subsets of range(n) at the given lexicographic ranks, one row each.

    With ``left`` counting the subsets from a row's rank to the end of the
    order, the next element is the largest v whose tail {v, ..., n-1} still
    holds ``left`` subsets of the remaining size; stepping past the subsets
    that start after v leaves the count for the next position.
    """
    left = tables[r][0] - ranks
    out = np.empty((len(ranks), r), dtype=np.int64)
    for i, k in enumerate(range(r, 0, -1)):
        v = np.searchsorted(-tables[k], -left, side="right") - 1
        out[:, i] = v
        left -= tables[k][v + 1]
    return out


def _tree_parent(j: int, b: int) -> int:
    return (j - 1) // b


def tree_family(params: TreeFamilyParams) -> tuple[Hypergraph, int]:
    """Build the forest T_b and the budget k = (r-1)(b-1)+b.

    Nodes are numbered tree by tree in heap order (children of in-tree
    index j are j*b+1 .. j*b+b), and the hyperedges are the b^r root-to-leaf
    paths, each containing exactly r nodes.
    """
    b, r = params.b, params.r
    m = params.nodes_per_tree
    first_leaf = (b ** (r - 1) - 1) // (b - 1)
    edges: list[tuple[int, ...]] = []
    for tree in range(b):
        offset = tree * m
        for leaf in range(first_leaf, m):
            path = []
            j = leaf
            while True:
                path.append(offset + j)
                if j == 0:
                    break
                j = _tree_parent(j, b)
            edges.append(tuple(sorted(path)))
    k = (r - 1) * (b - 1) + b
    return Hypergraph(n=params.node_count, edges=tuple(edges)), k


def _sibling_groups(params: TreeFamilyParams) -> list[list[int]]:
    """Label groups: the roots, then each internal node's children, in id order."""
    b, r = params.b, params.r
    m = params.nodes_per_tree
    first_leaf = (b ** (r - 1) - 1) // (b - 1)
    groups = [[tree * m for tree in range(b)]]
    for tree in range(b):
        offset = tree * m
        for j in range(first_leaf):
            groups.append([offset + j * b + child for child in range(1, b + 1)])
    return groups


def _hitting_set_from_labels(
    params: TreeFamilyParams, labels: dict[int, int]
) -> HittingSet:
    """C*: per level, the non-b-labeled siblings on the all-b chain, plus the all-b leaf."""
    b, r = params.b, params.r
    m = params.nodes_per_tree
    result: set[int] = set()
    chain = -1
    for tree in range(b):
        root = tree * m
        if labels[root] != b:
            result.add(root)
        else:
            chain = root
    for _ in range(r - 1):
        offset = (chain // m) * m
        j = chain % m
        next_chain = -1
        for child in range(j * b + 1, j * b + b + 1):
            node = offset + child
            if labels[node] != b:
                result.add(node)
            else:
                next_chain = node
        chain = next_chain
    result.add(chain)  # the leaf whose whole path is labeled b
    return frozenset(result)


def consistent_labeling_hitting_set(params: TreeFamilyParams, seed: int) -> HittingSet:
    """Sample a random consistent labeling of T_b and return its hitting set.

    A consistent labeling assigns a bijection onto {1..b} to the roots and
    to every sibling group.  The returned set has size (r-1)(b-1)+b and is
    a minimal hitting set of the tree family.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    labels: dict[int, int] = {}
    for group in _sibling_groups(params):
        perm = rng.permutation(params.b)
        for node, label in zip(group, perm):
            labels[node] = int(label) + 1
    return _hitting_set_from_labels(params, labels)


def random_hypergraph(n: int, r_max: int, edge_count: int, seed: int) -> Hypergraph:
    """Fixture generator: edge_count distinct edges with sizes uniform in [2, r_max].

    Raises:
        ValueError: when fewer than edge_count distinct edges exist.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if r_max < 2:
        raise ValueError(f"r_max must be >= 2, got {r_max}")
    if edge_count < 0:
        raise ValueError(f"edge_count must be >= 0, got {edge_count}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    top = min(r_max, n)
    available = sum(math.comb(n, s) for s in range(2, top + 1))
    if edge_count > available:
        raise ValueError(
            f"edge_count {edge_count} exceeds the {available} distinct edges "
            f"available at n={n}, r_max={r_max}"
        )
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    while len(edges) < edge_count:
        size = int(rng.integers(2, top + 1))
        members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        if members not in seen:
            seen.add(members)
            edges.append(members)
    return Hypergraph(n=n, edges=tuple(edges))


def independence_threshold(n: int, r: int, p: float) -> tuple[int, float]:
    """Budget k and success probability for the independence-number tail bound.

    Returns (k, bound) with k = ceil(3*r!*ln(n)/(2p)) + (r-1) and
    bound = 1 - n^(-(1/2)(3*r!*ln(n)/(2p) + (r-1))), the guaranteed lower
    bound on Pr(alpha(G) < k) for a single-block sample at edge probability
    p.  At small n the threshold often exceeds n, making the event certain.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    base = 3 * math.factorial(r) * math.log(n) / (2 * p)
    k = math.ceil(base) + (r - 1)
    bound = 1.0 - n ** (-0.5 * (base + (r - 1)))
    return k, bound
