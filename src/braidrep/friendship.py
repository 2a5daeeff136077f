"""Friendship graphs of a representation and their classification.

Two generators are friends when the images of their deformations meet in a
nonzero subspace.  The full graph has a vertex for each of s0..s(n-1) and is
invariant under the cyclic index shift, so its edge set is determined by a
set of circular distances; the reduced graph drops the vertex s0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .braid import circular_distance
from .errors import PreconditionError, TrichotomyViolationError
from .linalg import Matrix


class GraphClassTag(str, enum.Enum):
    TOTALLY_DISCONNECTED = "TotallyDisconnected"
    CONTAINS_CHAIN = "ContainsChain"
    NON_NEIGHBOR_EDGES = "NonNeighborEdges"
    EXCEPTIONAL = "Exceptional"


@dataclass(frozen=True)
class GraphClass:
    tag: GraphClassTag
    distance_set: frozenset[int]
    detail: str = ""


@dataclass(frozen=True)
class FriendshipGraph:
    """Simple graph on the generator vertices.

    ``full`` graphs carry vertices labelled 0..n-1; reduced graphs carry
    1..n-1.  The adjacency matrix is indexed by vertex position, not label.
    """

    vertex_count: int
    full: bool
    adjacency: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        m = self.vertex_count
        if len(self.adjacency) != m or any(len(row) != m for row in self.adjacency):
            raise ValueError("adjacency matrix has the wrong shape")
        for i in range(m):
            if self.adjacency[i][i]:
                raise ValueError("no self-loops allowed")
            for j in range(m):
                if self.adjacency[i][j] != self.adjacency[j][i]:
                    raise ValueError("adjacency must be symmetric")

    @property
    def n(self):
        """Strand count of the underlying group."""
        return self.vertex_count if self.full else self.vertex_count + 1

    def label_of(self, v):
        return v if self.full else v + 1

    def edges(self):
        m = self.vertex_count
        return [(i, j) for i in range(m) for j in range(i + 1, m) if self.adjacency[i][j]]

    def edge_count(self):
        return len(self.edges())

    @classmethod
    def from_distance_set(cls, n, distances, full=True) -> "FriendshipGraph":
        """Build the cyclic-invariant full graph with edges at the given distances."""
        distances = set(distances)
        adj = tuple(
            tuple(i != j and circular_distance(i, j, n) in distances for j in range(n))
            for i in range(n)
        )
        return cls(n, full, adj)


def are_friends(rep, i, j) -> bool:
    """True iff the deformation images at i and j intersect nontrivially."""
    if i == j:
        raise ValueError("friendship is between distinct generators")
    return not rep.meet(i, j).is_zero()


def neighbor_form(a: Matrix, b: Matrix) -> Matrix:
    """The cubic A + A^2 + ABA whose value neighbors must share."""
    return a + a * a + a * b * a


def are_true_friends(rep, i, j) -> bool:
    """The stronger algebraic condition, split by circular distance.

    Non-neighbors: the deformations commute with nonzero product.  Neighbors:
    the two neighbor cubics agree and are nonzero.
    """
    if i == j:
        raise ValueError("friendship is between distinct generators")
    a = rep.deformation(i)
    b = rep.deformation(j)
    if circular_distance(i, j, rep.n) == 1:
        lhs = neighbor_form(a, b)
        return lhs == neighbor_form(b, a) and not lhs.is_zero()
    prod = a * b
    return prod == b * a and not prod.is_zero()


def _graph(rep, labels, full) -> FriendshipGraph:
    # When D shifts the images, each pair is a D-translate of (0, d).
    if rep.shift_invariant:
        n = rep.n
        dset = {d for d in range(1, n // 2 + 1) if are_friends(rep, 0, d)}
        adj = tuple(tuple(circular_distance(i, j, n) in dset for j in labels) for i in labels)
    else:
        adj = tuple(tuple(i != j and are_friends(rep, i, j) for j in labels) for i in labels)
    return FriendshipGraph(len(labels), full, adj)


def full_friendship_graph(rep) -> FriendshipGraph:
    return _graph(rep, range(rep.n), True)


def friendship_graph(rep) -> FriendshipGraph:
    """The induced subgraph on the ordinary generators s1..s(n-1)."""
    return _graph(rep, range(1, rep.n), False)


def check_zn_equivariance(graph: FriendshipGraph) -> bool:
    """True iff adjacency is invariant under the cyclic shift of all vertices.

    Every genuine representation produces an invariant full graph; a False
    answer flags hand-entered input.
    """
    if not graph.full:
        raise PreconditionError("equivariance is defined for full graphs")
    n = graph.vertex_count
    adj = graph.adjacency
    for i in range(n):
        for j in range(n):
            if adj[i][j] != adj[(i + 1) % n][(j + 1) % n]:
                return False
    return True


def distance_set(graph: FriendshipGraph) -> frozenset[int]:
    """The circular distances that carry edges, for an equivariant full graph."""
    if not graph.full:
        raise PreconditionError("distance sets are defined for full graphs")
    n = graph.vertex_count
    return frozenset(d for d in range(1, n // 2 + 1) if graph.adjacency[0][d % n])


def classify_graph(graph: FriendshipGraph) -> GraphClass:
    """Sort an equivariant full graph into one of the admissible shapes.

    Every graph arising from a genuine representation is edgeless, joins all
    neighbor pairs, or joins all non-neighbor pairs; anything else raises
    TrichotomyViolationError.
    """
    if not graph.full:
        raise PreconditionError("classification is defined for full graphs")
    if not check_zn_equivariance(graph):
        raise PreconditionError("graph is not invariant under the cyclic shift")
    n = graph.vertex_count
    dset = distance_set(graph)
    if not dset:
        return GraphClass(GraphClassTag.TOTALLY_DISCONNECTED, dset, "no friendships")
    if 1 in dset:
        detail = "all neighbor pairs are friends"
        if dset == {1}:
            detail += "; edge set is exactly the chain"
        return GraphClass(GraphClassTag.CONTAINS_CHAIN, dset, detail)
    non_neighbor = frozenset(range(2, n // 2 + 1))
    if non_neighbor <= dset:
        if n == 4:
            return GraphClass(
                GraphClassTag.EXCEPTIONAL,
                dset,
                "n=4 diagonal pairing: disconnected but not edgeless "
                "(shape inferred from cyclic invariance)",
            )
        detail = "every non-neighbor pair is joined, no neighbor pair is"
        if n == 5:
            detail += "; the distance-2 pentagon, the known 5-strand exception"
        return GraphClass(GraphClassTag.NON_NEIGHBOR_EDGES, dset, detail)
    raise TrichotomyViolationError(
        f"distance set {sorted(dset)} fits none of the admissible shapes for n={n}"
    )


def is_chain(graph: FriendshipGraph) -> bool:
    """True iff the edges are exactly the neighbor pairs.

    For full graphs neighbors are pairs at circular distance 1; for reduced
    graphs they are consecutive labels (no wrap-around).
    """
    m = graph.vertex_count
    if graph.full:
        n = graph.n
        want = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    else:
        want = {(k, k + 1) for k in range(m - 1)}
    return set(graph.edges()) == want


def is_connected(graph: FriendshipGraph) -> bool:
    m = graph.vertex_count
    if m == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(m):
            if graph.adjacency[v][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == m


def graph_to_dot(graph: FriendshipGraph, label=None) -> str:
    """Render as an undirected DOT graph with vertices s<generator index>."""
    lines = ["graph friendship {"]
    if label:
        lines.append(f'  label="{label}";')
    names = [f"s{graph.label_of(v)}" for v in range(graph.vertex_count)]
    for name in names:
        lines.append(f"  {name};")
    for i, j in graph.edges():
        lines.append(f"  {names[i]} -- {names[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(graph: FriendshipGraph) -> dict:
    data = {
        "vertices": [f"s{graph.label_of(v)}" for v in range(graph.vertex_count)],
        "full": graph.full,
        "adjacency": [list(row) for row in graph.adjacency],
        "edges": [[graph.label_of(i), graph.label_of(j)] for i, j in graph.edges()],
    }
    if graph.full and check_zn_equivariance(graph):
        data["distance_set"] = sorted(distance_set(graph))
    return data
