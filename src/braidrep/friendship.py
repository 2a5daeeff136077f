"""Friendship graphs of a representation and their classification.

Two generators are friends when the images U, V of their deformations
intersect in a nonzero subspace, that is when dim(U + V) < dim U + dim V.
The full graph has a vertex for each of s0..s(n-1), and forms no product of
the images.  For a representation it is invariant under the cyclic index
shift, so its edge set is determined by a set of circular distances; the
reduced graph is the full one with the vertex s0 dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from operator import and_

from .braid import circular_distance
from .errors import PreconditionError, TrichotomyViolationError
from .linalg import Matrix, rank


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

    def label_of(self, v):
        return v if self.full else v + 1

    def edges(self):
        m = self.vertex_count
        return [(i, j) for i in range(m) for j in range(i + 1, m) if self.adjacency[i][j]]

    def reduced(self) -> "FriendshipGraph":
        """The induced subgraph of a full graph on s1..s(n-1)."""
        if not self.full:
            raise PreconditionError("only a full graph has the vertex s0 to drop")
        adj = tuple(row[1:] for row in self.adjacency[1:])
        return FriendshipGraph(self.vertex_count - 1, False, adj)

    @classmethod
    def from_distance_set(cls, n, distances) -> "FriendshipGraph":
        """Build the cyclic-invariant full graph with edges at the given distances."""
        distances = set(distances)
        adj = tuple(
            tuple(i != j and circular_distance(i, j, n) in distances for j in range(n))
            for i in range(n)
        )
        return cls(n, True, adj)


def are_friends(rep, i, j) -> bool:
    """True iff the images U of A_i and V of A_j intersect nontrivially, that
    is iff dim(U + V), the rank of their stacked canonical rows, is below
    dim U + dim V.  As dim(U + V) <= r, they meet where dim U + dim V > r, and
    neither a rank nor Im A_0 is formed there: A_0 = D A_(n-1) D^-1 has the
    dimension of Im A_(n-1).  Two exact tests come before the rank: a
    canonical row that U and V share is a nonzero vector of both, and where
    no column is nonzero in both U and V, a common vector is 0.  A line U =
    span(u) meets V exactly when u lies in V, a membership test in place of
    the rank."""
    if i == j:
        raise ValueError("friendship is between distinct generators")
    last = rep.n - 1
    if rep.image(i or last).dim + rep.image(j or last).dim > rep.r:
        return True
    u, v = rep.image(i), rep.image(j)
    if u.dim > v.dim:
        u, v = v, u
    # Both tests stop early on dense rows: these differ, and meet, in their
    # first columns.
    if any(map(v.rows.__contains__, u.rows)):
        return True
    if not any(map(and_, map(any, zip(*u.rows)), map(any, zip(*v.rows)))):
        return False
    if u.dim == 1:
        return v.contains_ints(u.rows[0])
    return rank(Matrix._new((*u.rows, *v.rows), 1)) < u.dim + v.dim


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


def full_friendship_graph(rep) -> FriendshipGraph:
    """The graph on s0..s(n-1), from every unordered pair of images.
    ``analyze`` reads a family with proved relations off the pairs (1, 1 + d)."""
    n = rep.n
    adj = [[False] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        adj[i][j] = adj[j][i] = are_friends(rep, i, j)
    return FriendshipGraph(n, True, tuple(map(tuple, adj)))


def friendship_graph(rep) -> FriendshipGraph:
    """The induced subgraph on the ordinary generators s1..s(n-1)."""
    return full_friendship_graph(rep).reduced()


def check_zn_equivariance(graph: FriendshipGraph) -> bool:
    """True iff adjacency is invariant under the cyclic shift of all vertices.

    Every genuine representation produces an invariant full graph; a False
    answer flags hand-entered input.
    """
    if not graph.full:
        raise PreconditionError("equivariance is defined for full graphs")
    adj = graph.adjacency
    # Invariance under the shift: each row i is row 0 turned right by i.
    return all(row == adj[0][-i:] + adj[0][:-i] for i, row in enumerate(adj))


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
    return classify_distances(graph.vertex_count, distance_set(graph))


def classify_distances(n, dset) -> GraphClass:
    """``classify_graph`` of the full graph on n vertices whose edges join the
    pairs at the circular distances in ``dset`` (each in 1 .. n//2), read off
    the distances with no graph built."""
    dset = frozenset(dset)
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
        want = {tuple(sorted((i, (i + 1) % m))) for i in range(m)}
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
