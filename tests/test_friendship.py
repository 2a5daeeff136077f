from fractions import Fraction
from itertools import combinations, permutations
from random import Random

import pytest

from braidrep.braid import circular_distance
from braidrep.errors import PreconditionError, ShapeError, TrichotomyViolationError
from braidrep.friendship import (
    FriendshipGraph,
    GraphClassTag,
    are_friends,
    are_true_friends,
    check_zn_equivariance,
    classify_distances,
    classify_graph,
    distance_set,
    friendship_graph,
    full_friendship_graph,
    graph_to_dot,
    graph_to_json_dict,
    is_chain,
    is_connected,
)
from braidrep.cli import parse_rep_spec
from braidrep.linalg import Matrix, Subspace, intersect_stacked_kernel, inverse, rational_eigenvalues
from braidrep.zoo import (
    Representation,
    character_rep,
    conjugate_rep,
    direct_sum,
    reduced_burau,
    scrambled,
    tensor_character,
    tym_standard,
)
from conftest import broken_family, build_zoo, random_families
from test_braid import delta_families
from test_classify import _mixed_deformations

F = Fraction


def cycle_graph(n):
    return FriendshipGraph.from_distance_set(n, {1})


def test_a_graph_without_vertices_is_connected():
    assert is_connected(FriendshipGraph(0, False, ()))


def test_neighbors_of_standard_family_are_friends():
    rep = tym_standard(6, 2)
    assert are_friends(rep, 1, 2)
    assert not are_friends(rep, 1, 3)


def test_friendship_of_trivial_family_is_empty():
    rep = character_rep(5, 1)
    assert not are_friends(rep, 1, 2)
    assert not are_friends(rep, 0, 3)


def test_friendship_rejects_out_of_range_indices():
    rep = tym_standard(5, 2)
    with pytest.raises(IndexError):
        are_friends(rep, -1, 2)
    with pytest.raises(IndexError):
        rep.image(-1)
    with pytest.raises(IndexError):
        are_friends(rep, 2, 5)


def test_friendship_rejects_equal_indices():
    with pytest.raises(ValueError):
        are_friends(tym_standard(5, 2), 2, 2)


def test_true_friendship_of_standard_neighbors():
    rep = tym_standard(6, 2)
    assert are_true_friends(rep, 1, 2)
    assert are_friends(rep, 1, 2)


def test_true_friendship_fails_for_distant_generators():
    rep = tym_standard(6, 2)
    assert not are_true_friends(rep, 1, 3)


def test_true_friendship_of_trivial_family_is_empty():
    rep = character_rep(6, 1)
    assert not are_true_friends(rep, 1, 2)
    assert not are_true_friends(rep, 1, 3)


def test_full_graph_of_standard_family_is_a_cycle():
    g = full_friendship_graph(tym_standard(6, 2))
    assert g == cycle_graph(6)
    assert distance_set(g) == frozenset({1})


def test_full_graph_of_trivial_family_is_edgeless():
    g = full_friendship_graph(character_rep(5, 1))
    assert not g.edges()


def test_full_graph_of_burau_direct_sum_computes():
    rep = direct_sum(reduced_burau(6, 2), reduced_burau(6, 2))
    g = full_friendship_graph(rep)
    assert g.vertex_count == 6
    assert not g.edges()


def test_reduced_graph_of_standard_family_is_a_path():
    g = friendship_graph(tym_standard(6, 2))
    assert not g.full
    assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert is_chain(g)


def test_reduced_graph_of_trivial_family_is_edgeless():
    assert not friendship_graph(character_rep(4, 1)).edges()


def test_reduced_graph_drops_the_vertex_s0():
    full = cycle_graph(6)
    assert full.reduced() == FriendshipGraph(5, False, tuple(row[1:] for row in full.adjacency[1:]))
    assert full.reduced().edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(PreconditionError):
        full.reduced().reduced()


def _friendship_inputs():
    zoo = build_zoo()
    yield from zoo
    for seed in (1, 2):
        yield from (scrambled(rep, seed) for rep in zoo)
    yield broken_family()
    yield from random_families()
    yield from delta_families()
    # plain sums with a character: every pair shares the character's row
    # where y != 1, and pairs of the other summand may have disjoint supports
    for y in (3, 1):
        yield direct_sum(tym_standard(8, 2), character_rep(8, y))
        yield direct_sum(character_rep(6, y), reduced_burau(6, 2))
    yield direct_sum(tym_standard(5, 2), tym_standard(5, 3))
    # every image the same line in r = 2, and a line beside a full image and a zero one
    line_sum = "dsum(char:n=5,y=2,char:n=5,y=1)"
    for spec in (line_sum, f"conj({line_sum},seed=1)", f"conj({line_sum},seed=2)"):
        yield parse_rep_spec(spec)[0]
    yield _mixed_deformations()
    yield _line_in_a_plane()
    yield scrambled(_line_in_a_plane(), 1)


def _line_in_a_plane():
    """Im A_1 is the plane of e1 and e2, and Im A_2 the line of e1 + e2 in it:
    they meet in a line that is no canonical row of the plane.  Not a
    representation."""
    gens = [Matrix([[2, 0, 0], [0, 2, 0], [0, 0, 1]]), Matrix([[1, 0, 1], [0, 1, 1], [0, 0, 1]])]
    return Representation(3, 3, gens, label="line in a plane")


@pytest.mark.parametrize("rep", list(_friendship_inputs()), ids=repr)
def test_friendship_is_a_nonzero_intersection(rep):
    # The Zassenhaus intersection of the two images is the reference.
    for i, j in permutations(range(rep.n), 2):
        assert are_friends(rep, i, j) == (not rep.image(i).intersect(rep.image(j)).is_zero()), (i, j)


@pytest.mark.parametrize("rep, calls", [
    # a shared canonical row decides every pair
    (direct_sum(tym_standard(16, 2), character_rep(16, 3)), 0),
    # unit-vector rows: a shared row or disjoint supports decides every pair
    (tym_standard(8, 3), 0),
    # dense rows after a change of basis: every one of the 28 pairs takes a rank
    (scrambled(tym_standard(8, 3), 2), 28),
    # dense lines, and a line in a plane: membership decides where one image is a line
    (scrambled(reduced_burau(8, 3), 2), 0),
    (scrambled(_line_in_a_plane(), 1), 0),
], ids=repr)
def test_friendship_pre_tests_skip_the_rank(monkeypatch, rep, calls):
    import braidrep.friendship as friendship

    ranks, rank = [], friendship.rank
    monkeypatch.setattr(friendship, "rank", lambda m: ranks.append(m) or rank(m))
    graph = full_friendship_graph(rep)
    assert len(ranks) == calls
    assert graph.adjacency == tuple(
        tuple(i != j and not rep.image(i).intersect(rep.image(j)).is_zero() for j in range(rep.n))
        for i in range(rep.n))


def test_reduced_graph_is_conjugation_invariant():
    plain = friendship_graph(tym_standard(7, 3))
    twisted = friendship_graph(scrambled(tym_standard(7, 3), 13))
    assert plain == twisted
    assert is_chain(twisted)


def test_equivariance_of_cycle():
    assert check_zn_equivariance(cycle_graph(6))


def test_equivariance_fails_for_broken_pentagon():
    adj = [[False] * 5 for _ in range(5)]
    for i in range(4):
        adj[i][i + 1] = adj[i + 1][i] = True
    g = FriendshipGraph(5, True, tuple(tuple(row) for row in adj))
    assert not check_zn_equivariance(g)


def test_equivariance_requires_full_graph():
    with pytest.raises(PreconditionError):
        check_zn_equivariance(friendship_graph(tym_standard(5, 2)))


def test_equivariance_holds_across_zoo(zoo):
    for rep in zoo:
        assert check_zn_equivariance(full_friendship_graph(rep)), rep.label


def _shift_invariant(graph):
    """The definition: adj[i][j] == adj[i+1][j+1] for all i, j, indices mod n."""
    n, adj = graph.vertex_count, graph.adjacency
    return all(adj[i][j] == adj[(i + 1) % n][(j + 1) % n] for i in range(n) for j in range(n))


@pytest.mark.parametrize("n", range(9))
def test_equivariance_matches_the_shift_definition(n):
    rng = Random(n)
    graphs = [FriendshipGraph.from_distance_set(n, dset)
              for k in range(n // 2 + 1) for dset in combinations(range(1, n // 2 + 1), k)]
    for _ in range(200):
        adj = [[False] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            adj[i][j] = adj[j][i] = rng.random() < 0.5
        graphs.append(FriendshipGraph(n, True, tuple(map(tuple, adj))))
    for graph in graphs:
        assert check_zn_equivariance(graph) == _shift_invariant(graph), graph.adjacency


def test_classify_cycle_as_chain():
    got = classify_graph(cycle_graph(6))
    assert got.tag is GraphClassTag.CONTAINS_CHAIN
    assert got.distance_set == frozenset({1})


def test_classify_edgeless_as_totally_disconnected():
    got = classify_graph(FriendshipGraph.from_distance_set(7, ()))
    assert got.tag is GraphClassTag.TOTALLY_DISCONNECTED
    assert got.distance_set == frozenset()


def test_classify_pentagram_as_non_neighbor_edges():
    got = classify_graph(FriendshipGraph.from_distance_set(5, {2}))
    assert got.tag is GraphClassTag.NON_NEIGHBOR_EDGES
    assert got.distance_set == frozenset({2})


def test_classify_four_vertex_diagonals_as_exceptional():
    got = classify_graph(FriendshipGraph.from_distance_set(4, {2}))
    assert got.tag is GraphClassTag.EXCEPTIONAL


def test_classify_complete_graph_contains_chain():
    got = classify_graph(FriendshipGraph.from_distance_set(7, {1, 2, 3}))
    assert got.tag is GraphClassTag.CONTAINS_CHAIN


def test_classify_rejects_inadmissible_distance_set():
    with pytest.raises(TrichotomyViolationError):
        classify_graph(FriendshipGraph.from_distance_set(7, {2}))


def _outcome(classify, *args):
    try:
        return classify(*args)
    except TrichotomyViolationError as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(4, 17))
def test_classify_distances_matches_the_built_graph(n):
    reach = range(1, n // 2 + 1)
    for dset in (set(c) for size in range(len(reach) + 1) for c in combinations(reach, size)):
        got = _outcome(classify_distances, n, dset)
        assert got == _outcome(classify_graph, FriendshipGraph.from_distance_set(n, dset)), (n, dset)


def test_classify_rejects_non_equivariant_graph():
    adj = [[False] * 5 for _ in range(5)]
    adj[0][1] = adj[1][0] = True
    g = FriendshipGraph(5, True, tuple(tuple(row) for row in adj))
    with pytest.raises(PreconditionError):
        classify_graph(g)


def test_chain_detection_cases():
    assert is_chain(cycle_graph(6))
    assert not is_chain(FriendshipGraph.from_distance_set(6, ()))
    assert not is_chain(FriendshipGraph.from_distance_set(6, {1, 2}))
    assert is_chain(friendship_graph(tym_standard(7, F(5, 3))))


def test_true_friends_are_friends_across_zoo(zoo):
    for rep in zoo:
        n = rep.n
        for i in range(n):
            for j in range(i + 1, n):
                if are_true_friends(rep, i, j):
                    assert are_friends(rep, i, j), (rep.label, i, j)


def test_friend_propagation_for_unfriendly_neighbors(zoo):
    # For neighbors i, j that are not friends, any friend of j that is not
    # a neighbor of i must commute with i's deformation with nonzero product.
    for rep in zoo:
        n = rep.n
        friends = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    friends[(i, j)] = are_friends(rep, i, j)
        for i in range(n):
            j = (i + 1) % n
            if friends[(i, j)]:
                continue
            for k in range(n):
                if k in (i, j) or circular_distance(i, k, n) == 1:
                    continue
                if friends[(j, k)]:
                    a, c = rep.deformation(i), rep.deformation(k)
                    prod = a * c
                    assert prod == c * a and not prod.is_zero(), (rep.label, i, j, k)


def test_unfriendly_neighbor_cubic_cancellations(zoo):
    for rep in zoo:
        n = rep.n
        for i in range(n):
            j = (i + 1) % n
            if are_friends(rep, i, j):
                continue
            a, b = rep.deformation(i), rep.deformation(j)
            assert a * a * b == a * b * b, (rep.label, i, j)
            assert b * a * a == b * b * a, (rep.label, i, j)


def test_graphs_are_edgeless_or_connected_across_zoo(zoo):
    for rep in zoo:
        if rep.n == 4:
            continue
        for g in (full_friendship_graph(rep), friendship_graph(rep)):
            assert not g.edges() or is_connected(g), rep.label


def test_zoo_graphs_always_classify(zoo):
    for rep in zoo:
        got = classify_graph(full_friendship_graph(rep))
        assert got.tag in GraphClassTag


def test_dot_output_shape():
    dot = graph_to_dot(friendship_graph(tym_standard(6, 2)), label="ContainsChain")
    assert dot.startswith("graph friendship {")
    assert 'label="ContainsChain";' in dot
    assert "s1 -- s2;" in dot
    assert "s5;" in dot
    assert dot.rstrip().endswith("}")


def test_json_output_shape():
    data = graph_to_json_dict(full_friendship_graph(tym_standard(6, 2)))
    assert data["vertices"] == [f"s{i}" for i in range(6)]
    assert data["distance_set"] == [1]
    assert [0, 1] in data["edges"]


def test_graph_validation_rejects_asymmetry():
    with pytest.raises(ValueError):
        FriendshipGraph(2, True, ((False, True), (False, False)))
    with pytest.raises(ValueError):
        FriendshipGraph(2, True, ((True, True), (True, False)))


def _graph_inputs():
    yield from build_zoo()
    yield broken_family()
    yield from random_families()
    yield scrambled(direct_sum(reduced_burau(5, 2), reduced_burau(5, 3)), 1)
    yield scrambled(direct_sum(tym_standard(5, 2), tym_standard(5, -1)), 3)
    yield scrambled(direct_sum(tym_standard(4, 2), character_rep(4, 1)), 2)
    yield scrambled(tensor_character(reduced_burau(6, 2), -1), 4)
    yield scrambled(tensor_character(tym_standard(8, F(5, 3)), 2), 5)
    yield scrambled(tym_standard(9, 1), 6)


def _all_pairs_adjacency(rep, labels):
    """Reference: intersect the deformation images of every pair."""
    ims = [rep.image(i) for i in range(rep.n)]
    return tuple(
        tuple(i != j and not ims[i].intersect(ims[j]).is_zero() for j in labels)
        for i in labels
    )


@pytest.mark.parametrize("rep", list(_graph_inputs()), ids=repr)
def test_graph_matches_all_pairs_reference(rep):
    assert full_friendship_graph(rep).adjacency == _all_pairs_adjacency(rep, range(rep.n))
    assert friendship_graph(rep).adjacency == _all_pairs_adjacency(rep, range(1, rep.n))


@pytest.mark.parametrize("rep", list(_graph_inputs()), ids=repr)
def test_graph_builders_intersect_no_images(monkeypatch, rep):
    calls = []
    monkeypatch.setattr(Subspace, "intersect", lambda self, other: calls.append((self, other)))
    full = full_friendship_graph(rep)
    assert friendship_graph(rep) == full.reduced()
    are_friends(rep, 0, rep.n - 1)
    assert calls == []


def test_the_graph_of_a_broken_family_tests_every_pair():
    # D does not shift the images of a broken family, so the pairs (0, d)
    # alone, which ``analyze`` reads where the relations hold, give another
    # graph here; the graph tests every pair.
    rep = broken_family()
    dset = {d for d in range(1, rep.n // 2 + 1) if are_friends(rep, 0, d)}
    assert full_friendship_graph(rep) != FriendshipGraph.from_distance_set(rep.n, dset)
    assert full_friendship_graph(rep).adjacency == _all_pairs_adjacency(rep, range(rep.n))


@pytest.mark.parametrize("rep", [
    tensor_character(tym_standard(6, 2), 3),
    scrambled(tensor_character(tym_standard(8, 1), -1), 5),
], ids=repr)
def test_images_past_half_the_dimension_meet_with_no_rank_taken(monkeypatch, rep):
    # dim U + dim V > r forces U and V to meet: every pair is friends, and
    # the count decides it before the rank test of the stacked rows, with
    # the dimension of Im A_0 read off Im A_(n-1).
    import braidrep.friendship as friendship

    calls = []
    monkeypatch.setattr(friendship, "rank", calls.append)
    assert all(2 * rep.image(i).dim > rep.r for i in range(1, rep.n))
    graph = full_friendship_graph(rep)
    assert len(graph.edges()) == rep.n * (rep.n - 1) // 2
    assert calls == []
    assert "_image0" not in vars(rep)


_WIDE = Matrix([[1, 2, 3], [4, 5, 6]])
_REDUCED = FriendshipGraph(3, False, ((False,) * 3,) * 3)


_REFUSALS = {
    "ragged Matrix": (lambda: Matrix([[1, 2], [3]]), ShapeError, "ragged rows"),
    "inverse of a non-square matrix": (lambda: inverse(_WIDE), ShapeError, "only square matrices can be inverted"),
    "eigenvalues of a non-square matrix": (lambda: rational_eigenvalues(_WIDE), ShapeError,
                                           "eigenvalues of a non-square matrix"),
    "inverse of a tall matrix": (lambda: inverse(_WIDE.transpose()), ShapeError,
                                 "only square matrices can be inverted"),
    "eigenvalues of a tall matrix": (lambda: rational_eigenvalues(_WIDE.transpose()), ShapeError,
                                     "eigenvalues of a non-square matrix"),
    "Matrix times a short vector": (lambda: _WIDE * (1, 2), ShapeError, "cannot apply (2, 3) to a vector of length 2"),
    "Subspace of a long vector": (lambda: Subspace(2, [(1, 2, 3)]), ShapeError, "spanning vector has wrong length"),
    "Subspace.contains of a long vector": (lambda: Subspace(2, [(1, 0)]).contains((1, 0, 0)), ShapeError,
                                           "vector length does not match"),
    "intersect_stacked_kernel across dimensions": (
        lambda: intersect_stacked_kernel(Subspace(2, [(1, 0)]), Subspace(3, [(1, 0, 0)])), ShapeError,
        "different ambient spaces"),
    "Representation on 1 strand": (lambda: Representation(1, 1, []), ValueError, "need at least 2 strands"),
    "tym_standard on 1 strand": (lambda: tym_standard(1, 2), ValueError, "need at least 2 strands"),
    "character_rep on 1 strand": (lambda: character_rep(1, 2), ValueError, "need at least 2 strands"),
    "reduced_burau on 2 strands": (lambda: reduced_burau(2, 2), ValueError, "need at least 3 strands"),
    "tensor_character by 0": (lambda: tensor_character(tym_standard(3, 2), 0), ValueError,
                              "character parameter must be nonzero"),
    "conjugate_rep by a wrong-size P": (lambda: conjugate_rep(tym_standard(3, 2), Matrix.identity(2)), ShapeError,
                                        "change of basis has the wrong size"),
    "FriendshipGraph of a wrong-shape adjacency": (lambda: FriendshipGraph(2, True, ((False, False),)), ValueError,
                                                   "adjacency matrix has the wrong shape"),
    "are_true_friends of one generator": (lambda: are_true_friends(tym_standard(4, 2), 1, 1), ValueError,
                                          "between distinct generators"),
    "distance_set of a reduced graph": (lambda: distance_set(_REDUCED), PreconditionError,
                                        "distance sets are defined for full graphs"),
    "classify_graph of a reduced graph": (lambda: classify_graph(_REDUCED), PreconditionError,
                                          "classification is defined for full graphs"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_outside_input_is_refused_with_its_own_error(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert message in str(caught.value)
