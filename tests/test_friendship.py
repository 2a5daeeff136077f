from fractions import Fraction

import pytest

from braidrep.braid import circular_distance
from braidrep.errors import PreconditionError, TrichotomyViolationError
from braidrep.friendship import (
    FriendshipGraph,
    GraphClassTag,
    are_friends,
    are_true_friends,
    check_zn_equivariance,
    classify_graph,
    distance_set,
    friendship_graph,
    full_friendship_graph,
    graph_to_dot,
    graph_to_json_dict,
    is_chain,
    is_connected,
)
from braidrep.zoo import (
    character_rep,
    direct_sum,
    reduced_burau,
    scrambled,
    tensor_character,
    tym_standard,
)
from conftest import broken_family, build_zoo, random_families

F = Fraction


def cycle_graph(n):
    return FriendshipGraph.from_distance_set(n, {1})


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
        rep.meet(-1, 2)
    with pytest.raises(IndexError):
        rep.meet(2, 5)


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
    assert g.edge_count() == 0


def test_full_graph_of_burau_direct_sum_computes():
    rep = direct_sum(reduced_burau(6, 2), reduced_burau(6, 2))
    g = full_friendship_graph(rep)
    assert g.vertex_count == 6
    assert g.edge_count() == 0


def test_reduced_graph_of_standard_family_is_a_path():
    g = friendship_graph(tym_standard(6, 2))
    assert not g.full
    assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert is_chain(g)


def test_reduced_graph_of_trivial_family_is_edgeless():
    assert friendship_graph(character_rep(4, 1)).edge_count() == 0


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
            assert g.edge_count() == 0 or is_connected(g), rep.label


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
    ims = rep.images
    return tuple(
        tuple(i != j and not ims[i].intersect(ims[j]).is_zero() for j in labels)
        for i in labels
    )


@pytest.mark.parametrize("rep", list(_graph_inputs()), ids=repr)
def test_graph_matches_all_pairs_reference(rep):
    assert full_friendship_graph(rep).adjacency == _all_pairs_adjacency(rep, range(rep.n))
    assert friendship_graph(rep).adjacency == _all_pairs_adjacency(rep, range(1, rep.n))


def test_shift_invariance_holds_for_representations_only():
    assert all(rep.shift_invariant for rep in build_zoo())
    assert not broken_family().shift_invariant
    assert [rep.shift_invariant for rep in random_families()] == [True] * 5 + [False]
