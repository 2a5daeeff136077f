"""Acceptance suite: one test per release criterion, all checks exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion, with the elapsed time.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from braidrep.braid import (
    verify_braid_relations,
    verify_cyclic_conjugation,
    verify_deformed_relations,
)
from braidrep.classify import (
    Verdict,
    analyze,
    burnside_dimension,
    dimension_bound_check,
    extract_standard_form,
    lemma_bb_check,
    tym_irreducibility,
)
from braidrep.friendship import (
    are_friends,
    are_true_friends,
    check_zn_equivariance,
    distance_set,
    friendship_graph,
    full_friendship_graph,
    is_chain,
    is_connected,
    neighbor_form,
)
from braidrep.linalg import Matrix, image_basis, intersect_stacked_kernel, inverse
from braidrep.zoo import (
    character_rep,
    conjugate_rep,
    corank,
    direct_sum,
    random_invertible_matrix,
    reduced_burau,
    tym_standard,
)

from conftest import build_zoo

F = Fraction

U_SAMPLE = [F(2), F(3), F(1, 2), F(-1), F(5, 3)]
T_SAMPLE = [F(2), F(3), F(-1)]


@contextmanager
def criterion(name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"[acceptance] {name}: PASS ({time.time() - start:.1f}s)")


def assert_invariant(rep, w):
    assert w is not None and 0 < w.dim < rep.r
    images = [*rep.generators, *map(inverse, rep.generators)]
    for v in w.basis_vectors():
        for g in images:
            assert w.contains(g * v)


def test_criterion_1_relation_suite():
    with criterion("1 relation suite"):
        for n in range(3, 11):
            for u in U_SAMPLE:
                rep = tym_standard(n, u)
                assert verify_braid_relations(rep).ok
                assert verify_cyclic_conjugation(rep)
                assert verify_deformed_relations(rep)
            for t in T_SAMPLE:
                rep = reduced_burau(n, t)
                assert verify_braid_relations(rep).ok
                assert verify_cyclic_conjugation(rep)
                assert verify_deformed_relations(rep)


def test_criterion_2_corank_table():
    with criterion("2 corank table"):
        for n in range(3, 11):
            for u in U_SAMPLE:
                assert corank(tym_standard(n, u)) == (1 if u == 1 else 2)
            assert corank(tym_standard(n, 1)) == 1
            for t in T_SAMPLE:
                assert corank(reduced_burau(n, t)) == 1


def test_criterion_3_chain_shape():
    with criterion("3 chain shape"):
        for n in range(6, 11):
            for u in U_SAMPLE:
                if u == 1:
                    continue
                rep = tym_standard(n, u)
                reduced = friendship_graph(rep)
                assert is_chain(reduced)
                assert reduced.edges() == [(k, k + 1) for k in range(n - 2)]
                full = full_friendship_graph(rep)
                assert distance_set(full) == frozenset({1})


def test_criterion_4_standard_form_round_trip():
    with criterion("4 standard form round trip"):
        for n in range(3, 11):
            targets = {u: tym_standard(n, u) for u in (F(2), F(5, 3), F(-7, 4))}
            for seed in range(20):
                rng = Random(seed * 1009 + n)
                for u, rep in targets.items():
                    p = random_invertible_matrix(n, rng)
                    twisted = conjugate_rep(rep, p)
                    res = extract_standard_form(twisted)
                    assert res.u == u
                    if seed == 0:
                        back = conjugate_rep(twisted, res.basis)
                        assert back.generators == rep.generators


def test_criterion_5_irreducibility_dichotomy():
    with criterion("5 irreducibility dichotomy"):
        for n in range(4, 10):
            fixed = tym_irreducibility(n, 1)
            assert fixed.tag is Verdict.REDUCIBLE
            ones = (F(1),) * n
            assert fixed.witness.contains(ones)
            assert_invariant(tym_standard(n, 1), fixed.witness)
            for u in (F(2), F(5, 3)):
                verdict = tym_irreducibility(n, u)
                assert verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
                dim, closure = burnside_dimension(tym_standard(n, u))
                assert dim == n * n
                assert closure.tag is Verdict.ABSOLUTELY_IRREDUCIBLE


def test_criterion_6_dimension_bound():
    with criterion("6 dimension bound"):
        checked = 0
        for rep in build_zoo():
            if rep.n == 4 or rep.r < rep.n:
                continue
            _, verdict = burnside_dimension(rep)
            if verdict.tag is not Verdict.ABSOLUTELY_IRREDUCIBLE:
                continue
            k = corank(rep)
            assert dimension_bound_check(rep), rep.label
            if k == 2:
                assert rep.r == (rep.n - 1) * (k - 1) + 1, rep.label
            checked += 1
        assert checked >= 3


def test_criterion_7_lemma_instances(disconnected_fixture):
    with criterion("7 lemma instances"):
        zoo = build_zoo()
        for rep in zoo:
            n = rep.n
            for i in range(n):
                for j in range(i + 1, n):
                    if are_true_friends(rep, i, j):
                        assert are_friends(rep, i, j), (rep.label, i, j)
            assert check_zn_equivariance(full_friendship_graph(rep)), rep.label
        for i in range(disconnected_fixture.n):
            assert lemma_bb_check(disconnected_fixture, i, (i + 1) % disconnected_fixture.n)
        for n, u, seed in ((6, F(2), 1), (7, F(5, 3), 2), (9, F(-7, 4), 3)):
            rep = conjugate_rep(
                tym_standard(n, u), random_invertible_matrix(n, Random(seed))
            )
            assert extract_standard_form(rep).u == u
        rng = Random(424242)
        n, u = 7, F(5, 3)
        rep = tym_standard(n, u)
        for c in range(n):
            a, b = rep.deformation(c), rep.deformation((c + 1) % n)
            h = neighbor_form(a, b)
            assert h == neighbor_form(b, a)
            assert h == Matrix(
                [[(u - 1) if i == c and j == c else 0 for j in range(n)] for i in range(n)]
            )
        for _ in range(120):
            x = tuple(F(rng.randint(-9, 9)) for _ in range(n))
            if not any(x):
                continue
            c = next(k for k, e in enumerate(x) if e)
            h = neighbor_form(rep.deformation(c), rep.deformation((c + 1) % n))
            assert h * x == tuple((u - 1) * x[c] if k == c else F(0) for k in range(n))


def test_criterion_8_negative_controls():
    with criterion("8 negative controls"):
        sums = [
            direct_sum(tym_standard(6, 2), character_rep(6, 3)),
            direct_sum(reduced_burau(6, 2), reduced_burau(6, 3)),
            direct_sum(tym_standard(5, 2), character_rep(5, 1)),
            direct_sum(character_rep(4, 2), character_rep(4, 3)),
            direct_sum(tym_standard(6, 2), tym_standard(6, 2)),
        ]
        for rep in sums:
            report = analyze(rep)
            assert report.verdict.tag is Verdict.REDUCIBLE, rep.label
            assert_invariant(rep, report.verdict.witness)
        for rep in build_zoo() + sums:
            if rep.n == 4:
                continue
            for g in (full_friendship_graph(rep), friendship_graph(rep)):
                assert not g.edges() or is_connected(g), rep.label


def test_criterion_9_intersection_oracle():
    with criterion("9 intersection oracle"):
        rng = Random(313)
        for _ in range(200):
            dim = rng.randint(2, 8)
            acols = rng.randint(1, dim)
            bcols = rng.randint(1, dim)
            a = Matrix([[rng.randint(-4, 4) for _ in range(acols)] for _ in range(dim)])
            b = Matrix([[rng.randint(-4, 4) for _ in range(bcols)] for _ in range(dim)])
            u, v = image_basis(a), image_basis(b)
            assert u.intersect(v) == intersect_stacked_kernel(u, v)
