from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.braid import (
    RelationReport,
    _commutes,
    circular_distance,
    verify_braid_relations,
    verify_cyclic_conjugation,
    verify_deformed_relations,
)
from braidrep.cli import parse_rep_spec
from braidrep.errors import ShapeError
from braidrep.linalg import Matrix, inverse, rank
from braidrep.zoo import (
    Representation,
    character_rep,
    direct_sum,
    random_invertible_matrix,
    reduced_burau,
    scrambled,
    tensor_character,
    tym_standard,
)
from conftest import broken_family, build_zoo, random_families

F = Fraction


def failing_family():
    """Diagonal images plus a swap: breaks far commutation at (1, 3)."""
    return Representation(
        4, 2,
        [Matrix([[1, 0], [0, 2]]), Matrix([[3, 0], [0, 4]]), Matrix([[0, 1], [1, 0]])],
        label="broken",
    )


def test_circular_distance_wraps():
    assert circular_distance(0, 5, 6) == 1
    assert circular_distance(1, 3, 6) == 2
    assert circular_distance(1, 3, 4) == 2
    assert circular_distance(0, 2, 3) == 1


def test_word_rejects_out_of_range_letters():
    rep = tym_standard(4, 2)
    for i in (4, -1):
        with pytest.raises(IndexError):
            rep.deformation(i)


def test_standard_family_satisfies_relations():
    report = verify_braid_relations(tym_standard(6, 2))
    assert report.ok and not report.failures


def test_burau_satisfies_relations():
    assert verify_braid_relations(reduced_burau(5, 3)).ok


def test_broken_family_fails_far_commutation():
    report = verify_braid_relations(failing_family())
    assert not report.far_commutation_ok
    assert ("far commutation", (1, 3)) in report.failures


def test_tau_of_character_is_a_power():
    rep = character_rep(5, F(3))
    assert rep.tau == Matrix([[F(81)]])


def test_tau_of_permutation_family_is_a_cycle():
    t = tym_standard(3, 1).tau
    dim = 3
    for i in range(dim):
        col = t.transpose().rows[i]
        expect = tuple(F(int(j == (i + 1) % dim)) for j in range(dim))
        assert col == expect


def test_tau_of_all_identity_family():
    rep = Representation(4, 2, [Matrix.identity(2)] * 3)
    assert rep.tau == Matrix.identity(2)


def test_sigma0_of_character():
    rep = character_rep(6, F(1, 2))
    assert rep.sigma0 == Matrix([[F(1, 2)]])


def test_sigma0_when_all_generators_coincide():
    swap = Matrix([[0, 1], [1, 0]])
    rep = Representation(3, 2, [swap, swap])
    assert rep.sigma0 == swap


def _det(a):
    """Determinant by Gaussian elimination over Fractions."""
    a, det = [list(row) for row in a], F(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p], det = a[p], a[c], -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def test_sigma0_deformation_of_standard_family():
    rep = tym_standard(6, 2)
    a0 = rep.deformation(0)
    a1 = rep.deformation(1)
    assert rank(a0) == 2
    # det(x - A) has degree r, so agreeing at r + 1 points it is the same polynomial.
    for x in range(rep.r + 1):
        assert _det((Matrix.identity(rep.r) * x - a0).rows) == _det((Matrix.identity(rep.r) * x - a1).rows)


def test_cyclic_conjugation_on_standard_family():
    assert verify_cyclic_conjugation(tym_standard(7, 5))


def test_cyclic_conjugation_on_burau():
    assert verify_cyclic_conjugation(reduced_burau(6, 2))


def test_cyclic_conjugation_rejects_random_family():
    rng = Random(3)
    gens = [random_invertible_matrix(3, rng) for _ in range(3)]
    rep = Representation(4, 3, gens, label="random")
    assert not verify_cyclic_conjugation(rep)


def test_deformed_relations_on_standard_family():
    assert verify_deformed_relations(tym_standard(6, 3))


def test_deformed_relations_on_trivial_family():
    rep = Representation(4, 2, [Matrix.identity(2)] * 3)
    assert verify_deformed_relations(rep)


def test_deformed_relations_reject_broken_family():
    assert not verify_deformed_relations(failing_family())


def broken_three_strand_family():
    return Representation(3, 2, [Matrix([[1, 0], [0, 2]]), Matrix([[0, 1], [1, 0]])], label="n=3 broken")


def test_deformed_relations_reject_a_broken_three_strand_family():
    # On 3 strands every pair of indices is a neighbor pair, so only the
    # neighbor-cubic comparison can fail.
    rep = broken_three_strand_family()
    a, b = rep.deformation(1), rep.deformation(2)
    assert a + a * a + a * b * a != b + b * b + b * a * b
    assert not verify_deformed_relations(rep)


def test_generator_times_inverse_is_identity():
    for rep in (tym_standard(4, 2), reduced_burau(5, F(5, 3)), scrambled(tym_standard(5, 3), 2)):
        for i, g in enumerate(rep.generators, 1):
            assert g * inverse(g) == Matrix.identity(rep.r), (rep.label, i)


def test_braid_relation_as_word_identity():
    rep = tym_standard(4, 2)
    g1, g2 = rep.generators[:2]
    assert g1 * g2 * g1 == g2 * g1 * g2


def test_word_strand_mismatch_raises():
    with pytest.raises(ShapeError):
        direct_sum(tym_standard(4, 2), tym_standard(5, 2))
    with pytest.raises(ShapeError):
        tym_standard(4, 2).generators[0] * Matrix.identity(5)


def test_zoo_families_satisfy_all_relation_checks(zoo):
    for rep in zoo:
        report = verify_braid_relations(rep)
        assert report.ok, rep.label
        assert verify_cyclic_conjugation(rep), rep.label
        assert verify_deformed_relations(rep), rep.label


def test_conjugating_last_deformation_gives_the_derived_one(zoo):
    for rep in zoo:
        t = rep.tau
        shifted = t * rep.deformation(rep.n - 1) * inverse(t)
        assert shifted == rep.deformation(0), rep.label


def _word_image(rep, letters):
    """Image of the word s_i1^e1 s_i2^e2 ... for letters (i, e), e = +-1."""
    m = Matrix.identity(rep.r)
    for i, e in letters:
        g = rep.generators[i - 1]
        m = m * (g if e == 1 else inverse(g))
    return m


letters = st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from((1, -1)))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(letters, max_size=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=6),
)
def test_free_reduction_does_not_change_the_product(body, idx, cut):
    rep = tym_standard(4, F(1, 2))
    cut = min(cut, len(body))
    padded = body[:cut] + [(idx, 1), (idx, -1)] + body[cut:]
    assert _word_image(rep, body) == _word_image(rep, padded)


def _pairwise_report(rep):
    """Reference: every defining relation tested on its own pair, braid
    relations first, then far commutation row by row."""
    g = rep.generators
    braid = [("braid relation", (i, i + 1)) for i in range(1, rep.n - 1)
             if g[i - 1] * g[i] * g[i - 1] != g[i] * g[i - 1] * g[i]]
    far = [("far commutation", (i, j)) for i in range(1, rep.n) for j in range(i + 2, rep.n)
           if g[i - 1] * g[j - 1] != g[j - 1] * g[i - 1]]
    return RelationReport(not braid, not far, braid + far)


def _cyclic_reference(rep):
    """Reference: D A_i D^-1 = A_(i+1) for every i modulo n, on dense matrices."""
    t, tinv, n = rep.tau, inverse(rep.tau), rep.n
    return all(t * rep.deformation(i) * tinv == rep.deformation((i + 1) % n) for i in range(n))


def _deformed_reference(rep):
    """Reference: the deformed relations on every pair of indices modulo n, on
    dense matrices: non-neighbors commute, neighbors share A + A^2 + ABA."""
    n = rep.n
    a = [rep.deformation(i) for i in range(n)]
    far = all(a[i] * a[j] == a[j] * a[i] for i in range(n) for j in range(i + 1, n)
              if circular_distance(i, j, n) >= 2)
    return far and all(x + x * x + x * y * x == y + y * y + y * x * y
                       for x, y in ((a[i], a[(i + 1) % n]) for i in range(n)))


def _permutation(images):
    """The matrix sending e_x to e_images[x]."""
    size = len(images)
    return Matrix([[int(images[j] == i) for j in range(size)] for i in range(size)])


def _delta_family(n, a, d, label):
    """g_i = d^(i-1) a d^(1-i) on the permutation matrices of a and d.  When
    d^n = (a d)^(n-1), g_1 ... g_(n-1) = d, so D = d and every shift
    D g_i = g_(i+1) D holds."""
    a, d = _permutation(a), _permutation(d)
    gens, dinv = [a], d.transpose()
    while len(gens) < n - 1:
        gens.append(d * gens[-1] * dinv)
    return Representation(n, a.nrows, gens, label=label)


def only_far_pairs_broken():
    """5 strands on permutation matrices of size 6: g_1 = a is a 3-cycle and
    d a 5-cycle, with d^5 = (a d)^4, so the shifts and the braid relations
    hold, but g_1 commutes with neither g_3 nor g_4: only the far-commutation
    check of the shortcut sees the failure."""
    return _delta_family(5, (1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1), "far pairs broken")


# (n, a, d, js) with d^n = (a d)^(n-1), and js the indices j >= 3 of the
# generators that g_1 = a does not commute with.  The genuine ones: B_5 and
# B_6 through the transitive maps of S_5 and S_6 into S_6 that send s1 to
# three transpositions, and the permutation action of B_7 and B_8.  The
# broken ones come from a search over a in S_m and d of each cycle type,
# m <= 7: at n = 6 and 7 they fail at j = n//2 + 1 but not at j = 3, and no
# broken one at n = 8 fails at j = 5 alone.
_DELTA_FAMILIES = [
    (5, (1, 0, 3, 2, 5, 4), (1, 2, 3, 4, 0, 5), ()),
    (6, (1, 0, 3, 2, 5, 4), (1, 2, 0, 4, 3, 5), ()),
    (7, (0, 1, 2, 3, 4, 6, 5), (1, 2, 3, 4, 5, 6, 0), ()),
    (8, (1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0), ()),
    (5, (0, 2, 4, 1, 3), (1, 2, 3, 4, 0), (3, 4)),
    (6, (0, 2, 1, 4, 3), (1, 0, 3, 2, 4), (4,)),
    (6, (1, 3, 4, 2, 0), (1, 2, 0, 3, 4), (3, 5)),
    (7, (0, 1, 6, 2, 4, 5, 3), (1, 2, 3, 4, 5, 6, 0), (4, 5)),
    (7, (0, 3, 2, 1, 6, 5, 4), (1, 2, 3, 4, 5, 6, 0), (3, 6)),
    (8, (0, 4, 2, 6, 1, 5, 3), (1, 2, 3, 0, 5, 4, 6), (4, 6)),
    (8, (1, 3, 4, 5, 0, 6, 2), (1, 2, 3, 0, 5, 4, 6), (3, 4, 6, 7)),
]


def delta_families():
    for n, a, d, js in _DELTA_FAMILIES:
        yield _delta_family(n, a, d, f"delta family n={n} a={a} noncommuting {js}")


def only_a_braid_pair_broken():
    """Burau on 3 strands, then the scalar 2: every far pair commutes, and
    the braid relation fails at (2, 3) only."""
    burau = reduced_burau(3, 2)
    return Representation(4, 2, [*burau.generators, Matrix([[2, 0], [0, 2]])], label="braid pair broken")


def _entry_plus_one(rep, seed):
    """rep with 1 added to one entry of one generator: the first entry, in a
    seeded order, for which the family stays invertible."""
    rng = Random(seed)
    i = rng.randrange(rep.n - 1)
    cells = [(x, y) for x in range(rep.r) for y in range(rep.r)]
    rng.shuffle(cells)
    for x, y in cells:
        rows = [list(row) for row in rep.generators[i].rows]
        rows[x][y] += 1
        gens = list(rep.generators)
        gens[i] = Matrix(rows)
        try:
            return Representation(rep.n, rep.r, gens, label=f"{rep.label} with g_{i + 1}[{x},{y}] + 1")
        except SingularMatrixError:
            continue
    raise AssertionError(f"no entry of {rep.label} can be raised by 1")


def _first_two_swapped(rep):
    g = rep.generators
    return Representation(rep.n, rep.r, (g[1], g[0]) + g[2:], label=f"{rep.label} with g_1, g_2 swapped")


def _dense_cases():
    """Every zoo member and a family with every deformation 0 (k = 0), in two
    bases each, then each of those with one entry raised by 1 and with its
    first two generators swapped."""
    trivial = direct_sum(character_rep(5, 1), character_rep(5, 1))
    for rep in build_zoo() + [trivial]:
        for seed in (1, 2):
            moved = scrambled(rep, seed)
            yield moved
            yield _entry_plus_one(moved, seed)
            yield _first_two_swapped(moved)


def _shortcut_cases():
    yield from build_zoo()
    yield broken_family()
    yield from random_families()
    yield only_far_pairs_broken()
    yield only_a_braid_pair_broken()
    yield tym_standard(2, 4)
    yield Representation(2, 1, [Matrix([[3]])], label="n=2 character")
    yield reduced_burau(3, 2)
    yield Representation(3, 2, [Matrix([[1, 0], [0, 2]]), Matrix([[3, 0], [0, 4]])], label="n=3 diagonal")
    yield Representation(4, 2, [Matrix.identity(2)] * 3, label="k=0")
    yield from _dense_cases()
    yield from _only_a_shift_broken()
    yield from delta_families()


def _only_a_shift_broken():
    """Characters y, y, z: D maps every image into the next one and the
    relations at g_1 hold, but D g_2 = g_3 D fails; then the same beside a
    trivial character, where the images are a line, in two bases."""
    chars = Representation(4, 1, [Matrix([[2]]), Matrix([[2]]), Matrix([[3]])], label="characters 2, 2, 3")
    yield chars
    padded = direct_sum(chars, character_rep(4, 1))
    yield padded
    yield scrambled(padded, 1)


def _cyclic_cases():
    yield from build_zoo()
    yield broken_family()
    yield from random_families()
    yield failing_family()
    yield only_far_pairs_broken()
    yield from _only_a_shift_broken()
    yield from delta_families()
    yield tym_standard(2, 4)
    yield Representation(2, 2, [Matrix([[1, 2], [3, 4]])], label="n=2 dense")
    yield reduced_burau(3, 2)
    yield broken_three_strand_family()


@pytest.mark.parametrize("rep", list(_cyclic_cases()), ids=lambda rep: rep.label or "broken")
def test_cyclic_check_matches_the_dense_reference(rep):
    assert verify_cyclic_conjugation(rep) == _cyclic_reference(rep)


def test_cyclic_check_forms_no_derived_generator():
    # The shifts at 1 <= i <= n-2 decide the one at 0, so sigma0 and D^-1 are
    # never needed, on genuine and on broken families.
    for rep in (broken_family(), failing_family(), *random_families(), *build_zoo()):
        verify_cyclic_conjugation(rep)
        assert "sigma0" not in vars(rep), rep.label


def _deformed_cases():
    yield from _cyclic_cases()
    yield only_a_braid_pair_broken()
    yield Representation(2, 1, [Matrix([[3]])], label="n=2 character")


@pytest.mark.parametrize("rep", list(_deformed_cases()), ids=lambda rep: rep.label or "broken")
def test_deformed_check_matches_the_dense_reference(rep):
    assert verify_deformed_relations(rep) == _deformed_reference(rep)


def test_deformed_check_forms_no_derived_generator():
    # The deformed relations are decided on the factors of g_1 ... g_(n-1),
    # on genuine and on broken families alike.
    for rep in (broken_family(), failing_family(), *random_families(), *_only_a_shift_broken(),
                broken_three_strand_family(), *build_zoo()):
        verify_deformed_relations(rep)
        assert "sigma0" not in vars(rep), rep.label


def test_failure_scan_forms_no_product_for_a_far_pair(monkeypatch):
    rep = failing_family()
    index = {id(g): i for i, g in enumerate(rep.generators, 1)}
    pairs = []
    original = Matrix.__mul__

    def spy(self, other):
        pairs.append((index.get(id(self)), index.get(id(other))))
        return original(self, other)

    monkeypatch.setattr(Matrix, "__mul__", spy)
    report = verify_braid_relations(rep)
    monkeypatch.undo()
    assert ("far commutation", (1, 3)) in report.failures
    # Far pairs and braid pairs alike are checked on the factors: no dense
    # product at all (D, which the shortcut reads, was formed by the constructor).
    assert not pairs


@pytest.mark.parametrize("rep", list(_shortcut_cases()), ids=lambda rep: rep.label or "broken")
def test_relation_shortcut_matches_the_pairwise_scan(rep):
    expected = _pairwise_report(rep)
    assert verify_braid_relations(rep) == expected
    # The shortcut alone decides too: a genuine family must not need the scan.
    far = all(_commutes(rep, 1, j) for j in range(3, rep.n // 2 + 2))
    assert rep.n == 2 or (verify_cyclic_conjugation(rep) and far) == expected.ok


_PATH_SPECS = [
    "tym:n=6,u=2", "burau:n=7,t=2", "char:n=5,y=3",
    "tensor(tym:n=6,u=2,y=3)", "conj(tensor(burau:n=6,t=2,y=3/2),seed=4)",
    "dsum(tensor(tym:n=6,u=2,y=2),tensor(tym:n=6,u=5/3,y=-1))",
    "tym:n=2,u=2", "tensor(tym:n=2,u=2,y=3)",
    "dsum(tym:n=6,u=2,char:n=6,y=3)", "conj(tym:n=8,u=1,seed=7)",
]


def test_relation_check_forms_d_exactly_where_it_tries_the_shortcut():
    # The shortcut through D is tried past 2 strands where some image is all
    # of Q^r, and D is formed by nothing else the check runs.
    reps = [*build_zoo(), *(parse_rep_spec(spec)[0] for spec in _PATH_SPECS)]
    formed = 0
    for rep in reps:
        assert verify_braid_relations(rep).ok, rep.label
        full = any(rep.image(i).is_full() for i in range(1, rep.n))
        assert ("tau" in vars(rep)) == (rep.n > 2 and full), rep.label
        formed += "tau" in vars(rep)
    assert 0 < formed < len(reps)


def _zero_beside_nonzero():
    """A_1 = 0 next to A_2 != 0, so the braid relations at (1, 2) and (2, 3)
    fail while (1, 3) commutes: with a shear (rank 1, no image full) and
    with a diagonal (A_2 of full rank), each also in a second basis."""
    one = Matrix.identity(2)
    for g in (Matrix([[1, 1], [0, 1]]), Matrix([[2, 0], [0, 3]])):
        rep = Representation(4, 2, [one, g, one], label=f"A_1 = 0 beside g_2 = {g.to_strings()}")
        yield rep
        yield scrambled(rep, 2)


def _factor_scan_cases():
    """Inputs whose relations are checked pair by pair on the factors, where
    no image is full, and full-rank twists, which take the D shortcut first."""
    for n in range(12, 17):
        yield scrambled(reduced_burau(n, F(5, 3)), n)
        yield scrambled(tym_standard(n, 1), n)
        yield direct_sum(reduced_burau(n, 2), character_rep(n, 3))
    yield scrambled(direct_sum(tym_standard(12, 2), character_rep(12, F(1, 2))), 3)
    yield broken_family()
    yield failing_family()
    yield from random_families()
    yield only_far_pairs_broken()
    yield only_a_braid_pair_broken()
    yield from _only_a_shift_broken()
    yield from delta_families()
    yield broken_three_strand_family()
    yield from _zero_beside_nonzero()
    # cubic(1, 2) = 0 beside cubic(2, 1) = -6: a zero middle settles the failing pair
    yield Representation(3, 2, [Matrix([[2, 0], [0, 1]]), Matrix([[-1, 0], [1, 1]])], label="zero cubic")
    for rep in (reduced_burau(6, 2), tym_standard(6, F(5, 3))):
        twist = tensor_character(rep, F(3, 2))
        assert any(twist.image(i).is_full() for i in range(1, twist.n))
        yield twist
        yield scrambled(twist, 4)
        yield _entry_plus_one(scrambled(twist, 4), 4)


@pytest.mark.parametrize("rep", list(_factor_scan_cases()), ids=lambda rep: rep.label or "broken")
def test_relation_check_matches_the_dense_reference(rep):
    assert verify_braid_relations(rep) == _pairwise_report(rep)


def test_middles_are_the_nonzero_blocks_of_each_middle():
    for rep in (scrambled(reduced_burau(7, 2), 1), scrambled(tym_standard(6, 1), 2),
                direct_sum(tym_standard(5, 2), character_rep(5, 3)), *_zero_beside_nonzero(),
                broken_family(), Representation(4, 2, [Matrix.identity(2)] * 3)):
        pairs = [(i, j) for i in range(1, rep.n) for j in range(1, rep.n)]
        nonzero = [(i, j) for i, j in pairs if any(map(any, rep.middle(i, j)))]
        mids = rep.middles
        assert sorted(mids) == nonzero, rep.label
        assert all(list(map(list, rep.middle(i, j))) == list(map(list, mid)) for (i, j), mid in mids.items()), rep.label


def test_far_pairs_broken_family_passes_the_shift_and_braid_checks():
    rep = only_far_pairs_broken()
    d, g = rep.tau, rep.generators
    assert all(d * g[i] == g[i + 1] * d for i in range(3))
    report = verify_braid_relations(rep)
    assert report.braid_relations_ok and not report.far_commutation_ok
    assert [pair for _, pair in report.failures] == [(1, 3), (1, 4), (2, 4)]


@pytest.mark.parametrize(("n", "a", "d", "js"), _DELTA_FAMILIES)
def test_delta_families_pass_every_shift_and_fail_where_listed(n, a, d, js):
    rep = _delta_family(n, a, d, "")
    assert rep.tau == _permutation(d)
    report = _pairwise_report(rep)
    assert tuple(j for _, (i, j) in report.failures if i == 1 and j >= 3) == js
    assert report.ok == (not js)


@pytest.mark.parametrize("n", range(3, 17))
def test_burau_matrices_satisfy_the_relations_for_every_t(n):
    # Each entry of a relation difference is a polynomial of degree at most 3
    # in t (a product of three generators with entries of degree at most 1),
    # so vanishing at five values of t proves it zero for every t.
    for t in (2, 3, -1, F(1, 2), F(5, 3)):
        rep = reduced_burau(n, t)
        assert _pairwise_report(rep) == RelationReport(True, True), (n, t)
        assert verify_braid_relations(rep).ok, (n, t)


@pytest.mark.parametrize("n", range(2, 17))
def test_standard_family_satisfies_the_relations_for_every_u(n):
    # As for Burau: the entries of the generators have degree at most 1 in u,
    # so vanishing at five values of u proves each relation for every u.
    for u in (2, 3, -1, F(1, 2), F(5, 3)):
        rep = tym_standard(n, u)
        assert _pairwise_report(rep) == RelationReport(True, True), (n, u)
        assert verify_braid_relations(rep).ok, (n, u)
