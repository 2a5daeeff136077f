import bisect
import math
import operator
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from braidrep.errors import ShapeError, SingularMatrixError
from braidrep.linalg import (
    EchelonSpan,
    Matrix,
    Subspace,
    _over_lcm,
    _squarefree_part,
    clear_denominators,
    combine,
    image_basis,
    intersect_stacked_kernel,
    inverse,
    kernel_basis,
    minimal_polynomial,
    monic_roots,
    rank,
    rational,
    rational_eigenvalues,
)
from braidrep.zoo import character_rep, conjugate_rep, direct_sum
from conftest import build_zoo

F = Fraction


def subspace(*vectors):
    return Subspace(len(vectors[0]), vectors)


def e(i, dim):
    return tuple(F(int(j == i)) for j in range(dim))


def test_rational_parsing_and_formatting():
    assert rational("5/3") == F(5, 3)
    assert rational("-7/4") == F(-7, 4)
    assert rational(4) == F(4)
    assert str(rational(F(5, 3))) == "5/3"
    assert str(rational(F(5, 1))) == "5"
    assert str(rational(F(-7, 4))) == "-7/4"
    with pytest.raises(ValueError):
        rational(0.5)


@pytest.mark.parametrize("rows, shape", [
    ([], (0, 0)),
    ([[], [], []], (0, 3)),
    ([[1, F(1, 2), 3]], (3, 1)),
    ([[1, 2], [3, 4], [5, 6]], (2, 3)),
])
def test_transpose_swaps_the_shape(rows, shape):
    t = Matrix(rows).transpose()
    assert t.shape == shape
    assert t.transpose() == Matrix(rows)
    assert [list(row) for row in t.rows] == [list(col) for col in zip(*rows)]


@pytest.mark.parametrize("nrows, ncols", [(0, 3), (0, 5), (3, 0), (0, 0)])
def test_an_empty_matrix_keeps_its_column_count(nrows, ncols):
    m = Matrix.zero(nrows, ncols)
    assert m.shape == (nrows, ncols)
    assert m.transpose().shape == (ncols, nrows)
    assert (m * -1).shape == (m * 2).shape == (m + m).shape == (nrows, ncols)
    assert (m * Matrix.zero(ncols, 4)).shape == (nrows, 4)
    assert (m == Matrix.zero(nrows, ncols + 1)) is False


def test_matrix_refuses_floats():
    with pytest.raises(ValueError):
        Matrix([[0.1, 1]])
    with pytest.raises(ValueError):
        Matrix.identity(2) * (0.5, 1)
    assert Matrix([["1/10", 1]]) == Matrix([[F(1, 10), F(1)]])


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_rational_refuses_floats_and_booleans(bad):
    with pytest.raises(ValueError, match="refusing to coerce"):
        rational(bad)


@pytest.mark.parametrize("bad", [True, False])
def test_matrix_scalar_product_refuses_booleans_as_the_constructor_does(bad):
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError) as built:
        Matrix([[bad]])
    with pytest.raises(ValueError) as refused:
        m * bad
    assert str(refused.value) == str(built.value)
    assert m * 1 == m and m * F(1, 2) == Matrix([[F(1, 2), 1], [F(3, 2), 2]])


@pytest.mark.parametrize("c", [3, -2, 0, F(-2, 3)])
def test_matrix_scalar_product_is_the_per_entry_product_in_lowest_terms(c):
    rows = [[F(1, 2), 3, F(-5, 6)], [0, F(4, 9), -7]]
    m = Matrix(rows) * c
    want = [[F(e) * c for e in row] for row in rows]
    den = math.lcm(*(x.denominator for row in want for x in row))
    assert m.den == den and m.num == tuple(tuple(int(x * den) for x in row) for row in want)


def test_matrix_scalar_product_takes_no_float():
    with pytest.raises(ValueError) as built:
        Matrix([[1.5]])
    with pytest.raises(ValueError, match=r"^refusing to coerce a float; pass 'p/q' or an int$") as refused:
        Matrix([[1, 2]]) * 1.5
    assert str(refused.value) == str(built.value)


def test_rational_round_trip_is_exact():
    values = [F(3, 7), F(-22, 6), F(0), F(10**40, 3)]
    for v in values:
        assert rational(str(rational(v))) == v


def test_rank_of_opposite_rows_is_one():
    assert rank(Matrix([[-1, 1], [1, -1]])) == 1


def test_rank_of_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zero(4, 4)) == 0


def test_image_of_invertible_matrix_is_full():
    img = image_basis(Matrix([[-1, 2], [1, -1]]))
    assert img == Subspace.full(2)


def _assert_identity_rows(space, coeffs):
    d = space.ambient_dim
    assert space.rows == tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    assert space.pivots == tuple(range(d))
    assert space.combination(coeffs) == list(coeffs)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_the_full_subspace_is_held_as_the_identity_rows(d):
    _assert_identity_rows(Subspace.full(d), range(-2, d - 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=d, max_size=d + 2)))
def test_a_full_rank_integer_span_is_held_as_the_identity_rows(vectors):
    d = len(vectors[0])
    assume(rank(Matrix(vectors)) == d)
    _assert_identity_rows(Subspace._span(d, vectors), vectors[0])


def test_image_of_equal_columns_is_a_line():
    img = image_basis(Matrix([[1, 1], [1, 1]]))
    assert img == subspace((1, 1))


def test_image_of_zero_matrix_is_zero():
    assert image_basis(Matrix.zero(3, 3)).is_zero()


def test_kernel_of_rank_one_matrix():
    ker = kernel_basis(Matrix([[1, 1], [1, 1]]))
    assert ker == subspace((1, -1))


def test_kernel_of_invertible_matrix_is_zero():
    assert kernel_basis(Matrix([[0, 2], [1, 0]])).is_zero()


def test_kernel_of_zero_matrix_is_everything():
    assert kernel_basis(Matrix.zero(3, 3)) == Subspace.full(3)


def test_intersect_coordinate_planes():
    u = subspace(e(0, 4), e(1, 4))
    v = subspace(e(1, 4), e(2, 4))
    assert u.intersect(v) == subspace(e(1, 4))


def test_intersect_is_idempotent():
    u = subspace((1, 2, 3), (0, 1, 1))
    assert u.intersect(u) == u


def test_intersect_of_skew_lines_is_zero():
    assert subspace(e(0, 3)).intersect(subspace(e(1, 3))).is_zero()


def test_intersect_requires_matching_ambient():
    with pytest.raises(ShapeError):
        subspace((1, 0)).intersect(subspace((1, 0, 0)))


@pytest.mark.parametrize("zero_first", [True, False])
def test_stacked_kernel_with_a_zero_subspace_is_zero(zero_first):
    u, v = Subspace.zero(3), subspace((1, 2, 3), (0, 1, 1))
    if not zero_first:
        u, v = v, u
    assert intersect_stacked_kernel(u, v) == Subspace.zero(3)


def _subspaces(d):
    """Subspaces of Q^d spanned by small integer vectors, with the zero and
    the full subspace drawn on their own."""
    vectors = st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), max_size=d + 1)
    return st.one_of(st.just(Subspace.zero(d)), st.just(Subspace.full(d)), vectors.map(lambda vs: Subspace(d, vs)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda d: st.tuples(_subspaces(d), _subspaces(d))))
@example((Subspace.zero(0), Subspace.zero(0)))
@example((Subspace.zero(3), Subspace.full(3)))
@example((Subspace.full(3), Subspace.zero(3)))
@example((Subspace.full(4), Subspace.full(4)))
def test_both_intersections_meet_the_dimension_formula(pair):
    u, v = pair
    meet = u.intersect(v)
    assert meet == intersect_stacked_kernel(u, v)
    assert meet.dim == u.dim + v.dim - Subspace(u.ambient_dim, u.basis_vectors() + v.basis_vectors()).dim
    assert all(u.contains(x) and v.contains(x) for x in meet.basis_vectors())


def test_value_types_defer_equality_and_arithmetic_to_other_types():
    m, w, other = Matrix([[1, 2]]), Subspace(2, [(1, 2)]), object()
    for method in (m.__eq__, m.__add__, m.__sub__, m.__mul__, w.__eq__):
        assert method(other) is NotImplemented
    assert m != other and w != other
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(m, other)


def test_equal_subspaces_hash_equal_and_repr_states_the_dimensions():
    u, v = Subspace(3, [(2, 4, 0), (0, 0, 5)]), Subspace(3, [(1, 2, 5), (0, 0, -1)])
    assert u == v and hash(u) == hash(v)
    assert len({u, v, Subspace.zero(3)}) == 2
    assert repr(u) == "Subspace(dim 2 of Q^3)"


@pytest.mark.parametrize("d", [0, 1, 3])
def test_basis_of_a_zero_subspace_has_no_columns(d):
    basis = Subspace.zero(d).basis
    assert basis.shape == (d, 0)
    assert basis == Matrix.zero(d, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.tuples(
    st.lists(st.integers(-20, 20), min_size=k, max_size=k), st.integers(1, 6), st.integers(1, 12)),
    max_size=4))))
@example((3, []))
@example((2, [([2, -3], 2, 2), ([1, 3], 3, 6)]))  # [4 -6; 3 9] over (2, 6) is [4 -6; 1 3] / 2
def test_over_lcm_is_the_per_entry_quotient_in_lowest_terms(case):
    """Row j is vectors[j] / dens[j]; each vector is drawn times a factor g,
    so rows and denominators share factors to divide out."""
    k, drawn = case
    vectors = [[g * e for e in v] for v, g, _ in drawn]
    dens = [d for _, _, d in drawn]
    m = _over_lcm(vectors, dens, k)
    ref = [[F(e, d) for e in v] for v, d in zip(vectors, dens)]
    if ref:
        _check_kernel_form(m, ref)
    else:
        assert m == Matrix.zero(0, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.lists(rationals, min_size=d, max_size=d), max_size=4))))
def test_basis_columns_are_the_canonical_rows_over_their_leads(case):
    d, vectors = case
    u = Subspace(d, vectors)
    assert u.basis.shape == (d, u.dim)
    want = [[F(e, row[p]) for e in row] for row, p in zip(u.rows, u.pivots)]
    assert [list(col) for col in zip(*u.basis.rows)] == want


@pytest.mark.parametrize("op, word", [(operator.add, "add"), (operator.sub, "subtract")])
def test_matrix_sum_and_difference_refuse_unequal_shapes(op, word):
    with pytest.raises(ShapeError, match=rf"^cannot {word} \(2, 2\) and \(2, 3\)$"):
        op(Matrix.identity(2), Matrix.zero(2, 3))


def _sum(u, v):
    """U + V as the span of the joined bases, the one spelling of a sum."""
    return Subspace(u.ambient_dim, [*u.basis_vectors(), *v.basis_vectors()])


def test_sum_requires_matching_ambient():
    with pytest.raises(ShapeError):
        _sum(subspace((1, 0)), subspace((1, 0, 0)))


def test_sum_of_coordinate_lines():
    assert _sum(subspace(e(0, 3)), subspace(e(1, 3))) == subspace(e(0, 3), e(1, 3))


def test_sum_with_zero_is_identity():
    u = subspace((1, 2, 3))
    assert _sum(u, Subspace.zero(3)) == u


def test_sum_of_overlapping_planes_has_dimension_three():
    u = subspace(e(0, 4), e(1, 4))
    v = subspace(e(1, 4), e(2, 4))
    assert _sum(u, v).dim == 3


def test_inverse_of_antidiagonal():
    inv = inverse(Matrix([[0, 2], [1, 0]]))
    assert inv == Matrix([[0, 1], [F(1, 2), 0]])


def test_inverse_of_identity():
    assert inverse(Matrix.identity(4)) == Matrix.identity(4)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[1, 1], [1, 1]]))


def _diagonal_family(*ys):
    """4-strand family whose every generator image is diag(ys)."""
    rep = character_rep(4, ys[0])
    for y in ys[1:]:
        rep = direct_sum(rep, character_rep(4, y))
    return rep


def test_conjugate_of_identity_is_identity():
    c = Matrix([[1, 2], [0, 1]])
    assert conjugate_rep(_diagonal_family(1, 1), c).generators == (Matrix.identity(2),) * 3


def test_conjugate_by_identity_is_unchanged():
    rep = _diagonal_family(2, 3)
    assert conjugate_rep(rep, Matrix.identity(2)).generators == rep.generators


def test_conjugate_diagonal_by_swap():
    swap = Matrix([[0, 1], [1, 0]])
    conjugated = conjugate_rep(_diagonal_family(1, 2), swap)
    assert conjugated.generators == (Matrix([[2, 0], [0, 1]]),) * 3


def test_conjugate_by_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        conjugate_rep(_diagonal_family(1, 1), Matrix([[1, 1], [1, 1]]))


def test_rational_eigenvalues_of_diagonal():
    assert rational_eigenvalues(Matrix([[3, 0], [0, 5]])) == [F(3), F(5)]


def test_rational_eigenvalues_of_rotation_is_empty():
    assert rational_eigenvalues(Matrix([[0, 1], [-1, 0]])) == []


def test_rational_eigenvalues_of_opposite_rows():
    assert rational_eigenvalues(Matrix([[-1, 1], [1, -1]])) == [F(-2), F(0)]


def test_rational_eigenvalues_with_fractional_entries():
    m = Matrix([[F(1, 2), 0], [0, F(-3, 4)]])
    assert rational_eigenvalues(m) == [F(-3, 4), F(1, 2)]


def test_eigenvalue_kernel_cross_check():
    m = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 7]])
    for lam in rational_eigenvalues(m):
        shifted = m - Matrix.identity(3) * lam
        assert kernel_basis(shifted).dim >= 1


def test_rational_eigenvalues_with_a_repeated_root():
    m = Matrix([[5, 1, 0], [0, 5, 0], [0, 0, -2]])
    assert rational_eigenvalues(m) == [F(-2), F(5)]


def test_rational_eigenvalues_with_a_huge_constant_term():
    # Trial division of the 80-bit determinant would take 2^40 steps.
    big = 2**41 + 15
    m = Matrix([[big, 1, 0], [0, -(2**39) - 3, 0], [0, 0, 0]])
    assert rational_eigenvalues(m) == [F(-(2**39) - 3), F(0), F(big)]
    rotation = Matrix([[0, big], [-big, 0]])
    assert rational_eigenvalues(rotation) == []


def test_rational_eigenvalues_of_a_repeated_root_past_the_float_range():
    # The squarefree part of (x - c)^2 is divided out exactly, not in floats.
    c = 2**60 + 1
    assert rational_eigenvalues(Matrix([[c, 1], [0, c]])) == [F(c)]
    assert rational_eigenvalues(Matrix([[c, 0], [0, c]])) == [F(c)]


# Eigenvalues anywhere up to 2^70 in size, and often past 2^53, where a float
# no longer holds every integer.
_EIGENVALUES = st.integers(-(2**70), 2**70) | st.integers(2**53, 2**70) | st.integers(-(2**70), -(2**53))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_EIGENVALUES, st.integers(1, 3)), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_rational_eigenvalues_of_triangular_matrices(roots, rng):
    diagonal = [lam for lam, mult in roots for _ in range(mult)]
    rng.shuffle(diagonal)
    size = len(diagonal)
    m = Matrix([[diagonal[i] if i == j else rng.randint(-3, 3) * (i < j) for j in range(size)]
                for i in range(size)])
    assert rational_eigenvalues(m) == sorted({F(lam) for lam in diagonal})


def test_canonical_form_is_spanning_set_independent():
    a = subspace((1, 0, 1), (0, 1, 1))
    b = subspace((1, 1, 2), (1, -1, 0))
    assert a == b
    assert a.basis_vectors() == b.basis_vectors()


def test_contains_and_coordinates():
    # The canonical basis is pivot-normalized, so the coordinates of a member
    # are its entries at the pivot columns.
    u = subspace((1, 0, 2), (0, 1, 3))
    v = (F(2), F(1), F(7))
    assert u.contains(v)
    coords = [v[p] for p in u.pivots]
    mixed = tuple(
        sum((c * b[k] for c, b in zip(coords, u.basis_vectors())), F(0)) for k in range(3)
    )
    assert mixed == v
    assert not u.contains((1, 1, 1))


def test_matrix_vector_and_scalar_products():
    m = Matrix([[1, 2], [3, 4]])
    assert m * (1, 1) == (F(3), F(7))
    assert (m * 2) == Matrix([[2, 4], [6, 8]])


def test_matrix_serialization_round_trip():
    m = Matrix([[F(1, 3), F(-2)], [F(0), F(7, 5)]])
    assert Matrix(m.to_strings()) == m


def _random_matrix(rng, nrows, ncols, span=4):
    return Matrix([[rng.randint(-span, span) for _ in range(ncols)] for _ in range(nrows)])


def test_intersection_agrees_with_stacked_kernel_oracle():
    rng = Random(20240817)
    for _ in range(120):
        u = image_basis(_random_matrix(rng, 6, rng.randint(1, 4)))
        v = image_basis(_random_matrix(rng, 6, rng.randint(1, 4)))
        assert u.intersect(v) == intersect_stacked_kernel(u, v)


def test_rank_nullity_on_random_matrices():
    rng = Random(7)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) == image_basis(m).dim
        assert rank(m) + kernel_basis(m).dim == m.ncols


def test_dimension_formula_on_random_subspaces():
    rng = Random(11)
    for _ in range(60):
        u = image_basis(_random_matrix(rng, 5, rng.randint(1, 4)))
        v = image_basis(_random_matrix(rng, 5, rng.randint(1, 4)))
        assert rank(Matrix(u.rows + v.rows)) + u.intersect(v).dim == u.dim + v.dim


small_entries = st.integers(min_value=-6, max_value=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=1, max_size=4))
def test_kernel_vectors_are_killed(rows):
    m = Matrix(rows)
    for v in kernel_basis(m).basis_vectors():
        assert all(entry == 0 for entry in m * v)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=4, max_size=4))
def test_inverse_is_exact_two_sided(rows):
    m = Matrix(rows)
    if rank(m) < 4:
        with pytest.raises(SingularMatrixError):
            inverse(m)
        return
    inv = inverse(m)
    assert m * inv == Matrix.identity(4)
    assert inv * m == Matrix.identity(4)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_intersection_is_contained_in_both(arows, brows):
    u = Subspace(4, arows)
    v = Subspace(4, brows)
    w = u.intersect(v)
    for vec in w.basis_vectors():
        assert u.contains(vec) and v.contains(vec)


# Reference kernel: plain per-entry Fraction arithmetic on lists of rows.

def _ref_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def _ref_inverse(a):
    """Gauss-Jordan over Fractions; None when a is singular."""
    n = len(a)
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        lead = aug[c][c]
        aug[c] = [x / lead for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _ref_rref(rows, ncols):
    """Gauss-Jordan over Fractions: the nonzero rows of the reduced row
    echelon form, each with pivot entry 1, and their pivot columns."""
    rows, pivots = [list(map(F, row)) for row in rows], []
    for c in range(ncols):
        at = len(pivots)
        p = next((i for i in range(at, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[at], rows[p] = rows[p], rows[at]
        lead = rows[at][c]
        rows[at] = [x / lead for x in rows[at]]
        for i in range(len(rows)):
            if i != at and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[at])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _ref_null_space(rows, ncols):
    """A basis of the null space, one vector per free column f: e_f minus
    the entry at f of each reduced row, at that row's pivot."""
    reduced, pivots = _ref_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [F(0)] * ncols
            v[f] = F(1)
            for p, row in zip(pivots, reduced):
                v[p] = -row[f]
            basis.append(v)
    return basis


@st.composite
def _kernel_inputs(draw):
    """Rows (nrows x ncols, either may be 0) of any rank; half are a
    product through at most two inner columns, so most of those drop rank."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        inner = draw(st.integers(1, 2))
        return _ref_mul(_block(draw, nrows, inner), _block(draw, inner, ncols)), ncols
    return _block(draw, nrows, ncols), ncols


@settings(max_examples=150, deadline=None)
@given(_kernel_inputs())
@example(([], 3))
@example(([[], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[2, 1, 0], [0, 1, 0], [1, 0, 5]], 3))
@example(([[F(1, 2), 1, F(-3, 4)], [1, 2, F(-3, 2)]], 3))
def test_kernel_basis_is_the_span_of_the_fraction_null_space(case):
    rows, ncols = case
    m = Matrix(rows) if rows else Matrix.zero(0, ncols)
    assert m.shape == (len(rows), ncols)
    want, _ = _ref_rref(_ref_null_space(rows, ncols), ncols)
    assert [list(v) for v in kernel_basis(m).basis_vectors()] == want


def _check_kernel_form(m, ref):
    """m holds exactly the entries of ref, in lowest terms, and rows are Fractions."""
    assert m.den > 0
    assert math.gcd(m.den, *(e for row in m.num for e in row)) == 1
    assert all(type(e) is Fraction for row in m.rows for e in row)
    assert [list(row) for row in m.rows] == [list(row) for row in ref]
    twin = Matrix(ref)
    assert twin == m and hash(twin) == hash(m)


def _ref_det(a):
    """Gaussian elimination over Fractions."""
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


# Zeros are drawn often, so that the sparse-row path of the product runs too.
rationals = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6))


def _block(draw, rows, cols):
    row = st.lists(rationals, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@st.composite
def _operands(draw):
    n, k, p = (draw(st.integers(1, 4)) for _ in range(3))
    return (_block(draw, n, k), _block(draw, n, k), _block(draw, k, p), _block(draw, k, k),
            draw(rationals), _block(draw, 1, k)[0])


@settings(max_examples=80, deadline=None)
@given(_operands())
def test_integer_kernel_matches_fraction_reference(operands):
    a, a2, b, sq, c, v = operands
    ma, ma2, mb, msq = Matrix(a), Matrix(a2), Matrix(b), Matrix(sq)
    _check_kernel_form(ma, a)
    _check_kernel_form(ma * mb, _ref_mul(a, b))
    _check_kernel_form(ma + ma2, [[x + y for x, y in zip(r, s)] for r, s in zip(a, a2)])
    _check_kernel_form(ma - ma2, [[x - y for x, y in zip(r, s)] for r, s in zip(a, a2)])
    _check_kernel_form(ma * -1, [[-x for x in r] for r in a])
    _check_kernel_form(ma * c, [[x * c for x in r] for r in a])
    _check_kernel_form(ma.transpose(), [list(col) for col in zip(*a)])
    product = ma * v
    assert all(type(e) is Fraction for e in product)
    assert list(product) == [sum((x * y for x, y in zip(r, v)), F(0)) for r in a]
    assert msq.is_zero() == (not any(x for r in sq for x in r))
    ref_inv = _ref_inverse(sq)
    if ref_inv is None:
        with pytest.raises(SingularMatrixError):
            inverse(msq)
    else:
        _check_kernel_form(inverse(msq), ref_inv)


def _ref_rational_roots(a):
    """The rational roots of det(x - a), each once and sorted.  With L the
    lcm of the denominators of a, they are y / L for the integer roots y of
    the monic integer polynomial q(y) = det(y - L a), which lie within the
    largest absolute row sum of L a.  q is read off its values at 0 ... n
    (``_ref_det``) in Newton's form, whose divided differences are integers."""
    n = len(a)
    scale = math.lcm(1, *(F(e).denominator for row in a for e in row))
    la = [[e * scale for e in row] for row in a]
    diffs = [_ref_det([[y * (i == j) - e for j, e in enumerate(row)] for i, row in enumerate(la)])
             for y in range(n + 1)]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / k
    assert all(d.denominator == 1 for d in diffs) and diffs[n] == 1
    diffs = [int(d) for d in diffs]

    def q(y):
        acc = diffs[n]
        for k in range(n - 1, -1, -1):
            acc = acc * (y - k) + diffs[k]
        return acc

    bound = int(max(sum(abs(e) for e in row) for row in la))
    return [F(y, scale) for y in range(-bound, bound + 1) if q(y) == 0]


@st.composite
def _jordan_forms(draw):
    """E (J / den) E^-1: J has Jordan blocks at eigenvalues drawn from a few
    integers, so they repeat, and may end in the companion block of x^2 + c,
    which has no rational root; E is a product of elementary matrices."""
    blocks = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=3))
    c = draw(st.sampled_from([0, 1, 2, 3]))
    size = sum(width for _, width in blocks) + 2 * (c > 0)
    j, at = [[0] * size for _ in range(size)], 0
    for lam, width in blocks:
        for i in range(at, at + width):
            j[i][i] = lam
            if i + 1 < at + width:
                j[i][i + 1] = 1
        at += width
    if c:
        j[at][at + 1], j[at + 1][at] = -c, 1
    for _ in range(draw(st.integers(0, 4))):
        i, k, t = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1)), draw(st.integers(-2, 2))
        if i != k:
            # E = 1 + t e_ik: row i gains t row k, then column k loses t column i.
            j[i] = [x + t * y for x, y in zip(j[i], j[k])]
            for row in j:
                row[k] -= t * row[i]
    den = draw(st.integers(1, 6))
    return [[F(e, den) for e in row] for row in j]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n),
                                                   min_size=n, max_size=n)) | _jordan_forms())
def test_rational_eigenvalues_are_the_rational_roots_of_the_determinant(a):
    assert rational_eigenvalues(Matrix(a)) == _ref_rational_roots(a)


@st.composite
def _wire_matrices(draw):
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # Integer entries give den = 1; fractions give negative and reducible
    # entries over a common denominator; whole zero rows are drawn too.
    entries = draw(st.sampled_from([
        st.integers(-10**6, 10**6),
        rationals,
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    ]))
    row = st.one_of(st.just([0] * ncols), st.lists(entries, min_size=ncols, max_size=ncols))
    return Matrix(draw(st.lists(row, min_size=nrows, max_size=nrows)))


@settings(max_examples=80, deadline=None)
@given(_wire_matrices())
def test_wire_format_matches_fraction_reference(m):
    expected = [[str(rational(e)) for e in row] for row in m.rows]
    assert m.to_strings() == expected
    assert Matrix(expected) == m


@pytest.mark.parametrize("text", [
    "3", "-0", "007", "3/6", "-3/6", "0/5", " 3", "+3", "1.5", "1e2", "3_0", "1/-2",
    "1/0", "-3/0", "", "x", "٣",  # the last is an Arabic-Indic digit three
])
def test_matrix_reads_each_string_as_fraction_does(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as raised:
            Matrix([[text]])
        # A zero denominator is named in words, not as Fraction's repr.
        zero = isinstance(exc, ZeroDivisionError)
        assert str(raised.value) == (f"zero denominator in {text!r}" if zero else str(exc))
    else:
        # Equal matrices have equal stored integers: the entry is in lowest terms.
        assert Matrix([[text]]) == Matrix([[expected]])


def _primitive(v):
    g = math.gcd(*v)
    return [e // g for e in v] if g > 1 else v


class _StepwiseSpan(EchelonSpan):
    """``EchelonSpan`` with the insert it had before: a gcd on the input and
    after every reduction step, the reference for the one-gcd insert."""

    __slots__ = ()

    def add(self, vec):
        v = _primitive(vec)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                rp = row[p]
                v = _primitive([a * rp - c * b for a, b in zip(v, row)])
        p = next(filter(v.__getitem__, range(len(v))), None)
        if p is None:
            return None
        if v[p] < 0:
            v = [-e for e in v]
        at = bisect.bisect(self.pivots, p)
        self.pivots.insert(at, p)
        self.rows.insert(at, v)
        return tuple(v)


def _assert_inserts_match(length, vectors):
    span, ref = EchelonSpan(length), _StepwiseSpan(length)
    for v in vectors:
        assert span.add(v) == ref.add(v), v
        # Equal rows of equal type: a list is stored where the reference stores one.
        assert span.rows == ref.rows and span.pivots == ref.pivots
    # The constructor form inserts the same vectors in the same order.
    for built in (EchelonSpan(length, vectors), _StepwiseSpan(length, vectors)):
        assert built.rows == span.rows and built.pivots == span.pivots


@st.composite
def _integer_vectors(draw):
    """Independent integer vectors, small or large, in any order with
    combinations of them, as lists or tuples."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-30, 30), st.integers(-10**12, 10**12))
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n + 1))
    coeffs = st.lists(st.integers(-4, 4), min_size=len(base), max_size=len(base))
    vectors = base + [combine(c, base, n) for c in draw(st.lists(coeffs, max_size=6))]
    vectors = [tuple(v) if draw(st.booleans()) else v for v in vectors]
    return n, draw(st.permutations(vectors))


@settings(max_examples=200, deadline=None)
@given(_integer_vectors())
def test_echelon_insert_matches_the_stepwise_reference(case):
    _assert_inserts_match(*case)


def test_echelon_insert_matches_the_stepwise_reference_on_the_zoo():
    for rep in build_zoo():
        for i in range(1, rep.n):
            m = rep.deformation(i)
            _assert_inserts_match(m.nrows, list(zip(*m.num)))
            _assert_inserts_match(m.ncols, m.num)


@pytest.mark.parametrize("vec", [[-6, 0, 0, 0], (0, 4, -2, 0), [0, 0, 3, 4]])
def test_a_vector_zero_after_its_first_step_leaves_the_span_as_it_was(vec):
    """The vector vanishes at its first reduction step, with rows left to pass."""
    rows = [(2, 0, 0, 0), (1, 2, -1, 0), (0, 1, 1, 2), (0, 0, 1, 5)]
    span = EchelonSpan(4)
    for row in rows:
        span.add(row)
    before = ([list(r) for r in span.rows], list(span.pivots))
    assert span.add(vec) is None
    assert ([list(r) for r in span.rows], list(span.pivots)) == before
    _assert_inserts_match(4, rows + [vec])


def _reference_clear(vec):
    """Each entry read by ``Fraction``, which shares no code with ``_ratio``."""
    pairs = [Fraction(e).as_integer_ratio() for e in vec]
    den = math.lcm(*(d for _, d in pairs))
    return [p * (den // d) for p, d in pairs], den


# The 'p/q' strings include ones not in lowest terms, such as "4/6" and "0/7".
_ENTRIES = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=50),
                     st.integers(-99, 99).map(str), st.fractions(max_denominator=50).map(str),
                     st.sampled_from(["4/6", "-10/4", "0/7"]),
                     st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 12)))


@settings(max_examples=150, deadline=None)
@given(st.lists(_ENTRIES, max_size=12))
def test_clear_denominators_matches_the_per_entry_reference(vec):
    assert clear_denominators(vec) == _reference_clear(vec)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(st.lists(_ENTRIES, min_size=k, max_size=k),
                                                   min_size=1, max_size=4)))
def test_matrix_reads_mixed_entries_as_the_per_entry_reference(rows):
    m = Matrix(rows)
    flat, den = _reference_clear([e for row in rows for e in row])
    k = len(rows[0])
    assert m.den == den
    assert m.num == tuple(tuple(flat[i * k : (i + 1) * k]) for i in range(len(rows)))


@pytest.mark.parametrize("bad", [True, 0.5])
def test_clear_denominators_refuses_booleans_and_floats(bad):
    with pytest.raises(ValueError):
        clear_denominators([F(1, 2), bad])
    with pytest.raises(ValueError):
        Matrix([[F(1, 2), bad]])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k),
    st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any))))
def test_minimal_polynomial_is_the_least_monic_relation_of_the_krylov_vectors(case):
    rows, v = case
    m = Matrix(rows)
    krylov = [tuple(map(F, v))]
    while not Subspace(len(v), krylov[:-1]).contains(krylov[-1]) or len(krylov) == 1:
        krylov.append(m * krylov[-1])
    degree = len(krylov) - 1
    seen = EchelonSpan(len(v))
    f = minimal_polynomial(rows, v, degree, seen)
    assert len(f) == degree + 1 and f[0] == 1
    assert all(type(c) is int for c in f)
    # f(m) v = 0, term by term from the highest power down
    assert not any(sum(c * w[i] for c, w in zip(f, reversed(krylov))) for i in range(len(v)))
    assert seen.dim == degree
    assert minimal_polynomial(rows, v, degree - 1, EchelonSpan(len(v))) is None


@pytest.mark.parametrize("a, b", [(3, 3), (-5, 7), (0, 4), (10**20, -(10**20) - 1), (2**60 + 1, 2**60 + 1),
                                  (1, 2**61)])
def test_monic_roots_of_a_product_of_linear_factors(a, b):
    poly = [1, -(a + b), a * b]
    assert monic_roots(poly) == {a, b}
    # At (1, 2^61) the roots differ by 2^61 - 1, so poly and poly' share a
    # factor modulo that prime and the Euclid over Q finds a constant gcd.
    if a != b:
        assert _squarefree_part(poly) == poly


def _expand(roots, tail):
    """The coefficients, leading first, of tail times the product of (x - a)."""
    poly = list(tail)
    for a in roots:
        poly = [c - a * prev for c, prev in zip(poly + [0], [0] + poly)]
    return poly


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-50, 50), st.integers(1, 3), max_size=4), st.integers(1, 10**12),
       st.booleans())
def test_squarefree_part_keeps_each_root_once(multiplicity, c, quadratic):
    # x^2 + c has no real root, so it shares no factor with the linear ones.
    tail = [1, 0, c] if quadratic else [1]
    repeated = [a for a, m in multiplicity.items() for _ in range(m)]
    assert _squarefree_part(_expand(repeated, tail)) == _expand(list(multiplicity), tail)
