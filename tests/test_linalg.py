import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.errors import ShapeError, SingularMatrixError
from braidrep.linalg import (
    Matrix,
    Subspace,
    charpoly,
    conjugate,
    format_rational,
    image_basis,
    intersect_stacked_kernel,
    inverse,
    kernel_basis,
    rank,
    rational,
    rational_eigenvalues,
)

F = Fraction


def subspace(*vectors):
    return Subspace(len(vectors[0]), vectors)


def e(i, dim):
    return tuple(F(int(j == i)) for j in range(dim))


def test_rational_parsing_and_formatting():
    assert rational("5/3") == F(5, 3)
    assert rational("-7/4") == F(-7, 4)
    assert rational(4) == F(4)
    assert format_rational(F(5, 3)) == "5/3"
    assert format_rational(F(5, 1)) == "5"
    assert format_rational(F(-7, 4)) == "-7/4"
    with pytest.raises(ValueError):
        rational(0.5)


def test_matrix_refuses_floats():
    with pytest.raises(ValueError):
        Matrix([[0.1, 1]])
    with pytest.raises(ValueError):
        Matrix.identity(2) * (0.5, 1)
    assert Matrix([["1/10", 1]]) == Matrix([[F(1, 10), F(1)]])


def test_rational_round_trip_is_exact():
    values = [F(3, 7), F(-22, 6), F(0), F(10**40, 3)]
    for v in values:
        assert rational(format_rational(v)) == v


def test_rank_of_opposite_rows_is_one():
    assert rank(Matrix([[-1, 1], [1, -1]])) == 1


def test_rank_of_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zero(4, 4)) == 0


def test_image_of_invertible_matrix_is_full():
    img = image_basis(Matrix([[-1, 2], [1, -1]]))
    assert img == Subspace.full(2)


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


def test_sum_requires_matching_ambient():
    with pytest.raises(ShapeError):
        subspace((1, 0)) + subspace((1, 0, 0))


def test_sum_of_coordinate_lines():
    assert subspace(e(0, 3)) + subspace(e(1, 3)) == subspace(e(0, 3), e(1, 3))


def test_sum_with_zero_is_identity():
    u = subspace((1, 2, 3))
    assert u + Subspace.zero(3) == u


def test_sum_of_overlapping_planes_has_dimension_three():
    u = subspace(e(0, 4), e(1, 4))
    v = subspace(e(1, 4), e(2, 4))
    assert (u + v).dim == 3


def test_inverse_of_antidiagonal():
    inv = inverse(Matrix([[0, 2], [1, 0]]))
    assert inv == Matrix([[0, 1], [F(1, 2), 0]])


def test_inverse_of_identity():
    assert inverse(Matrix.identity(4)) == Matrix.identity(4)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[1, 1], [1, 1]]))


def test_conjugate_of_identity_is_identity():
    c = Matrix([[1, 2], [0, 1]])
    assert conjugate(Matrix.identity(2), c) == Matrix.identity(2)


def test_conjugate_by_identity_is_unchanged():
    m = Matrix([[1, 2], [3, 4]])
    assert conjugate(m, Matrix.identity(2)) == m


def test_conjugate_diagonal_by_swap():
    swap = Matrix([[0, 1], [1, 0]])
    assert conjugate(Matrix([[1, 0], [0, 2]]), swap) == Matrix([[2, 0], [0, 1]])


def test_conjugate_by_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        conjugate(Matrix.identity(2), Matrix([[1, 1], [1, 1]]))


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


def test_charpoly_of_companion_like_block():
    coeffs = charpoly(Matrix([[-1, 1], [1, -1]]))
    assert coeffs == [F(1), F(2), F(0)]


def test_canonical_form_is_spanning_set_independent():
    a = subspace((1, 0, 1), (0, 1, 1))
    b = subspace((1, 1, 2), (1, -1, 0))
    assert a == b
    assert a.basis_vectors() == b.basis_vectors()


def test_contains_and_coordinates():
    u = subspace((1, 0, 2), (0, 1, 3))
    v = (F(2), F(1), F(7))
    assert u.contains(v)
    coords = u.coordinates(v)
    mixed = tuple(
        sum((c * b[k] for c, b in zip(coords, u.basis_vectors())), F(0)) for k in range(3)
    )
    assert mixed == v
    assert not u.contains((1, 1, 1))
    assert u.coordinates((1, 1, 1)) is None


def test_matrix_vector_and_scalar_products():
    m = Matrix([[1, 2], [3, 4]])
    assert m * (1, 1) == (F(3), F(7))
    assert (m * 2) == Matrix([[2, 4], [6, 8]])
    assert (2 * m) == Matrix([[2, 4], [6, 8]])


def test_matrix_serialization_round_trip():
    m = Matrix([[F(1, 3), F(-2)], [F(0), F(7, 5)]])
    assert Matrix.from_strings(m.to_strings()) == m


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
        assert (u + v).dim + u.intersect(v).dim == u.dim + v.dim


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
    _check_kernel_form(-ma, [[-x for x in r] for r in a])
    _check_kernel_form(ma * c, [[x * c for x in r] for r in a])
    _check_kernel_form(c * ma, [[c * x for x in r] for r in a])
    _check_kernel_form(ma.transpose(), [list(col) for col in zip(*a)])
    product = ma * v
    assert all(type(e) is Fraction for e in product)
    assert list(product) == [sum((x * y for x, y in zip(r, v)), F(0)) for r in a]
    assert msq.trace == sum((sq[i][i] for i in range(len(sq))), F(0))
    assert msq.is_zero() == (not any(x for r in sq for x in r))
    ref_inv = _ref_inverse(sq)
    if ref_inv is None:
        with pytest.raises(SingularMatrixError):
            inverse(msq)
    else:
        _check_kernel_form(inverse(msq), ref_inv)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n),
                                                   min_size=n, max_size=n)))
def test_charpoly_matches_determinants_over_fractions(a):
    # Two polynomials of degree n that agree at n + 1 points are equal.
    n, coeffs = len(a), charpoly(Matrix(a))
    assert len(coeffs) == n + 1 and coeffs[0] == 1
    assert all(type(c) is Fraction for c in coeffs)
    for x in range(n + 1):
        shifted = [[x * (i == j) - e for j, e in enumerate(row)] for i, row in enumerate(a)]
        assert sum(c * x ** (n - k) for k, c in enumerate(coeffs)) == _ref_det(shifted)


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
    expected = [[format_rational(e) for e in row] for row in m.rows]
    assert m.to_strings() == expected
    assert Matrix.from_strings(expected) == m


@pytest.mark.parametrize("text", [
    "3", "-0", "007", "3/6", "-3/6", "0/5", " 3", "+3", "1.5", "1e2", "3_0", "1/-2",
    "1/0", "-3/0", "", "x", "٣",  # the last is an Arabic-Indic digit three
])
def test_from_strings_reads_each_string_as_fraction_does(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as raised:
            Matrix.from_strings([[text]])
        assert str(raised.value) == str(exc)
    else:
        # Equal matrices have equal stored integers: the entry is in lowest terms.
        assert Matrix.from_strings([[text]]) == Matrix([[expected]])
