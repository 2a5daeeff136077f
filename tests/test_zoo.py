import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidrep.braid import _shift_holds, verify_braid_relations
from braidrep.errors import NotARepresentationError, ShapeError, SingularMatrixError
from braidrep.linalg import Matrix, image_basis, inverse, rank
from braidrep.zoo import (
    Representation,
    character_rep,
    conjugate_rep,
    corank,
    direct_sum,
    random_invertible_matrix,
    reduced_burau,
    rep_from_dict,
    rep_to_dict,
    save_representation,
    load_representation,
    scrambled,
    tensor_character,
    tym_standard,
)
from conftest import broken_family, build_zoo, random_families

F = Fraction
DATA = Path(__file__).resolve().parent / "data"


def test_character_corank_values():
    assert corank(character_rep(5, 1)) == 0
    assert corank(character_rep(4, 2)) == 1


def test_character_rejects_zero():
    with pytest.raises(ValueError):
        character_rep(3, 0)


def test_standard_family_first_generator_matrix():
    rep = tym_standard(3, F(7, 2))
    assert rep.generators == (Matrix([[0, F(7, 2), 0], [1, 0, 0], [0, 0, 1]]),
                              Matrix([[1, 0, 0], [0, 0, F(7, 2)], [0, 1, 0]]))


def test_standard_family_at_one_is_permutations():
    rep = tym_standard(5, 1)
    for g in rep.generators:
        assert g * g == Matrix.identity(5)
        assert all(entry in (0, 1) for row in g.rows for entry in row)


def test_standard_family_corank_depends_on_parameter():
    assert corank(tym_standard(6, 3)) == 2
    assert corank(tym_standard(6, 2)) == 2
    assert corank(tym_standard(6, 1)) == 1
    for u in (F(5, 3), F(-1), F(1, 2)):
        assert corank(tym_standard(7, u)) == 2


def test_standard_family_rejects_zero_parameter():
    with pytest.raises(ValueError):
        tym_standard(4, 0)


def test_burau_corank_is_one():
    assert corank(reduced_burau(6, 2)) == 1
    assert corank(reduced_burau(5, 3)) == 1


def test_burau_smallest_case_satisfies_relations():
    rep = reduced_burau(3, 1)
    assert rep.r == 2
    assert verify_braid_relations(rep).ok


def test_burau_rejects_zero_parameter():
    with pytest.raises(ValueError):
        reduced_burau(5, 0)


def test_tensor_by_one_is_identity():
    rep = tym_standard(5, 2)
    assert tensor_character(rep, 1) == rep


def test_tensor_of_characters_multiplies_parameters():
    assert tensor_character(character_rep(6, 2), 3) == character_rep(6, 6)


def test_tensor_scales_generator_entries():
    rep = tym_standard(5, 2)
    scaled = tensor_character(rep, 3)
    for g, h in zip(scaled.generators, rep.generators, strict=True):
        assert g == h * 3


def test_tensor_composition_law():
    rep = reduced_burau(5, 2)
    twice = tensor_character(tensor_character(rep, F(2, 3)), F(9, 2))
    assert twice == tensor_character(rep, 3)


def test_direct_sum_of_trivial_characters():
    rep = direct_sum(character_rep(6, 1), character_rep(6, 1))
    assert rep.r == 2
    assert rep.generators == (Matrix.identity(2),) * 5


def test_direct_sum_block_structure():
    rep = direct_sum(tym_standard(6, 2), character_rep(6, 5))
    assert rep.r == 7
    g = rep.generators[0]
    assert g.rows[6][6] == 5
    assert all(g.rows[6][j] == 0 and g.rows[j][6] == 0 for j in range(6))


def test_direct_sum_corank_adds():
    rep = direct_sum(reduced_burau(6, 2), reduced_burau(6, 3))
    assert corank(rep) == 2


def test_direct_sum_requires_equal_strands():
    with pytest.raises(ShapeError):
        direct_sum(character_rep(5, 2), character_rep(6, 2))


def test_conjugation_by_identity_is_identity():
    rep = tym_standard(5, 2)
    assert conjugate_rep(rep, Matrix.identity(5)) == rep


def test_conjugation_preserves_corank_and_relations():
    rep = tym_standard(6, 2)
    twisted = scrambled(rep, 42)
    assert corank(twisted) == corank(rep)
    assert verify_braid_relations(twisted).ok
    assert "seed=42" in twisted.label


def test_conjugation_by_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        conjugate_rep(tym_standard(4, 2), Matrix.zero(4, 4))


def test_corank_rejects_unequal_deformation_ranks():
    rep = Representation(
        4, 2,
        [Matrix([[1, 0], [0, 2]]), Matrix([[3, 0], [0, 4]]), Matrix([[0, 1], [1, 0]])],
    )
    with pytest.raises(NotARepresentationError):
        corank(rep)


def test_deformation_of_trivial_family_is_zero():
    rep = character_rep(5, 1)
    for i in range(5):
        assert rep.deformation(i).is_zero()
        assert rep.deformation(i) == Matrix.zero(rep.r, rep.r)


def test_deformation_block_of_standard_family():
    a1 = tym_standard(4, F(7)).deformation(1)
    assert a1 == Matrix(
        [[-1, 7, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )


def test_derived_deformation_matches_conjugation():
    rep = tym_standard(5, 3)
    expected = rep.tau * rep.deformation(4) * inverse(rep.tau)
    assert rep.deformation(0) == expected


def test_generator_images_must_be_invertible():
    with pytest.raises(SingularMatrixError):
        Representation(3, 2, [Matrix([[1, 1], [1, 1]]), Matrix.identity(2)])


@pytest.mark.parametrize("n, at", [(2, 0), (5, 0), (5, 2), (5, 3)])
def test_singular_generator_is_refused_at_any_position(n, at):
    gens = list(tym_standard(n, 2).generators)
    gens[at] = Matrix([[int(i == j and j != at) for j in range(n)] for i in range(n)])
    with pytest.raises(SingularMatrixError, match="^generator image is singular$"):
        Representation(n, n, gens)


ENTRY = st.integers(-2, 2)


@st.composite
def _generator(draw, r):
    """An r x r integer matrix: dense with entries in -2..2 (mostly of full
    deformation rank), or 1 + u v^T, forced singular when ``singular`` is drawn."""
    kind = draw(st.sampled_from(["dense", "update", "singular"]))
    if kind == "dense":
        return Matrix([[draw(ENTRY) for _ in range(r)] for _ in range(r)])
    u, v = [draw(ENTRY) for _ in range(r)], [draw(ENTRY) for _ in range(r)]
    if kind == "singular":
        # det(1 + u v^T) = 1 + v^T u, which v_j sets to 0 when u_j = +-1.
        j = draw(st.integers(0, r - 1))
        u[j], v[j] = draw(st.sampled_from([1, -1])), 0
        v[j] = -(1 + sum(a * b for a, b in zip(u, v))) * u[j]
    return Matrix([[int(i == j) + u[i] * v[j] for j in range(r)] for i in range(r)])


@st.composite
def _families(draw):
    n, r = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    return n, r, [draw(_generator(r)) for _ in range(n - 1)]


# Deformation ranks 1 and 2 below r = 3, invertible, then beside a singular
# generator whose deformation image is the line through (1, 1, 0): k < r.
# The last family is singular at deformation rank r = 2, where the k x k
# matrix of Sylvester's identity is r x r.
_SHEAR = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
_PLANE = Matrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
_SKEW = Matrix([[0, 0, 0], [-1, 1, 0], [0, 0, 1]])


@settings(max_examples=200, deadline=None)
@given(_families())
@example((3, 3, [_SHEAR, _PLANE]))
@example((4, 3, [_SHEAR, _PLANE, _SKEW]))
@example((4, 2, [Matrix([[1, 1], [0, 1]]), Matrix([[1, 2], [2, 4]]), Matrix([[0, 1], [1, 0]])]))
def test_generators_are_refused_exactly_when_one_is_singular(family):
    """Sylvester's rule, the rank of the k x k matrix s_i + Y_i R_i^T, at every
    deformation rank k: below r, and at k = r, where it is s_i + Y_i."""
    n, r, gens = family
    if any(rank(g) < r for g in gens):
        with pytest.raises(SingularMatrixError, match="^generator image is singular$"):
            Representation(n, r, gens)
    else:
        rep = Representation(n, r, gens)
        assert inverse(rep.tau) * rep.tau == Matrix.identity(r)


def test_full_images_are_proved_invertible_without_d():
    # Every deformation of the twist has full rank: Sylvester's rule reads
    # the r x r matrices s_i + Y_i, and D is left unformed.
    rep = tensor_character(tym_standard(6, 2), 3)
    assert any(rep.image(i).is_full() for i in range(1, rep.n))
    assert "tau" not in vars(rep)


_FULL_IMAGE_FAMILIES = [
    character_rep(5, 3),
    tensor_character(tym_standard(5, 2), 3),
    direct_sum(tensor_character(tym_standard(4, 2), -1), tensor_character(reduced_burau(4, 3), F(2, 3))),
    scrambled(tensor_character(reduced_burau(5, 2), F(1, 2)), 3),
]


@pytest.mark.parametrize("rep", _FULL_IMAGE_FAMILIES, ids=repr)
def test_full_images_are_held_as_the_identity_rows(rep):
    """Each image of a family with full images, Im A_0 among them, has the
    identity rows as its canonical rows, so R^T y is y and A_i = y / s."""
    identity = tuple(tuple(int(p == q) for q in range(rep.r)) for p in range(rep.r))
    for i in range(rep.n):
        img, y, s = rep.factor(i)
        assert (img.rows, img.pivots) == (identity, tuple(range(rep.r))), i
        assert rep.deformation(i) == Matrix([[F(e, s) for e in row] for row in y]), i


def test_shape_errors_come_before_singularity():
    zero = Matrix.zero(2, 2)
    with pytest.raises(ShapeError):
        Representation(3, 2, [zero, Matrix.identity(3)])
    with pytest.raises(ShapeError):
        Representation(3, 2, [zero])
    with pytest.raises(ShapeError, match="dimension must be at least 1"):
        Representation(3, 0, [Matrix(()), Matrix(())])


def test_deformations_are_built_per_index():
    rep = tym_standard(6, 2)
    assert rep.deformation(1) == rep.generators[0] - Matrix.identity(6)
    assert rep.deformation(5) == rep.generators[4] - Matrix.identity(6)
    assert "sigma0" not in vars(rep)
    assert rep.deformation(0) == rep.sigma0 - Matrix.identity(6)


def test_random_invertible_matrix_is_seeded_and_invertible():
    a = random_invertible_matrix(4, Random(5))
    b = random_invertible_matrix(4, Random(5))
    assert a == b
    assert rank(a) == 4


def _nonzero_rationals(rng, count):
    out = []
    while len(out) < count:
        value = F(rng.randint(-9, 9), rng.randint(1, 9))
        if value:
            out.append(value)
    return out


def test_constructor_sweep_passes_relations():
    rng = Random(8128)
    for n in range(3, 11):
        for u in _nonzero_rationals(rng, 20):
            rep = tym_standard(n, u)
            assert verify_braid_relations(rep).ok, (n, u)
        for t in _nonzero_rationals(rng, 20):
            rep = reduced_burau(n, t)
            assert verify_braid_relations(rep).ok, (n, t)


def test_json_round_trip_is_bit_exact(tmp_path, zoo):
    for rep in zoo[:6]:
        path = tmp_path / "rep.json"
        save_representation(rep, path)
        loaded = load_representation(path)
        assert loaded == rep
        assert loaded.label == rep.label
        assert rep_to_dict(loaded) == rep_to_dict(rep)


def test_json_file_schema_shape(tmp_path):
    rep = tym_standard(3, F(5, 3))
    path = tmp_path / "rep.json"
    save_representation(rep, path)
    data = json.loads(path.read_text())
    assert set(data) == {"n", "r", "generators", "label"}
    assert data["n"] == 3 and data["r"] == 3
    assert data["generators"][0][0] == ["0", "5/3", "0"]


def test_malformed_json_data_raises():
    with pytest.raises(ShapeError):
        rep_from_dict({"n": 3, "generators": "nope"})


@pytest.mark.parametrize("data", [[], [1, 2], "tym", 3, None])
def test_json_data_that_is_not_an_object_is_malformed(data):
    with pytest.raises(ShapeError) as info:
        rep_from_dict(data)
    assert str(info.value) == "malformed representation data: expected a JSON object"


def test_null_label_reads_as_a_missing_one():
    data = rep_to_dict(tym_standard(3, 2))
    del data["label"]
    assert rep_from_dict({**data, "label": None}).label == rep_from_dict(data).label == ""


def test_representation_equality_defers_to_other_types_and_repr_names_the_family():
    rep = tym_standard(3, 2)
    assert rep.__eq__("tym") is NotImplemented
    assert rep != "tym"
    assert repr(rep) == f"Representation(n=3, r=3, label={rep.label!r})"


def _shifted_image_inputs():
    yield from build_zoo()
    yield broken_family()
    yield from random_families()
    yield load_representation(DATA / "broken_family.json")
    yield direct_sum(tym_standard(3, 2), reduced_burau(3, 2))
    yield direct_sum(scrambled(tym_standard(4, 5), 2), character_rep(4, -1))
    yield tensor_character(tym_standard(4, F(5, 3)), -2)
    yield tensor_character(scrambled(reduced_burau(4, 3), 6), F(1, 3))
    yield scrambled(tensor_character(reduced_burau(5, 2), F(1, 2)), 3)
    yield tym_standard(2, 3)
    yield scrambled(tym_standard(2, -1), 4)
    yield character_rep(2, 5)
    yield scrambled(tym_standard(3, 2), 5)
    yield reduced_burau(3, -1)


@pytest.mark.parametrize("rep", list(_shifted_image_inputs()), ids=repr)
def test_image_of_the_derived_deformation_is_the_shifted_image(rep):
    """Im A_0, formed through the factors as D Im A_(n-1), is the column
    space of A_0 = sigma0 - 1 formed densely."""
    shifted = rep.image(0)
    assert shifted == image_basis(rep.deformation(0))
    assert rep.factor(0)[0] == shifted


@pytest.mark.parametrize("rep", list(_shifted_image_inputs()), ids=repr)
def test_shift_gives_the_coordinates_of_the_shifted_image(rep):
    """The D-shift of the relation check, read from the coordinates of
    D Im A_i in Im A_(i+1), is D A_i = A_(i+1) D formed densely."""
    for i in range(rep.n - 1):
        assert _shift_holds(rep, i) == (rep.tau * rep.deformation(i) == rep.deformation(i + 1) * rep.tau), i


@pytest.mark.parametrize("rep", build_zoo(), ids=repr)
def test_conjugation_in_factored_form_matches_the_dense_products(rep):
    p = random_invertible_matrix(rep.r, Random(rep.r))
    pinv = inverse(p)
    assert conjugate_rep(rep, p).generators == tuple(pinv * g * p for g in rep.generators)


def test_conjugation_forms_neither_product_of_the_images():
    rep, p = scrambled(tym_standard(8, 2), 3), random_invertible_matrix(8, Random(3))
    assert "tau" not in vars(rep)
    assert rep.tau == inverse(p) * tym_standard(8, 2).tau * p
