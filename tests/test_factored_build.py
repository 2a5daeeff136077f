"""The builders hand the factors of their deformations to the representation
directly; these tests hold them to the dense construction they replace.

The reference below builds every generator image as an r x r matrix, the
identity with the family's block in place (``_embed``) or the block-diagonal
sum of two images (``_block_diagonal``), and lets the public constructor
factor it.  A factored build must give the same factors, the same dense
images on demand, and an equal, equally hashed value.
"""

import contextlib
import io
import math
from fractions import Fraction
from itertools import product
from random import Random

import pytest

import braidrep.cli as cli
import braidrep.zoo as zoo
from braidrep.cli import parse_rep_spec, run
from braidrep.errors import SingularMatrixError
from braidrep.linalg import Matrix, _lowest_terms, inverse, rank
from braidrep.zoo import Representation, random_invertible_matrix, scrambled

F = Fraction


def _embed(size, at, block):
    """The size x size identity with the square block of rationals at (at, at)."""
    rows = [[F(int(i == j)) for j in range(size)] for i in range(size)]
    for i, brow in enumerate(block):
        rows[at + i][at : at + len(block)] = brow
    return Matrix(rows)


def _block_diagonal(a, b):
    """The block-diagonal matrix with a above b."""
    size = a.nrows + b.nrows
    rows = [[0] * size for _ in range(size)]
    den = math.lcm(a.den, b.den)
    for at, m in ((0, a), (a.nrows, b)):
        for i, row in enumerate(m.num):
            rows[at + i][at : at + m.ncols] = [e * (den // m.den) for e in row]
    return _lowest_terms(rows, den)


def _dense(spec):
    """``(n, r, images)`` of a spec of the grid, built densely."""
    family, arg = spec
    if family == "tym":
        n, u = arg
        return n, n, [_embed(n, i - 1, ((0, u), (1, 0))) for i in range(1, n)]
    if family == "burau":
        n, t = arg
        blocks = {1: (0, ((-t, 0), (1, 1))), n - 1: (n - 3, ((1, t), (0, -t)))}
        return n, n - 1, [_embed(n - 1, *blocks.get(i, (i - 2, ((1, t, 0), (0, -t, 0), (0, 1, 1)))))
                          for i in range(1, n)]
    if family == "char":
        n, y = arg
        return n, 1, [Matrix(((y,),))] * (n - 1)
    if family == "dsum":
        (n, r, gens), (_, q, gens2) = map(_dense, arg)
        return n, r + q, [_block_diagonal(g, h) for g, h in zip(gens, gens2)]
    inner, seed = arg
    n, r, gens = _dense(inner)
    p = random_invertible_matrix(r, Random(seed))
    return n, r, [inverse(p) * g * p for g in gens]


def _text(spec):
    family, arg = spec
    if family == "dsum":
        return f"dsum({_text(arg[0])},{_text(arg[1])})"
    if family == "conj":
        return f"conj({_text(arg[0])},seed={arg[1]})"
    key = {"tym": "u", "burau": "t", "char": "y"}[family]
    return f"{family}:n={arg[0]},{key}={arg[1]}"


def _atoms(n):
    yield from (("tym", (n, u)) for u in (F(2), F(-1), F(5, 3), F(1), F(-2, 3)))
    if n >= 3:
        yield from (("burau", (n, t)) for t in (F(2), F(-1), F(5, 3)))
    yield from (("char", (n, y)) for y in (F(3), F(1), F(-1, 2)))


def _grid():
    """tym on 2..16 strands, Burau on 3..16 and the characters; the sum of
    each pair of atoms on 3, 6 and 9 strands; nested sums with the trivial
    character; and the conjugates of a sample of all of these."""
    specs = [spec for n in range(2, 17) for spec in _atoms(n) if spec[0] != "char" or n in (2, 3, 6, 9)]
    for n in (3, 6, 9):
        atoms = list(_atoms(n))
        specs += [("dsum", pair) for pair in product(atoms, repeat=2)]
        trivial = ("char", (n, F(1)))
        specs += [("dsum", (("dsum", (atoms[0], trivial)), atoms[-4])),
                  ("dsum", (trivial, ("dsum", (trivial, atoms[2]))))]
    specs += [("conj", (spec, seed)) for seed, spec in enumerate(specs[::23], 1)]
    specs.append(("conj", (("conj", (("tym", (5, F(2))), 1)), 2)))
    return specs


GRID = _grid()


@pytest.mark.parametrize("spec", GRID, ids=_text)
def test_factored_build_equals_the_dense_build(spec):
    rep, _ = parse_rep_spec(_text(spec))
    n, r, gens = _dense(spec)
    dense = Representation(n, r, gens)
    assert (rep.n, rep.r) == (n, r)
    for i in range(1, n):
        (img, y, s), (img2, y2, s2) = rep.factor(i), dense.factor(i)
        assert (img.rows, img.pivots, y, s) == (img2.rows, img2.pivots, y2, s2), i
        assert rep.deformation(i) == dense.deformation(i), i
    assert "generators" not in vars(rep)
    assert rep.generators == tuple(gens)
    assert rep == dense and hash(rep) == hash(dense)


@pytest.fixture
def image_basis_calls(monkeypatch):
    calls, original = [], zoo.image_basis

    def spy(m):
        calls.append(m.shape)
        return original(m)

    monkeypatch.setattr(zoo, "image_basis", spy)
    return calls


def _atom_count(spec):
    family, arg = spec
    if family == "dsum":
        return sum(map(_atom_count, arg))
    return _atom_count(arg[0]) if family == "conj" else 1


@pytest.mark.parametrize("spec", GRID, ids=_text)
def test_building_a_spec_factors_no_dense_image(image_basis_calls, spec):
    """Only the blocks, at most 3 x 3, are factored, each distinct block of
    an atom once (Burau has three): no r x r image is factored again.  Below
    r = 4 a block can be as wide as the whole space."""
    rep, _ = parse_rep_spec(_text(spec))
    assert all(shape[1] <= 3 for shape in image_basis_calls), image_basis_calls
    assert len(image_basis_calls) <= 3 * _atom_count(spec)
    if rep.r > 3:
        assert all(shape[1] < rep.r for shape in image_basis_calls)


PLAIN = ["tym:n=3,u=2", "tym:n=6,u=5/3", "tym:n=8,u=1", "tym:n=14,u=2/3", "burau:n=3,t=2",
         "burau:n=7,t=5/3", "burau:n=6,t=-1", "dsum(tym:n=6,u=2,char:n=6,y=3)",
         "dsum(tym:n=5,u=1,char:n=5,y=1)", "dsum(tym:n=2,u=3,char:n=2,y=-1/2)", "tym:n=2,u=2"]


VERBS = [["analyze"], ["analyze", "--format", "text"], ["verify"], ["irreducible"]]


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("spec", PLAIN)
def test_the_verbs_never_form_the_dense_images_of_a_plain_spec(monkeypatch, spec, verb):
    built, load = [], cli._load_source
    monkeypatch.setattr(cli, "_load_source", lambda *args: built.append(load(*args)) or built[-1])
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([verb[0], spec, *verb[1:]]) == 0
    assert "generators" not in vars(built[0])


@pytest.mark.parametrize("block", [((1, 2), (2, 4)), ((0,),), ((1, 0, 0), (0, 1, 1), (0, 2, 2))])
def test_a_singular_block_is_refused(block):
    with pytest.raises(SingularMatrixError, match="^generator image is singular$"):
        zoo._invertible_factor(Matrix([list(map(F, row)) for row in block]))


@pytest.mark.parametrize("image", [
    [[0, 0], [0, 2]],  # g - 1 = diag(-1, 1) has full rank: k = r
    [[0, 0, 0], [0, 1, 0], [0, 0, 1]],  # g - 1 has rank one: k < r
], ids=["full_rank_deformation", "rank_one_deformation"])
def test_a_singular_dense_image_is_refused_by_the_constructor(image):
    r = len(image)
    with pytest.raises(SingularMatrixError, match="^generator image is singular$"):
        Representation(3, r, [Matrix.identity(r), Matrix(image)])


@pytest.mark.parametrize("spec, calls", [
    ("conj(burau:n=8,t=3,seed=5)", 7), ("tym:n=6,u=2", 5), ("conj(tensor(tym:n=5,u=2,y=3),seed=1)", 4),
])
def test_one_routine_proves_every_image_invertible(monkeypatch, spec, calls):
    # The public constructor proves each of its n - 1 images, and the builders
    # prove each distinct block once; a sum or a change of basis proves nothing.
    source = parse_rep_spec(spec)[0]
    gens, proved, prove = source.generators, [], zoo._invertible_factor
    monkeypatch.setattr(zoo, "_invertible_factor", lambda g: proved.append(g) or prove(g))
    rep = Representation(source.n, source.r, gens)
    assert proved == list(gens) and len(proved) == calls
    proved.clear()
    zoo.tym_standard(8, 2), zoo.character_rep(8, 3), zoo.reduced_burau(8, 2)
    assert len(proved) == 1 + 1 + 3
    summands = zoo.tym_standard(4, 2), zoo.character_rep(4, 3)
    proved.clear()
    zoo.direct_sum(*summands), zoo.scrambled(rep, 3)
    assert proved == []


def test_a_twist_proves_nothing(monkeypatch):
    # y g is invertible exactly when g is, as p^-1 g p is for a change of basis.
    rep, proved, prove = zoo.tym_standard(8, 2), [], zoo._invertible_factor
    monkeypatch.setattr(zoo, "_invertible_factor", lambda g: proved.append(g) or prove(g))
    twist = zoo.tensor_character(rep, 3)
    assert proved == []
    assert twist.generators == tuple(g * 3 for g in rep.generators)


def _reference_invertible_matrix(size, rng):
    """The draw-and-retry rule of ``random_invertible_matrix``: the first
    matrix of entries in -3..3 of full rank."""
    while True:
        m = Matrix([[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)])
        if rank(m) == size:
            return m


def test_random_invertible_matrix_keeps_its_draws():
    for size in range(1, 17):
        for seed in range(51):
            rng, ref_rng = Random(seed), Random(seed)
            assert random_invertible_matrix(size, rng) == _reference_invertible_matrix(size, ref_rng)
            assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("size, seed", [(1, 0), (1, 3), (4, 2), (8, 7), (16, 5)])
def test_scrambled_eliminates_its_change_of_basis_once(monkeypatch, size, seed):
    p = random_invertible_matrix(size, Random(seed))
    calls, original_inverse = [], zoo.inverse

    def spy(original):
        return lambda m: calls.append(m == p) or original(m)

    monkeypatch.setattr(zoo, "inverse", spy(original_inverse))
    rep = zoo.tym_standard(size, 2) if size > 1 else zoo.character_rep(3, 2)
    calls.clear()
    scrambled(rep, seed)
    assert calls.count(True) == 1
