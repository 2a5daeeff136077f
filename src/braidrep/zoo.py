"""Constructors and combinators for braid group matrix representations.

Each Representation stores the n-1 generator images, their product D and
its inverse; the derived image of s0, the deformations A_i = image - 1, their
images and the pairwise intersections of those images are computed on demand
and cached.  All values are immutable after construction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul
from random import Random

from . import braid
from .errors import NotARepresentationError, ShapeError, SingularMatrixError
from .linalg import (
    Matrix,
    Subspace,
    block_diagonal,
    clear_denominators,
    image_basis,
    inverse,
    rank,
    rational,
)


class Representation:
    """A family of invertible r x r matrices indexed by the generators.

    The constructor enforces shape and invertibility only; properties that
    hold for genuine representations (equal deformation ranks, the defining
    relations) are checked by the dedicated verification operations, so
    deliberately broken families can be built as negative test inputs.
    """

    def __init__(self, n, r, generators, label=""):
        if n < 2:
            raise ValueError("need at least 2 strands")
        if r < 1:
            raise ShapeError(f"dimension must be at least 1, got {r}")
        generators = tuple(generators)
        if len(generators) != n - 1:
            raise ShapeError(f"expected {n - 1} generator images, got {len(generators)}")
        if any(g.shape != (r, r) for g in generators):
            raise ShapeError("generator images must all be square of the stated size")
        self.n = n
        self.r = r
        self.generators = generators
        self.label = label
        self._inverses = {}
        self._deformations = {}
        self._meets = {}
        # D = g_1 ... g_(n-1), the image of delta, is invertible exactly when
        # every g_i is; sigma0 needs D^-1 anyway.
        self.tau = reduce(mul, generators)
        try:
            self.tau_inverse = inverse(self.tau)
        except SingularMatrixError:
            raise SingularMatrixError("generator image is singular") from None

    def gen(self, i) -> Matrix:
        """Image of generator i, with i = 0 giving the derived s0 image."""
        if i == 0:
            return self.sigma0
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"generator index {i} out of range")
        return self.generators[i - 1]

    def gen_inverse(self, i) -> Matrix:
        if i not in self._inverses:
            self._inverses[i] = inverse(self.gen(i))
        return self._inverses[i]

    @cached_property
    def sigma0(self) -> Matrix:
        return self.tau * self.generators[-1] * self.tau_inverse

    def deformation(self, i) -> Matrix:
        """A_i = image of generator i minus the identity, for i in 0..n-1."""
        if not 0 <= i <= self.n - 1:
            raise IndexError(f"deformation index {i} out of range")
        if i not in self._deformations:
            self._deformations[i] = self.gen(i) - Matrix.identity(self.r)
        return self._deformations[i]

    @cached_property
    def images(self) -> tuple[Subspace, ...]:
        """Column spaces of the deformations A_0..A_{n-1}."""
        return tuple(image_basis(self.deformation(i)) for i in range(self.n))

    @cached_property
    def shift_invariant(self) -> bool:
        """Whether D maps Im A_i onto Im A_(i+1) for i <= n-2, as in every
        representation (delta s_i delta^-1 = s_(i+1)); at i = n-1 it holds by
        the definition of sigma0.  Then D shifts every meet of images too."""
        d, ims = self.tau.num, self.images
        return all(
            ims[i].dim == ims[i + 1].dim
            and all(ims[i + 1].contains_ints([sum(map(mul, row, v)) for row in d]) for v in ims[i].rows)
            for i in range(self.n - 1)
        )

    def meet(self, i, j) -> Subspace:
        """Intersection of the images of A_i and A_j, cached per unordered pair."""
        lo, hi = min(i, j), max(i, j)
        if (lo, hi) not in self._meets:
            if lo < 0 or hi > self.n - 1:
                raise IndexError(f"deformation index pair {(i, j)} out of range")
            self._meets[lo, hi] = self.images[lo].intersect(self.images[hi])
        return self._meets[lo, hi]

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.n, self.r, self.generators) == (other.n, other.r, other.generators)

    def __hash__(self):
        return hash((self.n, self.r, self.generators))

    def __repr__(self):
        return f"Representation(n={self.n}, r={self.r}, label={self.label!r})"


def character_rep(n, y) -> Representation:
    """The one-dimensional family sending every generator to [y]."""
    y = rational(y)
    if y == 0:
        raise ValueError("character parameter must be nonzero")
    g = Matrix(((y,),))
    return Representation(n, 1, (g,) * (n - 1), label=f"char(n={n},y={y})")


def _embed(size, at, block):
    """The size x size identity with the square block of rationals placed at
    (at, at), built from integer rows over the block's common denominator."""
    k = len(block)
    flat, den = clear_denominators([e for brow in block for e in brow])
    rows = [[den * (i == j) for j in range(size)] for i in range(size)]
    for i in range(k):
        rows[at + i][at : at + k] = flat[i * k : (i + 1) * k]
    return Matrix(rows) * Fraction(1, den)


def tym_standard(n, u) -> Representation:
    """The n-dimensional one-parameter family with the 2x2 block [[0,u],[1,0]].

    Generator i acts as the identity outside rows/columns i-1 and i, where
    it carries the block; at u = 1 the images are transposition matrices.
    """
    u = rational(u)
    if u == 0:
        raise ValueError("block parameter must be nonzero")
    if n < 2:
        raise ValueError("need at least 2 strands")
    gens = [_embed(n, i - 1, ((0, u), (1, 0))) for i in range(1, n)]
    return Representation(n, n, gens, label=f"tym(n={n},u={u})")


def reduced_burau(n, t) -> Representation:
    """Reduced Burau specialization at t, in the (n-1)-dimensional convention
    with first block [[-t,0],[1,1]], middle blocks [[1,t,0],[0,-t,0],[0,1,1]]
    and last block [[1,t],[0,-t]].  The defining relations are re-verified on
    the constructed matrices, so a transcription error cannot survive.
    """
    t = rational(t)
    if t == 0:
        raise ValueError("Burau parameter must be nonzero")
    if n < 3:
        raise ValueError("need at least 3 strands")
    r = n - 1
    gens = []
    for i in range(1, n):
        if i == 1:
            gens.append(_embed(r, 0, ((-t, 0), (1, 1))))
        elif i == n - 1:
            gens.append(_embed(r, n - 3, ((1, t), (0, -t))))
        else:
            gens.append(_embed(r, i - 2, ((1, t, 0), (0, -t, 0), (0, 1, 1))))
    rep = Representation(n, r, gens, label=f"burau(n={n},t={t})")
    report = braid.verify_braid_relations(rep)
    if not report.ok:
        raise NotARepresentationError(f"Burau matrices violate relations: {report.failures}")
    return rep


def tensor_character(rep, y) -> Representation:
    """Scale every generator image entry-wise by the nonzero scalar y."""
    y = rational(y)
    if y == 0:
        raise ValueError("character parameter must be nonzero")
    gens = [g * y for g in rep.generators]
    return Representation(rep.n, rep.r, gens, label=f"tensor({rep.label},y={y})")


def direct_sum(a, b) -> Representation:
    """Block-diagonal sum of two families on the same strand count."""
    if a.n != b.n:
        raise ShapeError("strand counts differ")
    gens = [block_diagonal((g, h)) for g, h in zip(a.generators, b.generators)]
    return Representation(a.n, a.r + b.r, gens, label=f"dsum({a.label},{b.label})")


def conjugate_rep(rep, p, label=None) -> Representation:
    """Replace every generator image m by p^-1 m p."""
    if p.shape != (rep.r, rep.r):
        raise ShapeError("change of basis has the wrong size")
    pinv = inverse(p)
    gens = [pinv * g * p for g in rep.generators]
    return Representation(rep.n, rep.r, gens, label=label or f"conj({rep.label})")


def random_invertible_matrix(size, rng: Random, lo=-3, hi=3) -> Matrix:
    """Seeded random invertible matrix with small integer entries."""
    while True:
        m = Matrix([[rng.randint(lo, hi) for _ in range(size)] for _ in range(size)])
        if rank(m) == size:
            return m


def scrambled(rep, seed) -> Representation:
    """Conjugate by a seeded random invertible matrix, recording the seed."""
    p = random_invertible_matrix(rep.r, Random(seed))
    return conjugate_rep(rep, p, label=f"{rep.label} conjugated by P#seed={seed}")


def corank(rep) -> int:
    """Rank of any deformation; all generators must agree for this to exist."""
    ranks = [rep.images[i].dim for i in range(1, rep.n)]
    if len(set(ranks)) != 1:
        raise NotARepresentationError(f"deformation ranks disagree: {ranks}")
    return ranks[0]


def deformation(rep, i) -> Matrix:
    return rep.deformation(i)


def rep_to_dict(rep) -> dict:
    return {
        "n": rep.n,
        "r": rep.r,
        "generators": [g.to_strings() for g in rep.generators],
        "label": rep.label,
    }


def _whole_number(value, key):
    """An integer field of representation data; a float or a boolean is
    refused rather than truncated or read as 0 or 1."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return int(value)


def rep_from_dict(data) -> Representation:
    try:
        n = _whole_number(data["n"], "n")
        r = _whole_number(data["r"], "r")
        gens = [Matrix.from_strings(g) for g in data["generators"]]
        label = str(data.get("label", ""))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ShapeError(f"malformed representation data: {exc}") from exc
    return Representation(n, r, gens, label=label)


def save_representation(rep, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep_to_dict(rep), fh, indent=2)
        fh.write("\n")


def load_representation(path) -> Representation:
    with open(path, "r", encoding="utf-8") as fh:
        return rep_from_dict(json.load(fh))
