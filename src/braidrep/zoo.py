"""Constructors and combinators for braid group matrix representations.

Each Representation stores the n-1 generator images and the factors
A_i = g_i - 1 = R_i^T Y_i / s_i of their deformations through their images,
which prove the images invertible.  D = g_1 ... g_(n-1) and its inverse, the
image of s0, its deformation, the shifts of the images by D and their pairwise
intersections are computed on demand, per index, and cached; Im A_0 =
D Im A_(n-1) is formed through the factors, without D.  All values are immutable.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, reduce
from operator import mul
from random import Random

from .errors import NotARepresentationError, ShapeError, SingularMatrixError
from .linalg import (
    Matrix,
    Subspace,
    _lowest_terms,
    block_diagonal,
    clear_denominators,
    image_basis,
    inverse,
    mul_rows,
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
        self._factors = {}
        self._meets = {}
        self._shifts = {}
        if not self._generators_invertible():
            raise SingularMatrixError("generator image is singular")

    def _generators_invertible(self) -> bool:
        """Whether every g_i = 1 + R_i^T Y_i / s_i is invertible.  Sylvester's
        identity det(1 + UV) = det(1 + VU) makes that the rank k of the k x k
        matrix s_i + Y_i R_i^T (k = 0 passes).  Where some A_i has full rank
        that matrix is as large as g_i, and the rank of D = g_1 ... g_(n-1)
        decides for every generator at once."""
        if any(self.image(i).is_full() for i in range(1, self.n)):
            return rank(self.tau) == self.r
        for i in range(1, self.n):
            s, mid = self.factor(i)[2], self.middle(i, i)
            shifted = (tuple(e + s * (a == b) for b, e in enumerate(row)) for a, row in enumerate(mid))
            if rank(Matrix._new(tuple(shifted), 1)) < len(mid):
                return False
        return True

    @cached_property
    def tau(self) -> Matrix:
        """D = g_1 ... g_(n-1), the image of delta."""
        return reduce(mul, self.generators)

    @cached_property
    def _tau_columns(self) -> tuple:
        return tuple(zip(*self.tau.num))

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
        return self.tau * self.generators[-1] * inverse(self.tau)

    def deformation(self, i) -> Matrix:
        """A_i = image of generator i minus the identity, for i in 0..n-1."""
        if not 0 <= i <= self.n - 1:
            raise IndexError(f"deformation index {i} out of range")
        if i not in self._deformations:
            # num - den on the diagonal: gcd(den, x - den) = gcd(den, x), so
            # the difference stays in lowest terms.
            g = self.gen(i)
            den = g.den
            num = tuple(row[:k] + (row[k] - den,) + row[k + 1 :] for k, row in enumerate(g.num))
            self._deformations[i] = Matrix._new(num, den)
        return self._deformations[i]

    def factor(self, i) -> tuple[Subspace, tuple, int]:
        """``(image, y, s)`` with A_i = R^T y / s, cached per index: R holds the
        k canonical rows of image = Im A_i (R = 1 at k = r), so ker A_i = ker y,
        and the k rows y come from ``Subspace.coordinate_rows``."""
        if i not in self._factors:
            a = self.deformation(i)
            img = self.image(0) if i == 0 else image_basis(a)
            y, lcm = img.coordinate_rows(a.num)
            self._factors[i] = img, y, lcm * a.den
        return self._factors[i]

    def middle(self, i, j) -> list:
        """The k x k integer rows Y_i R_j^T of the factors of A_i and A_j,
        so that A_i A_j = R_i^T (Y_i R_j^T) Y_j / (s_i s_j)."""
        y, img = self.factor(i)[1], self.image(j)
        return y if img.is_full() else [[sum(map(mul, a, b)) for b in img.rows] for a in y]

    def act(self, i, v) -> tuple[list, int]:
        """``(w, s)`` with g_i v = w / s for an integer vector v:
        w = s v + R_i^T (Y_i v), in O(k r)."""
        img, y, s = self.factor(i)
        return [s * a + b for a, b in zip(v, img.combination([sum(map(mul, row, v)) for row in y]))], s

    def image(self, i) -> Subspace:
        """Column space of the deformation A_i, for i in 0..n-1."""
        return self._image0 if i == 0 else self.factor(i)[0]

    @cached_property
    def _image0(self) -> Subspace:
        """Im A_0 = D Im A_(n-1), as A_0 = D A_(n-1) D^-1 by the definition of
        sigma0: D acts on each canonical row through g_(n-1), ..., g_1, each
        step kept primitive, in O(n k r) per row and without forming D."""
        last = self.image(self.n - 1)
        if last.is_full():
            return last
        rows = []
        for v in last.rows:
            for i in range(self.n - 1, 0, -1):
                v = self.act(i, v)[0]
                g = math.gcd(*v)
                v = [e // g for e in v]
            rows.append(v)
        return Subspace._span(self.r, rows)

    def shift(self, i):
        """The integer rows q with num(D) R_i^T = R_(i+1)^T q / m for 0 <= i <= n-2,
        cached per index, R_i the canonical rows of Im A_i and m the lcm of the
        pivot entries of Im A_(i+1) (``Subspace.coordinate_rows``); None where
        the images differ in dimension or D Im A_i is not inside Im A_(i+1)."""
        if i not in self._shifts:
            img, img2, q = self.image(i), self.image(i + 1), None
            if img.dim == img2.dim:
                moved = mul_rows(img.rows, self._tau_columns, self.r)  # num(D) R_i^T, transposed
                if all(map(img2.contains_ints, moved)):
                    q = img2.coordinate_rows(tuple(zip(*moved)))[0]
            self._shifts[i] = q
        return self._shifts[i]

    @property
    def shift_invariant(self) -> bool:
        """Whether every ``shift(i)`` exists, as in every representation (delta
        s_i delta^-1 = s_(i+1)); at i = n-1 by sigma0.  Then D shifts every meet."""
        return all(self.shift(i) is not None for i in range(self.n - 1))

    def meet(self, i, j) -> Subspace:
        """Intersection of the images of A_i and A_j, cached per unordered pair."""
        lo, hi = min(i, j), max(i, j)
        if (lo, hi) not in self._meets:
            if lo < 0 or hi > self.n - 1:
                raise IndexError(f"deformation index pair {(i, j)} out of range")
            self._meets[lo, hi] = self.image(lo).intersect(self.image(hi))
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
    # den is the lcm of the block's reduced denominators, so some entry of
    # the block is prime to each prime of den: the rows are in lowest terms.
    flat, den = clear_denominators([e for brow in block for e in brow])
    rows = [[den * (i == j) for j in range(size)] for i in range(size)]
    for i in range(k):
        rows[at + i][at : at + k] = flat[i * k : (i + 1) * k]
    return Matrix._new(tuple(map(tuple, rows)), den)


def tym_standard(n, u) -> Representation:
    """The n-dimensional one-parameter family with the 2x2 block [[0,u],[1,0]].

    Generator i acts as the identity outside rows/columns i-1 and i, where
    it carries the block; at u = 1 the images are transposition matrices.
    The tests check the relations for n = 2..16 at five values of u: each
    entry of a relation difference is a polynomial of degree <= 3 in u, so
    that proves them for every u.
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
    and last block [[1,t],[0,-t]].  The tests check the relations for
    n = 3..16 at five values of t: each entry of a relation difference is a
    polynomial of degree <= 3 in t, so that proves them for every t.
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
    return Representation(n, r, gens, label=f"burau(n={n},t={t})")


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
    """Replace every generator image g = 1 + R^T Y / s (``Representation.factor``)
    by p^-1 g p = 1 + (p^-1 R^T)(Y p) / s, in O(k r^2) each for rank k."""
    if p.shape != (rep.r, rep.r):
        raise ShapeError("change of basis has the wrong size")
    r, pinv = rep.r, inverse(p)
    gens = []
    for i in range(1, rep.n):
        img, y, s = rep.factor(i)
        left = pinv.num if img.is_full() else mul_rows(pinv.num, tuple(zip(*img.rows)), img.dim)
        prod, den = mul_rows(left, mul_rows(y, p.num, r), r), s * pinv.den * p.den
        gens.append(_lowest_terms([[e + den * (a == b) for b, e in enumerate(row)]
                                   for a, row in enumerate(prod)], den))
    return Representation(rep.n, rep.r, gens, label=label or f"conj({rep.label})")


def random_invertible_matrix(size, rng: Random) -> Matrix:
    """Seeded random invertible matrix with integer entries in -3..3."""
    while True:
        m = Matrix([[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)])
        if rank(m) == size:
            return m


def scrambled(rep, seed) -> Representation:
    """Conjugate by a seeded random invertible matrix, recording the seed."""
    p = random_invertible_matrix(rep.r, Random(seed))
    return conjugate_rep(rep, p, label=f"{rep.label} conjugated by P#seed={seed}")


def corank(rep) -> int:
    """Rank of any deformation; all generators must agree for this to exist."""
    ranks = [rep.image(i).dim for i in range(1, rep.n)]
    if len(set(ranks)) != 1:
        raise NotARepresentationError(f"deformation ranks disagree: {ranks}")
    return ranks[0]


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
