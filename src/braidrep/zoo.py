"""Constructors and combinators for braid group matrix representations.

A ``Representation`` holds its generators by the factors of their
deformations, laid out in its docstring.  The zoo builders make those
factors without forming an r x r matrix, except ``tensor_character``,
which scales the dense images; the public constructor factors dense images.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, reduce
from itertools import accumulate
from operator import mul
from random import Random

from .errors import NotARepresentationError, ShapeError, SingularMatrixError
from .linalg import (
    EchelonSpan,
    Matrix,
    Subspace,
    _lowest_terms,
    _plus_scalar,
    _primitive,
    combine,
    image_basis,
    inverse,
    mul_rows,
    rational,
)


class Representation:
    """A family of invertible r x r matrices indexed by the generators.

    A family is held by the factors A_i = g_i - 1 = R_i^T Y_i / s_i of its
    deformations, i = 1 ... n-1 (``factor``), which every check reads: the
    k canonical rows R_i of Im A_i, k x r integer rows Y_i and a positive
    integer s_i.  The k x k middles M_ij = Y_i R_j^T, so that A_i A_j =
    R_i^T M_ij Y_j / (s_i s_j), are cut from one product, formed on first
    use and cached (``middle_product``), and read by ``middles``, ``block``
    and ``cubic``; ``middle`` forms one alone.  The dense images
    ``generators``, D = ``tau`` and ``sigma0`` are formed on first use and
    cached, a dense A_i (``deformation``) on each request, and Im A_0 from
    the factors, without D.

    The public constructor is the entry for dense images (JSON files,
    library callers): it factors each image and proves it invertible
    (``_invertible_factor``).  The zoo builders pass factors they read off a
    small block, a sum, a change of basis or a scaled image to
    ``_from_factors``: a block is factored by the same routine, and a sum, a
    change of basis or a nonzero multiple of invertible images is
    invertible.  Both hand the same triples to ``_init``.

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
        self._init(n, r, [_invertible_factor(g) for g in generators], label)
        self.generators = generators

    def _init(self, n, r, factors, label):
        """Hold the factors ``(image, y, s)`` of A_1 ... A_(n-1), unchecked."""
        self.n = n
        self.r = r
        self.label = label
        self._factors = dict(enumerate(factors, 1))

    @classmethod
    def _from_factors(cls, n, r, factors, label):
        """A family from the factors of its deformations, as ``factor`` returns
        them; the caller has proved every g_i = 1 + R_i^T Y_i / s_i invertible."""
        self = cls.__new__(cls)
        self._init(n, r, factors, label)
        return self

    @cached_property
    def tau(self) -> Matrix:
        """D = g_1 ... g_(n-1), the image of delta."""
        return reduce(mul, self.generators)

    @cached_property
    def sigma0(self) -> Matrix:
        return self.tau * self.generators[-1] * inverse(self.tau)

    @cached_property
    def generators(self) -> tuple:
        """The images g_i = 1 + A_i, formed from the factors on first use."""
        return tuple(_plus_scalar(self.deformation(i), 1) for i in range(1, self.n))

    def deformation(self, i) -> Matrix:
        """A_i = image of generator i minus the identity, for i in 0..n-1, built
        on each call: from sigma0 at i = 0, else as R_i^T Y_i / s_i from
        ``factor(i)`` in O(k r^2); the checks read the factors themselves."""
        if not 0 <= i <= self.n - 1:
            raise IndexError(f"deformation index {i} out of range")
        if i == 0:
            return _plus_scalar(self.sigma0, -1)
        img, y, s = self._factors[i]
        # R^T Y = m num(A_i) and s = m den(A_i), m the lcm of the pivot
        # entries (``Subspace.coordinate_rows``): dividing by m leaves lowest terms.
        m = img._leads[1]
        rows = [combine([row[p] for row in img.rows], y, self.r) for p in range(self.r)]
        if m > 1:
            rows = ([e // m for e in row] for row in rows)
        return Matrix._new(tuple(map(tuple, rows)), s // m)

    def factor(self, i) -> tuple[Subspace, tuple, int]:
        """``(image, y, s)`` with A_i = R^T y / s: R holds the k canonical rows
        of image = Im A_i (R = 1 at k = r), so ker A_i = ker y, and the k rows
        y are those of ``Subspace.coordinate_rows`` of num(A_i), scaled by
        s = m den(A_i).  Held for i >= 1; formed at i = 0 on first use."""
        if i not in self._factors:
            self._factors[i] = _factor(self.deformation(i), self.image(0))
        return self._factors[i]

    def middle(self, i, j) -> list:
        """M_ij = Y_i R_j^T as k_i x k_j integer rows, formed alone in
        O(k_i k_j r), for a caller that needs a few or index 0; ``block``
        reads the same from the cached ``middles``."""
        return _y_rt(self.factor(i)[1], self.image(j))

    def block(self, i, j) -> list:
        """M_ij as k_i x k_j integer rows, read from ``middles`` and zero-filled
        where that leaves a zero block out."""
        return self.middles.get((i, j)) or [[0] * self.image(j).dim for _ in range(self.image(i).dim)]

    def cubic(self, a, b) -> list:
        """s_b C_ab as k x k integer rows, for C_ab = s_a s_b + s_b M_aa +
        M_ab M_ba from ``block``: A + A^2 + ABA = R_a^T C_ab Y_a / (s_a^2 s_b)
        for A = A_a and B = A_b."""
        sa, sb = self.factor(a)[2], self.factor(b)[2]
        square, ab = self.block(a, a), self.block(a, b)
        ba = list(zip(*self.block(b, a))) or [()] * len(square)  # its columns
        return [[sb * (sb * (sa * (p == q) + e) + sum(map(mul, row, col))) for q, (e, col) in enumerate(zip(srow, ba))]
                for p, (srow, row) in enumerate(zip(square, ab))]

    @cached_property
    def middle_product(self) -> list:
        """The integer rows of Y R^T for the stacked rows Y_1 ... Y_(n-1) and
        the stacked canonical rows R of the images that are not full: the
        blocks M_ij side by side, in one ``mul_rows`` (none where every image
        is full), shared, so read only."""
        rows = [row for i in range(1, self.n) if not self.image(i).is_full() for row in self.image(i).rows]
        ys = [row for i in range(1, self.n) for row in self.factor(i)[1]]
        return mul_rows(ys, tuple(zip(*rows)), len(rows)) if rows else [[] for _ in ys]

    @cached_property
    def middles(self) -> dict:
        """The nonzero ``middle(i, j)`` for 1 <= i, j <= n-1 as integer
        rows, keyed by (i, j), a zero one left out.  They are read from
        ``middle_product`` and cached: the dict and its rows are shared, so
        callers only read them."""
        # M_ij = Y_i where Im A_j is full, as R_j = 1 there.
        imgs, prod = [self.image(i) for i in range(1, self.n)], self.middle_product
        narrow = [j for j, img in enumerate(imgs, 1) if not img.is_full()]
        at = [0, *accumulate(imgs[j - 1].dim for j in narrow)]  # narrow[c] owns columns at[c] .. at[c+1]
        owner = [c for c in range(len(narrow)) for _ in range(at[c], at[c + 1])]
        full = [j for j, img in enumerate(imgs, 1) if img.is_full()]
        out, first = {}, 0
        for i in range(1, self.n):
            y = self.factor(i)[1]
            band, first = prod[first : first + len(y)], first + len(y)
            for c in {owner[col] for row in band for col, e in enumerate(row) if e}:
                out[i, narrow[c]] = [row[at[c] : at[c + 1]] for row in band]
            for j in full if y else ():
                out[i, j] = y
        return out

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
        rows = []
        for v in self.image(self.n - 1).rows:
            for i in range(self.n - 1, 0, -1):
                v = _primitive(self.act(i, v)[0])
            rows.append(v)
        return Subspace._span(self.r, rows)

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.n, self.r, self.generators) == (other.n, other.r, other.generators)

    def __hash__(self):
        return hash((self.n, self.r, self.generators))

    def __repr__(self):
        return f"Representation(n={self.n}, r={self.r}, label={self.label!r})"


def _y_rt(y, img) -> list:
    """Y R^T as integer rows, for the rows y and the canonical rows R of img:
    y itself where img is full, as R = 1 there."""
    return y if img.is_full() else [[sum(map(mul, a, b)) for b in img.rows] for a in y]


def _invertible_factor(g) -> tuple[Subspace, tuple, int]:
    """The factor ``(image, y, s)`` of g - 1, for a square matrix g of
    rationals, after proving g invertible; raises ``SingularMatrixError``
    where it is not.  Sylvester's identity det(1 + UV) = det(1 + VU) makes
    g = 1 + R^T Y / s invertible exactly when the k x k integer rows s + Y R^T
    have rank k (k = 0 passes); at k = r, R = 1 and they are s + Y."""
    img, y, s = _factor(_plus_scalar(g, -1))
    span = EchelonSpan(img.dim)
    for p, row in enumerate(_y_rt(y, img)):
        if span.add([s * (p == q) + e for q, e in enumerate(row)]) is None:
            raise SingularMatrixError("generator image is singular")
    return img, y, s


def _factor(a, img=None) -> tuple[Subspace, tuple, int]:
    """The factor ``(image, y, s)`` of a deformation matrix a, as
    ``Representation.factor`` gives it, from its image where the caller
    knows it: s = m den(a), with m the lcm of the pivot entries of the image."""
    img = image_basis(a) if img is None else img
    y, m = img.coordinate_rows(a.num)
    return img, y, m * a.den


def _pad(r, at, img, y):
    """``(rows, pivots, y)`` of a factor on Q^k, its canonical rows R and
    rows y, moved to the coordinates at ... at+k-1 of Q^r: canonical there too."""
    left, right = (0,) * at, (0,) * (r - at - img.ambient_dim)
    return (tuple(left + row + right for row in img.rows), tuple(p + at for p in img.pivots),
            tuple(left + tuple(row) + right for row in y))


def _placed(r, at, factor):
    """The factor of the r x r identity with the block of ``_invertible_factor``
    placed at (at, at), in O(k r) for block size k, with no r x r matrix formed."""
    img, y, s = factor
    rows, pivots, y = _pad(r, at, img, y)
    return Subspace._from_canonical(r, rows, pivots), y, s


def _sum_factor(fa, fb):
    """The factor of the block-diagonal sum of two deformations from theirs:
    the canonical rows and rows y of each, padded into place.  Each y is
    rescaled by s / s_j to the sum's s = lcm(m_a, m_b) lcm(den_a, den_b),
    where den_j = s_j / m_j for the lcm m_j of the pivot entries of image j."""
    (ia, ya, sa), (ib, yb, sb) = fa, fb
    ma, mb = ia._leads[1], ib._leads[1]
    s, size = math.lcm(ma, mb) * math.lcm(sa // ma, sb // mb), ia.ambient_dim + ib.ambient_dim
    rows_a, piv_a, ya = _pad(size, 0, ia, ([e * (s // sa) for e in row] for row in ya))
    rows_b, piv_b, yb = _pad(size, ia.ambient_dim, ib, ([e * (s // sb) for e in row] for row in yb))
    return Subspace._from_canonical(size, rows_a + rows_b, piv_a + piv_b), ya + yb, s


def character_rep(n, y) -> Representation:
    """The one-dimensional family sending every generator to [y]."""
    y = rational(y)
    if y == 0:
        raise ValueError("character parameter must be nonzero")
    if n < 2:
        raise ValueError("need at least 2 strands")
    return Representation._from_factors(n, 1, [_invertible_factor(Matrix([[y]]))] * (n - 1), f"char(n={n},y={y})")


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
    block = _invertible_factor(Matrix([[0, u], [1, 0]]))
    factors = [_placed(n, i - 1, block) for i in range(1, n)]
    return Representation._from_factors(n, n, factors, f"tym(n={n},u={u})")


def reduced_burau(n, t) -> Representation:
    """Reduced Burau specialization at t, in the (n-1)-dimensional convention
    with first block [[-t,0],[1,1]], middle blocks [[1,t,0],[0,-t,0],[0,1,1]]
    and last block [[1,t],[0,-t]].  Its relations are proved for every t as
    those of ``tym_standard`` are for every u, on n = 3..16.
    """
    t = rational(t)
    if t == 0:
        raise ValueError("Burau parameter must be nonzero")
    if n < 3:
        raise ValueError("need at least 3 strands")
    r = n - 1
    first = _invertible_factor(Matrix([[-t, 0], [1, 1]]))
    middle = _invertible_factor(Matrix([[1, t, 0], [0, -t, 0], [0, 1, 1]]))
    last = _invertible_factor(Matrix([[1, t], [0, -t]]))
    factors = [_placed(r, 0, first), *(_placed(r, i - 2, middle) for i in range(2, n - 1)),
               _placed(r, n - 3, last)]
    return Representation._from_factors(n, r, factors, f"burau(n={n},t={t})")


def tensor_character(rep, y) -> Representation:
    """Scale every generator image entry-wise by the nonzero scalar y.  The
    images are formed and factored again: the deformation y g - 1 has no
    factor that those of g - 1 give directly.  y g is invertible exactly
    when g is, so no proof is run again."""
    y = rational(y)
    if y == 0:
        raise ValueError("character parameter must be nonzero")
    factors = [_factor(_plus_scalar(g * y, -1)) for g in rep.generators]
    return Representation._from_factors(rep.n, rep.r, factors, f"tensor({rep.label},y={y})")


def direct_sum(a, b) -> Representation:
    """Block-diagonal sum of two families on the same strand count, from
    their factors (``_sum_factor``); a sum of invertible images is invertible."""
    if a.n != b.n:
        raise ShapeError("strand counts differ")
    factors = [_sum_factor(a.factor(i), b.factor(i)) for i in range(1, a.n)]
    return Representation._from_factors(a.n, a.r + b.r, factors, f"dsum({a.label},{b.label})")


def conjugate_rep(rep, p) -> Representation:
    """Replace every generator image g by p^-1 g p (``_conjugate``)."""
    if p.shape != (rep.r, rep.r):
        raise ShapeError("change of basis has the wrong size")
    return _conjugate(rep, p, inverse(p), f"conj({rep.label})")


def _conjugate(rep, p, pinv, label) -> Representation:
    """p^-1 g p = 1 + (p^-1 R^T)(Y p) / s for each g = 1 + R^T Y / s
    (``Representation.factor``), pinv = p^-1, with the product formed in
    O(k r^2) for rank k.  Its image p^-1 Im A is the span of the k columns of
    p^-1 R^T, and its rows y are the coordinate rows of the product.  p^-1 g p
    is invertible exactly when g is, so no proof is run again."""
    r, factors = rep.r, []
    for i in range(1, rep.n):
        img, y, s = rep.factor(i)
        left = pinv.num if img.is_full() else mul_rows(pinv.num, tuple(zip(*img.rows)), img.dim)
        a = _lowest_terms(mul_rows(left, mul_rows(y, p.num, r), r), s * pinv.den * p.den)
        factors.append(_factor(a, Subspace.full(r) if img.is_full() else Subspace._span(r, zip(*left))))
    return Representation._from_factors(rep.n, r, factors, label)


def _random_invertible_pair(size, rng: Random) -> tuple[Matrix, Matrix]:
    """``(m, m^-1)`` for the matrix ``random_invertible_matrix`` draws, with
    one elimination per draw: ``inverse`` refuses exactly the singular ones."""
    while True:
        m = Matrix([[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)])
        try:
            return m, inverse(m)
        except SingularMatrixError:
            pass


def random_invertible_matrix(size, rng: Random) -> Matrix:
    """Seeded random invertible matrix with integer entries in -3..3."""
    return _random_invertible_pair(size, rng)[0]


def scrambled(rep, seed) -> Representation:
    """Conjugate by a seeded random invertible matrix, recording the seed."""
    p, pinv = _random_invertible_pair(rep.r, Random(seed))
    return _conjugate(rep, p, pinv, f"{rep.label} conjugated by P#seed={seed}")


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
    if not isinstance(data, dict):
        raise ShapeError("malformed representation data: expected a JSON object")
    try:
        n = _whole_number(data["n"], "n")
        r = _whole_number(data["r"], "r")
        gens = [Matrix(g) for g in data["generators"]]
        label = "" if data.get("label") is None else str(data["label"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ShapeError(f"malformed representation data: {exc}") from exc
    return Representation(n, r, gens, label=label)


def save_representation(rep, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep_to_dict(rep), fh, indent=2)
        fh.write("\n")


def load_representation(path) -> Representation:
    """Read a representation file; JSON nested past the recursion limit is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ShapeError("malformed representation data: JSON is nested too deeply") from None
    return rep_from_dict(data)
