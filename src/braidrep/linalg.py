"""Exact rational dense linear algebra.

Every operation is exact over Q, so zero tests are decidable and equality is
bit-exact.  How a ``Matrix`` is stored (integer rows over one denominator)
and the canonical form of a ``Subspace`` are given in their docstrings;
elimination is fraction-free (``EchelonSpan``).  All values are immutable.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from fractions import Fraction
from functools import cache
from operator import mul

from .errors import ShapeError, SingularMatrixError


def rational(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational."""
    if isinstance(value, float):
        raise ValueError("refusing to coerce a float; pass 'p/q' or an int")
    if isinstance(value, bool):
        raise ValueError("refusing to coerce a boolean; pass 'p/q' or an int")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in {value!r}") from None


_EXACT_TYPES = frozenset((int, Fraction))
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(value):
    """``(p, q)`` in lowest terms with q > 0 and value == p / q.  Strings
    of the form -?[0-9]+(/[0-9]+)? are read with ``int`` and one gcd;
    everything else goes through ``rational``, whose errors it raises."""
    if type(value) is str:
        m = _PLAIN_RATIONAL.fullmatch(value)
        if m is not None:
            p, q = m.groups()
            if q is None:
                return int(p), 1
            p, q = int(p), int(q)
            if q:
                g = math.gcd(p, q)
                return p // g, q // g
    return rational(value).as_integer_ratio()


def _format_entry(e, den) -> str:
    """The entry e / den (den > 0) as ``str(Fraction(e, den))`` writes it."""
    g = math.gcd(e, den)
    return str(e // g) if g == den else f"{e // g}/{den // g}"


def combine(coeffs, vectors, length):
    """The integer list sum(a * v) over the nonzero coefficients a of
    ``coeffs`` and the matching integer vectors v, all of the given length."""
    acc = [0] * length
    for a, v in zip(coeffs, vectors):
        if a:
            acc = [s + a * b for s, b in zip(acc, v)]
    return acc


def mul_rows(a, b, ncols):
    """The integer rows of a b, for integer rows a and b with ncols columns.
    A row of a with at least half of its entries zero combines the rows of
    b it selects; any other row takes a dot product per column."""
    cols, out = None, []
    for row in a:
        if row.count(0) * 2 >= len(row):
            out.append(combine(row, b, ncols))
        else:
            if cols is None:
                cols = tuple(zip(*b))
            out.append([sum(map(mul, row, col)) for col in cols])
    return out


def clear_denominators(vec):
    """``(ints, d)`` with ``vec == ints / d`` entry-wise, where the list
    ``ints`` holds integers and d is the lcm of the entries' denominators.
    Entries are ints, Fractions or 'p/q' strings; floats and booleans are refused."""
    pairs = [e.as_integer_ratio() if type(e) in _EXACT_TYPES else _ratio(e) for e in vec]
    den = math.lcm(*(d for _, d in pairs))
    return [p * (den // d) for p, d in pairs], den


@cache
def _identity_rows(n):
    """The rows of the n x n identity as int tuples, built once per n."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _lowest_terms(num, den, ncols=None) -> "Matrix":
    """The matrix num / den (integer rows, den > 0) with common factors
    divided out; ``ncols`` is its column count where num has no rows."""
    if den != 1:
        g = math.gcd(den, *itertools.chain.from_iterable(num))
        if g != 1:
            den //= g
            num = [[e // g for e in row] for row in num]
    return Matrix._new(tuple(map(tuple, num)), den, ncols)


def _over_lcm(vectors, dens, ncols) -> "Matrix":
    """The matrix whose row j is vectors[j] / dens[j], for integer vectors
    of length ncols and positive integers dens, put over their lcm."""
    den = math.lcm(*dens)
    return _lowest_terms([[e * (den // d) for e in v] for v, d in zip(vectors, dens)], den, ncols)


class Matrix:
    """Immutable dense matrix over the rationals, stored as ``num / den``.

    ``num`` is a tuple of integer rows and ``den`` a positive integer with
    gcd(den, every entry of num) = 1, so each rational matrix has exactly
    one stored form: equality and hashing compare ``(den, num)``
    syntactically.  ``rows`` builds the ``Fraction`` entries on
    each access and belongs on no hot path.

    ``*`` multiplies by a Matrix, by a vector (any sequence, giving a tuple of
    Fractions) or by a scalar.  A matrix product skips the zero entries of
    mostly-zero rows of the left factor, so products with the sparse
    generator images stay cheap.  Entries given to the constructor are ints,
    Fractions or 'p/q' strings; floats and booleans are refused.  The wire
    format (``to_strings``, and the constructor on 'p/q' strings) goes
    between strings and the integer rows directly and builds no ``Fraction``.
    """

    __slots__ = ("num", "den", "nrows", "ncols")

    def __init__(self, rows):
        rows = [tuple(row) for row in rows]
        self.nrows = n = len(rows)
        self.ncols = k = len(rows[0]) if rows else 0
        if any(len(r) != k for r in rows):
            raise ShapeError("ragged rows")
        # The lcm of reduced denominators leaves every prime of it with an
        # entry it does not divide, so num / den is already in lowest terms.
        flat, self.den = clear_denominators(itertools.chain.from_iterable(rows))
        self.num = tuple(tuple(flat[i * k : (i + 1) * k]) for i in range(n))

    @classmethod
    def _new(cls, num, den, ncols=None):
        """Trusted constructor: a tuple of int tuples and den > 0, in lowest
        terms.  The column count is read off the first row; a matrix with no
        rows has ``ncols`` columns (0 where it is not given)."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        self.nrows = len(num)
        self.ncols = len(num[0]) if num else ncols or 0
        return self

    @classmethod
    def identity(cls, n):
        return cls._new(_identity_rows(n), 1)

    @classmethod
    def zero(cls, nrows, ncols):
        return cls._new(tuple((0,) * ncols for _ in range(nrows)), 1, ncols)

    @property
    def rows(self):
        """The entries as a tuple of ``Fraction`` rows."""
        den = self.den
        return tuple(tuple(Fraction(e, den) for e in row) for row in self.num)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self):
        return Matrix._new(tuple(zip(*self.num)) or ((),) * self.ncols, self.den, self.nrows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, self.num))

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        if self.shape != other.shape:
            word = "add" if sign > 0 else "subtract"
            raise ShapeError(f"cannot {word} {self.shape} and {other.shape}")
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        num = [
            [a * fa + b * fb for a, b in zip(r1, r2)] for r1, r2 in zip(self.num, other.num)
        ]
        return _lowest_terms(num, self.den * fa, self.ncols)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
            return _lowest_terms(mul_rows(self.num, other.num, other.ncols), self.den * other.den, other.ncols)
        if isinstance(other, (tuple, list)):
            if self.ncols != len(other):
                raise ShapeError(f"cannot apply {self.shape} to a vector of length {len(other)}")
            vec, vden = clear_denominators(other)
            den = self.den * vden
            return tuple(Fraction(sum(map(mul, row, vec)), den) for row in self.num)
        if isinstance(other, (int, Fraction, float)):
            c, d = _ratio(other)  # a float or boolean is refused, as by the constructor
            return _lowest_terms([[e * c for e in row] for row in self.num], self.den * d, self.ncols)
        return NotImplemented

    def is_zero(self):
        return not any(map(any, self.num))

    def to_strings(self):
        """Rows of 'p/q' strings; the JSON wire format for matrices."""
        den = self.den
        if den == 1:
            return [[str(e) for e in row] for row in self.num]
        return [[_format_entry(e, den) for e in row] for row in self.num]

    def __repr__(self):
        body = "; ".join(map(" ".join, self.to_strings()))
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


def _plus_scalar(m, c) -> Matrix:
    """m + c for a square matrix m and an integer c: num + c den on the
    diagonal, where gcd(den, x + c den) = gcd(den, x) keeps lowest terms."""
    step = c * m.den
    num = tuple(row[:k] + (row[k] + step,) + row[k + 1 :] for k, row in enumerate(m.num))
    return Matrix._new(num, m.den)


def rank(m: Matrix) -> int:
    """Dimension of the column space, by exact fraction-free elimination."""
    return EchelonSpan(m.ncols, m.num).dim


class Subspace:
    """A linear subspace of Q^n held in canonical form.

    The basis is stored as ``rows``: the integer rows of the reduced row
    echelon form, each scaled to a primitive vector with a positive entry at
    its pivot, ordered by pivot, with ``pivots`` their pivot columns and
    ``_leads`` the pivot entries and their lcm.  That scaling is unique, so
    two Subspace values describe the same set of vectors exactly when their
    stored rows are equal, and membership, intersection and sums run on
    Python ints.  The pivot-normalized ``Fraction`` views (``basis_vectors``
    and ``basis``) are built on each call.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_leads")

    def __init__(self, ambient_dim, vectors):
        """Canonicalize an arbitrary spanning set (vectors of length ambient_dim)."""
        vectors = list(vectors)
        if any(len(v) != ambient_dim for v in vectors):
            raise ShapeError("spanning vector has wrong length")
        span = EchelonSpan(ambient_dim, [clear_denominators(v)[0] for v in vectors])
        self._set(ambient_dim, *span.canonical_rows())

    @classmethod
    def _from_canonical(cls, ambient_dim, rows, pivots):
        """Trusted constructor for integer rows already in canonical form."""
        self = cls.__new__(cls)
        self._set(ambient_dim, rows, pivots)
        return self

    def _set(self, ambient_dim, rows, pivots):
        self.ambient_dim, self.rows, self.pivots = ambient_dim, rows, pivots
        leads = tuple(row[p] for p, row in zip(pivots, rows))
        self._leads = leads, math.lcm(*leads)

    @classmethod
    def _span(cls, ambient_dim, int_vectors) -> "Subspace":
        """The span of integer vectors of length ambient_dim, unchecked."""
        return cls._from_canonical(ambient_dim, *EchelonSpan(ambient_dim, int_vectors).canonical_rows())

    @classmethod
    def zero(cls, ambient_dim):
        return cls._from_canonical(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim):
        return cls._from_canonical(ambient_dim, _identity_rows(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def is_full(self):
        return self.dim == self.ambient_dim

    @property
    def basis(self) -> Matrix:
        """Basis as a matrix whose columns are the canonical basis vectors."""
        return _over_lcm(self.rows, self._leads[0], self.ambient_dim).transpose()

    def basis_vectors(self):
        """The canonical basis vectors, as ``Fraction`` tuples with pivot entries 1."""
        return tuple(tuple(Fraction(e, lead) for e in row) for lead, row in zip(self._leads[0], self.rows))

    def contains_ints(self, vec) -> bool:
        """Membership of an integer vector, without a length check."""
        if len(self.rows) == self.ambient_dim:
            return True
        # The rows vanish at each other's pivots, so vec lies in the span
        # exactly when m * vec is the combination of the rows with
        # coefficients vec[p] * m / row[p], m the lcm of the pivot entries.
        leads, m = self._leads
        acc = [e * m for e in vec]
        for p, lead, row in zip(self.pivots, leads, self.rows):
            c = vec[p]
            if c:
                c *= m // lead
                acc = [a - c * b for a, b in zip(acc, row)]
        return not any(acc)

    def coordinate_rows(self, num):
        """``(rows, m)`` with num = R^T rows / m, for integer rows num whose
        columns lie in the span, R the canonical rows and m the lcm of their
        leads: row j is m / lead_j times row p_j of num, p_j the pivot of R_j."""
        leads, m = self._leads
        return tuple(tuple(map((m // lead).__mul__, num[p])) for p, lead in zip(self.pivots, leads)), m

    def combination(self, coeffs):
        """The integer vector R^T coeffs for the canonical rows R."""
        return combine(coeffs, self.rows, self.ambient_dim)

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient dimension")
        return self.contains_ints(clear_denominators(v)[0])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection, computed by the block echelon (Zassenhaus) construction."""
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")
        d = self.ambient_dim
        zeros = (0,) * d
        span = EchelonSpan(2 * d, [row + row for row in self.rows] + [row + zeros for row in other.rows])
        return Subspace._span(d, [row[d:] for row, p in zip(span.rows, span.pivots) if p >= d])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column space of m."""
    return Subspace._span(m.nrows, [col for col in zip(*m.num) if any(col)])


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the null space of m, read off its reduced echelon
    form: where that is [1 | F] up to column order, the columns of [-F; 1]."""
    span = Subspace._span(m.ncols, m.num)
    reduced = _over_lcm(span.rows, span._leads[0], m.ncols)
    vectors = []
    for f in range(m.ncols):
        if f not in span.pivots:
            v = [0] * m.ncols
            v[f] = reduced.den
            for p, row in zip(span.pivots, reduced.num):
                v[p] = -row[f]
            vectors.append(v)
    return Subspace._span(m.ncols, vectors)


def intersect_stacked_kernel(u: Subspace, v: Subspace) -> Subspace:
    """Independent route to the intersection, for cross-checking.

    Solves the stacked system U a = V b by taking the kernel of [U | -V]
    and mapping the a-part back through U.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ShapeError("subspaces live in different ambient spaces")
    stacked = Matrix(
        tuple(
            tuple(c[i] for c in u.rows) + tuple(-c[i] for c in v.rows)
            for i in range(u.ambient_dim)
        )
    )
    vectors = [combine(coeffs[: u.dim], u.rows, u.ambient_dim) for coeffs in kernel_basis(stacked).rows]
    return Subspace._span(u.ambient_dim, vectors)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when none exists."""
    if m.nrows != m.ncols:
        raise ShapeError("only square matrices can be inverted")
    n = m.nrows
    unit = (0,) * n
    # den times the row [m_i | e_i] of the augmented matrix [m | I].
    span = EchelonSpan(2 * n, [row + unit[:i] + (m.den,) + unit[i + 1 :] for i, row in enumerate(m.num)])
    if span.pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    # Row i of the reduced rows is lead_i * [e_i | row i of m^-1].
    rows = span.reduced_rows()
    return _over_lcm([row[n:] for row in rows], [row[i] for i, row in enumerate(rows)], n)


def _poly_eval(coeffs, x):
    """Horner evaluation; coefficients run from the leading one down."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _derivative(coeffs):
    deg = len(coeffs) - 1
    return [c * (deg - k) for k, c in enumerate(coeffs[:-1])]


def _poly_rem(a, b):
    """Remainder of a divided by b over Q, leading coefficient first, with
    the leading zeros stripped; the quotient is returned as well."""
    a, quo = [Fraction(c) for c in a], []
    while len(a) >= len(b):
        q = a[0] / b[0]
        quo.append(q)
        a = [x - q * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    while a and a[0] == 0:
        a.pop(0)
    return quo, a


def _coprime_mod(a, b, p):
    """Whether the integer polynomials a and b, leading coefficient first
    and a monic, are coprime modulo the prime p, by Euclid over F_p."""
    a, b = [c % p for c in a], [c % p for c in b]
    while True:
        while b and b[0] == 0:
            b.pop(0)
        if len(b) <= 1:
            return bool(b)
        inv = pow(b[0], -1, p)
        while len(a) >= len(b):
            q = a[0] * inv % p
            a = [(x - q * y) % p for x, y in zip(a[1:], b[1:])] + a[len(b):]
        a, b = b, a


def _squarefree_part(ints):
    """The monic integer polynomial with the roots of the monic ``ints``,
    each once: ints / gcd(ints, ints'), divided exactly.  Where ints and
    ints' are coprime modulo the prime 2^61 - 1, ints is returned with no
    division over Q: a common factor over Q may be taken monic with integer
    coefficients (Gauss's lemma), so it would divide both modulo every prime."""
    if _coprime_mod(ints, _derivative(ints), 2**61 - 1):
        return ints
    a, b = ints, _derivative(ints)
    while b:
        a, b = b, _poly_rem(a, b)[1]
    # A monic factor of a monic integer polynomial has integer coefficients.
    quo, _ = _poly_rem(ints, [Fraction(c, a[0]) for c in a])
    return [int(c) for c in quo]


def _integer_roots(ints):
    """Integer roots of the monic integer polynomial ``ints`` whose constant
    term is nonzero, by p-adic lifting (Loos, SIAM J. Comput. 12, 1983).

    Each root modulo a prime q at which the squarefree part g stays
    squarefree lifts by Newton steps to a unique root modulo q^(2^k); once
    the modulus exceeds twice |g(0)|, which bounds any integer root, the
    symmetric residue is the only integer candidate, accepted only where
    ``ints`` itself vanishes.  The cost grows with the bit length of the
    coefficients, not with their size as trial division of the constant
    term does."""
    g = _squarefree_part(ints)
    dg = _derivative(g)
    bound = 2 * abs(g[-1])
    q = 2
    while True:
        q += 1
        if any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
            continue
        residues = [a for a in range(q) if _poly_eval(g, a) % q == 0]
        # Primes that divide the discriminant of g make some root repeated
        # mod q; there are finitely many, and a simple root lifts uniquely.
        if all(_poly_eval(dg, a) % q for a in residues):
            break
    roots = []
    for a in residues:
        mod = q
        while mod <= bound:
            mod *= mod
            a = (a - _poly_eval(g, a) * pow(_poly_eval(dg, a), -1, mod)) % mod
        cand = a - mod if 2 * a > mod else a
        if _poly_eval(ints, cand) == 0:
            roots.append(cand)
    return roots


def rational_eigenvalues(m: Matrix):
    """All rational eigenvalues of the square m, sorted and distinct; the
    others are silently omitted.

    They are those of the integer numerator N divided by the denominator.
    Let the Krylov spaces of v_1 ... v_t span Q^k.  As f(N) commutes with
    N, it is 0 exactly when f(N) v_j = 0 for every j, that is, when the
    minimal polynomial of every v_j divides f.  So the minimal polynomial
    of N is the lcm of theirs, and the eigenvalues of N are their roots:
    they are monic over Z (``minimal_polynomial``), so a rational root is an
    integer (``monic_roots``).  Each v_j is the coordinate vector at the
    first column that is no pivot of the Krylov vectors read so far, so it
    lies outside their span, where every vector starts at a pivot; at most
    k vectors are read.
    """
    if m.nrows != m.ncols:
        raise ShapeError("eigenvalues of a non-square matrix")
    k, seen, roots = m.nrows, EchelonSpan(m.nrows), set()
    while seen.dim < k:
        j = next((i for i, p in enumerate(seen.pivots) if p != i), seen.dim)
        roots |= monic_roots(minimal_polynomial(m.num, _identity_rows(k)[j], k, seen))
    return sorted(Fraction(x, m.den) for x in roots)


def monic_roots(ints):
    """The set of integer roots, 0 among them, of the monic integer
    polynomial ``ints`` (leading coefficient first): x^j is divided out and
    the rest goes to ``_integer_roots``."""
    ints, roots = list(ints), set()
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
        roots.add(0)
    if len(ints) > 1:
        roots.update(_integer_roots(ints))
    return roots


def minimal_polynomial(rows, v, limit, seen):
    """The monic minimal polynomial of the integer vector v under the square
    integer rows, leading coefficient first, or None where v, rows v, ...,
    rows^limit v are independent.  It divides the characteristic
    polynomial, monic over Z, so its coefficients are integers (Gauss's
    lemma); they are read off the one kernel vector of the Krylov vectors,
    which are also added to the EchelonSpan ``seen``."""
    span, seq, w = EchelonSpan(len(v)), [], list(v)
    while span.add(w) is not None:
        seq.append(w)
        seen.add(w)
        if len(seq) > limit:
            return None
        w = [sum(map(mul, row, w)) for row in rows]
    c = kernel_basis(Matrix._new(tuple(zip(*seq, w)), 1)).rows[0]
    return [e // c[-1] for e in reversed(c)]


def _primitive(v):
    """v over the gcd of its entries as a new list, or v itself at gcd 0 or 1; v is never mutated."""
    g = math.gcd(*v)
    if g > 1:
        return [e // g for e in v]
    return v


class EchelonSpan:
    """Incrementally grown echelon basis of a subspace of Q^length.

    ``EchelonSpan(length, vectors)`` spans the given vectors, which ``add``
    inserts in order.  Vectors are integer sequences (clear a rational
    vector's denominators first, e.g. with ``clear_denominators``).  Rows are
    primitive integer vectors kept in forward echelon form only: each row's
    first nonzero entry sits at its pivot and is positive, and rows are
    ordered by pivot, but entries above later pivots are not cleared.
    Stored rows never change, which keeps the integers small even on dense
    input.  The back-substitution that produces the unique reduced basis
    happens once, in ``reduced_rows``.

    ``add`` reduces an incoming vector v <- lead * v - c * row at each pivot
    where v is nonzero, tests v for zero once, after the loop, and takes one
    gcd, once v stands as a new row.  Each step scales v by a positive lead,
    so the primitive row it stores is the one a gcd after every step leaves.
    A dependent vector, most of a low-rank image, takes no gcd.
    """

    __slots__ = ("length", "rows", "pivots")

    def __init__(self, length, vectors=()):
        self.length = length
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self):
        return len(self.rows)

    def add(self, vec):
        """Insert an integer vector; returns its primitive reduced form if new, else None."""
        v = vec
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                rp = row[p]
                v = [a * rp - c * b for a, b in zip(v, row)]
        if not any(v):
            return None
        p = next(filter(v.__getitem__, range(len(v))))
        g = math.gcd(*v)
        if v[p] < 0:
            v = [-e // g for e in v]
        elif g > 1:
            v = [e // g for e in v]
        at = bisect.bisect(self.pivots, p)
        self.pivots.insert(at, p)
        self.rows.insert(at, v)
        return tuple(v)

    def reduced_rows(self):
        """Integer rows of the fully reduced echelon basis, in pivot order:
        row i is zero at every other pivot and positive at its own."""
        rows = [list(row) for row in self.rows]
        for i in range(len(rows) - 1, -1, -1):
            p = self.pivots[i]
            lead = rows[i][p]
            for j in range(i):
                c = rows[j][p]
                if c:
                    rows[j] = _primitive([a * lead - c * b for a, b in zip(rows[j], rows[i])])
        return rows

    def canonical_rows(self):
        """The canonical integer rows of the current span (the reduced
        echelon basis, each row primitive with a positive pivot entry) and
        their pivots, as tuples.  A full span is Q^length, whose canonical
        rows are the identity rows: no back-substitution is run for it."""
        if len(self.rows) == self.length:
            return _identity_rows(self.length), tuple(range(self.length))
        return tuple(map(tuple, self.reduced_rows())), tuple(self.pivots)
