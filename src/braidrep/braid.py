"""Braid group words and relation checking for matrix families.

The braid group on n strands is generated by s1..s(n-1) subject to
s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} and far commutation s_i s_j = s_j s_i
for |i-j| >= 2.  The product tau = s1 s2 ... s(n-1) conjugates the family
cyclically, which extends the index range by a derived generator s0; all
index arithmetic here is modulo n with that convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ShapeError
from .linalg import Matrix, mul_rows

if TYPE_CHECKING:  # pragma: no cover
    from .zoo import Representation

_LETTER = re.compile(r"^s(\d+)(\^-1)?$")


def circular_distance(i: int, j: int, n: int) -> int:
    """Distance between indices i and j around the cycle Z_n."""
    d = (i - j) % n
    return min(d, n - d)


@dataclass(frozen=True)
class BraidWord:
    """A word in the generators, stored as (index, exponent) letters."""

    n: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for idx, exp in self.letters:
            if not 1 <= idx <= self.n - 1:
                raise ValueError(f"generator index {idx} out of range for {self.n} strands")
            if exp not in (1, -1):
                raise ValueError("exponents must be +1 or -1")

    @classmethod
    def parse(cls, text: str, n: int) -> "BraidWord":
        """Parse the whitespace syntax 's1 s2 s1^-1'."""
        letters = []
        for tok in text.split():
            m = _LETTER.match(tok)
            if m is None:
                raise ValueError(f"bad braid letter {tok!r}")
            letters.append((int(m.group(1)), -1 if m.group(2) else 1))
        return cls(n, tuple(letters))

    def __str__(self):
        return " ".join(f"s{i}" if e == 1 else f"s{i}^-1" for i, e in self.letters)


@dataclass
class RelationReport:
    """Outcome of checking the defining relations on a matrix family."""

    braid_relations_ok: bool
    far_commutation_ok: bool
    failures: list[tuple[str, tuple[int, int]]] = field(default_factory=list)

    @property
    def ok(self):
        return self.braid_relations_ok and self.far_commutation_ok


def verify_braid_relations(rep: "Representation") -> RelationReport:
    """Check both defining relation families on the generator images, exactly.

    The check runs in O(n) relations through D = ``rep.tau``, the image of
    delta = s1 s2 ... s(n-1): B_n is presented on sigma_1 and delta
    (Kassel and Turaev, *Braid Groups*, GTM 247, Ch. 1).  It tests the shifts
    D g_i = g_(i+1) D for i <= n-2 and the commutation of g_1 with g_j for
    3 <= j <= n//2 + 1.  These hold in every representation, since delta s_i
    delta^-1 = s_(i+1) in B_n, and they imply every other relation:

    - Commutations.  The shifts give g_i = D^(i-1) g_1 D^(1-i), so D =
      (g_1 D)^(n-1) D^(1-n).  Then D^n = (g_1 D)^(n-1) commutes with g_1 D
      and with D, so it is central, and conjugating by D^(1-j) shows that
      [g_1, g_j] = 1 exactly when [g_(n+2-j), g_1] = 1.  Conjugating by
      powers of D carries (1, j) to every pair (i, i+j-1).
    - Braid relations.  Let P = g_3 ... g_(n-1).  Since g_1 commutes with
      every factor of P, D g_1 = g_1 g_2 g_1 P and g_2 D = g_2 g_1 g_2 P, so
      the shift at i = 1 is the braid relation at (1, 2); powers of D carry
      it to (i, i+1).

    So the shortcut passes exactly when every relation holds, and only a
    failing family pays for the pairwise scan that lists its failures.  Each
    relation is tested on the factors A_i = g_i - 1 = R_i^T Y_i / s_i of rank
    k (``Representation.factor``) in O(k r^2), through k x k middle matrices.
    """
    if rep.n > 2 and _shortcut_holds(rep):
        return RelationReport(True, True)
    return _pairwise_relation_report(rep)


def _lift(img, mid, y):
    """The columns of R^T mid y for the canonical rows R of img, a zero column
    as None: R^T is injective, so exactly the zero coordinate columns lift to 0."""
    cols = zip(*mul_rows(mid, y, img.ambient_dim))
    return [any(col) and img.combination(col) or None for col in cols]


def _shift_holds(rep, i) -> bool:
    """Whether D A_i = A_(i+1) D, for 0 <= i <= n-2, from q = ``rep.shift(i)``:
    num(D) R_i^T = R_(i+1)^T q / m, s_(i+1) = m den(A_(i+1)) and R_(i+1)^T is
    injective, so D A_i = A_(i+1) D iff den(A_(i+1)) q Y_i = s_i Y_(i+1) num(D).
    As D is invertible, the shift fails where q is None: D Im A_i != Im A_(i+1)."""
    q = rep.shift(i)
    if q is None:
        return False
    (_, y, s), (_, y2, _), den2 = rep.factor(i), rep.factor(i + 1), rep.generators[i].den
    lhs, rhs = mul_rows(q, y, rep.r), mul_rows(y2, rep.tau.num, rep.r)
    return all(den2 * a == s * b for u, v in zip(lhs, rhs) for a, b in zip(u, v))


def _shortcut_holds(rep) -> bool:
    """The relations of ``verify_braid_relations`` on the factors, on n > 2 strands."""
    if not all(_shift_holds(rep, i) for i in range(1, rep.n - 1)):
        return False
    ia, ya, _ = rep.factor(1)
    for j in range(3, rep.n // 2 + 2):
        (ij, yj, _), m1j, mj1 = rep.factor(j), rep.middle(1, j), rep.middle(j, 1)
        if (any(map(any, m1j)) or any(map(any, mj1))) and _lift(ia, m1j, yj) != _lift(ij, mj1, ya):
            return False
    return True


def _pairwise_relation_report(rep: "Representation") -> RelationReport:
    """Every defining relation checked on its own pair, failures in scan order."""
    g = {i: rep.gen(i) for i in range(1, rep.n)}
    failures = []
    braid_ok = True
    for i in range(1, rep.n - 1):
        a, b = g[i], g[i + 1]
        if a * b * a != b * a * b:
            braid_ok = False
            failures.append(("braid relation", (i, i + 1)))
    far_ok = True
    for i in range(1, rep.n):
        for j in range(i + 2, rep.n):
            if g[i] * g[j] != g[j] * g[i]:
                far_ok = False
                failures.append(("far commutation", (i, j)))
    return RelationReport(braid_ok, far_ok, failures)


def verify_cyclic_conjugation(rep: "Representation") -> bool:
    """True iff D = ``rep.tau`` shifts each A_i to A_(i+1), indices mod n.  As A_0 =
    D A_(n-1) D^-1, the shifts for 1 <= i <= n-2 (``_shift_holds``) decide: they make
    D^n = (g_1 D)^(n-1) commute with g_1 (``verify_braid_relations``), the shift at 0."""
    return all(_shift_holds(rep, i) for i in range(1, rep.n - 1))


def verify_deformed_relations(rep: "Representation") -> bool:
    """Check the relation consequences carried by the deformations A_i.

    Non-neighbors (circular distance >= 2) must commute, and each neighbor
    pair must share the common value A + A^2 + ABA = B + B^2 + BAB.
    """
    n = rep.n
    a = [rep.deformation(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if circular_distance(i, j, n) >= 2 and a[i] * a[j] != a[j] * a[i]:
                return False
    for i in range(n):
        x, y = a[i], a[(i + 1) % n]
        if x + x * x + x * y * x != y + y * y + y * x * y:
            return False
    return True


def evaluate_word(rep: "Representation", word: BraidWord) -> Matrix:
    """Ordered product of generator images and inverses."""
    if word.n != rep.n:
        raise ShapeError(f"word on {word.n} strands applied to a {rep.n}-strand family")
    out = Matrix.identity(rep.r)
    for idx, exp in word.letters:
        out = out * (rep.gen(idx) if exp == 1 else rep.gen_inverse(idx))
    return out
