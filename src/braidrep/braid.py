"""Relation checking for braid group matrix families.

The braid group on n strands is generated by s1..s(n-1) subject to
s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} and far commutation s_i s_j = s_j s_i
for |i-j| >= 2.  The product tau = s1 s2 ... s(n-1) conjugates the family
cyclically, which extends the index range by a derived generator s0; all
index arithmetic here is modulo n with that convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .linalg import combine, mul_rows

if TYPE_CHECKING:  # pragma: no cover
    from .zoo import Representation


def circular_distance(i: int, j: int, n: int) -> int:
    """Distance between indices i and j around the cycle Z_n."""
    d = (i - j) % n
    return min(d, n - d)


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

    Each relation is tested on its own pair, on the factors A_i = g_i - 1 =
    R_i^T Y_i / s_i of rank k (``Representation.factor``), through the k x k
    middles M_ij = Y_i R_j^T of ``Representation.middles``: a far pair by
    ``_commutes``, a braid pair by ``_braid_holds``, so no product of
    generators is formed.  Where some A_i has full rank r, the middles are
    r x r and the check first tries a shortcut in O(n) relations through D =
    ``rep.tau``, the image of delta = s1 s2 ... s(n-1): B_n is presented on
    sigma_1 and delta (Kassel and Turaev, *Braid Groups*, GTM 247, Ch. 1).
    It tests the shifts D g_i = g_(i+1) D for i <= n-2 and the commutation of
    g_1 with g_j for 3 <= j <= n//2 + 1.  These hold in every representation,
    since delta s_i delta^-1 = s_(i+1) in B_n, and they imply every other
    relation:

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
    failing family pays for the pairwise scan that lists its failures.
    """
    if (rep.n > 2 and any(rep.image(i).is_full() for i in range(1, rep.n)) and verify_cyclic_conjugation(rep)
            and all(_commutes(rep, 1, j) for j in range(3, rep.n // 2 + 2))):
        return RelationReport(True, True)
    return _pairwise_relation_report(rep)


def _lifts_agree(img, mid, y, img2, mid2, y2) -> bool:
    """Whether R^T mid y = R2^T mid2 y2, for the canonical rows R of img and R2
    of img2 and integer matrices y and y2 whose rows are independent, in
    O(k^2 r) and without forming either r x r side.  As y2 maps onto the
    coordinate space, the columns of the right side span R2^T applied to the
    columns of mid2, so it is R^T x for some x exactly when those lie in img.  The
    canonical rows vanish at each other's pivots, so row p of R^T x is
    lead x_a at the pivot p of row a of R, and x = mid y exactly when lead
    (mid y)_a equals row p of the right side for every a.  As R^T is injective
    and y maps onto the coordinate space, a side is 0 exactly when its middle
    is, so a zero middle settles the pair at once."""
    zero, zero2 = not any(map(any, mid)), not any(map(any, mid2))
    if zero or zero2:
        return zero and zero2
    if not all(img.contains_ints(img2.combination(col)) for col in zip(*mid2)):
        return False
    r = img.ambient_dim
    left, right = mul_rows(mid, y, r), mul_rows(mid2, y2, r)
    return all([row[p] * e for e in lrow] == combine([row2[p] for row2 in img2.rows], right, r)
               for p, row, lrow in zip(img.pivots, img.rows, left))


def _shift_holds(rep, i) -> bool:
    """Whether D A_i = A_(i+1) D, for 0 <= i <= n-2 and D = ``rep.tau``.  As D
    is invertible, it fails unless D Im A_i lies in Im A_(i+1) with equal
    dimensions.  Then num(D) R_i^T = R_(i+1)^T q / m for the canonical rows R
    and the coordinates q of ``Subspace.coordinate_rows``, with m the lcm of the
    pivot entries of Im A_(i+1).  As s_(i+1) = m den(A_(i+1)) and R_(i+1)^T is
    injective, D A_i = A_(i+1) D iff den(A_(i+1)) q Y_i = s_i Y_(i+1) num(D)."""
    (img, y, s), (img2, y2, _) = rep.factor(i), rep.factor(i + 1)
    if img.dim != img2.dim:
        return False
    moved = mul_rows(img.rows, tuple(zip(*rep.tau.num)), rep.r)  # num(D) R_i^T, transposed
    if not all(map(img2.contains_ints, moved)):
        return False
    q, den2 = img2.coordinate_rows(tuple(zip(*moved)))[0], rep.generators[i].den
    lhs, rhs = mul_rows(q, y, rep.r), mul_rows(y2, rep.tau.num, rep.r)
    return all(den2 * a == s * b for u, v in zip(lhs, rhs) for a, b in zip(u, v))


def _commutes(rep, i, j) -> bool:
    """Whether A_i A_j = A_j A_i, on the factors: the two products are
    R_i^T M_ij Y_j and R_j^T M_ji Y_i over s_i s_j (``Representation.block``),
    and both are 0 where their middles are."""
    mids = rep.middles
    if (i, j) not in mids and (j, i) not in mids:
        return True
    (img, y, _), (img2, y2, _) = rep.factor(i), rep.factor(j)
    return _lifts_agree(img, rep.block(i, j), y2, img2, rep.block(j, i), y)


def _braid_holds(rep, a, b) -> bool:
    """Whether g_a g_b g_a = g_b g_a g_b, as the paper's deformed relation
    A + A^2 + ABA = B + B^2 + BAB for A = A_a and B = A_b: the two sides
    differ by exactly the difference of the braid words.  The left side is
    R_a^T C_ab Y_a / (s_a^2 s_b) (``Representation.cubic``), so over
    s_a^2 s_b^2 the relation reads s_b R_a^T C_ab Y_a = s_a R_b^T C_ba Y_b."""
    (img, y, _), (img2, y2, _) = rep.factor(a), rep.factor(b)
    return _lifts_agree(img, rep.cubic(a, b), y, img2, rep.cubic(b, a), y2)


def _pairwise_relation_report(rep: "Representation") -> RelationReport:
    """Every defining relation checked on its own pair, from the factors and
    the middles of ``Representation.middles``, which are formed once per
    representation and shared with the Norton step; failures in scan order."""
    braid = [("braid relation", (i, i + 1)) for i in range(1, rep.n - 1)
             if not _braid_holds(rep, i, i + 1)]
    far = [("far commutation", (i, j)) for i in range(1, rep.n) for j in range(i + 2, rep.n)
           if not _commutes(rep, i, j)]
    return RelationReport(not braid, not far, braid + far)


def verify_cyclic_conjugation(rep: "Representation") -> bool:
    """True iff D = ``rep.tau`` shifts each A_i to A_(i+1), indices mod n.  As A_0 =
    D A_(n-1) D^-1, the shifts for 1 <= i <= n-2 (``_shift_holds``) decide: they
    make D^n central (``verify_braid_relations``), which is the shift at 0."""
    return all(_shift_holds(rep, i) for i in range(1, rep.n - 1))


def verify_deformed_relations(rep: "Representation") -> bool:
    """Whether the A_i = g_i - 1, indices mod n, satisfy the paper's relations:
    non-neighbors (circular distance >= 2) commute, and neighbors share
    A + A^2 + ABA = B + B^2 + BAB.  These are the braid relations rewritten, so
    ``verify_braid_relations`` decides, with no sigma0.  For n >= 4 a pair
    at distance d >= 2 inside 1 ... n-1 has circular distance min(d, n - d)
    >= 2, so the relations of g_1 ... g_(n-1) are among them.  Conversely,
    those make delta^n central (``verify_braid_relations``), and
    delta-conjugation cycles sigma_0 ... sigma_(n-1), so each pair mod n is a
    delta-translate of one inside 1 ... n-1 at the same circular distance.
    On 2 strands sigma0 = s1, and the one neighbor pair (A_1, A_1) passes."""
    return verify_braid_relations(rep).ok

