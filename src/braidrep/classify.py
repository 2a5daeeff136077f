"""Invariant subspaces, irreducibility certificates and standard-form recovery.

Irreducibility over the algebraic closure is certified by the generated
matrix algebra being all of r x r (the Burnside criterion), reducibility by
an invariant subspace that is verified before it is reported
(``_is_invariant``).  ``decide_irreducibility`` is the one decision
procedure, used by ``analyze``, ``tym_irreducibility`` and the command line;
its docstring lists the certificates in the order it tries them.  The proofs
are given once each: the character divided out first in ``_character``, the
Norton step in ``_norton_step`` and ``_eigenspace``, the orbits in ``_orbit``
and the chain step in ``extract_standard_form``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from operator import mul

from .braid import RelationReport, circular_distance, verify_braid_relations, verify_cyclic_conjugation
from .errors import BraidRepError, NotARepresentationError, PreconditionError
from .friendship import (
    GraphClass,
    are_friends,
    classify_distances,
    classify_graph,
    full_friendship_graph,
)
from .linalg import (
    EchelonSpan,
    Matrix,
    Subspace,
    _identity_rows,
    _lowest_terms,
    _over_lcm,
    _plus_scalar,
    _primitive,
    clear_denominators,
    combine,
    inverse,  # noqa: F401  bench/test_bench.py expects this binding
    kernel_basis,
    minimal_polynomial,
    monic_roots,
    mul_rows,
    rank,
    rational_eigenvalues,
)
from .zoo import corank, tensor_character, tym_standard

_PROJECTORS_DETAIL = "coordinate projectors certify the full matrix algebra"

DEFAULT_SEED = 0


class Verdict(str, enum.Enum):
    ABSOLUTELY_IRREDUCIBLE = "AbsolutelyIrreducible"
    REDUCIBLE = "Reducible"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class IrreducibilityVerdict:
    tag: Verdict
    witness: Subspace | None = None
    algebra_dim: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class StandardFormResult:
    u: Fraction
    basis: Matrix


_CLOSURE_PRIME = (1 << 61) - 1


class _ModpSpan:
    """Span of integer vectors reduced mod p, grown one vector at a time:
    the F_p counterpart of ``EchelonSpan``.  Rows are monic and kept in
    insertion order, which is a valid elimination order because each new
    row is reduced against all earlier ones."""

    def __init__(self, p):
        self.p = p
        self.rows = []

    @property
    def dim(self):
        return len(self.rows)

    def add(self, vec):
        """Insert an integer vector; returns its reduced form if new, else None.
        Only the multipliers are reduced mod p in the loop, and v once after
        it: each step is congruent to the reduced one."""
        p, v = self.p, vec
        for piv, row in self.rows:
            c = v[piv] % p
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        v = [e % p for e in v]
        piv = next((k for k, e in enumerate(v) if e), None)
        if piv is None:
            return None
        inv = pow(v[piv], p - 2, p)
        v = [(e * inv) % p for e in v]
        self.rows.append((piv, v))
        return v


def _orbit(rep, vec, transposed=False, images_span=False) -> Subspace:
    """Span of the orbit of the integer vector ``vec`` under the generator
    images, or under their transposes, closed in the coordinates of the
    factors A_i = R_i^T Y_i / s_i (``Representation.factor``) on the middles
    M_ij = Y_i R_j^T (``Representation.middles``).

    The orbit of v is W = span{v} + sum_i R_i^T V_i, where V_i in Q^(k_i) is
    the least subspace that holds Y_i v and satisfies M_ij V_j in V_i for
    every j.  Proof: A_i v = R_i^T (Y_i v) / s_i and A_i R_j^T x = R_i^T
    (M_ij x) / s_i lie in R_i^T V_i, so W is invariant under every g_i = 1 +
    A_i and holds v, and the orbit O lies in W.  Conversely the spaces {x :
    R_i^T x in O} hold Y_i v and satisfy the same inclusions, as O is
    invariant; they contain the least V_i, so W lies in O.  For the
    transposes A_i^T = Y_i^T R_i / s_i the roles of R_i and Y_i swap, and the
    middles are R_i Y_j^T = M_ji^T, applied to w as the combination w^T M_ji.

    The V_i are closed on the middles, and a target is skipped once V_i is
    Q^(k_i): each new basis vector of V_j costs a k_i x k_j product for each
    V_i that is not full yet, and at k = 1 the closure is a search of the
    graph of nonzero middles.  Where every V_i is full, W = span{v} + sum_i
    Im A_i, which is Q^r whenever the images span Q^r: ``images_span`` says
    the caller knows they do.  For the transposes the images are spanned by
    the rows of the Y_i, which span Q^r exactly where the generators fix no
    nonzero vector (their common kernel is the annihilator of those rows).
    Otherwise v and the bases of the R_i^T V_i, at most 1 + sum_i k_i
    vectors, are eliminated once.
    """
    r, n = rep.r, rep.n
    if not any(vec):
        return Subspace.zero(r)
    outs, inns, spaces = {}, {}, {}
    for i in range(1, n):
        img, y, _ = rep.factor(i)
        if img.dim:
            outs[i], inns[i] = (y, img.rows) if transposed else (img.rows, y)
            spaces[i] = EchelonSpan(img.dim)
    mids, ambient = rep.middles, EchelonSpan(r)
    growing = dict(spaces)  # the V_i that are not Q^(k_i) yet
    # (0, v), then (j, w): a new basis vector w of V_j.
    work = [(0, ambient.add(vec))]
    while work and growing:
        j, w = work.pop()
        for i, space in list(growing.items()):
            rows = inns[i] if j == 0 else mids.get((j, i) if transposed else (i, j))
            if rows and (added := space.add(combine(w, rows, space.length) if transposed and j
                                            else [sum(map(mul, row, w)) for row in rows])) is not None:
                work.append((i, added))
                if space.dim == space.length:
                    del growing[i]
    if images_span and not growing:
        return Subspace.full(r)
    for i, space in spaces.items():
        for w in space.rows:
            if ambient.dim == r:
                return Subspace.full(r)
            ambient.add(combine(w, outs[i], r))
    return Subspace._from_canonical(r, *ambient.canonical_rows())


def spin(rep, v) -> Subspace:
    """Smallest subspace containing v that is closed under all generator
    images and their inverses.  It is grown under the images alone, as in
    ``_is_invariant``."""
    return _orbit(rep, clear_denominators(v)[0])


def _algebra_dim(rep, span) -> int:
    """Dimension of the unital algebra generated by the images over the field
    of ``span`` (an empty ``EchelonSpan`` or ``_ModpSpan``): the closure of the
    identity under left multiplication by the numerators N_i = den(g_i) g_i,
    which generate the same algebra over Q, stopped once it reaches r^2.

    For A_i = R_i^T Y_i / s_i (``Representation.factor``), den(g_i) = s_i / m_i
    and R_i^T Y_i = m_i num(A_i), m_i the lcm of the pivot entries of Im A_i,
    so N_i W = (s_i W + R_i^T (Y_i W)) / m_i exactly for an integer matrix W;
    R_i = 1 where the image is full, and a zero A_i is skipped, as N_i W = W.
    Over F_p the closure spans the reduction of the Z-span of the words in
    the N_i, so its dimension never exceeds the rational one, whatever p divides.
    """
    r = rep.r
    acts = [(None if img.is_full() else tuple(zip(*img.rows)), y, s, img._leads[1])
            for img, y, s in map(rep.factor, range(1, rep.n)) if img.dim]
    work = [span.add([int(i == j) for i in range(r) for j in range(r)])]
    while work and span.dim < r * r:
        w = work.pop()
        rows = [w[k : k + r] for k in range(0, r * r, r)]
        for rt, y, s, m in acts:
            yw = mul_rows(y, rows, r)
            ryw = yw if rt is None else mul_rows(rt, yw, r)
            if (added := span.add([(s * a + b) // m for row, out in zip(rows, ryw) for a, b in zip(row, out)])):
                work.append(added)
    return span.dim


def _modp_algebra_is_full(rep) -> bool:
    """Sound fullness certificate for the generated matrix algebra: a full
    closure modulo the prime p = 2^61 - 1 (``_algebra_dim``) proves the
    rational algebra all of r x r; a thin one proves nothing."""
    return _algebra_dim(rep, _ModpSpan(_CLOSURE_PRIME)) == rep.r ** 2


def _rank_one_factors(rows):
    """Integer vectors ``(x, y)`` with the integer rows ``rows`` a nonzero
    multiple of x y^T, or None when their rank is not one."""
    y = next((row for row in rows if any(row)), None)
    if y is None:
        return None
    j = next(k for k, e in enumerate(y) if e)
    x = [row[j] for row in rows]
    # Every row of a rank-one matrix is a multiple of y, namely x_i / y_j times it.
    if any(a * y[j] != xi * b for row, xi in zip(rows, x) for a, b in zip(row, y)):
        return None
    return x, list(y)


def _eigenspace(u, v, lam, r, vu) -> Subspace:
    """ker(u^T v - lam) in Q^r, for k x r integer rows u, which are
    independent, and v, and an integer lam; ``vu`` is the k x k product
    v u^T, and v is read only at lam = 0.

    At lam = 0 it is ker v, as u^T is injective.  Otherwise it is
    u^T ker(v u^T - lam), read on k x k: an eigenvector w equals
    u^T (v w) / lam, so it is u^T c for some c, and as (u^T v) u^T =
    u^T (v u^T) with u^T injective, u^T c is an eigenvector of u^T v for
    lam exactly when c is one of v u^T.
    """
    if not lam:
        return kernel_basis(_lowest_terms(v, 1, r))
    kernel = kernel_basis(_plus_scalar(_lowest_terms(vu, 1, len(u)), -lam))
    return Subspace._span(r, (combine(c, u, r) for c in kernel.rows))


def _norton_candidates(rep):
    """``(kind, where, x, make_y, decisive)`` for the Norton step, in the
    order it tries them.  The words are A_1 = R_1^T Y_1 / s_1 and the
    neighbor cubic A_1 + A_1^2 + A_1 A_2 A_1 = R_1^T C Y_1 / (s_1 s_2)^2, C =
    ``rep.cubic(1, 2)``: each is theta = R_1^T (left Y_1) / d with left = 1
    or C, a word in the generators in every basis.  First comes x y^T for
    every theta of rank one (theta has the rank of left, and left = a b^T
    gives x = R_1^T a and y = Y_1^T b).  Then, for each other theta and each
    of its rational eigenvalues lambda in ascending order (mu / d for the
    integer eigenvalues mu of M_11 left, in their order as d > 0, and 0
    where k < r), x is the first canonical row of ker(theta - lambda) and y
    that of ker(theta - lambda)^T, both read by ``_eigenspace``; y is formed
    only when ``make_y()`` is called.  Last, where k < r, x = R_1^T c and y
    = Y_1^T c' for the first nonzero columns c of left Y_1 and c' of left^T
    R_1, in Im theta and Im theta^T: on m copies of a W where theta has rank
    one, Im theta is x (x) Q^m, and each of its vectors spans one copy.
    ``decisive`` says that two full orbits of x and y prove the algebra full
    (``_norton_step``): at rank one, and for a kernel exactly when it is a line."""
    r, (img, y1, s1) = rep.r, rep.factor(1)
    k, m11 = img.dim, rep.block(1, 1)
    words = [("A_1", _identity_rows(k), s1, m11)]  # (name, left, d, M_11 left)
    if rep.n > 2:
        cubic = rep.cubic(1, 2)
        words.append(("the neighbor cubic", cubic, (s1 * rep.factor(2)[2]) ** 2, mul_rows(m11, cubic, k)))
    others = []
    for name, left, d, p in words:
        found = _rank_one_factors(left)
        if found is None:
            others.append((name, left, d, p))
        else:
            a, b = found
            yield ("factor", f"{name}, which has rank one", img.combination(a),
                   partial(combine, b, y1, r), True)
    for name, left, d, p in others:
        mus = set(map(int, rational_eigenvalues(_lowest_terms(p, 1, k))))
        if k < r:
            mus.add(0)
        # d theta = R_1^T (left Y_1) and d theta^T = Y_1^T (left^T R_1): their k x k
        # products are left M_11 and (M_11 left)^T, and their second factors are read at 0 only.
        vu, left_t, p_t = mul_rows(left, m11, k), tuple(zip(*left)), tuple(zip(*p))
        for mu in sorted(mus):
            right = _eigenspace(img.rows, None if mu else mul_rows(left, y1, r), mu, r, vu)
            make_y = lambda mu=mu: _eigenspace(y1, None if mu else mul_rows(left_t, img.rows, r), mu, r, p_t).rows[0]
            yield ("eigenvector", f"{name} at eigenvalue {Fraction(mu, d)}", right.rows[0], make_y, right.dim == 1)
    for name, left, _, _ in others if k < r else ():
        c, c_t = (next((col for col in zip(*mul_rows(a, b, r)) if any(col)), None)
                  for a, b in ((left, y1), (tuple(zip(*left)), img.rows)))
        if c is not None:
            yield ("image vector", name, img.combination(c), partial(combine, c_t, y1, r), False)


def _norton_step(rep, fixed_free=False, images_span=False) -> IrreducibilityVerdict | None:
    """Norton's irreducibility test over Q on the elements of ``_norton_candidates``.

    A proper orbit A x of x under the generators is an invariant subspace.
    A proper orbit of y under their transposes is invariant under them, so
    its annihilator is invariant under the generators.  If both orbits are
    full and theta = x y^T has rank one, A contains (a x)(y^T b) for all a,
    b in A and is all of r x r.  If both are full and ker(theta - lambda) is
    a line, the input is absolutely irreducible: theta - lambda is singular
    on any proper submodule over the algebraic closure or on the quotient by
    it, so the submodule contains x or is annihilated by y, because the
    nullity does not change under field extension.  ``fixed_free`` says the
    caller has found no common fixed vector, and ``images_span`` that the
    images span Q^r, so the transposed and the right orbits may take the
    shortcut of ``_orbit``.  Returns the first verdict, or None when no
    element decides.
    """
    r = rep.r
    for kind, where, x, make_y, decisive in _norton_candidates(rep):
        right = _orbit(rep, x, images_span=images_span)
        if right.dim < r:
            verdict = _verified_reducible(rep, right, f"orbit of a right {kind} of {where}")
        else:
            left = _orbit(rep, make_y(), transposed=True, images_span=fixed_free)
            if left.dim == r:
                if decisive:
                    return _closure_verdict(rep, r * r, None)
                continue
            verdict = _verified_reducible(
                rep, kernel_basis(Matrix._new(left.rows, 1)),
                f"annihilator of the transposed orbit of a left {kind} of {where}",
            )
        if verdict is not None:
            return verdict
    return None


def burnside_dimension(rep) -> tuple[int, IrreducibilityVerdict]:
    """Dimension of the unital matrix algebra generated by the images.

    Full dimension r^2 certifies absolute irreducibility; anything less is
    Inconclusive on its own, because a thin algebra does not by itself
    produce an invariant subspace over the rationals.  Fullness is first
    certified modulo a large prime (``_modp_algebra_is_full``), and the exact
    closure runs only where that comes up thin.
    """
    cap = rep.r ** 2
    dim = cap if _modp_algebra_is_full(rep) else _algebra_dim(rep, EchelonSpan(cap))
    return dim, _closure_verdict(rep, dim, f"matrix algebra spans {dim} of {cap} dimensions")


def _closure_verdict(rep, dim, thin_detail) -> IrreducibilityVerdict:
    """Verdict of an algebra of dimension ``dim``: full certifies, thin is Inconclusive."""
    if dim == rep.r ** 2:
        return IrreducibilityVerdict(Verdict.ABSOLUTELY_IRREDUCIBLE, None, dim, "matrix algebra is full")
    return IrreducibilityVerdict(Verdict.INCONCLUSIVE, None, dim, thin_detail)


def _is_invariant(rep, w: Subspace) -> bool:
    """Whether every generator image and every inverse maps w into itself.

    g_i = 1 + A_i maps w into w exactly when A_i w = R_i^T (Y_i w) does,
    that is when R_i^T c lies in w for c in a basis of the span of the Y_i v,
    v the rows of w: where k < dim w, a c in the span of those checked
    before is skipped, so at most k memberships are tested.  Only g w within
    w is checked: every image is proved invertible when the family is built,
    so g w has the dimension of w and equals it, and g^-1 w = w follows
    without forming g^-1.
    """
    for i in range(1, rep.n):
        img, y, _ = rep.factor(i)
        seen = EchelonSpan(img.dim) if img.dim < w.dim else None
        for v in w.rows:
            c = [sum(map(mul, row, v)) for row in y]
            if seen is not None:
                c = seen.add(c)
            if c is not None and any(c) and not w.contains_ints(img.combination(c)):
                return False
    return True


def _verified_reducible(rep, w: Subspace, detail):
    """Promote a candidate subspace to a Reducible verdict, or return None."""
    if w.dim == 0 or w.dim >= rep.r:
        return None
    if not _is_invariant(rep, w):
        return None
    return IrreducibilityVerdict(Verdict.REDUCIBLE, w, None, detail=detail)


def _trivial_action_verdict(rep) -> IrreducibilityVerdict:
    if rep.r == 1:
        return IrreducibilityVerdict(
            Verdict.ABSOLUTELY_IRREDUCIBLE, None, 1, detail="trivial character"
        )
    line = Subspace(rep.r, ([1] + [0] * (rep.r - 1),))
    verdict = _verified_reducible(
        rep, line, f"trivial action: direct sum of {rep.r} trivial characters"
    )
    if verdict is None:
        raise RuntimeError("corank-0 input does not fix a coordinate line")
    return verdict


def lemma_bb_check(rep, i, j) -> bool:
    """Identities satisfied by neighboring deformations that are not friends.

    (a) the cubic cancellations A^2 B = A B^2 and B A^2 = B^2 A;
    (b) for each rational eigenvalue and eigenvector x of A on Im(A),
        B maps x to a new eigenvector and A B x = -(1 + eigenvalue) x.

    Read on the middles M_ab = Y_a R_b^T of A = A_i = R_i^T Y_i / s_i and B =
    A_j, R_i^T injective and the rows of Y_j independent: A^2 B = A B^2 is s_j
    M_ii M_ij = s_i M_ij M_jj, and B x = R_j^T M_ji c / s_j for x = R_i^T c, c
    in ker(M_ii / s_i - lambda) = ker(M_ii - mu) for lambda = mu / s_i, mu
    an integer eigenvalue of M_ii (``_eigenspace``), so (b) is s_i M_jj M_ji c
    = mu s_j M_ji c and M_ij M_ji c = -(s_i + mu) s_j c; then swap i, j.
    """
    if circular_distance(i, j, rep.n) != 1:
        raise PreconditionError("indices are not neighbors")
    if are_friends(rep, i, j):
        raise PreconditionError("neighbors are friends; the identities do not apply")
    m = {(a, b): rep.middle(a, b) for a in (i, j) for b in (i, j)}
    for a, b in ((i, j), (j, i)):
        ka, kb, sa, sb = len(m[a, a]), len(m[b, b]), rep.factor(a)[2], rep.factor(b)[2]
        cubes = zip(mul_rows(m[a, a], m[a, b], kb), mul_rows(m[a, b], m[b, b], kb))
        if any(sb * e != sa * f for left, right in cubes for e, f in zip(left, right)):
            return False
        maa = _lowest_terms(m[a, a], 1, ka)
        for mu in map(int, rational_eigenvalues(maa)):
            for c in kernel_basis(_plus_scalar(maa, -mu)).rows:
                bc = [sum(map(mul, row, c)) for row in m[b, a]]  # B R_a^T c = R_b^T bc / s_b
                bbc, abc = ([sum(map(mul, row, bc)) for row in m[x, b]] for x in (b, a))
                if (any(sa * e != mu * sb * f for e, f in zip(bbc, bc))
                        or any(e != -(sa + mu) * sb * f for e, f in zip(abc, c))):
                    return False
    return True


def extract_standard_form(rep) -> StandardFormResult:
    """Conjugate a representation into the standard family T(u), u != 1.

    Returns u and the change of basis B once the chain from the start
    vector proves g_i B = B T_i(u) for every generator i; otherwise raises
    ``PreconditionError`` or ``NotARepresentationError`` naming the first
    check that fails, in this order: 3 <= n, r = n, a line as the start,
    n - 1 twists, equal twists, u != 1 and Y_i a_j = 0.  Such an input is
    decided by the witness steps of ``decide_irreducibility``.

    The start a_0 is the canonical row of Im A_1 cap ker A_2 (``_chain_start``),
    and the walk a_i = g_i a_(i-1) is nonzero, as g_i is invertible.  Column
    i-1 of g_i B = B T_i(u) holds by that walk, column i by the twist check
    g_i a_i = u a_(i-1) with one u for every i, and every other column j by
    A_i a_j = 0, that is Y_i a_j = 0.  B needs no rank: by the identity,
    g_i B x = B T_i x, so ker B is invariant under T(u), which is irreducible
    for u != 1 (``_standard_fullness_certificate``).  As B e_0 = a_0 is not
    0, ker B = 0 and the n x n matrix B is invertible.  The identity implies
    corank 2, the chain graph and each chain vector lying in both
    neighboring images, so none of them is checked.

    The start is the right one: under the identity A_i = B (T_i - 1) B^-1,
    Im A_1 = B span(e_0, e_1) and ker A_2 = B span(e_j : j != 1, 2), since
    T_2 - 1 is invertible on span(e_1, e_2) (its determinant there is 1 - u),
    so Im A_1 cap ker A_2 = B span(e_0), the line of a_0.
    """
    n, r = rep.n, rep.r
    if n < 3:
        raise PreconditionError("chain recovery needs at least 3 strands")
    if r != n:
        raise PreconditionError(f"dimension {r} differs from strand count {n}")
    start = _chain_start(rep)
    chain = [(start, next(e for e in start if e))]  # a_i = v / d, in lowest terms
    for i in range(1, n):
        (v, den), (w, s) = chain[-1], rep.act(i, chain[-1][0])
        g = math.gcd(s * den, *w)
        chain.append(([e // g for e in w], s * den // g))
    twists = []
    for i in range(1, n):
        # The twist t_i with g_i a_i = back / (s_i d_i) = t_i a_(i-1); ``act``
        # forms Y_i a_i here, as the walk formed Y_i a_(i-1).
        (back, s), (_, den), (prev, pden) = rep.act(i, chain[i][0]), chain[i], chain[i - 1]
        p = next(idx for idx, e in enumerate(prev) if e)
        if not back[p] or any(a * prev[p] != b * back[p] for a, b in zip(back, prev)):
            raise NotARepresentationError(f"generator {i} does not map its chain vector into the previous line")
        twists.append(Fraction(back[p] * pden, s * den * prev[p]))
    if len(set(twists)) != 1:
        raise NotARepresentationError(f"twist factors disagree: {twists}")
    u = twists[0]
    if u == 1:
        raise PreconditionError("twist factor 1: the sum of the chain vectors is a fixed vector")
    for i in range(1, n):
        y = rep.factor(i)[1]
        if any(sum(map(mul, row, v)) for j, (v, _) in enumerate(chain) if j not in (i - 1, i) for row in y):
            raise NotARepresentationError(f"conjugated image of generator {i} does not match the standard family")
    vectors, dens = zip(*chain)
    return StandardFormResult(u=u, basis=_over_lcm(vectors, dens, r).transpose())


def _chain_start(rep):
    """The canonical row (primitive, positive pivot) of Im A_1 cap ker A_2;
    raises ``PreconditionError`` where that intersection is not a line.  R_1^T
    c lies in ker A_2 = ker Y_2 exactly when Y_2 R_1^T c = 0, and R_1^T is
    injective, so the intersection is R_1^T times the kernel of
    ``rep.middle(2, 1)``, k x k (no rows where A_2 = 0)."""
    kernel = kernel_basis(_lowest_terms(rep.middle(2, 1), 1, rep.image(1).dim))
    if kernel.dim != 1:
        raise PreconditionError(f"chain start Im A_1 cap ker A_2 has dimension {kernel.dim}, not 1")
    # The rows R_1 vanish at each other's pivots, so R_1^T c starts at the
    # pivot of the row of the first nonzero c_j, where it is c_j > 0 times
    # that row's positive lead.
    return _primitive(rep.image(1).combination(kernel.rows[0]))


def tym_irreducibility(n, u) -> IrreducibilityVerdict:
    """The verdict of ``decide_irreducibility`` on the standard family at
    parameter u, as ``braidrep irreducible tym:n=N,u=U`` prints it."""
    return decide_irreducibility(tym_standard(n, u))[0]


def _standard_fullness_certificate(rep) -> IrreducibilityVerdict:
    """Certify by the Norton step that T(u), the standard family at u != 1 on
    n > 2 strands, spans the full algebra A(T(u)); raises if it does not.

    It checks the theorem behind the chain step of ``decide_irreducibility``,
    which takes it as proved and does not call it.
    The neighbor cubic of T(u) is (u - 1) E_11, so A(T(u)) holds every
    (a e_1)(e_1^T b) with a, b in it.  T_i and T_i^T swap the lines through
    e_(i-1) and e_i, so the orbits of e_1 under the T_i and under their
    transposes are all of Q^n, and A(T(u)) is full.  Where
    ``extract_standard_form`` proves g_i B = B T_i(u), the input's algebra
    B A(T(u)) B^-1 is full too.
    """
    verdict = _norton_step(rep)
    if verdict is None or verdict.tag is not Verdict.ABSOLUTELY_IRREDUCIBLE:
        raise RuntimeError(f"Norton step does not prove {rep.label} full")
    return replace(verdict, detail=_PROJECTORS_DETAIL)


def dimension_bound_check(rep) -> bool:
    """Whether r <= (n-1)(k-1)+1 holds for a certified irreducible input.

    The input must be decided AbsolutelyIrreducible by
    ``decide_irreducibility``, which is exactly a full generated algebra.
    """
    if rep.n == 4 or rep.r < rep.n:
        raise PreconditionError("bound applies for r >= n and n != 4")
    verdict, _, _ = decide_irreducibility(rep)
    if verdict.tag is not Verdict.ABSOLUTELY_IRREDUCIBLE:
        raise PreconditionError("input is not certified absolutely irreducible")
    k = corank(rep)
    return rep.r <= (rep.n - 1) * (k - 1) + 1


def _witness_steps(rep) -> IrreducibilityVerdict | None:
    """Common fixed vectors, then the Norton step: the first verdict, or None.

    The fixed vectors are ker A_i = ker Y_i, as R_i^T is injective: the
    kernel of the (n-1)k stacked rows Y_i.  Where the k_i add up to r and no
    image is full, ``rep.middle_product`` is the r x r matrix Y R^T of the
    stacked rows Y_i and R_i, of rank r exactly when both are invertible:
    when no nonzero vector is fixed and the images span Q^r, which the
    Norton step's orbits then take as known.  Where one image is full the
    others are 0, and the product, which leaves the rows of a full image
    out, has no column and rank 0."""
    r = rep.r
    square = sum(rep.image(i).dim for i in range(1, rep.n)) == r
    if square and rank(_lowest_terms(rep.middle_product, 1, r)) == r:
        return _norton_step(rep, fixed_free=True, images_span=True)
    stacked = [row for i in range(1, rep.n) for row in rep.factor(i)[1]]
    fixed = kernel_basis(_lowest_terms(stacked, 1, r))
    return _verified_reducible(rep, fixed, "common fixed vectors") or _norton_step(rep, fixed.is_zero())


def invariant_subspace_search(rep) -> IrreducibilityVerdict:
    """Witness search: common fixed vectors, then the witnesses of the Norton
    step.  Returns a verified Reducible verdict, or Inconclusive when neither
    finds an invariant subspace, also where the Norton step proves the
    algebra full.  ``decide_irreducibility`` runs the same two steps itself;
    this entry point stays because the benchmark's ``classify.witness_search``
    span is bound to it by name.
    """
    verdict = _witness_steps(rep)
    if verdict is not None and verdict.tag is Verdict.REDUCIBLE:
        return verdict
    return IrreducibilityVerdict(
        Verdict.INCONCLUSIVE, None, None, detail="no invariant subspace found by the ordered search"
    )


def _character(rep) -> Fraction:
    """The scalar y by which ``decide_irreducibility`` divides the input,
    picked without depending on the basis: for n >= 3 and 2k > r, k = rank
    A_1, y = 1 + mu for the nonzero rational eigenvalue mu of P = M_11 / s_1
    that gives the least rank(g_1 - 1 - mu), where that rank is below k,
    the smaller y on a tie; otherwise y = 1.

    By ``_eigenspace``, ker(A_1 - mu) = R_1^T ker(P - mu) for mu !=
    0, so rank(g_1 - 1 - mu) = r - k + rank(M_11 - lam) for lam = s_1 mu,
    below k exactly where rank(M_11 - lam) < d = 2k - r.  Where d <= 0
    nothing is formed: for lambda != 1 the lambda-eigenspace of g_1 misses
    ker A_1, so rank(g_1 - lambda) >= r - k >= k.  Let N = M_11 - lam have
    rank w < d.  Every M_11^j v lies in span(v) + Im N, so
    the Krylov space of every v has dimension at most w + 1 <= d, and where
    that of some e_i exceeds d, y = 1.  If v is not in Im N, lam is a root
    of the minimal polynomial f of v: f(M_11) v = f(lam) v + N q(M_11) v = 0
    puts f(lam) v in Im N.  One of any w + 1 coordinate vectors lies outside
    Im N, so once e_1 ... e_j are read, every lam of rank below j is among
    the integer roots of their minimal polynomials, and the reading stops
    when j exceeds the least rank found.  It stops as well once the Krylov
    spaces read span Q^k: every eigenvalue is then among their roots
    (``rational_eigenvalues``).
    """
    img, _, s = rep.factor(1)
    k, r = img.dim, rep.r
    d = 2 * k - r
    if rep.n < 3 or d <= 0:
        return Fraction(1)
    m, widths, seen = rep.middle(1, 1), {}, EchelonSpan(k)  # widths: {lam: rank(M_11 - lam)}
    for j, unit in enumerate(_identity_rows(k)[:d]):
        if widths and j > min(widths.values()) or seen.dim == k:
            break
        f = minimal_polynomial(m, unit, d, seen)
        if f is None:
            return Fraction(1)
        for lam in monic_roots(f) - widths.keys() - {0}:
            widths[lam] = rank(_plus_scalar(_lowest_terms(m, 1, k), -lam))
    width, lam = min(((w, lam) for lam, w in widths.items()), default=(d, 0))
    return 1 + Fraction(lam, s) if width < d else Fraction(1)


def decide_irreducibility(rep):
    """The irreducibility decision procedure, cheapest certificate first;
    ``analyze``, ``tym_irreducibility`` and the verbs ``analyze``,
    ``irreducible`` and ``sweep`` all go through it.

    Returns ``(verdict, standard_form, standard_form_error)``, the last two
    from the chain step when it ran.  The steps run on the core rep / y for
    y of ``_character``, which generates the same unital algebra: it has the
    verdict, algebra dimension and invariant subspaces of rep.  Where y != 1
    the detail names y, and a standard form is that of the core.  Stops at
    the first step that decides: (1) corank 0, the trivial action; (2)
    corank 2, by a certified standard form alone (the theorem in
    ``_standard_fullness_certificate``), where a failed chain step records
    its error and goes on; (3) common fixed vectors; (4) the
    Norton step, whose witnesses and fullness proof do not depend on the
    basis; (5) where no element of the Norton step decides,
    ``burnside_dimension``: the closure modulo a large prime, then the exact
    rational closure.  An algebra of dimension below r leaves every orbit
    proper, so the orbit of a coordinate vector is a witness; otherwise thin
    is Inconclusive.  Every Reducible verdict is the verified witness of step
    1, 3, 4 or 5.
    """
    return _decide(rep)[2:]


def _decide(rep):
    """``(y, core, verdict, standard_form, standard_form_error)``: y of
    ``_character``, the core rep / y (rep itself at y = 1) and the last
    three of ``decide_irreducibility``, found on the core."""
    y = _character(rep)
    core = rep if y == 1 else tensor_character(rep, 1 / y)
    verdict, standard_form, standard_form_err = _ladder(core)
    if y != 1:
        verdict = replace(verdict, detail=f"divided by the character y={y}: {verdict.detail}")
    return y, core, verdict, standard_form, standard_form_err


def _ladder(rep):
    """The steps of ``decide_irreducibility``, in its order, on rep itself."""
    ranks = {rep.image(i).dim for i in range(1, rep.n)}  # {corank}, where it exists
    if ranks == {0}:
        return _trivial_action_verdict(rep), None, None
    standard_form_err = None
    if ranks == {2}:
        try:
            standard_form = extract_standard_form(rep)
            detail = f"equivalent to the standard family at u={standard_form.u}; {_PROJECTORS_DETAIL}"
            verdict = IrreducibilityVerdict(Verdict.ABSOLUTELY_IRREDUCIBLE, None, rep.r ** 2, detail)
            return verdict, standard_form, None
        except (PreconditionError, NotARepresentationError) as exc:
            standard_form_err = str(exc)
    verdict = _witness_steps(rep)
    if verdict is None:
        dim, verdict = burnside_dimension(rep)
        if dim < rep.r:
            # An orbit A v has dimension at most dim A, so every orbit is proper.
            orbit = spin(rep, [1] + [0] * (rep.r - 1))
            detail = f"orbit of a coordinate vector under an algebra of dimension {dim}"
            verdict = _verified_reducible(rep, orbit, detail) or verdict
    return verdict, None, standard_form_err


def verdict_to_json_dict(verdict: IrreducibilityVerdict) -> dict:
    """The verdict as the JSON object that ``analyze`` and ``irreducible`` print."""
    data = {"tag": verdict.tag.value, "algebra_dim": verdict.algebra_dim}
    if verdict.witness is not None:
        data["witness"] = verdict.witness.basis.to_strings()
    data["detail"] = verdict.detail
    return data


@dataclass
class AnalysisReport:
    """Structured outcome of the full analysis pipeline."""

    source_label: str
    n: int
    r: int
    relations: dict
    corank: int | None
    corank_error: str | None
    graph_class: GraphClass | None
    graph_error: str | None
    verdict: IrreducibilityVerdict
    standard_form: StandardFormResult | None
    standard_form_error: str | None
    seed: int
    character: Fraction = Fraction(1)

    def to_json_dict(self) -> dict:
        out = {"relations": dict(self.relations)}
        out["corank"] = self.corank if self.corank_error is None else {"error": self.corank_error}
        if self.graph_error is not None:
            out["graph"] = {"error": self.graph_error}
        else:
            out["graph"] = {
                "distance_set": sorted(self.graph_class.distance_set),
                "class": self.graph_class.tag.value,
                "detail": self.graph_class.detail,
            }
        if self.character != 1:
            out["character"] = str(self.character)
        out["irreducibility"] = verdict_to_json_dict(self.verdict)
        if self.standard_form is not None:
            out["standard_form"] = {
                "u": str(self.standard_form.u),
                "basis": self.standard_form.basis.to_strings(),
            }
        elif self.standard_form_error is not None:
            out["standard_form"] = {"error": self.standard_form_error}
        out["seed"] = self.seed
        return out

    def to_text(self) -> str:
        lines = [f"analysis of {self.source_label or 'representation'} (n={self.n}, r={self.r})"]
        rel = self.relations
        ok = all(rel[k] for k in ("braid_relations_ok", "far_commutation_ok",
                                  "cyclic_conjugation_ok", "deformed_relations_ok"))
        lines.append(f"  relations: {'all hold' if ok else 'BROKEN'}")
        for desc, pair in rel["failures"]:
            lines.append(f"    failure: {desc} at {tuple(pair)}")
        if self.corank_error is None:
            lines.append(f"  corank: {self.corank}")
        else:
            lines.append(f"  corank: error ({self.corank_error})")
        if self.graph_error is None:
            dset = sorted(self.graph_class.distance_set)
            lines.append(f"  graph: {self.graph_class.tag.value}, distance set {dset}")
            if self.graph_class.detail:
                lines.append(f"    {self.graph_class.detail}")
        else:
            lines.append(f"  graph: error ({self.graph_error})")
        if self.character != 1:
            lines.append(f"  character: y = {self.character}")
        v = self.verdict
        extra = f", algebra dim {v.algebra_dim}" if v.algebra_dim is not None else ""
        lines.append(f"  irreducibility: {v.tag.value}{extra}")
        if v.witness is not None:
            lines.append(f"    witness: invariant subspace of dimension {v.witness.dim}")
        if v.detail:
            lines.append(f"    {v.detail}")
        if self.standard_form is not None:
            lines.append(f"  standard form: u = {self.standard_form.u}")
            lines.append("    certified by the chain step; corank 2 alone forces it from 7 strands")
        elif self.standard_form_error is not None:
            lines.append(f"  standard form: error ({self.standard_form_error})")
        lines.append(f"  seed: {self.seed}")
        return "\n".join(lines) + "\n"


def analyze(rep, seed=None) -> AnalysisReport:
    """Run the whole pipeline and collect findings instead of aborting.

    The decision and the relation check run on the core rep / y of
    ``decide_irreducibility``, whose relations hold and fail where those of
    rep do, as each is homogeneous; the corank and the graph are those of
    rep.  With a certified standard form at y = 1, they and the relations
    are those of T(u) (``extract_standard_form``).  Otherwise they are
    computed, the relations first.  Where they hold, D A_i D^-1 = A_(i+1)
    for every i mod n, so each pair of images is a D-translate of some
    (1, 1 + d), or of (0, 1) on 2 strands: the distance set
    {d : ``are_friends(rep, 1, 1 + d)``} is classified with no graph built
    and, for n >= 3, no Im A_0.  Otherwise the graph of every pair is
    classified.
    """
    seed = DEFAULT_SEED if seed is None else int(seed)
    corank_val = corank_err = graph_class = graph_err = None
    y, core, verdict, standard_form, standard_form_err = _decide(rep)
    report = RelationReport(True, True) if standard_form is not None else verify_braid_relations(core)
    if standard_form is not None and y == 1:
        corank_val, graph_class = 2, classify_distances(rep.n, {1})
    else:
        try:
            corank_val = corank(rep)
        except NotARepresentationError as exc:
            corank_err = str(exc)
        try:
            if report.ok:
                start = 1 if rep.n > 2 else 0
                dset = {d for d in range(1, rep.n // 2 + 1) if are_friends(rep, start, start + d)}
                graph_class = classify_distances(rep.n, dset)
            else:
                graph_class = classify_graph(full_friendship_graph(rep))
        except BraidRepError as exc:  # a refusal is recorded, not raised
            graph_err = str(exc)
    if corank_val == 2 and rep.r > rep.n >= 6 and verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE:
        standard_form_err = (
            "certified irreducible with corank 2 and r > n: "
            "violates the dimension bound, so the certification is suspect"
        )
    # An image of B_n passes the cyclic check (``verify_braid_relations``),
    # and a failed shift fails a relation: only a broken family runs it.
    cyclic = report.ok or verify_cyclic_conjugation(core)
    relations = {
        "braid_relations_ok": report.braid_relations_ok,
        "far_commutation_ok": report.far_commutation_ok,
        "cyclic_conjugation_ok": cyclic,
        "deformed_relations_ok": report.ok,
        "failures": [[desc, list(pair)] for desc, pair in report.failures],
    }
    return AnalysisReport(
        source_label=rep.label,
        n=rep.n,
        r=rep.r,
        relations=relations,
        corank=corank_val,
        corank_error=corank_err,
        graph_class=graph_class,
        graph_error=graph_err,
        verdict=verdict,
        standard_form=standard_form,
        standard_form_error=standard_form_err,
        seed=seed,
        character=y,
    )
