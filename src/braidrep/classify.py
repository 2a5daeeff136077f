"""Invariant subspaces, irreducibility certificates and standard-form recovery.

Irreducibility over the algebraic closure is certified by the dimension of
the generated matrix algebra being r^2 (the Burnside criterion), or, for a
corank-2 chain, by its standard form and the coordinate projector
certificate; reducibility is certified by an explicit invariant subspace
witness, which is always verified before being reported.  When neither is
available the honest answer is Inconclusive.

``decide_irreducibility`` is the one decision procedure, used by ``analyze``
and the command line; it tries the certificates cheapest first.  Orbit spans
and both algebra closures share one closure loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from operator import mul
from random import Random

from .braid import (
    circular_distance,
    verify_braid_relations,
    verify_cyclic_conjugation,
)
from .errors import (
    NeedsFieldExtensionError,
    NotARepresentationError,
    PreconditionError,
    ReducibleSignal,
)
from .friendship import (
    GraphClass,
    GraphClassTag,
    classify_graph,
    friendship_graph,
    full_friendship_graph,
    neighbor_form,
)
from .linalg import (
    EchelonSpan,
    Matrix,
    Subspace,
    clear_denominators,
    inverse,
    kernel_basis,
    rank,
    rational,
    rational_eigenvalues,
)
from .zoo import corank, tym_standard

_F0 = Fraction(0)
_F1 = Fraction(1)

DEFAULT_SEED = 0
DEFAULT_SPIN_TRIALS = 16


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
    witness_checks: dict


def _scale_vec(c, v):
    return tuple(c * e for e in v)


def _is_zero_vec(v):
    return not any(v)


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
        """Insert an integer vector; returns its reduced form if new, else None."""
        p = self.p
        v = [e % p for e in vec]
        for piv, row in self.rows:
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        piv = next((k for k, e in enumerate(v) if e), None)
        if piv is None:
            return None
        inv = pow(v[piv], p - 2, p)
        v = [(e * inv) % p for e in v]
        self.rows.append((piv, v))
        return v


def _closure(span, start, actions, cap):
    """Grow ``span`` (an empty ``EchelonSpan`` or ``_ModpSpan``) to the
    smallest subspace containing ``start`` and closed under every linear map
    in ``actions``, stopping early at dimension ``cap``; returns ``span``."""
    first = span.add(start)
    work = [] if first is None else [first]
    while work and span.dim < cap:
        w = work.pop()
        for act in actions:
            added = span.add(act(w))
            if added is not None:
                work.append(added)
    return span


def _left_mul(g, ncols, w):
    """g times the matrix with ``ncols`` columns flattened row by row into w,
    flattened the same way; with one column this is g times the vector w."""
    cols = [w[j::ncols] for j in range(ncols)]
    return [sum(map(mul, grow, col)) for grow in g for col in cols]


def spin(rep, v) -> Subspace:
    """Smallest subspace containing v that is closed under all generator
    images and their inverses.  It is grown under the images alone: in finite
    dimension, a subspace an invertible map sends into itself is closed under
    the inverse map too."""
    # Integer numerators act in place of the images: scaling an image by its
    # denominator does not change the span.
    actions = [partial(_left_mul, rep.gen(i).num, 1) for i in range(1, rep.n)]
    return _closure(EchelonSpan(rep.r), clear_denominators(v)[0], actions, rep.r).to_subspace()


def _algebra_dim(gens, r, span) -> int:
    """Dimension of the unital algebra generated by the r x r integer
    matrices ``gens`` over the field of ``span``: the closure of the
    identity under left multiplication by the generators."""
    ident = [int(i == j) for i in range(r) for j in range(r)]
    return _closure(span, ident, [partial(_left_mul, g, r) for g in gens], r * r).dim


def _modp_algebra_is_full(rep, p=_CLOSURE_PRIME) -> bool:
    """Sound fullness certificate for the generated matrix algebra.

    The closure dimension modulo p never exceeds the rational one, so a full
    modular closure proves that the rational algebra is all of r x r.  A thin
    modular closure proves nothing and returns False.  Generators act through
    their integer numerators, since scaling a generator does not change the
    algebra it generates; a denominator divisible by p aborts the certificate.
    """
    gens = [rep.gen(i) for i in range(1, rep.n)]
    if any(m.den % p == 0 for m in gens):
        return False
    gens = [[[e % p for e in row] for row in m.num] for m in gens]
    return _algebra_dim(gens, rep.r, _ModpSpan(p)) == rep.r ** 2


def _rational_algebra_dim(rep) -> int:
    """Exact dimension of the generated algebra over Q."""
    gens = [rep.gen(i).num for i in range(1, rep.n)]
    return _algebra_dim(gens, rep.r, EchelonSpan(rep.r ** 2))


def burnside_dimension(rep) -> tuple[int, IrreducibilityVerdict]:
    """Dimension of the unital matrix algebra generated by the images.

    Full dimension r^2 certifies absolute irreducibility; anything less is
    Inconclusive on its own, because a thin algebra does not by itself
    produce an invariant subspace over the rationals.

    Fullness is first certified modulo a large prime, which is exact in that
    direction and avoids the coefficient growth of the rational closure; the
    exact closure runs only when the modular one comes up thin.
    """
    cap = rep.r ** 2
    dim = cap if _modp_algebra_is_full(rep) else _rational_algebra_dim(rep)
    return dim, _closure_verdict(rep, dim, f"matrix algebra spans {dim} of {cap} dimensions")


def _closure_verdict(rep, dim, thin_detail) -> IrreducibilityVerdict:
    """Verdict of an algebra of dimension ``dim``: full certifies, thin is Inconclusive."""
    if dim == rep.r ** 2:
        return IrreducibilityVerdict(Verdict.ABSOLUTELY_IRREDUCIBLE, None, dim, "matrix algebra is full")
    return IrreducibilityVerdict(Verdict.INCONCLUSIVE, None, dim, thin_detail)


def _is_invariant(rep, w: Subspace) -> bool:
    for v in w.basis_vectors():
        for i in range(1, rep.n):
            if not w.contains(rep.gen(i) * v):
                return False
            if not w.contains(rep.gen_inverse(i) * v):
                return False
    return True


def _verified_reducible(rep, w: Subspace | None, detail):
    """Promote a candidate subspace, if any, to a Reducible verdict, or return None."""
    if w is None or w.dim == 0 or w.dim >= rep.r:
        return None
    if not _is_invariant(rep, w):
        return None
    return IrreducibilityVerdict(Verdict.REDUCIBLE, w, None, detail=detail)


def _restriction_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """Matrix of m acting on an m-invariant subspace, in its canonical basis."""
    cols = []
    for v in sub.basis_vectors():
        coords = sub.coordinates(m * v)
        if coords is None:
            raise PreconditionError("subspace is not invariant under the operator")
        cols.append(coords)
    return Matrix(tuple(zip(*cols)))


def _trivial_action_verdict(rep) -> IrreducibilityVerdict:
    if rep.r == 1:
        return IrreducibilityVerdict(
            Verdict.ABSOLUTELY_IRREDUCIBLE, None, 1, detail="trivial character"
        )
    line = Subspace(rep.r, ((_F1,) + (_F0,) * (rep.r - 1),))
    verdict = _verified_reducible(
        rep, line, f"trivial action: direct sum of {rep.r} trivial characters"
    )
    if verdict is None:
        raise RuntimeError("corank-0 input does not fix a coordinate line")
    return verdict


def _image_eigenspaces(rep, i):
    """``(lambda, eigenspace)`` for each rational eigenvalue of A_i on its image."""
    a, img = rep.deformation(i), rep.images[i]
    if img.is_zero():
        return []
    ident = Matrix.identity(rep.r)
    return [(lam, img.intersect(kernel_basis(a - ident * lam)))
            for lam in rational_eigenvalues(_restriction_matrix(a, img))]


def _verify_chain_formulas(rep, xs, lam):
    """Check the four action formulas that make span{x_1..x_{n-1}} invariant."""
    n = rep.n
    minus = -(1 + lam)
    for pos in range(1, n):
        xi = xs[pos - 1]
        if rep.deformation(pos) * xi != _scale_vec(lam, xi):
            raise NotARepresentationError(f"A_{pos} does not scale chain vector {pos}")
        if pos >= 2 and rep.deformation(pos - 1) * xi != _scale_vec(minus, xs[pos - 2]):
            raise NotARepresentationError(f"A_{pos - 1} acts wrongly on chain vector {pos}")
        if pos <= n - 2 and rep.deformation(pos + 1) * xi != xs[pos]:
            raise NotARepresentationError(f"A_{pos + 1} acts wrongly on chain vector {pos}")
        for j in range(1, n):
            if abs(j - pos) > 1 and not _is_zero_vec(rep.deformation(j) * xi):
                raise NotARepresentationError(f"A_{j} does not kill chain vector {pos}")


def disconnected_invariant_subspace(rep) -> IrreducibilityVerdict:
    """Invariant-subspace construction for a totally disconnected graph.

    Picks a rational eigenvalue of A_1 on its own image, propagates the
    eigenvector through the neighboring deformations and spans the resulting
    chain.  The chain's action formulas are verified before the span is
    reported as a witness.
    """
    if corank(rep) == 0:
        return _trivial_action_verdict(rep)
    if friendship_graph(rep).edge_count():
        raise PreconditionError("friendship graph has edges; construction needs total disconnection")
    eigenspaces = _image_eigenspaces(rep, 1)
    if not eigenspaces:
        raise NeedsFieldExtensionError(
            "no rational eigenvalue on the image of the first deformation; "
            "the construction needs a field extension"
        )
    for lam, w in eigenspaces:
        xs = [w.vector(0)]
        for i in range(2, rep.n):
            xs.append(rep.deformation(i) * xs[-1])
        _verify_chain_formulas(rep, xs, lam)
        span = Subspace(rep.r, xs)
        verdict = _verified_reducible(rep, span, f"eigenvector chain at eigenvalue {lam}")
        if verdict is not None:
            return verdict
    return IrreducibilityVerdict(
        Verdict.INCONCLUSIVE, None, None,
        detail="every eigenvector chain spans the full space",
    )


def lemma_bb_check(rep, i, j) -> bool:
    """Identities satisfied by neighboring deformations that are not friends.

    (a) the cubic cancellations A^2 B = A B^2 and B A^2 = B^2 A;
    (b) for each rational eigenvalue and eigenvector x of A on Im(A),
        B maps x to a new eigenvector and A B x = -(1 + eigenvalue) x.
    """
    n = rep.n
    if circular_distance(i, j, n) != 1:
        raise PreconditionError("indices are not neighbors")
    if not rep.meet(i, j).is_zero():
        raise PreconditionError("neighbors are friends; the identities do not apply")
    a = rep.deformation(i)
    b = rep.deformation(j)
    if a * a * b != a * b * b or b * a * a != b * b * a:
        return False
    for x, y in ((i, j), (j, i)):
        x_mat, y_mat = rep.deformation(x), rep.deformation(y)
        for lam, w in _image_eigenspaces(rep, x):
            for vec in w.basis_vectors():
                bx = y_mat * vec
                if y_mat * bx != _scale_vec(lam, bx):
                    return False
                if x_mat * bx != _scale_vec(-(1 + lam), vec):
                    return False
    return True


def _chain_data(rep):
    """Shared worker for chain recovery: basis columns and twist factors.

    Verifies, in order: 4 <= n = r, corank 2, one-dimensional neighbor
    intersections, no non-neighbor friendships; then builds the chain basis
    and checks that each step stays in the successive intersections, that
    each generator sends its own chain vector back into the previous span,
    and that the columns are independent.
    """
    n, r = rep.n, rep.r
    if n < 4:
        raise PreconditionError("chain recovery needs at least 4 strands")
    if r != n:
        raise PreconditionError(f"dimension {r} differs from strand count {n}")
    k = corank(rep)
    if k != 2:
        raise PreconditionError(f"corank is {k}, not 2")
    inter = []
    for i in range(n):
        w = rep.meet(i, (i + 1) % n)
        if w.dim >= 2:
            raise ReducibleSignal(
                "neighboring deformation images coincide; the common plane is invariant",
                witness=rep.images[i],
            )
        if w.dim == 0:
            raise PreconditionError(
                f"friendship graph is not a chain: images {i} and {(i + 1) % n} meet trivially"
            )
        inter.append(w)
    for i in range(n):
        for j in range(i + 1, n):
            if circular_distance(i, j, n) >= 2 and not rep.meet(i, j).is_zero():
                raise PreconditionError(
                    f"friendship graph is not a chain: non-neighbor friendship at ({i},{j})"
                )
    cols = [inter[0].vector(0)]
    for i in range(1, n):
        cols.append(rep.gen(i) * cols[-1])
    for i in range(n):
        if Subspace(r, (cols[i],)) != inter[i]:
            raise NotARepresentationError(
                f"chain vector {i} does not span the expected neighbor intersection"
            )
    twists = []
    for i in range(1, n):
        back = rep.gen(i) * cols[i]
        prev = cols[i - 1]
        p = next(idx for idx, e in enumerate(prev) if e)
        u = back[p] / prev[p]
        if u == 0 or back != _scale_vec(u, prev):
            raise NotARepresentationError(
                f"generator {i} does not map its chain vector into the previous line"
            )
        twists.append(u)
    basis = Matrix(tuple(zip(*cols)))
    if rank(basis) != n:
        raise ReducibleSignal(
            "chain vectors are dependent; their span is a proper invariant subspace",
            witness=Subspace(r, cols),
        )
    return basis, twists


def chain_basis(rep) -> Matrix:
    """Basis matrix whose columns are the chain vectors a_0 .. a_{n-1}."""
    basis, _ = _chain_data(rep)
    return basis


def extract_standard_form(rep) -> StandardFormResult:
    """Conjugate a corank-2 chain representation into the standard family.

    Returns the single twist parameter u and the change of basis; the
    conjugated generator images are compared entry-exactly against the
    standard family before returning.
    """
    basis, twists = _chain_data(rep)
    if len(set(twists)) != 1:
        raise NotARepresentationError(f"twist factors disagree: {twists}")
    u = twists[0]
    if u == 1:
        ones = (_F1,) * rep.n
        raise ReducibleSignal(
            "twist factor 1: the sum of the chain vectors is a fixed vector",
            witness=Subspace(rep.r, (basis * ones,)),
        )
    target = tym_standard(rep.n, u)
    binv = inverse(basis)
    for i in range(1, rep.n):
        if binv * rep.gen(i) * basis != target.gen(i):
            raise NotARepresentationError(
                f"conjugated image of generator {i} does not match the standard family"
            )
    checks = {
        "neighbor_intersections_one_dimensional": True,
        "chain_vectors_span_intersections": True,
        "generators_map_chain_vectors_back": True,
        "basis_columns_independent": True,
        "twist_factors_all_equal": True,
        "conjugated_images_match_standard_family": True,
    }
    return StandardFormResult(u=u, basis=basis, witness_checks=checks)


def tym_irreducibility(n, u) -> IrreducibilityVerdict:
    """Decide irreducibility of the standard family at parameter u.

    At u = 1 the generators are permutation matrices, whose common fixed
    vectors are the multiples of the all-ones vector: a verified witness.
    Otherwise the coordinate projector certificate proves the generated
    algebra full.
    """
    u = rational(u)
    if u == 1:
        return _common_fixed_vectors(tym_standard(n, u))
    return _standard_fullness_certificate(n, u)


def _standard_fullness_certificate(n, u) -> IrreducibilityVerdict:
    """Certify that the standard family at u != 1 spans the full algebra.

    The neighbor cubic at each coordinate is (u - 1) times a diagonal matrix
    unit, so every diagonal unit lies in the generated algebra; each
    coordinate orbit spans the whole space, which upgrades the diagonal
    units to all matrix units.  Much cheaper than the closure computation
    and exactly as conclusive; any failed identity raises.
    """
    u = rational(u)
    rep = tym_standard(n, u)
    scale = u - 1
    for c in range(n):
        h = neighbor_form(rep.deformation(c), rep.deformation((c + 1) % n))
        expected = Matrix(
            tuple(
                tuple(scale if i == c and j == c else _F0 for j in range(n))
                for i in range(n)
            )
        )
        if h != expected:
            raise RuntimeError(f"coordinate projector identity failed at {c}")
        e_c = tuple(_F1 if k == c else _F0 for k in range(n))
        if not spin(rep, e_c).is_full():
            raise RuntimeError(f"coordinate orbit at {c} is not the full space")
    return IrreducibilityVerdict(
        Verdict.ABSOLUTELY_IRREDUCIBLE, None, n * n,
        detail="coordinate projectors certify the full matrix algebra",
    )


def dimension_bound_check(rep) -> bool:
    """Whether r <= (n-1)(k-1)+1 holds for a certified irreducible input."""
    if rep.n == 4 or rep.r < rep.n:
        raise PreconditionError("bound applies for r >= n and n != 4")
    _, verdict = burnside_dimension(rep)
    if verdict.tag is not Verdict.ABSOLUTELY_IRREDUCIBLE:
        raise PreconditionError("input is not certified absolutely irreducible")
    k = corank(rep)
    return rep.r <= (rep.n - 1) * (k - 1) + 1


def _common_fixed_vectors(rep):
    """Reducible verdict witnessed by the vectors every generator fixes, or None."""
    # Stacked numerators: scaling a deformation does not change its kernel.
    stacked = Matrix(tuple(row for i in range(1, rep.n) for row in rep.deformation(i).num))
    return _verified_reducible(rep, kernel_basis(stacked), "common fixed vectors")


def _common_eigenvectors(rep):
    """Reducible verdict witnessed by the vectors that every generator
    scales by one eigenvalue other than 1, or None.

    The braid relation s_i s_j s_i = s_j s_i s_j forces a vector scaled by
    every generator to be scaled by the same lambda under all of them, so
    the common lambda-eigenspace is invariant.  Such a vector lies in the
    common kernel K of the differences of consecutive generators, and its
    lambda is an eigenvalue of the first generator read on the pivot
    coordinates of K's canonical basis.  Unlike an orbit, this does not
    depend on the basis the input is written in.
    """
    diffs = tuple(row for i in range(1, rep.n - 1) for row in (rep.gen(i) - rep.gen(i + 1)).num)
    common = kernel_basis(Matrix(diffs)) if diffs else Subspace.full(rep.r)
    if common.is_zero():
        return None
    basis = common.basis_vectors()
    pivots = [next(k for k, e in enumerate(v) if e) for v in basis]
    cols = [rep.gen(1) * v for v in basis]
    ident = Matrix.identity(rep.r)
    for lam in rational_eigenvalues(Matrix(tuple(tuple(c[k] for c in cols) for k in pivots))):
        if lam == 1:
            continue
        stacked = tuple(row for i in range(1, rep.n) for row in (rep.gen(i) - ident * lam).num)
        verdict = _verified_reducible(
            rep, kernel_basis(Matrix(stacked)), f"common eigenvectors at eigenvalue {lam}"
        )
        if verdict is not None:
            return verdict
    return None


def invariant_subspace_search(rep, seed=DEFAULT_SEED, trials=DEFAULT_SPIN_TRIALS) -> IrreducibilityVerdict:
    """Ordered witness search used when the algebra closure is not full.

    Tries, in order: common fixed vectors, the all-ones orbit, the
    disconnected-graph eigenvector chain, orbits of neighbor-intersection
    vectors, common eigenvectors for an eigenvalue other than 1, and
    finally seeded random orbits.  Inconclusive is an allowed
    outcome and is reported honestly.
    """
    return _common_fixed_vectors(rep) or _search_past_fixed_vectors(rep, seed, trials)


def _search_past_fixed_vectors(rep, seed, trials) -> IrreducibilityVerdict:
    """``invariant_subspace_search`` after its common fixed vector step."""
    n, r = rep.n, rep.r
    notes = []
    ones = (_F1,) * r
    verdict = _verified_reducible(rep, spin(rep, ones), "orbit of the all-ones vector")
    if verdict is not None:
        return verdict
    try:
        chain = disconnected_invariant_subspace(rep)
        if chain.tag is Verdict.REDUCIBLE:
            return chain
    except PreconditionError:
        pass
    except (NeedsFieldExtensionError, NotARepresentationError) as exc:
        notes.append(str(exc))
    for i in range(n):
        for vec in rep.meet(i, (i + 1) % n).basis_vectors():
            verdict = _verified_reducible(
                rep, spin(rep, vec), f"orbit of a neighbor-intersection vector at ({i},{(i + 1) % n})"
            )
            if verdict is not None:
                return verdict
    verdict = _common_eigenvectors(rep)
    if verdict is not None:
        return verdict
    rng = Random(seed)
    for _ in range(trials):
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(r))
        if _is_zero_vec(v):
            continue
        verdict = _verified_reducible(rep, spin(rep, v), "orbit of a seeded random vector")
        if verdict is not None:
            return verdict
    detail = "no invariant subspace found by the ordered search"
    if notes:
        detail += "; " + "; ".join(notes)
    return IrreducibilityVerdict(Verdict.INCONCLUSIVE, None, None, detail=detail)


def decide_irreducibility(rep, corank_val, graph_class, seed=DEFAULT_SEED):
    """The irreducibility decision procedure, cheapest certificate first.

    ``corank_val`` and ``graph_class`` are None where they could not be
    computed.  Returns ``(verdict, standard_form, standard_form_error)``, the
    last two from the chain step when it ran.  Stops at the first step that
    decides: (1) corank 0, the trivial action; (2) a corank-2 chain on
    n = r >= 6 strands, by its standard form and the projector certificate,
    or by the verified witness of a reducible chain; (3) common fixed
    vectors; (4) algebra fullness modulo a large prime; (5) the ordered
    witness search; (6) the exact rational closure, where thin is Inconclusive.
    """
    if corank_val == 0:
        return _trivial_action_verdict(rep), None, None
    standard_form_err = None
    chain_candidate = (
        corank_val == 2
        and rep.r == rep.n
        and rep.n >= 6
        and graph_class is not None
        and graph_class.tag is GraphClassTag.CONTAINS_CHAIN
        and graph_class.distance_set == frozenset({1})
    )
    if chain_candidate:
        try:
            standard_form = extract_standard_form(rep)
            verdict = _standard_fullness_certificate(rep.n, standard_form.u)
            detail = f"equivalent to the standard family at u={standard_form.u}; {verdict.detail}"
            return replace(verdict, detail=detail), standard_form, None
        except ReducibleSignal as exc:
            standard_form_err = str(exc)
            verdict = _verified_reducible(rep, exc.witness, standard_form_err)
            if verdict is not None:
                return verdict, None, standard_form_err
        except (PreconditionError, NotARepresentationError, NeedsFieldExtensionError) as exc:
            standard_form_err = str(exc)
    verdict = _common_fixed_vectors(rep)
    if verdict is None and _modp_algebra_is_full(rep):
        verdict = _closure_verdict(rep, rep.r ** 2, None)
    if verdict is None:
        verdict = _search_past_fixed_vectors(rep, seed, DEFAULT_SPIN_TRIALS)
    if verdict.tag is Verdict.INCONCLUSIVE:
        verdict = _closure_verdict(rep, _rational_algebra_dim(rep), verdict.detail)
    return verdict, None, standard_form_err


def verdict_to_json_dict(verdict: IrreducibilityVerdict) -> dict:
    """The verdict as the JSON object that ``analyze`` and ``irreducible`` print."""
    data = {"tag": verdict.tag.value, "algebra_dim": verdict.algebra_dim}
    if verdict.witness is not None:
        data["witness"] = verdict.witness.basis.to_strings()
    data["detail"] = verdict.detail
    return data


def corank_and_graph(rep):
    """``(corank, corank_error, graph_class, graph_error)``: each value is
    None when computing it raised, and its error message is recorded instead."""
    corank_val = corank_err = graph_class = graph_err = None
    try:
        corank_val = corank(rep)
    except NotARepresentationError as exc:
        corank_err = str(exc)
    try:
        graph_class = classify_graph(full_friendship_graph(rep))
    except Exception as exc:  # recorded, not raised: the report must come back
        graph_err = str(exc)
    return corank_val, corank_err, graph_class, graph_err


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
    notes: list = field(default_factory=list)

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
        if rel["failures"]:
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
        v = self.verdict
        extra = f", algebra dim {v.algebra_dim}" if v.algebra_dim is not None else ""
        lines.append(f"  irreducibility: {v.tag.value}{extra}")
        if v.witness is not None:
            lines.append(f"    witness: invariant subspace of dimension {v.witness.dim}")
        if v.detail:
            lines.append(f"    {v.detail}")
        if self.standard_form is not None:
            lines.append(f"  standard form: u = {self.standard_form.u}")
            lines.append("    certified for 6 or more strands at dimension >= n; "
                         "corank alone suffices from 7 strands")
        elif self.standard_form_error is not None:
            lines.append(f"  standard form: error ({self.standard_form_error})")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  seed: {self.seed}")
        return "\n".join(lines) + "\n"


def analyze(rep, seed=None) -> AnalysisReport:
    """Run the whole pipeline and collect findings instead of aborting."""
    seed = DEFAULT_SEED if seed is None else int(seed)
    # The deformed relations restate the braid relations, and an image of B_n
    # passes the cyclic check by theorem: only a broken family needs it run.
    report = verify_braid_relations(rep)
    relations = {
        "braid_relations_ok": report.braid_relations_ok,
        "far_commutation_ok": report.far_commutation_ok,
        "cyclic_conjugation_ok": report.ok or verify_cyclic_conjugation(rep),
        "deformed_relations_ok": report.ok,
        "failures": [[desc, list(pair)] for desc, pair in report.failures],
    }
    corank_val, corank_err, graph_class, graph_err = corank_and_graph(rep)
    notes = []
    verdict, standard_form, standard_form_err = decide_irreducibility(
        rep, corank_val, graph_class, seed
    )
    if (
        standard_form is None
        and standard_form_err is None
        and corank_val == 2
        and rep.r >= rep.n
        and rep.n >= 6
        and verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
    ):
        if rep.r != rep.n:
            standard_form_err = (
                "certified irreducible with corank 2 and r > n: "
                "violates the dimension bound, so the certification is suspect"
            )
        else:
            try:
                standard_form = extract_standard_form(rep)
            except (ReducibleSignal, PreconditionError, NotARepresentationError,
                    NeedsFieldExtensionError) as exc:
                standard_form_err = str(exc)
    if rep.n in (4, 5) and corank_val == 2 and rep.r >= rep.n:
        notes.append(
            f"n={rep.n} sits outside the chain classification; "
            "exceptional graph shapes are reported, not classified"
        )
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
        notes=notes,
    )
