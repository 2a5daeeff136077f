import json
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from operator import mul
from pathlib import Path
from random import Random

import pytest

from braidrep.braid import verify_braid_relations
from braidrep.classify import (
    Verdict,
    _ModpSpan,
    _algebra_dim,
    _character,
    _eigenspace,
    _is_invariant,
    _modp_algebra_is_full,
    _norton_candidates,
    _norton_step,
    _orbit,
    _rank_one_factors,
    _rational_algebra_dim,
    _verified_reducible,
    _witness_steps,
    analyze,
    burnside_dimension,
    decide_irreducibility,
    dimension_bound_check,
    extract_standard_form,
    invariant_subspace_search,
    lemma_bb_check,
    spin,
    tym_irreducibility,
    verdict_to_json_dict,
)
from braidrep.cli import parse_rep_spec, run
from braidrep.errors import NotARepresentationError, PreconditionError
from braidrep.friendship import are_friends, classify_graph, full_friendship_graph, neighbor_form
from braidrep.linalg import (
    EchelonSpan,
    Matrix,
    Subspace,
    combine,
    image_basis,
    inverse,
    kernel_basis,
    mul_rows,
    rank,
    rational_eigenvalues,
)
from braidrep.zoo import (
    Representation,
    character_rep,
    conjugate_rep,
    corank,
    direct_sum,
    load_representation,
    random_invertible_matrix,
    reduced_burau,
    scrambled,
    tensor_character,
    tym_standard,
)
from conftest import broken_family, build_zoo, random_families
from test_braid import (
    _cyclic_reference,
    _deformed_reference,
    _only_a_shift_broken,
    _zero_beside_nonzero,
    broken_three_strand_family,
    delta_families,
    failing_family,
    only_a_braid_pair_broken,
    only_far_pairs_broken,
)
from test_factored_build import PLAIN

F = Fraction
DATA = Path(__file__).parent / "data"


def unit(i, dim):
    return tuple(F(int(j == i)) for j in range(dim))


def _invariant_by_inverses(rep, w):
    """Reference witness check: every generator image and its explicit
    inverse map every basis vector of w into w."""
    return all(w.contains(g * v) for v in w.basis_vectors() for i in range(1, rep.n)
               for g in (rep.gen(i), rep.gen_inverse(i)))


def assert_invariant(rep, w):
    assert _invariant_by_inverses(rep, w)


def _norton_vectors(rep):
    """``_norton_candidates`` with each second factor y formed."""
    for kind, where, x, make_y, decisive in _norton_candidates(rep):
        yield kind, where, x, make_y(), decisive


def test_spin_of_zero_vector_is_zero():
    rep = tym_standard(6, 1)
    assert spin(rep, (F(0),) * 6).is_zero()


def test_spin_of_coordinate_vector_under_permutations_is_full():
    rep = tym_standard(6, 1)
    assert spin(rep, unit(0, 6)).is_full()


def test_spin_of_difference_vector_is_the_sum_zero_space():
    rep = tym_standard(6, 1)
    v = tuple(F(x) for x in (1, -1, 0, 0, 0, 0))
    got = spin(rep, v)
    assert got.dim == 5
    ones = Matrix([[1] * 6])
    for b in got.basis_vectors():
        assert (ones * b) == (F(0),)


def _spin_by_products(rep, v):
    """Reference orbit of v, grown by Fraction products with the images."""
    span, work = Subspace(rep.r, [v]), [v]
    while work:
        w = work.pop()
        for i in range(1, rep.n):
            gw = rep.gen(i) * w
            if not span.contains(gw):
                span, work = span + Subspace(rep.r, [gw]), work + [gw]
    return span


@pytest.mark.parametrize("rep, entries", [
    (tym_standard(8, F(5, 3)), {0: 3, 7: -2}),
    # The orbit of e_0 - e_1 under permutations is the sum-zero hyperplane.
    (tym_standard(8, 1), {0: 3, 1: -3}),
    (scrambled(tym_standard(8, 1), 2), {2: 5}),
    # Equal summands: the orbit of (3 x, -2 x) is a proper diagonal copy.
    (direct_sum(reduced_burau(6, 2), reduced_burau(6, 2)), {0: 3, 5: -2}),
    (tensor_character(reduced_burau(9, -1), 2), {1: 3, 2: -2}),
], ids=lambda v: v.label if isinstance(v, Representation) else str(v))
def test_spin_of_mostly_zero_vectors_matches_products(rep, entries):
    v = [F(entries.get(k, 0)) for k in range(rep.r)]
    assert spin(rep, v) == _spin_by_products(rep, v)


def test_burnside_of_standard_family_is_full():
    dim, verdict = burnside_dimension(tym_standard(6, 2))
    assert dim == 36
    assert verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
    assert verdict.algebra_dim == 36


def test_burnside_of_character_is_one():
    dim, verdict = burnside_dimension(character_rep(5, 2))
    assert dim == 1
    assert verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE


def test_burnside_reads_a_denominator_of_the_closure_prime_exactly():
    # u = 1/p puts p = 2^61 - 1 in a denominator: mod p the numerators reduce
    # to E_01 and E_12, whose closure spans 4 of 9 dimensions and proves
    # nothing, and the exact closure still finds the full algebra.
    rep = tym_standard(3, Fraction(1, 2 ** 61 - 1))
    assert any(rep.gen(i).den % (2 ** 61 - 1) == 0 for i in range(1, rep.n))
    assert not _modp_algebra_is_full(rep)
    assert burnside_dimension(rep)[0] == 9
    assert _algebra_dim(rep, _ModpSpan(2 ** 61 - 1)) == 4


def test_burnside_of_permutation_family_is_thin():
    # Natural permutation action splits off the all-ones line, so the
    # algebra is 1 + 25 dimensional.
    dim, verdict = burnside_dimension(tym_standard(6, 1))
    assert dim == 26
    assert verdict.tag is Verdict.INCONCLUSIVE
    followup = invariant_subspace_search(tym_standard(6, 1))
    assert followup.tag is Verdict.REDUCIBLE


def test_disconnected_construction_on_trivial_blocks():
    # Corank 0: the witness is the first coordinate line, not a chain.
    rep = direct_sum(character_rep(5, 1), character_rep(5, 1))
    verdict, _, _ = decide_irreducibility(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness == Subspace(2, [unit(0, 2)])
    assert_invariant(rep, verdict.witness)


def test_disconnected_construction_on_padded_burau(disconnected_fixture):
    rep = disconnected_fixture
    assert rep.n == 5 and rep.r == 6
    verdict, _, _ = decide_irreducibility(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness.dim <= 4
    assert_invariant(rep, verdict.witness)


def test_disconnected_construction_rejects_chain_input():
    # A chain graph is decided by the chain step, not by an eigenvector chain.
    verdict, standard_form, _ = decide_irreducibility(tym_standard(6, 2))
    assert standard_form is not None and standard_form.u == 2
    assert verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE and verdict.witness is None


def test_disconnected_construction_finds_permutation_witness():
    # At u = 1 the images are permutation matrices, fixing the all-ones line.
    rep = tym_standard(6, 1)
    verdict, _, _ = decide_irreducibility(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness == Subspace(6, [(1,) * 6])
    assert_invariant(rep, verdict.witness)


def test_neighbor_identities_on_trivial_family():
    rep = character_rep(5, 1)
    assert lemma_bb_check(rep, 1, 2)
    assert lemma_bb_check(rep, 0, 1)


def test_neighbor_identities_on_disconnected_fixture(disconnected_fixture):
    n = disconnected_fixture.n
    for i in range(n):
        assert lemma_bb_check(disconnected_fixture, i, (i + 1) % n)


def _dense_lemma_bb(rep, i, j):
    """Reference for ``lemma_bb_check`` past its preconditions, on the dense
    deformations A = A_i and B = A_j: the cubic cancellations, then B x and
    A B x for a basis x of ker(A - lambda) cap Im A at each rational
    eigenvalue lambda of A, and the same with A and B swapped."""
    a, b = rep.deformation(i), rep.deformation(j)
    if a * a * b != a * b * b or b * a * a != b * b * a:
        return False
    ident = Matrix.identity(rep.r)
    for x_mat, y_mat in ((a, b), (b, a)):
        for lam in rational_eigenvalues(x_mat):
            for vec in kernel_basis(x_mat - ident * lam).intersect(image_basis(x_mat)).basis_vectors():
                bx = y_mat * vec
                if y_mat * bx != tuple(lam * e for e in bx) or x_mat * bx != tuple(-(1 + lam) * e for e in vec):
                    return False
    return True


def _neighbor_identity_families():
    """The families of the relation tests, each with its neighbor pairs (i,
    i + 1 mod n), s0 among them, whose images do not meet."""
    zoo = build_zoo()
    for rep in [*zoo, *(scrambled(rep, 1) for rep in zoo), *random_families(), broken_family(), *delta_families()]:
        pairs = [(i, (i + 1) % rep.n) for i in range(rep.n)]
        yield rep, [(i, j) for i, j in pairs if not are_friends(rep, i, j)]


_NEIGHBOR_IDENTITY_FAMILIES = list(_neighbor_identity_families())


@pytest.mark.parametrize("rep, pairs", _NEIGHBOR_IDENTITY_FAMILIES, ids=[repr(rep) for rep, _ in _NEIGHBOR_IDENTITY_FAMILIES])
def test_neighbor_identities_match_the_dense_reference(rep, pairs):
    for i, j in pairs:
        assert lemma_bb_check(rep, i, j) is _dense_lemma_bb(rep, i, j), (i, j)


def test_neighbor_identity_families_reach_both_clauses():
    # Each clause alone rejects some pair: the cubic cancellations, and the
    # eigenvectors where those hold.
    seen = set()
    for rep, pairs in _NEIGHBOR_IDENTITY_FAMILIES:
        for i, j in pairs:
            a, b = rep.deformation(i), rep.deformation(j)
            seen.add((a * a * b == a * b * b and b * a * a == b * b * a, lemma_bb_check(rep, i, j)))
    assert seen == {(True, True), (True, False), (False, False)}


def test_neighbor_identities_reject_friendly_neighbors():
    with pytest.raises(PreconditionError):
        lemma_bb_check(tym_standard(6, 2), 1, 2)


def test_neighbor_identities_reject_distant_pair():
    with pytest.raises(PreconditionError):
        lemma_bb_check(tym_standard(6, 2), 1, 3)


def test_chain_basis_of_standard_family_is_identity():
    assert extract_standard_form(tym_standard(6, 2)).basis == Matrix.identity(6)


def test_chain_basis_of_conjugated_family_is_invertible_and_consistent():
    rep = scrambled(tym_standard(7, 3), 23)
    basis = extract_standard_form(rep).basis
    assert rank(basis) == 7
    assert conjugate_rep(rep, basis).generators == tym_standard(7, 3).generators


def test_chain_basis_rejects_coinciding_images(coinciding_images_fixture):
    # All images are one plane, on which A_2 is invertible: ker A_2 misses it.
    with pytest.raises(PreconditionError, match="^chain start Im A_1 cap ker A_2 has dimension 0, not 1$"):
        extract_standard_form(coinciding_images_fixture)


def test_chain_recovery_rejects_fewer_than_four_strands():
    with pytest.raises(PreconditionError) as info:
        extract_standard_form(tym_standard(3, 2))
    assert str(info.value) == "chain recovery needs at least 4 strands"


def test_chain_basis_rejects_low_corank():
    # Corank 1: Im A_1 is the line of e_0 - e_1, which A_2 does not kill.
    with pytest.raises(PreconditionError, match="^chain start Im A_1 cap ker A_2 has dimension 0, not 1$"):
        extract_standard_form(tym_standard(6, 1))


def test_chain_basis_rejects_dimension_mismatch():
    with pytest.raises(PreconditionError, match="^dimension 5 differs from strand count 6$"):
        extract_standard_form(reduced_burau(6, 2))


def test_chain_start_is_all_of_im_a1_where_a2_is_zero():
    # A_2 = 0 has no factor rows, so ker A_2 is everything and the start
    # space is the whole plane Im A_1.
    gens = [tym_standard(6, 2).gen(1)] + [Matrix.identity(6)] * 4
    with pytest.raises(PreconditionError, match="^chain start Im A_1 cap ker A_2 has dimension 2, not 1$"):
        extract_standard_form(Representation(6, 6, gens))


def test_extract_recovers_parameter_from_plain_family():
    res = extract_standard_form(tym_standard(6, 2))
    assert res.u == 2
    assert res.basis == Matrix.identity(6)


def test_extract_recovers_parameter_after_conjugation():
    rep = scrambled(tym_standard(8, F(5, 3)), 99)
    res = extract_standard_form(rep)
    assert res.u == F(5, 3)
    binv_check = conjugate_rep(rep, res.basis)
    target = tym_standard(8, F(5, 3))
    assert binv_check.generators == target.generators


def test_extract_rejects_corank_one_input():
    with pytest.raises(PreconditionError):
        extract_standard_form(tym_standard(6, 1))


def test_extracted_parameter_ignores_chain_scaling():
    # The recovered u must not depend on which nonzero vector spans the
    # first intersection, so conjugating by a scalar matrix changes nothing.
    rep = tym_standard(6, F(-7, 4))
    scaledbasis = Matrix.identity(6) * F(3, 5)
    res = extract_standard_form(conjugate_rep(rep, scaledbasis))
    assert res.u == F(-7, 4)


def test_standard_family_reducible_at_one():
    verdict = tym_irreducibility(6, 1)
    assert verdict.tag is Verdict.REDUCIBLE
    ones = (F(1),) * 6
    assert verdict.witness.contains(ones)
    assert verdict.witness.dim == 1
    rep = tym_standard(6, 1)
    for i in range(1, 6):
        assert rep.gen(i) * ones == ones


def test_standard_family_irreducible_otherwise():
    verdict = tym_irreducibility(6, 2)
    assert verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
    assert verdict.algebra_dim == 36


@pytest.mark.parametrize("n", range(3, 17))
def test_standard_family_is_full_for_every_u_off_one(n):
    # The theorem that decides a certified chain step: the neighbor cubic of
    # A_1 and A_2 is (u - 1) E_11, and the Norton step on it proves T(u) full.
    for u in (F(2), F(-1), F(1, 2), F(5, 3), F(-2, 3)):
        verdict = tym_irreducibility(n, u)
        assert verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
        assert verdict.algebra_dim == n * n
        rep = tym_standard(n, u)
        cubic = Matrix([[u - 1 if i == j == 1 else 0 for j in range(n)] for i in range(n)])
        assert neighbor_form(rep.deformation(1), rep.deformation(2)) == cubic


def test_neighbor_cubic_projects_onto_coordinate():
    rep = tym_standard(6, 2)
    x = tuple(F(3) if k == 3 else F(0) for k in range(6))
    h = neighbor_form(rep.deformation(3), rep.deformation(4))
    assert h * x == tuple(F(3) if k == 3 else F(0) for k in range(6))


def test_neighbor_cubic_matrix_identities():
    u = F(5, 3)
    n = 7
    rep = tym_standard(n, u)
    for c in range(n):
        a = rep.deformation(c)
        b = rep.deformation((c + 1) % n)
        h = neighbor_form(a, b)
        assert h == neighbor_form(b, a)
        expected = Matrix(
            [[(u - 1) if (i == c and j == c) else 0 for j in range(n)] for i in range(n)]
        )
        assert h == expected


def test_neighbor_cubic_on_random_vectors():
    rng = Random(2718)
    u = F(-7, 4)
    n = 6
    rep = tym_standard(n, u)
    for _ in range(120):
        x = tuple(F(rng.randint(-9, 9)) for _ in range(n))
        if not any(x):
            continue
        c = next(k for k, entry in enumerate(x) if entry)
        h = neighbor_form(rep.deformation(c), rep.deformation((c + 1) % n))
        expected = tuple((u - 1) * x[c] if k == c else F(0) for k in range(n))
        assert h * x == expected


def test_dimension_bound_tight_for_standard_family():
    assert dimension_bound_check(tym_standard(6, 2))
    assert (6 - 1) * (2 - 1) + 1 == 6


def test_dimension_bound_for_larger_strand_count():
    assert dimension_bound_check(tym_standard(9, 4))


def test_dimension_bound_rejects_small_dimension():
    with pytest.raises(PreconditionError):
        dimension_bound_check(reduced_burau(6, 2))


def test_dimension_bound_rejects_reducible_input():
    with pytest.raises(PreconditionError):
        dimension_bound_check(tym_standard(6, 1))


def test_certificates_never_disagree():
    for n in (4, 5, 6):
        for u in (F(2), F(1, 2), F(-1)):
            verdict = tym_irreducibility(n, u)
            dim, closure = burnside_dimension(tym_standard(n, u))
            assert verdict.tag is closure.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
            assert verdict.algebra_dim == dim == n * n


def test_analyze_round_trip_recovers_parameter():
    rep = scrambled(tym_standard(7, 4), 9)
    report = analyze(rep, seed=9)
    assert report.corank == 2
    assert report.graph_class.tag.value == "ContainsChain"
    assert report.verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
    assert report.standard_form.u == 4
    assert report.n == report.r == 7


def test_analyze_round_trip_property():
    cases = [
        (6, F(2)), (6, F(5, 3)), (6, F(-7, 4)), (6, F(9)),
        (7, F(3)), (7, F(1, 2)), (7, F(-2)), (7, F(11, 7)),
        (8, F(2)), (8, F(5, 3)), (8, F(-1)), (8, F(4, 9)),
        (9, F(7)), (9, F(-5, 2)), (9, F(3, 8)), (9, F(6)),
        (10, F(2)), (10, F(5, 3)), (10, F(-7, 4)), (10, F(13, 5)),
    ]
    for idx, (n, u) in enumerate(cases):
        rep = scrambled(tym_standard(n, u), 1000 + idx)
        report = analyze(rep, seed=idx)
        assert report.standard_form is not None, (n, str(u))
        assert report.standard_form.u == u
        assert report.verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE


def test_analyze_permutation_family_reports_fixed_vector():
    report = analyze(tym_standard(6, 1))
    assert report.corank == 1
    assert report.verdict.tag is Verdict.REDUCIBLE
    assert report.verdict.witness.contains((F(1),) * 6)
    assert report.standard_form is None


def test_analyze_detects_direct_sum():
    rep = direct_sum(tym_standard(6, 2), character_rep(6, 3))
    report = analyze(rep)
    assert report.verdict.tag is Verdict.REDUCIBLE
    assert report.verdict.witness.dim == 6
    assert_invariant(rep, report.verdict.witness)


def test_analyze_reports_trivial_action():
    report = analyze(direct_sum(character_rep(5, 1), character_rep(5, 1)))
    assert report.corank == 0
    assert report.verdict.tag is Verdict.REDUCIBLE
    assert "trivial" in report.verdict.detail


def test_analyze_records_errors_for_broken_families():
    report = analyze(broken_family())
    assert not report.relations["far_commutation_ok"]
    assert report.corank_error is not None
    data = report.to_json_dict()
    assert "error" in data["corank"]


def test_analyze_json_shape_and_order():
    report = analyze(scrambled(tym_standard(6, 2), 3), seed=3)
    data = report.to_json_dict()
    assert list(data) == ["relations", "corank", "graph", "irreducibility", "standard_form", "seed"]
    assert data["seed"] == 3
    assert data["standard_form"]["u"] == "2"
    report = analyze(tym_standard(6, 1))
    data = report.to_json_dict()
    assert list(data) == ["relations", "corank", "graph", "irreducibility", "seed"]


def test_witness_validity_across_reducible_zoo(zoo):
    for rep in zoo:
        report = analyze(rep)
        if report.verdict.tag is Verdict.REDUCIBLE:
            w = report.verdict.witness
            assert w is not None and 0 < w.dim < rep.r
            assert_invariant(rep, w)
            assert _is_invariant(rep, w)


def test_certified_corank_two_members_have_dimension_n(zoo):
    for rep in zoo:
        if rep.n == 4 or rep.r < rep.n:
            continue
        dim, verdict = burnside_dimension(rep)
        if verdict.tag is not Verdict.ABSOLUTELY_IRREDUCIBLE:
            continue
        assert dimension_bound_check(rep), rep.label
        if corank(rep) == 2:
            assert rep.r == rep.n, rep.label


def test_tensor_scaling_preserves_full_algebra():
    rep = tensor_character(tym_standard(6, 2), 3)
    dim, verdict = burnside_dimension(rep)
    assert verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
    assert dim == 36


@pytest.mark.parametrize("scramble", [False, True], ids=["plain", "scrambled"])
def test_inconclusive_is_reported_honestly(scramble):
    # Two copies of the same irreducible family: the commutant is 2x2 and
    # the algebra closure is thin, so only a witness can decide.  The
    # kernel vectors of the Norton step spin to one of the invariant copies,
    # in any basis.
    rep = direct_sum(tym_standard(6, 2), tym_standard(6, 2))
    if scramble:
        rep = scrambled(rep, 3)
    with time_limit(3):
        verdict = analyze(rep).verdict
    assert verdict.tag is Verdict.REDUCIBLE
    assert_invariant(rep, verdict.witness)


class _StillRunning(BaseException):
    """Raised by ``time_limit``.  Not an ``Exception``, so no handler inside
    the library can swallow it."""


@contextmanager
def time_limit(seconds):
    def on_alarm(signum, frame):
        raise _StillRunning(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("rep", [
    scrambled(direct_sum(tym_standard(6, 2), character_rep(6, 1)), 5),
    scrambled(tym_standard(8, 1), 188658),
    scrambled(tym_standard(12, 1), 4),
    scrambled(direct_sum(reduced_burau(6, 2), reduced_burau(6, 3)), 1),
], ids=lambda rep: rep.label)
def test_reducible_conjugates_are_decided_quickly(rep):
    # The exact rational closure takes 15 s or more on each of these; the
    # common fixed vector step or the eigenvector chain must settle them
    # before it runs.  The chain needs the rational eigenvalues of a 2 x 2
    # block whose determinant has about 70 bits.
    with time_limit(3):
        report = analyze(rep)
    assert report.verdict.tag is Verdict.REDUCIBLE
    assert_invariant(rep, report.verdict.witness)


@pytest.mark.parametrize("seed", [1, 909453, 583706])
def test_scaled_permutation_family_is_reducible_in_every_basis(seed):
    # Every generator scales the all-ones vector by 2, so there are no
    # common fixed vectors, and in these bases an orbit of a vector chosen
    # in the input's basis fills the space.  The Norton step's kernel
    # vectors do not depend on the basis.
    rep = scrambled(tensor_character(tym_standard(6, 1), 2), seed)
    verdict = analyze(rep).verdict
    assert verdict.tag is Verdict.REDUCIBLE
    assert_invariant(rep, verdict.witness)


ZOO = build_zoo()


def _invariants(report):
    return (
        report.corank,
        report.graph_class.tag if report.graph_class else None,
        report.verdict.tag,
        report.standard_form.u if report.standard_form else None,
    )


def _change_of_basis_cases():
    for idx, rep in enumerate(ZOO):
        for seed in (1, 2):
            yield pytest.param(idx, seed, id=f"{rep.label}-seed{seed}")


@pytest.mark.parametrize("idx, seed", _change_of_basis_cases())
def test_change_of_basis_keeps_invariants(idx, seed):
    rep = ZOO[idx]
    with time_limit(3):
        expected = _invariants(analyze(rep, seed=seed))
        assert _invariants(analyze(scrambled(rep, seed), seed=seed)) == expected


_SUMS = [
    spec
    for n in (4, 5, 6)
    for spec in (
        f"dsum(tym:n={n},u=2,tym:n={n},u=-1)",
        f"dsum(tym:n={n},u=2,tensor(burau:n={n},t=2,y=-1))",
        f"dsum(tym:n={n},u=-1,tensor(burau:n={n},t=2,y=-1))",
        f"dsum(tensor(burau:n={n},t=2,y=-1),tensor(burau:n={n},t=2,y=-1))",
    )
] + ["dsum(tym:n=8,u=2,tensor(burau:n=8,t=3,y=-1))"]


# Sums of two standard families of equal size: in most bases a Norton word
# has a repeated eigenvalue past 2^53, so the squarefree part of its
# characteristic polynomial must be divided out exactly.
_EQUAL_SUMS = ["dsum(tym:n=8,u=5/3,tym:n=8,u=5/3)", "dsum(tym:n=8,u=2,tym:n=8,u=3)"]


@pytest.mark.parametrize("spec, seed", [(spec, seed) for spec in _SUMS for seed in (1, 3)]
                         + [(spec, seed) for spec in _EQUAL_SUMS for seed in range(1, 13)])
def test_change_of_basis_keeps_the_verdict_of_direct_sums(spec, seed):
    # Sums of non-isomorphic and of isomorphic summands, up to r = 16.  In a
    # scrambled basis the orbit of a vector chosen in that basis fills the
    # space, so only a witness that does not depend on the basis decides.
    plain, _ = parse_rep_spec(spec)
    moved, _ = parse_rep_spec(f"conj({spec},seed={seed})")
    with time_limit(3):
        expected, report = analyze(plain), analyze(moved)
        for rep in (plain, moved):
            assert all(y is not None for _, _, _, y, _ in _norton_vectors(rep))
    assert report.verdict.tag is expected.verdict.tag
    assert report.corank == expected.corank
    assert (report.standard_form is None) == (expected.standard_form is None)
    for rep, found in ((plain, expected.verdict), (moved, report.verdict)):
        if found.witness is not None:
            assert_invariant(rep, found.witness)
            assert _is_invariant(rep, found.witness)


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("y", [3, -2])
@pytest.mark.parametrize("n", [4, 6, 8, 9, 16])
def test_change_of_basis_keeps_the_verdict_of_twisted_burau_at_minus_one(n, y, seed):
    # Reduced Burau at t = -1 is reducible for even n.  Twisted by y, A_1 has
    # the single eigenvalue y - 1 with nullity r - 1, whose kernel's first
    # row depends on the basis; the rank-one A_1 - (y - 1) decides in every basis.
    plain, _ = parse_rep_spec(f"tensor(burau:n={n},t=-1,y={y})")
    moved, _ = parse_rep_spec(f"conj(tensor(burau:n={n},t=-1,y={y}),seed={seed})")
    with time_limit(3):
        expected = analyze(plain).verdict
        verdict = analyze(moved).verdict
    assert verdict.tag is expected.tag
    assert verdict.tag is (Verdict.REDUCIBLE if n % 2 == 0 else Verdict.ABSOLUTELY_IRREDUCIBLE)
    for rep, found in ((plain, expected), (moved, verdict)):
        if found.witness is not None:
            assert_invariant(rep, found.witness)


@pytest.mark.parametrize("rep", [
    scrambled(tym_standard(6, 2), 1),
    scrambled(tym_standard(6, 1), 2),
    scrambled(reduced_burau(6, -1), 3),
    scrambled(direct_sum(reduced_burau(5, 2), character_rep(5, 1)), 4),
], ids=lambda rep: rep.label)
def test_witness_check_agrees_with_explicit_inverses_off_witnesses(rep):
    # Coordinate lines and hyperplanes of a conjugated family are not invariant.
    r = rep.r
    for k in range(r):
        for w in (Subspace(r, [unit(k, r)]), Subspace(r, [unit(j, r) for j in range(r) if j != k])):
            assert _is_invariant(rep, w) is _invariant_by_inverses(rep, w) is False, (k, w)


def test_witness_check_rejects_a_non_invariant_candidate():
    rep = scrambled(tym_standard(6, 2), 3)
    assert decide_irreducibility(rep)[0].tag is Verdict.ABSOLUTELY_IRREDUCIBLE
    for k in range(rep.r):
        assert _verified_reducible(rep, Subspace(rep.r, [unit(k, rep.r)]), "line") is None, k
    reducible = scrambled(tym_standard(6, 1), 2)
    witness = decide_irreducibility(reducible)[0].witness
    verdict = _verified_reducible(reducible, witness, "found")
    assert verdict.tag is Verdict.REDUCIBLE and verdict.witness == witness


def test_ladder_agrees_with_algebra_dimension(zoo):
    for rep in zoo:
        verdict, _, _ = decide_irreducibility(rep)
        dim, _ = burnside_dimension(rep)
        assert (verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE) == (dim == rep.r ** 2), rep.label



def _relation_families():
    yield from build_zoo()
    yield broken_family()
    yield from random_families()


@pytest.mark.parametrize("rep", list(_relation_families()), ids=lambda rep: rep.label or "broken")
def test_analyze_relation_booleans_match_the_checks(rep):
    relations = analyze(rep).relations
    report = verify_braid_relations(rep)
    assert relations["braid_relations_ok"] == report.braid_relations_ok
    assert relations["far_commutation_ok"] == report.far_commutation_ok
    assert relations["cyclic_conjugation_ok"] == _cyclic_reference(rep)
    assert relations["deformed_relations_ok"] == _deformed_reference(rep)


@pytest.mark.parametrize("name, runs", [("broken_family.json", 2), ("random_seed5.json", 2), ("modular", 1)])
def test_analyze_reruns_the_shifts_only_on_a_broken_family(monkeypatch, name, runs):
    import braidrep.braid as braid

    rep = _modular_family(6, 2) if name == "modular" else load_representation(DATA / name)
    assert rep.has_full_image
    calls, shift_holds = Counter(), braid._shift_holds

    def counted(rep, i):
        calls[i] += 1
        return shift_holds(rep, i)

    monkeypatch.setattr(braid, "_shift_holds", counted)
    relations = analyze(rep).relations
    monkeypatch.undo()
    # The relation shortcut runs the shifts on a full image.  Every image of
    # B_n passes them, so the cyclic verdict runs them again only where a
    # relation fails.
    assert calls and set(calls.values()) == {runs}, calls
    assert relations["cyclic_conjugation_ok"] == _cyclic_reference(rep)


def test_spin_is_closed_under_inverses_across_zoo(zoo):
    for rep in zoo:
        for k in range(rep.r):
            orbit = spin(rep, unit(k, rep.r))
            assert _is_invariant(rep, orbit), (rep.label, k)


@pytest.mark.parametrize("rep", [
    scrambled(tym_standard(8, 2), 1),
    # reducible, decided by the Norton step
    scrambled(direct_sum(reduced_burau(5, 2), reduced_burau(5, 3)), 1),
], ids=["chain", "direct sum"])
def test_analyze_tests_each_pair_of_images_once_and_intersects_none(monkeypatch, rep):
    import braidrep.friendship as friendship

    intersections, pairs, are_friends = [], [], friendship.are_friends

    def counted(rep, i, j):
        pairs.append(frozenset((i, j)))
        return are_friends(rep, i, j)

    monkeypatch.setattr(Subspace, "intersect", lambda self, other: intersections.append(1))
    monkeypatch.setattr(friendship, "are_friends", counted)
    analyze(rep)
    assert intersections == []
    assert len(pairs) == len(set(pairs))


def _norton_fullness(rep):
    """True, False or None: the Norton step proves the algebra full, finds a
    witness, or decides nothing."""
    verdict = _norton_step(rep)
    return None if verdict is None else verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE


def test_norton_fullness_matches_algebra_dimension(zoo):
    # burnside_dimension is the exact rational dimension: it trusts its
    # modular closure only when that is full.  The rational closure alone
    # takes minutes on the conjugated tym member.
    for rep in zoo:
        full = _norton_fullness(rep)
        # Every member has an element the step decides on, the corank-0
        # character and tensor(tym(n=5,u=2),y=3) included.
        assert full is not None, rep.label
        assert full == (burnside_dimension(rep)[0] == rep.r ** 2), rep.label


@pytest.mark.parametrize("idx, seed", _change_of_basis_cases())
def test_norton_fullness_keeps_its_answer_in_every_basis(idx, seed):
    rep = ZOO[idx]
    moved = scrambled(rep, seed)
    full = _norton_fullness(rep)
    assert _norton_fullness(moved) == full
    if full is not None:
        assert _modp_algebra_is_full(moved) == full


def _outer(x, y):
    return Matrix(tuple(tuple(a * b for b in y) for a in x))


def _is_multiple(m, of):
    i, j = next((i, j) for i, row in enumerate(of.rows) for j, e in enumerate(row) if e)
    return m[i, j] != 0 and of * (m[i, j] / of[i, j]) == m


@pytest.mark.parametrize("rep, first", [
    (reduced_burau(6, 2), "A_1, which has rank one"),
    (reduced_burau(6, -1), "A_1, which has rank one"),
    (tym_standard(8, 2), "the neighbor cubic, which has rank one"),
    (direct_sum(reduced_burau(6, 2), reduced_burau(6, 3)), "A_1 at eigenvalue -4"),
    (tensor_character(reduced_burau(6, 2), -1), "A_1 at eigenvalue -2"),
    (scrambled(tensor_character(reduced_burau(8, -1), 3), 5), "A_1 at eigenvalue 2"),
], ids=lambda v: v.label if isinstance(v, Representation) else v)
def test_norton_step_tries_elements_in_a_fixed_order(rep, first):
    a, b = rep.deformation(1), rep.deformation(2)
    thetas = {"A_1": a, "the neighbor cubic": neighbor_form(a, b)}
    found = list(_norton_vectors(rep))
    assert found[0][1] == first
    # Every rank-one element first, then each other element's rational
    # eigenvalues in ascending order, the elements in the order of thetas.
    ident = Matrix.identity(rep.r)
    factors = [f"{name}, which has rank one" for name, m in thetas.items() if rank(m) == 1]
    eigen = []
    for name, m in thetas.items():
        for lam in rational_eigenvalues(m) if rank(m) != 1 else []:
            eigen.append(f"{name} at eigenvalue {lam}")
    assert [where for _, where, *_ in found] == factors + eigen
    for kind, where, x, y, decisive in found:
        name, _, lam = where.partition(" at eigenvalue ")
        if kind == "factor":
            assert decisive
            assert _is_multiple(_outer(x, y), thetas[where.removesuffix(", which has rank one")])
        else:
            # x and y span the first lines of the right and left kernels.
            shifted = thetas[name] - ident * F(lam)
            assert not any(shifted * x) and not any(shifted.transpose() * y)
            assert decisive is (rank(shifted) == rep.r - 1)


def _mixed_deformations():
    """Images on 4 strands in dimension 3 whose deformations have full rank,
    rank one and rank 0, in a scrambled basis: not a representation."""
    gens = [Matrix([[2, 1, 0], [0, 3, 1], [1, 0, 2]]), Matrix([[1, 0, 0], [1, 2, 0], [0, 0, 1]]),
            Matrix.identity(3)]
    return scrambled(Representation(4, 3, gens, label="mixed"), 2)


def _dense_norton_vectors(rep):
    """Reference for ``_norton_vectors``: the same candidates read off the
    dense r x r elements, their dense eigenvalues and kernels."""
    a = rep.deformation(1)
    thetas = [("A_1", a)]
    if rep.n > 2:
        b = rep.deformation(2)
        thetas.append(("the neighbor cubic", neighbor_form(a, b)))
    others = []
    for name, theta in thetas:
        found = _rank_one_factors(theta.num)
        if found is None:
            others.append((name, theta))
        else:
            yield "factor", f"{name}, which has rank one", found[0], found[1], True
    ident = Matrix.identity(rep.r)
    for name, theta in others:
        for lam in rational_eigenvalues(theta):
            shifted = theta - ident * lam
            right = kernel_basis(shifted)
            yield ("eigenvector", f"{name} at eigenvalue {lam}", right.rows[0],
                   kernel_basis(shifted.transpose()).rows[0], right.dim == 1)


def _candidate_cases():
    for rep in build_zoo():
        yield rep
        yield scrambled(rep, 1)
    yield from random_families()
    yield broken_family()
    yield _mixed_deformations()
    yield Representation(4, 2, [Matrix.identity(2)] * 3)
    yield Representation(3, 2, [Matrix(((2, 0), (0, 1))), Matrix(((1, 0), (1, 2)))])
    yield scrambled(direct_sum(tym_standard(5, 2), character_rep(5, 1)), 2)
    yield scrambled(direct_sum(tym_standard(4, 2), tym_standard(4, 3)), 7)
    yield scrambled(tensor_character(reduced_burau(6, 2), -1), 3)
    yield scrambled(tensor_character(tym_standard(6, 1), 2), 4)


@pytest.mark.parametrize("rep", list(_candidate_cases()), ids=repr)
def test_factored_candidates_match_the_dense_ones(rep):
    # Same order, details and decisiveness, and x and y on the same lines.
    def lines(found):
        return [(kind, where, Subspace(rep.r, [x]), Subspace(rep.r, [y]), decisive)
                for kind, where, x, y, decisive in found]

    assert lines(_norton_vectors(rep)) == lines(_dense_norton_vectors(rep))


def _dense_eigenspace(u, v, lam, r):
    """Reference for ``_eigenspace``: the kernel of the dense r x r matrix u^T v - lam."""
    theta = Matrix([[sum(map(mul, ucol, vcol)) for vcol in zip(*v)] for ucol in zip(*u)])
    return kernel_basis(theta - Matrix.identity(r) * lam)


def _triangular_pair(rng, k, r, diagonal):
    """``(u, v, d)``: k independent integer rows u, the first of a random
    invertible w, and integer rows v with v u^T = d S, for d the denominator
    of w^-1 and S upper triangular with the given diagonal.  The columns c_j
    of d w^-1 satisfy u c_j = d e_j for j < k and u c_j = 0 past k, so v
    combines them with the rows of S and random coefficients."""
    w = random_invertible_matrix(r, rng)
    winv = inverse(w)
    cols = list(zip(*winv.num))
    rows = [[diagonal[i] if i == j else rng.randint(-2, 2) * (i < j) for j in range(k)]
            + [rng.randint(-2, 2) for _ in range(r - k)] for i in range(k)]
    return [list(row) for row in w.num[:k]], [combine(row, cols, r) for row in rows], winv.den


def _eigenspace_cases():
    rng = Random(5)
    for k, r, diagonal in [(1, 3, [2]), (2, 4, [2, 2]), (3, 5, [3, -1, 3]), (2, 6, [-3, 0]),
                           (3, 3, [1, -2, 1]), (4, 4, [2, 2, 2, -1])]:
        u, v, d = _triangular_pair(rng, k, r, diagonal)
        # 7 d is no eigenvalue: the kernel there is zero.
        yield f"k={k} r={r}", u, v, {0, 7 * d, *(d * e for e in diagonal)}
    # The Norton data of a cubic of rank one, singular: ker(C Y_1) is wider than ker Y_1.
    rep = scrambled(tym_standard(8, 2), 3)
    img, y1, _ = rep.factor(1)
    v = mul_rows(rep.cubic(1, 2), y1, rep.r)
    assert kernel_basis(Matrix(v)).dim > kernel_basis(Matrix(y1)).dim
    lams = rational_eigenvalues(Matrix(mul_rows(v, tuple(zip(*img.rows)), img.dim)))
    yield "singular left", img.rows, v, {0, *map(int, lams)}


_EIGENSPACE_CASES = {name: case for name, *case in _eigenspace_cases()}


@pytest.mark.parametrize("name", list(_EIGENSPACE_CASES))
def test_eigenspace_is_the_kernel_of_the_dense_word(name):
    # ker(u^T v - lam) read on k x k, with v u^T formed by _eigenspace or
    # passed in, is the kernel of the dense r x r matrix, at every lam.
    u, v, lams = _EIGENSPACE_CASES[name]
    r = len(v[0])
    vu = [[sum(map(mul, vrow, urow)) for urow in u] for vrow in v]
    dims = {}
    for lam in sorted(lams):
        dense = _dense_eigenspace(u, v, lam, r)
        assert _eigenspace(u, v, lam, r) == dense == _eigenspace(u, v, lam, r, vu), lam
        dims[lam] = dense.dim
    # Every case reads a nonzero eigenvalue on a nonzero kernel.
    assert any(dim for lam, dim in dims.items() if lam)


def _spy_rep_middles(monkeypatch):
    import braidrep.zoo as zoo

    calls, original = [], zoo._middle_product
    monkeypatch.setattr(zoo, "_middle_product", lambda rep: calls.append(rep) or original(rep))
    return calls


def test_analyze_forms_the_stacked_middle_product_once(monkeypatch):
    calls = _spy_rep_middles(monkeypatch)
    rep = scrambled(reduced_burau(8, 2), 3)
    assert analyze(rep).verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
    assert calls == [rep]


_NARROW_NORTON_CASES = [
    (scrambled(reduced_burau(8, 2), 3), "matrix algebra is full"),
    (parse_rep_spec("conj(dsum(tym:n=8,u=2,tym:n=8,u=3),seed=7)")[0],
     "orbit of a right eigenvector of the neighbor cubic at eigenvalue 1"),
    # k = 3 = r - 1: the kernel of A_1 at 0 is read on its 3 x 4 factor.
    (parse_rep_spec("conj(dsum(tym:n=3,u=2,char:n=3,y=3),seed=1)")[0],
     "orbit of a right eigenvector of A_1 at eigenvalue 0"),
]


@pytest.mark.parametrize("rep, detail", _NARROW_NORTON_CASES, ids=[rep.label for rep, _ in _NARROW_NORTON_CASES])
def test_norton_step_forms_no_r_by_r_element(monkeypatch, rep, detail):
    import braidrep.classify as classify
    import braidrep.linalg as linalg

    sizes, minimal, kernel = [], linalg.minimal_polynomial, classify.kernel_basis

    def counted(rows, v, limit, seen):
        sizes.append(len(v))
        return minimal(rows, v, limit, seen)

    def narrow_kernel(m):
        assert m.nrows < rep.r, f"kernel of {m.nrows} rows formed"
        return kernel(m)

    def refused(self, i):
        raise AssertionError(f"deformation {i} formed")

    monkeypatch.setattr(linalg, "minimal_polynomial", counted)
    monkeypatch.setattr(classify, "kernel_basis", narrow_kernel)
    monkeypatch.setattr(Representation, "deformation", refused)
    verdict = _norton_step(rep)
    assert verdict.detail == detail
    assert all(size < rep.r for size in sizes)


def test_neighbor_identities_and_norton_candidates_form_no_dense_word(monkeypatch, disconnected_fixture):
    # Characters 3, 3 and 1, scrambled: A_1 = A_2 have rank k = r - 1 = 2,
    # so every candidate is an eigenvector read on the 2 x 2 middles.  The
    # neighbor pairs below have k = 1 of r = 6 and k = 2 of r = 5, and those
    # of the delta family fail the identities.
    chars = scrambled(direct_sum(direct_sum(character_rep(4, 3), character_rep(4, 3)), character_rep(4, 1)), 3)
    delta = next(rep for rep in delta_families() if rep.label.startswith("delta family n=6 a=(0, 2, 1, 4, 3)"))

    def lines(found):
        return [(kind, where, Subspace(3, [x]), Subspace(3, [y])) for kind, where, x, y, _ in found]

    dense = lines(_dense_norton_vectors(chars))
    shapes, product = [], Matrix.__mul__

    def refused(self, i):
        raise AssertionError(f"deformation {i} formed")

    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: shapes.append(self.shape) or product(self, other))
    monkeypatch.setattr(Representation, "deformation", refused)
    found = lines(_norton_vectors(chars))
    assert found == dense and {kind for kind, *_ in found} == {"eigenvector"}
    assert (3, 3) not in shapes
    shapes.clear()
    answers = [lemma_bb_check(rep, i, i + 1) for rep in (disconnected_fixture, delta) for i in range(1, rep.n - 1)]
    assert answers == [True] * 3 + [False] * 4
    assert (6, 6) not in shapes and (5, 5) not in shapes


def test_norton_step_forms_no_left_kernel_after_a_proper_right_orbit(monkeypatch):
    # A_1 of the sum has the eigenvalue -4 of the first summand only; its
    # right eigenvector spans a proper orbit, a witness, and no left kernel
    # (the kernel of a transpose) is needed for it.
    rep = direct_sum(reduced_burau(6, 2), reduced_burau(6, 3))
    assert next(_norton_candidates(rep))[1] == "A_1 at eigenvalue -4"
    calls = []
    original = Matrix.transpose

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "transpose", spy)
    verdict = _norton_step(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.detail == "orbit of a right eigenvector of A_1 at eigenvalue -4"
    assert calls == []


def test_transposed_orbit_is_needed_for_fullness():
    # Not a braid representation, but a valid family: A_1 = diag(1, 0) is
    # e1 e1^T.  The orbit of e1 fills Q^2, while its orbit under the
    # transposes is a line: the algebra is the 3-dimensional lower-triangular
    # one, and e2 spans an invariant line.
    rep = Representation(3, 2, [Matrix(((2, 0), (0, 1))), Matrix(((1, 0), (1, 2)))])
    assert _rational_algebra_dim(rep) == 3
    verdict = analyze(rep).verdict
    assert verdict == _norton_step(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.detail.startswith("annihilator of the transposed orbit")
    assert verdict.witness == Subspace(2, [(0, 1)])
    assert_invariant(rep, verdict.witness)


_JORDAN = Matrix(((2, 1), (0, 2)))
_JORDAN_NEXT_TO_3 = Matrix(((2, 1, 0), (0, 2, 0), (0, 0, 3)))


@pytest.mark.parametrize("rep", [
    Representation(3, 2, [_JORDAN, _JORDAN]),
    Representation(3, 3, [_JORDAN_NEXT_TO_3, _JORDAN_NEXT_TO_3]),
])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_jordan_block_family_is_never_absolutely_irreducible(rep, seed):
    # Eigenvalue 1 of A_1 sits in a 2 x 2 Jordan block: its kernel is a line,
    # but its left and right eigenvectors are orthogonal, and the line of
    # the right one is invariant.
    if seed is not None:
        rep = scrambled(rep, seed)
    verdict = analyze(rep).verdict
    assert verdict.tag is Verdict.REDUCIBLE
    assert_invariant(rep, verdict.witness)


@pytest.mark.parametrize("u, tag", [(4, Verdict.REDUCIBLE), (2, Verdict.INCONCLUSIVE)])
def test_two_strand_standard_family_gets_the_command_line_verdict(capsys, u, tag):
    # One generator generates a commutative algebra of dimension 2: at u = 4
    # its eigenvectors are rational invariant lines, at u = 2 they are not.
    verdict = tym_irreducibility(2, u)
    assert run(["irreducible", f"tym:n=2,u={u}"]) == 0
    assert verdict_to_json_dict(verdict) == json.loads(capsys.readouterr().out)
    assert verdict.tag is tag
    if tag is Verdict.REDUCIBLE:
        assert_invariant(tym_standard(2, u), verdict.witness)
    else:
        assert verdict.algebra_dim == 2


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_algebra_below_dimension_r_makes_every_orbit_a_witness(seed):
    # Two copies of tym(n=2, u=2): A_1 has no rational eigenvalue, so the
    # Norton step decides nothing, but the algebra has dimension 2 < r = 4.
    rep = direct_sum(tym_standard(2, 2), tym_standard(2, 2))
    if seed is not None:
        rep = scrambled(rep, seed)
    verdict = analyze(rep).verdict
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.detail == "orbit of a coordinate vector under an algebra of dimension 2"
    assert_invariant(rep, verdict.witness)


def test_witness_search_ends_inconclusive_on_irreducible_input():
    # Reduced Burau at t = 2 is irreducible: the orbits of the Norton step
    # are full, so the search finds no witness and says so.
    rep = reduced_burau(6, 2)
    verdict = invariant_subspace_search(rep)
    assert verdict.tag is Verdict.INCONCLUSIVE
    assert verdict.witness is None
    assert verdict.detail.startswith("no invariant subspace found by the ordered search")


@pytest.mark.parametrize("r", [6, 7])
def test_analyze_reports_why_a_corank_two_input_has_no_standard_form(r):
    # Random rank-2 deformations on 6 strands: not a braid representation,
    # corank 2 and no chain, certified irreducible by the ladder.  At r = n
    # the chain step inside decide_irreducibility runs before the ladder and
    # fails; analyze reports its error.  At r > n there is no chain step, and
    # analyze reports that the verdict breaks the dimension bound.
    rng = Random(r)
    gens = []
    while len(gens) < 5:
        left = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(r)])
        a = left * Matrix([[rng.randint(-2, 2) for _ in range(r)] for _ in range(2)])
        if rank(a) == 2 and rank(Matrix.identity(r) + a) == r:
            gens.append(Matrix.identity(r) + a)
    report = analyze(Representation(6, r, gens))
    assert report.corank == 2
    assert report.verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
    assert report.standard_form is None
    if r == 6:
        assert report.standard_form_error.startswith("chain start Im A_1 cap ker A_2 has dimension 0")
    else:
        assert "violates the dimension bound" in report.standard_form_error
    data = report.to_json_dict()
    assert list(data) == ["relations", "corank", "graph", "irreducibility", "standard_form", "seed"]
    assert data["standard_form"] == {"error": report.standard_form_error}
    assert f"\n  standard form: error ({report.standard_form_error})\n" in report.to_text()


def test_chain_analyze_checks_no_relation_on_a_certified_standard_form(monkeypatch):
    # The standard form proves the relations, the corank and the graph.
    import braidrep.classify as classify

    calls = []
    for name in ("verify_braid_relations", "full_friendship_graph", "corank"):
        monkeypatch.setattr(classify, name, calls.append)
    report = analyze(scrambled(tym_standard(8, F(5, 3)), 3))
    assert report.standard_form is not None
    assert calls == []
    assert report.relations["braid_relations_ok"] and report.relations["far_commutation_ok"]
    assert report.corank == 2
    assert report.graph_class.tag.value == "ContainsChain"
    assert report.graph_class.distance_set == {1}


def test_certified_chain_forms_neither_the_product_of_the_images_nor_sigma0():
    # Im A_0 = D Im A_(n-1) comes through the factors, and the constructor
    # proves the rank-two images invertible by their 2 x 2 Sylvester matrices.
    source = scrambled(tym_standard(8, 2), 3)
    rep = Representation(source.n, source.r, source.generators)
    report = analyze(rep)
    assert report.standard_form is not None and report.standard_form.u == 2
    assert not {"tau", "sigma0"} & set(vars(rep))


def test_analyze_shifts_each_image_by_the_product_of_the_images_once(monkeypatch):
    # The relations are checked pair by pair on the factors, and relations that
    # hold make D shift every image, so the friendship graph forms no shift:
    # no product of D with image rows, in either order.  D itself comes from a
    # second copy of the input, which analyze does not see.
    import braidrep.braid as braid
    import braidrep.linalg as linalg
    import braidrep.zoo as zoo

    rep = scrambled(reduced_burau(8, 2), 3)
    tau = scrambled(reduced_burau(8, 2), 3).tau
    d, dcols, calls, mul_rows = tau.num, tuple(zip(*tau.num)), [], linalg.mul_rows
    images = {rep.image(i).rows for i in range(rep.n)}

    def spy(a, b, ncols):
        if (a == d and tuple(zip(*b)) in images) or (b == dcols and a in images):
            calls.append(a)
        return mul_rows(a, b, ncols)

    for module in (linalg, zoo, braid):
        monkeypatch.setattr(module, "mul_rows", spy)
    report = analyze(rep)
    assert report.standard_form is None and report.corank == 1
    assert all(report.relations[key] for key in ("braid_relations_ok", "far_commutation_ok"))
    assert not calls


@pytest.mark.parametrize("check", [analyze, verify_braid_relations], ids=lambda f: f.__name__)
def test_non_chain_input_forms_no_dense_product(monkeypatch, check):
    # No image of scrambled Burau is full, so neither the relation check nor
    # the graph needs D, sigma0 or any product of dense matrices.
    rep = scrambled(reduced_burau(8, 2), 3)
    products = []
    original = Matrix.__mul__

    def spy(self, other):
        products.append((self.shape, getattr(other, "shape", None)))
        return original(self, other)

    monkeypatch.setattr(Matrix, "__mul__", spy)
    check(rep)
    monkeypatch.undo()
    assert not products
    assert "tau" not in vars(rep) and "sigma0" not in vars(rep)


def _graph_families():
    yield from build_zoo()
    for seed in (1, 2):
        yield from (scrambled(rep, seed) for rep in build_zoo())
    yield broken_family()
    yield from random_families()
    yield from (failing_family(), only_far_pairs_broken(), only_a_braid_pair_broken(),
                broken_three_strand_family())
    yield from _only_a_shift_broken()
    yield from delta_families()
    yield from _zero_beside_nonzero()
    # lines that meet, in r = 2: every image is the same line
    line_sum = "dsum(char:n=5,y=2,char:n=5,y=1)"
    yield parse_rep_spec(line_sum)[0]
    for seed in (1, 2):
        yield parse_rep_spec(f"conj({line_sum},seed={seed})")[0]
    yield _mixed_deformations()
    # twists whose untwisted core is a certified chain, or reducible: the
    # corank and the graph are the input's, not the core's
    for spec in ("tensor(tym:n=8,u=5/3,y=3)", "conj(tensor(tym:n=8,u=5/3,y=-2),seed=7)",
                 "conj(tensor(tym:n=7,u=1,y=-1),seed=1)"):
        yield parse_rep_spec(spec)[0]


@pytest.mark.parametrize("rep", list(_graph_families()), ids=lambda rep: rep.label or "broken")
def test_analyze_graph_class_equals_the_graph_of_the_input(rep):
    # analyze hands the outcome of its relation check to the graph; the graph
    # of the input itself proves the shifts instead.
    report = analyze(rep)
    try:
        expected = classify_graph(full_friendship_graph(rep)), None
    except Exception as exc:
        expected = None, str(exc)
    assert (report.graph_class, report.graph_error) == expected


@pytest.mark.parametrize("spec, start", [
    ("conj(burau:n=8,t=3,seed=5)", 1),
    # on 2 strands the one pair is (s0, s1)
    ("conj(dsum(char:n=2,y=2,char:n=2,y=3),seed=1)", 0),
])
def test_analyze_reads_proved_relations_off_the_pairs_at_s1_with_no_graph(monkeypatch, spec, start):
    # The relations hold and there is no chain, so analyze classifies the
    # distances d with s1 and s_(1+d) friends, builds no graph and, for
    # n >= 3, forms no Im A_0.
    import braidrep.classify as classify
    from braidrep.friendship import FriendshipGraph

    rep, graphs, pairs, friends = parse_rep_spec(spec)[0], [], [], classify.are_friends
    monkeypatch.setattr(FriendshipGraph, "__post_init__", graphs.append)
    monkeypatch.setattr(classify, "are_friends", lambda rep, i, j: pairs.append((i, j)) or friends(rep, i, j))
    report = analyze(rep)
    assert report.relations["deformed_relations_ok"] and report.standard_form is None
    assert graphs == []
    assert pairs == [(start, start + d) for d in range(1, rep.n // 2 + 1)]
    assert start == 0 or "_image0" not in vars(rep)
    monkeypatch.undo()
    assert report.graph_class == classify_graph(full_friendship_graph(rep))


def test_chain_step_acts_once_in_its_walk_and_once_per_twist(monkeypatch):
    # The walk forms a_i = g_i a_(i-1) and the twist check g_i a_i; the check
    # Y_i a_j = 0 forms only the other products, so no generator acts again.
    rep, acts, act = parse_rep_spec("conj(tym:n=8,u=2,seed=3)")[0], [], Representation.act
    monkeypatch.setattr(Representation, "act", lambda self, i, v: acts.append(i) or act(self, i, v))
    assert extract_standard_form(rep).u == 2
    assert acts == [*range(1, rep.n), *range(1, rep.n)]


@pytest.mark.parametrize("n", range(6, 17))
def test_certified_chain_reads_corank_and_graph_from_the_theorem(n):
    # What analyze takes from a certified standard form equals what the
    # corank and the friendship graph of the input compute.
    for u, seed in ((F(2), n), (F(5, 3), n + 1), (F(-2, 3), n + 2)):
        rep = scrambled(tym_standard(n, u), seed)
        report = analyze(rep)
        assert report.standard_form is not None
        assert report.standard_form.u == u
        assert report.corank == corank(rep)
        assert report.graph_class == classify_graph(full_friendship_graph(rep))


_CHAIN_DETAIL = ("equivalent to the standard family at u={}; "
                 "coordinate projectors certify the full matrix algebra")


def test_certified_chain_step_forms_no_standard_family(monkeypatch, capsys):
    import braidrep.classify as classify

    calls = []

    def spy(name, original):
        def recorded(*args):
            calls.append(name)
            return original(*args)
        return recorded

    for name in ("tym_standard", "_norton_step", "_standard_fullness_certificate"):
        monkeypatch.setattr(classify, name, spy(name, getattr(classify, name)))
    report = analyze(scrambled(tym_standard(8, F(5, 3)), 3))
    assert run(["irreducible", "tym:n=14,u=2"]) == 0
    assert calls == []
    assert verdict_to_json_dict(report.verdict) == {
        "tag": "AbsolutelyIrreducible", "algebra_dim": 64, "detail": _CHAIN_DETAIL.format("5/3"),
    }
    assert report.standard_form.u == F(5, 3)
    assert json.loads(capsys.readouterr().out) == {
        "tag": "AbsolutelyIrreducible", "algebra_dim": 196, "detail": _CHAIN_DETAIL.format(2),
    }


def test_irreducibility_builds_no_friendship_graph(monkeypatch, capsys):
    # The chain step reads the corank alone; no graph gates it.
    import braidrep.cli as cli
    import braidrep.classify as classify

    calls = []

    def spy(name, original):
        def recorded(*args):
            calls.append(name)
            return original(*args)
        return recorded

    for module in (classify, cli):
        for name in ("full_friendship_graph", "classify_graph"):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    assert run(["irreducible", "tym:n=14,u=2"]) == 0
    chain = json.loads(capsys.readouterr().out)
    assert run(["irreducible", "conj(burau:n=7,t=2,seed=1)"]) == 0
    burau = json.loads(capsys.readouterr().out)
    two_strands = tym_irreducibility(2, 3)
    assert calls == []
    assert chain["detail"] == _CHAIN_DETAIL.format(2)
    assert burau == {"tag": "AbsolutelyIrreducible", "algebra_dim": 36, "detail": "matrix algebra is full"}
    assert two_strands.tag is Verdict.INCONCLUSIVE


def test_analyze_reports_a_failed_chain_step_whatever_the_verdict(capsys):
    # Corank 2 on n = r = 6 strands: the chain step runs and fails, and its
    # error is reported next to a Reducible verdict.
    spec = "dsum(burau:n=6,t=2,char:n=6,y=3)"
    assert run(["analyze", spec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["relations", "corank", "graph", "irreducibility", "standard_form", "seed"]
    assert data["corank"] == 2
    assert data["irreducibility"]["tag"] == "Reducible"
    assert data["standard_form"] == {"error": "chain start Im A_1 cap ker A_2 has dimension 0, not 1"}
    assert run(["analyze", spec, "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "analysis of dsum(burau(n=6,t=2),char(n=6,y=3)) (n=6, r=6)\n"
        "  relations: all hold\n"
        "  corank: 2\n"
        "  graph: ContainsChain, distance set [1, 2, 3]\n"
        "    all neighbor pairs are friends\n"
        "  irreducibility: Reducible\n"
        "    witness: invariant subspace of dimension 1\n"
        "    orbit of a right factor of the neighbor cubic, which has rank one\n"
        "  standard form: error (chain start Im A_1 cap ker A_2 has dimension 0, not 1)\n"
        "  seed: 0\n"
    )


_CHAIN_GRID = [
    scrambled(tym_standard(n, u), seed)
    for n, u, seed in [(6, 2, 1), (7, F(5, 3), 2), (8, -1, 3), (9, F(-2, 3), 4),
                       (6, 1, 5), (8, 1, 6), (10, 3, 7)]
] + [Representation(6, 6, [Matrix.identity(6)] * 5), tym_standard(7, 4)]


def _dense_relations(rep):
    """The relations entry of ``analyze`` from the dense check of the input."""
    dense = verify_braid_relations(rep)
    return {
        "braid_relations_ok": dense.braid_relations_ok,
        "far_commutation_ok": dense.far_commutation_ok,
        "cyclic_conjugation_ok": _cyclic_reference(rep),
        "deformed_relations_ok": dense.ok,
        "failures": [[desc, list(pair)] for desc, pair in dense.failures],
    }


@pytest.mark.parametrize("rep", _CHAIN_GRID, ids=repr)
def test_analyze_relations_equal_the_dense_check_of_the_input(rep):
    assert analyze(rep).relations == _dense_relations(rep)


def _chain_outcome(rep):
    try:
        result = extract_standard_form(rep)
    except (PreconditionError, NotARepresentationError) as exc:
        return type(exc), str(exc)
    return result.u


def _through_b3(t):
    """Burau of B_3 pulled back along s1, s2, s3 -> s1, s2, s1."""
    g1, g2 = reduced_burau(3, t).generators
    return Representation(4, 2, [g1, g2, g1])


@pytest.mark.parametrize("rep", build_zoo() + _CHAIN_GRID + [
    # neighbor images coincide; non-neighbor friends (n = 4, 6); neighbors meet trivially
    direct_sum(direct_sum(character_rep(6, 2), character_rep(6, 3)),
               direct_sum(direct_sum(character_rep(6, 1), character_rep(6, 1)),
                          direct_sum(character_rep(6, 1), character_rep(6, 1)))),
    scrambled(direct_sum(reduced_burau(4, 2), character_rep(4, 3)), 2),
    scrambled(direct_sum(reduced_burau(6, 2), character_rep(6, -1)), 3),
    scrambled(direct_sum(_through_b3(2), _through_b3(3)), 4),
], ids=repr)
def test_chain_recovery_keeps_its_outcome_in_every_basis(rep):
    # The same u, or the same refusal: every check of the chain step is a
    # statement about the representation, not about its basis.
    assert _chain_outcome(scrambled(rep, 7)) == _chain_outcome(rep)


def _factor_cases():
    yield from build_zoo()
    yield from random_families()
    for rep in build_zoo():
        yield scrambled(rep, 5)


@pytest.mark.parametrize("rep", list(_factor_cases()), ids=repr)
def test_factors_rebuild_every_deformation(rep):
    for i in range(rep.n):
        img, y, s = rep.factor(i)
        assert len(y) == img.dim == rank(rep.deformation(i)), (rep.label, i)
        rebuilt = Matrix([[F(sum(row[x] * yrow[z] for row, yrow in zip(img.rows, y)), s)
                           for z in range(rep.r)] for x in range(rep.r)])
        assert rebuilt == rep.deformation(i), (rep.label, i)


def _orbit_by_products(rep, v, transposed):
    """Reference orbit of v under the integer numerators of the generator
    images, or under their transposes, grown by Fraction products."""
    mats = [Matrix(rep.gen(i).num) for i in range(1, rep.n)]
    if transposed:
        mats = [m.transpose() for m in mats]
    span, work = Subspace(rep.r, [v]), [v]
    while work:
        w = work.pop()
        for m in mats:
            mw = m * w
            if not span.contains(mw):
                span, work = span + Subspace(rep.r, [mw]), work + [mw]
    return span


def _orbit_cases():
    yield from [
        tym_standard(6, 2),
        scrambled(tym_standard(6, 1), 3),
        scrambled(reduced_burau(6, 2), 4),
        scrambled(direct_sum(reduced_burau(5, 2), reduced_burau(5, 3)), 1),
        # every deformation of full rank, k = r
        scrambled(tensor_character(reduced_burau(6, 2), -1), 3),
        # k = r and upper triangular: e_0 spans an invariant line, its transposed orbit is Q^2
        Representation(3, 2, [Matrix([[2, 1], [0, 3]]), Matrix([[3, 1], [0, 2]])], label="triangular"),
        # a summand whose deformations are 0
        scrambled(direct_sum(tym_standard(5, 2), character_rep(5, 1)), 2),
        Representation(4, 2, [Matrix.identity(2)] * 3),
        broken_family(),
        _mixed_deformations(),
    ]
    # near-full images that are not full: (n-1) k^2 > r^2 with k < r
    twists = direct_sum(tym_standard(4, 2), tensor_character(tym_standard(4, Fraction(5, 3)), -2))
    yield from [direct_sum(tym_standard(4, 2), character_rep(4, 3)), twists, scrambled(twists, 1)]
    yield from random_families()


@pytest.mark.parametrize("rep", list(_orbit_cases()), ids=repr)
@pytest.mark.parametrize("transposed", [False, True], ids=["right", "transposed"])
def test_factored_orbit_matches_the_orbit_under_the_images(rep, transposed):
    rng = Random(rep.r)
    vectors = [[int(j == k) for j in range(rep.r)] for k in range(rep.r)]
    vectors += [[rng.randint(-3, 3) for _ in range(rep.r)] for _ in range(3)]
    for v in vectors:
        assert _orbit(rep, v, transposed) == _orbit_by_products(rep, v, transposed), (rep.label, v)


def _spans_q_r(rep, transposed):
    """Whether the images of the A_i, or of their transposes, span Q^r."""
    rows = [row for i in range(1, rep.n)
            for row in (rep.factor(i)[1] if transposed else rep.image(i).rows)]
    return Subspace(rep.r, rows).is_full() if rows else False


def _square_cases():
    # Two families with k_1 + k_2 = r = 2: one fixes e_2, and the images of
    # the other both are the line of e_1.
    fixing = Representation(3, 2, [Matrix([[2, 0], [0, 1]]), Matrix([[3, 0], [0, 1]])], label="fixing")
    one_line = Representation(3, 2, [Matrix([[2, 0], [0, 1]]), Matrix([[1, 1], [0, 1]])], label="one line")
    for rep in (*build_zoo(), *random_families(), broken_family(), _mixed_deformations(), fixing, one_line):
        for seed in (None, 1, 2):
            yield rep if seed is None else scrambled(rep, seed)


def test_square_middle_product_has_rank_r_exactly_when_both_stacks_span():
    # Where the k_i add up to r and no image is full, Y R^T is r x r.
    seen = deficient = 0
    for rep in _square_cases():
        if sum(rep.image(i).dim for i in range(1, rep.n)) != rep.r or rep.has_full_image:
            continue
        seen += 1
        both = _spans_q_r(rep, False) and _spans_q_r(rep, True)
        assert (rank(Matrix(rep.middle_product)) == rep.r) == both, rep.label
        assert _witness_steps_agree(rep)
        deficient += not both
    assert seen >= 12 and deficient >= 6


def _witness_steps_agree(rep):
    """The ladder's witness steps give the verdict of the fixed vectors and
    the Norton step run without the square shortcut."""
    fixed = kernel_basis(Matrix([row for i in range(1, rep.n) for row in rep.factor(i)[1]]))
    expected = _verified_reducible(rep, fixed, "common fixed vectors") or _norton_step(rep)
    return _witness_steps(rep) == expected


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("transposed", [False, True], ids=["right", "transposed"])
def test_orbit_shortcut_reports_full_only_for_full_orbits(seed, transposed):
    # The shortcut trusts its caller that the images span Q^r; given the
    # truth, every full orbit it reports is Q^r under the products.
    for rep in build_zoo():
        if seed is not None:
            rep = scrambled(rep, seed)
        spans = _spans_q_r(rep, transposed)
        rng = Random(rep.r)
        vectors = [[int(j == k) for j in range(rep.r)] for k in range(rep.r)]
        vectors += [[rng.randint(-3, 3) for _ in range(rep.r)] for _ in range(2)]
        for v in vectors:
            got = _orbit(rep, v, transposed, images_span=spans)
            assert got == _orbit(rep, v, transposed), (rep.label, v)
            if got.is_full():
                assert _orbit_by_products(rep, v, transposed).is_full(), (rep.label, v)


@pytest.mark.parametrize("rep", [
    scrambled(direct_sum(reduced_burau(5, 2), reduced_burau(5, 3)), 1),
    scrambled(direct_sum(tym_standard(4, 2), tym_standard(4, 1)), 2),
    scrambled(tensor_character(reduced_burau(5, 2), -1), 3),
    _mixed_deformations(),
    # A_1 = e_2 e_1^T: on span(e_0, e_1) the first row passes and the second fails
    Representation(3, 3, [Matrix([[1, 0, 0], [0, 1, 0], [0, 1, 1]]), Matrix.identity(3)], label="shear"),
], ids=lambda rep: rep.label)
def test_witness_check_agrees_with_explicit_inverses_on_spans(rep):
    # Orbits are invariant; an orbit plus a vector, a coordinate plane or a
    # random span mostly is not, and may fail only at a row past the first.
    rng, r = Random(rep.r), rep.r
    for a in range(r):
        for b in range(a + 1, r):
            w = Subspace(r, [unit(a, r), unit(b, r)])
            assert _is_invariant(rep, w) is _invariant_by_inverses(rep, w), (rep.label, a, b)
    for _ in range(6):
        v = [rng.randint(-3, 3) for _ in range(r)]
        orbit = _orbit_by_products(rep, v, False)
        extra = [rng.randint(-3, 3) for _ in range(r)]
        spans = [orbit, Subspace(r, [*orbit.basis_vectors(), extra]),
                 Subspace(r, [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rng.randint(1, r - 1))])]
        for w in spans:
            if 0 < w.dim < r:
                assert _is_invariant(rep, w) is _invariant_by_inverses(rep, w), (rep.label, w.rows)


def _moved_inside_its_image(k, j):
    """The standard family on 7 strands at u = 2 with e_k added to column j
    of generator k, in a scrambled basis."""
    base = tym_standard(7, 2)
    rows = [list(row) for row in base.generators[k - 1].rows]
    rows[k][j] += 1
    gens = list(base.generators)
    gens[k - 1] = Matrix(rows)
    return scrambled(Representation(7, 7, gens), 3)


@pytest.mark.parametrize("k, j", [(k, j) for k in range(1, 7) for j in range(7) if j not in (k - 1, k)])
def test_chain_check_sees_a_generator_moved_inside_its_image(k, j):
    # Adding e_k to column j of generator k of the standard family keeps the
    # column inside Im A_k, so the corank and the images do not change, but
    # g_k no longer fixes e_j.
    rep = _moved_inside_its_image(k, j)
    assert [rep.image(i).dim for i in range(1, 7)] == [2] * 6
    error, message = NotARepresentationError, f"^conjugated image of generator {k} does not match the standard family$"
    if (k, j) == (2, 0):
        # A_2 e_0 = e_2 now, so ker A_2 meets Im A_1 = span(e_0, e_1) in 0.
        error, message = PreconditionError, "^chain start Im A_1 cap ker A_2 has dimension 0, not 1$"
    with pytest.raises(error, match=message):
        extract_standard_form(rep)


@pytest.mark.parametrize("k, j", [(k, j) for k in range(1, 7) for j in range(7)])
def test_analyze_reports_a_failed_chain_step_and_checks_the_relations(k, j):
    # Every perturbed family breaks the relations, and the chain recovery
    # refuses it; the verdict then comes from the later steps of the ladder.
    rep = _moved_inside_its_image(k, j)
    with pytest.raises((PreconditionError, NotARepresentationError)) as exc:
        extract_standard_form(rep)
    report = analyze(rep)
    assert report.verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE
    assert report.standard_form is None
    assert report.standard_form_error == str(exc.value)
    assert not verify_braid_relations(rep).ok
    assert report.relations == _dense_relations(rep)


def _twist_one_family():
    """Six strands, g_i = P_i + (e_(i-1) + e_i) f_i^T with P_i the
    transposition (i-1, i): a corank-2 chain of twist factor 1 that breaks
    the braid relations."""
    f = {1: (4, 2), 2: (4, 3), 3: (0, 4), 4: (0, 2), 5: (0, 1)}  # f_i = e_plus - e_minus
    gens = []
    for i, (plus, minus) in f.items():
        swap = {i - 1: i, i: i - 1}
        gens.append(Matrix([
            [int(swap.get(b, b) == a) + int(a in swap) * (int(b == plus) - int(b == minus))
             for b in range(6)]
            for a in range(6)
        ]))
    return Representation(6, 6, gens)


def test_analyze_decides_a_twist_one_chain_by_its_fixed_vectors():
    rep = _twist_one_family()
    report = analyze(rep)
    assert report.verdict.tag is Verdict.REDUCIBLE
    assert report.verdict.detail == "common fixed vectors"
    assert report.verdict.witness == Subspace(6, [(F(1),) * 6])
    assert_invariant(rep, report.verdict.witness)
    error = "twist factor 1: the sum of the chain vectors is a fixed vector"
    assert report.to_json_dict()["standard_form"] == {"error": error}
    assert not verify_braid_relations(rep).ok


def _varying_twists(us):
    """The generators of the standard family, with the block [[0, u_i], [1, 0]]
    at its own u_i for each generator i: the chain walks, but its twists differ."""
    n = len(us) + 1
    gens = []
    for i, u in enumerate(us, start=1):
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        rows[i - 1][i - 1], rows[i - 1][i], rows[i][i - 1], rows[i][i] = 0, u, 1, 0
        gens.append(Matrix(rows))
    return Representation(n, n, gens, label=f"varying twists {us}")


def test_chain_step_names_twists_that_disagree():
    message = r"^twist factors disagree: \[Fraction\(2, 1\), Fraction\(3, 1\)"
    with pytest.raises(NotARepresentationError, match=message):
        extract_standard_form(scrambled(_varying_twists([2, 3, 2, 2, 2]), 4))


def _chain_step_inputs():
    yield from build_zoo()
    for seed in (5, 7):
        yield from (scrambled(rep, seed) for rep in build_zoo())
    yield broken_family()
    yield from random_families()
    for n in range(6, 17):
        for u in (F(2), F(-2, 3), F(1)):
            yield scrambled(tym_standard(n, u), n)
    for n in (6, 7):
        spec = f"dsum(burau:n={n},t=2,char:n={n},y=3)"
        yield parse_rep_spec(spec)[0]
        yield parse_rep_spec(f"conj({spec},seed=2)")[0]
    yield from _CHAIN_GRID
    yield from (_moved_inside_its_image(k, j) for k in range(1, 7) for j in range(7))
    yield _twist_one_family()
    for us in ([2, 3, 2, 2, 2], [2, 2, 2, 2, 3], [F(1, 2), 2, 2, 2, 2, 2]):
        yield _varying_twists(us)
        yield scrambled(_varying_twists(us), 4)


def _ordered_reference(rep):
    """Reference: the ordered chain step on dense matrices, ``(u, basis)``, or
    the error of the first check the input fails.  Where g_i B = B T_i(u)
    with B invertible, images 0 and 1 meet in the line through a_0, and a_i
    = g_i a_(i-1).  This checks, in order: 4 <= n = r; a line as that meet;
    that g_i a_i is a multiple of a_(i-1), whose factor is the twist; that
    the columns are independent; equal twists; u != 1; and B^-1 g_i B = T_i(u)."""
    n, r = rep.n, rep.r
    if n < 4:
        raise PreconditionError("chain recovery needs at least 4 strands")
    if r != n:
        raise PreconditionError(f"dimension {r} differs from strand count {n}")
    line = rep.image(0).intersect(rep.image(1))
    if line.dim >= 2:
        raise PreconditionError("neighboring deformation images coincide")
    if line.dim == 0:
        raise PreconditionError("friendship graph is not a chain: images 0 and 1 meet trivially")
    lead = next(e for e in line.rows[0] if e)
    chain = [tuple(F(e, lead) for e in line.rows[0])]
    for i in range(1, n):
        chain.append(rep.gen(i) * chain[-1])
    twists = []
    for i in range(1, n):
        back, prev = rep.gen(i) * chain[i], chain[i - 1]
        t = next(b / p for b, p in zip(back, prev) if p)
        if not t or back != tuple(t * e for e in prev):
            raise NotARepresentationError(f"generator {i} does not map its chain vector into the previous line")
        twists.append(t)
    basis = Matrix(list(zip(*chain)))
    if rank(basis) != n:
        raise PreconditionError("chain vectors are dependent")
    if len(set(twists)) != 1:
        raise NotARepresentationError(f"twist factors disagree: {twists}")
    u = twists[0]
    if u == 1:
        raise PreconditionError("twist factor 1: the sum of the chain vectors is a fixed vector")
    binv, target = inverse(basis), tym_standard(n, u)
    for i in range(1, n):
        if binv * rep.gen(i) * basis != target.gen(i):
            raise NotARepresentationError(f"conjugated image of generator {i} does not match the standard family")
    return u, basis


def _outcome(step, rep):
    """("ok", u, basis strings) from ``step``, or ("error", type, message)."""
    try:
        u, basis = step(rep)
    except (PreconditionError, NotARepresentationError) as exc:
        return "error", type(exc), str(exc)
    return "ok", u, basis.to_strings()


@pytest.mark.parametrize("rep", list(_chain_step_inputs()), ids=repr)
def test_chain_certificate_agrees_with_the_ordered_chain_step(rep):
    # Where the ordered reference certifies, the chain step does, with the
    # same u and basis; where it refuses, the chain step refuses too.
    ordered = _outcome(_ordered_reference, rep)
    extracted = _outcome(lambda r: tuple(vars(extract_standard_form(r)).values()), rep)
    if ordered[0] == "ok":
        assert extracted == ordered
    else:
        assert extracted[0] == "error"


def _spy_meet_image0_and_rank(monkeypatch):
    """Record every call of ``Subspace.intersect``, ``Representation._image0``
    and ``rank``, in each module that binds ``rank``."""
    import braidrep.classify as classify
    import braidrep.linalg as linalg
    import braidrep.zoo as zoo

    calls, rank_of = [], linalg.rank

    def spy_rank(m):
        calls.append(("rank", m.shape))
        return rank_of(m)

    monkeypatch.setattr(Representation, "_image0", property(lambda self: calls.append("_image0")))
    monkeypatch.setattr(Subspace, "intersect", lambda self, other: calls.append("intersect"))
    for module in (linalg, zoo, classify):
        if "rank" in vars(module):
            monkeypatch.setattr(module, "rank", spy_rank)
    return calls


@pytest.mark.parametrize("spec", ["tym:n=6,u=2", "conj(tym:n=8,u=5/3,seed=7)",
                                  "conj(tym:n=10,u=-2/3,seed=11)", "conj(tym:n=16,u=3,seed=1)"])
def test_certified_chain_takes_no_meet_no_image0_and_no_rank_of_its_basis(monkeypatch, spec):
    # The certificate starts in Im A_1 cap ker A_2 and needs no rank of B:
    # the identity g_i B = B T_i(u) makes ker B invariant under T(u).
    rep, _ = parse_rep_spec(spec)
    calls = _spy_meet_image0_and_rank(monkeypatch)
    verdict, standard_form, _ = decide_irreducibility(rep)
    assert verdict.tag is Verdict.ABSOLUTELY_IRREDUCIBLE and standard_form is not None
    assert calls == []


@pytest.mark.parametrize("rep", [
    parse_rep_spec("dsum(burau:n=6,t=2,char:n=6,y=3)")[0],
    parse_rep_spec("conj(dsum(burau:n=7,t=2,char:n=7,y=3),seed=2)")[0],
    _twist_one_family(),
    _varying_twists([2, 3, 2, 2, 2]),
], ids=repr)
def test_failed_chain_step_takes_no_meet_no_image0_and_no_rank(monkeypatch, rep):
    # A chain step that fails stops at its own first failing check, with no
    # meet of images and no rank of the chain vectors.
    calls = _spy_meet_image0_and_rank(monkeypatch)
    with pytest.raises((PreconditionError, NotARepresentationError)):
        extract_standard_form(rep)
    assert calls == []


# -- dividing by a character first ----------------------------------------

def _narrow_or_two_strands():
    """The members of the zoo and the plain specs with 2k <= r or n = 2."""
    for rep in build_zoo() + [parse_rep_spec(spec)[0] for spec in PLAIN]:
        if rep.n == 2 or 2 * rep.image(1).dim <= rep.r:
            yield rep


@pytest.mark.parametrize("rep", list(_narrow_or_two_strands()), ids=repr)
def test_the_pick_needs_no_eigenvalue_where_2k_is_at_most_r(monkeypatch, rep):
    # For lambda != 1 the lambda-eigenspace of g_1 misses ker A_1, so
    # rank(g_1 - lambda) >= r - k >= k: y = 1 with no polynomial, no rank
    # and no dense image.
    import braidrep.classify as classify

    calls = []
    for name in ("rational_eigenvalues", "minimal_polynomial", "rank"):
        monkeypatch.setattr(classify, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(Representation, "deformation", lambda self, i: calls.append(i))
    monkeypatch.setattr(classify, "tensor_character", lambda *args: calls.append(args))
    dense = "generators" in vars(rep)
    assert _character(rep) == 1
    assert calls == []
    assert ("generators" in vars(rep)) == dense


def _twists():
    for n in range(6, 11):
        for family, key, x, y in (("tym", "u", "5/3", -2), ("tym", "u", "2", 3),
                                  ("burau", "t", "2", 3), ("burau", "t", "-1", F(1, 2))):
            yield n, f"{family}:n={n},{key}={x}", y


@pytest.mark.parametrize("n, inner, y", list(_twists()), ids=lambda v: str(v))
def test_change_of_basis_keeps_the_character_and_the_verdict_of_twists(n, inner, y):
    # The pick reads only eigenvalues and nullities, so it is the same in
    # every basis; the core has the untwisted verdict and recovers its u.
    untwisted = analyze(parse_rep_spec(inner)[0])
    spec = f"tensor({inner},y={y})"
    for source in (spec, f"conj({spec},seed=1)", f"conj({spec},seed=7)"):
        rep = parse_rep_spec(source)[0]
        with time_limit(3):
            report = analyze(rep)
        assert report.character == y, source
        assert report.verdict.tag is untwisted.verdict.tag, source
        assert report.verdict.algebra_dim == untwisted.verdict.algebra_dim, source
        expected_u = untwisted.standard_form.u if untwisted.standard_form else None
        assert (report.standard_form.u if report.standard_form else None) == expected_u, source
        assert report.corank == corank(rep)
        assert report.to_json_dict()["character"] == str(F(y))
        if report.verdict.witness is not None:
            assert_invariant(rep, report.verdict.witness)


def test_a_twisted_chain_forms_no_d(monkeypatch):
    # Every image of the twist is full, so its own relation check would
    # take the shortcut through D; its core has rank-2 images and is
    # certified by the chain step, and the graph of the twist is read off
    # dimension counts.
    calls, original = [], Representation.__dict__["tau"].func
    monkeypatch.setattr(Representation, "tau", property(lambda self: calls.append(self.label) or original(self)))
    rep = parse_rep_spec("conj(tensor(tym:n=8,u=5/3,y=3),seed=7)")[0]
    report = analyze(rep)
    assert calls == []
    assert (report.character, report.standard_form.u, report.corank) == (3, F(5, 3), 8)
    assert report.to_json_dict()["relations"]["cyclic_conjugation_ok"] is True


def _every_eigenvalue_character(rep):
    """Reference for ``_character``: the rule read off every rational
    eigenvalue of P = M_11 / s_1 (``rational_eigenvalues``, checked against
    determinants in ``tests/test_linalg.py``) and the rank of P - mu."""
    img, _, s = rep.factor(1)
    k, r = img.dim, rep.r
    y, least = F(1), k
    if rep.n < 3 or 2 * k <= r:
        return y
    p = Matrix([[F(e, s) for e in row] for row in rep.middle(1, 1)])
    for mu in rational_eigenvalues(p):
        if mu and (width := r - k + rank(p - Matrix.identity(k) * mu)) < least:
            y, least = 1 + mu, width
    return y


def _modular_family(r, seed):
    """A dense 3-strand family of even dimension r that is not a twist:
    sigma_1 = z^-1 x and sigma_2 = x^-1 z^2 for conjugates x of a diagonal
    sign matrix and z of r / 2 rotations of order 3, by the presentation
    B_3 = <x, z | x^2 = z^3> with x = s1 s2 s1 and z = s1 s2."""
    rng = Random(seed)
    p, q = random_invertible_matrix(r, rng), random_invertible_matrix(r, rng)
    x = p * Matrix([[rng.choice((1, -1)) * (i == j) for j in range(r)] for i in range(r)]) * inverse(p)
    c = [[0] * r for _ in range(r)]
    for b in range(0, r, 2):
        c[b][b + 1], c[b + 1][b], c[b + 1][b + 1] = -1, 1, -1
    z = q * Matrix(c) * inverse(q)
    return Representation(3, r, [inverse(z) * x, inverse(x) * z * z], label=f"modular r={r} seed={seed}")


def _left_mul(g, ncols, w):
    """g times the matrix with ``ncols`` columns flattened row by row into w,
    flattened the same way."""
    cols = [w[j::ncols] for j in range(ncols)]
    return [sum(map(mul, grow, col)) for grow in g for col in cols]


def _dense_algebra_dim(rep, span):
    """The reference closure: the identity under left multiplication by the
    dense integer numerators of the images, zero deformations included."""
    r, gens = rep.r, [rep.gen(i).num for i in range(1, rep.n)]
    work = [span.add([int(i == j) for i in range(r) for j in range(r)])]
    while work and span.dim < r * r:
        w = work.pop()
        for g in gens:
            if (added := span.add(_left_mul(g, r, w))) is not None:
                work.append(added)
    return span.dim


class _Enough(Exception):
    pass


class _Recorded:
    """A span that records the vectors it takes in, in order, and stops the
    closure once it holds ``limit`` of them."""

    def __init__(self, span, limit):
        self.span, self.limit, self.taken = span, limit, []

    @property
    def dim(self):
        return self.span.dim

    def add(self, vec):
        if len(self.taken) == self.limit:
            raise _Enough
        added = self.span.add(vec)
        if added is not None:
            self.taken.append(list(vec))
        return added


def _recorded_closure(closure, rep, span, limit):
    """``(dim, taken)`` of a closure, dim None where it is stopped."""
    recorded = _Recorded(span, limit)
    try:
        return closure(rep, recorded), recorded.taken
    except _Enough:
        return None, recorded.taken


def _closure_cases():
    yield from build_zoo()
    yield from _zero_beside_nonzero()
    yield _modular_family(8, 2)
    yield tym_standard(3, Fraction(1, 2 ** 61 - 1))


@pytest.mark.parametrize("rep", list(_closure_cases()), ids=repr)
@pytest.mark.parametrize("field", ["modp", "rational"])
def test_the_closure_through_the_factors_adds_the_vectors_of_the_dense_product(rep, field):
    # N_i W = (s_i W + R_i^T (Y_i W)) / m_i is the dense numerator times W,
    # so both closures take in the same vectors in the same order and end at
    # the same dimension.  The exact closure of the conjugated tym member
    # runs for minutes, its integers doubling every few vectors: its first
    # 24 vectors are compared.
    slow = field == "rational" and rep.label == "tym(n=6,u=3) conjugated by P#seed=7"
    make = (lambda: _ModpSpan(2 ** 61 - 1)) if field == "modp" else (lambda: EchelonSpan(rep.r ** 2))
    ours = _recorded_closure(_algebra_dim, rep, make(), 24 if slow else None)
    assert ours == _recorded_closure(_dense_algebra_dim, rep, make(), 24 if slow else None)
    assert (ours[0] is None) == slow


class _PerStepModpSpan(_ModpSpan):
    """Reference ``_ModpSpan``: every entry reduced mod p at every elimination step."""

    def add(self, vec):
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


@pytest.mark.parametrize("spec", ["conj(burau:n=6,t=2,seed=3)", "conj(tym:n=5,u=5/3,seed=7)",
                                  "conj(dsum(tym:n=4,u=2,tym:n=4,u=3),seed=1)", "tym:n=6,u=1"])
def test_modp_span_reduces_once_per_vector_to_the_per_step_rows(spec):
    # Each step of the elimination is congruent to the reduced one, so the
    # closure takes in and returns the same vectors in the same order.
    rep = parse_rep_spec(spec)[0]
    ours, per_step = _ModpSpan(2 ** 61 - 1), _PerStepModpSpan(2 ** 61 - 1)
    assert _recorded_closure(_algebra_dim, rep, ours, None) == _recorded_closure(_algebra_dim, rep, per_step, None)
    assert ours.rows == per_step.rows


@pytest.mark.parametrize("p", [7, 2 ** 61 - 1])
def test_modp_span_matches_the_per_step_add_on_wide_and_negative_entries(p):
    rng = Random(p)
    ours, per_step = _ModpSpan(p), _PerStepModpSpan(p)
    for _ in range(40):
        # Entries at or past p and negative ones; a multiple of p reduces to 0.
        vec = [rng.choice((0, p, -p, rng.randint(-3 * p, 3 * p))) for _ in range(6)]
        assert ours.add(vec) == per_step.add(vec)
    assert ours.rows == per_step.rows and ours.dim == 6


@pytest.mark.parametrize("spec", ["dsum(tym:n=2,u=2,tym:n=2,u=3)", "conj(dsum(tym:n=2,u=2,tym:n=2,u=3),seed=7)",
                                  "tym:n=2,u=2"])
def test_the_closure_forms_no_dense_image(spec):
    # On 2 strands the Norton step does not decide these, so the closure runs.
    rep = parse_rep_spec(spec)[0]
    assert decide_irreducibility(rep)[0].detail.startswith("matrix algebra")
    assert "generators" not in vars(rep)


@pytest.mark.parametrize("seed, degrees", [(2, [8]), (1, [6, 6])])
def test_the_pick_stops_once_the_krylov_spaces_span(monkeypatch, seed, degrees):
    # Every image is full and A_1 has no rational eigenvalue, so no root
    # stops the reading: it stops once the Krylov spaces read span Q^8, at
    # e_1 where its polynomial is that of M_11, at e_2 where M_11 has a
    # minimal polynomial of degree 6.
    import braidrep.classify as classify

    rep = _modular_family(8, seed)
    assert verify_braid_relations(rep).ok and rep.image(1).dim == rep.image(2).dim == 8
    calls, original = [], classify.minimal_polynomial
    monkeypatch.setattr(classify, "minimal_polynomial", lambda *args: calls.append(f := original(*args)) or f)
    assert _character(rep) == 1
    assert [len(f) - 1 for f in calls] == degrees
    assert rational_eigenvalues(Matrix(rep.middle(1, 1))) == []


def _pick_cases():
    yield _modular_family(6, 2)
    for rep in build_zoo():
        yield rep
        yield scrambled(rep, 3)
    yield from random_families()
    yield broken_family()
    yield _mixed_deformations()
    for spec in ("tensor(tym:n=7,u=4,y=-3)", "tensor(burau:n=9,t=-1,y=5/2)", "tensor(char:n=4,y=7,y=2)",
                 "dsum(tensor(burau:n=4,t=-1,y=2),tensor(burau:n=4,t=-1,y=-3))",
                 "dsum(tensor(tym:n=5,u=1,y=2),char:n=5,y=2)", "dsum(tensor(tym:n=5,u=4,y=3),char:n=5,y=-1)",
                 "dsum(char:n=3,y=2,dsum(char:n=3,y=2,char:n=3,y=5))", "tym:n=3,u=4", "burau:n=3,t=-1"):
        yield parse_rep_spec(spec)[0]
        yield parse_rep_spec(f"conj({spec},seed=5)")[0]


@pytest.mark.parametrize("rep", list(_pick_cases()), ids=repr)
def test_the_pick_equals_the_rule_on_every_eigenvalue(rep):
    # The Krylov polynomials of e_1 ... e_d hold every eigenvalue whose rank
    # drop could pick y, so the pick is the rule read off every eigenvalue.
    assert _character(rep) == _every_eigenvalue_character(rep)


@pytest.mark.parametrize("spec, y", [
    # g_1 = 2: rank(g_1 - 2) = 0 against k = 2, so y = 1 + mu for mu = 1
    ("dsum(char:n=4,y=2,char:n=4,y=2)", 2),
    # tym on 2 strands: lambda = 2 and -2 give rank one each, below k = 2,
    # but a single generator is left as it is
    ("tym:n=2,u=4", 1),
    # lambda = 2 and -2 each have rank 2 = k on 3 strands: no drop
    ("tym:n=3,u=4", 1),
    # k = 6, and rank(g_1 - 2) = rank(g_1 + 3) = 1 + 3: on a tie, the smaller y
    ("dsum(tensor(burau:n=4,t=-1,y=2),tensor(burau:n=4,t=-1,y=-3))", -3),
    ("conj(tensor(burau:n=5,t=2,y=-1),seed=2)", -1),
])
def test_the_pick_takes_the_least_rank_below_k(spec, y):
    assert _character(parse_rep_spec(spec)[0]) == y


def test_irreducible_names_the_character_in_its_detail(capsys):
    assert run(["irreducible", "conj(tensor(tym:n=8,u=5/3,y=-2),seed=7)", "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "verdict: AbsolutelyIrreducible", "algebra dimension: 64",
        "divided by the character y=-2: equivalent to the standard family at u=5/3; "
        "coordinate projectors certify the full matrix algebra",
    ]
