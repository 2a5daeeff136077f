import json
import signal
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from braidrep.braid import (
    verify_braid_relations,
    verify_deformed_relations,
)
from braidrep.classify import (
    Verdict,
    _is_invariant,
    _modp_algebra_is_full,
    _norton_candidates,
    _norton_step,
    _orbit,
    _rational_algebra_dim,
    analyze,
    burnside_dimension,
    chain_basis,
    decide_irreducibility,
    dimension_bound_check,
    disconnected_invariant_subspace,
    extract_standard_form,
    invariant_subspace_search,
    lemma_bb_check,
    spin,
    tym_irreducibility,
    verdict_to_json_dict,
)
from braidrep.cli import parse_rep_spec, run
from braidrep.errors import NotARepresentationError, PreconditionError
from braidrep.friendship import classify_graph, full_friendship_graph, neighbor_form
from braidrep.linalg import Matrix, Subspace, kernel_basis, rank, rational, rational_eigenvalues
from braidrep.zoo import (
    Representation,
    character_rep,
    conjugate_rep,
    corank,
    direct_sum,
    reduced_burau,
    scrambled,
    tensor_character,
    tym_standard,
)
from conftest import broken_family, build_zoo, random_families
from test_braid import _cyclic_reference

F = Fraction


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


def test_burnside_of_permutation_family_is_thin():
    # Natural permutation action splits off the all-ones line, so the
    # algebra is 1 + 25 dimensional.
    dim, verdict = burnside_dimension(tym_standard(6, 1))
    assert dim == 26
    assert verdict.tag is Verdict.INCONCLUSIVE
    followup = invariant_subspace_search(tym_standard(6, 1))
    assert followup.tag is Verdict.REDUCIBLE


def _eigenvector_chain(rep, lam):
    """x, A_2 x, A_3 A_2 x, ... for the first canonical eigenvector x of A_1
    at lam on its image."""
    a = rep.deformation(1)
    eigenspace = rep.image(1).intersect(kernel_basis(a - Matrix.identity(rep.r) * lam))
    chain = [eigenspace.basis_vectors()[0]]
    for i in range(2, rep.n):
        chain.append(rep.deformation(i) * chain[-1])
    return chain


def test_disconnected_construction_on_trivial_blocks():
    # Corank 0: the witness is the first coordinate line, not a chain.
    rep = direct_sum(character_rep(5, 1), character_rep(5, 1))
    verdict = disconnected_invariant_subspace(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness == Subspace(2, [unit(0, 2)])
    assert_invariant(rep, verdict.witness)


def test_disconnected_construction_on_padded_burau(disconnected_fixture):
    rep = disconnected_fixture
    assert rep.n == 5 and rep.r == 6
    verdict = disconnected_invariant_subspace(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness.dim <= 4
    lam = rational(verdict.detail.removeprefix("eigenvector chain at eigenvalue "))
    assert verdict.witness == Subspace(rep.r, _eigenvector_chain(rep, lam))
    assert_invariant(rep, verdict.witness)


def test_disconnected_construction_rejects_chain_input():
    with pytest.raises(PreconditionError):
        disconnected_invariant_subspace(tym_standard(6, 2))


def test_disconnected_construction_finds_permutation_witness():
    rep = tym_standard(6, 1)
    verdict = disconnected_invariant_subspace(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness.dim == 5
    assert verdict.detail == "eigenvector chain at eigenvalue -2"
    assert verdict.witness == Subspace(6, _eigenvector_chain(rep, -2))


def test_neighbor_identities_on_trivial_family():
    rep = character_rep(5, 1)
    assert lemma_bb_check(rep, 1, 2)
    assert lemma_bb_check(rep, 0, 1)


def test_neighbor_identities_on_disconnected_fixture(disconnected_fixture):
    n = disconnected_fixture.n
    for i in range(n):
        assert lemma_bb_check(disconnected_fixture, i, (i + 1) % n)


def test_neighbor_identities_reject_friendly_neighbors():
    with pytest.raises(PreconditionError):
        lemma_bb_check(tym_standard(6, 2), 1, 2)


def test_neighbor_identities_reject_distant_pair():
    with pytest.raises(PreconditionError):
        lemma_bb_check(tym_standard(6, 2), 1, 3)


def test_chain_basis_of_standard_family_is_identity():
    assert chain_basis(tym_standard(6, 2)) == Matrix.identity(6)


def test_chain_basis_of_conjugated_family_is_invertible_and_consistent():
    rep = scrambled(tym_standard(7, 3), 23)
    basis = chain_basis(rep)
    res = extract_standard_form(rep)
    assert res.basis == basis


def test_chain_basis_rejects_coinciding_images(coinciding_images_fixture):
    with pytest.raises(PreconditionError, match="^neighboring deformation images coincide"):
        chain_basis(coinciding_images_fixture)


@pytest.mark.parametrize("recover", [chain_basis, extract_standard_form])
def test_chain_recovery_rejects_fewer_than_four_strands(recover):
    with pytest.raises(PreconditionError) as info:
        recover(tym_standard(3, 2))
    assert str(info.value) == "chain recovery needs at least 4 strands"


def test_chain_basis_rejects_low_corank():
    with pytest.raises(PreconditionError):
        chain_basis(tym_standard(6, 1))


def test_chain_basis_rejects_dimension_mismatch():
    with pytest.raises(PreconditionError):
        chain_basis(reduced_burau(6, 2))


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


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("spec", _SUMS)
def test_change_of_basis_keeps_the_verdict_of_direct_sums(spec, seed):
    # Sums of non-isomorphic and of isomorphic summands, up to r = 15.  In a
    # scrambled basis the orbit of a vector chosen in that basis fills the
    # space, so only a witness that does not depend on the basis decides.
    plain, _ = parse_rep_spec(spec)
    moved, _ = parse_rep_spec(f"conj({spec},seed={seed})")
    with time_limit(3):
        expected = analyze(plain).verdict
        verdict = analyze(moved).verdict
    assert verdict.tag is expected.tag
    for rep, found in ((plain, expected), (moved, verdict)):
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
    assert relations["deformed_relations_ok"] == verify_deformed_relations(rep)


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
def test_analyze_intersects_each_pair_of_images_once(monkeypatch, rep):
    calls = []
    original = Subspace.intersect

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Subspace, "intersect", counted)
    analyze(rep)
    assert len(calls) <= rep.n * (rep.n - 1) // 2


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
    thetas = {"A_1": a, "the neighbor cubic": neighbor_form(a, b), "A_1 A_2": a * b}
    found = list(_norton_vectors(rep))
    assert found[0][1] == first
    # Every rank-one element first, then each other element's rational
    # eigenvalues in ascending order, the elements in the order of thetas;
    # an eigenvalue lambda where theta - lambda has rank one is followed by
    # the factors of theta - lambda.
    ident = Matrix.identity(rep.r)
    factors = [f"{name}, which has rank one" for name, m in thetas.items() if rank(m) == 1]
    eigen = []
    for name, m in thetas.items():
        for lam in rational_eigenvalues(m) if rank(m) != 1 else []:
            eigen.append(f"{name} at eigenvalue {lam}")
            if rank(m - ident * lam) == 1:
                eigen.append(f"{name} minus {lam}, which has rank one")
    assert [where for _, where, *_ in found] == factors + eigen
    for kind, where, x, y, decisive in found:
        name, _, lam = where.partition(" at eigenvalue ")
        if kind == "factor":
            assert decisive
            name, _, lam = where.removesuffix(", which has rank one").partition(" minus ")
            assert _is_multiple(_outer(x, y), thetas[name] - ident * F(lam or 0))
        else:
            # x and y span the first lines of the right and left kernels.
            shifted = thetas[name] - ident * F(lam)
            assert not any(shifted * x) and not any(shifted.transpose() * y)
            assert decisive is (rank(shifted) == rep.r - 1)


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
        assert report.standard_form_error.startswith("friendship graph is not a chain")
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
    # The friendship graph and the relation shortcut share Representation.shift:
    # n - 1 products of D with the image rows, where a second pass in the
    # shortcut would take n - 2 more.  Both orders of the product count.
    import braidrep.braid as braid
    import braidrep.linalg as linalg
    import braidrep.zoo as zoo

    rep = scrambled(reduced_burau(8, 2), 3)
    d, dcols, calls, mul_rows = rep.tau.num, tuple(zip(*rep.tau.num)), [], linalg.mul_rows
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
    assert len(calls) == rep.n - 1


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
    assert data["standard_form"] == {"error": "chain vectors are dependent"}
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
        "  standard form: error (chain vectors are dependent)\n"
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


@pytest.mark.parametrize("rep", [
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
], ids=repr)
@pytest.mark.parametrize("transposed", [False, True], ids=["right", "transposed"])
def test_factored_orbit_matches_the_orbit_under_the_images(rep, transposed):
    rng = Random(rep.r)
    vectors = [[int(j == k) for j in range(rep.r)] for k in range(rep.r)]
    vectors += [[rng.randint(-3, 3) for _ in range(rep.r)] for _ in range(3)]
    for v in vectors:
        got = _orbit(rep, v, transposed).to_subspace()
        assert got == _orbit_by_products(rep, v, transposed), (rep.label, v)


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
    message = f"^conjugated image of generator {k} does not match the standard family$"
    with pytest.raises(NotARepresentationError, match=message):
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
