import json
import signal
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from braidrep.braid import (
    verify_braid_relations,
    verify_cyclic_conjugation,
    verify_deformed_relations,
)
from braidrep.classify import (
    Verdict,
    _is_invariant,
    _modp_algebra_is_full,
    _rank_one_element,
    _rank_one_fullness,
    _rational_algebra_dim,
    _simple_eigenvector_pair,
    analyze,
    burnside_dimension,
    chain_basis,
    corank_and_graph,
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
from braidrep.cli import run
from braidrep.errors import NotARepresentationError, PreconditionError, ReducibleSignal
from braidrep.friendship import neighbor_form
from braidrep.linalg import Matrix, Subspace, rank
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

F = Fraction


def unit(i, dim):
    return tuple(F(int(j == i)) for j in range(dim))


def assert_invariant(rep, w):
    for v in w.basis_vectors():
        for i in range(1, rep.n):
            assert w.contains(rep.gen(i) * v)
            assert w.contains(rep.gen_inverse(i) * v)


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


def test_disconnected_construction_on_trivial_blocks():
    rep = direct_sum(character_rep(5, 1), character_rep(5, 1))
    verdict = disconnected_invariant_subspace(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness.dim == 1
    assert_invariant(rep, verdict.witness)


def test_disconnected_construction_on_padded_burau(disconnected_fixture):
    rep = disconnected_fixture
    assert rep.n == 5 and rep.r == 6
    verdict = disconnected_invariant_subspace(rep)
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness.dim <= 4
    assert_invariant(rep, verdict.witness)


def test_disconnected_construction_rejects_chain_input():
    with pytest.raises(PreconditionError):
        disconnected_invariant_subspace(tym_standard(6, 2))


def test_disconnected_construction_finds_permutation_witness():
    verdict = disconnected_invariant_subspace(tym_standard(6, 1))
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness.dim == 5


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
    assert all(res.witness_checks.values())


def test_chain_basis_rejects_coinciding_images(coinciding_images_fixture):
    with pytest.raises(ReducibleSignal) as info:
        chain_basis(coinciding_images_fixture)
    assert info.value.witness is not None
    assert info.value.witness.dim == 2


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


def test_inconclusive_is_reported_honestly():
    # Two copies of the same irreducible family: the commutant is 2x2, the
    # algebra closure is thin, and proper invariant subspaces exist; the
    # diagonal ones are found by spinning neighbor intersection vectors.
    rep = direct_sum(tym_standard(6, 2), tym_standard(6, 2))
    report = analyze(rep)
    assert report.verdict.tag in (Verdict.REDUCIBLE, Verdict.INCONCLUSIVE)
    if report.verdict.tag is Verdict.REDUCIBLE:
        assert_invariant(rep, report.verdict.witness)


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
    # Every generator scales the all-ones vector by 2.  In these bases no
    # orbit of the search is proper, so the common eigenvector step must
    # find the line; without it the verdict fell to Inconclusive.
    rep = scrambled(tensor_character(tym_standard(6, 1), 2), seed)
    verdict = analyze(rep).verdict
    assert verdict.tag is Verdict.REDUCIBLE
    assert verdict.witness.dim == 1
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


def test_ladder_agrees_with_algebra_dimension(zoo):
    for rep in zoo:
        corank_val, _, graph_class, _ = corank_and_graph(rep)
        verdict, _, _ = decide_irreducibility(rep, corank_val, graph_class)
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
    assert relations["cyclic_conjugation_ok"] == verify_cyclic_conjugation(rep)
    assert relations["deformed_relations_ok"] == verify_deformed_relations(rep)


def test_spin_is_closed_under_inverses_across_zoo(zoo):
    for rep in zoo:
        for k in range(rep.r):
            orbit = spin(rep, unit(k, rep.r))
            assert _is_invariant(rep, orbit), (rep.label, k)


@pytest.mark.parametrize("rep, eigenvector_pair", [
    (scrambled(tym_standard(8, 2), 1), False),
    # A_1 has only nonzero eigenvalues on its image, so neither the spectral
    # projector nor the eigenvector chain intersects an eigenspace with it.
    (scrambled(direct_sum(reduced_burau(5, 2), reduced_burau(5, 3)), 1), True),
], ids=["chain", "direct sum"])
def test_analyze_intersects_each_pair_of_images_once(monkeypatch, rep, eigenvector_pair):
    import braidrep.classify as classify

    calls, pairs = [], []
    original = Subspace.intersect
    step = classify._simple_eigenvector_pair

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Subspace, "intersect", counted)
    monkeypatch.setattr(classify, "_simple_eigenvector_pair", lambda rep: pairs.append(1) or step(rep))
    analyze(rep)
    assert len(calls) <= rep.n * (rep.n - 1) // 2
    assert bool(pairs) is eigenvector_pair


def test_rank_one_certificate_matches_algebra_dimension(zoo):
    # burnside_dimension is the exact rational dimension: it trusts its
    # modular closure only when that is full.  The rational closure alone
    # takes minutes on the conjugated tym member.
    answered = 0
    for rep in zoo:
        full = _rank_one_fullness(rep)
        if full is not None:
            answered += 1
            assert full == (burnside_dimension(rep)[0] == rep.r ** 2), rep.label
    # Only the corank-0 character and tensor(tym(n=5,u=2),y=3) have no source.
    assert answered == len(zoo) - 2


@pytest.mark.parametrize("idx, seed", _change_of_basis_cases())
def test_rank_one_certificate_keeps_its_answer_in_every_basis(idx, seed):
    rep = ZOO[idx]
    moved = scrambled(rep, seed)
    full = _rank_one_fullness(rep)
    assert _rank_one_fullness(moved) == full
    if full is not None:
        assert _modp_algebra_is_full(moved) == full


def _outer(x, y):
    return Matrix(tuple(tuple(a * b for b in y) for a in x))


def _is_multiple(m, of):
    i, j = next((i, j) for i, row in enumerate(of.rows) for j, e in enumerate(row) if e)
    return m[i, j] != 0 and of * (m[i, j] / of[i, j]) == m


@pytest.mark.parametrize("rep, source", [
    (reduced_burau(6, 2), "deformation"),
    (reduced_burau(6, -1), "deformation"),
    (tym_standard(8, 2), "neighbor cubic"),
    (direct_sum(reduced_burau(6, 2), reduced_burau(6, 3)), "simple eigenvalue"),
    (tensor_character(reduced_burau(6, 2), -1), "simple eigenvalue"),
], ids=lambda v: v.label if isinstance(v, Representation) else v)
def test_rank_one_element_comes_from_the_cheapest_source(rep, source):
    found, x, y = _rank_one_element(rep)
    assert found == source
    a = rep.deformation(1)
    if source == "deformation":
        assert _is_multiple(_outer(x, y), a)
    elif source == "neighbor cubic":
        assert _is_multiple(_outer(x, y), neighbor_form(a, rep.deformation(2)))
    else:
        # x and y are right and left eigenvectors of A_1 for one nonzero
        # eigenvalue, and y^T x != 0 makes x y^T / y^T x its spectral projector.
        k = next(k for k, e in enumerate(x) if e)
        lam = (a * x)[k] / x[k]
        assert lam != 0
        assert a * x == tuple(lam * e for e in x)
        assert a.transpose() * y == tuple(lam * e for e in y)
        assert sum(p * q for p, q in zip(x, y)) != 0


def test_transposed_orbit_is_needed_for_fullness():
    # Not a braid representation, but a valid family: A_1 = diag(1, 0) is
    # e1 e1^T.  The orbit of e1 fills Q^2, while its orbit under the
    # transposes is a line: the algebra is the 3-dimensional lower-triangular
    # one, and e2 spans an invariant line.
    rep = Representation(3, 2, [Matrix(((2, 0), (0, 1))), Matrix(((1, 0), (1, 2)))])
    assert _rational_algebra_dim(rep) == 3
    assert _rank_one_fullness(rep) is False
    verdict = analyze(rep).verdict
    assert verdict.tag is Verdict.REDUCIBLE
    assert_invariant(rep, verdict.witness)


def test_jordan_block_yields_no_eigenvector_pair():
    # Eigenvalue 1 of A_1 sits in a 2 x 2 Jordan block: its left and right
    # eigenvectors are orthogonal, and no rank-one projector belongs to it.
    jordan = Matrix(((2, 1), (0, 2)))
    assert _simple_eigenvector_pair(Representation(3, 2, [jordan, jordan])) is None
    # Next to a simple eigenvalue 2, the pair comes from that one.
    g = Matrix(((2, 1, 0), (0, 2, 0), (0, 0, 3)))
    rep = Representation(3, 3, [g, g])
    x, y = _simple_eigenvector_pair(rep)
    a = rep.deformation(1)
    assert a * x == tuple(F(2 * e) for e in x)
    assert a.transpose() * y == tuple(F(2 * e) for e in y)


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


def test_witness_search_ends_inconclusive_on_irreducible_input(monkeypatch):
    # Reduced Burau at t = 2 is irreducible: every step of the search,
    # the seeded random orbits included, must run and find nothing.
    import braidrep.classify as classify

    spins = []
    original = classify.spin

    def counted(rep, v):
        spins.append(v)
        return original(rep, v)

    monkeypatch.setattr(classify, "spin", counted)
    rep = reduced_burau(6, 2)
    verdict = invariant_subspace_search(rep)
    assert verdict.tag is Verdict.INCONCLUSIVE
    assert verdict.witness is None
    assert verdict.detail.startswith("no invariant subspace found by the ordered search")
    with_random = len(spins)
    spins.clear()
    invariant_subspace_search(rep, trials=0)
    assert with_random > len(spins)


@pytest.mark.parametrize("r", [6, 7])
def test_analyze_tries_the_standard_form_after_an_irreducible_verdict(r):
    # Random rank-2 deformations on 6 strands: not a braid representation,
    # corank 2 and no chain, certified irreducible without the chain step.
    # analyze then tries the standard form and records why it does not apply.
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


def test_chain_analyze_checks_relations_on_the_standard_family_only(monkeypatch):
    import braidrep.classify as classify

    calls = []
    original = classify.verify_braid_relations

    def spy(rep):
        calls.append(rep)
        return original(rep)

    monkeypatch.setattr(classify, "verify_braid_relations", spy)
    report = analyze(scrambled(tym_standard(8, F(5, 3)), 3))
    assert report.standard_form is not None
    assert len(calls) == 1 and calls[0] is report.standard_form.standard


_CHAIN_GRID = [
    scrambled(tym_standard(n, u), seed)
    for n, u, seed in [(6, 2, 1), (7, F(5, 3), 2), (8, -1, 3), (9, F(-2, 3), 4),
                       (6, 1, 5), (8, 1, 6), (10, 3, 7)]
] + [Representation(6, 6, [Matrix.identity(6)] * 5), tym_standard(7, 4)]


@pytest.mark.parametrize("rep", _CHAIN_GRID, ids=repr)
def test_analyze_relations_equal_the_dense_check_of_the_input(rep):
    dense = verify_braid_relations(rep)
    assert analyze(rep).relations == {
        "braid_relations_ok": dense.braid_relations_ok,
        "far_commutation_ok": dense.far_commutation_ok,
        "cyclic_conjugation_ok": dense.ok or verify_cyclic_conjugation(rep),
        "deformed_relations_ok": dense.ok,
        "failures": [[desc, list(pair)] for desc, pair in dense.failures],
    }


def _chain_outcome(rep):
    try:
        result = extract_standard_form(rep)
    except (PreconditionError, ReducibleSignal, NotARepresentationError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return result.u, result.basis


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
def test_chain_recovery_matches_the_all_pairs_scan(rep):
    assert rep.shift_invariant
    shortcut = _chain_outcome(rep)
    forced = Representation(rep.n, rep.r, rep.generators)
    forced.shift_invariant = False  # overrides the cached check: scan every pair
    assert _chain_outcome(forced) == shortcut
