"""Default ``analyze``, ``graph``, ``make`` and ``sweep`` output, and the text
of ``verify``, ``graph``, ``irreducible`` and ``analyze``, pinned byte for byte.

The files under ``tests/data/`` hold what ``braidrep analyze SPEC``,
``braidrep graph SPEC``, ``braidrep make SPEC``, ``braidrep sweep`` and the
argvs of ``TEXT_GOLDEN`` printed; a change that speeds up a layer must leave
every one of them unchanged (the determinism contract of the CLI).  CI runs
this file against the installed package too, so a new check of the command
line is a row here.  The wider grid of ``cli_grid.py`` pins one digest per
argv in ``tests/data/cli_grid.json``; ``PYTHONPATH=src python3
tests/cli_grid.py --write`` rewrites that file.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.cli import run
from braidrep.linalg import Subspace
import cli_grid

DATA = Path(__file__).parent / "data"

GOLDEN = {
    # corank-2 chains: standard form and its change of basis
    "chain_u2": "conj(tym:n=6,u=2,seed=3)",
    "chain_u5_3": "conj(tym:n=7,u=5/3,seed=7)",
    "chain_n10": "conj(tym:n=10,u=-2/3,seed=11)",
    # u = 1: the all-ones line, the common fixed vectors
    "chain_u1": "conj(tym:n=8,u=1,seed=4)",
    "burau": "conj(burau:n=6,t=3,seed=5)",
    # relations checked pair by pair on the factors, graph without a shift
    "burau_n12": "conj(burau:n=12,t=5/3,seed=7)",
    # direct sums: the eigenvector chain witness, common fixed vectors
    "dsum_burau": "conj(dsum(burau:n=5,t=2,burau:n=5,t=3),seed=1)",
    "dsum_tym_char": "conj(dsum(tym:n=5,u=2,char:n=5,y=1),seed=3)",
    "tensor": "tensor(tym:n=5,u=2,y=3)",
    "conj_tensor": "conj(tensor(burau:n=5,t=2,y=-1),seed=2)",
    # a twist divided by its character -2 first: the core's standard form u = 5/3
    "twisted_chain": "conj(tensor(tym:n=8,u=5/3,y=-2),seed=7)",
    "tym2": "tym:n=2,u=4",
    "trivial": "dsum(char:n=5,y=1,char:n=5,y=1)",
    # corank 1 in r = 2, every image the same line: distance set [1, 2] from meeting lines
    "line_sum": "conj(dsum(char:n=5,y=2,char:n=5,y=1),seed=3)",
    # corank 2 on n = r = 6 without a chain: the chain step's first failing check
    "failed_chain": "dsum(burau:n=6,t=2,char:n=6,y=3)",
    # a family that breaks the relations, read from a file
    "broken": str(DATA / "broken_family.json"),
    # random images whose friendship graph is not a D-translate of one row
    "random_seed5": str(DATA / "random_seed5.json"),
    # the Norton step's witnesses: the orbit of a right factor of a rank-one A_1,
    # the orbit of an eigenvector of the neighbor cubic, and the annihilator
    # of a transposed orbit
    "burau_minus1": "conj(burau:n=6,t=-1,seed=7)",
    "dsum_tym3": "conj(dsum(tym:n=3,u=2,tym:n=3,u=3),seed=7)",
    "transposed": str(DATA / "transposed_family.json"),
    # A_1 of rank k = r - 1 = 3, its kernel at eigenvalue 0 read on its factors
    "tym3_char": "conj(dsum(tym:n=3,u=2,char:n=3,y=3),seed=1)",
    # a sum of equal blocks whose Norton words have repeated eigenvalues past 2^53
    "equal_sum": "conj(dsum(tym:n=8,u=5/3,tym:n=8,u=5/3),seed=2)",
    # a sum of two twists divided by y = -1: its core's images are near-full, not full
    "sum_of_twists": "conj(dsum(tensor(tym:n=4,u=2,y=2),tensor(tym:n=4,u=5/3,y=-1)),seed=7)",
    # 2 strands, where the Norton step does not decide: the algebra closure, thin
    "n2_sum": "conj(dsum(tym:n=2,u=2,tym:n=2,u=3),seed=7)",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analyze_output_is_unchanged(capsys, name):
    assert run(["analyze", GOLDEN[name]]) == 0
    expected = (DATA / f"analyze_{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_analyze_text_reads_proved_relations_off_the_pairs_at_s0(capsys):
    # A corank-2 sum with no chain start: the chain step refuses, the
    # relations are checked, and the graph comes from the distances d at
    # which s0 and s_d are friends.
    assert run(["analyze", "conj(dsum(burau:n=5,t=2,char:n=5,y=3),seed=3)", "--format", "text"]) == 0
    expected = (DATA / "analyze_dsum_burau5_text.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


GRAPH_GOLDEN = {
    # the all-pairs rule on a family that is not a representation: unclassified
    "broken": str(DATA / "broken_family.json"),
    # the all-pairs rule on random images: ContainsChain
    "random_seed5": str(DATA / "random_seed5.json"),
    # a conjugated chain: rank-two images, every pair tested by rank
    "chain_n10": "conj(tym:n=10,u=-2/3,seed=11)",
    # near-full images: every pair of generators is friends
    "complete": "conj(tensor(tym:n=8,u=1,y=-1),seed=5)",
}

# (file suffix, extra arguments): the reduced graph as JSON, the full graph
# as JSON, the reduced graph as DOT.
GRAPH_FORMS = [(".json", []), ("_full.json", ["--full"]), (".dot", ["--format", "dot"])]


@pytest.mark.parametrize("suffix, extra", GRAPH_FORMS, ids=[s for s, _ in GRAPH_FORMS])
@pytest.mark.parametrize("name", sorted(GRAPH_GOLDEN))
def test_graph_output_is_unchanged(capsys, name, suffix, extra):
    assert run(["graph", GRAPH_GOLDEN[name], *extra]) == 0
    expected = (DATA / f"graph_{name}{suffix}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


MAKE_GOLDEN = {
    # the dense images of a sum, formed from its factors
    "dsum_tym_char": "dsum(tym:n=6,u=2,char:n=6,y=1/2)",
    "char": "char:n=4,y=-3/2",
    "burau": "burau:n=7,t=5/3",
    # a conjugate of a sum: the image passed on through the change of basis
    "conj_dsum": "conj(dsum(tym:n=6,u=2,char:n=6,y=1/2),seed=3)",
    # a twist: the scaled dense images, factored again
    "tensor": "tensor(burau:n=6,t=2,y=3/2)",
}


@pytest.mark.parametrize("name", sorted(MAKE_GOLDEN))
def test_make_output_is_unchanged(capsys, name):
    assert run(["make", MAKE_GOLDEN[name]]) == 0
    expected = (DATA / f"make_{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


SWEEP_GOLDEN = {
    # the standard family at u != 1 (chain step) and u = 1 (fixed vectors)
    "tym": ["--n", "6,7", "--u", "5/3,1"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_output_is_unchanged(capsys, name):
    assert run(["sweep", *SWEEP_GOLDEN[name]]) == 0
    expected = (DATA / f"sweep_{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


TEXT_GOLDEN = {
    # the relations checked pair by pair on a dense conjugate
    "verify_pairwise.txt": ["verify", "conj(burau:n=8,t=2,seed=3)"],
    # the relations read through D, which a full image makes invertible
    "verify_full_image.txt": ["verify", "conj(tensor(burau:n=6,t=2,y=3/2),seed=4)"],
    # a family that breaks the relations, read from a file: one line per failing pair
    "verify_broken.txt": ["verify", str(DATA / "broken_family.json")],
    # a conjugated chain on 8 strands: its class and reduced edges
    "graph_chain_n8.txt": ["graph", "conj(tym:n=8,u=2,seed=3)"],
    # the verdict certified by the standard form, which recovers u
    "irreducible_chain_u5_3.txt": ["irreducible", "conj(tym:n=7,u=5/3,seed=7)"],
    # a twist whose core, Burau at t = -1 on 8 strands, has a rank-one A_1
    "irreducible_twisted_burau.txt": ["irreducible", "conj(tensor(burau:n=8,t=-1,y=3),seed=5)"],
    # corank 2 on n = r = 7 whose chain step fails: its error line
    "analyze_failed_dense_chain.txt": ["analyze", "conj(dsum(burau:n=7,t=2,char:n=7,y=3),seed=2)"],
}


@pytest.mark.parametrize("name", sorted(TEXT_GOLDEN))
def test_text_output_is_unchanged(capsys, name):
    assert run([*TEXT_GOLDEN[name], "--format", "text"]) == 0
    expected = (DATA / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_cli_grid_digests_are_unchanged():
    expected = json.loads(cli_grid.GRID_FILE.read_text(encoding="utf-8"))
    assert len(expected) >= 2000
    assert cli_grid.changed(expected, cli_grid.digests()) == []


def _reference_rref(dim, vectors):
    """Nonzero rows of the reduced row echelon form of ``vectors``, each
    scaled to a leading 1, by textbook Gauss-Jordan elimination over Q."""
    rows = [[Fraction(e) for e in v] for v in vectors]
    out, col = [], 0
    while rows and col < dim:
        at = next((k for k, row in enumerate(rows) if row[col]), None)
        if at is None:
            col += 1
            continue
        lead = rows.pop(at)
        lead = [e / lead[col] for e in lead]
        rows = [[a - row[col] * b for a, b in zip(row, lead)] for row in rows]
        out = [[a - row[col] * b for a, b in zip(row, lead)] for row in out]
        out.append(lead)
        col += 1
    return tuple(tuple(row) for row in out)


_entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.lists(_entries, min_size=d, max_size=d), max_size=5))
))
def test_basis_vectors_match_a_fraction_rref(case):
    dim, vectors = case
    assert Subspace(dim, vectors).basis_vectors() == _reference_rref(dim, vectors)
