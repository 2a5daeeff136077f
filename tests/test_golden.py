"""Default ``analyze`` output, pinned byte for byte.

The files under ``tests/data/`` hold the JSON that ``braidrep analyze SPEC``
printed for each spec below; a change that speeds up a layer must leave
every one of them unchanged (the determinism contract of the CLI).
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.cli import run
from braidrep.linalg import Subspace

DATA = Path(__file__).parent / "data"

GOLDEN = {
    # corank-2 chains: standard form and its change of basis
    "chain_u2": "conj(tym:n=6,u=2,seed=3)",
    "chain_u5_3": "conj(tym:n=7,u=5/3,seed=7)",
    "chain_n10": "conj(tym:n=10,u=-2/3,seed=11)",
    # u = 1: the all-ones line, the common fixed vectors
    "chain_u1": "conj(tym:n=8,u=1,seed=4)",
    "burau": "conj(burau:n=6,t=3,seed=5)",
    # direct sums: the eigenvector chain witness, common fixed vectors
    "dsum_burau": "conj(dsum(burau:n=5,t=2,burau:n=5,t=3),seed=1)",
    "dsum_tym_char": "conj(dsum(tym:n=5,u=2,char:n=5,y=1),seed=3)",
    "tensor": "tensor(tym:n=5,u=2,y=3)",
    "conj_tensor": "conj(tensor(burau:n=5,t=2,y=-1),seed=2)",
    "tym2": "tym:n=2,u=4",
    "trivial": "dsum(char:n=5,y=1,char:n=5,y=1)",
    # a family that breaks the relations, read from a file
    "broken": str(DATA / "broken_family.json"),
    # random images whose friendship graph is not a D-translate of one row
    "random_seed5": str(DATA / "random_seed5.json"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analyze_output_is_unchanged(capsys, name):
    assert run(["analyze", GOLDEN[name]]) == 0
    expected = (DATA / f"analyze_{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


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
