import importlib.util
import os
import sys
import warnings
from fractions import Fraction
from random import Random

import pytest

# The suite leaves no bytecode under src/: a checkout holding a cached
# src/braidrep/__pycache__ starts faster, which would skew a benchmark run
# made after the tests.  This holds for the modules imported below and, via
# the environment the CLI tests copy, for the Python subprocesses they start.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from braidrep.linalg import Matrix  # noqa: E402
from braidrep.zoo import (  # noqa: E402
    Representation,
    character_rep,
    direct_sum,
    random_invertible_matrix,
    reduced_burau,
    scrambled,
    tensor_character,
    tym_standard,
)

# Hypothesis's patch writer imports libcst on the first failing example, and
# libcst.metadata warns on import (mypy_extensions.TypedDict).  Under -W error
# that warning ends the session with an INTERNALERROR in place of the failure
# report, so the module is imported once here with that warning ignored.
if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import libcst.metadata  # noqa: F401


def build_zoo():
    """Curated genuine representations covering every constructor."""
    return [
        character_rep(5, 1),
        character_rep(6, 3),
        character_rep(4, Fraction(-1, 2)),
        tym_standard(4, 2),
        tym_standard(6, 2),
        tym_standard(6, 1),
        tym_standard(7, Fraction(5, 3)),
        reduced_burau(4, 2),
        reduced_burau(6, 2),
        reduced_burau(5, -1),
        tensor_character(tym_standard(5, 2), 3),
        tensor_character(reduced_burau(5, 2), Fraction(1, 2)),
        direct_sum(reduced_burau(6, 2), reduced_burau(6, 3)),
        direct_sum(tym_standard(5, 2), character_rep(5, 1)),
        scrambled(tym_standard(6, 3), 7),
        scrambled(reduced_burau(5, 2), 11),
    ]


def broken_family():
    """Diagonal images plus a swap: the braid relations fail at (1, 2) and
    (2, 3), far commutation at (1, 3), and the deformation ranks disagree."""
    return Representation(
        4, 2,
        [Matrix([[1, 0], [0, 2]]), Matrix([[3, 0], [0, 4]]), Matrix([[0, 1], [1, 0]])],
    )


def random_families():
    """Seeded random invertible 3 x 3 images on 4 strands: not representations."""
    for seed in range(6):
        rng = Random(seed)
        yield Representation(4, 3, [random_invertible_matrix(3, rng) for _ in range(3)],
                             label=f"random(seed={seed})")


@pytest.fixture(scope="session")
def zoo():
    return build_zoo()


@pytest.fixture(scope="session")
def disconnected_fixture():
    """5 strands in dimension 6, deformations with pairwise trivial image
    intersections: a Burau block padded by a two-dimensional trivial block."""
    trivial_plane = direct_sum(character_rep(5, 1), character_rep(5, 1))
    return direct_sum(reduced_burau(5, 2), trivial_plane)


@pytest.fixture(scope="session")
def coinciding_images_fixture():
    """Corank-2 family on 6 strands whose deformation images all coincide."""
    plane = direct_sum(character_rep(6, 2), character_rep(6, 3))
    rest = direct_sum(
        direct_sum(character_rep(6, 1), character_rep(6, 1)),
        direct_sum(character_rep(6, 1), character_rep(6, 1)),
    )
    return direct_sum(plane, rest)
