"""A grid of command lines whose output is pinned by one digest per argv.

The grid runs every verb in every format over tym, Burau and characters at
n = 2..8, their sums, sums of copies, twists and sums of twists, plain and
conjugated at two seeds; over the representation files in ``tests/data/``;
and over the refusals whose message braidrep writes itself.  Each argv runs
in process with ``tests/data/`` as the working directory, and its digest is
the first 16 hex digits of the SHA-256 of its exit code, standard output and
standard error.  ``tests/data/cli_grid.json`` maps each argv, shell-quoted,
to its digest; ``tests/test_golden.py`` checks it.

The module needs only the standard library and braidrep, so the digests can
be compared under any Python braidrep supports:

    PYTHONPATH=src python3 tests/cli_grid.py           # list the argvs that changed
    PYTHONPATH=src python3 tests/cli_grid.py --write   # rewrite tests/data/cli_grid.json

The first form exits 1 when some argv changed, and prints the digest of the
whole grid either way.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# No bytecode under src/, as in tests/conftest.py: a cached
# src/braidrep/__pycache__ would skew a benchmark run made after the grid.
sys.dont_write_bytecode = True

from braidrep.cli import run  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
GRID_FILE = DATA / "cli_grid.json"

SEEDS = (3, 7)


def _specs():
    """The builtin specs of the grid: for each n, atoms, sums, sums of
    copies, twists and sums of twists, each plain and conjugated."""
    plain = []
    for n in range(2, 9):
        tym2, tym1, chi3, chi1 = f"tym:n={n},u=2", f"tym:n={n},u=1", f"char:n={n},y=3", f"char:n={n},y=1"
        plain += [tym2, tym1, chi3, chi1]
        if n >= 3:
            plain += [f"burau:n={n},t=3", f"burau:n={n},t=-1", f"dsum(burau:n={n},t=2,{chi3})"]
        plain += [
            f"dsum({tym2},{chi3})",
            f"dsum({tym2},{chi1})",  # corank 2 at r = n + 1
            f"dsum({chi1},{chi1})",
            f"tensor({tym2},y=3)",
            f"dsum(tensor({tym2},y=2),tensor({chi3},y=-1))",
        ]
        if n <= 6:  # the sums of two chains, r = 2n
            plain += [f"dsum({tym2},{tym2})", f"dsum(tensor({tym2},y=2),tensor(tym:n={n},u=5/3,y=-1))"]
    return plain + [f"conj({spec},seed={seed})" for seed in SEEDS for spec in plain]


FILES = sorted(p.name for p in DATA.glob("*.json") if p.name.endswith("_family.json")
               or p.name.startswith(("make_", "random_")))

# Each verb with the arguments of every format it renders, and the full graph.
FORMS = {
    "verify": [[], ["--format", "text"]],
    "graph": [[], ["--full"], ["--format", "dot"], ["--format", "text"]],
    "analyze": [[], ["--format", "text"]],
    "irreducible": [[], ["--format", "text"]],
}

REFUSALS = [
    ["make", "tym:n=6,u=2)"],
    ["make", "dsum(tym:n=4,u=2,char:n=4,y=3"],
    ["make", "foo:n=4,u=2"],
    ["make", "tym:n=4,t=2"],
    ["make", "tym:n=4,u=2,u=3"],
    ["make", "tym:n=4"],
    ["make", "burau:n=2,t=3"],
    ["make", "tym:n=1,u=2"],
    ["make", "tensor(tym:n=4,u=2)"],
    ["make", "dsum(tym:n=4,u=2)"],
    ["make", "dsum(tym:n=4,u=2,tym:n=5,u=2)"],
    ["make", "tym"],
    ["make", "tym:n=65,u=2"],
    ["make", "dsum(tym:n=50,u=2,tym:n=50,u=3)"],
    ["analyze", "conj(" * 2000 + "tym:n=4,u=2" + ")" * 2000],
    ["make", "tym:n=4,u=0"],
    ["analyze", "tym:n=4,u=0"],
    ["sweep", "--n", "6..4", "--u", "2"],
    ["sweep", "--n", "4..200", "--u", "2"],
    ["analyze", "analyze_trivial.json"],
]


def argvs():
    """Every argv of the grid, in a fixed order."""
    grid = []
    for spec in _specs():
        grid.append(["make", spec])
        grid += [[verb, spec, *extra] for verb, forms in FORMS.items() for extra in forms]
    grid += [[verb, name, *extra] for name in FILES for verb, forms in FORMS.items() for extra in forms]
    grid += [["analyze", "conj(tym:n=5,u=2)", "--seed", str(seed)] for seed in SEEDS]
    grid += [["sweep", "--n", "2..5,8", "--u", "2,1,-1/2", *extra] for extra in ([], ["--format", "text"])]
    return grid + REFUSALS


def digest(argv):
    """The digest of one run of argv: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digests():
    """``{shell-quoted argv: digest}`` over the grid, run from ``tests/data/``."""
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        return {shlex.join(argv): digest(argv) for argv in argvs()}
    finally:
        os.chdir(cwd)


def changed(expected, actual):
    """The argvs whose digest differs, or that only one of the maps holds."""
    return sorted(key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key))


def main(args):
    actual = digests()
    whole = hashlib.sha256(json.dumps(actual).encode("utf-8")).hexdigest()[:16]
    if args == ["--write"]:
        GRID_FILE.write_text(json.dumps(actual, indent=0) + "\n", encoding="utf-8")
        print(f"wrote {len(actual)} digests, grid {whole}")
        return 0
    if args:
        print(__doc__)
        return 2
    diff = changed(json.loads(GRID_FILE.read_text(encoding="utf-8")), actual)
    for key in diff:
        print(f"changed: braidrep {key}")
    print(f"{len(actual)} argvs, {len(diff)} changed, grid {whole}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
