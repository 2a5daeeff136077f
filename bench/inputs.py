"""Benchmark inputs, built with the benchmark's own exact arithmetic.

A spec is a nested tuple naming a representation the way braidrep's spec
grammar does:

    ("tym", n, u)  ("burau", n, t)  ("char", n, y)
    ("tensor", spec, y)  ("dsum", spec, spec)  ("conj", spec, seed)

``build`` turns a spec into its generator images (tuples of Fraction rows)
without calling braidrep, so the program under test receives only generated
inputs.  The conventions follow braidrep's documented ones exactly, including
the seeded change of basis of ``conj``: ``random_invertible`` draws the same
numbers from ``random.Random(seed)`` as ``braidrep.zoo.random_invertible_matrix``,
so ``("conj", spec, 1)`` is the very input that ``conj(SPEC,seed=1)`` names.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from random import Random

F0 = Fraction(0)
F1 = Fraction(1)


def spec_text(spec) -> str:
    """The braidrep spec string for a spec tuple, e.g. ``conj(tym:n=6,u=2,seed=3)``."""
    kind = spec[0]
    if kind == "tym":
        return f"tym:n={spec[1]},u={spec[2]}"
    if kind == "burau":
        return f"burau:n={spec[1]},t={spec[2]}"
    if kind == "char":
        return f"char:n={spec[1]},y={spec[2]}"
    if kind == "tensor":
        return f"tensor({spec_text(spec[1])},y={spec[2]})"
    if kind == "dsum":
        return f"dsum({spec_text(spec[1])},{spec_text(spec[2])})"
    if kind == "conj":
        return f"conj({spec_text(spec[1])},seed={spec[2]})"
    raise ValueError(f"unknown spec kind {kind!r}")


def strands(spec) -> int:
    while spec[0] in ("tensor", "conj"):
        spec = spec[1]
    if spec[0] == "dsum":
        return strands(spec[1])
    return spec[1]


# -- small exact matrix helpers (lists of lists) ---------------------------

def identity(r):
    return [[F1 if i == j else F0 for j in range(r)] for i in range(r)]


def matmul(a, b):
    """Product of two matrices given as row lists; zero entries of a are skipped."""
    ncols = len(b[0])
    out = []
    for arow in a:
        orow = [0] * ncols
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        orow[j] += x * y
        out.append(orow)
    return out


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v) if x) for row in a]


def inverse(m):
    """Gauss-Jordan inverse over Fractions; None when m is singular."""
    r = len(m)
    aug = [[Fraction(e) for e in row] + [F1 if i == j else F0 for j in range(r)]
           for i, row in enumerate(m)]
    for col in range(r):
        piv = next((i for i in range(col, r) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [e / lead for e in aug[col]]
        for i in range(r):
            c = aug[i][col]
            if i != col and c:
                aug[i] = [a - c * b for a, b in zip(aug[i], aug[col])]
    return [row[r:] for row in aug]


def echelon(vectors):
    """Reduced echelon rows (pivot entries 1) spanning the given vectors."""
    rows, pivots = [], []
    for v in vectors:
        w = reduce(rows, pivots, v)
        p = next((k for k, e in enumerate(w) if e), None)
        if p is None:
            continue
        lead = w[p]
        w = [e / lead for e in w]
        for i, row in enumerate(rows):
            c = row[p]
            if c:
                rows[i] = [a - c * b for a, b in zip(row, w)]
        rows.append(w)
        pivots.append(p)
    return rows, pivots


def reduce(rows, pivots, v):
    w = [Fraction(e) for e in v]
    for p, row in zip(pivots, rows):
        c = w[p]
        if c:
            w = [a - c * b for a, b in zip(w, row)]
    return w


# -- the families ----------------------------------------------------------

def _embed(size, at, block):
    m = identity(size)
    for i, brow in enumerate(block):
        for j, e in enumerate(brow):
            m[at + i][at + j] = Fraction(e)
    return m


def _tym(n, u):
    return [_embed(n, i - 1, ((0, u), (1, 0))) for i in range(1, n)]


def _burau(n, t):
    r = n - 1
    gens = []
    for i in range(1, n):
        if i == 1:
            gens.append(_embed(r, 0, ((-t, 0), (1, 1))))
        elif i == n - 1:
            gens.append(_embed(r, n - 3, ((1, t), (0, -t))))
        else:
            gens.append(_embed(r, i - 2, ((1, t, 0), (0, -t, 0), (0, 1, 1))))
    return gens


def random_invertible(size, rng: Random):
    """Seeded invertible integer matrix, entries in [-3, 3], drawn in the
    same order and with the same retry rule as braidrep's scrambling."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        if len(echelon(m)[0]) == size:
            return m


def _conj(gens, p):
    """p^-1 g p for every g, in integer arithmetic with one division per entry."""
    pinv = inverse(p)
    dp = lcm(*(e.denominator for row in pinv for e in row))
    q = [[int(e * dp) for e in row] for row in pinv]
    out = []
    for g in gens:
        dg = lcm(*(e.denominator for row in g for e in row))
        gi = [[int(e * dg) for e in row] for row in g]
        num = matmul(q, matmul(gi, p))
        den = dp * dg
        out.append([[Fraction(e, den) for e in row] for row in num])
    return out


def build(spec):
    """Generator images of a spec, as a tuple of tuples of Fraction rows."""
    kind = spec[0]
    if kind == "tym":
        gens = _tym(spec[1], Fraction(spec[2]))
    elif kind == "burau":
        gens = _burau(spec[1], Fraction(spec[2]))
    elif kind == "char":
        gens = [[[Fraction(spec[2])]]] * (spec[1] - 1)
    elif kind == "tensor":
        y = Fraction(spec[2])
        gens = [[[e * y for e in row] for row in g] for g in build(spec[1])]
    elif kind == "dsum":
        a, b = build(spec[1]), build(spec[2])
        ra, rb = len(a[0]), len(b[0])
        gens = [[list(row) + [F0] * rb for row in ga] + [[F0] * ra + list(row) for row in gb]
                for ga, gb in zip(a, b)]
    elif kind == "conj":
        inner = build(spec[1])
        gens = _conj(inner, random_invertible(len(inner[0]), Random(spec[2])))
    else:
        raise ValueError(f"unknown spec kind {kind!r}")
    return tuple(tuple(tuple(row) for row in g) for g in gens)
