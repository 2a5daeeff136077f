"""Known answers, derived from the mathematics and never from braidrep.

* tym at u != 1 is absolutely irreducible, and for n >= 6 its standard form
  recovers u under any change of basis; tym at u = 1 is reducible.
* Reduced Burau at t is absolutely irreducible unless 1 + t + ... + t^(n-1)
  vanishes (over Q only t = -1 with n even), where it is reducible.
* A direct sum is reducible; a tensor with a character behaves like its
  factor; a character is absolutely irreducible.
* A conjugate behaves like the representation it conjugates.

Every Reducible witness is checked for invariance under each generator and
its inverse with the exact arithmetic of ``inputs``.
"""

from __future__ import annotations

from fractions import Fraction

from inputs import echelon, inverse, matvec, reduce

IRREDUCIBLE = "AbsolutelyIrreducible"
REDUCIBLE = "Reducible"
INCONCLUSIVE = "Inconclusive"
CLOSURE_DETAIL = "matrix algebra is full"


def expected_tag(spec) -> str:
    kind = spec[0]
    if kind == "tym":
        return REDUCIBLE if Fraction(spec[2]) == 1 else IRREDUCIBLE
    if kind == "burau":
        t = Fraction(spec[2])
        return REDUCIBLE if sum(t ** k for k in range(spec[1])) == 0 else IRREDUCIBLE
    if kind == "char":
        return IRREDUCIBLE
    if kind == "dsum":
        return REDUCIBLE
    if kind in ("tensor", "conj"):
        return expected_tag(spec[1])
    raise ValueError(f"unknown spec kind {kind!r}")


def expected_u(spec):
    """The twist a standard-form recovery must return, or None if not pinned."""
    while spec[0] == "conj":
        spec = spec[1]
    if spec[0] == "tym" and spec[1] >= 6 and Fraction(spec[2]) != 1:
        return Fraction(spec[2])
    return None


class Checker:
    """Oracle for one input: its spec and its generator images."""

    def __init__(self, spec, gens):
        self.spec = spec
        self.gens = gens
        self._inverses = None

    def witness_is_invariant(self, columns) -> bool:
        """True iff span(columns) is a proper nonzero subspace fixed by every
        generator and every inverse generator."""
        r = len(self.gens[0])
        rows, pivots = echelon(columns)
        if not 0 < len(rows) < r:
            return False
        if self._inverses is None:
            self._inverses = [inverse(g) for g in self.gens]
        for m in list(self.gens) + self._inverses:
            for w in rows:
                if any(reduce(rows, pivots, matvec(m, w))):
                    return False
        return True

    def verdict_problem(self, irr: dict):
        """Check a serialized verdict {"tag", "witness", ...}; None when right."""
        want = expected_tag(self.spec)
        tag = irr.get("tag")
        if tag == INCONCLUSIVE:
            return None
        if tag != want:
            return f"verdict {tag}, expected {want}"
        if tag == REDUCIBLE:
            witness = irr.get("witness")
            if not witness:
                return "Reducible verdict without a witness"
            columns = list(zip(*([Fraction(e) for e in row] for row in witness)))
            if not self.witness_is_invariant(columns):
                return "witness is not an invariant proper subspace"
        return None

    def report_problem(self, data: dict):
        """Check an analyze report as serialized by ``to_json_dict``."""
        rel = data["relations"]
        if not all(rel[k] for k in ("braid_relations_ok", "far_commutation_ok",
                                    "cyclic_conjugation_ok", "deformed_relations_ok")):
            return "relations reported broken on a genuine representation"
        problem = self.verdict_problem(data["irreducibility"])
        if problem:
            return problem
        u = expected_u(self.spec)
        if u is not None:
            got = data.get("standard_form", {}).get("u")
            if got is None or Fraction(got) != u:
                return f"recovered u {got}, expected {u}"
        return None


def is_decided(irr: dict) -> bool:
    return irr.get("tag") in (IRREDUCIBLE, REDUCIBLE)
