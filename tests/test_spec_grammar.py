"""Properties of ``analyze`` over random trees of the builtin spec grammar.

A tree is built from the atoms tym, Burau and char with ``tensor``, ``dsum``
and ``conj``, on one strand count n <= 16, and kept only where ``cli._parse``
reads a dimension r <= 16 from its text, before anything is built.

The one stated exception is n = 2: a single generator generates a
commutative algebra, so no input there is absolutely irreducible, and a sum
of two forms with no rational eigenvalue, such as
``dsum(tym:n=2,u=2,tym:n=2,u=3)``, stays Inconclusive where it is Reducible.

Each example has a budget of ``BUDGET_S`` seconds and fails, naming its spec,
when it runs past it, so one stalled input cannot hold the suite.  Examples
are not shrunk: each shrink step of a stalled example pays the whole budget.
"""

import io
import signal
from contextlib import contextmanager, redirect_stdout

from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from braidrep.classify import Verdict, analyze
from braidrep.cli import _parse, parse_rep_spec, run

SCALARS = ("2", "3", "-1", "5/3", "1", "-2", "1/2")
MAX_R = 16
# Passing examples take at most 0.1 s on a 2-core x86 VM.
BUDGET_S = 10
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def _atoms(n):
    families = ["tym", "char"] + (["burau"] if n >= 3 else [])
    key = {"tym": "u", "burau": "t", "char": "y"}
    return st.builds(lambda fam, c: f"{fam}:n={n},{key[fam]}={c}",
                     st.sampled_from(families), st.sampled_from(SCALARS))


def _trees(n):
    def extend(inner):
        return st.one_of(
            st.builds(lambda x, y: f"tensor({x},y={y})", inner, st.sampled_from(SCALARS)),
            st.builds(lambda a, b: f"dsum({a},{b})", inner, inner),
            st.builds(lambda x, s: f"conj({x},seed={s})", inner, st.integers(0, 9)),
        )
    return st.recursive(_atoms(n), extend, max_leaves=3)


specs = st.integers(2, 16).flatmap(_trees)


def _summary(report):
    """What a change of basis must not move."""
    graph = report.graph_class
    return (report.corank, graph and graph.tag, report.verdict.tag,
            report.standard_form and report.standard_form.u, report.character)


@contextmanager
def _budget(spec):
    """Fail, naming spec, when the block runs past ``BUDGET_S`` seconds; the
    previous SIGALRM handler and real-time timer are restored after."""
    def on_alarm(signum, frame):
        raise AssertionError(f"analysing {spec!r} ran past the {BUDGET_S} s budget")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    outer = signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        signal.setitimer(signal.ITIMER_REAL, *outer)


def _is_sum(spec):
    """Whether spec is a ``dsum`` below its ``conj`` and ``tensor`` wrappers."""
    while spec.startswith(("conj(", "tensor(")):
        spec = spec[spec.index("(") + 1:]
    return spec.startswith("dsum(")


@settings(max_examples=100, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(specs, st.integers(0, 9), st.sampled_from(SCALARS))
def test_spec_trees_keep_the_answers_of_the_grammar(spec, seed, y):
    (n, r), _, _ = _parse(spec, 0)
    assume(r <= MAX_R)
    with _budget(spec):
        rep = parse_rep_spec(spec)[0]
        assert (rep.n, rep.r) == (n, r), spec
        report = analyze(rep)
        tag = report.verdict.tag

        conjugated = analyze(parse_rep_spec(f"conj({spec},seed={seed})")[0])
        assert _summary(conjugated) == _summary(report), spec
        # A twist by a character generates the same unital algebra as the tree.
        twisted = analyze(parse_rep_spec(f"tensor({spec},y={y})")[0])
        assert twisted.verdict.tag is tag, (spec, y)

        if _is_sum(spec):
            expected = {Verdict.REDUCIBLE, Verdict.INCONCLUSIVE} if n == 2 else {Verdict.REDUCIBLE}
            assert tag in expected, (spec, report.verdict.detail)

        if report.corank == 2 and n >= 7:
            certified = report.standard_form is not None
            assert (tag is Verdict.ABSOLUTELY_IRREDUCIBLE) == certified, (spec, report.verdict.detail)
        if n == 2 and r >= 2:
            assert tag is not Verdict.ABSOLUTELY_IRREDUCIBLE, spec


@settings(max_examples=10, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(specs)
def test_a_fixed_argv_prints_the_same_output_twice(spec):
    assume(_parse(spec, 0)[0][1] <= MAX_R)
    outputs = []
    with _budget(spec):
        for _ in range(2):
            with redirect_stdout(io.StringIO()) as out:
                assert run(["analyze", spec]) == 0
            outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
