"""Tests of the benchmark itself:  python3 -m pytest bench -q

They check that the inputs are the ones the spec strings name, that the
oracle rejects wrong answers, that the tracer reaches every binding, and
that the smoke mode passes.  They do not time anything.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from inputs import build, spec_text  # noqa: E402

SPECS = [
    ("conj", ("tym", 6, F(5, 3)), 4),
    ("conj", ("burau", 7, F(-2)), 9),
    ("conj", ("tensor", ("burau", 6, F(2)), F(-1)), 3),
    ("dsum", ("char", 4, F(2)), ("burau", 4, F(3))),
] + workloads.NON_TERMINATING


@pytest.fixture(scope="module")
def lib():
    return run.import_braidrep()


@pytest.mark.parametrize("spec", SPECS, ids=spec_text)
def test_inputs_are_the_named_specs(lib, spec):
    rep, _ = lib.cli.parse_rep_spec(spec_text(spec))
    assert tuple(g.rows for g in rep.generators) == build(spec)


def test_oracle_expectations():
    assert oracle.expected_tag(("tym", 6, F(2))) == oracle.IRREDUCIBLE
    assert oracle.expected_tag(("conj", ("tym", 6, F(1)), 3)) == oracle.REDUCIBLE
    assert oracle.expected_tag(("burau", 6, F(-1))) == oracle.REDUCIBLE
    assert oracle.expected_tag(("burau", 7, F(-1))) == oracle.IRREDUCIBLE
    assert oracle.expected_tag(("tensor", ("burau", 6, F(2)), F(3))) == oracle.IRREDUCIBLE
    assert oracle.expected_tag(("dsum", ("char", 6, F(2)), ("char", 6, F(2)))) == oracle.REDUCIBLE
    assert oracle.expected_u(("conj", ("tym", 6, F(5, 3)), 1)) == F(5, 3)
    assert oracle.expected_u(("tym", 5, F(2))) is None


def test_oracle_rejects_wrong_answers():
    spec = ("tym", 6, F(1))
    checker = oracle.Checker(spec, build(spec))
    ones = [["1"]] * 6
    assert checker.verdict_problem({"tag": "Reducible", "witness": ones}) is None
    first = [["1"]] + [["0"]] * 5
    assert checker.verdict_problem({"tag": "Reducible", "witness": first}) is not None
    assert checker.verdict_problem({"tag": "Reducible"}) is not None
    assert checker.verdict_problem({"tag": "AbsolutelyIrreducible"}) is not None
    chain = ("conj", ("tym", 6, F(2)), 1)
    report = {
        "relations": dict.fromkeys(("braid_relations_ok", "far_commutation_ok",
                                    "cyclic_conjugation_ok", "deformed_relations_ok"), True),
        "irreducibility": {"tag": "AbsolutelyIrreducible"},
        "standard_form": {"u": "3"},
    }
    assert "recovered u" in oracle.Checker(chain, build(chain)).report_problem(report)


def test_tracer_reaches_every_binding(lib):
    from tracer import Tracer

    original = lib.linalg.inverse
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.classify.inverse is lib.linalg.inverse is not original
        assert lib.zoo.inverse is lib.linalg.inverse
        root = tracer.open_root("probe")
        lib.classify.inverse(lib.linalg.Matrix([[2, 1], [1, 1]]))
        tracer.close_root(root)
    finally:
        tracer.uninstall()
    assert lib.classify.inverse is original
    names = [rec[0] for rec in tracer.spans]
    assert names[:2] == ["op", "linalg.inverse"] and "linalg.echelon_add" in names
    calls, self_s = tracer.per_name({root: 1.0})["linalg.inverse"]
    assert calls == 1 and self_s >= 0


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, pct, beyond) == (89, 90.0, 10)


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == 6 and all(r["correct"] and not r["failed"] for r in results)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
                           "dense_chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout
