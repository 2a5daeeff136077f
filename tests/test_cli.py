import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import braidrep
from braidrep.cli import parse_rep_spec, run
from braidrep.errors import SpecParseError
from braidrep.linalg import Matrix
from braidrep.zoo import Representation, character_rep, direct_sum, save_representation, tym_standard


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spec_parser_atoms():
    rep, meta = parse_rep_spec("tym:n=6,u=2")
    assert rep == tym_standard(6, 2)
    assert meta == {"family": "tym", "n": 6, "u": 2}
    rep, _ = parse_rep_spec("char:n=4,y=1/2")
    assert rep == character_rep(4, "1/2")


def test_spec_parser_combinators():
    rep, meta = parse_rep_spec("tensor(char:n=4,y=2,y=3)")
    assert rep == character_rep(4, 6)
    assert meta["family"] == "tensor"
    rep, _ = parse_rep_spec("dsum(char:n=5,y=2,char:n=5,y=3)")
    assert rep == direct_sum(character_rep(5, 2), character_rep(5, 3))
    rep, meta = parse_rep_spec("conj(tym:n=5,u=2,seed=3)")
    assert meta == {"family": "conj", "seed": 3}
    assert rep.r == 5 and rep != tym_standard(5, 2)


def test_spec_parser_rejections():
    for bad in ("nope:n=3", "tym:n=6", "tym:n=6,u=2,extra=1", "dsum(char:n=5,y=2)",
                "tym:n=6,u=0/1", "conj(tym:n=5,u=2,seed=x)"):
        with pytest.raises((SpecParseError, ValueError)):
            parse_rep_spec(bad)


def test_graph_verb_emits_dot_path(capsys):
    code, out, _ = capture(capsys, ["graph", "tym:n=6,u=2", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph friendship {")
    assert 'label="ContainsChain";' in out
    for edge in ("s1 -- s2;", "s2 -- s3;", "s3 -- s4;", "s4 -- s5;"):
        assert edge in out
    assert "s0" not in out


def test_graph_verb_full_includes_wraparound(capsys):
    code, out, _ = capture(capsys, ["graph", "tym:n=6,u=2", "--format", "dot", "--full"])
    assert code == 0
    assert "s0 -- s1;" in out and "s0 -- s5;" in out


def test_analyze_verb_reports_recovered_parameter(capsys):
    code, out, _ = capture(capsys, ["analyze", "conj(tym:n=7,u=4,seed=9)", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["standard_form"]["u"] == "4"
    assert data["corank"] == 2
    assert data["irreducibility"]["tag"] == "AbsolutelyIrreducible"


def test_irreducible_verb_at_degenerate_parameter(capsys):
    code, out, _ = capture(capsys, ["irreducible", "tym:n=6,u=1"])
    assert code == 0
    data = json.loads(out)
    assert data["tag"] == "Reducible"
    assert data["witness"] == [["1"]] * 6


def test_irreducible_verb_generic_path(capsys):
    code, out, _ = capture(capsys, ["irreducible", "burau:n=5,t=2"])
    assert code == 0
    data = json.loads(out)
    assert data["tag"] == "AbsolutelyIrreducible"
    assert data["algebra_dim"] == 16


def test_verify_verb_text(capsys):
    code, out, _ = capture(capsys, ["verify", "tym:n=5,u=3", "--format", "text"])
    assert code == 0
    assert "braid relations: ok" in out
    assert "far commutation: ok" in out


def test_output_is_deterministic(capsys):
    argv = ["analyze", "conj(tym:n=6,u=2,seed=5)", "--seed", "5"]
    _, first, _ = capture(capsys, argv)
    _, second, _ = capture(capsys, argv)
    assert first == second


def test_make_then_analyze_file_matches_builtin(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, _, _ = capture(capsys, ["make", "tym:n=6,u=2", "--out", str(path)])
    assert code == 0
    _, from_file, _ = capture(capsys, ["analyze", str(path), "--seed", "1"])
    _, from_spec, _ = capture(capsys, ["analyze", "tym:n=6,u=2", "--seed", "1"])
    assert from_file == from_spec


def test_make_writes_wire_format(tmp_path, capsys):
    path = tmp_path / "rep.json"
    capture(capsys, ["make", "char:n=4,y=5/3", "--out", str(path)])
    data = json.loads(path.read_text())
    assert data["generators"] == [[["5/3"]]] * 3
    assert data["label"] == "char(n=4,y=5/3)"


def test_bad_rational_exits_two(capsys):
    code, _, err = capture(capsys, ["make", "tym:n=6,u=2/0"])
    assert code == 2
    assert "error" in err


def test_missing_file_exits_two(capsys):
    code, _, err = capture(capsys, ["analyze", "/nonexistent/rep.json"])
    assert code == 2
    assert "error" in err


def test_bad_matrix_shape_in_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "r": 2, "generators": [[["1"]]], "label": ""}))
    code, _, err = capture(capsys, ["analyze", str(path)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("field, value", [
    ("n", 3.9),  # read as 3 strands
    ("r", 1.7),  # read as dimension 1
    ("entry", True),  # read as the entry 1
])
def test_non_integral_or_boolean_data_in_file_exits_two(tmp_path, capsys, field, value):
    data = {"n": 3, "r": 1, "generators": [[["2"]], [["2"]]], "label": ""}
    if field == "entry":
        data["generators"][0][0][0] = value
    else:
        data[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = capture(capsys, ["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert "malformed representation data" in err


def test_zero_parameter_exits_two(capsys):
    code, _, _ = capture(capsys, ["make", "char:n=4,y=0"])
    assert code == 2


def test_sweep_emits_grid_rows(capsys):
    code, out, _ = capture(capsys, ["sweep", "--n", "6..7", "--u", "2,1"])
    assert code == 0
    rows = json.loads(out)
    assert [(row["n"], row["u"]) for row in rows] == [(6, "2"), (6, "1"), (7, "2"), (7, "1")]
    by_key = {(row["n"], row["u"]): row for row in rows}
    assert by_key[(6, "2")]["corank"] == 2
    assert by_key[(6, "2")]["standard_form_u"] == "2"
    assert by_key[(6, "1")]["corank"] == 1
    assert by_key[(6, "1")]["irreducibility"] == "Reducible"


def test_sweep_rejects_reversed_range(capsys):
    code, out, err = capture(capsys, ["sweep", "--n", "10..6", "--u", "2"])
    assert code == 2
    assert out == ""
    assert "empty strand range" in err


@pytest.mark.parametrize("spec", [
    "tym:n=6,u=1", "tym:n=7,u=2", "tym:n=5,u=3", "burau:n=5,t=2", "burau:n=6,t=-1",
    "dsum(char:n=5,y=1,char:n=5,y=1)", "char:n=5,y=1", "dsum(tym:n=6,u=2,char:n=6,y=3)",
])
def test_irreducible_verb_agrees_with_analyze(capsys, spec):
    code, out, _ = capture(capsys, ["irreducible", spec, "--seed", "4"])
    assert code == 0
    _, report, _ = capture(capsys, ["analyze", spec, "--seed", "4"])
    assert json.loads(out) == json.loads(report)["irreducibility"]


def test_sweep_text_table(capsys):
    code, out, _ = capture(capsys, ["sweep", "--n", "6", "--u", "2", "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "corank" in lines[0]


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDREP_SEED", "77")
    _, with_env, _ = capture(capsys, ["analyze", "tym:n=6,u=2"])
    monkeypatch.delenv("BRAIDREP_SEED")
    _, with_flag, _ = capture(capsys, ["analyze", "tym:n=6,u=2", "--seed", "77"])
    assert with_env == with_flag
    assert json.loads(with_env)["seed"] == 77


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "braidrep", line
        yield argv[1:], comment.strip()


def test_readme_commands_run_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for argv, comment in _readme_commands():
        code, out, err = capture(capsys, argv)
        assert code == 0, (argv, err)
        outputs[comment] = out
    report = json.loads(outputs["full JSON report, recovers u=4"])
    assert report["standard_form"]["u"] == "4"
    verdict = json.loads(outputs["Reducible, all-ones witness"])
    assert verdict["tag"] == "Reducible"
    assert verdict["witness"] == [["1"]] * 6


def _expected_analysis_text(data):
    """The lines ``analyze --format text`` must print for the JSON report ``data``."""
    rel = data["relations"]
    ok = all(rel[k] for k in ("braid_relations_ok", "far_commutation_ok",
                              "cyclic_conjugation_ok", "deformed_relations_ok"))
    lines = [f"  relations: {'all hold' if ok else 'BROKEN'}"]
    lines += [f"    failure: {desc} at {tuple(pair)}" for desc, pair in rel["failures"]]
    corank = data["corank"]
    lines.append(f"  corank: error ({corank['error']})" if isinstance(corank, dict) else f"  corank: {corank}")
    graph = data["graph"]
    if "error" in graph:
        lines.append(f"  graph: error ({graph['error']})")
    else:
        lines.append(f"  graph: {graph['class']}, distance set {graph['distance_set']}")
        if graph["detail"]:
            lines.append(f"    {graph['detail']}")
    irr = data["irreducibility"]
    extra = f", algebra dim {irr['algebra_dim']}" if irr["algebra_dim"] is not None else ""
    lines.append(f"  irreducibility: {irr['tag']}{extra}")
    if "witness" in irr:
        lines.append(f"    witness: invariant subspace of dimension {len(irr['witness'][0])}")
    lines.append(f"    {irr['detail']}")
    form = data.get("standard_form")
    if form is not None and "u" in form:
        lines.append(f"  standard form: u = {form['u']}")
        lines.append("    certified for 6 or more strands at dimension >= n; "
                     "corank alone suffices from 7 strands")
    elif form is not None:
        lines.append(f"  standard form: error ({form['error']})")
    return lines + [f"  seed: {data['seed']}"]


@pytest.mark.parametrize("source", [
    "conj(tym:n=7,u=4,seed=9)",
    "tym:n=6,u=1",
    "dsum(tym:n=6,u=2,char:n=6,y=3)",
    "broken.json",
])
def test_analyze_text_states_the_json_report(tmp_path, monkeypatch, capsys, source):
    monkeypatch.chdir(tmp_path)
    # Unequal deformation ranks and broken relations: the error lines.
    save_representation(Representation(4, 2, [
        Matrix([[1, 0], [0, 2]]), Matrix([[3, 0], [0, 4]]), Matrix([[0, 1], [1, 0]]),
    ], label="broken"), "broken.json")
    code, text, _ = capture(capsys, ["analyze", source, "--format", "text"])
    assert code == 0
    _, out, _ = capture(capsys, ["analyze", source])
    lines = text.splitlines()
    assert lines[0].startswith("analysis of ")
    assert lines[1:] == _expected_analysis_text(json.loads(out))


@pytest.mark.parametrize("spec", [
    "tym:n=6,u=1",
    "tym:n=7,u=5/3",
    "burau:n=6,t=2",
    "tym:n=2,u=2",
])
def test_irreducible_text_states_the_json_verdict(capsys, spec):
    code, text, _ = capture(capsys, ["irreducible", spec, "--format", "text"])
    assert code == 0
    _, out, _ = capture(capsys, ["irreducible", spec])
    verdict = json.loads(out)
    expected = [f"verdict: {verdict['tag']}"]
    if verdict["algebra_dim"] is not None:
        expected.append(f"algebra dimension: {verdict['algebra_dim']}")
    if "witness" in verdict:
        expected.append(f"witness dimension: {len(verdict['witness'][0])}")
    expected.append(verdict["detail"])
    assert text.splitlines() == expected


def test_one_parser_serves_consecutive_runs_like_fresh_processes(capsys):
    """The parser is built once per process; verbs, flags and an argparse
    error in between must leave no trace on the next run."""
    src = str(Path(braidrep.__file__).resolve().parent.parent)
    argvs = [
        ["verify", "tym:n=5,u=2", "--format", "text"],
        ["graph", "tym:n=6,u=2", "--full", "--format", "text"],
        ["frobnicate", "tym:n=5,u=2"],
        ["graph", "tym:n=6,u=2", "--format", "text"],
        ["analyze", "burau:n=5,t=2", "--seed", "3", "--format", "text"],
        ["analyze", "--format", "json", "burau:n=5,t=2"],
        ["verify", "tym:n=5,u=2"],
    ]
    for argv in argvs:
        fresh = subprocess.run(
            [sys.executable, "-m", "braidrep.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=False,
        )
        assert capture(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert capture(capsys, ["frobnicate"])[0] == 2


@pytest.mark.parametrize("verb", ["verify", "graph", "analyze"])
def test_zero_denominator_in_file_exits_two(tmp_path, capsys, verb):
    data = {"n": 3, "r": 1, "generators": [[["1/0"]], [["2"]]], "label": ""}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = capture(capsys, [verb, str(path)])
    assert (code, out) == (2, "")
    assert "malformed representation data" in err


@pytest.mark.parametrize("verb", ["verify", "graph", "analyze"])
def test_zero_dimension_in_file_exits_two(tmp_path, capsys, verb):
    data = {"n": 3, "r": 0, "generators": [[], []], "label": ""}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    code, out, err = capture(capsys, [verb, str(path)])
    assert (code, out) == (2, "")
    assert "dimension must be at least 1" in err
