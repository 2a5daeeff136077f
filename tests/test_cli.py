import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import braidrep
import braidrep.cli as cli
from braidrep.cli import MAX_DENSE_ENTRIES, _parse, parse_rep_spec, run
from braidrep.errors import OutOfScaleError, SpecParseError
from braidrep.linalg import Matrix, Subspace
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


@pytest.mark.parametrize("spaced, plain", [
    (" tym:n=6, u=2 ", "tym:n=6,u=2"),
    ("dsum( tym:n=6,u=2 , char:n=6,y=2 )", "dsum(tym:n=6,u=2,char:n=6,y=2)"),
    ("conj( tym:n=5,u=2 , seed=3 )", "conj(tym:n=5,u=2,seed=3)"),
    ("tensor(tym:n=5,u=2, y=3)", "tensor(tym:n=5,u=2,y=3)"),
])
def test_spec_parser_ignores_spaces_around_parts(spaced, plain):
    rep, expected = parse_rep_spec(spaced)[0], parse_rep_spec(plain)[0]
    assert rep == expected
    assert rep.label == expected.label


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


@pytest.mark.parametrize("argv", [
    ["analyze", "tym:n=6,u=2", "--format", "dot"],
    ["irreducible", "tym:n=6,u=2", "--format", "dot"],
    ["sweep", "--n", "6", "--u", "2", "--format", "dot"],
    ["verify", "tym:n=6,u=2", "--format", "dot"],
    ["make", "tym:n=6,u=2", "--format", "text"],
    ["make", "tym:n=6,u=2", "--format", "dot"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_verbs_reject_a_format_they_do_not_render(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert (code, out) == (2, "")
    assert "argument --format: invalid choice" in err


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


@pytest.mark.parametrize("argv, code", [(["make", "tym:n=3,u=2"], 0), (["make", "tym:n=3"], 2), ([], 2)])
def test_main_exits_with_the_code_of_run(monkeypatch, capsys, argv, code):
    assert capture(capsys, argv)[0] == code
    monkeypatch.setattr(sys, "argv", ["braidrep", *argv])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == code


def test_console_script_names_the_main_function():
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.M | re.S).group(1)
    target = re.search(r'^braidrep\s*=\s*"([^"]*)"', scripts, re.M).group(1)
    assert target == "braidrep.cli:main"
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


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


_EVERY_VERB_AND_FORMAT = [
    ["make", "tym:n=6,u=2"],
    ["verify", "tym:n=6,u=2"],
    ["verify", "tym:n=6,u=2", "--format", "text"],
    ["graph", "conj(tym:n=8,u=2,seed=3)"],
    ["graph", "conj(tym:n=8,u=2,seed=3)", "--format", "dot"],
    ["graph", "conj(tym:n=8,u=2,seed=3)", "--format", "text"],
    ["graph", "conj(tym:n=8,u=2,seed=3)", "--full"],
    ["analyze", "conj(tym:n=6,u=2,seed=3)"],
    ["analyze", "conj(tym:n=6,u=2,seed=3)", "--format", "text"],
    ["irreducible", "tym:n=6,u=1"],
    ["irreducible", "tym:n=6,u=1", "--format", "text"],
    ["sweep", "--n", "6", "--u", "2,1"],
    ["sweep", "--n", "6", "--u", "2,1", "--format", "text"],
]


@pytest.mark.parametrize("argv", _EVERY_VERB_AND_FORMAT, ids="-".join)
def test_out_file_holds_what_the_verb_prints(tmp_path, capsys, argv):
    code, printed, _ = capture(capsys, argv)
    path = tmp_path / "out.txt"
    assert code == 0
    assert capture(capsys, [*argv, "--out", str(path)]) == (0, "", "")
    assert path.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("argv", _EVERY_VERB_AND_FORMAT, ids="-".join)
def test_out_path_under_a_missing_directory_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = capture(capsys, [*argv, "--out", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


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


def test_analyze_text_states_the_character_of_a_twist(capsys):
    # The JSON report of this spec is the golden analyze_twisted_chain.json.
    code, text, _ = capture(capsys, ["analyze", "conj(tensor(tym:n=8,u=5/3,y=-2),seed=7)", "--format", "text"])
    lines = text.splitlines()
    assert code == 0 and lines[5:7] == ["  character: y = -2", "  irreducibility: AbsolutelyIrreducible, algebra dim 64"]
    assert lines[7].startswith("    divided by the character y=-2: ")


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


def test_oversized_sweep_range_exits_two_before_it_is_expanded():
    """The range's upper end is checked before the range is expanded: a list
    of 10^12 strand counts would exhaust the 1.5 GB address space given here."""
    src = str(Path(braidrep.__file__).resolve().parent.parent)
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29)); "
            "from braidrep.cli import run; sys.exit(run(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", code, "sweep", "--n", "6..1000000000000", "--u", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: out of scale: n=1000000000000,") and done.stderr.count("\n") == 1


def test_the_package_binds_no_names_and_loads_no_module():
    """Each name has one import path, its module: a fresh ``import braidrep``
    binds only dunder names and imports no ``braidrep.*`` submodule."""
    src = str(Path(braidrep.__file__).resolve().parent.parent)
    code = ("import sys, braidrep; "
            "print(sorted(k for k in vars(braidrep) if not k.startswith('__'))); "
            "print(sorted(m for m in sys.modules if m.startswith('braidrep.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n[]\n", "")


def test_spec_nested_past_the_recursion_limit_exits_two(capsys):
    spec = "tensor(" * 2000 + "tym:n=6,u=2" + ",y=2)" * 2000
    assert capture(capsys, ["make", spec]) == (2, "", "error: spec is nested too deeply\n")


def _parse_steps(spec):
    """The lines of ``braidrep.cli`` that ``_parse`` runs on spec: each
    character that a loop of the parser scans costs at least one."""
    steps = [0]

    def count(frame, event, arg):
        steps[0] += event == "line"
        return count

    def trace(frame, event, arg):
        return count if frame.f_code.co_filename == cli.__file__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        shape = _parse(spec, 0)[0]
    finally:
        sys.settrace(previous)
    return shape, steps[0]


@pytest.mark.parametrize("outer, inner, added", [
    ("tensor(", ",y=2)", 0),
    ("conj(", ",seed=3)", 0),
    ("conj( tensor( ", " , y=2 ) )", 0),
    ("dsum(", ",char:n=6,y=3)", 1),
    ("dsum(char:n=6,y=3, ", ")", 1),
])
@pytest.mark.parametrize("depth", [1, 30, 300])
def test_spec_parse_scans_a_bounded_multiple_of_its_length(outer, inner, added, depth):
    # Each level splits its own range once and jumps the groups inside it,
    # so the parse does not re-scan the inner text at every nesting level.
    # Each level adds ``added`` to the dimension.
    spec = outer * depth + "tym:n=6,u=2" + inner * depth
    shape, steps = _parse_steps(spec)
    assert shape == (6, 6 + added * depth)
    assert steps <= 30 * len(spec)


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


def test_graph_verb_default_json(capsys):
    code, out, _ = capture(capsys, ["graph", "tym:n=6,u=2"])
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["s1", "s2", "s3", "s4", "s5"]
    assert data["edges"] == [[1, 2], [2, 3], [3, 4], [4, 5]]
    assert data["class"] == "ContainsChain"
    # The distance set is defined on the full graph only.
    assert "distance_set" not in data
    _, out, _ = capture(capsys, ["graph", "tym:n=6,u=2", "--full"])
    full = json.loads(out)
    assert full["distance_set"] == [1]
    assert full["edges"] == [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]
    assert full["class"] == "ContainsChain"


def test_graph_verb_reports_an_unclassified_graph(capsys):
    path = Path(__file__).resolve().parent / "data" / "broken_family.json"
    code, out, _ = capture(capsys, ["graph", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "unclassified: graph is not invariant under the cyclic shift"
    assert data["edges"] == [[1, 2], [2, 3]]


@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
@pytest.mark.parametrize("full", [[], ["--full"]], ids=["reduced", "full"])
@pytest.mark.parametrize("source", [
    "conj(tym:n=8,u=2,seed=3)",
    str(Path(__file__).resolve().parent / "data" / "broken_family.json"),
], ids=["conj", "all pairs"])
def test_graph_verb_builds_one_graph_and_intersects_no_images(monkeypatch, capsys, fmt, full, source):
    # The reduced graph is read off the full one, not built by a second pass.
    import braidrep.cli as cli
    import braidrep.friendship as friendship

    builds, intersections, build = [], [], friendship.full_friendship_graph

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    for module in (cli, friendship):
        monkeypatch.setattr(module, "full_friendship_graph", counted)
    monkeypatch.setattr(Subspace, "intersect", lambda self, other: intersections.append(1))
    code, _, _ = capture(capsys, ["graph", source, "--format", fmt, *full])
    assert code == 0
    assert len(builds) == 1
    assert intersections == []


@pytest.mark.parametrize("full", [[], ["--full"]], ids=["reduced", "full"])
@pytest.mark.parametrize("spec", [
    "tym:n=8,u=2",
    "conj(tym:n=16,u=5/3,seed=7)",
    "conj(burau:n=16,t=5/3,seed=7)",
    "dsum(tym:n=16,u=2,char:n=16,y=3)",
    "conj(tensor(tym:n=8,u=1,y=-1),seed=5)",
    "conj(burau:n=65,t=5/3,seed=7)",  # at the size bound, where D took seconds
])
def test_graph_verb_forms_no_product_of_the_images(monkeypatch, capsys, full, spec):
    # No image of these specs is full: every pair is tested from the images
    # alone, so neither D nor sigma0 is formed.
    import braidrep.cli as cli

    reps, build = [], cli.full_friendship_graph

    def spy(rep, *args):
        reps.append(rep)
        return build(rep, *args)

    monkeypatch.setattr(cli, "full_friendship_graph", spy)
    assert capture(capsys, ["graph", spec, *full])[0] == 0
    (rep,) = reps
    assert not any(rep.image(i).is_full() for i in range(1, rep.n))
    assert not {"tau", "sigma0"} & set(vars(rep))


def test_singular_family_file_exits_2_with_the_message(capsys):
    path = Path(__file__).resolve().parent / "data" / "singular_family.json"
    assert capture(capsys, ["verify", str(path)]) == (2, "", "error: generator image is singular\n")


@pytest.mark.parametrize("verb", ["verify", "analyze"])
def test_json_file_nested_past_the_recursion_limit_exits_two(tmp_path, capsys, verb):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert capture(capsys, [verb, str(path)]) == (
        2, "", "error: malformed representation data: JSON is nested too deeply\n")


def test_conj_without_seed_takes_the_seed_option(capsys):
    _, from_option, _ = capture(capsys, ["make", "conj(tym:n=6,u=2)", "--seed", "3"])
    _, from_spec, _ = capture(capsys, ["make", "conj(tym:n=6,u=2,seed=3)"])
    _, other, _ = capture(capsys, ["make", "conj(tym:n=6,u=2)", "--seed", "4"])
    assert from_option == from_spec != other


@pytest.mark.parametrize("spec, message", [
    ("conj(tym:n=6,u=2))", "unbalanced parentheses in 'tym:n=6,u=2)'"),
    ("tensor(tym:n=6,u=2)", "tensor needs tensor(SPEC,y=RATIONAL)"),
    ("tensor(tym:n=6,u=2,y=abc)", "bad tensor scalar: "),
    ("hello", "cannot parse spec 'hello'"),
    ("conj(tym:n=3,u=(2)", "unbalanced parentheses in 'tym:n=3,u=(2'"),
    ("tym:n=3,u=2,u=5", "bad parameter 'u=5' for family 'tym'"),
    ("tensor(char:n=3,y=2,y=3,y=4)", "bad parameter 'y=3' for family 'char'"),
    ("tym:n=6,u=2)", "unbalanced parentheses in 'tym:n=6,u=2)'"),
    ("tym:n=6,u=(2", "unbalanced parentheses in 'tym:n=6,u=(2'"),
    ("tym:n=6,u=(2)", "bad value in 'tym:n=6,u=(2)': Invalid literal for Fraction: '(2)'"),
    ("tym:n=6,(u=2)", "bad parameter '(u=2)' for family 'tym'"),
])
def test_spec_parser_errors_exit_two_with_their_message(capsys, spec, message):
    code, out, err = capture(capsys, ["make", spec])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_analyze_text_notes_a_strand_count_outside_the_classification(capsys):
    code, out, _ = capture(capsys, ["analyze", "tym:n=5,u=2", "--format", "text"])
    assert code == 0
    assert out.endswith("  note: n=5 sits outside the chain classification; exceptional graph "
                        "shapes are reported, not classified\n  seed: 0\n")


@pytest.mark.parametrize("spec, shape", [
    ("tym:n=64,u=2", (64, 64)),
    ("burau:n=9,t=2", (9, 8)),
    ("char:n=5,y=3", (5, 1)),
    ("dsum(tym:n=64,u=2,tym:n=64,u=3)", (64, 128)),
    ("dsum(burau:n=7,t=2,char:n=7,y=3)", (7, 7)),
    ("tensor(conj(burau:n=9,t=2,seed=3),y=2)", (9, 8)),
])
def test_spec_shape_is_read_from_the_text(spec, shape):
    assert _parse(spec, 0)[0] == shape


def test_scale_bound_admits_tym_on_64_strands_and_no_more():
    assert (64 - 1) * 64 ** 2 <= MAX_DENSE_ENTRIES < (65 - 1) * 65 ** 2
    rep, _ = parse_rep_spec("tym:n=64,u=2")
    assert (rep.n, rep.r) == (64, 64)
    with pytest.raises(OutOfScaleError):
        parse_rep_spec("tym:n=65,u=2")


@pytest.mark.parametrize("argv", [
    ["make", "tym:n=128,u=2"],
    ["analyze", "conj(dsum(tym:n=64,u=2,tym:n=64,u=3),seed=1)"],
    ["irreducible", "tensor(burau:n=129,t=2,y=3)"],
    ["sweep", "--n", "6,128", "--u", "2"],
])
def test_out_of_scale_spec_exits_two_before_any_matrix_is_built(monkeypatch, capsys, argv):
    def refuse(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(Matrix, "_new", classmethod(refuse))
    code, out, err = capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: out of scale: n=") and err.count("\n") == 1


def _spy_builders(monkeypatch):
    """The argument tuples of every family builder the CLI calls, each of
    which fails."""
    calls = []

    def spy(*args):
        calls.append(args)
        raise ValueError("a family was built")

    for name in ("tym_standard", "reduced_burau", "character_rep"):
        monkeypatch.setattr(cli, name, spy)
    return calls


@pytest.mark.parametrize("spec, least", [
    ("dsum(tym:n=2000,u=2,burau:n=-1998,t=2)", 3),
    ("dsum(tym:n=-1998,u=2,tym:n=2000,u=3)", 2),
    ("burau:n=2,t=2", 3),
    ("conj(char:n=1,y=2,seed=3)", 2),
])
def test_too_few_strands_exit_two_before_anything_is_built(monkeypatch, capsys, spec, least):
    """A negative strand count has a negative dimension, which would shrink
    the dimension of a ``dsum`` below the size bound: the atom is refused
    as it is parsed."""
    calls = _spy_builders(monkeypatch)
    assert capture(capsys, ["make", spec]) == (2, "", f"error: need at least {least} strands\n")
    assert calls == []


@pytest.mark.parametrize("spec", [
    "dsum(tym:n=6,u=2,char:n=5,y=2)",
    "conj(dsum(tym:n=63,u=2,char:n=2,y=2),seed=1)",
    "tensor(dsum(burau:n=7,t=2,dsum(char:n=7,y=2,char:n=8,y=3)),y=2)",
])
def test_sum_of_unequal_strand_counts_exits_two_before_anything_is_built(monkeypatch, capsys, spec):
    calls = _spy_builders(monkeypatch)
    assert capture(capsys, ["make", spec]) == (2, "", "error: strand counts differ\n")
    assert calls == []
