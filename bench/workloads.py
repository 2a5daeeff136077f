"""The three workloads: their input mixes, how an op runs, and how it is judged.

Every workload is a closed loop with one client.  A round runs each op of
the mix once; the mix is generated from the workload seed, so the same seed
gives the same inputs.  Why each workload exists, and the sizes chosen, is
recorded in README.md next to this file.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

import oracle
from inputs import build, spec_text, strands

F = Fraction


@dataclass(frozen=True)
class Judgement:
    problem: str | None  # None when the output agrees with the known answer
    decided: bool  # a correct AbsolutelyIrreducible or Reducible verdict
    by_closure: bool  # the verdict came from the algebra closure


@dataclass
class Op:
    label: str
    call: Callable  # call(lib) -> raw result; this is the timed part
    render: Callable  # render(raw) -> (default output text, parsed payload)
    judge: Callable  # judge(payload) -> Judgement


# -- library ops: one analyze call on a fresh Representation ---------------

def _verdict_judgement(irr, problem):
    if problem is not None:
        return Judgement(problem, False, False)
    return Judgement(None, oracle.is_decided(irr), irr.get("detail") == oracle.CLOSURE_DETAIL)


def library_op(spec, analyze_seed) -> Op:
    gens = build(spec)
    n, r = strands(spec), len(gens[0])
    label = spec_text(spec)
    checker = oracle.Checker(spec, gens)

    def call(lib):
        rep = lib.zoo.Representation(n, r, [lib.linalg.Matrix(g) for g in gens], label)
        return lib.classify.analyze(rep, seed=analyze_seed)

    def render(report):
        data = report.to_json_dict()
        return json.dumps(data, indent=2) + "\n", data

    def judge(data):
        return _verdict_judgement(data["irreducibility"], checker.report_problem(data))

    return Op(label, call, render, judge)


def _conj_seed(rng):
    return rng.randrange(1, 10**6)


TWISTS = [F(2), F(5, 3), F(-1), F(1, 2), F(3), F(-2), F(2, 3), F(3, 2)]


def dense_chain_ops(seed):
    """Conjugated standard family at u != 1: settled by the chain shortcut.
    Six inputs at n = 6, six at n = 8 and eight at n = 10, so that the
    median falls inside the n = 8 block and the tail inside the n = 10 one."""
    rng = Random(seed)
    grid = [(n, TWISTS[k]) for n, count in ((6, 6), (8, 6), (10, 8)) for k in range(count)]
    return [library_op(("conj", ("tym", n, u), _conj_seed(rng)), rng.randrange(1000))
            for n, u in grid]


# Inputs that did not terminate when this benchmark was written.  Their
# seeds are pinned: they are regression inputs, named by the spec strings
# that reproduce them on the command line.
NON_TERMINATING = [
    ("conj", ("dsum", ("burau", 6, F(2)), ("burau", 6, F(3))), 1),
    ("conj", ("dsum", ("tym", 6, F(2)), ("char", 6, F(1))), 5),
]


def dense_closure_ops(seed):
    """Conjugated inputs off the chain path: closure, witness and eigenvalue work.

    The mix is built in blocks so that its median falls inside the block of
    Burau inputs at n = 8 and its tail inside the block of Burau at n = 10
    and tym at u = 1, n = 8, whatever the seed; see README.md.
    """
    rng = Random(seed)
    light = [
        ("burau", 6, F(2)), ("burau", 7, F(2)), ("burau", 6, F(-1)), ("burau", 6, F(-1)),
        ("tym", 5, F(1)), ("tym", 5, F(1)), ("tensor", ("burau", 6, F(2)), F(-1)),
        ("dsum", ("char", 4, F(2)), ("burau", 4, F(3))),
        ("dsum", ("burau", 5, F(2)), ("char", 5, F(3))),
        # the smallest member of the second non-terminating input's family
        ("dsum", ("tym", 4, F(2)), ("char", 4, F(1))),
    ]
    generic = [F(2), F(3), F(-2), F(5, 3), F(1, 2), F(3, 2), F(2, 3), F(-3), F(1, 3), F(4)]
    middle = [("burau", 8, t) for t in generic] + [
        ("tym", 6, F(1)), ("tensor", ("tym", 6, F(1)), F(2)),
        # the smallest member of the first non-terminating input's family
        ("dsum", ("burau", 4, F(2)), ("burau", 4, F(3))),
        ("tym", 7, F(1)),
    ]
    heavy = [("burau", 10, t) for t in (F(3), F(5, 3), F(-2), F(1, 2))] + [("tym", 8, F(1))] * 3
    ops = [library_op(("conj", s, _conj_seed(rng)), rng.randrange(1000))
           for s in light + middle + heavy]
    ops += [library_op(s, 0) for s in NON_TERMINATING]
    return ops


# -- CLI ops: one braidrep.cli.run(argv) call, in process -----------------

def cli_op(argv, judge_fn, out_file=None) -> Op:
    def call(lib):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.run(argv)
        return code, out.getvalue()

    def render(raw):
        code, stdout = raw
        text = f"exit {code}\n{stdout}"
        written = None
        if out_file is not None:
            written = Path(out_file).read_text(encoding="utf-8")
            text += written
        return text, (code, stdout, written)

    def judge(payload):
        code, stdout, written = payload
        if code != 0:
            return Judgement(f"exit code {code}", False, False)
        try:
            return judge_fn(stdout, written)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return Judgement(f"unreadable output: {exc!r}", False, False)

    return Op(" ".join(argv), call, render, judge)


def _ok():
    return Judgement(None, False, False)


def _bad(problem):
    return Judgement(problem, False, False)


def _judge_make(spec):
    want = [[[str(e) for e in row] for row in g] for g in build(spec)]

    def judge(stdout, written):
        data = json.loads(written)
        if stdout or data["n"] != strands(spec) or data["generators"] != want:
            return _bad("written representation differs from the family's matrices")
        return _ok()
    return judge


def _judge_verify_json(stdout, _):
    want = {"braid_relations_ok": True, "far_commutation_ok": True, "failures": []}
    return _ok() if json.loads(stdout) == want else _bad("relations reported broken")


def _judge_verify_text(stdout, _):
    want = "braid relations: ok\nfar commutation: ok\n"
    return _ok() if stdout == want else _bad("relations reported broken")


def _path_edges(n):
    return [[i, i + 1] for i in range(1, n - 1)]


def _cycle_edges(n):
    return sorted([[i, i + 1] for i in range(n - 1)] + [[0, n - 1]])


def _judge_graph_dot(n):
    # tym at u != 1: Im A_i = span(e_(i-1), e_i), so images meet exactly
    # for neighbors and the reduced graph is the path s1 - ... - s(n-1).
    def judge(stdout, _):
        edges = sorted([int(a), int(b)] for a, b in re.findall(r"s(\d+) -- s(\d+);", stdout))
        if edges != _path_edges(n) or 'label="ContainsChain";' not in stdout:
            return _bad("friendship graph is not the chain")
        return _ok()
    return judge


def _judge_graph_text(n):
    def judge(stdout, _):
        edges = " ".join(f"s{a}-s{b}" for a, b in _path_edges(n))
        if stdout != f"class: ContainsChain\nedges: {edges}\n":
            return _bad("friendship graph is not the chain")
        return _ok()
    return judge


def _judge_graph_json(n, full):
    def judge(stdout, _):
        data = json.loads(stdout)
        want = _cycle_edges(n) if full else _path_edges(n)
        if data["full"] != full or sorted(data["edges"]) != want or data["class"] != "ContainsChain":
            return _bad("friendship graph is not the chain")
        if full and data["distance_set"] != [1]:
            return _bad("full graph distance set is not {1}")
        return _ok()
    return judge


def _judge_irreducible(spec):
    checker = oracle.Checker(spec, build(spec))

    def judge(stdout, _):
        irr = json.loads(stdout)
        return _verdict_judgement(irr, checker.verdict_problem(irr))
    return judge


def _judge_analyze(spec):
    checker = oracle.Checker(spec, build(spec))

    def judge(stdout, _):
        data = json.loads(stdout)
        return _verdict_judgement(data["irreducibility"], checker.report_problem(data))
    return judge


def _judge_sweep(ns, us):
    def judge(stdout, _):
        rows = json.loads(stdout)
        grid = [(n, u) for n in ns for u in us]
        if [(row["n"], F(row["u"])) for row in rows] != grid:
            return _bad("sweep rows do not match the grid")
        for row, (n, u) in zip(rows, grid):
            want = oracle.expected_tag(("tym", n, u))
            twist = oracle.expected_u(("tym", n, u))
            got_u = row["standard_form_u"]
            if row["irreducibility"] != want or row["corank"] != (1 if u == 1 else 2):
                return _bad(f"sweep row n={n} u={u}: {row}")
            if twist is not None and (got_u is None or F(got_u) != twist):
                return _bad(f"sweep row n={n} u={u} recovered {got_u}")
        return Judgement(None, True, False)
    return judge


def cli_sparse_ops(seed, workdir: Path):
    """Plain, sparse specs through every CLI verb, in process: two mixes of
    21 argvs.  Sizes are fixed; the seed draws the parameters u, t
    and y, which barely change the cost of a plain spec."""
    rng = Random(seed)
    return _cli_mix(rng, workdir, "a") + _cli_mix(rng, workdir, "b")


def _cli_mix(rng, workdir, tag):
    us = [F(2), F(3), F(-1), F(5, 3), F(1, 2), F(-2), F(3, 2), F(2, 3)]
    ts = [F(2), F(3), F(-2), F(5, 3), F(1, 2)]

    def pick(pool):
        return pool[rng.randrange(len(pool))]

    def seed_args():
        return ["--seed", str(rng.randrange(1000))]

    tym_make = ("tym", 8, pick(us))
    burau_make = ("burau", 7, pick(ts))
    tym_graph = ("tym", 8, pick(us))
    tym_verify = ("tym", 8, pick(us))
    burau_verify = ("burau", 7, pick(ts))
    irr = [("tym", 14, pick(us)), ("tym", 8, F(1)), ("tym", 7, F(1)),
           ("burau", 7, pick(ts)), ("burau", 6, F(-1))]
    ana = [("tym", 8, pick(us)), ("burau", 7, pick(ts)),
           ("dsum", ("tym", 6, pick(us)), ("char", 6, pick(ts))),
           ("char", 6, pick(ts)), ("tensor", ("burau", 6, pick(ts)), pick(us))]
    sweep_ns, sweep_us = [6, 7], [pick(us), F(1)]

    tym_file = str(workdir / f"tym-{tag}.json")
    burau_file = str(workdir / f"burau-{tag}.json")
    g = spec_text(tym_graph)
    ops = [
        cli_op(["make", spec_text(tym_make), "--out", tym_file], _judge_make(tym_make), tym_file),
        cli_op(["verify", tym_file], _judge_verify_json),
        cli_op(["make", spec_text(burau_make), "--out", burau_file], _judge_make(burau_make), burau_file),
        cli_op(["verify", burau_file, "--format", "text"], _judge_verify_text),
        cli_op(["graph", g, "--format", "dot"], _judge_graph_dot(tym_graph[1])),
        cli_op(["graph", g, "--format", "json"], _judge_graph_json(tym_graph[1], False)),
        cli_op(["graph", g, "--full"], _judge_graph_json(tym_graph[1], True)),
        cli_op(["graph", g, "--format", "text"], _judge_graph_text(tym_graph[1])),
        cli_op(["verify", spec_text(tym_verify)], _judge_verify_json),
        cli_op(["verify", spec_text(burau_verify), "--format", "text"], _judge_verify_text),
    ]
    ops += [cli_op(["irreducible", spec_text(s)] + seed_args(), _judge_irreducible(s)) for s in irr]
    ops += [cli_op(["analyze", spec_text(s)] + seed_args(), _judge_analyze(s)) for s in ana]
    ops.append(cli_op(
        ["sweep", "--n=" + ",".join(map(str, sweep_ns)), "--u=" + ",".join(map(str, sweep_us))] + seed_args(),
        _judge_sweep(sweep_ns, sweep_us),
    ))
    return ops
