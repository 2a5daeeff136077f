"""Command line surface: build representations, verify, graph, analyze, sweep.

Sources are either JSON representation files or builtin specs like
``tym:n=6,u=2`` with combinators ``tensor(SPEC,y=R)``, ``dsum(SPEC,SPEC)``
and ``conj(SPEC,seed=N)``.  Rationals are written p/q.  Output is
deterministic for a fixed argv and seed.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import sys

from .braid import verify_braid_relations
from .classify import analyze, decide_irreducibility
from .classify import verdict_to_json_dict as _verdict_dict
from .errors import BraidRepError, OutOfScaleError, ShapeError, SpecParseError
from .friendship import (
    classify_graph,
    full_friendship_graph,
    graph_to_dot,
    graph_to_json_dict,
)
from .linalg import rational
from .zoo import (
    character_rep,
    direct_sum,
    load_representation,
    reduced_burau,
    rep_to_dict,
    scrambled,
    tensor_character,
    tym_standard,
)

# family: (parameter keys, least strand count its builder accepts, builder,
# dimension at n strands); a builder calls this module's binding, so a patch holds.
_FAMILIES = {
    "tym": (("n", "u"), 2, lambda n, u: tym_standard(n, u), lambda n: n),
    "burau": (("n", "t"), 3, lambda n, t: reduced_burau(n, t), lambda n: n - 1),
    "char": (("n", "y"), 2, lambda n, y: character_rep(n, y), lambda n: 1),
}


def _paren_table(text):
    """``{p: q}`` for each '(' at p closed by the ')' at q, in one pass."""
    table, stack = {}, []
    for p, ch in enumerate(text):
        if ch == "(":
            stack.append(p)
        elif ch == ")" and stack:
            table[stack.pop()] = p
    return table


def _strip(text, lo, hi):
    """The range of text[lo:hi].strip()."""
    while lo < hi and text[lo].isspace():
        lo += 1
    while hi > lo and text[hi - 1].isspace():
        hi -= 1
    return lo, hi


def _split(text, lo, hi, table):
    """The stripped ranges of the parts of text[lo:hi] between its commas at
    depth 0.  A group is jumped by ``table``, so only the characters at depth
    0 are read; a group left open, or a ')' at depth 0, is unbalanced."""
    parts, start, p = [], lo, lo
    while p < hi:
        ch = text[p]
        if ch == "(":
            p = table.get(p, hi)
        if p >= hi or ch == ")":
            raise SpecParseError(f"unbalanced parentheses in {text[lo:hi]!r}")
        if ch == ",":
            parts.append(_strip(text, start, p))
            start = p + 1
        p += 1
    parts.append(_strip(text, start, hi))
    return parts


def _group_specs(text, parts, expected):
    """Regroup comma-split parts into the ranges of the expected number of
    specs, each starting at a part that holds a ':' or a '('; no character
    before the first '(' of a part is nested, so the scan stops there."""
    starts = [k for k, (lo, hi) in enumerate(parts) if any(text[p] in ":(" for p in range(lo, hi))]
    if len(starts) != expected or starts[0] != 0:
        shown = ",".join(text[lo:hi] for lo, hi in parts)
        raise SpecParseError(f"expected {expected} nested spec(s) in {shown!r}")
    bounds = starts + [len(parts)]
    return [(parts[bounds[k]][0], parts[bounds[k + 1] - 1][1]) for k in range(expected)]


# The largest dense size (n - 1) r^2 of a spec the command line builds: the
# entries of its n - 1 generator images, which set its peak memory.  2^18
# admits tym:n=64 (258048 entries).  Measured with Python 3.11 on x86-64, the
# widest admitted specs peak at 58 MB for `make tym:n=64,u=2` and at 168 MB
# for the dense `make conj(tym:n=64,u=5/3,seed=7)`; `make tym:n=128,u=2`
# (2080768 entries) peaked at 348 MB before this bound.
MAX_DENSE_ENTRIES = 1 << 18


def _parse_atom(text):
    head, _, _ = text.partition(":")
    family = head.strip()
    if family not in _FAMILIES:
        raise SpecParseError(f"unknown family {family!r}")
    keys, least_n, builder, dim = _FAMILIES[family]
    values = {}
    # Split the whole atom, so a message quotes all of it; its first part opens with 'family:'.
    (_, hi), *rest = _split(text, 0, len(text), _paren_table(text))
    for pair in (text[lo:hi] for lo, hi in [_strip(text, len(head) + 1, hi), *rest]):
        key, eq, value = pair.partition("=")
        key = key.strip()
        if not eq or key not in keys or key in values:
            raise SpecParseError(f"bad parameter {pair!r} for family {family!r}")
        values[key] = value.strip()
    if set(values) != set(keys):
        raise SpecParseError(f"family {family!r} needs parameters {keys}")
    try:
        n = int(values["n"])
        scalar = rational(values[keys[1]])
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad value in {text!r}: {exc}") from exc
    if n < least_n:
        # Refused before any size is summed: a negative dimension would let
        # a ``dsum`` pass ``_check_scale`` with a large summand.
        raise ValueError(f"need at least {least_n} strands")
    return (n, dim(n)), functools.partial(builder, n, scalar), {"family": family, "n": n, keys[1]: scalar}


def _parse(text, default_seed):
    """``((n, r), build, metadata)`` for a builtin spec: its strand count
    and dimension, read from the text alone (``dsum`` adds the dimensions,
    ``tensor`` and ``conj`` keep them), and a function that builds it."""
    return _parse_range(text, *_strip(text, 0, len(text)), _paren_table(text), default_seed)


def _parse_range(text, lo, hi, table, default_seed):
    """``_parse`` of the stripped spec at lo:hi.  Each level splits its own
    range once (``_split``), so the parse reads each character a bounded
    number of times, and a message quotes the spec's own text."""
    for comb in ("tensor", "dsum", "conj"):
        if text.startswith(comb + "(", lo, hi) and text.endswith(")", lo, hi):
            parts = _split(text, lo + len(comb) + 1, hi - 1, table)
            a, b = parts[-1]
            if comb == "tensor":
                if len(parts) < 2 or not text.startswith("y=", a, b):
                    raise SpecParseError("tensor needs tensor(SPEC,y=RATIONAL)")
                shape, build, _ = _parse_range(text, parts[0][0], parts[-2][1], table, default_seed)
                try:
                    y = rational(text[a + 2 : b])
                except (ValueError, ZeroDivisionError) as exc:
                    raise SpecParseError(f"bad tensor scalar: {exc}") from exc
                return shape, lambda: tensor_character(build(), y), {"family": "tensor"}
            if comb == "dsum":
                left, right = _group_specs(text, parts, 2)
                (n, r), build_a, _ = _parse_range(text, *left, table, default_seed)
                (m, q), build_b, _ = _parse_range(text, *right, table, default_seed)
                if n != m:
                    raise ShapeError("strand counts differ")
                return (n, r + q), lambda: direct_sum(build_a(), build_b()), {"family": "dsum"}
            seed = default_seed
            if text.startswith("seed=", a, b):
                try:
                    seed = int(text[a + 5 : b])
                except ValueError as exc:
                    raise SpecParseError(f"bad conj seed: {exc}") from exc
                parts = parts[:-1] or [(a, a)]
            shape, build, _ = _parse_range(text, parts[0][0], parts[-1][1], table, default_seed)
            return shape, lambda: scrambled(build(), seed), {"family": "conj", "seed": seed}
    if ":" in text[lo:hi]:
        return _parse_atom(text[lo:hi])
    raise SpecParseError(f"cannot parse spec {text[lo:hi]!r}")


def _check_scale(n, r):
    """Refuse a family whose dense size (n - 1) r^2 is past ``MAX_DENSE_ENTRIES``."""
    size = (n - 1) * r * r
    if size > MAX_DENSE_ENTRIES:
        raise OutOfScaleError(
            f"out of scale: n={n}, r={r} gives (n-1)*r^2 = {size} matrix entries, "
            f"past the bound of {MAX_DENSE_ENTRIES}"
        )


def parse_rep_spec(text, default_seed=0):
    """Parse a builtin spec; returns (representation, metadata).  The whole
    spec is parsed and its size checked (``_check_scale``) before any matrix
    is built.  A spec nested past the recursion limit is refused as unparsable."""
    try:
        (n, r), build, meta = _parse(text, default_seed)
        _check_scale(n, r)
        return build(), meta
    except RecursionError:
        raise SpecParseError("spec is nested too deeply") from None


def _load_source(source, default_seed):
    """A source is a JSON file path or a builtin spec string."""
    if os.path.exists(source) or source.endswith(".json"):
        return load_representation(source)
    rep, _ = parse_rep_spec(source, default_seed)
    return rep


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _cmd_make(args):
    rep, _ = parse_rep_spec(args.source, args.seed)
    return _json_text(rep_to_dict(rep))


def _cmd_verify(args):
    rep = _load_source(args.source, args.seed)
    report = verify_braid_relations(rep)
    if args.format == "text":
        lines = [
            f"braid relations: {'ok' if report.braid_relations_ok else 'FAIL'}",
            f"far commutation: {'ok' if report.far_commutation_ok else 'FAIL'}",
        ]
        lines += [f"  {desc} fails at {pair}" for desc, pair in report.failures]
        return "\n".join(lines) + "\n"
    return _json_text({
        "braid_relations_ok": report.braid_relations_ok,
        "far_commutation_ok": report.far_commutation_ok,
        "failures": [[desc, list(pair)] for desc, pair in report.failures],
    })


def _cmd_graph(args):
    rep = _load_source(args.source, args.seed)
    full = full_friendship_graph(rep)
    try:
        tag = classify_graph(full).tag.value
    except BraidRepError as exc:
        tag = f"unclassified: {exc}"
    graph = full if args.full else full.reduced()
    if args.format == "dot":
        return graph_to_dot(graph, label=tag)
    if args.format == "text":
        edges = " ".join(f"s{graph.label_of(i)}-s{graph.label_of(j)}" for i, j in graph.edges())
        return f"class: {tag}\nedges: {edges or '(none)'}\n"
    data = graph_to_json_dict(graph)
    data["class"] = tag
    return _json_text(data)


def _cmd_analyze(args):
    rep = _load_source(args.source, args.seed)
    report = analyze(rep, seed=args.seed)
    if args.format == "text":
        return report.to_text()
    return _json_text(report.to_json_dict())


def _cmd_irreducible(args):
    rep = _load_source(args.source, args.seed)
    verdict, _, _ = decide_irreducibility(rep)
    if args.format == "text":
        lines = [f"verdict: {verdict.tag.value}"]
        if verdict.algebra_dim is not None:
            lines.append(f"algebra dimension: {verdict.algebra_dim}")
        if verdict.witness is not None:
            lines.append(f"witness dimension: {verdict.witness.dim}")
        if verdict.detail:
            lines.append(verdict.detail)
        return "\n".join(lines) + "\n"
    return _json_text(_verdict_dict(verdict))


def _parse_ranges(text):
    """The ``(lo, hi)`` strand ranges of a list like ``6..10,12``."""
    ranges = []
    for chunk in map(str.strip, text.split(",")):
        lo, dots, hi = chunk.partition("..")
        lo, hi = int(lo), int(hi if dots else lo)
        if lo > hi:
            raise SpecParseError(f"empty strand range {chunk!r}")
        ranges.append((lo, hi))
    return ranges


def _cmd_sweep(args):
    try:
        ranges = _parse_ranges(args.n)
        us = [rational(tok.strip()) for tok in args.u.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad sweep grid: {exc}") from exc
    # The size (n - 1) n^2 of tym:n grows with n: each range's upper end
    # bounds it, and is checked before the range is expanded.
    for _, hi in ranges:
        _check_scale(hi, hi)
    ns = [n for lo, hi in ranges for n in range(lo, hi + 1)]
    rows = []
    for n in ns:
        for u in us:
            report = analyze(tym_standard(n, u), seed=args.seed)
            rows.append({
                "n": n,
                "u": str(u),
                "corank": report.corank,
                "graph_class": report.graph_class.tag.value if report.graph_class else None,
                "irreducibility": report.verdict.tag.value,
                "standard_form_u": str(report.standard_form.u) if report.standard_form else None,
            })
    if args.format == "text":
        header = f"{'n':>3} {'u':>8} {'corank':>6} {'graph':>20} {'irreducibility':>22} {'recovered u':>12}"
        lines = [header]
        for row in rows:
            lines.append(
                f"{row['n']:>3} {row['u']:>8} {row['corank']:>6} "
                f"{row['graph_class'] or '-':>20} {row['irreducibility']:>22} "
                f"{row['standard_form_u'] or '-':>12}"
            )
        return "\n".join(lines) + "\n"
    return _json_text(rows)


def _build_parser():
    """A shallow copy of the parser built once per process, so an attribute
    set on it (bench/tracer.py wraps parse_args) stays with one run."""
    return copy.copy(_parser())


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="braidrep",
        description="Construct, verify and classify rational braid group representations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, source_help=None, formats=("json", "text")):
        if source_help:
            p.add_argument("source", help=source_help)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--seed", type=int, default=0,
                       help="default seed of a conj(SPEC) without seed=, recorded in the "
                            "report (default 0)")

    p = sub.add_parser("make", help="construct a builtin representation and emit its JSON")
    common(p, "builtin spec, e.g. tym:n=6,u=2", formats=("json",))
    p.set_defaults(func=_cmd_make)

    p = sub.add_parser("verify", help="check the defining relations")
    common(p, "builtin spec or JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("graph", help="emit the friendship graph")
    common(p, "builtin spec or JSON file", formats=("json", "dot", "text"))
    p.add_argument("--full", action="store_true", help="include the derived vertex s0")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("analyze", help="run the full analysis pipeline")
    common(p, "builtin spec or JSON file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("irreducible", help="irreducibility verdict for a family")
    common(p, "builtin spec or JSON file")
    p.set_defaults(func=_cmd_irreducible)

    p = sub.add_parser("sweep", help="analyze the standard family over a grid")
    p.add_argument("--n", required=True, help="strand counts, e.g. 6..10 or 6,8")
    p.add_argument("--u", required=True, help="comma list of rationals, e.g. 2,3,1/2")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(args.func(args), args.out)
    except (BraidRepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
