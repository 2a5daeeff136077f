"""Dead-code checks on ``src/braidrep`` with the standard library's ``ast``.

Two rules, so that a cut leaves nothing behind:
- every name a module imports is read by that module (string annotations
  included), or by the bench as an attribute of the module
  (``lib.classify.inverse`` in ``bench/test_bench.py``);
- every private top-level function or class is named by some other code under
  ``src/`` or ``bench/``: a call, an attribute, an import, or a dotted string
  such as a ``bench/tracer.py`` target.
"""

import ast
import re
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "braidrep").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


@cache
def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _named(nodes):
    """Identifiers that the code under ``nodes`` names: loaded names,
    attributes, imported names, and the parts of dotted-identifier strings."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name.rpartition(".")[2])
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _DOTTED.fullmatch(n.value):
                out.update(n.value.split("."))
    return out


def _loaded(tree):
    """Names that the module reads, in its code and in string annotations."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            note = n.returns if isinstance(n, ast.FunctionDef) else n.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                out |= _loaded(ast.parse(note.value, mode="eval"))
    return out


def _bench_reads(module):
    """Names the bench reads off ``braidrep.<module>``: ``x.<module>.name``
    attribute chains and ``from braidrep.<module> import name``."""
    out = set()
    for path in BENCH:
        for n in ast.walk(_tree(path)):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute) and n.value.attr == module:
                out.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and n.module == f"braidrep.{module}":
                out.update(a.asname or a.name for a in n.names)
    return out


def _imported(tree):
    """``(bound name, line)`` for every import of the module but ``__future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = _tree(path)
    read = _loaded(tree) | _bench_reads(path.stem)
    unread = [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in read]
    assert not unread, f"imported and never read: {unread}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_helper_is_named_elsewhere(path):
    tree = _tree(path)
    elsewhere = set().union(*(_named([_tree(p)]) for p in SOURCES + BENCH if p != path))
    private = [d for d in tree.body
               if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name.startswith("_")
               and not d.name.startswith("__")]
    unnamed = [
        f"{path.name}:{d.lineno} {d.name}" for d in private
        if d.name not in elsewhere and d.name not in _named(n for n in tree.body if n is not d)
    ]
    assert not unnamed, f"private and named by no other code: {unnamed}"


def test_the_checks_see_every_module_and_the_bench_binding():
    assert {p.stem for p in SOURCES} >= {"linalg", "zoo", "braid", "friendship", "classify", "cli"}
    assert "inverse" in _bench_reads("classify")
