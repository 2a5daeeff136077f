"""Spans around the calls into braidrep's layers, installed from outside.

``Tracer.install`` replaces each traced function at every binding a caller
resolves: the defining module, every braidrep module that imported it by
name (``classify`` imports ``inverse`` and the ``verify_*`` checks, ``cli``
imports ``analyze``, the package re-exports most names), and the class for
methods.  ``uninstall`` puts the originals back.

Spans live in memory as ``[name, parent, start, end, child_time]`` with the
parent's index, so a span's self time is its duration minus the time its
direct children cover.  Wrappers only record inside an open root span, which
the benchmark opens around each op; calls made by the benchmark's own
checking between ops are not traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path, span name).  The span name is the per-layer
# metric prefix: ``<name>_s`` is summed self time, ``<name>_calls`` a count.
TARGETS = [
    ("braidrep.linalg", "Matrix.__mul__", "linalg.matmul"),
    ("braidrep.linalg", "EchelonSpan.add", "linalg.echelon_add"),
    ("braidrep.linalg", "Subspace.intersect", "linalg.intersect"),
    ("braidrep.linalg", "inverse", "linalg.inverse"),
    ("braidrep.linalg", "rational_eigenvalues", "linalg.eigen"),
    ("braidrep.braid", "verify_braid_relations", "braid.braid_relations"),
    ("braidrep.braid", "verify_cyclic_conjugation", "braid.cyclic"),
    ("braidrep.braid", "verify_deformed_relations", "braid.deformed"),
    ("braidrep.zoo", "Representation.__init__", "zoo.build"),
    ("braidrep.zoo", "tym_standard", "zoo.build"),
    ("braidrep.zoo", "reduced_burau", "zoo.build"),
    ("braidrep.zoo", "character_rep", "zoo.build"),
    ("braidrep.zoo", "tensor_character", "zoo.build"),
    ("braidrep.zoo", "direct_sum", "zoo.build"),
    ("braidrep.zoo", "conjugate_rep", "zoo.build"),
    ("braidrep.zoo", "random_invertible_matrix", "zoo.build"),
    ("braidrep.cli", "parse_rep_spec", "zoo.build"),
    ("braidrep.zoo", "corank", "zoo.corank"),
    ("braidrep.friendship", "full_friendship_graph", "friendship.graph"),
    ("braidrep.friendship", "friendship_graph", "friendship.graph"),
    ("braidrep.friendship", "classify_graph", "friendship.graph"),
    ("braidrep.classify", "analyze", "classify.analyze"),
    ("braidrep.classify", "burnside_dimension", "classify.rational_closure"),
    ("braidrep.classify", "_modp_algebra_is_full", "classify.modp_closure"),
    ("braidrep.classify", "invariant_subspace_search", "classify.witness_search"),
    ("braidrep.classify", "spin", "classify.spin"),
    ("braidrep.classify", "extract_standard_form", "classify.extract"),
    ("braidrep.classify", "_standard_fullness_certificate", "classify.projector_cert"),
    ("braidrep.zoo", "load_representation", "cli.io"),
    ("braidrep.zoo", "save_representation", "cli.io"),
    ("braidrep.cli", "_emit", "cli.io"),
    ("braidrep.cli", "_build_parser", "cli.parse"),
    ("braidrep.classify", "AnalysisReport.to_json_dict", "cli.serialize"),
    ("braidrep.classify", "AnalysisReport.to_text", "cli.serialize"),
    ("braidrep.cli", "_json_text", "cli.serialize"),
    ("braidrep.cli", "_verdict_dict", "cli.serialize"),
    ("braidrep.zoo", "rep_to_dict", "cli.serialize"),
    ("braidrep.friendship", "graph_to_dot", "cli.serialize"),
    ("braidrep.friendship", "graph_to_json_dict", "cli.serialize"),
]

ROOT = "op"
CLOSURE = "classify.rational_closure"


def _max_bits(row):
    return max((abs(e).bit_length() for e in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.max_bits = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, wraps_parser=False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        watch_bits = name == "linalg.echelon_add"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = [name, stack[-1], clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec[3] = clock()
                stack.pop()
                spans[rec[1]][4] += end - rec[2]
            if watch_bits and result is not None:
                bits = _max_bits(result)
                if bits > self.max_bits:
                    self.max_bits = bits
            if wraps_parser:
                # argparse work happens in parse_args on the returned parser.
                result.parse_args = self._wrap(name, result.parse_args)
            return result

        return wrapper

    def open_root(self, label):
        """Start the span of one op; returns its index."""
        idx = len(self.spans)
        self.spans.append([ROOT, -1, time.perf_counter(), 0.0, 0.0, label])
        self.stack[:] = [idx]
        return idx

    def close_root(self, idx):
        """End an op's span; spans a timeout left open end with it."""
        end = time.perf_counter()
        self.stack.clear()
        for rec in self.spans[idx:]:
            if rec[3] == 0.0:
                rec[3] = end
        self.spans[idx][3] = end

    def open_path(self):
        """Names of the spans open right now, outermost first."""
        return [self.spans[i][0] for i in self.stack if i < len(self.spans)]

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {k: v for k, v in sys.modules.items() if k == "braidrep" or k.startswith("braidrep.")}
        for modname, path, name in TARGETS:
            owner = mods[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, wraps_parser=path == "_build_parser")
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def per_name(self, scale_by_root):
        """{span name: [calls, summed self time]} over every recorded span;
        each op's times are multiplied by its root's factor in ``scale_by_root``."""
        out = {}
        scale = 1.0
        for idx, rec in enumerate(self.spans):
            if rec[0] == ROOT:
                scale = scale_by_root[idx]
            agg = out.setdefault(rec[0], [0, 0.0])
            agg[0] += 1
            agg[1] += ((rec[3] - rec[2]) - rec[4]) * scale
        return out

    def closure_time_by_root(self):
        """{root span index: inclusive time spent in the algebra closure}."""
        out = {}
        root = None
        for idx, rec in enumerate(self.spans):
            if rec[0] == ROOT:
                root = idx
                out[root] = 0.0
            elif rec[0] == CLOSURE:
                out[root] += rec[3] - rec[2]
        return out

    def write(self, path):
        """Write every span as one JSON line: index, parent, name, start, end, self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, rec in enumerate(self.spans):
                fh.write(json.dumps([idx, rec[1], rec[0], round(rec[2], 7), round(rec[3], 7),
                                     round((rec[3] - rec[2]) - rec[4], 7)] + rec[5:]))
                fh.write("\n")
