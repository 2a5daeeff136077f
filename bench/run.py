"""Known-answer benchmark for braidrep.

    python3 bench/run.py --workload dense_chain --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Runs one workload as a closed loop with one client against the braidrep
sources in ``src/`` of the checkout this file sits in, checks every answer
against the known answers in ``oracle.py``, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run makes half its rounds with spans installed and half without, and
reports per-layer metrics instead.  Details (per-op latencies, failures,
the tail percentile, the spans) go to ``bench/out/``.  ``--smoke`` runs a few ops of every
workload, traced and untraced, and exits 0 only when all of them are right.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fixed per-op time budget, the same for every workload and every commit.
# Ops that pass it count as failed, at the budget in the latency metrics.
BUDGET_S = 4.0
SETUP_REPEATS = 9
SETUP_REFS = 5
# Nominal seconds of one round of each mix on a shared 2-core x86 VM; the run
# makes round(seconds / nominal) rounds, so every commit does the same work.
NOMINAL_ROUND_S = {"dense_chain": 15.0, "dense_closure": 15.0, "cli_sparse": 3.0}
MIN_ROUNDS = 2
SMOKE_OPS = {"dense_chain": [0, 1], "dense_closure": [0, 1, 2, 3],
             "cli_sparse": [0, 1, 4, 5, 6, 7, 8, 9, 11, 14, 16, 18, 20]}
TAIL_BEYOND = 10
# Seconds the reference computation takes on the nominal machine that
# reported times are rescaled to (see ``reference_s`` and README.md).
REF_NOMINAL_S = 0.004
_REF_A = tuple(tuple(Fraction(i * 7 + j, j + 2) for j in range(8)) for i in range(8))
_REF_B = tuple(tuple(Fraction(i - j, i + j + 1) for j in range(8)) for i in range(8))

PER_LAYER_SPANS = [
    ("linalg.matmul", True), ("braid.braid_relations", False), ("braid.cyclic", False),
    ("braid.deformed", False), ("linalg.echelon_add", True), ("classify.rational_closure", False),
    ("classify.modp_closure", False), ("linalg.eigen", False), ("classify.witness_search", False),
    ("classify.spin", None), ("linalg.intersect", True), ("linalg.inverse", False),
    ("zoo.corank", False), ("friendship.graph", False), ("classify.extract", False),
    ("classify.projector_cert", False), ("zoo.build", False), ("cli.parse", False),
    ("cli.io", False), ("cli.serialize", False),
]


def reference_s():
    """Seconds for a fixed exact-arithmetic computation that does not use
    braidrep.  The benchmark takes one sample before every op and one after
    the last; the two around an op show how fast the shared machine ran."""
    zero = Fraction(0)
    t0 = time.perf_counter()
    for _ in range(2):
        [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*_REF_B)] for row in _REF_A]
    return time.perf_counter() - t0


class BudgetExceeded(BaseException):
    """Raised by SIGALRM inside an op.  A BaseException, so that no
    ``except Exception`` inside braidrep can swallow it."""


def import_braidrep():
    """Import braidrep afresh from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "braidrep" or m.startswith("braidrep.")]:
        del sys.modules[name]
    pkg = importlib.import_module("braidrep")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"braidrep imported from {pkg.__file__}, not from this checkout")
    return SimpleNamespace(
        linalg=importlib.import_module("braidrep.linalg"),
        zoo=importlib.import_module("braidrep.zoo"),
        classify=importlib.import_module("braidrep.classify"),
        cli=importlib.import_module("braidrep.cli"),
    )


def make_ops(workload, seed):
    import workloads

    if workload == "dense_chain":
        return workloads.dense_chain_ops(seed)
    if workload == "dense_closure":
        return workloads.dense_closure_ops(seed)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    return workloads.cli_sparse_ops(seed, work)


class Runner:
    """Runs ops under the budget, judges them, and keeps every sample."""

    def __init__(self, lib, ops):
        self.lib = lib
        self.ops = ops
        self.tracer = None
        self.hashes = {}  # op index -> hash of its first default output
        self.verdicts = {}  # output hash -> Judgement
        self.problems = []
        self.timed_out = set()  # ops not attempted again after passing the budget
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        raise BudgetExceeded(self.tracer.open_path() if self.tracer else [])

    def run_op(self, i):
        """One op: returns a sample dict.  Only ``op.call`` is timed."""
        op = self.ops[i]
        gc.collect()
        ref = reference_s()
        tracer, root = self.tracer, None
        raw, status, where = None, "ok", None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            if tracer is not None:
                root = tracer.open_root(op.label)
            raw = op.call(self.lib)
        except BudgetExceeded as exc:
            status, where = "timeout", exc.args[0]
        except Exception as exc:  # an op that raises is a failed op, not a crash
            status, where = "raised", repr(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            if root is not None:
                tracer.close_root(root)
        sample = {"op": i, "elapsed": elapsed, "ref": ref, "status": status,
                  "decided": False, "by_closure": False, "root": root}
        if status == "timeout":
            self.timed_out.add(i)
            sample["open_spans"] = where
        elif status == "raised":
            sample["error"] = where
        else:
            self._judge(i, raw, sample)
        return sample

    def _judge(self, i, raw, sample):
        text, payload = self.ops[i].render(raw)
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.hashes.setdefault(i, digest)
        if first != digest:
            self._problem(i, "output changed between repetitions")
            sample["status"] = "nondeterministic"
            return
        if digest not in self.verdicts:
            self.verdicts[digest] = self.ops[i].judge(payload)
        verdict = self.verdicts[digest]
        if verdict.problem is not None:
            self._problem(i, verdict.problem)
            sample["status"] = "wrong"
            sample["error"] = verdict.problem
            return
        sample["decided"] = verdict.decided
        sample["by_closure"] = verdict.by_closure

    def _problem(self, i, what):
        problem = f"{self.ops[i].label}: {what}"
        if problem not in self.problems:
            self.problems.append(problem)

    def rounds(self, count, indices=None):
        """Run the mix ``count`` times.  An op that ran out of budget is not
        attempted again: it failed, and another attempt costs the budget again."""
        indices = range(len(self.ops)) if indices is None else indices
        return [self.run_op(i) for _ in range(count) for i in indices if i not in self.timed_out]


def rescale(samples):
    """Set each sample's ``scale``: the factor that turns its measured time
    into time on the nominal machine, from the reference samples taken just
    before and just after the op."""
    refs = [s["ref"] for s in samples] + [reference_s()]
    for j, sample in enumerate(samples):
        sample["scale"] = 2 * REF_NOMINAL_S / (refs[j] + refs[j + 1])


def setup(workload, seed, repeats):
    """Import, generate the inputs and warm up, ``repeats`` times.  Returns
    the last (lib, ops) and every set-up time in nominal-machine seconds,
    each rescaled by reference samples taken just before it."""
    times = []
    for _ in range(repeats):
        gc.collect()
        ref = statistics.median(reference_s() for _ in range(SETUP_REFS))
        t0 = time.perf_counter()
        lib = import_braidrep()
        ops = make_ops(workload, seed)
        Runner(lib, ops).run_op(0)
        times.append((time.perf_counter() - t0) * REF_NOMINAL_S / ref)
    return lib, ops, times


def tail(latencies):
    """Latency at the highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(samples, setup_times):
    """End-to-end metrics, in nominal-machine time.  An op that ran out of
    budget counts at the budget, which is not rescaled."""
    latencies = [BUDGET_S if s["status"] == "timeout" else s["elapsed"] * s["scale"] for s in samples]
    ok = sum(s["status"] == "ok" for s in samples)
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (ok / sum(latencies), "1/s"),
        "ok_share": (ok / len(samples), "ratio"),
        "decided_share": (sum(s["decided"] for s in samples) / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"tail_percentile": pct, "tail_samples_beyond": beyond, "sample_count": len(samples)}
    return metrics, notes


def per_layer(tracer, untraced, traced, rounds):
    """Per-layer metrics from the traced rounds, per round of the mix, in
    nominal-machine time."""
    agg = tracer.per_name({s["root"]: s["scale"] for s in traced})
    metrics = {}
    for name, with_calls in PER_LAYER_SPANS:
        calls, self_s = agg.get(name, (0, 0.0))
        if with_calls is not False:
            metrics[f"{name}_calls"] = (calls / rounds, "count")
        if with_calls is not None:
            metrics[f"{name}_s"] = (self_s / rounds, "s")
    metrics["linalg.echelon_max_bits"] = (tracer.max_bits, "bits")
    closure = tracer.closure_time_by_root()
    total = sum(closure.values())
    useful = sum(closure[s["root"]] for s in traced if s["by_closure"])
    metrics["classify.closure_useful_ratio"] = (useful / total if total else 0.0, "ratio")
    # Overhead over the ops that finished in every untraced and traced round.
    bad = {s["op"] for s in untraced + traced if s["status"] != "ok"}
    plain = sum(s["elapsed"] * s["scale"] for s in untraced if s["op"] not in bad)
    spanned = sum(s["elapsed"] * s["scale"] for s in traced if s["op"] not in bad)
    metrics["trace_overhead_share"] = (spanned / plain - 1 if plain else 0.0, "ratio")
    return metrics


def measure(workload, seed, seconds, trace, smoke=False):
    lib, ops, setup_times = setup(workload, seed, 1 if smoke else SETUP_REPEATS)
    indices = SMOKE_OPS[workload] if smoke else None
    rounds = 1 if smoke else max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))
    runner = Runner(lib, ops)
    detail = {"workload": workload, "seed": seed, "trace": trace, "budget_s": BUDGET_S,
              "setup_times_s": setup_times, "ops": [op.label for op in ops]}
    if trace:
        from tracer import Tracer

        # Traced rounds first, so that an op that runs out of budget does
        # so with its spans open; it is not attempted again untraced.
        half = max(1, rounds // 2)
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        try:
            traced = runner.rounds(half, indices)
        finally:
            runner.tracer = None
            tracer.uninstall()
        untraced = runner.rounds(half, indices)
        samples = traced + untraced
        rescale(samples)
        metrics = per_layer(tracer, untraced, traced, half)
        detail["rounds"] = [half, half]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        samples = runner.rounds(rounds, indices)
        rescale(samples)
        metrics, notes = end_to_end(samples, setup_times)
        detail.update(notes, rounds=rounds)
    detail["samples"] = samples
    detail["problems"] = runner.problems
    failed = [s for s in samples if s["status"] != "ok"]
    result = {
        "correct": not runner.problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def report_failures(detail):
    """One stderr line per distinct failing op, with where it was when it failed."""
    seen = set()
    for s in detail["samples"]:
        if s["status"] == "ok":
            continue
        label = detail["ops"][s["op"]]
        where = " > ".join(s.get("open_spans") or []) or s.get("error", "")
        key = (label, s["status"], where)
        if key not in seen:
            seen.add(key)
            print(f"failed ({s['status']}): {label}" + (f" [{where}]" if where else ""), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few ops of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "braidrep" / "__init__.py").is_file():
        print(f"error: no braidrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        ok = True
        for workload in sorted(NOMINAL_ROUND_S):
            for trace in (0, 1):
                result, detail = measure(workload, args.seed, 0, trace, smoke=True)
                report_failures(detail)
                ok &= result["correct"] and result["failed"] == 0
                print(json.dumps({"workload": workload, "trace": trace, **result}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")
    report_failures(detail)
    if "tail_percentile" in detail:
        print(f"op_tail_s is p{detail['tail_percentile']:.1f} of {detail['sample_count']} samples "
              f"({detail['tail_samples_beyond']} beyond); budget {BUDGET_S} s; "
              f"{detail['rounds']} rounds", file=sys.stderr)
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
