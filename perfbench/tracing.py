"""Spans around the calls into circle6's layers, recorded from outside.

``Tracer.installed()`` replaces every public function of the six layer
modules with a wrapper that records a span, in the module that defines it
and under every other name an importer bound to it (``localization.validate``,
``cli.classify``, ``surgery.recognize_diffeotype``, the package namespace,
and module-level tables such as the CLI's sweep invariants). The originals
are put back on exit. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import oracle

LAYERS = ("core", "localization", "classifier", "multigraph", "surgery", "cli")


class Tracer:
    """Span store: (name, parent index, op index, start, end, exception
    name, info), info being a result size for the calls that have one."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        info_of = _INFO.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            exc = info = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = type(e).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if exc is None and info_of is not None:
                    info = info_of(args, kwargs, result)
                spans[idx] = (name, parent, self.op, t0, t1, exc, info)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"circle6.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        undo = []
        for modname, mod in list(sys.modules.items()):
            if modname != "circle6" and not modname.startswith("circle6."):
                continue
            namespace = vars(mod)
            for attr, val in list(namespace.items()):
                if id(val) in targets and targets[id(val)][0] is val:
                    undo.append((namespace, attr, val))
                    namespace[attr] = targets[id(val)][1]
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in targets and targets[id(item)][0] is item:
                            undo.append((val, key, item))
                            val[key] = targets[id(item)][1]
        try:
            yield self
        finally:
            for table, key, original in reversed(undo):
                table[key] = original

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, op, t0, t1, exc, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1, "exc": exc, "info": info}) + "\n")


def _graphs_info(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return (len(result), oracle.raw_pairings([p.weights for p in data.points]))


_INFO = {
    "classifier.classify": lambda args, kwargs, result: len(result.matches),
    "multigraph.build_multigraphs": _graphs_info,
}


def counts(spans) -> dict:
    """The exact, timing-free content of a trace: calls and exceptions per
    function and result sizes, for comparing two traced runs."""
    out: Counter = Counter()
    for name, _, _, _, _, exc, info in spans:
        out[(name, exc)] += 1
        if info is not None:
            out[(name, "info", repr(info))] += 1
    return dict(out)


def layer_metrics(spans, op_origins: list[str], cli_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (values only; units are in
    BENCHMARK.json). Per-op figures divide by the ops in the pass, per-call
    figures by that function's calls; a function never called reports 0."""
    n_ops = len(op_origins)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    child = [0.0] * len(spans)
    for name, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (name, _, _, t0, t1, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += t1 - t0 - child[i]

    def per_op_ms(name):
        return 1000 * self_s[name] / n_ops

    def per_call_ms(name):
        return 1000 * self_s[name] / calls[name] if calls[name] else 0.0

    by_origin: dict = defaultdict(lambda: [0.0, 0])
    hits = matches = 0
    for i, s in enumerate(spans):
        if s[0] != "classifier.classify":
            continue
        acc = by_origin[op_origins[s[2]]]
        acc[0] += s[4] - s[3] - child[i]
        acc[1] += 1
        if s[6]:
            hits += 1
            matches += s[6]

    builds = [(i, s) for i, s in enumerate(spans) if s[0] == "multigraph.build_multigraphs"]
    answered = [s[6] for _, s in builds if s[5] is None]
    refused = [s[4] - s[3] for _, s in builds if s[5] == "CapExceeded"]

    sums = {i for i, s in enumerate(spans) if s[0] == "surgery.kustarev_sum"}
    nested_classify = sum(1 for s in spans if s[0] == "classifier.classify" and _under(spans, s, sums))

    m = {
        "core.validate.calls_per_op": calls["core.validate"] / n_ops,
        "core.validate.self_ms_per_op": per_op_ms("core.validate"),
        "core.load.self_ms_per_op": per_op_ms("core.load"),
        "localization.c1_cubed.self_ms_per_op": per_op_ms("localization.c1_cubed"),
        "localization.chern_report.self_ms_per_op": per_op_ms("localization.chern_report"),
        "localization.chi_y_profile.calls_per_op": calls["localization.chi_y_profile"] / n_ops,
        "classifier.classify.calls_per_op": calls["classifier.classify"] / n_ops,
        "classifier.classify.self_ms_per_call": per_call_ms("classifier.classify"),
    }
    for origin in ("A", "B", "C", "D", "E", "F", "nomatch", "sum"):
        total, count = by_origin.get(origin, (0.0, 0))
        m[f"classifier.classify.self_ms.{origin}"] = 1000 * total / count if count else 0.0
    n_classify = calls["classifier.classify"]
    m.update({
        "classifier.classify.hit_frac": hits / n_classify if n_classify else 0.0,
        "classifier.classify.matches_per_call": matches / n_classify if n_classify else 0.0,
        "classifier.gen_family.self_ms_per_op": per_op_ms("classifier.gen_family"),
        "multigraph.build_multigraphs.self_ms_per_call": per_call_ms("multigraph.build_multigraphs"),
        "multigraph.graphs_per_call": sum(g for g, _ in answered) / len(answered) if answered else 0.0,
        # base: raw_pairing_count summed over the answered calls
        "multigraph.distinct_over_raw": (sum(g for g, _ in answered) / sum(r for _, r in answered)
                                         if answered else 0.0),
        "multigraph.cap_refusals": len(refused),
        "multigraph.refusal_ms_per_call": 1000 * sum(refused) / len(refused) if refused else 0.0,
        "multigraph.connectivity_verdict.self_ms_per_call": per_call_ms("multigraph.connectivity_verdict"),
        "surgery.kustarev_sum.self_ms_per_call": per_call_ms("surgery.kustarev_sum"),
        "surgery.kustarev_sum.classify_calls_per_call": (nested_classify / calls["surgery.kustarev_sum"]
                                                         if calls["surgery.kustarev_sum"] else 0.0),
        "surgery.verify_framing_reversal_identity.self_ms_per_call":
            per_call_ms("surgery.verify_framing_reversal_identity"),
        "cli.run.self_ms_per_call": per_call_ms("cli.run"),
        "cli.build_parser.self_ms_per_call": per_call_ms("cli.build_parser"),
        "cli.bytes_out_per_call": cli_bytes / calls["cli.run"] if calls["cli.run"] else 0.0,
    })
    return m


def _under(spans, span, ancestors: set) -> bool:
    parent = span[1]
    while parent >= 0:
        if parent in ancestors:
            return True
        parent = spans[parent][1]
    return False
