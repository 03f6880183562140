"""Spans around fmpsat's public functions, recorded from outside the program.

``Tracer.install`` replaces each listed function, wherever an fmpsat
module holds a reference to it, by a wrapper that appends a span (name,
start, end, parent) to an in-memory list; ``uninstall`` puts the
originals back. Nothing is written until the run ends. ``layer_metrics``
turns the spans into per-layer self times and counts.

A layer's self time is its spans' durations minus the part covered by
child spans. Work the wrapper itself does after a call returns (counting
literals, for instance) is recorded as a ``trace`` child span of the
caller, so it is charged to no layer of the program.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, layer). Class methods are given as "Class.method".
# The clausification helpers of ``encode`` are public too, but they are
# called once per node inside the encoders and belong to their layer.
TRACED = [
    ("cli", "main", "cli"),
    ("cli", "cmd_encode", "cli"),
    ("cli", "_load_classifier", "cli.parse"),
    ("xpg", "parse_obdd", "cli.parse"),
    ("sdd", "parse_sdd", "cli.parse"),
    ("sdd", "parse_vtree", "cli.parse"),
    ("explain", "parse_instance", "cli.parse"),
    ("xpg", "build_xpg_from_obdd", "xpg.build"),
    ("xpg", "evaluate_sigma", "xpg.sigma"),
    ("sdd", "negate", "sdd.negate"),
    ("sdd", "consistency_under", "sdd.consistency"),
    ("sdd", "is_consistent", "sdd.consistency"),
    ("sdd", "evaluate", "sdd.evaluate"),
    ("encode", "encode_sdd_onestep", "encode"),
    ("encode", "encode_sdd_twostep", "encode"),
    ("encode", "encode_xpg_onestep", "encode"),
    ("encode", "encode_xpg_twostep", "encode"),
    ("encode", "write_dimacs", "encode.dimacs"),
    ("sat.solver", "solve", "solver"),
    ("sat.kernel", "model_satisfies", "solver.verify"),
    ("sat.kernel", "search", "kernel"),
    ("sat.kernel", "clean_clauses", "kernel.clean"),
    ("sat.kernel", "_search", "kernel.search"),
    ("explain", "SddClassifier.is_weak_axp", "explain.weak_axp"),
    ("explain", "_XpgBackedClassifier.is_weak_axp", "explain.weak_axp"),
    ("explain", "is_weak_axp", "explain.weak_axp"),
    ("explain", "find_axp", "explain.find_axp"),
    ("fmp", "decide_membership", "fmp"),
]

UNKNOWN_STATUS = 0   # kernel.search status for an elapsed deadline
UNSAT_STATUS = 20

# per_layer metric -> unit; the values come from layer_metrics
PER_LAYER_UNITS = {
    "cli.parse_s": "s/op",
    "cli.self_s": "s/op",
    "xpg.build_s": "s/op",
    "xpg.build_calls": "1/op",
    "xpg.sigma_s": "s/op",
    "xpg.sigma_calls": "1/op",
    "sdd.negate_s": "s/op",
    "sdd.consistency_s": "s/op",
    "sdd.consistency_calls": "1/op",
    "encode.s": "s/op",
    "encode.vars_mean": "vars",
    "encode.literals_mean": "literals",
    "encode.dimacs_s": "s/op",
    "encode.dimacs_bytes": "bytes",
    "kernel.search_s": "s/op",
    "kernel.timeouts": "1/op",
    "kernel.clean_s": "s/op",
    "kernel.calls": "1/op",
    "kernel.unsat_calls": "1/op",
    "solver.verify_s": "s/op",
    "explain.weak_axp_s": "s/op",
    "explain.weak_axp_calls": "1/op",
    "explain.find_axp_s": "s/op",
    "fmp.decide_s": "s/op",
    "fmp.self_s": "s/op",
    "other.self_s": "s/op",
    "trace.wall_s": "s/op",
    "trace.residual_s": "s/op",
}


class Tracer:
    def __init__(self):
        # span: [layer, start, end, parent index or -1, extra or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        summarize = _SUMMARIES.get(layer)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if summarize is not None:
                span[4] = summarize(result)
                spans.append(["trace", span[2], clock(), parent, None])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self, package: str = "fmpsat") -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package or name.startswith(package + "."))]
        for module_name, attr, layer in TRACED:
            home = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, layer))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, layer)
            # rebind every module-level reference, e.g. names imported by `from x import f`
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def _encode_summary(result):
    cnf = result[0]
    return cnf.num_vars, sum(map(len, cnf.clauses))


_SUMMARIES = {
    "encode": _encode_summary,
    "encode.dimacs": len,
    "kernel": lambda result: result[0],
}


def layer_metrics(spans: list[list], wall_s: float, ops: int) -> dict[str, float]:
    """Per-layer self times and counts, each divided by the operations
    attempted (means for the encoding sizes and DIMACS bytes)."""
    n = len(spans)
    covered = [0.0] * n
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    extras: dict[str, list] = defaultdict(list)
    for k, (layer, start, end, parent, extra) in enumerate(spans):
        self_s[layer] += end - start - covered[k]
        # a span nested in its own layer (a module-level test calling the
        # classifier's method) is one call of that layer
        if parent < 0 or spans[parent][0] != layer:
            calls[layer] += 1
            total_s[layer] += end - start
        if extra is not None:
            extras[layer].append(extra)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    statuses = extras["kernel"]
    named = {
        "cli.parse_s": self_s["cli.parse"],
        "cli.self_s": self_s["cli"],
        "xpg.build_s": self_s["xpg.build"],
        "xpg.build_calls": calls["xpg.build"],
        "xpg.sigma_s": self_s["xpg.sigma"],
        "xpg.sigma_calls": calls["xpg.sigma"],
        "sdd.negate_s": self_s["sdd.negate"],
        "sdd.consistency_s": self_s["sdd.consistency"],
        "sdd.consistency_calls": calls["sdd.consistency"],
        "encode.s": self_s["encode"],
        "encode.dimacs_s": self_s["encode.dimacs"],
        "kernel.search_s": self_s["kernel.search"],
        "kernel.timeouts": sum(s == UNKNOWN_STATUS for s in statuses),
        "kernel.clean_s": self_s["kernel.clean"],
        "kernel.calls": calls["kernel"],
        "kernel.unsat_calls": sum(s == UNSAT_STATUS for s in statuses),
        "solver.verify_s": self_s["solver.verify"],
        "explain.weak_axp_s": self_s["explain.weak_axp"],
        "explain.weak_axp_calls": calls["explain.weak_axp"],
        "explain.find_axp_s": self_s["explain.find_axp"],
        "fmp.decide_s": total_s["fmp"],
        "fmp.self_s": self_s["fmp"],
    }
    reported = {"cli.parse", "cli", "xpg.build", "xpg.sigma", "sdd.negate", "sdd.consistency",
                "encode", "encode.dimacs", "kernel.search", "kernel.clean", "solver.verify",
                "explain.weak_axp", "explain.find_axp", "fmp"}
    named["other.self_s"] = sum(v for k, v in self_s.items() if k not in reported and k != "trace")
    named["trace.wall_s"] = wall_s
    # what no program span covers: the benchmark's loop and the tracer's own work
    named["trace.residual_s"] = wall_s - sum(v for k, v in self_s.items() if k != "trace")
    out = {k: v / ops for k, v in named.items()}
    out["encode.vars_mean"] = mean([v for v, _ in extras["encode"]])
    out["encode.literals_mean"] = mean([lits for _, lits in extras["encode"]])
    out["encode.dimacs_bytes"] = mean(extras["encode.dimacs"])
    return out
