"""In-memory spans recorded from outside the library, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, tags). Spans are opened around the
library calls a workload runner makes and around the objects it hands to
the library (the stage operator's ``apply``, the preconditioner's
``apply_inverse``, each subsolver's ``solve`` and the time-stepping
``solver`` callable), so nesting follows the call stack.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder for one single-threaded workload pass."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, tags]
        self._open = []

    @contextmanager
    def span(self, name, **tags):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent, tags]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span called `name`."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, tags) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "tags": tags}) + "\n")


def span_cost(calls=20000):
    """Seconds one traced call adds: a no-op called through Tracer.wrap
    against the bare no-op, averaged over `calls` calls."""
    def noop():
        pass
    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, outputs, cost):
    """Per-layer metrics of one traced pass, every one of them on every
    workload (zero where the workload never enters the layer).

    `outputs` is the pass's own record: the GMRES reports, the stage
    operators' matvec counters and the time-stepping step counts. `cost`
    is the time one span adds (see span_cost); times the span count it
    estimates the tracing overhead, which is far below the run-to-run
    noise of a traced-minus-untraced wall time.
    """
    selfs = self_times(spans)
    calls, total, own = {}, {}, {}
    for (name, start, end, _, _), own_s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + own_s

    def max_sn(name):
        return max((s[4]["sN"] for s in spans if s[0] == name), default=0)

    reports = outputs.get("gmres", [])
    m = {
        "mesh.build_s": (total.get("mesh.build", 0.0), "s"),
        "mesh.hierarchy_s": (total.get("mesh.hierarchy", 0.0), "s"),
        "assembly.mass_s": (total.get("assembly.mass", 0.0), "s"),
        "assembly.stiffness_s": (total.get("assembly.stiffness", 0.0), "s"),
        "assembly.calls": (calls.get("assembly.mass", 0)
                           + calls.get("assembly.stiffness", 0), "count"),
        "stageop.apply_calls": (calls.get("stageop.apply", 0), "count"),
        "stageop.apply_s": (total.get("stageop.apply", 0.0), "s"),
        "stageop.mass_matvecs": (outputs.get("mass_matvecs", 0), "count"),
        "stageop.stiffness_matvecs": (outputs.get("stiffness_matvecs", 0), "count"),
        "stageop.rhs_s": (total.get("stageop.rhs", 0.0), "s"),
        "precond.build_s": (total.get("precond.build", 0.0), "s"),
        "precond.apply_calls": (calls.get("precond.apply", 0), "count"),
        "precond.apply_s": (total.get("precond.apply", 0.0), "s"),
        "precond.apply_self_s": (own.get("precond.apply", 0.0), "s"),
        "precond.subsolve_calls": (calls.get("precond.subsolve", 0), "count"),
        "precond.subsolve_s": (total.get("precond.subsolve", 0.0), "s"),
        "krylov.gmres_s": (total.get("krylov.gmres", 0.0), "s"),
        "krylov.self_s": (own.get("krylov.gmres", 0.0), "s"),
        "krylov.basis_bytes": (max((r["basis_bytes"] for r in reports), default=0),
                               "bytes"),
        "krylov.rel_residual": (max((r["rel_residual"] for r in reports), default=0.0),
                                "ratio"),
        "krylov.true_rel_residual": (
            max((r["true_rel_residual"] for r in reports), default=0.0), "ratio"),
        "krylov.reference_calls": (calls.get("krylov.reference", 0), "count"),
        "krylov.reference_s": (total.get("krylov.reference", 0.0), "s"),
        "analysis.kappa_dense_calls": (calls.get("analysis.kappa_dense", 0), "count"),
        "analysis.kappa_dense_s": (total.get("analysis.kappa_dense", 0.0), "s"),
        "analysis.kappa_dense_sN": (max_sn("analysis.kappa_dense"), "count"),
        "analysis.kappa_iterative_calls": (calls.get("analysis.kappa_iterative", 0),
                                           "count"),
        "analysis.kappa_iterative_s": (total.get("analysis.kappa_iterative", 0.0), "s"),
        "analysis.kappa_iterative_sN": (max_sn("analysis.kappa_iterative"), "count"),
        "driver.integrate_s": (total.get("driver.integrate", 0.0), "s"),
        "driver.steps": (outputs.get("steps", 0), "count"),
        "driver.solver_calls": (calls.get("driver.solver", 0), "count"),
        "driver.solver_s": (total.get("driver.solver", 0.0), "s"),
        "driver.self_s": (own.get("driver.integrate", 0.0), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_s": (len(spans) * cost, "s"),
    }
    for kind in ("J", "LD"):
        m[f"krylov.iterations.{kind}"] = (
            sum(r["iterations"] for r in reports if r["precond"] == kind), "count")
    return m
