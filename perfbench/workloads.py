"""The irkprec benchmark workloads, one pass per process.

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD --seed N \
        [--traced [--spans FILE]]

prints one JSON object: the pass's wall time, its set-up, solve and
oracle phase times, peak resident memory, the outputs to check and, when
traced, the per-layer metrics.

Each runner makes the library calls of the matching CLI command (`gmres`,
`mms`, `kappa`) in the CLI's order and with its arguments. Phase times
come from perf_counter boundaries between those calls. A traced pass
also records a span around each call and wraps the objects the runner
hands to the library: the stage operator's `apply`, the preconditioner's
`apply_inverse`, each subsolver's `solve` and the `solver` callable given
to `driver.integrate`."""

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import replace
from statistics import median

import numpy as np
import scipy

from irkprec import analysis, cli, driver, krylov
from irkprec.assembly import assemble_mass, assemble_stiffness, coefficient_preset
from irkprec.mesh import build_hierarchy, build_mesh
from irkprec.precond import build_preconditioner
from irkprec.stageop import StageOperator, build_stage_rhs

from spans import Tracer, layer_metrics, span_cost
from speed import REFERENCE_PROBE_S, SpeedProbe

ExperimentConfig = cli.ExperimentConfig

# Inputs are fixed by the manufactured solutions; only the ARPACK start
# vector of the iterative kappa route depends on the seed.
WORKLOADS = {
    # Paper's GMRES table one level below the largest desk size (sN =
    # 49,923), so that a run holds many passes: J is dominated by the
    # Krylov loop and stage matvec, LD by the preconditioner apply and
    # V-cycle, the oracle by one sN x sN splu.
    "gmres-wave": [ExperimentConfig(
        command="gmres", problem="wave", coeff="constant-diffusion",
        stages=(3,), mesh_k=(6,), precond=("J", "LD"), subsolve="vcycle",
        tol=1e-8)],
    # Time marching with the default direct solver: repeated direct solves
    # and per-stage load assembly, no GMRES and no V-cycle. Constant and
    # variable (beta > 0) coefficients.
    "march-parabolic": [
        ExperimentConfig(command="mms", problem="diffusion",
                         coeff="constant-diffusion", stages=(2,),
                         mesh_k=(3, 4, 5, 6), t_end=0.5),
        ExperimentConfig(command="mms", problem="pennes", coeff="variable",
                         stages=(2,), mesh_k=(3, 4, 5, 6), t_end=0.5)],
    # Analysis layer only: k=4 (sN=2178) is on the dense side of the
    # CLI's KAPPA_DENSE_CUTOFF and k=5 (sN=8450) on the iterative side.
    "kappa-table": [ExperimentConfig(
        command="kappa", problem="diffusion", coeff="constant-diffusion",
        stages=(2,), mesh_k=(4, 5), precond=("J", "LD"))],
}


class Clock:
    """Adds the duration of each library call to a phase, measured with
    perf_counter around the call, and the time between calls to "other";
    with a tracer, also records a span. With a speed probe, the probe runs
    before every call and once more at the end, outside the measured
    time, and finish() scales each stretch between two probes to the
    reference speed (see speed.py)."""

    PHASES = ("setup", "solve", "oracle", "other")

    def __init__(self, tracer=None, probe=None):
        self.tracer, self.probe = tracer, probe
        self.intervals = []     # [probe seconds or None, [(phase, seconds)]]
        self._mark = None

    def checkpoint(self):
        """Ends the current stretch here: runs the probe, if any."""
        now = time.perf_counter()
        if self._mark is not None:
            self.intervals[-1][1].append(("other", now - self._mark))
        if self.probe is not None or not self.intervals:
            speed = self.probe.measure() if self.probe is not None else None
            self.intervals.append([speed, []])
        self._mark = time.perf_counter()

    def call(self, phase, name, fn, *args, tags=None, **kwargs):
        self.checkpoint()
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn(*args, **kwargs)
        else:
            with self.tracer.span(name, **(tags or {})):
                out = fn(*args, **kwargs)
        self._mark = time.perf_counter()
        self.intervals[-1][1].append((phase, self._mark - t0))
        return out

    def finish(self):
        """(scaled, raw) seconds per phase; equal without a probe."""
        self.checkpoint()
        scaled = dict.fromkeys(self.PHASES, 0.0)
        raw = dict.fromkeys(self.PHASES, 0.0)
        for j, (before, stretch) in enumerate(self.intervals):
            scale = 1.0
            if self.probe is not None:
                after = self.intervals[j + 1][0] if j + 1 < len(self.intervals) else before
                scale = REFERENCE_PROBE_S / ((before + after) / 2)
            for phase, seconds in stretch:
                scaled[phase] += seconds * scale
                raw[phase] += seconds
        return scaled, raw


class Cache:
    """The CLI workspace's lazy caches (meshes, M/F, tableaus,
    hierarchies): each item is built by its first use, through the clock."""

    def __init__(self, config, clock, coeff):
        self.config, self.clock, self.coeff = config, clock, coeff
        self.items = {}

    def _get(self, key, name, fn, *args):
        if key not in self.items:
            self.items[key] = self.clock.call("setup", name, fn, *args)
        return self.items[key]

    def mesh(self, k):
        return self._get(("mesh", k), "mesh.build", build_mesh, k)

    def matrices(self, k):
        mesh = self.mesh(k)
        return (self._get(("M", k), "assembly.mass", assemble_mass, mesh),
                self._get(("F", k), "assembly.stiffness", assemble_stiffness,
                          mesh, self.coeff))

    def tableau(self, s):
        return self._get(("tableau", s), "butcher.tableau",
                         driver.method_tableau, self.config.problem, s)

    def hierarchy(self, k):
        return self._get(("hierarchy", k), "mesh.hierarchy", build_hierarchy, k)

    def grid(self):
        """(s, k, h_t) cells; builds meshes and tableaus first, as the CLI does."""
        cells = []
        for s in self.config.stages:
            for k in self.config.mesh_k:
                h = self.mesh(k).h
                for h_t in self.config.timesteps(h, s, self.tableau(s).kind):
                    cells.append((s, k, h_t))
        return cells


def _method_label(tableau, s):
    return f"{tableau.kind.value}-{s}"


def _step_errors(problem, mesh, M, tableau, h_t, u0, udot0, xk, x_ref):
    """Relative error against the direct solution and the L2 error of the
    stepped solution against the manufactured one at t = h_t."""
    rel_lin = None
    if x_ref is not None:
        rel_lin = float(np.linalg.norm(xk - x_ref) / np.linalg.norm(x_ref))
    K = xk.reshape(tableau.s, -1)
    if problem.mu == 1:
        u1 = u0 + h_t * (tableau.b @ K)
    else:
        u1 = u0 + h_t * udot0 + h_t ** 2 * (tableau.b @ K)
    exact = problem.exact(mesh.nodes[:, 0], mesh.nodes[:, 1], h_t)
    return rel_lin, driver.l2_error(M, u1, exact)


def run_gmres(config, clock, out):
    """`gmres`: per cell the first-timestep stage system, one direct
    oracle, then per kind build the preconditioner and run GMRES."""
    coeff = coefficient_preset(config.coeff)
    problem = driver.mms_problem(config.problem, config.coeff)
    cache = Cache(config, clock, coeff)
    tracer = clock.tracer
    for s, k, h_t in cache.grid():
        mesh, tableau = cache.mesh(k), cache.tableau(s)
        M, F = cache.matrices(k)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        u0 = problem.exact(x, y, 0.0)
        udot0 = problem.exact_dt(x, y, 0.0) if problem.mu == 2 else None
        op = StageOperator(tableau, M, F, h_t, problem.mu)
        rhs = clock.call("setup", "stageop.rhs", build_stage_rhs, mesh, coeff,
                         tableau, h_t, problem.mu, 0.0, u0, udot0, problem.g, F=F)
        x_ref = None
        if op.size <= krylov.DIRECT_GUARD:
            x_ref = clock.call("oracle", "krylov.reference",
                               krylov.reference_solve, op, rhs)
        if tracer is not None:
            op.apply = tracer.wrap("stageop.apply", op.apply)
        for kind in config.precond:
            hierarchy = cache.hierarchy(k) if config.subsolve == "vcycle" else None
            prec = clock.call("setup", "precond.build", build_preconditioner,
                              tableau, kind, M, F, h_t, problem.mu,
                              subsolve=config.subsolve, hierarchy=hierarchy,
                              coeff=coeff)
            if tracer is not None:
                prec.apply_inverse = tracer.wrap("precond.apply", prec.apply_inverse)
                for sub in {id(s): s for s in prec.subsolvers}.values():
                    sub.solve = tracer.wrap("precond.subsolve", sub.solve)
            xk, report = clock.call("solve", "krylov.gmres", krylov.gmres, op,
                                    prec, rhs, tol=config.tol,
                                    max_iter=config.max_iter)
            rel_lin, rel_pde = clock.call("oracle", "krylov.errors", _step_errors,
                                          problem, mesh, M, tableau, h_t, u0,
                                          udot0, xk, x_ref)
            out["rows"].append({
                "problem": config.problem, "coeff": config.coeff,
                "method": _method_label(tableau, s), "s": s, "k": k,
                "h": mesh.h, "h_t": h_t, "precond": kind,
                "iterations": report.iterations, "converged": report.converged,
                "rel_residual": report.rel_residual,
                "true_rel_residual": report.true_rel_residual,
                "rel_error_linear": rel_lin, "rel_error_pde": rel_pde})
            out["gmres"].append({
                "precond": kind, "iterations": report.iterations,
                "basis_bytes": (report.iterations + 1) * op.size * 8,
                "rel_residual": report.rel_residual,
                "true_rel_residual": report.true_rel_residual})
        out["mass_matvecs"] += op.n_mass_matvecs
        out["stiffness_matvecs"] += op.n_stiffness_matvecs


def run_mms(config, clock, out):
    """`mms`: per stage count a convergence study, one integrate call per
    mesh level. M and F are assembled before the call instead of inside
    it, so that their time counts as set-up."""
    solver = driver.direct_solver
    if clock.tracer is not None:
        # direct_solver is reference_solve returning no report
        solver = clock.tracer.wrap(
            "driver.solver", clock.tracer.wrap("krylov.reference", solver))
    for s in config.stages:
        study = []
        for k in config.mesh_k:
            mesh = clock.call("setup", "mesh.build", build_mesh, k)
            problem = driver.mms_problem(config.problem, config.coeff)
            tableau = clock.call("setup", "butcher.tableau",
                                 driver.method_tableau, config.problem, s)
            h_t = driver.timestep_rule(mesh.h, s, tableau.kind)
            M = clock.call("setup", "assembly.mass", assemble_mass, mesh)
            F = clock.call("setup", "assembly.stiffness", assemble_stiffness,
                           mesh, problem.coeff)
            end, _ = clock.call("solve", "driver.integrate", driver.integrate,
                                problem, tableau, mesh, h_t, config.t_end,
                                solver=solver, M=M, F=F)
            out["steps"] += round(end.t / end.h_t)
            exact = problem.exact(mesh.nodes[:, 0], mesh.nodes[:, 1], end.t)
            study.append((k, mesh.h, driver.l2_error(M, end.u, exact)))
        order = float(np.polyfit(np.log([h for _, h, _ in study]),
                                 np.log([e for _, _, e in study]), 1)[0])
        for k, h, err in study:
            out["rows"].append({"problem": config.problem, "coeff": config.coeff,
                                "s": s, "k": k, "h": h, "l2_error": err,
                                "observed_order": order})


def run_kappa(config, clock, out):
    """`kappa`: per cell and kind (none first) the stage operator, the
    exact-subsolve preconditioner and kappa on the CLI's route."""
    coeff = coefficient_preset(config.coeff)
    mu = driver.mms_problem(config.problem, config.coeff).mu
    cache = Cache(config, clock, coeff)
    for s, k, h_t in cache.grid():
        tableau = cache.tableau(s)
        for kind in ["none"] + list(config.precond):
            M, F = cache.matrices(k)
            op = StageOperator(tableau, M, F, h_t, mu)
            prec = None
            if kind != "none":
                prec = clock.call("setup", "precond.build", build_preconditioner,
                                  tableau, kind, M, F, h_t, mu, subsolve="exact")
            route = config.kappa_method
            if route == "auto":
                route = "dense" if op.size <= cli.KAPPA_DENSE_CUTOFF else "iterative"
            if route == "dense":
                kappa = clock.call("solve", "analysis.kappa_dense",
                                   analysis.condition_number, op, prec,
                                   tags={"sN": op.size})
            else:
                kappa = clock.call("solve", "analysis.kappa_iterative",
                                   analysis.condition_number_iterative, op, prec,
                                   seed=config.seed, tags={"sN": op.size})
            out["rows"].append({
                "problem": config.problem, "coeff": config.coeff,
                "method": _method_label(tableau, s), "s": s, "k": k,
                "h": cache.mesh(k).h, "h_t": h_t, "precond": kind,
                "kappa": float(kappa), "kappa_method": route, "sN": op.size})


RUNNERS = {"gmres": run_gmres, "mms": run_mms, "kappa": run_kappa}


def new_outputs():
    """What a pass records besides its times: output rows to check, GMRES
    reports, stage-operator matvec counts and time steps taken."""
    return {"rows": [], "gmres": [], "mass_matvecs": 0,
            "stiffness_matvecs": 0, "steps": 0}


def run_configs(configs, clock, out=None):
    """Run each config through its command's runner; returns the outputs."""
    out = new_outputs() if out is None else out
    for config in configs:
        RUNNERS[config.command](config, clock, out)
    return out


def one_pass(name, seed, traced=False):
    """One pass of a workload. An untraced pass scales its times to the
    reference speed; a traced pass runs no speed probe, so that its spans
    hold library calls only, and reports raw times."""
    configs = [replace(c, seed=seed) for c in WORKLOADS[name]]
    tracer = Tracer() if traced else None
    clock = Clock(tracer, None if traced else SpeedProbe())
    out = new_outputs()
    error = None
    clock.checkpoint()
    try:
        run_configs(configs, clock, out)
    except Exception as exc:
        # The pass ends here; the checks count every output it did not make.
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    phases, raw = clock.finish()
    result = {"workload": name, "seed": seed, "traced": traced, "error": error,
              "wall_s": sum(phases.values()), "raw_wall_s": sum(raw.values()),
              "phases": phases, "rows": out["rows"],
              "probe_s": median(p for p, _ in clock.intervals if p is not None)
              if not traced else None}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, out, span_cost())
    return result, tracer


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans", help="write the traced pass's spans here (JSON lines)")
    args = p.parse_args(argv)
    result, tracer = one_pass(args.workload, args.seed, args.traced)
    if tracer is not None and args.spans:
        tracer.write_jsonl(args.spans)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
