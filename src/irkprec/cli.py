"""Experiment runner reproducing the condition-number, spectrum,
field-of-values, and GMRES tables at desk scale.

Commands: kappa, spectrum, fov, gmres, mms, export. Grids are driven by
a key=value config file and/or flags; rows are emitted as CSV, JSON, or
markdown in deterministic grid order. Exit codes: 0 success, 2 if any
GMRES run failed to converge, 1 on configuration errors.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, driver, krylov
from .assembly import (assemble_mass, assemble_stiffness, coefficient_preset,
                       write_matrix_market, PRESETS)
from .butcher import butcher_preconditioner_matrix
from .errors import ConfigError
from .mesh import MAX_LEVEL, build_hierarchy, build_mesh, write_mesh_text
from .precond import build_preconditioner
from .stageop import DENSE_GUARD, StageOperator, build_stage_rhs

COMMANDS = ("kappa", "spectrum", "fov", "gmres", "mms", "export")
FORMATS = ("csv", "json", "md")
ALL_KINDS = ("J", "GSL", "TRIU", "LD", "DU")

# dense SVD above this size is slower than the LU-based iterative route
KAPPA_DENSE_CUTOFF = 4500


@dataclass
class ExperimentConfig:
    command: str = "kappa"
    problem: str = "wave"
    coeff: str = "constant-diffusion"
    stages: tuple = (2,)
    mesh_k: tuple = (4,)
    ht: tuple = ()              # explicit timesteps; empty means use the rule
    precond: tuple = ("J", "GSL", "TRIU", "LD", "DU")
    subsolve: str = "vcycle"
    tol: float = 1e-8
    out: str = ""
    format: str = "csv"
    seed: int = 0
    n_angles: int = 128
    t_end: float = 0.5
    kappa_method: str = "auto"  # auto | dense | iterative
    max_iter: int = 500

    def timesteps(self, h, s, kind):
        if self.ht:
            return list(self.ht)
        return [driver.timestep_rule(h, s, kind)]


def _n_nodes(k):
    return (2 ** (k + 1) + 1) ** 2


def validate(config):
    """Check the configuration up front; returns the list of grid cells
    that exceed the dense guard (skipped with a warning by the point-cloud
    commands)."""
    if config.command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {config.command!r}")
    if config.format not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {config.format!r}")
    if config.problem not in driver.PROBLEM_NAMES:
        raise ConfigError(f"problem must be one of {driver.PROBLEM_NAMES}")
    if config.coeff not in PRESETS:
        raise ConfigError(f"coeff must be one of {PRESETS}")
    try:
        driver.mms_problem(config.problem, config.coeff)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for s in config.stages:
        if not 1 <= s <= 5:
            raise ConfigError(f"stages must lie in [1, 5], got {s}")
    for k in config.mesh_k:
        if not 1 <= k <= MAX_LEVEL:
            raise ConfigError(f"mesh-k must lie in [1, {MAX_LEVEL}], got {k}")
    for kind in config.precond:
        if kind not in ALL_KINDS:
            raise ConfigError(f"preconditioner {kind!r} not in {ALL_KINDS}")
    if config.subsolve not in ("exact", "vcycle"):
        raise ConfigError("subsolve must be 'exact' or 'vcycle'")
    if config.tol <= 0:
        raise ConfigError("tol must be positive")
    if config.max_iter < 1:
        raise ConfigError("max-iter must be >= 1")
    if config.t_end <= 0:
        raise ConfigError("t-end must be positive")
    if config.kappa_method not in ("auto", "dense", "iterative"):
        raise ConfigError("kappa-method must be auto, dense, or iterative")
    if any(h <= 0 for h in config.ht):
        raise ConfigError("explicit timesteps must be positive")
    if config.n_angles < 8:
        raise ConfigError("n-angles must be >= 8")

    violations = []
    for s in config.stages:
        for k in config.mesh_k:
            if s * _n_nodes(k) <= DENSE_GUARD:
                continue
            if config.command in ("spectrum", "fov"):
                violations.append((s, k))
            elif config.command == "kappa" and config.kappa_method == "dense":
                raise ConfigError(
                    f"dense kappa requested but s*N = {s * _n_nodes(k)} at "
                    f"(s={s}, k={k}) exceeds the guard {DENSE_GUARD}")
    return violations


class _Workspace:
    """Caches meshes, matrices, and tableaus across grid cells."""

    def __init__(self, config):
        self.config = config
        self.coeff = coefficient_preset(config.coeff)
        self.problem = driver.mms_problem(config.problem, config.coeff)
        self.mu = self.problem.mu
        self._meshes = {}
        self._matrices = {}
        self._tableaus = {}
        self._hierarchies = {}

    def mesh(self, k):
        if k not in self._meshes:
            self._meshes[k] = build_mesh(k)
        return self._meshes[k]

    def matrices(self, k):
        if k not in self._matrices:
            m = self.mesh(k)
            self._matrices[k] = (assemble_mass(m), assemble_stiffness(m, self.coeff))
        return self._matrices[k]

    def tableau(self, s):
        if s not in self._tableaus:
            self._tableaus[s] = driver.method_tableau(self.config.problem, s)
        return self._tableaus[s]

    def hierarchy(self, k):
        if k not in self._hierarchies:
            self._hierarchies[k] = build_hierarchy(k)
        return self._hierarchies[k]

    def operator(self, s, k, h_t):
        M, F = self.matrices(k)
        return StageOperator(self.tableau(s), M, F, h_t, self.mu)

    def method_label(self, s):
        t = self.tableau(s)
        return f"{t.kind.value}-{s}"

    def prec_matrix(self, s, kind):
        """The s x s preconditioner matrix of `kind`, None for "none": the
        kappa, spectrum and fov routes build P_h from it and never apply
        a factored preconditioner."""
        if kind == "none":
            return None
        return butcher_preconditioner_matrix(self.tableau(s), kind)


def _kappa_one(ws, s, k, h_t, kind):
    config = ws.config
    op = ws.operator(s, k, h_t)
    prec = ws.prec_matrix(s, kind)
    method = config.kappa_method
    if method == "auto":
        method = "dense" if op.size <= KAPPA_DENSE_CUTOFF else "iterative"
    if method == "dense":
        kappa = analysis.condition_number(op, prec)
    else:
        kappa = analysis.condition_number_iterative(op, prec, seed=config.seed)
    return kappa, method


def _grid(config, ws):
    cells = []
    for s in config.stages:
        for k in config.mesh_k:
            h = ws.mesh(k).h
            for h_t in config.timesteps(h, s, ws.tableau(s).kind):
                cells.append((s, k, h, h_t))
    return cells


def run_kappa(config):
    """Condition numbers over the (stages x mesh x timestep) grid, one row
    per preconditioner kind plus an unpreconditioned row per cell."""
    ws = _Workspace(config)
    rows = []
    for s, k, h, h_t in _grid(config, ws):
        for kind in ["none"] + list(config.precond):
            kappa, used = _kappa_one(ws, s, k, h_t, kind)
            rows.append({
                "problem": config.problem, "coeff": config.coeff,
                "method": ws.method_label(s), "s": s, "h": h, "h_t": h_t,
                "precond": kind, "kappa": kappa, "kappa_method": used,
            })
    return rows


def run_gmres(config):
    """Left-preconditioned GMRES on the first-timestep stage system.

    Returns (rows, any_nonconverged). rel_error_linear is measured against
    a sparse direct solve of the same system (omitted above the direct
    guard); rel_error_pde is the L2 error of the stepped solution against
    the manufactured solution at t = h_t.
    """
    ws = _Workspace(config)
    problem = ws.problem
    rows = []
    for s, k, h, h_t in _grid(config, ws):
        mesh = ws.mesh(k)
        M, F = ws.matrices(k)
        tableau = ws.tableau(s)
        state = driver.initial_state(problem, mesh, h_t)
        op = ws.operator(s, k, h_t)
        rhs = build_stage_rhs(mesh, ws.coeff, tableau, h_t, ws.mu, state.t,
                              state.u, state.udot, problem.g, F=F)
        exact = problem.exact(mesh.nodes[:, 0], mesh.nodes[:, 1], h_t)
        x_ref = None
        if op.size <= krylov.DIRECT_GUARD:
            x_ref = krylov.reference_solve(op, rhs)
        for kind in config.precond:
            prec = build_preconditioner(
                tableau, kind, M, F, h_t, ws.mu, subsolve=config.subsolve,
                hierarchy=ws.hierarchy(k) if config.subsolve == "vcycle" else None)
            xk, report = krylov.gmres(op, prec, rhs, tol=config.tol,
                                      max_iter=config.max_iter)
            rel_lin = None
            if x_ref is not None:
                rel_lin = float(np.linalg.norm(xk - x_ref) / np.linalg.norm(x_ref))
            u1 = driver.advance(state, tableau, xk).u
            rows.append({
                "problem": config.problem, "coeff": config.coeff,
                "method": ws.method_label(s), "s": s, "h": h, "h_t": h_t,
                "precond": kind, "subsolve": config.subsolve,
                "iterations": report.iterations,
                "converged": report.converged,
                "time_s": report.wall_time,
                "rel_residual": report.rel_residual,
                "true_rel_residual": report.true_rel_residual,
                "rel_error_linear": rel_lin,
                "rel_error_pde": driver.l2_error(M, u1, exact),
            })
    return rows, any(not r["converged"] for r in rows)


def _cloud_path(config, stem):
    base = config.out or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, stem)


def run_cloud(config, violations=()):
    """Point clouds (Re, Im per row), one file per grid cell and kind,
    plus summary rows: eigenvalues with min |lambda| and kappa for
    `spectrum`, field-of-values boundary points with their distance to
    the origin for `fov`. Cells in `violations` give a skipped row."""
    ws = _Workspace(config)
    spectrum = config.command == "spectrum"
    stats = ("min_abs_eig", "kappa") if spectrum else ("fov_min_distance",)
    rows = []
    for s, k, h, h_t in _grid(config, ws):
        cell = {"problem": config.problem, "coeff": config.coeff,
                "method": ws.method_label(s), "s": s, "h": h, "h_t": h_t}
        if (s, k) in violations:
            rows.append({**cell, "precond": "skipped", **dict.fromkeys(stats),
                         "file": "",
                         "warning": f"s*N = {s * _n_nodes(k)} exceeds dense guard"})
            continue
        op = ws.operator(s, k, h_t)
        for kind in ["none"] + list(config.precond):
            prec = ws.prec_matrix(s, kind)
            label = f"{config.problem}_{ws.method_label(s)}_k{k}_{kind}"
            if spectrum:
                result = analysis.spectrum(op, prec, label=label)
                points = result.eigenvalues
                values = (float(np.abs(points).min()), result.kappa)
            else:
                result = analysis.field_of_values(
                    analysis.preconditioned_dense(op, prec),
                    n_angles=config.n_angles)
                points = result.boundary_points
                values = (result.min_distance_to_origin,)
            stem = f"{config.command}_{label}.csv"
            with open(_cloud_path(config, stem), "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["re", "im"])
                for z in points:
                    w.writerow([repr(float(z.real)), repr(float(z.imag))])
            rows.append({**cell, "precond": kind, **dict(zip(stats, values)),
                         "file": stem, "warning": ""})
    return rows


def run_mms(config):
    """Convergence studies of the manufactured problems over mesh_k."""
    rows = []
    for s in config.stages:
        study = driver.convergence_study(config.problem, config.coeff, s,
                                         list(config.mesh_k), t_end=config.t_end)
        for k, h, err in zip(study["k"], study["h"], study["errors"]):
            rows.append({"problem": config.problem, "coeff": config.coeff,
                         "s": s, "k": k, "h": h, "l2_error": err,
                         "observed_order": study["order"]})
    return rows


def run_export(config):
    """Write tableau JSON, mesh node/element files, and Matrix Market
    matrices for the configured grid; returns a manifest."""
    ws = _Workspace(config)
    rows = []
    base = config.out or "."
    os.makedirs(base, exist_ok=True)
    for s in config.stages:
        t = ws.tableau(s)
        name = f"tableau_{t.kind.value}_{s}.json"
        with open(os.path.join(base, name), "w") as fh:
            fh.write(t.to_json())
        rows.append({"artifact": "tableau", "s": s, "k": None, "file": name})
    for k in config.mesh_k:
        mesh = ws.mesh(k)
        name = f"mesh_k{k}.txt"
        write_mesh_text(mesh, os.path.join(base, name))
        rows.append({"artifact": "mesh", "s": None, "k": k, "file": name})
        M, F = ws.matrices(k)
        mname, fname = f"mass_k{k}.mtx", f"stiffness_{config.coeff}_k{k}.mtx"
        write_matrix_market(M, os.path.join(base, mname))
        write_matrix_market(F, os.path.join(base, fname))
        rows.append({"artifact": "mass", "s": None, "k": k, "file": mname})
        rows.append({"artifact": "stiffness", "s": None, "k": k, "file": fname})
    return rows


def _fmt_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def emit_csv(rows):
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    keys = list(rows[0].keys())
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_fmt_value(row.get(k)) for k in keys])
    return buf.getvalue()


def emit_json(rows):
    return json.dumps(rows, indent=2, default=float) + "\n"


def emit_markdown(rows, command):
    if not rows:
        return ""
    if command == "kappa":
        return _markdown_kappa(rows)
    keys = list(rows[0].keys())
    lines = ["| " + " | ".join(keys) + " |",
             "|" + "|".join("---" for _ in keys) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt_value(row.get(k)) for k in keys) + " |")
    return "\n".join(lines) + "\n"


def _markdown_kappa(rows):
    """Pivot: one row per (method, h, h_t), one column per preconditioner,
    mirroring the layout of the published tables."""
    kinds = list(dict.fromkeys(row["precond"] for row in rows))
    header = ["method", "h", "h_t"] + [
        "kappa(A)" if k == "none" else f"kappa(P_{k}^-1 A)" for k in kinds]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    cells = {}  # insertion-ordered: first appearance of each row key
    for row in rows:
        key = (row["method"], row["h"], row["h_t"])
        cells.setdefault(key, {})[row["precond"]] = row["kappa"]
    for (method, h, h_t), kappas in cells.items():
        vals = [f"{kappas.get(k, float('nan')):.2f}" for k in kinds]
        lines.append(f"| {method} | {h:.6g} | {h_t:.6g} | " + " | ".join(vals) + " |")
    return "\n".join(lines) + "\n"


def emit(rows, config):
    if config.format == "csv":
        return emit_csv(rows)
    if config.format == "json":
        return emit_json(rows)
    return emit_markdown(rows, config.command)


def parse_config_file(path):
    """Plain key = value lines; '#' starts a comment; list values are
    comma separated."""
    values = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key = value, got {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_LISTS = {"stages": int, "mesh_k": int, "ht": float, "precond": str.strip}
_SCALARS = {"seed": int, "n_angles": int, "max_iter": int, "tol": float, "t_end": float}


def _coerce(key, raw):
    try:
        if key in _LISTS:
            return tuple(_LISTS[key](v) for v in str(raw).split(",") if v.strip() != "")
        if key in _SCALARS:
            return _SCALARS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"field {key}: cannot parse {raw!r}") from exc
    return raw


def build_config(file_values=None, overrides=None):
    config = ExperimentConfig()
    for source in (file_values or {}, overrides or {}):
        for key, raw in source.items():
            if raw is None:
                continue
            if not hasattr(config, key):
                raise ConfigError(f"unknown config field {key!r}")
            config = replace(config, **{key: _coerce(key, raw)})
    return config


def make_parser():
    p = argparse.ArgumentParser(
        prog="irkprec",
        description="Stage-equation preconditioner experiments")
    p.add_argument("command", nargs="?", choices=COMMANDS)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--command", dest="command_flag", choices=COMMANDS)
    p.add_argument("--problem", choices=driver.PROBLEM_NAMES)
    p.add_argument("--coeff", choices=PRESETS)
    p.add_argument("--stages", help="comma list, e.g. 2,3,4,5")
    p.add_argument("--mesh-k", dest="mesh_k", help="comma list of mesh exponents")
    p.add_argument("--ht", help="comma list of explicit timesteps")
    p.add_argument("--ht-rule", action="store_true",
                   help="use the coupled timestep rule (the default)")
    p.add_argument("--precond", help="comma list from J,GSL,TRIU,LD,DU")
    p.add_argument("--subsolve", choices=("exact", "vcycle"))
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--out", help="output file (tables) or directory (clouds/export)")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-angles", dest="n_angles", type=int)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--kappa-method", dest="kappa_method",
                   choices=("auto", "dense", "iterative"))
    return p


def config_from_argv(argv):
    args = make_parser().parse_args(argv)
    if args.ht and args.ht_rule:
        raise ConfigError("--ht and --ht-rule are mutually exclusive")
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {key: val for key, val in vars(args).items()
                 if val is not None and hasattr(ExperimentConfig, key)}
    command = args.command_flag or args.command or file_values.get("command")
    if not command:
        raise ConfigError("no command given (positional, --command, or config file)")
    overrides["command"] = command
    if "ht" in file_values and args.ht_rule:
        file_values = dict(file_values)
        del file_values["ht"]
    return build_config(file_values, overrides)


def run(config):
    """Execute the configured command; returns (rows, exit_code)."""
    violations = validate(config)
    nonconverged = False
    if config.command == "kappa":
        rows = run_kappa(config)
    elif config.command == "gmres":
        rows, nonconverged = run_gmres(config)
    elif config.command in ("spectrum", "fov"):
        rows = run_cloud(config, violations)
    elif config.command == "mms":
        rows = run_mms(config)
    else:
        rows = run_export(config)
    return rows, (2 if nonconverged else 0)


def _write_output(text, config):
    if config.command in ("spectrum", "fov", "export"):
        # --out is the artifact directory; the summary goes alongside
        if config.out:
            path = os.path.join(config.out, f"summary.{config.format}")
            with open(path, "w") as fh:
                fh.write(text)
        sys.stdout.write(text)
    elif config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    try:
        config = config_from_argv(sys.argv[1:] if argv is None else argv)
        rows, code = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    _write_output(emit(rows, config), config)
    return code


if __name__ == "__main__":
    sys.exit(main())
