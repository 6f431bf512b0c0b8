"""Experiment runner reproducing the condition-number, spectrum,
field-of-values, and GMRES tables at desk scale.

Commands: kappa, spectrum, fov, gmres, mms, export. Grids are driven by
a key = value config file and/or flags; rows are emitted as CSV, JSON, or
markdown in deterministic grid order. Every flag (--mesh-k) and file key
(mesh-k or mesh_k) is an ExperimentConfig field name, parsed to that
field's type and checked by validate. Exit codes: 0 success; 1 on any
configuration error ("config error: ..."), from a flag, a file or an
unreadable file alike; 2 if any GMRES run failed to converge.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

from . import analysis, driver, krylov
from .assembly import (assemble_mass, assemble_stiffness, coefficient_preset,
                       write_matrix_market, PRESETS)
from .errors import ConfigError
from .mesh import MAX_LEVEL, build_mesh, nodes_at_level, write_mesh_text
from .precond import build_preconditioner
from .stageop import DENSE_GUARD, StageOperator, build_stage_rhs

COMMANDS = ("kappa", "spectrum", "fov", "gmres", "mms", "export")
ARTIFACT_COMMANDS = ("spectrum", "fov", "export")  # --out is a directory
FORMATS = ("csv", "json", "md")
ALL_KINDS = ("J", "GSL", "TRIU", "LD", "DU")

# largest s N that kappa_method "auto" sends to the dense route. The
# iterative route is already faster at s N = 2178 (0.03-0.3 s against
# 1.3-1.7 s a row, diffusion Radau IIA s=2); the value stays because
# perfbench's kappa-table records its k=4 rows as dense under it
KAPPA_DENSE_CUTOFF = 4500

# largest s N of each dense command: its peak memory in (s N)^2 float64
# buffers (tracemalloc, diffusion Radau IIA s=3, LD) within the kappa
# route's budget of one buffer at DENSE_GUARD, 8 DENSE_GUARD^2 bytes.
# kappa holds one buffer; spectrum two (np.linalg.eigvals copies); fov
# 4.02 at s N = 867 (B, one complex buffer for every angle's Hermitian
# part, one real temporary while it is formed), within the 5.2 its limit
# is set from
DENSE_LIMIT = {command: int(DENSE_GUARD / buffers ** 0.5)
               for command, buffers in (("kappa", 1), ("spectrum", 2), ("fov", 5.2))}


def _one_of(choices, default):
    return field(default=default, metadata={"choices": choices})


@dataclass
class ExperimentConfig:
    """One declaration per setting: the annotation is the type a flag or
    file value parses to, `choices` metadata the values validate allows."""

    command: str = _one_of(COMMANDS, "kappa")
    problem: str = _one_of(driver.PROBLEM_NAMES, "wave")
    coeff: str = _one_of(PRESETS, "constant-diffusion")
    stages: tuple[int, ...] = (2,)
    mesh_k: tuple[int, ...] = (4,)
    ht: tuple[float, ...] = ()  # explicit timesteps; empty means use the rule
    precond: tuple[str, ...] = _one_of(ALL_KINDS, ALL_KINDS)
    subsolve: str = _one_of(("exact", "vcycle"), "vcycle")
    tol: float = 1e-8
    out: str = ""               # output file (tables) or directory (clouds, export)
    format: str = _one_of(FORMATS, "csv")
    seed: int = 0
    n_angles: int = 128
    t_end: float = 0.5
    kappa_method: str = _one_of(("auto", "dense", "iterative"), "auto")
    max_iter: int = 500

    def timesteps(self, h, s, kind):
        if self.ht:
            return list(self.ht)
        return [driver.timestep_rule(h, s, kind)]


def validate(config):
    """Check the configuration up front; raises ConfigError. Refuses a
    dense kappa cell above DENSE_LIMIT["kappa"], an mms cell above
    krylov.DIRECT_GUARD and explicit timesteps for mms. The point-cloud
    commands skip their cells above DENSE_LIMIT themselves (run_cloud)."""
    for f in fields(config):
        choices = f.metadata.get("choices")
        if choices is None:
            continue
        value = getattr(config, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if v not in choices:
                raise ConfigError(f"{f.name} must be one of {choices}, got {v!r}")
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
    # "not 0 < x < inf" also refuses nan
    if not 0 < config.tol < np.inf:
        raise ConfigError("tol must be positive and finite")
    if config.max_iter < 1:
        raise ConfigError("max-iter must be >= 1")
    if not 0 < config.t_end < np.inf:
        raise ConfigError("t-end must be positive and finite")
    if not all(0 < h < np.inf for h in config.ht):
        raise ConfigError("explicit timesteps must be positive and finite")
    if config.command == "mms" and config.ht:
        raise ConfigError("mms takes no explicit ht: its march steps by the coupled "
                          "timestep rule (--ht-rule drops a config file's ht)")
    if config.n_angles < 8:
        raise ConfigError("n-angles must be >= 8")
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")
    if config.out and config.command not in ARTIFACT_COMMANDS:
        # checked before any row is computed: the table is opened only at the end
        folder = os.path.dirname(config.out) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"out: directory {folder!r} does not exist")
        if os.path.isdir(config.out):
            raise ConfigError(f"out: {config.out!r} is a directory")

    for s in config.stages:
        for k in config.mesh_k:
            n = s * nodes_at_level(k)
            if config.command == "mms" and n > krylov.DIRECT_GUARD:
                # the march solves every step exactly; refused before any
                # mesh or matrix of the study is built
                raise ConfigError(
                    f"mms needs a direct solve, but s*N = {n} at (s={s}, k={k}) "
                    f"exceeds the direct-solve guard {krylov.DIRECT_GUARD}")
            if (config.command == "kappa" and config.kappa_method == "dense"
                    and n > DENSE_LIMIT["kappa"]):
                raise ConfigError(
                    f"dense kappa requested but s*N = {n} at "
                    f"(s={s}, k={k}) exceeds the guard {DENSE_LIMIT['kappa']}")


class _Workspace:
    """Caches meshes, matrices and tableaus across grid cells, and builds
    each cell's operators (uncached) from them; a V-cycle preconditioner
    needs only the cell's M and F, from which it builds its levels."""

    def __init__(self, config):
        self.config = config
        self.coeff = coefficient_preset(config.coeff)
        self.problem = driver.mms_problem(config.problem, config.coeff)
        self.mu = self.problem.mu
        self._cache = {}

    def _get(self, key, fn, *args):
        if key not in self._cache:
            self._cache[key] = fn(*args)
        return self._cache[key]

    def mesh(self, k):
        return self._get(("mesh", k), build_mesh, k)

    def matrices(self, k):
        m = self.mesh(k)
        return self._get(("matrices", k), lambda: (assemble_mass(m),
                                                   assemble_stiffness(m, self.coeff)))

    def tableau(self, s):
        return self._get(("tableau", s), driver.method_tableau, self.config.problem, s)

    def operator(self, s, k, h_t):
        M, F = self.matrices(k)
        return StageOperator(self.tableau(s), M, F, h_t, self.mu)

    def method_label(self, s):
        t = self.tableau(s)
        return f"{t.kind.value}-{s}"

    def preconditioner(self, op, kind):
        """P_h of `kind` for the system operator `op` with exact
        subsolves, None for "none": what the kappa, spectrum and fov
        routes apply, built as gmres builds its preconditioners."""
        if kind == "none":
            return None
        return build_preconditioner(self.tableau(op.s), kind, op.M, op.F, op.h_t,
                                    op.mu, subsolve="exact")


def _kappa_one(ws, op, kind):
    """kappa of `kind` against the cell's system operator `op` (shared by
    the cell's kinds, so the iterative route factors A's blocks once)."""
    config = ws.config
    prec = ws.preconditioner(op, kind)
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
        op = ws.operator(s, k, h_t)
        for kind in ["none"] + list(config.precond):
            kappa, used = _kappa_one(ws, op, kind)
            rows.append({
                "problem": config.problem, "coeff": config.coeff,
                "method": ws.method_label(s), "s": s, "h": h, "h_t": h_t,
                "precond": kind, "kappa": kappa, "kappa_method": used,
            })
    return rows


def run_gmres(config):
    """Left-preconditioned GMRES on the first-timestep stage system.

    One row per run; `converged` False marks a run that failed, and
    `stop_reason` says why the loop ended (converged, max_iter or
    breakdown).
    rel_error_linear is measured against
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
            prec = build_preconditioner(tableau, kind, M, F, h_t, ws.mu,
                                        subsolve=config.subsolve)
            xk, report = krylov.gmres(op, prec, rhs, tol=config.tol,
                                      max_iter=config.max_iter)
            del prec  # its LUs are freed before the next kind's are built
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
                "stop_reason": report.stop_reason,
                "time_s": report.wall_time,
                "rel_residual": report.rel_residual,
                "true_rel_residual": report.true_rel_residual,
                "rel_error_linear": rel_lin,
                "rel_error_pde": driver.l2_error(M, u1, exact),
            })
    return rows


def _out_path(config, name):
    """`name` inside the artifact directory --out (default: here)."""
    base = config.out or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def run_cloud(config):
    """Point clouds (Re, Im per row), one file per grid cell and kind,
    plus summary rows: eigenvalues with min |lambda| and kappa for
    `spectrum`, field-of-values boundary points with their distance to
    the origin for `fov`. A cell above the command's DENSE_LIMIT gives a
    skipped row, before any of its matrices is built."""
    ws = _Workspace(config)
    spectrum = config.command == "spectrum"
    stats = ("min_abs_eig", "kappa") if spectrum else ("fov_min_distance",)
    limit = DENSE_LIMIT[config.command]
    rows = []
    for s, k, h, h_t in _grid(config, ws):
        cell = {"problem": config.problem, "coeff": config.coeff,
                "method": ws.method_label(s), "s": s, "h": h, "h_t": h_t}
        n = s * nodes_at_level(k)
        if n > limit:
            rows.append({**cell, "precond": "skipped", **dict.fromkeys(stats),
                         "file": "",
                         "warning": f"s*N = {n} exceeds dense guard {limit} "
                                    f"of {config.command}"})
            continue
        op = ws.operator(s, k, h_t)
        for kind in ["none"] + list(config.precond):
            label = f"{config.problem}_{ws.method_label(s)}_k{k}_{kind}"
            # P_h is freed when the call that applies it returns
            if spectrum:
                result = analysis.spectrum(op, ws.preconditioner(op, kind))
                points = result.eigenvalues
                values = (float(np.abs(points).min()), result.kappa)
            else:
                result = analysis.field_of_values(
                    analysis.preconditioned_dense(op, ws.preconditioner(op, kind)),
                    n_angles=config.n_angles)
                points = result.boundary_points
                values = (result.min_distance_to_origin,)
            stem = f"{config.command}_{label}.csv"
            with open(_out_path(config, stem), "w") as fh:
                fh.write(emit_csv([{"re": float(z.real), "im": float(z.imag)}
                                   for z in points]))
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
    for s in config.stages:
        t = ws.tableau(s)
        name = f"tableau_{t.kind.value}_{s}.json"
        with open(_out_path(config, name), "w") as fh:
            fh.write(t.to_json())
        rows.append({"artifact": "tableau", "s": s, "k": None, "file": name})
    for k in config.mesh_k:
        mesh = ws.mesh(k)
        name = f"mesh_k{k}.txt"
        write_mesh_text(mesh, _out_path(config, name))
        rows.append({"artifact": "mesh", "s": None, "k": k, "file": name})
        M, F = ws.matrices(k)
        mname, fname = f"mass_k{k}.mtx", f"stiffness_{config.coeff}_k{k}.mtx"
        write_matrix_market(M, _out_path(config, mname))
        write_matrix_market(F, _out_path(config, fname))
        rows.append({"artifact": "mass", "s": None, "k": k, "file": mname})
        rows.append({"artifact": "stiffness", "s": None, "k": k, "file": fname})
    return rows


def _fmt_value(v):
    if v is None:
        return ""
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
    return _md_table(keys, [[_fmt_value(row.get(k)) for k in keys] for row in rows])


def _md_table(header, body):
    lines = ["| " + " | ".join(cells) + " |" for cells in [header] + body]
    lines.insert(1, "|" + "---|" * len(header))
    return "\n".join(lines) + "\n"


def _markdown_kappa(rows):
    """Pivot: one row per (method, h, h_t), one column per preconditioner,
    mirroring the layout of the published tables."""
    kinds = list(dict.fromkeys(row["precond"] for row in rows))
    header = ["method", "h", "h_t"] + [
        "kappa(A)" if k == "none" else f"kappa(P_{k}^-1 A)" for k in kinds]
    cells = {}  # insertion-ordered: first appearance of each row key
    for row in rows:
        key = (row["method"], row["h"], row["h_t"])
        cells.setdefault(key, {})[row["precond"]] = row["kappa"]
    body = []
    for (method, h, h_t), kappas in cells.items():
        vals = [f"{kappas.get(k, float('nan')):.2f}" for k in kinds]
        body.append([method, f"{h:.6g}", f"{h_t:.6g}"] + vals)
    return _md_table(header, body)


def emit(rows, config):
    if config.format == "csv":
        return emit_csv(rows)
    if config.format == "json":
        return emit_json(rows)
    return emit_markdown(rows, config.command)


def parse_config_file(path):
    """Plain key = value lines; '#' starts a comment; list values are
    comma separated."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values = {}
    for ln, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value, got {line!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _coerce(key, text):
    """Parse one flag or file value to the type its field declares."""
    kind = _FIELDS[key].type
    try:
        if get_origin(kind) is tuple:
            item = get_args(kind)[0]
            return tuple(item(v.strip()) for v in text.split(",") if v.strip())
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"field {key}: cannot parse {text!r}") from exc


def build_config(file_values=None, overrides=None):
    values = {}
    for source in (file_values or {}, overrides or {}):
        for key, text in source.items():
            if text is None:
                continue
            if key not in _FIELDS:
                raise ConfigError(f"unknown config field {key!r}")
            values[key] = _coerce(key, text)
    return ExperimentConfig(**values)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def make_parser():
    p = _Parser(prog="irkprec",
                description="Stage-equation preconditioner experiments")
    p.add_argument("positional_command", nargs="?", metavar="command",
                   help=f"one of {','.join(COMMANDS)}")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--ht-rule", action="store_true",
                   help="use the coupled timestep rule (the default)")
    for f in fields(ExperimentConfig):
        choices = f.metadata.get("choices")
        item = get_args(f.type)[0] if get_origin(f.type) is tuple else None
        p.add_argument("--" + f.name.replace("_", "-"),
                       metavar="{" + ",".join(choices) + "}" if choices else None,
                       help=f"comma list of {item.__name__}" if item else None)
    return p


def config_from_argv(argv):
    args = make_parser().parse_args(argv)
    if args.ht and args.ht_rule:
        raise ConfigError("--ht and --ht-rule are mutually exclusive")
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {name: getattr(args, name) for name in _FIELDS}
    command = args.command or args.positional_command or file_values.get("command")
    if not command:
        raise ConfigError("no command given (positional, --command, or config file)")
    overrides["command"] = command
    if args.ht_rule:
        file_values.pop("ht", None)
    return build_config(file_values, overrides)


def run(config):
    """Execute the configured command; returns (rows, exit_code)."""
    validate(config)
    rows = {"kappa": run_kappa, "gmres": run_gmres, "spectrum": run_cloud,
            "fov": run_cloud, "mms": run_mms, "export": run_export}[config.command](config)
    return rows, (2 if any(not row.get("converged", True) for row in rows) else 0)


def _write_output(text, config):
    artifacts = config.command in ARTIFACT_COMMANDS
    if config.out:
        # for artifact commands --out is a directory; the summary goes there
        path = _out_path(config, f"summary.{config.format}") if artifacts else config.out
        with open(path, "w") as fh:
            fh.write(text)
    if artifacts or not config.out:
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
