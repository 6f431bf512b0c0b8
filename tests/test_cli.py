import json
import os
from dataclasses import fields, replace
from typing import get_args, get_origin

import numpy as np
import pytest

from irkprec import analysis, cli, driver
from irkprec.assembly import assemble_mass, assemble_stiffness
from irkprec.cli import (ExperimentConfig, build_config, config_from_argv,
                         emit, emit_csv, main, make_parser, parse_config_file,
                         run, run_cloud, run_export, run_gmres, run_kappa,
                         validate)
from irkprec.errors import ConfigError
from irkprec.mesh import MAX_LEVEL, build_mesh
from irkprec.precond import build_preconditioner
from irkprec.stageop import StageOperator


# one valid, non-default text per ExperimentConfig field
FIELD_TEXT = {
    "command": "gmres", "problem": "diffusion", "coeff": "variable-beta-zero",
    "stages": "2, 3", "mesh_k": "1,2", "ht": "0.5,0.25", "precond": "LD, GSL",
    "subsolve": "exact", "tol": "1e-6", "out": "table.csv", "format": "json",
    "seed": "3", "n_angles": "64", "t_end": "0.25", "kappa_method": "dense",
    "max_iter": "50",
}


def has_declared_type(value, kind):
    if get_origin(kind) is tuple:
        return isinstance(value, tuple) and all(isinstance(v, get_args(kind)[0])
                                                for v in value)
    return isinstance(value, kind)


def tiny_config(**kw):
    base = dict(command="kappa", problem="wave", coeff="constant-diffusion",
                stages=(1, 2), mesh_k=(1,), precond=("LD",),
                kappa_method="dense")
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_file_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\ncommand = kappa\nstages = 2,3\nmesh-k = 1\n"
            "tol = 1e-6  # inline comment\nprecond = LD,GSL\n")
        values = parse_config_file(path)
        config = build_config(values)
        assert config.command == "kappa"
        assert config.stages == (2, 3)
        assert config.mesh_k == (1,)
        assert config.tol == 1e-6
        assert config.precond == ("LD", "GSL")

    @pytest.mark.parametrize("f", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_flag_and_file_key_agree(self, tmp_path, f):
        # the flag and the file key of a field are parsed by the same code
        # to the field's declared type, and checked only by validate
        text = FIELD_TEXT[f.name]
        path = tmp_path / "exp.cfg"
        path.write_text(f"command = kappa\n{f.name} = {text}\n")
        flag = "--" + f.name.replace("_", "-")
        from_flag = config_from_argv(["--command", "kappa", flag, text])
        from_file = config_from_argv(["--config", str(path)])
        assert from_flag == from_file
        value = getattr(from_flag, f.name)
        assert value != f.default
        assert has_declared_type(value, f.type)
        action = next(a for a in make_parser()._actions if flag in a.option_strings)
        assert action.dest == f.name
        assert action.type is None and action.choices is None

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("command = kappa\nstages = 2,3\n")
        config = config_from_argv(["--config", str(path), "--stages", "4"])
        assert config.stages == (4,)

    def test_ht_and_rule_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            config_from_argv(["kappa", "--ht", "0.5", "--ht-rule"])

    def test_missing_command(self):
        with pytest.raises(ConfigError):
            config_from_argv(["--stages", "2"])

    def test_unknown_field_in_file(self, tmp_path):
        # `timesteps` is a method of ExperimentConfig, not a field
        path = tmp_path / "exp.cfg"
        for key in ("bogus", "timesteps"):
            path.write_text(f"command = kappa\n{key} = 3\n")
            with pytest.raises(ConfigError):
                config_from_argv(["--config", str(path)])

    def test_validate_rejects_incompatible_pair(self):
        with pytest.raises(ConfigError):
            validate(tiny_config(problem="wave", coeff="constant-ones"))

    def test_validate_rejects_bad_stage(self):
        with pytest.raises(ConfigError):
            validate(tiny_config(stages=(7,)))

    @pytest.mark.parametrize("t_end", [0.0, -0.5])
    def test_validate_rejects_nonpositive_t_end(self, t_end):
        with pytest.raises(ConfigError):
            validate(tiny_config(command="mms", t_end=t_end))

    def test_validate_rejects_max_iter_below_one(self):
        with pytest.raises(ConfigError):
            validate(tiny_config(command="gmres", max_iter=0))

    def test_validate_rejects_mesh_k_above_max_level(self):
        with pytest.raises(ConfigError):
            validate(tiny_config(command="gmres", mesh_k=(1, MAX_LEVEL + 1)))

    def test_validate_dense_guard_up_front(self):
        with pytest.raises(ConfigError):
            validate(tiny_config(stages=(5,), mesh_k=(7,), kappa_method="dense"))

    def test_validate_reports_cloud_violations(self):
        config = tiny_config(command="spectrum", stages=(5,), mesh_k=(7,))
        assert validate(config) == [(5, 7)]


class TestKappaCommand:
    def test_row_grid_and_unpreconditioned(self):
        config = tiny_config(precond=("LD", "GSL"))
        rows = run_kappa(config)
        # 2 stages x 1 mesh x (1 none + 2 kinds)
        assert len(rows) == 6
        assert [r["precond"] for r in rows[:3]] == ["none", "LD", "GSL"]
        assert all(r["kappa"] >= 1.0 for r in rows)

    def test_empty_precond_list(self):
        rows = run_kappa(tiny_config(precond=()))
        assert [r["precond"] for r in rows] == ["none", "none"]

    def test_explicit_ht_list(self):
        config = tiny_config(stages=(2,), ht=(0.5, 0.1), precond=())
        rows = run_kappa(config)
        assert [r["h_t"] for r in rows] == [0.5, 0.1]

    def test_deterministic_rerun(self):
        config = tiny_config(stages=(2,), precond=("LD", "J"),
                             kappa_method="iterative", seed=11)
        text1 = emit_csv(run_kappa(config))
        text2 = emit_csv(run_kappa(config))
        assert text1 == text2

    def test_ld_improves_on_unpreconditioned(self):
        rows = run_kappa(tiny_config(stages=(2,), precond=("LD",)))
        by_kind = {r["precond"]: r["kappa"] for r in rows}
        assert by_kind["LD"] < by_kind["none"]

    @pytest.mark.parametrize("command,route", [
        ("kappa", "dense"), ("kappa", "iterative"), ("spectrum", "dense"),
        ("fov", "dense")])
    def test_rows_need_no_factored_preconditioner(self, tmp_path, monkeypatch,
                                                  command, route):
        # these routes use only the s x s matrix P: no subsolver LU is built
        config = tiny_config(command=command, stages=(2,), precond=("J", "LD"),
                             kappa_method=route, out=str(tmp_path), n_angles=16)
        ws = cli._Workspace(config)
        M, F = ws.matrices(1)
        op = ws.operator(2, 1, ws.mesh(1).h)
        expected = analysis.condition_number(
            op, build_preconditioner(ws.tableau(2), "LD", M, F, op.h_t, ws.mu))

        def refuse(*args, **kwargs):
            raise AssertionError("build_preconditioner called")

        monkeypatch.setattr(cli, "build_preconditioner", refuse)
        rows, code = run(replace(config, ht=(op.h_t,)))
        assert code == 0
        assert [r["precond"] for r in rows] == ["none", "J", "LD"]
        if command != "fov":
            assert rows[2]["kappa"] == pytest.approx(expected, rel=1e-6)


class TestGmresCommand:
    def test_rows_and_convergence(self):
        config = tiny_config(command="gmres", problem="pennes",
                             coeff="variable", stages=(2,), mesh_k=(2,),
                             precond=("LD", "GSL"), subsolve="vcycle")
        rows = run_gmres(config)
        assert len(rows) == 2
        for row in rows:
            assert row["converged"]
            assert row["rel_residual"] <= config.tol
            assert row["rel_error_linear"] <= 1e-6
            assert row["iterations"] >= 1
            assert 0.0 <= row["rel_error_pde"] < 1.0

    def test_huge_tolerance_converges_immediately(self):
        config = tiny_config(command="gmres", problem="pennes",
                             coeff="variable", stages=(2,), mesh_k=(1,),
                             precond=("LD",), subsolve="exact", tol=1.0)
        rows = run_gmres(config)
        assert rows[0]["iterations"] <= 1

    @pytest.mark.parametrize("problem", ["diffusion", "wave"])
    def test_pde_error_matches_one_direct_step(self, problem):
        # the CLI's first step equals one driver step with the direct solver
        config = tiny_config(command="gmres", problem=problem, stages=(2,),
                             mesh_k=(2,), precond=("LD",), subsolve="exact",
                             tol=1e-12)
        rows = run_gmres(config)
        h_t = rows[0]["h_t"]
        mesh = build_mesh(2)
        spec = driver.mms_problem(problem, config.coeff)
        tableau = driver.method_tableau(problem, 2)
        M = assemble_mass(mesh)
        op = StageOperator(tableau, M, assemble_stiffness(mesh, spec.coeff),
                           h_t, spec.mu)
        step = driver.irk_step if spec.mu == 1 else driver.irkn_step
        state, _ = step(driver.initial_state(spec, mesh, h_t), tableau, op,
                        driver.direct_solver, spec, mesh)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        err = driver.l2_error(M, state.u, spec.exact(x, y, state.t))
        assert rows[0]["rel_error_pde"] == pytest.approx(err, rel=1e-6)

    def test_vcycle_iterations_flat_in_k(self):
        # variable coefficients, where Galerkin and re-assembled coarse
        # operators differ: LD with V-cycle subsolves stays h-independent
        config = tiny_config(command="gmres", problem="klein-gordon",
                             coeff="variable", stages=(3,), mesh_k=(4, 5),
                             precond=("J", "LD"), subsolve="vcycle")
        rows = run_gmres(config)
        assert all(row["converged"] for row in rows)
        ld = [row["iterations"] for row in rows if row["precond"] == "LD"]
        assert len(ld) == 2
        assert max(ld) <= 25
        assert ld[1] - ld[0] <= 2

    def test_nonconvergence_flagged_not_dropped(self):
        config = tiny_config(command="gmres", problem="pennes",
                             coeff="variable", stages=(3,), mesh_k=(2,),
                             precond=("J",), subsolve="exact",
                             tol=1e-12, max_iter=1)
        rows = run_gmres(config)
        assert len(rows) == 1
        assert not rows[0]["converged"]
        _, code = run(config)
        assert code == 2


CLOUD_STATS = {"spectrum": ["min_abs_eig", "kappa"], "fov": ["fov_min_distance"]}
CELL_COLUMNS = ["problem", "coeff", "method", "s", "h", "h_t", "precond"]


class TestCloudCommands:
    @pytest.mark.parametrize("command", sorted(CLOUD_STATS))
    def test_spectrum_files_and_summary(self, tmp_path, command):
        config = tiny_config(command=command, stages=(2,), mesh_k=(1,),
                             precond=("LD",), out=str(tmp_path), n_angles=16)
        rows = run_cloud(config, validate(config))
        assert len(rows) == 2  # none + LD
        # s * N eigenvalues, or one boundary point per angle
        n_points = 2 * 25 if command == "spectrum" else 16
        for row in rows:
            assert row["file"].startswith(f"{command}_")
            data = np.loadtxt(tmp_path / row["file"], delimiter=",", skiprows=1)
            assert data.shape == (n_points, 2)
            assert b"\r" not in (tmp_path / row["file"]).read_bytes()
        stat = CLOUD_STATS[command][0]
        assert rows[1][stat] > rows[0][stat]

    @pytest.mark.parametrize("command", sorted(CLOUD_STATS))
    def test_guard_violation_produces_warning_row(self, tmp_path, command):
        config = tiny_config(command=command, stages=(5,), mesh_k=(1, 7),
                             precond=("LD",), out=str(tmp_path), n_angles=16)
        rows = run_cloud(config, validate(config))
        assert len(rows) == 3  # none + LD at k=1, one skipped row at k=7
        assert rows[2]["precond"] == "skipped"
        assert "exceeds dense guard" in rows[2]["warning"]
        columns = CELL_COLUMNS + CLOUD_STATS[command] + ["file", "warning"]
        assert [list(r) for r in rows] == [columns] * 3
        assert all(rows[2][c] is None for c in CLOUD_STATS[command])
        assert rows[2]["file"] == ""

    def test_fov_single_entry_matrix(self, tmp_path):
        config = tiny_config(command="fov", problem="klein-gordon",
                             coeff="constant-ones", stages=(1,), mesh_k=(1,),
                             precond=(), out=str(tmp_path), n_angles=16)
        _, code = run(config)
        assert code == 0
        files = list(tmp_path.glob("fov_*.csv"))
        assert len(files) == 1


class TestExportCommand:
    def test_artifacts_round_trip(self, tmp_path):
        from irkprec.assembly import read_matrix_market
        from irkprec.butcher import tableau_from_json
        from irkprec.mesh import read_mesh_text

        config = tiny_config(command="export", stages=(2,), mesh_k=(1,),
                             out=str(tmp_path))
        rows = run_export(config)
        names = {r["file"] for r in rows}
        assert len(names) == len(rows) == 4
        t = tableau_from_json((tmp_path / "tableau_nystrom-gauss-legendre_2.json").read_text())
        assert t.s == 2 and t.b_prime is not None
        nodes, tris = read_mesh_text(tmp_path / "mesh_k1.txt")
        assert nodes.shape == (25, 2) and tris.shape == (32, 3)
        M = read_matrix_market(tmp_path / "mass_k1.mtx")
        assert abs(M.sum() - 4.0) <= 1e-12


class TestEmitters:
    def test_csv_escapes_none(self):
        text = emit_csv([{"a": 1, "b": None}])
        assert text.splitlines()[1] == "1,"

    def test_json_round_trip(self):
        config = tiny_config(stages=(1,), precond=(), format="json")
        rows = run_kappa(config)
        parsed = json.loads(emit(rows, config))
        assert parsed[0]["precond"] == "none"

    def test_markdown_kappa_pivot(self):
        config = tiny_config(stages=(1, 2), precond=("LD", "DU"), format="md")
        rows = run_kappa(config)
        text = emit(rows, config)
        lines = text.splitlines()
        assert "kappa(A)" in lines[0]
        assert "kappa(P_LD^-1 A)" in lines[0]
        assert len(lines) == 2 + 2  # header, rule, one row per (s, h)

    def test_single_level_mms_has_no_order(self):
        config = tiny_config(command="mms", problem="diffusion",
                             coeff="constant-diffusion", stages=(2,),
                             mesh_k=(2,), t_end=0.25)
        rows, code = run(config)
        assert code == 0
        assert rows[0]["observed_order"] is None
        header, line = emit_csv(rows).splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert cells["observed_order"] == ""

    def test_mms_command_rows(self):
        config = tiny_config(command="mms", problem="diffusion",
                             coeff="constant-diffusion", stages=(2,),
                             mesh_k=(2, 3), t_end=0.25)
        rows, code = run(config)
        assert code == 0
        assert len(rows) == 2
        assert rows[0]["l2_error"] > rows[1]["l2_error"]


class TestMain:
    def test_end_to_end_csv_file(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["kappa", "--problem", "wave", "--coeff",
                     "constant-diffusion", "--stages", "1", "--mesh-k", "1",
                     "--precond", "LD", "--kappa-method", "dense",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("problem,coeff,method,s,h,h_t,precond,kappa")
        assert len(lines) == 3

    def test_bad_config_exit_code(self, capsys):
        assert main(["kappa", "--problem", "wave", "--coeff", "constant-ones"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key,text", [
        ("problem", "foo"), ("tol", "abc"), ("n_angles", "x"),
        ("precond", "LD,XX"), ("stages", "2,x"), ("format", "xml")])
    def test_bad_values_are_config_errors(self, tmp_path, capsys, source, key, text):
        if source == "flag":
            argv = ["kappa", "--" + key.replace("_", "-"), text]
        else:
            path = tmp_path / "exp.cfg"
            path.write_text(f"{key} = {text}\n")
            argv = ["kappa", "--config", str(path)]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["kappa", "--bogus", "1"], ["kappa", "--tol"]])
    def test_bad_arguments_are_config_errors(self, capsys, argv):
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err

    def test_unreadable_config_file(self, tmp_path, capsys):
        assert main(["kappa", "--config", str(tmp_path / "missing.cfg")]) == 1
        assert "config error: cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mms", "--t-end", "0"],
        ["gmres", "--max-iter", "0"],
        ["kappa", "--mesh-k", str(MAX_LEVEL + 1)],
        ["mms", "--t-end", "inf"],
        ["kappa", "--ht", "0.1,nan"],
        ["gmres", "--tol", "nan"],
        ["kappa", "--kappa-method", "iterative", "--seed", "-1"],
    ])
    def test_out_of_range_values_are_config_errors(self, capsys, argv):
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
