"""The benchmark's workload runners against `irkprec.cli.run` on tiny
grids, traced against untraced passes, and the output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from spans import Tracer, layer_metrics, self_times, span_cost  # noqa: E402
from speed import REFERENCE_PROBE_S  # noqa: E402
from workloads import WORKLOADS, Clock, run_configs  # noqa: E402

from irkprec import cli  # noqa: E402

TINY = {
    "gmres-wave": [dict(mesh_k=(2, 3))],
    "march-parabolic": [dict(mesh_k=(2, 3))],
    "kappa-table": [dict(mesh_k=(1, 2)),
                    dict(mesh_k=(1, 2), kappa_method="iterative", seed=5)],
}
COMPARED = ("iterations", "converged", "rel_residual", "true_rel_residual",
            "rel_error_linear", "rel_error_pde", "l2_error", "observed_order",
            "kappa", "kappa_method", "h_t", "method")


def tiny_configs(name, overrides):
    return [replace(c, **overrides) for c in WORKLOADS[name]]


def key(row):
    return (row["problem"], row["s"], row["h"], row.get("precond"))


@pytest.mark.parametrize("name,overrides",
                         [(n, o) for n, os in TINY.items() for o in os])
def test_runner_matches_cli(name, overrides):
    configs = tiny_configs(name, overrides)
    ours = {key(r): r for r in run_configs(configs, Clock())["rows"]}
    theirs = []
    for config in configs:
        rows, code = cli.run(config)
        assert code == 0
        theirs += rows
    assert len(theirs) == len(ours)
    for row in theirs:
        mine = ours[key(row)]
        for field in COMPARED:
            if field in row:
                assert mine[field] == row[field], (key(row), field)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_pass_is_bit_identical(name):
    configs = tiny_configs(name, TINY[name][0])
    plain = run_configs(configs, Clock())
    tracer = Tracer()
    traced = run_configs(configs, Clock(tracer))
    assert traced["rows"] == plain["rows"]
    metrics = layer_metrics(tracer.spans, traced, span_cost())
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {n: u for n, (_, u) in metrics.items()} == declared
    if name == "gmres-wave":
        assert metrics["stageop.apply_calls"][0] > 0
        assert metrics["krylov.reference_calls"][0] == 2
        assert 0 < metrics["krylov.self_s"][0] < metrics["krylov.gmres_s"][0]
    if name == "march-parabolic":
        assert metrics["driver.solver_calls"][0] == metrics["driver.steps"][0] > 0
    if name == "kappa-table":
        assert metrics["analysis.kappa_dense_calls"][0] == 6


def test_self_time_subtracts_covered_child_intervals():
    spans = [["root", 0.0, 10.0, -1, {}],
             ["a", 1.0, 3.0, 0, {}],
             ["b", 2.0, 5.0, 0, {}],      # overlaps a: [1, 5] covered
             ["c", 2.5, 2.7, 2, {}]]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.8, 0.2])


def test_checks_flag_wrong_outputs():
    expected = json.loads((Path(run.HERE) / "expected.json").read_text())
    rows = [dict(r) for r in expected["kappa-table"]]
    assert all(ok for _, ok in run.check_rows("kappa-table", rows, expected["kappa-table"]))
    rows[2]["kappa"] *= 1 + 1e-5
    failed = [label for label, ok in run.check_rows("kappa-table", rows,
                                                    expected["kappa-table"]) if not ok]
    assert failed == ["kappa-table diffusion 2 4 LD"]


def test_clock_scales_each_stretch_by_the_probes_around_it():
    class Probe:
        readings = iter([1.0, 3.0, 2.0])

        def measure(self):
            return next(self.readings) * REFERENCE_PROBE_S

    clock = Clock(probe=Probe())
    clock.call("setup", "a", time.sleep, 0.01)
    clock.call("solve", "b", time.sleep, 0.02)
    scaled, raw = clock.finish()
    assert raw["setup"] >= 0.01 and raw["solve"] >= 0.02
    assert scaled["setup"] == pytest.approx(raw["setup"] / 2.0)
    assert scaled["solve"] == pytest.approx(raw["solve"] / 2.5)
    assert raw["other"] / 2.5 <= scaled["other"] <= raw["other"] / 2.0
