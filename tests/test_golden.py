"""Golden CLI rows: `gmres` (exact and V-cycle subsolves), `kappa` (dense
and iterative routes) and `mms` on tiny grids of the four problems,
compared with the recorded rows by exact equality, `time_s` dropped.

A change that means to move digits re-records the file and names the
fields it moved; --diff prints, per entry, the largest relative move of
each float field and every other change before the file is rewritten.
Record with one BLAS thread, as conftest.py sets for the test session:
the dense kappa rows' last digits depend on the thread count.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py [--diff]
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from irkprec.cli import ExperimentConfig, run

GOLDEN = Path(__file__).parent / "data" / "golden_rows.json"
PROBLEMS = {"diffusion": "constant-diffusion", "pennes": "variable",
            "wave": "constant-diffusion", "klein-gordon": "variable"}
DROPPED = ("time_s",)


def grid():
    """{name: config} of every recorded run."""
    configs = {}
    for problem, coeff in PROBLEMS.items():
        base = dict(problem=problem, coeff=coeff, stages=(2, 3), mesh_k=(1, 2))
        for subsolve in ("exact", "vcycle"):
            configs[f"gmres-{subsolve}-{problem}"] = ExperimentConfig(
                command="gmres", subsolve=subsolve, **base)
        for route in ("dense", "iterative"):
            configs[f"kappa-{route}-{problem}"] = ExperimentConfig(
                command="kappa", kappa_method=route, **base)
        configs[f"mms-{problem}"] = ExperimentConfig(command="mms", **base)
    # wave Gauss-Legendre Nystrom s=5 runs many iterations, which amplifies
    # any rounding change of the stage apply or the V-cycle
    for subsolve in ("exact", "vcycle"):
        configs[f"gmres-{subsolve}-wave-s5"] = ExperimentConfig(
            command="gmres", problem="wave", coeff="constant-diffusion",
            stages=(5,), mesh_k=(2,), precond=("J", "LD"), subsolve=subsolve)
    return configs


def rows_of(config):
    rows, _ = run(config)
    # a JSON round trip gives the recorded types (tuples become lists)
    return json.loads(json.dumps([{k: v for k, v in row.items() if k not in DROPPED}
                                  for row in rows]))


def moves(old_rows, new_rows):
    """What moved between two recordings of one entry: {field: largest
    relative move} over the float fields that changed, and the other
    changes as (row, field, old, new), a changed row count as row None."""
    rel, other = {}, []
    if len(old_rows) != len(new_rows):
        other.append((None, "rows", len(old_rows), len(new_rows)))
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        for key in sorted(set(a) | set(b)):
            x, y = a.get(key), b.get(key)
            if x == y:
                continue
            if type(x) is float and type(y) is float:
                rel[key] = max(rel.get(key, 0.0),
                               abs(y - x) / abs(x) if x else float("inf"))
            else:
                other.append((i, key, x, y))
    return rel, other


def print_moves(old, new):
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            print(f"{name}: {'added' if name in new else 'removed'}")
            continue
        rel, other = moves(old[name]["rows"], new[name]["rows"])
        if not rel and not other:
            print(f"{name}: unchanged")
            continue
        print(f"{name}: " + ", ".join(f"{k} {v:.3g}" for k, v in sorted(rel.items())))
        for change in other:
            print(f"  row {change[0]} {change[1]}: {change[2]!r} -> {change[3]!r}")


def record(diff=False):
    rows = {name: rows_of(config) for name, config in grid().items()}
    if diff and GOLDEN.exists():
        print_moves(json.loads(GOLDEN.read_text()),
                    {name: {"rows": r} for name, r in rows.items()})
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = []
    for name, config in grid().items():
        lines = ",\n  ".join(json.dumps(row) for row in rows[name])
        entries.append(f"{json.dumps(name)}: {{\"config\": "
                       f"{json.dumps(asdict(config))},\n \"rows\": [\n  {lines}]}}")
    GOLDEN.write_text("{" + ",\n".join(entries) + "}\n")  # one row a line


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_grid_matches_recording(golden):
    assert sorted(golden) == sorted(grid())
    for name, config in grid().items():
        assert golden[name]["config"] == json.loads(json.dumps(asdict(config))), name


@pytest.mark.parametrize("name", sorted(grid()))
def test_rows_bit_identical(golden, name):
    expected = golden[name]["rows"]
    got = rows_of(grid()[name])
    assert len(got) == len(expected)
    moved = [(i, k, expected[i].get(k), row.get(k))
             for i, row in enumerate(got) for k in set(row) | set(expected[i])
             if row.get(k) != expected[i].get(k)]
    assert not moved, moved[:10]


if __name__ == "__main__":
    record(diff="--diff" in sys.argv[1:])
