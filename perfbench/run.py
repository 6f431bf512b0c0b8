"""irkprec benchmark: runs one workload, checks its outputs and prints
its metrics.

    python3 perfbench/run.py --workload gmres-wave --seed 1 --seconds 45 --trace 0

Workloads are defined in perfbench/workloads.py. Every pass runs in a
process of its own, with one BLAS thread. Untraced passes of the whole
workload repeat while one more as long as the longest so far still fits
in --seconds (at least one runs); the end-to-end metrics are medians
over them, in seconds at the reference machine's speed (each library
call's time scaled by the speed probe run around it, see
perfbench/speed.py). --trace 1 adds one traced pass whose outputs must
equal the untraced ones bit for bit; its spans go to
.perfbench_out/spans-<workload>-seed<n>.jsonl.

Lines before the last describe the environment, each pass, every metric
by name and unit, and any failed check. The last line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. An error raised inside a pass ends that pass and counts as a
failed check, as does every output it did not make. Exit code 1, with no
result line, when a pass process dies, hangs or prints no result, or
the sources are missing; 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("gmres-wave", "march-parabolic", "kappa-table")
RUN_DEADLINE_S = 170     # a pass still running then is killed

# Tolerances of the output checks against perfbench/expected.json.
ITERATION_SLACK = 1
MAX_REL_ERROR_LINEAR = 1e-6
REL_TOL_PDE_ERROR = 1e-4
REL_TOL_L2_ERROR = 1e-6
REL_TOL_KAPPA = 1e-6
ORDER_TARGET, ORDER_SLACK = 2.0, 0.1


class BenchmarkError(RuntimeError):
    pass


def child_env():
    """One BLAS thread, below the cap of one per usable core: the speed
    probe runs on one core, and a second BLAS thread makes the dense
    kappa route depend on how busy the other core's host is."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload, seed, timeout, *options):
    cmd = [sys.executable, str(HERE / "workloads.py"), workload,
           "--seed", str(seed), *options]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} pass still running after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_rows(workload, rows, expected):
    """(label, ok) per checked operation of one pass."""
    key = lambda r: (r.get("problem"), r["s"], r["k"], r.get("precond"))
    got = {key(r): r for r in rows}
    checks = []
    for exp in expected:
        row = got.get(key(exp))
        label = f"{workload} " + " ".join(str(v) for v in key(exp) if v is not None)
        if row is None:
            checks.append((label + ": missing", False))
        elif workload == "gmres-wave":
            checks.append((label, row["converged"]
                           and abs(row["iterations"] - exp["iterations"]) <= ITERATION_SLACK
                           and _rel(row["rel_error_pde"], exp["rel_error_pde"])
                           <= REL_TOL_PDE_ERROR))
        elif workload == "march-parabolic":
            checks.append((label, _rel(row["l2_error"], exp["l2_error"])
                           <= REL_TOL_L2_ERROR))
        else:
            ok = (_rel(row["kappa"], exp["kappa"]) <= REL_TOL_KAPPA
                  and row["kappa_method"] == exp["kappa_method"])
            if exp["precond"] == "LD":
                jac = got.get(key(dict(exp, precond="J")))
                ok = ok and jac is not None and row["kappa"] < jac["kappa"]
            checks.append((label, ok))
    if workload == "gmres-wave":
        errors = [r["rel_error_linear"] for r in rows]
        checks.append(("gmres-wave oracle", bool(errors) and all(
            e is not None and e <= MAX_REL_ERROR_LINEAR for e in errors)))
    if workload == "march-parabolic":
        for problem in sorted({r["problem"] for r in expected}):
            orders = {r["observed_order"] for r in rows if r["problem"] == problem}
            checks.append((f"{workload} {problem} order", len(orders) == 1 and
                           abs(orders.pop() - ORDER_TARGET) <= ORDER_SLACK))
    return checks


def end_to_end(passes):
    return {
        "wall_s": (median([p["wall_s"] for p in passes]), "s"),
        "setup_s": (median([p["phases"]["setup"] for p in passes]), "s"),
        "solve_s": (median([p["phases"]["solve"] for p in passes]), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
    }


def report_metrics(values, declared):
    """The declared metrics, in BENCHMARK.json's order and units."""
    if set(values) != {m["name"] for m in declared}:
        raise BenchmarkError("metrics measured differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    out = {}
    for m in declared:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise BenchmarkError(f"{m['name']}: unit {unit} but BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description="irkprec benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "irkprec" / "__init__.py").is_file():
        print(f"no irkprec sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]

    try:
        start = time.perf_counter()
        remaining = lambda: RUN_DEADLINE_S - (time.perf_counter() - start)
        passes, durations = [], []
        while True:
            t0 = time.perf_counter()
            passes.append(run_child(args.workload, args.seed, remaining()))
            durations.append(time.perf_counter() - t0)
            reserve = max(durations) * (2 if args.trace else 1)
            if time.perf_counter() - start + reserve > args.seconds:
                break
        traced = None
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = run_child(args.workload, args.seed, remaining(),
                              "--traced", "--spans", str(spans))

        checks = []
        for q in passes + ([traced] if traced else []):
            checks.append((f"{args.workload} pass ran to the end", q["error"] is None))
            checks += check_rows(args.workload, q["rows"], expected)
        if traced is not None:
            checks.append(("traced outputs equal untraced",
                           traced["rows"] == passes[0]["rows"]))
        failed = [label for label, ok in checks if not ok]

        e2e = end_to_end(passes)
        if args.trace:
            values = {n: tuple(vu) for n, vu in traced["layers"].items()}
            metrics = report_metrics(values, spec["per_layer"])
        else:
            metrics = report_metrics(e2e, spec["end_to_end"])
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = passes[0]["env"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} untraced "
          f"pass(es) in {time.perf_counter() - start:.1f} s (the seed sets only "
          "kappa-table's ARPACK start vector; the manufactured solutions fix "
          "all other inputs)")
    for i, q in enumerate(passes):
        ph = q["phases"]
        print(f"  pass {i}: wall {q['wall_s']:.3f} s, setup {ph['setup']:.3f} s, "
              f"solve {ph['solve']:.3f} s, oracle {ph['oracle']:.3f} s, "
              f"peak rss {q['peak_rss_mb']:.0f} MB; unscaled wall "
              f"{q['raw_wall_s']:.3f} s, probe {q['probe_s'] * 1e3:.3f} ms")
    for q in passes + ([traced] if traced else []):
        if q["error"]:
            print(f"  a {'traced' if q['traced'] else 'untraced'} pass raised {q['error']}")
    summary = dict(e2e)
    if args.workload == "gmres-wave":
        summary["oracle_s"] = (median([q["phases"]["oracle"] for q in passes]), "s")
    summary["failed_frac"] = (len(failed) / len(checks), "ratio")
    for name, (value, unit) in summary.items():
        print(f"  {name} = {value:.6g} {unit}")
    if traced is not None:
        raw_wall = median([q["raw_wall_s"] for q in passes])
        print(f"  traced pass: unscaled wall {traced['raw_wall_s']:.3f} s, "
              f"{traced['raw_wall_s'] - raw_wall:+.3f} s against the untraced "
              f"unscaled median (run-to-run noise); spans add an estimated "
              f"{metrics['trace.overhead_s']['value']:.2e} s")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for label in failed:
        print(f"  FAILED CHECK: {label}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
