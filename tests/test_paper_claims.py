"""The paper's qualitative claims, checked on the CLI's rows at desk scale.

Iterative kappa over k = 2..4 for the four problems (Radau IIA s=2 for
diffusion and Pennes, Gauss-Legendre Nystrom s=3 for wave and
Klein-Gordon), and the observed MMS order over k = 3..5:

- the kinds order as LD < GSL < DU < J < TRIU < none on every row;
- kappa(A) without a preconditioner grows at least 1.4x per mesh level;
- kappa(P_LD^-1 A) stays within a factor 1.15 across the levels, and
  kappa(P_J^-1 A) within 1.35;
- the marches converge at second order in h.

Measured: LD varies by at most 1.134 and J by at most 1.301 (both
Klein-Gordon; wave 1.125 and 1.252, the parabolic rows at most 1.003
and 1.022), `none` grows by at least 1.47x a level (wave), and the MMS
orders are 1.966-1.980.
"""

import pytest

from irkprec.cli import ExperimentConfig, run

PROBLEMS = {"diffusion": ("constant-diffusion", 2), "pennes": ("variable", 2),
            "wave": ("constant-diffusion", 3),
            "klein-gordon": ("variable", 3)}
ORDER = ("LD", "GSL", "DU", "J", "TRIU", "none")
MESH_K = (2, 3, 4)


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def kappas(request):
    """(problem, [{kind: kappa} per level, coarse to fine])."""
    coeff, s = PROBLEMS[request.param]
    rows, _ = run(ExperimentConfig(command="kappa", problem=request.param,
                                   coeff=coeff, stages=(s,), mesh_k=MESH_K,
                                   kappa_method="iterative"))
    levels = {}
    for row in rows:
        levels.setdefault(row["h"], {})[row["precond"]] = row["kappa"]
    assert len(levels) == len(MESH_K)
    return request.param, [levels[h] for h in sorted(levels, reverse=True)]


def test_kinds_keep_the_papers_order(kappas):
    name, levels = kappas
    for k, kappa in zip(MESH_K, levels):
        values = [kappa[kind] for kind in ORDER]
        assert values == sorted(values) and len(set(values)) == len(values), (
            name, k, dict(zip(ORDER, values)))


def test_unpreconditioned_kappa_grows_with_the_mesh(kappas):
    name, levels = kappas
    for coarse, fine in zip(levels, levels[1:]):
        assert fine["none"] >= 1.4 * coarse["none"], name


def test_ld_is_mesh_independent(kappas):
    name, levels = kappas
    ld = [kappa["LD"] for kappa in levels]
    assert max(ld) < 1.15 * min(ld), (name, ld)


def test_j_is_mesh_independent(kappas):
    # J still rises toward its plateau on the hyperbolic rows; a kind that
    # grew like `none` (>= 1.4x a level) would be 1.96x over these levels
    name, levels = kappas
    j = [kappa["J"] for kappa in levels]
    assert max(j) < 1.35 * min(j), (name, j)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_mms_order_is_two(name):
    coeff, s = PROBLEMS[name]
    rows, _ = run(ExperimentConfig(command="mms", problem=name, coeff=coeff,
                                   stages=(s,), mesh_k=(3, 4, 5)))
    assert abs(rows[0]["observed_order"] - 2.0) <= 0.15
