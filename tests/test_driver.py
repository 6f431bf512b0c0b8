import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from irkprec.assembly import (Forcing, assemble_mass, assemble_stiffness,
                              coefficient_preset)
from irkprec.butcher import TableauKind, gauss_legendre, nystrom_from, radau_iia
from irkprec.driver import (ProblemSpec, StepperState, convergence_study,
                            forcing_loads, initial_state, integrate, irk_step,
                            irkn_step, l2_error, method_tableau, mms_problem,
                            timestep_rule)
from irkprec import assembly, driver, stageop
from irkprec.mesh import build_mesh
from irkprec.stageop import StageOperator


class TestTimestepRule:
    def test_radau_exponent(self):
        h = 2.0 ** -4
        assert timestep_rule(h, 2, TableauKind.RADAU_IIA) == pytest.approx(h ** (2.0 / 3.0))

    def test_gauss_legendre_exponent(self):
        h = 2.0 ** -4
        assert timestep_rule(h, 2, TableauKind.GAUSS_LEGENDRE) == pytest.approx(h ** 0.5)
        assert timestep_rule(h, 3, TableauKind.NYSTROM_GAUSS_LEGENDRE) == pytest.approx(h ** (1.0 / 3.0))

    def test_unit_h(self):
        for kind in TableauKind:
            assert timestep_rule(1.0, 4, kind) == 1.0


def ones(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


NO_FORCING = Forcing((), lambda x, y: ())


def constant_profile_problem(mu, poly):
    """Problem whose exact solution is spatially constant: u* = T(t) with
    alpha = beta = 1, so g = T^(mu) + T."""
    T, dT, dmuT = poly
    coeff = coefficient_preset("constant-ones")
    return ProblemSpec(
        name="poly", mu=mu, coeff=coeff,
        exact=lambda x, y, t: T(t) * np.ones_like(np.asarray(x, dtype=float)),
        exact_dt=lambda x, y, t: dT(t) * np.ones_like(np.asarray(x, dtype=float)),
        exact_dmu=lambda x, y, t: dmuT(t) * np.ones_like(np.asarray(x, dtype=float)),
        apply_K=lambda x, y, t: T(t) * np.ones_like(np.asarray(x, dtype=float)),
        g=Forcing((lambda t: dmuT(t) + T(t),), lambda x, y: (ones(x, y),)),
    )


def setup_step(problem, s, h_t, k=1):
    mesh = build_mesh(k)
    M = assemble_mass(mesh)
    F = assemble_stiffness(mesh, problem.coeff)
    tableau = method_tableau("diffusion" if problem.mu == 1 else "wave", s)
    op = StageOperator(tableau, M, F, h_t, problem.mu)
    return mesh, tableau, op


class TestIrkStep:
    def test_zero_data_stays_zero(self):
        problem = constant_profile_problem(1, (lambda t: 0.0,) * 3)
        mesh, tableau, op = setup_step(problem, 2, 0.25)
        state = StepperState(0.0, np.zeros(mesh.num_nodes), None, 0.25)
        from irkprec.driver import direct_solver
        new, _ = irk_step(state, tableau, op, direct_solver, problem, mesh)
        assert np.abs(new.u).max() == 0.0
        assert new.t == 0.25

    def test_backward_euler_closed_form(self):
        # u_t = -u with u0 = 1: one backward Euler step gives 1 / (1 + h_t)
        T = lambda t: math.exp(-t)
        problem = ProblemSpec(
            name="decay", mu=1, coeff=coefficient_preset("constant-ones"),
            exact=lambda x, y, t: T(t) * np.ones_like(np.asarray(x, dtype=float)),
            exact_dt=lambda x, y, t: -T(t) * np.ones_like(np.asarray(x, dtype=float)),
            exact_dmu=lambda x, y, t: -T(t) * np.ones_like(np.asarray(x, dtype=float)),
            apply_K=lambda x, y, t: T(t) * np.ones_like(np.asarray(x, dtype=float)),
            g=NO_FORCING,
        )
        h_t = 0.3
        mesh, _, _ = setup_step(problem, 1, h_t)
        tableau = radau_iia(1)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, problem.coeff)
        op = StageOperator(tableau, M, F, h_t, 1)
        state = initial_state(problem, mesh, h_t)
        from irkprec.driver import direct_solver
        new, _ = irk_step(state, tableau, op, direct_solver, problem, mesh)
        assert np.allclose(new.u, 1.0 / (1.0 + h_t), atol=1e-12)

    def test_exact_for_quadratic_solution(self):
        # Radau IIA s=2 has order 3: quadratic-in-time data is reproduced
        poly = (lambda t: 1.0 + t + t * t,
                lambda t: 1.0 + 2.0 * t,
                lambda t: 1.0 + 2.0 * t)
        problem = constant_profile_problem(1, poly)
        h_t = 0.3
        mesh, tableau, op = setup_step(problem, 2, h_t)
        state = initial_state(problem, mesh, h_t)
        from irkprec.driver import direct_solver
        new, _ = irk_step(state, tableau, op, direct_solver, problem, mesh)
        expected = poly[0](h_t)
        assert np.abs(new.u - expected).max() <= 1e-12

    def test_rejects_wrong_mu(self):
        problem = mms_problem("wave", "constant-diffusion")
        mesh, tableau, op = setup_step(problem, 2, 0.25)
        state = initial_state(problem, mesh, 0.25)
        from irkprec.driver import direct_solver
        with pytest.raises(ValueError):
            irk_step(state, tableau, op, direct_solver, problem, mesh)


class TestIrknStep:
    def test_zero_data_stays_zero(self):
        problem = constant_profile_problem(2, (lambda t: 0.0,) * 3)
        mesh, tableau, op = setup_step(problem, 2, 0.25)
        state = StepperState(0.0, np.zeros(mesh.num_nodes),
                             np.zeros(mesh.num_nodes), 0.25)
        from irkprec.driver import direct_solver
        new, _ = irkn_step(state, tableau, op, direct_solver, problem, mesh)
        assert np.abs(new.u).max() == 0.0
        assert np.abs(new.udot).max() == 0.0

    def test_free_constant_preserved(self):
        # beta = 0, g = 0: constants are in the kernel of K
        coeff = coefficient_preset("constant-diffusion")
        problem = ProblemSpec(
            name="const", mu=2, coeff=coeff,
            exact=lambda x, y, t: 3.0 * np.ones_like(np.asarray(x, dtype=float)),
            exact_dt=lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)),
            exact_dmu=lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)),
            apply_K=lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)),
            g=NO_FORCING,
        )
        mesh = build_mesh(1)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, coeff)
        tableau = nystrom_from(gauss_legendre(2))
        op = StageOperator(tableau, M, F, 0.5, 2)
        state = StepperState(0.0, np.full(mesh.num_nodes, 3.0),
                             np.zeros(mesh.num_nodes), 0.5)
        from irkprec.driver import direct_solver
        new, _ = irkn_step(state, tableau, op, direct_solver, problem, mesh)
        assert np.allclose(new.u, 3.0, atol=1e-12)
        assert np.abs(new.udot).max() <= 1e-12

    def test_exact_for_quadratic_solution(self):
        poly = (lambda t: 1.0 + t + t * t,
                lambda t: 1.0 + 2.0 * t,
                lambda t: 2.0)
        problem = constant_profile_problem(2, poly)
        h_t = 0.3
        mesh, tableau, op = setup_step(problem, 2, h_t)
        state = initial_state(problem, mesh, h_t)
        from irkprec.driver import direct_solver
        new, _ = irkn_step(state, tableau, op, direct_solver, problem, mesh)
        assert np.abs(new.u - poly[0](h_t)).max() <= 1e-12
        assert np.abs(new.udot - poly[1](h_t)).max() <= 1e-12

    def test_requires_nystrom_tableau(self):
        problem = mms_problem("wave", "constant-diffusion")
        mesh = build_mesh(1)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, problem.coeff)
        plain = gauss_legendre(2)
        op = StageOperator(plain, M, F, 0.25, 2)
        state = initial_state(problem, mesh, 0.25)
        from irkprec.driver import direct_solver
        with pytest.raises(ValueError):
            irkn_step(state, plain, op, direct_solver, problem, mesh)


class TestMmsProblem:
    def test_constant_diffusion_closed_form(self):
        # hand substitution: g = (2 pi^2 - 1) e^-t cos(pi x) cos(pi y)
        problem = mms_problem("diffusion", "constant-diffusion")
        rng = np.random.default_rng(0)
        x, y = rng.uniform(-1, 1, (2, 200))
        for t in (0.0, 0.37, 1.5):
            expected = (2.0 * np.pi ** 2 - 1.0) * math.exp(-t) * np.cos(np.pi * x) * np.cos(np.pi * y)
            assert np.abs(problem.g(x, y, t) - expected).max() <= 1e-12

    def test_constant_wave_closed_form(self):
        problem = mms_problem("wave", "constant-diffusion")
        rng = np.random.default_rng(1)
        x, y = rng.uniform(-1, 1, (2, 200))
        t = 0.8
        expected = (2.0 * np.pi ** 2 - 1.0) * math.cos(t) * np.cos(np.pi * x) * np.cos(np.pi * y)
        assert np.abs(problem.g(x, y, t) - expected).max() <= 1e-12

    @pytest.mark.parametrize("name,preset", [
        ("diffusion", "variable-beta-zero"), ("pennes", "variable"),
        ("wave", "variable-beta-zero"), ("klein-gordon", "variable"),
        ("diffusion", "constant-diffusion"), ("pennes", "constant-ones"),
    ])
    def test_sampled_pde_residual(self, name, preset):
        problem = mms_problem(name, preset)
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-1, 1, (2, 1000))
        t = rng.uniform(0.0, 2.0)
        assert np.abs(problem.pde_residual(x, y, t)).max() <= 1e-10

    def test_apply_k_against_finite_differences(self):
        # independent check of the analytic K u*: second-order FD stencil
        problem = mms_problem("klein-gordon", "variable")
        coeff = problem.coeff
        eps = 1e-5
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(-0.9, 0.9, (2, 50))
        t = 0.4

        def u(x, y):
            return problem.exact(x, y, t)

        for x0, y0 in zip(xs, ys):
            def flux_x(x):
                return coeff.alpha(x, y0) * (u(x + eps, y0) - u(x - eps, y0)) / (2 * eps)

            def flux_y(y):
                return coeff.alpha(x0, y) * (u(x0, y + eps) - u(x0, y - eps)) / (2 * eps)

            div = ((flux_x(x0 + eps) - flux_x(x0 - eps)) / (2 * eps)
                   + (flux_y(y0 + eps) - flux_y(y0 - eps)) / (2 * eps))
            k_fd = -div + coeff.beta(x0, y0) * u(x0, y0)
            assert abs(problem.apply_K(x0, y0, t) - k_fd) <= 2e-4

    def test_time_derivative_against_finite_differences(self):
        problem = mms_problem("wave", "constant-diffusion")
        eps = 1e-5
        x, y, t = 0.3, -0.2, 0.9
        fd2 = (problem.exact(x, y, t + eps) - 2 * problem.exact(x, y, t)
               + problem.exact(x, y, t - eps)) / eps ** 2
        assert abs(problem.exact_dmu(x, y, t) - fd2) <= 1e-5

    def test_neumann_compatibility(self):
        problem = mms_problem("pennes", "variable")
        eps = 1e-5
        ys = np.linspace(-1, 1, 11)
        t = 0.2
        for xb in (-1.0, 1.0):
            dd = (problem.exact(xb + eps, ys, t) - problem.exact(xb - eps, ys, t)) / (2 * eps)
            assert np.abs(dd).max() <= 1e-9
        for yb in (-1.0, 1.0):
            dd = (problem.exact(ys, yb + eps, t) - problem.exact(ys, yb - eps, t)) / (2 * eps)
            assert np.abs(dd).max() <= 1e-9

    @pytest.mark.parametrize("name,preset", [
        ("diffusion", "constant-ones"), ("wave", "variable"),
        ("pennes", "constant-diffusion"), ("klein-gordon", "variable-beta-zero"),
    ])
    def test_incompatible_pairs_rejected(self, name, preset):
        with pytest.raises(ValueError):
            mms_problem(name, preset)

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            mms_problem("advection", "variable")


class TestIntegration:
    def test_integrate_hits_final_time(self):
        problem = mms_problem("diffusion", "constant-diffusion")
        mesh = build_mesh(2)
        tableau = radau_iia(2)
        state, M = integrate(problem, tableau, mesh, 0.21, 0.5)
        assert state.t == pytest.approx(0.5, abs=1e-14)

    def test_integrate_factors_once(self, monkeypatch):
        # Radau IIA s=2 has one complex-conjugate eigenvalue pair: one
        # complex LU serves every step of the march
        calls = []

        def counting_splu(A, *args, **kwargs):
            calls.append(A.shape)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(stageop, "splu", counting_splu)
        problem = mms_problem("diffusion", "constant-diffusion")
        state, _ = integrate(problem, radau_iia(2), build_mesh(2), 0.1, 0.5)
        assert round(state.t / state.h_t) == 5
        assert len(calls) == 1

    def test_integrate_assembles_each_forcing_mode_once(self, monkeypatch):
        # one joint pass over the forcing modes for the whole march, not one
        # load per stage per step
        calls = []

        def counting_loads(mesh, profiles):
            loads = assembly.assemble_loads(mesh, profiles)
            calls.append(loads.shape)
            return loads

        monkeypatch.setattr(driver, "assemble_loads", counting_loads)
        monkeypatch.setattr(stageop, "assemble_loads", counting_loads)
        problem = mms_problem("diffusion", "constant-diffusion")
        mesh = build_mesh(2)
        state, _ = integrate(problem, radau_iia(2), mesh, 0.1, 0.5)
        assert round(state.t / state.h_t) == 5
        assert calls == [(2, mesh.num_nodes)]

    def test_quick_convergence_order(self):
        study = convergence_study("diffusion", "constant-diffusion", 2,
                                  [2, 3, 4], t_end=0.5)
        assert 1.7 <= study["order"] <= 2.35
        assert study["errors"][0] > study["errors"][-1]

    def test_one_level_study_has_no_order(self):
        study = convergence_study("diffusion", "constant-diffusion", 2, [2],
                                  t_end=0.25)
        assert study["order"] is None
        assert len(study["errors"]) == 1

    def test_l2_error_zero_for_exact(self):
        mesh = build_mesh(1)
        M = assemble_mass(mesh)
        u = np.ones(mesh.num_nodes)
        assert l2_error(M, u, u) == 0.0


MATCHING_PRESETS = {
    "diffusion": ("constant-diffusion", "variable-beta-zero"),
    "wave": ("constant-diffusion", "variable-beta-zero"),
    "pennes": ("constant-ones", "variable"),
    "klein-gordon": ("constant-ones", "variable"),
}


class TestForcingModes:
    def test_g_sums_the_modes(self):
        problem = mms_problem("pennes", "variable")
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-1, 1, (2, 50))
        expected = sum(a(0.3) * p for a, p in zip(problem.g.amplitudes,
                                                  problem.g.profiles(x, y)))
        assert np.array_equal(problem.g(x, y, 0.3), expected)

    def test_no_modes_gives_zeros_shaped_like_x(self):
        problem = replace(constant_profile_problem(1, (lambda t: 0.0,) * 3),
                          g=NO_FORCING)
        x = np.ones((3, 4))
        assert np.array_equal(problem.g(x, x, 1.0), np.zeros((3, 4)))
        assert forcing_loads(problem, build_mesh(1)).shape == (0, 25)

    @settings(derandomize=True, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(MATCHING_PRESETS)),
           variable=st.booleans(), s=st.integers(1, 3),
           t_prev=st.floats(0.0, 5.0), h_t=st.floats(1e-3, 1.0),
           seed=st.integers(0, 2 ** 16))
    def test_mode_loads_match_per_stage_assembly(self, name, variable, s,
                                                 t_prev, h_t, seed):
        # the stage rhs a step builds from the mode loads equals the one
        # assembled stage by stage from the summed forcing g, block i being
        # <g(., t_i), phi> - F (u + (mu - 1) h_t c_i udot)
        problem = mms_problem(name, MATCHING_PRESETS[name][variable])
        mesh = build_mesh(2)
        tableau = method_tableau(name, s)
        M = assemble_mass(mesh)
        F = assemble_stiffness(mesh, problem.coeff)
        op = StageOperator(tableau, M, F, h_t, problem.mu)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(mesh.num_nodes)
        udot = rng.standard_normal(mesh.num_nodes) if problem.mu == 2 else None
        state = StepperState(t_prev, u, udot, h_t)
        seen = []

        def capture(op, rhs):
            seen.append(rhs)
            return np.zeros(op.size), None

        step = irk_step if problem.mu == 1 else irkn_step
        step(state, tableau, op, capture, problem, mesh,
             forcing_loads(problem, mesh))
        blocks = []
        for ci in tableau.c:
            t_i = t_prev + ci * h_t
            load = assembly.assemble_load(mesh, lambda x, y: problem.g(x, y, t_i))
            v = u if udot is None else u + h_t * ci * udot
            blocks.append(load - F @ v)
        expected = np.concatenate(blocks)
        assert (np.linalg.norm(seen[0] - expected)
                <= 1e-13 * np.linalg.norm(expected))

    @pytest.mark.parametrize("name,preset", [
        (name, preset) for name in sorted(MATCHING_PRESETS)
        for preset in MATCHING_PRESETS[name]])
    def test_joint_mode_loads_match_each_mode_alone(self, name, preset):
        # one joint pass gives each mode's load bit for bit as assembling
        # that mode's closed form on its own does
        problem = mms_problem(name, preset)
        *_, forcing = closed_forms(name, problem.coeff)
        for k in range(1, 6):
            mesh = build_mesh(k)
            joint = forcing_loads(problem, mesh)
            alone = [assembly.assemble_load(mesh, p) for _, p in forcing]
            assert len(joint) == len(alone) == 2
            for got, want in zip(joint, alone):
                assert same_bits(got, want)


def closed_forms(name, coeff):
    """Reference closed forms of mms_problem's manufactured problem, each
    function its own plain formula, w and grad w recomputed wherever they
    appear: (exact, exact_dt, apply_K, g, forcing). mms_problem must stay
    bit for bit equal to them."""
    pi = np.pi

    def w(x, y):
        return np.cos(pi * x) * np.cos(pi * y)

    def grad_w(x, y):
        return (-pi * np.sin(pi * x) * np.cos(pi * y),
                -pi * np.cos(pi * x) * np.sin(pi * y))

    if name in ("diffusion", "pennes"):
        T, dT = (lambda t: math.exp(-t)), (lambda t: -math.exp(-t))
        dmuT = dT
    else:
        T, dT = (lambda t: math.cos(t)), (lambda t: -math.sin(t))
        dmuT = lambda t: -math.cos(t)

    def K_of_w(x, y):
        gax, gay = coeff.grad_alpha(x, y)
        wx, wy = grad_w(x, y)
        return (2.0 * pi ** 2 * coeff.alpha(x, y) * w(x, y)
                - gax * wx - gay * wy + coeff.beta(x, y) * w(x, y))

    def g(x, y, t):
        out = np.zeros_like(np.asarray(x, dtype=float))
        return out + dmuT(t) * w(x, y) + T(t) * K_of_w(x, y)

    return (lambda x, y, t: T(t) * w(x, y),
            lambda x, y, t: dT(t) * w(x, y),
            lambda x, y, t: T(t) * K_of_w(x, y),
            g, ((dmuT, w), (T, K_of_w)))


def same_bits(a, b):
    """a == b entry by entry, and the bit patterns match too."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            and a.tobytes() == b.tobytes())


@pytest.fixture(scope="module")
def quad_points_k5():
    """The x and y of the degree-4 rule's points on build_mesh(5), as
    assembly hands them to a forcing profile (compact on this grid),
    broadcast to every point: two C-contiguous (T, 6) arrays."""
    seen = []

    def record(x, y):
        seen.append((x, y))
        return x

    assembly.assemble_load(build_mesh(5), record)
    return [np.ascontiguousarray(c).reshape(-1, 6) for c in np.broadcast_arrays(*seen[0])]


class TestForcingClosedForms:
    @pytest.mark.parametrize("name,preset", [
        (name, preset) for name in sorted(MATCHING_PRESETS)
        for preset in MATCHING_PRESETS[name]])
    def test_bit_for_bit(self, quad_points_k5, name, preset):
        x, y = quad_points_k5
        problem = mms_problem(name, preset)
        exact, exact_dt, apply_K, g, forcing = closed_forms(name, problem.coeff)
        for a, p, (a_ref, p_ref) in zip(problem.g.amplitudes,
                                        problem.g.profiles(x, y), forcing,
                                        strict=True):
            assert same_bits(p, p_ref(x, y))
            assert all(a(t) == a_ref(t) for t in (0.0, 0.37, 1.9))
        for t in (0.0, 0.37, 1.9):
            assert same_bits(problem.exact(x, y, t), exact(x, y, t))
            assert same_bits(problem.exact_dt(x, y, t), exact_dt(x, y, t))
            assert same_bits(problem.apply_K(x, y, t), apply_K(x, y, t))
            assert same_bits(problem.g(x, y, t), g(x, y, t))
