"""Time integration (IRK / IRK-Nystrom), manufactured-solution problems,
and PDE-level error measurement."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import (Forcing, assemble_loads, assemble_mass,
                       assemble_stiffness, coefficient_preset)
from .butcher import TableauKind, gauss_legendre, nystrom_from, radau_iia
from .krylov import check_direct_size
from .mesh import build_mesh
from .stageop import StageOperator, build_stage_rhs

PROBLEM_NAMES = ("diffusion", "pennes", "wave", "klein-gordon")


@dataclass
class ProblemSpec:
    """A PDE instance with a manufactured exact solution and its forcing.

    The forcing g is an assembly.Forcing: g(x, y, t) = sum_m a_m(t)
    p_m(x, y), and it carries its modes. A manufactured solution
    u* = T(t) w(x, y) has g = T^(mu)(t) w + T(t) K w, two fixed spatial
    profiles scaled by functions of time alone. Since the load <g, phi>
    is linear in g, every stage load is sum_m a_m(t) <p_m, phi>:
    stageop.build_stage_rhs assembles the two mode loads in one joint
    pass whatever s is (its cost: the assembly module docstring) and
    combines them, for `gmres`' one step as for every step of a march.
    Called as a function, g gives the values of the summed forcing.
    """

    name: str
    mu: int
    coeff: object
    exact: Callable          # u*(x, y, t)
    exact_dt: Callable       # du*/dt
    exact_dmu: Callable      # mu-th time derivative of u*
    apply_K: Callable        # (K u*)(x, y, t) in closed form
    g: Forcing               # forcing so that d^mu u/dt^mu = -K u + g

    def pde_residual(self, x, y, t):
        """Sampled residual g - d^mu u*/dt^mu - K u* (zero for a correct
        manufactured forcing)."""
        return self.g(x, y, t) - self.exact_dmu(x, y, t) - self.apply_K(x, y, t)


@dataclass
class StepperState:
    t: float
    u: np.ndarray
    udot: Optional[np.ndarray]
    h_t: float


def timestep_rule(h, s, kind):
    """Coupled timestep h_t = h^((p+1)/q) for P1 elements (p = 1), so
    h^(2/q), with q = 2s for Gauss-Legendre (and its Nystrom methods) and
    q = 2s - 1 for Radau IIA."""
    kind = TableauKind(kind) if not isinstance(kind, TableauKind) else kind
    q = 2 * s - 1 if kind is TableauKind.RADAU_IIA else 2 * s
    return float(h) ** (2 / q)


def _beta_is_zero(coeff):
    xs = np.linspace(-0.97, 0.97, 13)
    X, Y = np.meshgrid(xs, xs)
    return float(np.abs(np.asarray(coeff.beta(X, Y))).max()) == 0.0


def mms_problem(name, coeff):
    """Manufactured problem u* = T(t) cos(pi x) cos(pi y) with T = exp(-t)
    for the parabolic problems and T = cos(t) for the hyperbolic ones.

    The spatial profile satisfies the homogeneous Neumann condition on
    [-1,1]^2 exactly. `coeff` is a CoefficientField or preset name; the
    diffusion/wave problems require beta = 0, Pennes/Klein-Gordon beta > 0.
    """
    if isinstance(coeff, str):
        coeff = coefficient_preset(coeff)
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    mu = 1 if name in ("diffusion", "pennes") else 2
    needs_beta = name in ("pennes", "klein-gordon")
    if coeff.grad_alpha is None:
        raise ValueError("coefficient field needs grad_alpha for manufactured forcing")
    if needs_beta and _beta_is_zero(coeff):
        raise ValueError(f"{name} requires beta > 0; preset {coeff.preset!r} has beta = 0")
    if not needs_beta and not _beta_is_zero(coeff):
        raise ValueError(f"{name} requires beta = 0; preset {coeff.preset!r} has beta > 0")

    pi = np.pi

    if mu == 1:
        T = lambda t: math.exp(-t)
        dT = lambda t: -math.exp(-t)
        dmuT = dT
    else:
        T = lambda t: math.cos(t)
        dT = lambda t: -math.sin(t)
        dmuT = lambda t: -math.cos(t)

    def profiles(x, y):
        # w, then K w = -alpha Lap w - grad alpha . grad w + beta w with
        # Lap w = -2 pi^2 w. They share one cos and one sin per coordinate;
        # each value is the product w(x, y) or -pi sin cos would form on its
        # own. Assembly calls this a chunk of triangles at a time, so the
        # arrays it holds are small; on build_mesh's grid x and y come
        # compact (one square row of x, one square column of y), so each
        # cos and sin is taken once per distinct coordinate.
        px, py = pi * x, pi * y
        cx, cy = np.cos(px), np.cos(py)
        w_xy = cx * cy
        yield w_xy
        wx = -pi * np.sin(px) * cy
        wy = -pi * cx * np.sin(py)
        gax, gay = coeff.grad_alpha(x, y)
        yield (2.0 * pi ** 2 * coeff.alpha(x, y) * w_xy
               - gax * wx - gay * wy + coeff.beta(x, y) * w_xy)

    def w(x, y):
        return np.cos(pi * x) * np.cos(pi * y)

    def K_of_w(x, y):
        _, Kw = profiles(x, y)
        return Kw

    return ProblemSpec(
        name=name, mu=mu, coeff=coeff,
        exact=lambda x, y, t: T(t) * w(x, y),
        exact_dt=lambda x, y, t: dT(t) * w(x, y),
        exact_dmu=lambda x, y, t: dmuT(t) * w(x, y),
        apply_K=lambda x, y, t: T(t) * K_of_w(x, y),
        g=Forcing((dmuT, T), profiles),
    )


def direct_solver(op, b):
    """Default stage-system solver: the exact op.solve, no report. The
    factors are made on the first step and stay cached on op for the rest
    of the march (unlike krylov.reference_solve, which frees its own);
    refused above krylov.DIRECT_GUARD."""
    check_direct_size(op)
    return op.solve(b), None


def advance(state, tableau, k):
    """The state one step on from the stage solution k: for an IRK state
    (udot is None) u^n = u^(n-1) + h_t sum_i b_i k_i; for an IRK-Nystrom
    state u^n = u^(n-1) + h_t udot^(n-1) + h_t^2 sum_i b_i k_i and
    udot^n = udot^(n-1) + h_t sum_i b'_i k_i."""
    h_t = state.h_t
    K = k.reshape(tableau.s, -1)
    if state.udot is None:
        return StepperState(state.t + h_t, state.u + h_t * (tableau.b @ K), None, h_t)
    u_new = state.u + h_t * state.udot + h_t ** 2 * (tableau.b @ K)
    udot_new = state.udot + h_t * (tableau.b_prime @ K)
    return StepperState(state.t + h_t, u_new, udot_new, h_t)


def forcing_loads(problem, mesh):
    """The load vectors <p_m, phi> of the forcing modes, an m x N array
    made in one assemble_loads pass."""
    return assemble_loads(mesh, problem.g.profiles)


def _step(state, tableau, op, solver, problem, mesh, loads):
    """Solve the stage system of one step, then advance. The stage
    right-hand side is build_stage_rhs's over the mode loads `loads`
    (assembled there when None)."""
    rhs = build_stage_rhs(mesh, problem.coeff, tableau, state.h_t, problem.mu,
                          state.t, state.u, state.udot, problem.g, F=op.F,
                          loads=loads)
    k, report = solver(op, rhs)
    return advance(state, tableau, k), report


def irk_step(state, tableau, op, solver, problem, mesh, loads=None):
    """One IRK step: solve the stage system, then advance. `loads` are
    the problem's `forcing_loads` on mesh, assembled when not given."""
    if problem.mu != 1:
        raise ValueError("irk_step requires a mu = 1 problem")
    return _step(state, tableau, op, solver, problem, mesh, loads)


def irkn_step(state, tableau, op, solver, problem, mesh, loads=None):
    """One IRK-Nystrom step: solve the stage system, then advance.
    `loads` as for irk_step."""
    if problem.mu != 2:
        raise ValueError("irkn_step requires a mu = 2 problem")
    if not tableau.is_nystrom:
        raise ValueError("irkn_step requires a Nystrom tableau (b_prime present)")
    return _step(state, tableau, op, solver, problem, mesh, loads)


def method_tableau(name, s):
    """The paper pairing: Radau IIA for parabolic problems, Gauss-Legendre
    Nystrom for hyperbolic ones."""
    if name in ("diffusion", "pennes"):
        return radau_iia(s)
    return nystrom_from(gauss_legendre(s))


def initial_state(problem, mesh, h_t):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u = problem.exact(x, y, 0.0)
    udot = problem.exact_dt(x, y, 0.0) if problem.mu == 2 else None
    return StepperState(0.0, u, udot, h_t)


def integrate(problem, tableau, mesh, h_t, t_end, solver=direct_solver,
              M=None, F=None):
    """March the problem from 0 to t_end with a step count chosen so the
    final time is hit exactly (the actual step is t_end / ceil(t_end/h_t),
    never larger than the requested h_t).

    The forcing modes' loads are assembled once per call, in one joint
    pass before the first step (and so before the solver factors); each
    step hands them to build_stage_rhs, which forms every stage load of
    the march as a combination of them."""
    if M is None:
        M = assemble_mass(mesh)
    if F is None:
        F = assemble_stiffness(mesh, problem.coeff)
    loads = forcing_loads(problem, mesh)
    n_steps = max(1, math.ceil(t_end / h_t - 1e-12))
    h_t = t_end / n_steps
    op = StageOperator(tableau, M, F, h_t, problem.mu)
    state = initial_state(problem, mesh, h_t)
    step = irk_step if problem.mu == 1 else irkn_step
    for _ in range(n_steps):
        state, _ = step(state, tableau, op, solver, problem, mesh, loads)
    return state, M


def l2_error(M, u, u_exact):
    """Relative L2 (mass-weighted) nodal error."""
    e = u - u_exact
    num = math.sqrt(max(e @ (M @ e), 0.0))
    den = math.sqrt(u_exact @ (M @ u_exact))
    return num / den


def convergence_study(name, coeff, s, k_list, t_end=0.5, solver=direct_solver):
    """Final-time L2 errors under the coupled refinement rule and the
    least-squares observed order in h (None with fewer than two distinct
    mesh sizes)."""
    problem = mms_problem(name, coeff)
    tableau = method_tableau(name, s)
    problem_errors = []
    hs = []
    for k in k_list:
        mesh = build_mesh(k)
        h_t = timestep_rule(mesh.h, s, tableau.kind)
        state, M = integrate(problem, tableau, mesh, h_t, t_end, solver=solver)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        err = l2_error(M, state.u, problem.exact(x, y, state.t))
        problem_errors.append(err)
        hs.append(mesh.h)
    order = None
    if len(set(hs)) >= 2:
        order = float(np.polyfit(np.log(hs), np.log(problem_errors), 1)[0])
    return {"k": list(k_list), "h": hs, "errors": problem_errors, "order": order}
