import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import stablehom
from stablehom import discrete, env, kernel, solver
from stablehom.errors import ConfigurationError, ConvergenceFailure, DomainError, NumericalError

import oracles


def make_problem(seed, dim=1, lam=1.0, nonnegative_rhs=False):
    """Small random resolvent instance; rotates form and measure kinds by seed."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        grid = discrete.Grid(dim=1, length=4.0, n=64)
        cone = kernel.full_space_cone(1)
    else:
        grid = discrete.Grid(dim=2, length=4.0, n=16)
        cone = kernel.ConeSpec(axis=(1.0, 0.0), aperture=0.3)
    alpha = float(rng.uniform(0.4, 1.6))
    params = kernel.KernelParams(alpha=alpha, dim=dim)
    kind = seed % 3
    if kind == 0:
        form_spec = kernel.ConstantForm(float(rng.uniform(0.5, 2.0)))
    elif kind == 1:
        lamf = env.sample_field(dim, env.lognormal(0.0, 0.5), seed=seed)
        form_spec = kernel.SummationForm(lambda_field=lamf)
    else:
        form_spec = kernel.ProductForm(
            nu1=env.sample_field(dim, env.uniform(0.5, 1.5), seed=seed),
            nu2=env.sample_field(dim, env.uniform(0.5, 2.5), seed=seed + 1000),
        )
    form = discrete.assemble_form(grid, form_spec, cone, params, eps=1.0)
    if seed % 2 == 0:
        measure = discrete.measure_weights(grid, None)
    else:
        mu = env.sample_field(dim, env.lognormal(0.0, 0.4), seed=seed + 2000)
        measure = discrete.measure_weights(grid, mu, eps=1.0)
    rhs = rng.normal(size=grid.size)
    if nonnegative_rhs:
        rhs = np.abs(rhs)
    return solver.ResolventProblem(form=form, measure=measure, lam=lam, rhs=rhs)


def m_norm(measure, v):
    return float(np.sqrt((measure.m * v * v).sum()))


# ---------------------------------------------------------------------------
# exact special cases


def test_zero_generator_divides_by_lambda():
    grid = discrete.Grid(dim=1, length=4.0, n=32)
    params = kernel.KernelParams(alpha=1.0, dim=1)
    form = discrete.assemble_form(
        grid, kernel.ConstantForm(0.0), kernel.full_space_cone(1), params, eps=1.0
    )
    measure = discrete.measure_weights(grid, None)
    rng = np.random.default_rng(0)
    f = rng.normal(size=32)
    sol = solver.solve_resolvent(
        solver.ResolventProblem(form=form, measure=measure, lam=2.5, rhs=f), tol=1e-12
    )
    assert sol.iterations <= 2  # diagonal system, one preconditioned step
    assert np.allclose(sol.u, f / 2.5, rtol=1e-12, atol=1e-14)


def test_zero_rhs_returns_zero_without_iterating():
    problem = make_problem(3)
    problem = solver.ResolventProblem(
        form=problem.form, measure=problem.measure, lam=1.0, rhs=np.zeros(problem.form.grid.size)
    )
    sol = solver.solve_resolvent(problem)
    assert sol.iterations == 0
    assert np.all(sol.u == 0.0)
    assert sol.residual == 0.0


# ---------------------------------------------------------------------------
# CG against the direct dense solve


def test_cg_matches_dense_oracle():
    for seed in range(14):
        problem = make_problem(seed, dim=1, lam=(0.3, 1.0, 2.5)[seed % 3])
        sol = solver.solve_resolvent(problem, tol=1e-11)
        exact = solver.dense_oracle_solve(problem)
        gap = m_norm(problem.measure, sol.u - exact) / m_norm(problem.measure, exact)
        assert gap <= 1e-8, f"seed {seed}: relative gap {gap:.3e}"


def test_cg_matches_dense_oracle_2d():
    for seed in range(6):
        problem = make_problem(seed, dim=2, lam=1.0)
        sol = solver.solve_resolvent(problem, tol=1e-11)
        exact = solver.dense_oracle_solve(problem)
        gap = m_norm(problem.measure, sol.u - exact) / m_norm(problem.measure, exact)
        assert gap <= 1e-8, f"seed {seed}: relative gap {gap:.3e}"


# ---------------------------------------------------------------------------
# the averaged-operator preconditioner


def product_problem(grid, marginal, eps, alpha=1.0):
    """Product form with iid factors of `marginal`, Lebesgue measure, bump data."""
    form = kernel.ProductForm(
        nu1=env.sample_field(grid.dim, marginal, seed=0),
        nu2=env.sample_field(grid.dim, marginal, seed=1),
    )
    op = discrete.assemble_form(
        grid, form, kernel.full_space_cone(grid.dim), kernel.KernelParams(alpha, grid.dim), eps
    )
    return solver.ResolventProblem(
        form=op, measure=discrete.measure_weights(grid, None), lam=1.0,
        rhs=discrete.evaluate(grid, discrete.bump(grid)),
    )


@pytest.mark.parametrize("dim,n", [(1, 512), (2, 32)])
def test_limit_solve_converges_in_one_step(dim, n):
    # constant kernel on Lebesgue measure: the preconditioner is the system
    grid = discrete.Grid(dim=dim, length=4.0, n=n)
    cone = kernel.full_space_cone(1) if dim == 1 else kernel.ConeSpec((1.0, 0.0), 0.3)
    form = discrete.assemble_form(
        grid, kernel.ConstantForm(1.3), cone, kernel.KernelParams(1.2, dim), eps=1.0
    )
    problem = solver.ResolventProblem(
        form=form, measure=discrete.measure_weights(grid, None), lam=1.0,
        rhs=discrete.evaluate(grid, discrete.bump(grid)),
    )
    sol = solver.solve_resolvent(problem)
    exact = solver.dense_oracle_solve(problem)
    assert sol.iterations <= 2
    assert m_norm(problem.measure, sol.u - exact) / m_norm(problem.measure, exact) <= 1e-10


def test_iterations_do_not_grow_with_n_on_bounded_coefficients():
    # at alpha = 1.8 the true residual of the n = 8192 system stalls near
    # 1e-9, so that input solves to 1e-8
    for alpha, tol in ((1.0, 1e-9), (1.8, 1e-8)):
        counts = [
            solver.solve_resolvent(
                product_problem(discrete.Grid(1, 8.0, n), env.uniform(0.5, 1.5), eps=0.25,
                                alpha=alpha), tol=tol
            ).iterations
            for n in (512, 8192)
        ]
        assert counts[1] <= 1.5 * counts[0], (alpha, counts)


@pytest.mark.parametrize(
    "marginal", [env.uniform(0.0, 2.0), env.exp_abs_gauss(2.0)], ids=["uniform-0-2", "exp_abs_gauss-2"]
)
@pytest.mark.parametrize("dim,n", [(1, 1024), (2, 32)])
def test_degenerate_coefficients_match_dense_oracle(marginal, dim, n):
    # coefficients come arbitrarily close to 0, where the plain circulant
    # preconditioner loses spectral equivalence
    problem = product_problem(discrete.Grid(dim, 8.0, n), marginal, eps=1.0 if dim == 2 else 0.25)
    sol = solver.solve_resolvent(problem, tol=1e-11)
    exact = solver.dense_oracle_solve(problem)
    gap = m_norm(problem.measure, sol.u - exact) / m_norm(problem.measure, exact)
    assert gap <= 1e-8, f"relative gap {gap:.3e}"


def test_weak_form_residual_definition():
    # the reported residual bounds the defect of the weak formulation
    problem = make_problem(7)
    sol = solver.solve_resolvent(problem, tol=1e-10)
    system = problem.lam * problem.measure.m * sol.u - problem.form.apply_generator(sol.u)
    defect = system - problem.measure.m * problem.rhs
    rel = float(np.sqrt((defect**2 / problem.measure.m).sum())) / m_norm(
        problem.measure, problem.rhs
    )
    assert rel <= 1e-10 * 1.0001
    assert np.isclose(rel, sol.residual, rtol=1e-6, atol=1e-15)


# ---------------------------------------------------------------------------
# contraction and positivity


def test_contraction_report_random_instances():
    for seed in range(8):
        problem = make_problem(seed, lam=(0.5, 1.0, 4.0)[seed % 3])
        sol = solver.solve_resolvent(problem, tol=1e-11)
        report = oracles.resolvent_contraction_check(problem, sol)
        assert report.passed, f"seed {seed}: {report}"
        assert report.l2_ratio <= 1.0 + 1e-8
        assert report.sup_ratio <= 1.0 + 1e-8
        assert report.energy_rel <= 1e-6
        # signed data: positivity is not applicable
        assert report.positivity_ok is None


def test_positivity_preserved_for_nonnegative_data():
    for seed in range(4):
        problem = make_problem(seed, nonnegative_rhs=True)
        sol = solver.solve_resolvent(problem, tol=1e-11)
        report = oracles.resolvent_contraction_check(problem, sol)
        assert report.positivity_ok is True
        assert report.min_u >= -1e-8
        assert report.passed


# ---------------------------------------------------------------------------
# determinism and failure modes


def test_solutions_are_deterministic():
    problem = make_problem(5)
    a = solver.solve_resolvent(problem, tol=1e-10)
    b = solver.solve_resolvent(problem, tol=1e-10)
    assert np.array_equal(a.u, b.u)
    assert a.iterations == b.iterations
    assert a.residual == b.residual


def test_convergence_failure_carries_progress():
    problem = make_problem(2)
    with pytest.raises(ConvergenceFailure) as exc:
        solver.solve_resolvent(problem, tol=1e-12, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.residual > 0.0


@pytest.mark.parametrize("rhs, cause", [
    (discrete.bump, "is within rounding of zero: the system lost its definiteness to rounding"),
    (discrete.odd_bump, "is subnormal: the residual underflowed"),
], ids=["bump", "odd_bump"])
def test_a_vanishing_preconditioned_residual_names_its_cause(rhs, cause):
    # mu = 1e-154: lambda m / d is about 1e-156.  The bump's mean sets u's
    # constant part, far above its fluctuation, and <r, P^-1 r> falls to
    # rounding noise; the odd bump's r has no mean, and <r, P^-1 r> ~ m^2 / d
    # is subnormal from the start
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    problem = solver.ResolventProblem(
        discrete.assemble_form(grid, kernel.ConstantForm(1.0), kernel.full_space_cone(1),
                               kernel.KernelParams(1.0, 1), eps=1.0),
        discrete.measure_weights(grid, env.sample_field(1, env.constant(1e-154)), eps=1.0),
        1.0, discrete.evaluate(grid, rhs(grid)),
    )
    with pytest.raises(NumericalError, match=re.escape(cause)):
        solver.solve_resolvent(problem)


def test_degenerate_solve_refuses_a_residual_it_did_not_reach():
    # factors uniform on (0, 2) come arbitrarily close to 0: the recursive
    # residual falls below 1e-12 while the true one, b - S u, stalls near
    # 1.8e-11, and that one decides
    grid = discrete.Grid(dim=1, length=8.0, n=512)
    params = kernel.KernelParams(alpha=1.8, dim=1)
    form = kernel.ProductForm(*(env.sample_field(1, env.uniform(0.0, 2.0), seed=s) for s in (1, 2)))
    problem = solver.ResolventProblem(
        discrete.assemble_form(grid, form, kernel.full_space_cone(1), params, eps=0.5),
        discrete.measure_weights(grid, None), 1.0, discrete.evaluate(grid, discrete.bump(grid)),
    )
    with pytest.raises(ConvergenceFailure, match="true residual") as exc:
        solver.solve_resolvent(problem, tol=1e-12)
    assert exc.value.residual > 1e-12
    assert exc.value.iterations > 0
    assert solver.solve_resolvent(problem, tol=1e-9).residual <= 1e-9
    # below reach: r.z underflows to 0 long before such a residual
    with pytest.raises(ConfigurationError, match="at least 1e-12"):
        solver.solve_resolvent(problem, tol=1e-300)


def test_parameter_validation():
    problem = make_problem(0)
    with pytest.raises(ConfigurationError):
        solver.solve_resolvent(problem, tol=0.0)
    with pytest.raises(ConfigurationError):
        solver.solve_resolvent(problem, tol=0.5)
    with pytest.raises(ConfigurationError):
        solver.ResolventProblem(
            form=problem.form, measure=problem.measure, lam=0.0, rhs=problem.rhs
        )
    for lam in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            solver.ResolventProblem(
                form=problem.form, measure=problem.measure, lam=lam, rhs=problem.rhs
            )
    with pytest.raises(DomainError):
        solver.ResolventProblem(
            form=problem.form, measure=problem.measure, lam=1.0, rhs=np.ones(5)
        )
    # a NaN entry used to return u = 0 as solved after 0 iterations
    with pytest.raises(DomainError, match="finite"):
        solver.ResolventProblem(
            form=problem.form, measure=problem.measure, lam=1.0,
            rhs=np.where(np.arange(problem.rhs.size) == 3, math.nan, problem.rhs),
        )
    other_grid = discrete.Grid(dim=1, length=4.0, n=32)
    with pytest.raises(ConfigurationError):
        solver.ResolventProblem(
            form=problem.form,
            measure=discrete.measure_weights(other_grid, None),
            lam=1.0,
            rhs=problem.rhs,
        )


def test_dense_oracle_refuses_large_systems():
    big = discrete.Grid(dim=1, length=8.0, n=8192)
    params = kernel.KernelParams(alpha=1.0, dim=1)
    form = discrete.assemble_effective_form(
        big, kernel.ConstantForm(1.0), kernel.full_space_cone(1), params
    )
    problem = solver.ResolventProblem(
        form=form, measure=discrete.measure_weights(big, None), lam=1.0,
        rhs=np.ones(big.size),
    )
    with pytest.raises(ConfigurationError):
        solver.dense_oracle_solve(problem)


_GUARD_SCRIPT = """
import numpy as np
from stablehom import discrete, env, kernel, solver
from stablehom.errors import DomainError, NumericalError

def fired(fn, exc):
    try:
        fn()
    except exc as e:
        return type(e).__name__
    return "none"

grid = discrete.Grid(dim=1, length=4.0, n=16)
params = kernel.KernelParams(alpha=1.0, dim=1)
cone = kernel.full_space_cone(1)
print(__debug__)
print(fired(lambda: discrete._jump_kernel(grid, params, cone, -1.0, kernel.AngularWeight()),
            DomainError))
negative = -np.ones((1, *grid.shape))
print(fired(lambda: discrete.form_from_fields(grid, kernel.ConstantForm(1.0), cone, params,
                                              negative), DomainError))
vanishing = env.sample_field(1, env.lognormal(-800.0, 0.0))
print(fired(lambda: discrete.measure_weights(grid, vanishing, eps=1.0), DomainError))

class Indefinite:
    def __init__(self):
        self.grid = grid
        self.cell_length = None
    def apply_generator(self, u):
        return 10.0 * u
    def row_weight_sums(self):
        return np.ones(grid.size)
    def mean_resolvent(self, shift):
        return lambda v: v / shift

problem = solver.ResolventProblem(
    form=Indefinite(), measure=discrete.measure_weights(grid, None), lam=1.0,
    rhs=np.ones(grid.size),
)
print(fired(lambda: solver.solve_resolvent(problem), NumericalError))
"""


def test_runtime_guards_fire_under_optimize():
    # python -O strips assert statements; the guards must not depend on them
    src = os.path.dirname(os.path.dirname(stablehom.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _GUARD_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["False", "DomainError", "DomainError", "DomainError", "NumericalError"]


# A 1D n = 16,384 degenerate product-form solve, whose inner products are
# longer than the 10,000 entries above which OpenBLAS threads a dot product.
_THREADS_SCRIPT = """
import hashlib
from stablehom import discrete, env, kernel, solver

grid = discrete.Grid(1, 8.0, 16384)
form = kernel.ProductForm(nu1=env.sample_field(1, env.uniform(0.0, 2.0), seed=0),
                          nu2=env.sample_field(1, env.uniform(0.0, 2.0), seed=1))
op = discrete.assemble_form(grid, form, kernel.full_space_cone(1), kernel.KernelParams(1.0, 1),
                            eps=0.25)
sol = solver.solve_resolvent(solver.ResolventProblem(
    form=op, measure=discrete.measure_weights(grid, None), lam=1.0,
    rhs=discrete.evaluate(grid, discrete.bump(grid))), tol=1e-9)
print(sol.iterations, hashlib.sha256(sol.u.tobytes()).hexdigest())
"""


def test_solve_does_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(stablehom.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = [subprocess.run(
        [sys.executable, "-c", _THREADS_SCRIPT],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads),
             "OMP_NUM_THREADS": str(threads), "MKL_NUM_THREADS": str(threads)},
        capture_output=True, text=True, check=True,
    ).stdout.split() for threads in (1, 2)]
    assert outs[0] == outs[1]
