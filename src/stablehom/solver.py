"""Resolvent solves (lambda M - A) u = M f by preconditioned conjugate gradients.

M is the diagonal mass matrix of the symmetrizing measure and A the jump
generator, so the system is symmetric positive definite.  The preconditioner
is the averaged, translation-invariant operator lambda m_bar - A_bar, which
is diagonal in Fourier space (`discrete` owns the transform and applies P^-1:
`SparseSymmetricForm.mean_resolvent`; this module runs only CG), scaled on
both sides by s, a smoothed sqrt(diag(P) / diag(S)), so that it follows the
diagonal of the random system: the measure can be heavy-tailed and the
coefficients degenerate, which makes that diagonal wildly nonuniform.  The
logarithm of that ratio is smoothed by a Gaussian a quarter of the smallest
environment cell wide (`Grid.smooth`): multiplication by a piecewise
constant s is not bounded on H^(alpha/2) uniformly in the spacing h, and
with it the iteration count grows with n for alpha near 2.  CG serves the
random problems only: the averaged limit is one division by its symbol
(`homogenize._solve_limit`).  Every inner product is `discrete.inner`, which
sums fixed chunks in a fixed order, so identical inputs give bitwise identical
iterates, iteration counts and solutions whatever the BLAS thread count.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .discrete import MeasureWeights, SparseSymmetricForm, inner
from .errors import ConfigurationError, ConvergenceFailure, DomainError, NumericalError


def check_lambda(lam: float) -> None:
    """The resolvent parameter must lie in (0, inf); NaN fails too."""
    if not 0 < lam < math.inf:
        raise ConfigurationError(f"lambda must be positive and finite, got {lam}")


def check_tol(tol: float) -> None:
    """CG's relative residual bound lies in [1e-12, 1e-2].  The true residual
    b - S u stalls at a roundoff floor, however far the recursive one falls,
    and near 1e-12 that floor can lie above tol: 1D n = 512 lognormal
    summation forms stall at 1.1e-12 to 1.4e-12 for alpha = 1.5."""
    if not 0.0 < tol <= 1e-2:
        raise ConfigurationError(f"tol must lie in (0, 1e-2], got {tol}")
    if tol < 1e-12:
        raise ConfigurationError(f"tol must be at least 1e-12, got {tol}")


@dataclass(frozen=True)
class ResolventProblem:
    form: SparseSymmetricForm
    measure: MeasureWeights
    lam: float
    rhs: np.ndarray

    def __post_init__(self):
        check_lambda(self.lam)
        if self.measure.grid != self.form.grid:
            raise ConfigurationError("measure and form were assembled on different grids")
        rhs = np.asarray(self.rhs, dtype=float)
        if rhs.size != self.form.grid.size:
            raise DomainError(
                f"rhs has {rhs.size} entries, grid has {self.form.grid.size} nodes"
            )
        if not np.isfinite(rhs).all():
            raise DomainError("rhs must be finite")
        object.__setattr__(self, "rhs", rhs.reshape(-1))


@dataclass(frozen=True)
class ResolventSolution:
    u: np.ndarray
    iterations: int
    residual: float
    wall_time: float


def solve_resolvent(
    problem: ResolventProblem, tol: float = 1e-9, max_iter: int = 10000
) -> ResolventSolution:
    """Conjugate gradients preconditioned by the averaged operator.

    The preconditioner is z = s P^{-1}(s r), where P^{-1} is
    form.mean_resolvent(lambda m_bar), d the row sums and
    s = exp(G_w * log(ratio) / 2), ratio = (lambda m_bar + mean(d)) / (lambda m + d),
    with G_w * the convolution with the periodic Gaussian of standard
    deviation w = l/4 (`Grid.smooth`).  l is the smallest environment cell
    length in x units, eps times the cell size, of the form's factors and the
    measure (`form.cell_length`, `measure.cell_length`); when both are None
    (a constant form on a constant measure) s = sqrt(ratio).
    The residual is measured relative to ||f||_M in the M^{-1} norm, which
    makes the reported number the relative defect of the weak formulation
    lambda <u, g>_m + E(u, g) = <f, g>_m over all test vectors g.  The loop
    stops on the recursively updated residual or after max_iter steps; the
    reported one is recomputed from b - S u with one more matvec, and
    ConvergenceFailure is raised when that one exceeds tol or is NaN.  f = 0
    gives u = 0.  NumericalError is raised, as for negative curvature, by a
    starting residual that is not 1 to within 1e-9 (it is 1 in exact
    arithmetic), by a <r, P^-1 r> within the rounding bound N ulp
    sum_i |r_i z_i| of zero, where the system lost its definiteness to
    rounding (lambda m far below one ulp of d), and by a subnormal one,
    where the residual underflowed: either would otherwise run to max_iter.
    """
    check_tol(tol)
    start = time.perf_counter()
    m = problem.measure.m
    f = problem.rhs
    b = m * f
    norm_f = math.sqrt(float(inner(m, f * f)))
    if not f.any():
        return ResolventSolution(np.zeros_like(f), 0, 0.0, time.perf_counter() - start)
    form, lam_m, lam_mbar = problem.form, problem.lam * m, problem.lam * float(m.mean())
    d = form.row_weight_sums()
    mean_inverse = form.mean_resolvent(lam_mbar)
    ratio = (lam_mbar + float(d.mean())) / (lam_m + d)
    cells = [c for c in (form.cell_length, problem.measure.cell_length) if c is not None]
    if cells:
        scale = np.exp(0.5 * form.grid.smooth(np.log(ratio), 0.25 * min(cells)))
    else:
        scale = np.sqrt(ratio)
    inv_m = 1.0 / m
    # the bound on the rounding error of an inner product of N terms is
    # N ulp sum_i |x_i y_i|
    rounding = f.size * sys.float_info.epsilon

    def res_norm(r: np.ndarray) -> float:
        return math.sqrt(float(inner(inv_m, r * r))) / norm_f

    u = np.zeros_like(f)
    r = b.copy()
    z = scale * mean_inverse(scale * r)
    p = z.copy()
    rz = float(inner(r, z))
    # 1 in exact arithmetic and within rounding of it in floating point: 0
    # means that m f^2 or (m f)^2 underflowed, NaN that 1/m overflowed, and
    # any other value that they went subnormal, so that no later residual
    # can be measured against tol
    residual = res_norm(r) if norm_f > 0.0 else 0.0
    if not abs(residual - 1.0) <= 1e-9:
        raise NumericalError(
            f"the starting residual computes to {residual:.12g}: the measure weights are too small")
    iterations = 0
    while residual > tol and iterations < max_iter:
        if iterations:  # the next direction, only for a step that is taken
            z = scale * mean_inverse(scale * r)
            rz_new = float(inner(r, z))
            p *= rz_new / rz
            p += z
            rz = rz_new
        # positive in exact arithmetic while r != 0, and a normal float
        if not rz > rounding * float(inner(np.abs(r), np.abs(z))):
            raise NumericalError(
                f"<r, P^-1 r> = {rz:g} is within rounding of zero: "
                "the system lost its definiteness to rounding")
        if not rz >= sys.float_info.min:
            raise NumericalError(f"<r, P^-1 r> = {rz:g} is subnormal: the residual underflowed")
        ap = lam_m * p - form.apply_generator(p)
        pap = float(inner(p, ap))
        if not pap > 0.0:
            raise NumericalError("negative curvature: system is not positive definite")
        alpha = rz / pap
        u += alpha * p
        r -= alpha * ap
        iterations += 1
        residual = res_norm(r)
    # The true defect decides: the recurrence drifts from b - S u by roundoff.
    residual = res_norm(b - (lam_m * u - form.apply_generator(u)))
    if not residual <= tol:
        raise ConvergenceFailure(
            f"resolvent CG stopped after {iterations} iterations at a true residual "
            f"{residual:.3e} above tol={tol:g}", residual=residual, iterations=iterations)
    return ResolventSolution(u, iterations, residual, time.perf_counter() - start)


def dense_oracle_solve(problem: ResolventProblem) -> np.ndarray:
    """Direct Cholesky solve of the materialized system, for the tests and the
    benchmark's oracle check."""
    from scipy.linalg import cho_factor, cho_solve  # local import keeps solver load cheap
    n = problem.form.grid.size
    if n > 4096:
        raise ConfigurationError(f"dense oracle refused for N = {n} > 4096")
    system = np.diag(problem.lam * problem.measure.m) - problem.form.dense_generator()
    rhs = problem.measure.m * problem.rhs
    return cho_solve(cho_factor(system), rhs)
