"""Oracles and property checks of the library that `stablehom run` does not
execute: acceptance criteria 6, 7 and 8 and the unit tests call them.

- Scattered-point field evaluation: `field_at` and the per-row seeds of the
  covariance trials (`_field_values_seeds`), both through `env.field_values`.
- The ergodic suite of the field generator: Birkhoff averages and their
  multi-seed study, the maximal functional and its weak-type tail check, and
  the empirical covariance of the summation-form jump coefficient.
- The functional inequalities of the constant cone energy: the Nash
  inequality and the comparability of cone and full-space energies.
- The Markov-resolvent properties of a CG solution: contraction, the energy
  identity and positivity.
- `kappa`, the coefficient at one pair of points, which evaluates each field
  at each point alone: the pointwise oracle for `homogenize._kappa_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from stablehom.discrete import Grid, assemble_effective_form, inner
from stablehom.env import (
    RandomField,
    _cells_of,
    _shifts,
    _values_at_cells,
    derive_seed,
    field_mean,
    field_on_lattice,
    field_values,
    quartiles,
)
from stablehom.errors import ConfigurationError, DomainError, check_count, check_positive
from stablehom.kernel import (
    CoefficientForm,
    ConeSpec,
    ConstantForm,
    KernelParams,
    form_terms,
    full_space_cone,
)
from stablehom.solver import ResolventProblem, ResolventSolution


# ---------------------------------------------------------------------------
# scattered points


def check_points(field: RandomField, points) -> None:
    """Refuse points whose cells the field's evaluation refuses under some seed."""
    for shift in (0.0, field.cell_size):  # cells grow with the shift, in [0, cell_size)
        _cells_of(field, np.asarray(points, dtype=float), shift)


def field_at(field: RandomField, x) -> float:
    """Evaluate the field at a single point."""
    pts = np.asarray(x, dtype=float).reshape(1, field.dim)
    return float(field_values(field, pts)[0])


def _field_values_seeds(field: RandomField, seeds: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate with a per-row uint64 seed array (independent realizations in one call)."""
    cells = _cells_of(field, points, _shifts(seeds[:, None], field.dim, field.cell_size))
    return _values_at_cells(field, seeds, cells)


# ---------------------------------------------------------------------------
# ergodic functionals


def _midpoint_grid(lo: np.ndarray, hi: np.ndarray, eps_cell: float, cap: int) -> list:
    """Per-axis midpoints of the box [lo, hi], about four per eps-cell, at
    least 8 and at most `cap` per axis."""
    counts = [int(min(cap, max(8, math.ceil(4.0 * (b - a) / eps_cell)))) for a, b in zip(lo, hi)]
    return [a + (b - a) * (np.arange(n) + 0.5) / n for a, b, n in zip(lo, hi, counts)]


def check_region(lo, hi) -> None:
    """An averaging box needs max > min along every axis."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not np.all(hi > lo):
        raise ConfigurationError(f"empty averaging region: min={lo}, max={hi}")


def check_finite_mean(field: RandomField) -> float:
    """E[field], the Birkhoff and maximal studies' limit; refused if not finite."""
    exact = field_mean(field)
    if not math.isfinite(exact):
        raise ConfigurationError("the field must have a finite mean")
    return exact


def birkhoff_average(field: RandomField, eps: float, region, weight=None) -> float:
    """Quadrature of int_region weight(x) * field(x/eps) dx.

    `region` is an axis-aligned box given as a (min, max) pair; `weight` is a
    callable on an (m, dim) point array, or None for weight 1.  As eps -> 0
    the value approaches E[field] * int weight dx.
    """
    lo = np.asarray(region[0], dtype=float).reshape(field.dim)
    hi = np.asarray(region[1], dtype=float).reshape(field.dim)
    check_region(lo, hi)
    check_positive("eps", eps)
    cap = 4096 if field.dim == 1 else 128
    axes = _midpoint_grid(lo, hi, eps * field.cell_size, cap)
    vol = float(np.prod(hi - lo))
    vals = field_on_lattice([field], [a / eps for a in axes])[0].ravel()
    if weight is not None:
        points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        vals = vals * np.asarray(weight(points), dtype=float)
    return vol * float(vals.mean())


def maximal_functional(field: RandomField, eps_grid, r0: float = 1.0) -> float:
    """Sup over eps of the mass int_{[0,r0]^d} field(x/eps) dx (quadrature);
    the scales eps lie in (0, 1)."""
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid:
        raise ConfigurationError("eps_grid must be nonempty")
    if any(not (0.0 < e < 1.0) for e in eps_grid):
        raise ConfigurationError(f"eps_grid values must lie in (0, 1), got {eps_grid}")
    check_positive("r0", r0)
    check_points(field, r0 / min(eps_grid))  # the farthest point, before r0**dim
    lo = np.zeros(field.dim)
    hi = np.full(field.dim, r0)
    cap = 1024 if field.dim == 1 else 64
    vol = r0**field.dim
    best = -math.inf
    for eps in eps_grid:
        axes = _midpoint_grid(lo, hi, eps * field.cell_size, cap)
        vals = field_on_lattice([field], [a / eps for a in axes])[0].ravel()
        best = max(best, vol * float(vals.mean()))
    return best


# ---------------------------------------------------------------------------
# multi-seed diagnostics built on the functionals above


@dataclass(frozen=True)
class BirkhoffStudy:
    eps: float
    exact_mean: float
    target: float  # exact_mean times the region volume
    averages: tuple[float, ...]
    median_average: float
    median_abs_rel_error: float


def birkhoff_study(
    field: RandomField, eps: float, region, n_seeds: int = 20, weight=None
) -> BirkhoffStudy:
    """Run birkhoff_average over n_seeds derived realizations of the field."""
    check_count("n_seeds", n_seeds)
    exact = check_finite_mean(field)
    lo = np.asarray(region[0], dtype=float).reshape(field.dim)
    hi = np.asarray(region[1], dtype=float).reshape(field.dim)
    vol = float(np.prod(hi - lo))
    target = exact * vol
    vals = []
    for i in range(n_seeds):
        f_i = replace(field, seed=derive_seed(field.seed, "birkhoff", i))
        vals.append(birkhoff_average(f_i, eps, region, weight))
    rel = [abs(v - target) / abs(target) for v in vals]
    return BirkhoffStudy(
        eps=eps,
        exact_mean=exact,
        target=target,
        averages=tuple(vals),
        median_average=quartiles(vals)[1],
        median_abs_rel_error=quartiles(rel)[1],
    )


@dataclass(frozen=True)
class MaximalReport:
    eps_grid: tuple[float, ...]
    levels: tuple[float, ...]
    frequencies: tuple[float, ...]
    fitted_c: float
    markov_bound_ok: bool


def maximal_tail_check(
    field: RandomField,
    eps_grid=(0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625),
    r0: float = 1.0,
    n_seeds: int = 200,
) -> MaximalReport:
    """Weak-type tail check for the maximal functional.

    Fits C from the exceedance frequency at the level lambda = 2 r0^d E[F]
    (Markov form C = lambda * freq), then requires freq <= C / lambda at
    lambda = 8 r0^d E[F].
    """
    check_count("n_seeds", n_seeds)
    exact = check_finite_mean(field)
    sups = []
    for i in range(n_seeds):
        f_i = replace(field, seed=derive_seed(field.seed, "maximal", i))
        sups.append(maximal_functional(f_i, eps_grid, r0))
    sups_arr = np.array(sups)
    vol = r0**field.dim
    levels = tuple(m * vol * exact for m in (2.0, 8.0))
    freqs = tuple(float((sups_arr > lvl).mean()) for lvl in levels)
    fitted_c = levels[0] * freqs[0]
    ok = all(freqs[k] <= fitted_c / levels[k] for k in range(1, len(levels)))
    return MaximalReport(
        eps_grid=tuple(float(e) for e in eps_grid),
        levels=levels,
        frequencies=freqs,
        fitted_c=fitted_c,
        markov_bound_ok=ok,
    )


# ---------------------------------------------------------------------------
# covariance of the jump coefficient


@dataclass(frozen=True)
class CovarianceEntry:
    lag: float
    estimate: float  # |Cov|
    signed: float
    standard_error: float
    trials: int


def empirical_covariance(
    field: RandomField, z1, z2, x, trials: int = 1000, truncation: float = 1e3
) -> CovarianceEntry:
    """Monte Carlo Cov(nu_n(z1), nu_n(z2) shifted by x) over independent seeds.

    nu(z) = F(0) + F(z) is the summation-form jump coefficient seen from the
    origin; nu_n caps it at `truncation` so heavy tails keep a finite second
    moment.  Each trial uses its own derived seed.
    """
    check_count("trials", trials, 100)
    check_positive("truncation", truncation)
    z1 = np.asarray(z1, dtype=float).reshape(field.dim)
    z2 = np.asarray(z2, dtype=float).reshape(field.dim)
    x = np.asarray(x, dtype=float).reshape(field.dim)
    seeds = np.array(
        [derive_seed(field.seed, "covariance", i) for i in range(trials)], dtype=np.uint64
    )
    offsets = np.stack([np.zeros(field.dim), z1, x, x + z2])  # (4, dim)
    points = np.broadcast_to(offsets[None, :, :], (trials, 4, field.dim)).reshape(-1, field.dim)
    seeds_rep = np.repeat(seeds, 4)
    vals = _field_values_seeds(field, seeds_rep, points).reshape(trials, 4)
    nu_a = np.minimum(vals[:, 0] + vals[:, 1], truncation)
    nu_b = np.minimum(vals[:, 2] + vals[:, 3], truncation)
    c = float(np.cov(nu_a, nu_b, ddof=1)[0, 1])
    se = math.sqrt(
        (float(nu_a.var(ddof=1)) * float(nu_b.var(ddof=1)) + c * c) / trials
    )
    return CovarianceEntry(
        lag=float(np.sqrt((x**2).sum())),
        estimate=abs(c),
        signed=c,
        standard_error=se,
        trials=trials,
    )


# ---------------------------------------------------------------------------
# functional-inequality diagnostics


@dataclass(frozen=True)
class NashReport:
    ratios: tuple[float, ...]
    max_ratio: float
    skipped: tuple[int, ...]
    passed: bool


def nash_check(grid: Grid, cone: ConeSpec, params: KernelParams, test_fns) -> NashReport:
    """Empirical constant of ||f||_2^2 <= c E0(f,f)^(d/(d+a)) ||f||_1^(2a/(d+a))
    with E0 the Constant{2} cone energy."""
    if not test_fns:
        raise ConfigurationError("test_fns must be nonempty")
    e0 = assemble_effective_form(grid, ConstantForm(2.0), cone, params)
    hd = grid.h**grid.dim
    d, alpha = grid.dim, params.alpha
    ratios, skipped = [], []
    for idx, f in enumerate(test_fns):
        f = np.asarray(f, dtype=float)
        if not f.any():
            skipped.append(idx)
            ratios.append(math.nan)
            continue
        l2sq = hd * float((f**2).sum())
        l1 = hd * float(np.abs(f).sum())
        en = e0.energy(f, f)
        denom = en ** (d / (d + alpha)) * l1 ** (2 * alpha / (d + alpha))
        ratios.append(l2sq / denom if denom > 0 else math.inf)
    finite = [r for r in ratios if not math.isnan(r)]
    max_ratio = max(finite) if finite else math.nan
    passed = bool(finite) and all(math.isfinite(r) for r in finite)
    return NashReport(
        ratios=tuple(ratios), max_ratio=max_ratio, skipped=tuple(skipped), passed=passed
    )


@dataclass(frozen=True)
class ConeComparabilityReport:
    ratios: tuple[float, ...]
    max_ratio: float
    skipped: tuple[int, ...]
    violations: tuple[int, ...]
    passed: bool


def cone_comparability_check(
    grid: Grid, cone: ConeSpec, params: KernelParams, test_fns
) -> ConeComparabilityReport:
    """Ratio of full-space to cone-restricted energy per test function."""
    if not test_fns:
        raise ConfigurationError("test_fns must be nonempty")
    full = assemble_effective_form(grid, ConstantForm(1.0), full_space_cone(grid.dim), params)
    coned = assemble_effective_form(grid, ConstantForm(1.0), cone, params)
    ratios, skipped, violations = [], [], []
    for idx, f in enumerate(test_fns):
        f = np.asarray(f, dtype=float)
        e_full = full.energy(f, f)
        e_cone = coned.energy(f, f)
        if e_full == 0.0 and e_cone == 0.0:
            skipped.append(idx)
            ratios.append(math.nan)
            continue
        if e_cone == 0.0:
            violations.append(idx)
            ratios.append(math.inf)
            continue
        ratios.append(e_full / e_cone)
    finite = [r for r in ratios if not math.isnan(r)]
    max_ratio = max(finite) if finite else math.nan
    passed = not violations and bool(finite) and all(math.isfinite(r) for r in finite)
    return ConeComparabilityReport(
        ratios=tuple(ratios),
        max_ratio=max_ratio,
        skipped=tuple(skipped),
        violations=tuple(violations),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# resolvent properties


@dataclass(frozen=True)
class ContractionReport:
    l2_ratio: float
    sup_ratio: float
    energy_rel: float
    min_u: float
    l2_ok: bool
    sup_ok: bool
    energy_ok: bool
    positivity_ok: bool | None
    passed: bool


def resolvent_contraction_check(
    problem: ResolventProblem, solution: ResolventSolution
) -> ContractionReport:
    """Markov-resolvent sanity: lambda-contraction in L2(m) and sup norm,
    the energy identity lambda ||u||_m^2 + E(u,u) = <f,u>_m, and positivity
    preservation for nonnegative data."""
    slack = 1e-8  # the rounding the ratios and positivity may show past their bounds
    u, f, lam = solution.u, problem.rhs, problem.lam
    m = problem.measure.m
    norm_u = math.sqrt(float(inner(m, u * u)))
    norm_f = math.sqrt(float(inner(m, f * f)))
    l2_ratio = lam * norm_u / norm_f if norm_f > 0 else 0.0
    sup_f = float(np.abs(f).max())
    sup_ratio = lam * float(np.abs(u).max()) / sup_f if sup_f > 0 else 0.0
    pairing = float(inner(m, f * u))
    identity_gap = lam * norm_u**2 + problem.form.energy(u, u) - pairing
    scale = max(abs(pairing), lam * norm_u**2, 1e-300)
    energy_rel = abs(identity_gap) / scale
    l2_ok = l2_ratio <= 1.0 + slack
    sup_ok = sup_ratio <= 1.0 + slack
    energy_ok = energy_rel <= 1e-6
    min_u = float(u.min())
    positivity_ok = None
    if (f >= 0.0).all():
        positivity_ok = min_u >= -slack * max(sup_f, 1.0)
    passed = l2_ok and sup_ok and energy_ok and (positivity_ok is not False)
    return ContractionReport(
        l2_ratio=l2_ratio,
        sup_ratio=sup_ratio,
        energy_rel=energy_rel,
        min_u=min_u,
        l2_ok=l2_ok,
        sup_ok=sup_ok,
        energy_ok=energy_ok,
        positivity_ok=positivity_ok,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# pointwise coefficient


def kappa(form: CoefficientForm, x, y, eps: float) -> float:
    """Coefficient kappa(x/eps, y/eps) of the scaled energy; symmetric in (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DomainError("x and y must have the same dimension")
    if np.array_equal(x, y):
        raise DomainError("kappa is undefined on the diagonal x = y")
    check_positive("eps", eps)
    c, angular, factors, terms = form_terms(form)
    rho = float(angular.rho(y - x)[0])  # even, so one direction suffices
    at = [(1.0, 1.0) if f is None else (field_at(f, x / eps), field_at(f, y / eps))
          for f in factors]
    return sum(c * rho * (at[i][0] * at[j][1]) for i, j in terms)
