"""Epsilon-sweeps: random resolvents against their deterministic limits.

A sweep solves (lambda M_eps - A_eps) u = M_eps f for a ladder of scale
ratios eps and independent environment realizations, solves the limiting
constant-coefficient problem once on the same grid, exactly (one Fourier
division), and records five error metrics per (eps, seed) cell.  Companion
estimators measure the effective constant through energy ratios, check form
convergence on smooth test functions, and probe the kernel moment bound that
the convergence theory assumes.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import env
from .discrete import (
    Grid,
    MeasureWeights,
    assemble_effective_form,
    assemble_form,
    bump,
    evaluate,
    form_from_fields,
    inner,
    lattice_factors,
    measure_weights,
    node_fields,
)
from .errors import (
    ConfigurationError,
    DomainError,
    NumericalError,
    check_count,
    check_ladder,
    check_positive,
)
from .kernel import (
    CoefficientForm,
    ConeSpec,
    ConstantForm,
    KernelParams,
    ProductForm,
    SummationForm,
    effective_kernel,
    form_terms,
)
from .solver import ResolventProblem, check_lambda, solve_resolvent

METRICS = ("err_l2_mu", "err_l1_ball", "pairing_err", "form_err", "norm_err")


def reseed_form(form: CoefficientForm, cell_seed: int) -> CoefficientForm:
    """Give every random field of the form a seed derived from cell_seed.

    Equal nu1/nu2 fields of a product form stay equal, so form_terms lists
    one factor, preserving the perfectly correlated construction used by the
    ratio-of-means experiment.
    """
    if isinstance(form, SummationForm):
        seed = env.derive_seed(cell_seed, "lambda")
        return replace(form, lambda_field=replace(form.lambda_field, seed=seed))
    if isinstance(form, ProductForm):
        if form.nu1 == form.nu2:
            nu = replace(form.nu1, seed=env.derive_seed(cell_seed, "nu"))
            return replace(form, nu1=nu, nu2=nu)
        return replace(
            form,
            nu1=replace(form.nu1, seed=env.derive_seed(cell_seed, "nu1")),
            nu2=replace(form.nu2, seed=env.derive_seed(cell_seed, "nu2")),
        )
    return form  # a ConstantForm has no field


def _study_cells(master_seed: int, tag: str, eps_list, seeds: int):
    """(eps index, eps, seed index, cell seed) of every cell of a study, in
    eps-major order: the one place a study derives its cells' seeds."""
    return [(ei, eps, si, env.derive_seed(master_seed, tag, ei, si))
            for ei, eps in enumerate(eps_list) for si in range(seeds)]


@dataclass(frozen=True)
class SweepConfig:
    grid: Grid
    form: CoefficientForm
    cone: ConeSpec
    params: KernelParams
    eps_list: tuple[float, ...]
    seeds: int
    lam: float = 1.0
    mu_field: env.RandomField | None = None
    report_radius: float | None = None  # default L/8
    rhs: np.ndarray | None = None  # default: built-in bump, sup = 1
    master_seed: int = 0
    tol: float = 1e-9

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        check_ladder("eps_list", eps)
        object.__setattr__(self, "eps_list", eps)
        check_count("seeds", self.seeds)
        check_lambda(self.lam)
        mean_mu = 1.0 if self.mu_field is None else env.field_mean(self.mu_field)
        if not math.isfinite(mean_mu):
            raise ConfigurationError("the measure field must have a finite mean")
        mass = mean_mu * self.grid.h**self.grid.dim  # the limit's node mass, a divisor
        if not sys.float_info.min <= mass < math.inf:
            raise ConfigurationError(
                f"the limit's node mass E[mu] h^d = {mass:.3g} is not a finite normal float")
        r = self.grid.length / 8.0 if self.report_radius is None else self.report_radius
        check_positive("report radius", r)
        object.__setattr__(self, "report_radius", float(r))
        if self.rhs is None:
            object.__setattr__(self, "rhs", evaluate(self.grid, bump(self.grid)))
        else:
            rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
            if rhs.size != self.grid.size:
                raise ConfigurationError(
                    f"rhs has {rhs.size} entries, grid has {self.grid.size} nodes"
                )
            object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class SweepCell:
    eps: float
    seed_index: int
    err_l2_mu: float
    err_l1_ball: float
    pairing_err: float
    form_err: float
    norm_err: float
    # solver telemetry: CG iterations and final residual of the cell's solve,
    # seconds spent evaluating the form's fields and the measure, seconds in
    # the rest of the form build, and seconds in the solve
    iterations: int
    residual: float
    field_s: float
    assembly_s: float
    solve_s: float


@dataclass(frozen=True)
class ConvergenceReport:
    eps_list: tuple[float, ...]
    cells: tuple[SweepCell, ...]
    failures: tuple[tuple[float, int, str], ...]
    # per metric, per eps: the quartiles of the metric over the eps's cells
    medians: dict[str, tuple[float, ...]]
    q25: dict[str, tuple[float, ...]]
    q75: dict[str, tuple[float, ...]]

    def median(self, metric: str) -> tuple[float, ...]:
        return self.medians[metric]


def _solve_limit(config: SweepConfig) -> tuple:
    """The limit (lambda m_bar - A_K) u = m_bar f, m_bar = E[mu] h^d: mu(x/eps) dx
    homogenizes to E[mu] dx, and K is the averaged kernel.  A_K is translation
    invariant on the torus, so u_K is one division by its Fourier symbol
    (`mean_resolvent`, whose A_bar is A_K for a constant kernel).  Returns the
    limit's form, measure weights and solution u_K, and what every cell
    compares with, computed once: the report ball and the limit's pairing
    <u_K, f>, energy E_K(u_K, f) and norm."""
    kernel_eff = effective_kernel(config.form)
    form_k = assemble_effective_form(config.grid, kernel_eff, config.cone, config.params)
    mean_mu = 1.0 if config.mu_field is None else env.field_mean(config.mu_field)
    mw_k = MeasureWeights(config.grid, mean_mu * measure_weights(config.grid, None).m)
    m_bar, g = float(mw_k.m[0]), config.rhs
    u_k = form_k.mean_resolvent(config.lam * m_bar)(m_bar * g)
    return (form_k, mw_k, u_k, config.grid.ball_mask(config.report_radius),
            float(inner(mw_k.m, u_k * g)), form_k.energy(u_k, g),
            math.sqrt(float(inner(mw_k.m, u_k * u_k))))


def _sweep_cell(config: SweepConfig, eps: float, seed_index: int, cell_seed: int,
                limit: tuple) -> SweepCell:
    _, mw_k, u_k, ball, pairing_k, energy_k, norm_k = limit
    form = reseed_form(config.form, cell_seed)
    start = time.perf_counter()
    fields = node_fields(config.grid, form, eps)
    if config.mu_field is None:
        mw = mw_k
    else:
        mu = replace(config.mu_field, seed=env.derive_seed(cell_seed, "mu"))
        mw = measure_weights(config.grid, mu, eps)
    fields_done = time.perf_counter()
    form_eps = form_from_fields(config.grid, form, config.cone, config.params, fields)
    assembly_s = time.perf_counter() - fields_done
    field_s = fields_done - start
    sol = solve_resolvent(
        ResolventProblem(form_eps, mw, config.lam, config.rhs), tol=config.tol
    )
    u, g = sol.u, config.rhs
    grid = config.grid
    hd = grid.h**grid.dim
    diff = u - u_k
    err_l2_mu = math.sqrt(float(inner(mw.m, diff * diff)))
    err_l1_ball = hd * float(np.abs(diff[ball]).sum())
    pairing_err = abs(float(inner(mw.m, u * g)) - pairing_k)
    form_err = abs(form_eps.energy(u, g) - energy_k)
    norm_err = abs(math.sqrt(float(inner(mw.m, u * u))) - norm_k)
    return SweepCell(
        eps=eps,
        seed_index=seed_index,
        err_l2_mu=err_l2_mu,
        err_l1_ball=err_l1_ball,
        pairing_err=pairing_err,
        form_err=form_err,
        norm_err=norm_err,
        iterations=sol.iterations,
        residual=sol.residual,
        field_s=field_s,
        assembly_s=assembly_s,
        solve_s=sol.wall_time,
    )


def run_sweep(config: SweepConfig) -> ConvergenceReport:
    """Solve the limit problem once, exactly, then every (eps, seed) cell
    against it.  A cell whose solve fails, or whose measure weights underflow
    to zero, is listed in `failures`; an eps with no cell left has NaN
    quartiles."""
    limit = _solve_limit(config)
    cells, failures = [], []
    study = _study_cells(config.master_seed, "sweep", config.eps_list, config.seeds)
    for _, eps, si, cell_seed in study:
        try:
            cells.append(_sweep_cell(config, eps, si, cell_seed, limit))
        except (NumericalError, DomainError) as exc:  # ConvergenceFailure included
            failures.append((eps, si, f"{type(exc).__name__}: {exc}"))
    # quartiles[m][eps index] = (q25, median, q75)
    quartiles = {m: [env.quartiles([getattr(c, m) for c in cells if c.eps == eps])
                     for eps in config.eps_list] for m in METRICS}
    return ConvergenceReport(
        eps_list=config.eps_list,
        cells=tuple(cells),
        failures=tuple(failures),
        medians={m: tuple(q[1] for q in quartiles[m]) for m in METRICS},
        q25={m: tuple(q[0] for q in quartiles[m]) for m in METRICS},
        q75={m: tuple(q[2] for q in quartiles[m]) for m in METRICS},
    )


# ---------------------------------------------------------------------------
# effective-constant estimation and form convergence


@dataclass(frozen=True)
class EffectiveConstantEstimate:
    c_hat: float
    iqr: float
    samples: tuple[float, ...]
    skipped_fns: tuple[int, ...]


def estimate_effective_constant(
    grid: Grid,
    form: CoefficientForm,
    cone: ConeSpec,
    params: KernelParams,
    eps: float,
    seeds: int,
    test_fns,
    master_seed: int = 0,
) -> EffectiveConstantEstimate:
    """Median energy ratio E_eps(f,f) / E_ref(f,f) with reference kernel K = 1.

    The ratio estimates the mean of the coefficient: 2 E[lambda] rho for the
    summation family, 2 E[nu1] E[nu2] for the product family, and the constant
    itself for constant coefficients.
    """
    check_count("seeds", seeds)
    reference = assemble_effective_form(grid, ConstantForm(1.0), cone, params)
    fns = [np.asarray(f, dtype=float) for f in test_fns]
    ref_energy = [reference.energy(f, f) for f in fns]
    skipped = [i for i, e in enumerate(ref_energy) if e == 0.0]
    if len(skipped) == len(fns):
        raise ConfigurationError("all test functions have zero reference energy")
    kept = [(f, e) for f, e in zip(fns, ref_energy) if e != 0.0]
    forms = (assemble_form(grid, reseed_form(form, env.derive_seed(master_seed, "estimate", si)),
                           cone, params, eps) for si in range(seeds))
    samples = [form_eps.energy(f, f) / e for form_eps in forms for f, e in kept]
    q25, c_hat, q75 = env.quartiles(samples)
    return EffectiveConstantEstimate(
        c_hat=c_hat, iqr=q75 - q25, samples=tuple(samples), skipped_fns=tuple(skipped)
    )


@dataclass(frozen=True)
class MoscoReport:
    eps_list: tuple[float, ...]
    medians: tuple[float, ...]
    q25: tuple[float, ...]
    q75: tuple[float, ...]
    threshold: float
    decreasing: bool
    final_below_threshold: bool
    passed: bool


def mosco_form_check(
    grid: Grid,
    form: CoefficientForm,
    cone: ConeSpec,
    params: KernelParams,
    eps_list,
    seeds: int,
    test_fns,
    threshold: float | None = None,
    master_seed: int = 0,
) -> MoscoReport:
    """Form convergence on smooth test functions: medians of
    |E_eps(f,f) - E_K(f,f)| must decrease along eps_list and end below the
    threshold (default one tenth of the starting median)."""
    eps_list = tuple(float(e) for e in eps_list)
    check_ladder("eps_list", eps_list)
    check_count("seeds", seeds)
    if threshold is not None:
        check_positive("mosco threshold", threshold)
    fns = [np.asarray(f, dtype=float) for f in test_fns]
    if not fns:
        raise ConfigurationError("test_fns must be nonempty")
    form_k = assemble_effective_form(grid, effective_kernel(form), cone, params)
    limits = [form_k.energy(f, f) for f in fns]
    errs = [[] for _ in eps_list]
    for ei, eps, _, cell_seed in _study_cells(master_seed, "mosco", eps_list, seeds):
        form_eps = assemble_form(grid, reseed_form(form, cell_seed), cone, params, eps)
        errs[ei] += [abs(form_eps.energy(f, f) - lim) for f, lim in zip(fns, limits)]
    q25, medians, q75 = zip(*map(env.quartiles, errs))
    thr = 0.1 * medians[0] if threshold is None else threshold
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    final_ok = medians[-1] <= thr
    return MoscoReport(
        eps_list=eps_list,
        medians=medians,
        q25=q25,
        q75=q75,
        threshold=thr,
        decreasing=decreasing,
        final_below_threshold=final_ok,
        passed=decreasing and final_ok,
    )


# ---------------------------------------------------------------------------
# assumption diagnostics: kernel moments


@dataclass(frozen=True)
class MomentBoundReport:
    eps_list: tuple[float, ...]
    medians: tuple[float, ...]
    max_value: float
    growth_slope: float
    exponent_p: float
    flagged: bool


def _kappa_matrix(form: CoefficientForm, axes, ball: np.ndarray, eps: float) -> np.ndarray:
    """Raw coefficient kappa(x_i/eps, x_j/eps) on all pairs of nodes of the lattice
    axes[0] x ... x axes[dim-1] in `ball`, a C-order mask of them; zero diagonal."""
    c, angular, factors, terms = form_terms(form)
    values = lattice_factors(factors, [a / eps for a in axes]).reshape(len(factors), -1)[:, ball]
    if angular.kind == "one":
        rho = 1.0
    else:
        points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)[ball]
        z = points[:, None, :] - points[None, :, :]
        norms = np.sqrt((z**2).sum(axis=-1))
        np.fill_diagonal(norms, 1.0)
        rho = angular.rho_units(z / norms[..., None])
    k = c * rho * sum(values[i][:, None] * values[j][None, :] for i, j in terms)
    np.fill_diagonal(k, 0.0)
    return k


def _declared_p(form: CoefficientForm) -> float:
    """The largest moment exponent the form's fields declare, 1 for constants."""
    return max((f.marginal.declared_p for f in form_terms(form)[2] if f is not None),
               default=1.0)


def check_moment_ball(grid: Grid, radius: float) -> None:
    """The moment quadrature needs a ball that holds at least two grid nodes,
    and at most 4096, the dense oracle's bound: it holds node-by-node matrices."""
    check_positive("moment ball radius", radius)
    nodes = int(grid.ball_mask(radius).sum())
    if not 2 <= nodes <= 4096:
        fix = "enlarge it" if nodes < 2 else "shrink it to at most 4096"
        raise ConfigurationError(f"ball of radius {radius:g} contains {nodes} grid nodes; {fix}")


def check_moment_eps(eps_list) -> None:
    """The growth slope is fitted over a falling eps ladder of two entries or more."""
    check_ladder("eps_list", eps_list)
    if len(eps_list) < 2:
        raise ConfigurationError(
            f"eps_list needs at least two entries to fit a growth slope, got {len(eps_list)}"
        )


def moment_bound_report(
    grid: Grid,
    form: CoefficientForm,
    eps_list,
    seeds: int,
    radius: float,
    master_seed: int = 0,
) -> MomentBoundReport:
    """Grid quadrature of int_B (int_B kappa(x/eps, y/eps) dy)^p dx per eps.

    The declared moment exponent p comes from the form's fields.  A positive
    fitted slope of log-value against log(1/eps) above 0.1 flags growth,
    the signature of a divergent coefficient moment; so does a NaN slope,
    which a zero median gives.
    """
    eps_list = tuple(float(e) for e in eps_list)
    check_moment_eps(eps_list)
    check_count("seeds", seeds)
    check_moment_ball(grid, radius)
    p = _declared_p(form)
    axes, ball = [grid.axis_coords()] * grid.dim, grid.ball_mask(radius)
    hd = grid.h**grid.dim
    vals = [[] for _ in eps_list]
    for ei, eps, _, cell_seed in _study_cells(master_seed, "moment", eps_list, seeds):
        k = _kappa_matrix(reseed_form(form, cell_seed), axes, ball, eps)
        inner = hd * k.sum(axis=1)
        vals[ei].append(hd * float((inner**p).sum()))
    medians = [env.quartiles(v)[1] for v in vals]
    with np.errstate(divide="ignore"):  # log(0) = -inf makes the slope NaN
        slope = float(np.polyfit(np.log([1.0 / e for e in eps_list]), np.log(medians), 1)[0])
    return MomentBoundReport(
        eps_list=eps_list,
        medians=tuple(medians),
        max_value=max(medians),
        growth_slope=slope,
        exponent_p=p,
        flagged=not slope <= 0.1,
    )
