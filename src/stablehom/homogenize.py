"""Epsilon-sweeps: random resolvents against their deterministic limits.

A sweep solves (lambda M_eps - A_eps) u = M_eps f for a ladder of scale
ratios eps and independent environment realizations, solves the limiting
constant-coefficient problem once on the same grid, and records five error
metrics per (eps, seed) cell.  Companion estimators measure the effective
constant through energy ratios, check form convergence on smooth test
functions, and probe the small/large-jump truncation tails and the
kernel moment bound that the convergence theory assumes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import env
from .discrete import (
    Grid,
    MeasureWeights,
    SparseSymmetricForm,
    assemble_effective_form,
    assemble_form,
    bump,
    evaluate,
    form_from_pairs,
    measure_weights,
    node_field_pairs,
)
from .errors import (
    ConfigurationError,
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
    factor_values,
    form_terms,
)
from .solver import ResolventProblem, check_lambda, solve_resolvent

METRICS = ("err_l2_mu", "err_l1_ball", "pairing_err", "form_err", "norm_err")


def _reseed_field(field: env.RandomField, seed: int) -> env.RandomField:
    return replace(field, seed=seed)


def reseed_form(form: CoefficientForm, cell_seed: int) -> CoefficientForm:
    """Give every random field of the form a seed derived from cell_seed.

    Equal nu1/nu2 fields of a product form stay equal, preserving the
    perfectly correlated construction used by the ratio-of-means experiment.
    """
    if isinstance(form, ConstantForm):
        return form
    if isinstance(form, SummationForm):
        lam = _reseed_field(form.lambda_field, env.derive_seed(cell_seed, "lambda"))
        return replace(form, lambda_field=lam)
    if isinstance(form, ProductForm):
        if form.nu1 == form.nu2:
            nu = _reseed_field(form.nu1, env.derive_seed(cell_seed, "nu"))
            return replace(form, nu1=nu, nu2=nu)
        return replace(
            form,
            nu1=_reseed_field(form.nu1, env.derive_seed(cell_seed, "nu1")),
            nu2=_reseed_field(form.nu2, env.derive_seed(cell_seed, "nu2")),
        )
    raise ConfigurationError(f"unknown coefficient form {type(form).__name__}")


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
        if self.mu_field is not None and not math.isfinite(env.field_mean(self.mu_field)):
            raise ConfigurationError("the measure field must have a finite mean")
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


def _solve_limit(config: SweepConfig) -> tuple[SparseSymmetricForm, MeasureWeights, np.ndarray]:
    """The limit (lambda E[mu] - A_K) u = E[mu] f: mu(x/eps) dx homogenizes to
    E[mu] dx, and K is the averaged kernel."""
    kernel_eff = effective_kernel(config.form)
    form_k = assemble_effective_form(config.grid, kernel_eff, config.cone, config.params)
    mean_mu = 1.0 if config.mu_field is None else env.field_mean(config.mu_field)
    mw_k = MeasureWeights(config.grid, mean_mu * measure_weights(config.grid, None).m)
    sol = solve_resolvent(ResolventProblem(form_k, mw_k, config.lam, config.rhs), tol=config.tol)
    return form_k, mw_k, sol.u


def _sweep_cell(
    config: SweepConfig,
    eps_index: int,
    seed_index: int,
    form_k: SparseSymmetricForm,
    mw_k: MeasureWeights,
    u_k: np.ndarray,
) -> SweepCell:
    eps = config.eps_list[eps_index]
    cell_seed = env.derive_seed(config.master_seed, "sweep", eps_index, seed_index)
    form = reseed_form(config.form, cell_seed)
    start = time.perf_counter()
    pairs = node_field_pairs(config.grid, form, eps)
    if config.mu_field is None:
        mw = mw_k
    else:
        mu = _reseed_field(config.mu_field, env.derive_seed(cell_seed, "mu"))
        mw = measure_weights(config.grid, mu, eps)
    fields_done = time.perf_counter()
    form_eps = form_from_pairs(config.grid, form, config.cone, config.params, pairs)
    assembly_s = time.perf_counter() - fields_done
    field_s = fields_done - start
    sol = solve_resolvent(
        ResolventProblem(form_eps, mw, config.lam, config.rhs), tol=config.tol
    )
    u, g = sol.u, config.rhs
    grid = config.grid
    hd = grid.h**grid.dim
    diff = u - u_k
    ball = grid.ball_mask(config.report_radius)
    err_l2_mu = math.sqrt(float(np.dot(mw.m, diff * diff)))
    err_l1_ball = hd * float(np.abs(diff[ball]).sum())
    pairing_err = abs(float(np.dot(mw.m, u * g)) - float(np.dot(mw_k.m, u_k * g)))
    form_err = abs(form_eps.energy(u, g) - form_k.energy(u_k, g))
    norm_err = abs(
        math.sqrt(float(np.dot(mw.m, u * u))) - math.sqrt(float(np.dot(mw_k.m, u_k * u_k)))
    )
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
    """Solve the limit problem once, then every (eps, seed) cell against it.
    A cell whose solve fails is listed in `failures`, and every cell is when
    the limit's solve fails; an eps with no cell left has NaN quartiles."""
    cells, failures = [], []
    try:
        limit = _solve_limit(config)
    except NumericalError as exc:  # ConvergenceFailure included
        failures = [(eps, si, f"limit {type(exc).__name__}: {exc}")
                    for eps in config.eps_list for si in range(config.seeds)]
    else:
        for ei, eps in enumerate(config.eps_list):
            for si in range(config.seeds):
                try:
                    cells.append(_sweep_cell(config, ei, si, *limit))
                except NumericalError as exc:
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
    ref_energy, skipped = [], []
    fns = [np.asarray(f, dtype=float) for f in test_fns]
    for i, f in enumerate(fns):
        e = reference.energy(f, f)
        ref_energy.append(e)
        if e == 0.0:
            skipped.append(i)
    if len(skipped) == len(fns):
        raise ConfigurationError("all test functions have zero reference energy")
    samples = []
    for si in range(seeds):
        cell_seed = env.derive_seed(master_seed, "estimate", si)
        form_eps = assemble_form(grid, reseed_form(form, cell_seed), cone, params, eps)
        for i, f in enumerate(fns):
            if i in skipped:
                continue
            samples.append(form_eps.energy(f, f) / ref_energy[i])
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
    quartiles = []
    for ei, eps in enumerate(eps_list):
        errs = []
        for si in range(seeds):
            cell_seed = env.derive_seed(master_seed, "mosco", ei, si)
            form_eps = assemble_form(grid, reseed_form(form, cell_seed), cone, params, eps)
            for f, lim in zip(fns, limits):
                errs.append(abs(form_eps.energy(f, f) - lim))
        quartiles.append(env.quartiles(errs))
    q25, medians, q75 = zip(*quartiles)
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
# assumption diagnostics: truncation tails and kernel moments


def check_eta_list(eta_list, length: float) -> None:
    """Truncation levels fall strictly and start inside the jump cutoff L/4."""
    check_ladder("eta_list", eta_list)
    if eta_list[0] > length / 4.0:
        raise ConfigurationError(
            f"largest eta {eta_list[0]:g} exceeds the jump cutoff L/4 = {length / 4:g}"
        )


@dataclass(frozen=True)
class TruncationTailReport:
    eta_list: tuple[float, ...]
    small_energies: tuple[float, ...]
    large_energies: tuple[float, ...]
    small_slope: float
    large_slope: float
    small_decreasing: bool
    large_decreasing: bool
    small_slope_ok: bool
    large_slope_ok: bool


def truncation_tail_report(
    grid: Grid,
    form: CoefficientForm,
    cone: ConeSpec,
    params: KernelParams,
    eps: float,
    g: np.ndarray,
    eta_list,
) -> TruncationTailReport:
    """Energy carried by jumps |z| <= eta and |z| >= 1/eta.

    The small-jump side should vanish like eta^(2-alpha) and the large-jump
    side like eta^alpha as eta -> 0; both sequences must be nonincreasing.
    """
    eta_list = tuple(float(e) for e in eta_list)
    check_eta_list(eta_list, grid.length)
    form_eps = assemble_form(grid, form, cone, params, eps)
    g = np.asarray(g, dtype=float)
    small = [form_eps.energy(g, g, r_hi=eta) for eta in eta_list]
    large = [form_eps.energy(g, g, r_lo=1.0 / eta) for eta in eta_list]

    def fit_slope(values):
        pts = [(e, v) for e, v in zip(eta_list, values) if v > 0]
        if len(pts) < 2:
            return math.nan
        es, vs = zip(*pts)
        return float(np.polyfit(np.log(es), np.log(vs), 1)[0])

    small_slope = fit_slope(small)
    large_slope = fit_slope(large)
    alpha = params.alpha
    return TruncationTailReport(
        eta_list=eta_list,
        small_energies=tuple(small),
        large_energies=tuple(large),
        small_slope=small_slope,
        large_slope=large_slope,
        small_decreasing=all(b <= a for a, b in zip(small, small[1:])),
        large_decreasing=all(b <= a for a, b in zip(large, large[1:])),
        small_slope_ok=(not math.isnan(small_slope))
        and abs(small_slope - (2.0 - alpha)) <= 0.3,
        large_slope_ok=(not math.isnan(large_slope)) and large_slope >= alpha / 2.0,
    )


@dataclass(frozen=True)
class MomentBoundReport:
    eps_list: tuple[float, ...]
    medians: tuple[float, ...]
    max_value: float
    growth_slope: float
    exponent_p: float
    flagged: bool


def _kappa_matrix(form: CoefficientForm, points: np.ndarray, eps: float) -> np.ndarray:
    """Raw coefficient kappa(x_i/eps, x_j/eps) on all point pairs, zero diagonal."""
    c, angular, pairs = form_terms(form)
    values = factor_values(
        pairs, lambda f: np.ones(len(points)) if f is None else env.field_values(f, points / eps)
    )
    if angular.kind == "one":
        rho = 1.0
    else:
        z = points[:, None, :] - points[None, :, :]
        norms = np.sqrt((z**2).sum(axis=-1))
        np.fill_diagonal(norms, 1.0)
        rho = angular.rho_units(z / norms[..., None])
    k = c * rho * sum(a[:, None] * b[None, :] for a, b in values)
    np.fill_diagonal(k, 0.0)
    return k


def _declared_p(form: CoefficientForm) -> float:
    """The largest moment exponent the form's fields declare, 1 for constants."""
    pairs = form_terms(form)[2]
    return max((f.marginal.declared_p for pair in pairs for f in pair if f is not None),
               default=1.0)


def check_moment_ball(grid: Grid, radius: float) -> None:
    """The moment quadrature needs a ball that holds at least two grid nodes."""
    check_positive("moment ball radius", radius)
    nodes = int(grid.ball_mask(radius).sum())
    if nodes < 2:
        raise ConfigurationError(
            f"ball of radius {radius:g} contains {nodes} grid nodes; enlarge it"
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
    the signature of a divergent coefficient moment.
    """
    eps_list = tuple(float(e) for e in eps_list)
    check_ladder("eps_list", eps_list)
    check_count("seeds", seeds)
    check_moment_ball(grid, radius)
    p = _declared_p(form)
    points = grid.nodes()[grid.ball_mask(radius)]
    hd = grid.h**grid.dim
    medians = []
    for ei, eps in enumerate(eps_list):
        vals = []
        for si in range(seeds):
            cell_seed = env.derive_seed(master_seed, "moment", ei, si)
            k = _kappa_matrix(reseed_form(form, cell_seed), points, eps)
            inner = hd * k.sum(axis=1)
            vals.append(hd * float((inner**p).sum()))
        medians.append(env.quartiles(vals)[1])
    slope = (
        float(np.polyfit(np.log([1.0 / e for e in eps_list]), np.log(medians), 1)[0])
        if len(eps_list) >= 2
        else 0.0
    )
    return MomentBoundReport(
        eps_list=eps_list,
        medians=tuple(medians),
        max_value=max(medians),
        growth_slope=slope,
        exponent_p=p,
        flagged=slope > 0.1,
    )
