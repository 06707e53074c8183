import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stablehom import discrete, env, kernel, solver
from stablehom import homogenize as H
from stablehom.errors import ConfigurationError, ConvergenceFailure

import oracles

CONE1 = kernel.full_space_cone(1)
PARAMS1 = kernel.KernelParams(alpha=1.0, dim=1)


def lognormal_summation(seed=0):
    return kernel.SummationForm(
        lambda_field=env.sample_field(1, env.lognormal(0.0, 0.5), seed=seed)
    )


def uniform_product(first_seed=0):
    return kernel.ProductForm(
        nu1=env.sample_field(1, env.uniform(0.5, 1.5), seed=first_seed),
        nu2=env.sample_field(1, env.uniform(0.5, 1.5), seed=first_seed + 1),
    )


# ---------------------------------------------------------------------------
# reseeding


def test_reseed_form_kinds():
    const = kernel.ConstantForm(2.0)
    assert H.reseed_form(const, 5) is const
    summ = lognormal_summation()
    r1 = H.reseed_form(summ, 5)
    assert r1.lambda_field.seed == env.derive_seed(5, "lambda")
    assert H.reseed_form(summ, 5) == r1  # deterministic
    assert H.reseed_form(summ, 6) != r1
    prod = uniform_product()
    r2 = H.reseed_form(prod, 5)
    assert r2.nu1.seed != r2.nu2.seed


def test_reseed_preserves_correlated_product():
    nu = env.sample_field(1, env.uniform(0.5, 1.5), seed=3)
    correlated = kernel.ProductForm(nu1=nu, nu2=nu)
    reseeded = H.reseed_form(correlated, 11)
    assert reseeded.nu1 == reseeded.nu2
    assert reseeded.nu1.seed != nu.seed


# ---------------------------------------------------------------------------
# sweep configuration and runs


def test_sweep_config_validation_and_defaults():
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    base = dict(grid=grid, form=kernel.ConstantForm(1.0), cone=CONE1, params=PARAMS1)
    cfg = H.SweepConfig(eps_list=(1.0, 0.5), seeds=2, **base)
    assert cfg.report_radius == 1.0  # L/8
    assert cfg.rhs.shape == (64,)
    assert cfg.rhs.max() == 1.0  # built-in bump has sup 1
    with pytest.raises(ConfigurationError):
        H.SweepConfig(eps_list=(0.5, 1.0), seeds=2, **base)
    with pytest.raises(ConfigurationError):
        H.SweepConfig(eps_list=(1.0, -0.5), seeds=2, **base)
    for eps_list in ((1.0, math.nan), (1.0, math.nan, 0.5)):
        with pytest.raises(ConfigurationError):
            H.SweepConfig(eps_list=eps_list, seeds=2, **base)
    with pytest.raises(ConfigurationError):
        H.SweepConfig(eps_list=(1.0,), seeds=0, **base)
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            H.SweepConfig(eps_list=(1.0,), seeds=2, lam=lam, **base)
    with pytest.raises(ConfigurationError):
        H.SweepConfig(eps_list=(1.0,), seeds=2, rhs=np.ones(5), **base)
    with pytest.raises(ConfigurationError):
        H.SweepConfig(eps_list=(1.0,), seeds=2, report_radius=-1.0, **base)
    with pytest.raises(ConfigurationError, match="measure field must have a finite mean"):
        H.SweepConfig(eps_list=(1.0,), seeds=2, **base,
                      mu_field=env.sample_field(1, env.shifted_pareto(1.0, 0.8)))


def test_constant_form_sweep_sits_at_solver_floor():
    # the environment energy equals its own limit, so every metric is pure
    # solver and assembly noise
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    cfg = H.SweepConfig(
        grid=grid, form=kernel.ConstantForm(1.5), cone=CONE1, params=PARAMS1,
        eps_list=(1.0, 0.5), seeds=2,
    )
    report = H.run_sweep(cfg)
    assert not report.failures
    for cell in report.cells:
        for metric in H.METRICS:
            assert getattr(cell, metric) <= 1e-6


def test_sweep_medians_decrease_for_random_environment():
    grid = discrete.Grid(dim=1, length=8.0, n=128)
    cfg = H.SweepConfig(
        grid=grid, form=lognormal_summation(), cone=CONE1, params=PARAMS1,
        eps_list=(1.0, 0.25), seeds=8,
    )
    report = H.run_sweep(cfg)
    assert not report.failures
    assert len(report.cells) == 16
    assert set(report.medians) == set(H.METRICS)
    med = report.medians["err_l2_mu"]
    assert med[1] < med[0]
    assert report.median("err_l2_mu") == med
    assert all(len(report.q25[m]) == len(report.q75[m]) == 2 for m in H.METRICS)


def test_sweep_with_measure_field():
    grid = discrete.Grid(dim=1, length=8.0, n=128)
    cfg = H.SweepConfig(
        grid=grid, form=lognormal_summation(), cone=CONE1, params=PARAMS1,
        eps_list=(0.5,), seeds=2,
        mu_field=env.sample_field(1, env.uniform(0.5, 1.5), seed=77),
    )
    report = H.run_sweep(cfg)
    assert not report.failures
    for cell in report.cells:
        for metric in H.METRICS:
            value = getattr(cell, metric)
            assert math.isfinite(value) and value >= 0.0


def test_limit_measure_is_the_mean_of_mu():
    # mu(x/eps) dx homogenizes to E[mu] dx, so the limit solves
    # (lambda E[mu] - A_K) u = E[mu] f, by one Fourier division and no
    # iteration; a mean-1 measure leaves it on Lebesgue weights bitwise
    grid = discrete.Grid(dim=1, length=8.0, n=128)
    base = dict(
        grid=grid, form=lognormal_summation(), cone=CONE1, params=PARAMS1,
        eps_list=(0.5,), seeds=2,
    )
    _, lebesgue, u_plain, *_ = H._solve_limit(H.SweepConfig(**base))
    unit_mean = H.SweepConfig(mu_field=env.sample_field(1, env.uniform(0.5, 1.5), seed=77), **base)
    assert np.array_equal(H._solve_limit(unit_mean)[2], u_plain)
    cfg = H.SweepConfig(mu_field=env.sample_field(1, env.uniform(1.0, 3.0), seed=77), **base)
    form_k, mw_k, u_k, *_ = H._solve_limit(cfg)
    assert np.array_equal(mw_k.m, 2.0 * lebesgue.m)
    defect = cfg.lam * mw_k.m * u_k - form_k.apply_generator(u_k) - mw_k.m * cfg.rhs
    assert np.abs(defect).max() <= 1e-12 * np.abs(mw_k.m * cfg.rhs).max()
    exact = solver.dense_oracle_solve(solver.ResolventProblem(form_k, mw_k, cfg.lam, cfg.rhs))
    assert np.abs(u_k - exact).max() <= 1e-12 * np.abs(exact).max()


def test_constant_measure_sweep_matches_its_limit():
    # a constant form under the constant measure mu = 2 has no randomness at
    # all: every cell is the limit problem itself, so every metric is CG's
    # error against the exact limit.
    # Against a Lebesgue limit the metric medians reached 0.544.
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    cfg = H.SweepConfig(
        grid=grid, form=kernel.ConstantForm(1.5), cone=CONE1, params=PARAMS1,
        eps_list=(1.0, 0.5), seeds=2, mu_field=env.sample_field(1, env.constant(2.0)),
    )
    report = H.run_sweep(cfg)
    assert not report.failures
    for metric in H.METRICS:
        assert max(report.medians[metric]) <= 1e-12


def test_constant_form_sweep_measures_the_cell_solver(monkeypatch):
    # a cell solve 1e-4 off must show in a constant-form sweep: the limit is
    # solved without CG, so the sweep does not compare CG with itself
    def off(problem, tol):
        sol = solver.solve_resolvent(problem, tol=tol)
        return replace(sol, u=sol.u * (1.0 + 1e-4))

    monkeypatch.setattr(H, "solve_resolvent", off)
    cfg = H.SweepConfig(
        grid=discrete.Grid(dim=1, length=8.0, n=64), form=kernel.ConstantForm(1.5), cone=CONE1,
        params=PARAMS1, eps_list=(1.0, 0.5), seeds=2,
    )
    report = H.run_sweep(cfg)
    assert not report.failures
    assert max(max(report.medians[m]) for m in H.METRICS) > 1e-6


def _failing_solves(monkeypatch, fails):
    """Patch the sweep's solver: call k (the cells in eps-major order from 0;
    the limit is solved without it) raises ConvergenceFailure when fails(k)."""
    calls = []

    def solve(problem, tol):
        calls.append(None)
        if fails(len(calls) - 1):
            raise ConvergenceFailure("stalled", residual=1e-3, iterations=7)
        return solver.solve_resolvent(problem, tol=tol)

    monkeypatch.setattr(H, "solve_resolvent", solve)


def _summation_sweep():
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    return H.SweepConfig(
        grid=grid, form=lognormal_summation(), cone=CONE1, params=PARAMS1,
        eps_list=(1.0, 0.5), seeds=2,
    )


def test_failed_cell_is_reported_alone(monkeypatch):
    cfg = _summation_sweep()
    clean = H.run_sweep(cfg)
    _failing_solves(monkeypatch, lambda k: k == 2)  # eps 0.5, seed 0
    report = H.run_sweep(cfg)
    assert report.failures == ((0.5, 0, "ConvergenceFailure: stalled"),)
    kept = [c for c in clean.cells if (c.eps, c.seed_index) != (0.5, 0)]
    assert len(report.cells) == len(kept) == 3
    for got, want in zip(report.cells, kept):
        assert (got.eps, got.seed_index, got.iterations) == (want.eps, want.seed_index, want.iterations)
        for metric in (*H.METRICS, "residual"):
            assert getattr(got, metric) == getattr(want, metric)
    assert report.medians["err_l2_mu"][0] == clean.medians["err_l2_mu"][0]
    assert report.medians["err_l2_mu"][1] == report.cells[-1].err_l2_mu


def test_cell_whose_measure_underflows_is_reported_alone(monkeypatch):
    # measure weights that underflow to 0 fail their cell with DomainError, as
    # a failed solve does, instead of ending the sweep
    mu = env.sample_field(1, env.uniform(0.5, 1.5), seed=4)
    cfg = H.SweepConfig(
        grid=discrete.Grid(dim=1, length=8.0, n=64), form=lognormal_summation(), cone=CONE1,
        params=PARAMS1, eps_list=(1.0, 0.5), seeds=2, mu_field=mu,
    )
    clean = H.run_sweep(cfg)
    calls = []

    def weights(grid, field, eps=1.0):  # call 0 is the limit's, then the cells
        calls.append(None)
        if len(calls) == 4:  # eps 0.5, seed 0: exp(-3000 |G|) is 0 for |G| > 0.25
            field = replace(field, marginal=env.exp_abs_gauss(3000.0))
        return discrete.measure_weights(grid, field, eps)

    monkeypatch.setattr(H, "measure_weights", weights)
    report = H.run_sweep(cfg)
    assert report.failures == (
        (0.5, 0, "DomainError: measure weights must be strictly positive, min 0"),)
    kept = [c for c in clean.cells if (c.eps, c.seed_index) != (0.5, 0)]
    assert len(report.cells) == len(kept) == 3
    for got, want in zip(report.cells, kept):
        assert (got.eps, got.seed_index, got.iterations) == (want.eps, want.seed_index, want.iterations)
        for metric in (*H.METRICS, "residual"):
            assert getattr(got, metric) == getattr(want, metric)
    assert report.medians["err_l2_mu"][1] == report.cells[-1].err_l2_mu


def test_sweep_with_every_cell_failed_reports_nan(monkeypatch):
    cfg = _summation_sweep()
    _failing_solves(monkeypatch, lambda k: True)
    report = H.run_sweep(cfg)
    assert report.cells == ()
    assert [(e, s) for e, s, _ in report.failures] == [(1.0, 0), (1.0, 1), (0.5, 0), (0.5, 1)]
    for table in (report.medians, report.q25, report.q75):
        assert all(math.isnan(v) for metric in H.METRICS for v in table[metric])


@pytest.mark.parametrize("mu_value", [1e-160, 1e-300, 1e-320])
def test_cells_whose_residual_underflows_fail_alone(mu_value):
    # mu 1e-160: <r, P^-1 r> underflows, and its division by 0 used to end
    # the sweep; at 1e-300 (m f)^2 underflows, and every cell used to report
    # u = 0 as solved after 0 iterations, at a residual of 0; at 1e-320 the
    # limit's mass E[mu] h^d is subnormal, 1/m overflows, and every cell
    # failed with NaN medians, so the config is refused
    def config():
        return H.SweepConfig(
            grid=discrete.Grid(dim=1, length=8.0, n=64), form=uniform_product(1), cone=CONE1,
            params=PARAMS1, eps_list=(1.0, 0.5), seeds=2,
            mu_field=env.sample_field(1, env.constant(mu_value)),
        )
    if mu_value == 1e-320:
        with pytest.raises(ConfigurationError, match=r"mass E\[mu\] h\^d = 1.25e-321 is not"):
            config()
        return
    report = H.run_sweep(config())
    assert report.cells == ()
    assert [(e, s) for e, s, _ in report.failures] == [(1.0, 0), (1.0, 1), (0.5, 0), (0.5, 1)]
    assert all(msg.startswith(("NumericalError", "ConvergenceFailure"))
               for _, _, msg in report.failures)


# ---------------------------------------------------------------------------
# effective-constant estimation


def test_estimate_constant_exact_for_constant_form():
    grid = discrete.Grid(dim=1, length=8.0, n=128)
    est = H.estimate_effective_constant(
        grid, kernel.ConstantForm(2.5), CONE1, PARAMS1, eps=0.5, seeds=3,
        test_fns=discrete.test_function_suite(grid),
    )
    assert np.allclose(est.c_hat, 2.5, rtol=1e-12)
    assert est.iqr <= 1e-12
    assert est.skipped_fns == ()
    assert len(est.samples) == 9


def test_estimate_constant_product_target():
    # independent unit-mean factors: the coefficient averages to 2
    grid = discrete.Grid(dim=1, length=4.0, n=256)
    est = H.estimate_effective_constant(
        grid, uniform_product(), CONE1, PARAMS1, eps=1.0 / 16.0, seeds=15,
        test_fns=discrete.test_function_suite(grid),
    )
    assert abs(est.c_hat - 2.0) <= 0.25
    assert est.iqr < 1.0


def test_estimate_constant_summation_target():
    grid = discrete.Grid(dim=1, length=4.0, n=256)
    form = kernel.SummationForm(
        lambda_field=env.sample_field(1, env.lognormal(-0.125, 0.5))  # mean 1
    )
    est = H.estimate_effective_constant(
        grid, form, CONE1, PARAMS1, eps=1.0 / 16.0, seeds=15,
        test_fns=discrete.test_function_suite(grid),
    )
    assert abs(est.c_hat - 2.0) <= 0.25


def test_estimate_skips_zero_functions():
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    fns = [discrete.evaluate(grid, discrete.bump(grid)), np.zeros(64)]
    est = H.estimate_effective_constant(
        grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, eps=1.0, seeds=2, test_fns=fns
    )
    assert est.skipped_fns == (1,)
    with pytest.raises(ConfigurationError):
        H.estimate_effective_constant(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, eps=1.0, seeds=0,
            test_fns=fns,
        )
    with pytest.raises(ConfigurationError):
        H.estimate_effective_constant(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, eps=1.0, seeds=2,
            test_fns=[np.zeros(64)],
        )


def test_estimate_spread_shrinks_with_seed_count():
    # scatter of c_hat across master seeds should tighten roughly like
    # 1/sqrt(seeds); a factor-4 seed increase lands near ratio 2
    grid = discrete.Grid(dim=1, length=4.0, n=128)
    fns = discrete.test_function_suite(grid)
    form = uniform_product()

    def spread(seeds):
        values = [
            H.estimate_effective_constant(
                grid, form, CONE1, PARAMS1, eps=0.125, seeds=seeds,
                test_fns=fns, master_seed=ms,
            ).c_hat
            for ms in range(10)
        ]
        return float(np.std(values))

    few, many = spread(3), spread(12)
    assert many < few
    assert 1.1 <= few / many <= 3.0


# ---------------------------------------------------------------------------
# form convergence (energies on fixed test functions)


def test_mosco_constant_form_sits_at_floor():
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    report = H.mosco_form_check(
        grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, (1.0, 0.5), seeds=2,
        test_fns=discrete.test_function_suite(grid),
    )
    # exact coefficients never move off the assembly floor; the raw report
    # says "not strictly decreasing" and leaves the judgment to callers
    assert max(report.medians) <= 1e-10
    assert not report.decreasing


def test_mosco_random_form_decreases():
    grid = discrete.Grid(dim=1, length=8.0, n=256)
    f = discrete.evaluate(grid, discrete.bump(grid))
    report = H.mosco_form_check(
        grid, uniform_product(), CONE1, PARAMS1, (0.5, 0.25, 0.125), seeds=12,
        test_fns=[f],
    )
    assert report.decreasing
    assert report.medians[-1] < report.medians[0]
    assert np.allclose(report.threshold, 0.1 * report.medians[0], rtol=1e-12)
    assert report.passed == (report.decreasing and report.final_below_threshold)
    explicit = H.mosco_form_check(
        grid, uniform_product(), CONE1, PARAMS1, (0.5, 0.25, 0.125), seeds=12,
        test_fns=[f], threshold=10.0,
    )
    assert explicit.final_below_threshold and explicit.passed


def test_mosco_validation():
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    with pytest.raises(ConfigurationError):
        H.mosco_form_check(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, (0.5, 1.0), seeds=2,
            test_fns=discrete.test_function_suite(grid),
        )


@pytest.mark.parametrize("threshold", [-1.0, 0.0, math.nan, math.inf])
def test_mosco_refuses_non_positive_threshold(threshold):
    # a negative threshold failed every run, and a NaN one every comparison
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    with pytest.raises(ConfigurationError, match="^mosco threshold must be"):
        H.mosco_form_check(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, (1.0, 0.5), seeds=2,
            test_fns=discrete.test_function_suite(grid), threshold=threshold,
        )


def test_mosco_refuses_empty_eps_list():
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    with pytest.raises(ConfigurationError, match="eps_list must be nonempty"):
        H.mosco_form_check(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, [], seeds=2,
            test_fns=discrete.test_function_suite(grid),
        )


def test_mosco_refuses_empty_test_functions():
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    with pytest.raises(ConfigurationError, match="test_fns must be nonempty"):
        H.mosco_form_check(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, (1.0, 0.5), seeds=2, test_fns=[],
        )


# ---------------------------------------------------------------------------
# coefficient moment growth


def test_moment_bound_flags_heavy_tail():
    grid = discrete.Grid(dim=1, length=4.0, n=64)
    eps = (1.0, 0.5, 0.25, 0.125, 0.0625)
    heavy = kernel.SummationForm(
        lambda_field=env.sample_field(1, env.shifted_pareto(1.0, 1.5, declared_p=2.0))
    )
    flagged = H.moment_bound_report(grid, heavy, eps, seeds=8, radius=1.0)
    assert flagged.flagged
    assert flagged.exponent_p == 2.0
    assert flagged.growth_slope > 0.1
    light = kernel.SummationForm(
        lambda_field=env.sample_field(1, env.lognormal(0.0, 0.5, declared_p=2.0))
    )
    ok = H.moment_bound_report(grid, light, eps, seeds=8, radius=1.0)
    assert not ok.flagged
    assert ok.max_value == max(ok.medians)


def test_moment_bound_constant_form_is_flat():
    grid = discrete.Grid(dim=1, length=4.0, n=64)
    report = H.moment_bound_report(
        grid, kernel.ConstantForm(2.0), (1.0, 0.5, 0.25), seeds=2, radius=1.0
    )
    assert len(set(report.medians)) == 1  # eps plays no role at all
    assert abs(report.growth_slope) < 1e-12
    assert not report.flagged


def test_moment_bound_refuses_a_single_eps():
    # one eps used to give growth slope 0, so an infinite moment passed
    grid = discrete.Grid(dim=1, length=4.0, n=32)
    heavy = kernel.SummationForm(
        lambda_field=env.sample_field(1, env.shifted_pareto(1.0, 1.2, declared_p=2.0))
    )
    message = "^eps_list needs at least two entries to fit a growth slope, got 1$"
    with pytest.raises(ConfigurationError, match=message):
        H.check_moment_eps((0.5,))
    with pytest.raises(ConfigurationError, match=message):
        H.moment_bound_report(grid, heavy, (0.5,), seeds=2, radius=1.0)


def test_moment_bound_flags_a_nan_slope():
    # a zero form has zero medians, whose log-log slope is NaN
    grid = discrete.Grid(dim=1, length=4.0, n=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = H.moment_bound_report(
            grid, kernel.ConstantForm(0.0), (1.0, 0.5), seeds=2, radius=1.0
        )
    assert report.medians == (0.0, 0.0)
    assert math.isnan(report.growth_slope)
    assert report.flagged


def test_kappa_matrix_matches_pointwise_kappa():
    # the coefficient of the moment quadrature, from fields evaluated on the
    # grid lattice, against oracles.kappa, which evaluates the fields one
    # point at a time, on the ball nodes of a small grid; the batched matmul
    # of the cos2 weight may round its dot products an ulp apart
    nu = env.sample_field(2, env.uniform(0.5, 1.5), env.moving_average(1.5), seed=5)
    lam = env.sample_field(2, env.lognormal(0.0, 0.5), seed=6)
    forms = [
        kernel.ConstantForm(1.3),
        kernel.SummationForm(lambda_field=lam, angular=kernel.AngularWeight("cos2", (0.6, 0.8))),
        kernel.ProductForm(nu1=nu, nu2=nu),
    ]
    grid = discrete.Grid(dim=2, length=4.0, n=8)
    ball = grid.ball_mask(1.0)
    pts = grid.nodes()[ball]
    assert len(pts) == 13
    for form in forms:
        k = H._kappa_matrix(form, [grid.axis_coords()] * 2, ball, 0.5)
        assert np.all(np.diag(k) == 0.0)
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i != j:
                    want = oracles.kappa(form, pts[i], pts[j], 0.5)
                    assert math.isclose(k[i, j], want, rel_tol=1e-15, abs_tol=0.0)


def test_moment_ball_holds_at_most_4096_nodes():
    # the quadrature holds node-by-node matrices: 12,853 nodes would need
    # 1.26 GiB for each
    big = discrete.Grid(dim=2, length=4.0, n=256)
    with pytest.raises(ConfigurationError, match="12853 grid nodes; shrink it to at most 4096"):
        H.check_moment_ball(big, 1.0)
    H.check_moment_ball(discrete.Grid(dim=2, length=4.0, n=128), 1.0)  # 3,209 nodes


def test_moment_bound_validation():
    grid = discrete.Grid(dim=1, length=4.0, n=64)
    form = kernel.ConstantForm(1.0)
    with pytest.raises(ConfigurationError):
        H.moment_bound_report(grid, form, (0.5, 1.0), seeds=2, radius=1.0)
    with pytest.raises(ConfigurationError):
        H.moment_bound_report(grid, form, (1.0, 0.5), seeds=0, radius=1.0)
    with pytest.raises(ConfigurationError):
        H.moment_bound_report(grid, form, (1.0, 0.5), seeds=2, radius=1e-6)
    with pytest.raises(ConfigurationError, match="smallest entry of eps_list"):
        H.moment_bound_report(grid, form, (1.0, 0.0), seeds=2, radius=1.0)


def test_moment_ball_refuses_negative_radius():
    # a radius of -1 used to give the ball of radius 1 and its medians
    grid = discrete.Grid(dim=1, length=4.0, n=64)
    with pytest.raises(ConfigurationError, match="^moment ball radius must be positive, got -1.0$"):
        H.check_moment_ball(grid, -1.0)
    with pytest.raises(ConfigurationError, match="^moment ball radius must be positive"):
        H.moment_bound_report(grid, kernel.ConstantForm(1.0), (1.0, 0.5), seeds=2, radius=-1.0)


def test_metric_names_are_stable():
    assert H.METRICS == ("err_l2_mu", "err_l1_ball", "pairing_err", "form_err", "norm_err")
