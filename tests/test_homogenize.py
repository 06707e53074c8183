import math

import numpy as np
import pytest

from stablehom import discrete, env, kernel
from stablehom import homogenize as H
from stablehom.errors import ConfigurationError

CONE1 = kernel.full_space_cone(1)
PARAMS1 = kernel.KernelParams(alpha=1.0, dim=1)


def lognormal_summation(seed=0):
    return kernel.SummationForm(
        lambda_field=env.sample_field(1, env.lognormal(0.0, 0.5), seed=seed)
    )


def uniform_product():
    return kernel.ProductForm(
        nu1=env.sample_field(1, env.uniform(0.5, 1.5), seed=0),
        nu2=env.sample_field(1, env.uniform(0.5, 1.5), seed=1),
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
    with pytest.raises(ConfigurationError):
        H.SweepConfig(eps_list=(1.0, math.nan), seeds=2, **base)
    with pytest.raises(ConfigurationError):
        H.SweepConfig(eps_list=(1.0,), seeds=0, **base)
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            H.SweepConfig(eps_list=(1.0,), seeds=2, lam=lam, **base)
    with pytest.raises(ConfigurationError):
        H.SweepConfig(eps_list=(1.0,), seeds=2, rhs=np.ones(5), **base)
    with pytest.raises(ConfigurationError):
        H.SweepConfig(eps_list=(1.0,), seeds=2, report_radius=-1.0, **base)


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
    assert all(len(report.iqrs[m]) == 2 for m in H.METRICS)


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


def test_limit_solve_ignores_measure_field():
    # the limit problem lives on Lebesgue measure by construction; the
    # environment measure enters only the finite-eps side
    grid = discrete.Grid(dim=1, length=8.0, n=128)
    base = dict(
        grid=grid, form=lognormal_summation(), cone=CONE1, params=PARAMS1,
        eps_list=(0.5,), seeds=2,
    )
    with_mu = H.SweepConfig(
        mu_field=env.sample_field(1, env.uniform(0.5, 1.5), seed=77), **base
    )
    without = H.SweepConfig(**base)
    _, _, u_mu = H._solve_limit(with_mu)
    _, _, u_plain = H._solve_limit(without)
    assert np.array_equal(u_mu, u_plain)


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
# truncation tails


def test_truncation_tails_slopes():
    grid = discrete.Grid(dim=1, length=8.0, n=512)
    g = discrete.evaluate(grid, discrete.bump(grid))
    etas = (1.0, 0.5, 0.25, 0.125)
    for alpha in (0.5, 1.0, 1.5):
        report = H.truncation_tail_report(
            grid, lognormal_summation(), CONE1,
            kernel.KernelParams(alpha=alpha, dim=1), 1.0, g, etas,
        )
        assert report.small_decreasing and report.large_decreasing
        # small jumps carry energy ~ eta^(2-alpha), large ones die out fast
        assert report.small_slope_ok, f"alpha={alpha}: slope {report.small_slope}"
        assert report.large_slope_ok, f"alpha={alpha}: slope {report.large_slope}"
        assert report.small_energies[-1] < report.small_energies[0]


def test_truncation_tails_constant_function():
    grid = discrete.Grid(dim=1, length=8.0, n=512)
    report = H.truncation_tail_report(
        grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, 1.0,
        np.full(grid.size, 2.0), (1.0, 0.5),
    )
    assert report.small_energies == (0.0, 0.0)
    assert report.large_energies == (0.0, 0.0)
    assert math.isnan(report.small_slope)
    assert not report.small_slope_ok and not report.large_slope_ok
    assert report.small_decreasing  # flat zeros count as nonincreasing


def test_truncation_tails_validation():
    grid = discrete.Grid(dim=1, length=8.0, n=512)
    g = discrete.evaluate(grid, discrete.bump(grid))
    with pytest.raises(ConfigurationError):
        H.truncation_tail_report(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, 1.0, g, (4.0, 1.0)
        )
    with pytest.raises(ConfigurationError):
        H.truncation_tail_report(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, 1.0, g, (0.5, 0.5)
        )
    with pytest.raises(ConfigurationError):
        H.truncation_tail_report(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, 1.0, g, ()
        )
    # a zero truncation level used to divide by zero
    with pytest.raises(ConfigurationError, match="smallest entry of eta_list"):
        H.truncation_tail_report(
            grid, kernel.ConstantForm(1.0), CONE1, PARAMS1, 1.0, g, (0.5, 0.0)
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


def test_moment_bound_validation():
    grid = discrete.Grid(dim=1, length=4.0, n=64)
    form = kernel.ConstantForm(1.0)
    with pytest.raises(ConfigurationError):
        H.moment_bound_report(grid, form, (0.5, 1.0), seeds=2, radius=1.0)
    with pytest.raises(ConfigurationError):
        H.moment_bound_report(grid, form, (1.0,), seeds=0, radius=1.0)
    with pytest.raises(ConfigurationError):
        H.moment_bound_report(grid, form, (1.0,), seeds=2, radius=1e-6)
    with pytest.raises(ConfigurationError, match="smallest entry of eps_list"):
        H.moment_bound_report(grid, form, (1.0, 0.0), seeds=2, radius=1.0)


def test_metric_names_are_stable():
    assert H.METRICS == ("err_l2_mu", "err_l1_ball", "pairing_err", "form_err", "norm_err")
