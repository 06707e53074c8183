"""Acceptance runs for the whole engine, one test per criterion.

Every test prints a single [PASS]/[FAIL] line with the measured number next
to the required bound (run pytest with -s to see the lines for passing
tests too).  All statistical criteria pin master_seed = 0 and fixed grids,
so reruns are reproducible; the bounds themselves are never adjusted to the
measured values.
"""

import json
import math

import numpy as np

from stablehom import cli, discrete, env, kernel
from stablehom import homogenize as H
from stablehom import solver as S

import oracles

CONE1 = kernel.full_space_cone(1)
EPS_LADDER = (1.0, 0.5, 0.25, 0.125, 0.0625)


def verdict(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num} ({name}): {detail}")
    return ok


def uniform_product_form():
    # two independent uniform(0.5, 1.5) factors, so E[nu1] E[nu2] = 1
    return kernel.ProductForm(
        nu1=env.sample_field(1, env.uniform(0.5, 1.5), seed=0),
        nu2=env.sample_field(1, env.uniform(0.5, 1.5), seed=1),
    )


def mean_one_summation_form():
    # lognormal(-1/8, 1/2) has mean exp(-1/8 + 1/8) = 1 exactly
    return kernel.SummationForm(
        lambda_field=env.sample_field(1, env.lognormal(-0.125, 0.5), seed=0)
    )


def test_01_constant_coefficient_identity():
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5):
        cfg = H.SweepConfig(
            grid=discrete.Grid(dim=1, length=8.0, n=128),
            form=kernel.ConstantForm(1.0),
            cone=CONE1,
            params=kernel.KernelParams(alpha=alpha, dim=1),
            eps_list=(1.0, 0.5, 0.25),
            seeds=2,
        )
        report = H.run_sweep(cfg)
        assert not report.failures
        for cell in report.cells:
            for metric in H.METRICS:
                worst = max(worst, getattr(cell, metric))
    ok = worst <= 1e-6
    assert verdict(
        1, "constant-coefficient identity", ok, f"max metric {worst:.3e} vs 1e-6"
    )


def test_02_product_form_resolvent_convergence():
    cfg = H.SweepConfig(
        grid=discrete.Grid(dim=1, length=8.0, n=512),
        form=uniform_product_form(),
        cone=CONE1,
        params=kernel.KernelParams(alpha=1.0, dim=1),
        eps_list=EPS_LADDER,
        seeds=10,
        lam=1.0,
    )
    report = H.run_sweep(cfg)
    assert not report.failures
    med = report.median("err_l2_mu")
    decreasing = all(b < a for a, b in zip(med, med[1:]))
    ratio = med[-1] / med[0]
    ok = decreasing and ratio <= 0.15
    assert verdict(
        2,
        "product-form resolvent convergence",
        ok,
        f"medians {[float(f'{v:.4g}') for v in med]}, "
        f"final/initial {ratio:.3f} vs required <= 0.15, "
        f"decreasing {decreasing}",
    )


def test_03_summation_form_resolvent_convergence():
    cfg = H.SweepConfig(
        grid=discrete.Grid(dim=1, length=8.0, n=512),
        form=mean_one_summation_form(),
        cone=CONE1,
        params=kernel.KernelParams(alpha=1.0, dim=1),
        eps_list=EPS_LADDER,
        seeds=10,
        lam=1.0,
    )
    report = H.run_sweep(cfg)
    assert not report.failures
    med = report.median("err_l2_mu")
    decreasing = all(b < a for a, b in zip(med, med[1:]))
    ratio = med[-1] / med[0]
    ok = decreasing and ratio <= 0.15
    assert verdict(
        3,
        "summation-form resolvent convergence",
        ok,
        f"medians {[float(f'{v:.4g}') for v in med]}, "
        f"final/initial {ratio:.3f} vs required <= 0.15, "
        f"decreasing {decreasing}",
    )


def test_04_time_change_effective_constant(tmp_path):
    # 1/lambda_1 uniform on (0, 4) gives E[1/lambda_1] = 2 exactly, so with
    # lambda_2 = 1 the effective constant is 1/2
    config = {
        "schema_version": 1,
        "experiment": "example17",
        "grid": {"dim": 1, "length": 8.0, "n": 64},
        "alpha": 1.0,
        "example17": {
            "inv_lambda1": {"kind": "uniform", "a": 0.0, "b": 4.0},
            "lambda2": 1.0,
            "eps": 0.0625,
            "seeds": 20,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg_path), "--out", str(out), "--deterministic"])
    block = json.loads((out / "report.json").read_text())["results"]["example17"]
    err = abs(block["c_hat"] - 0.5)
    ok = code == 0 and err <= 0.1
    assert verdict(
        4,
        "time-change effective constant",
        ok,
        f"c_hat {block['c_hat']:.4f}, |c_hat - 0.5| = {err:.4f} vs 0.1",
    )


def test_05_levy_exponent_oracle():
    k = kernel.ConstantForm(1.0)
    cauchy = kernel.KernelParams(alpha=1.0, dim=1)
    worst_rel = 0.0
    for xi in np.linspace(0.3, 6.0, 10):
        got = kernel.levy_exponent(k, CONE1, cauchy, (xi,))
        worst_rel = max(worst_rel, abs(got - math.pi * xi) / (math.pi * xi))
    worst_hom = 0.0
    for alpha in (0.5, 1.5):
        params = kernel.KernelParams(alpha=alpha, dim=1)
        base = kernel.levy_exponent(k, CONE1, params, (1.3,))
        for t in (2.0, 5.0):
            got = kernel.levy_exponent(k, CONE1, params, (1.3 * t,))
            worst_hom = max(worst_hom, abs(got - t**alpha * base) / (t**alpha * base))
    ok = worst_rel <= 1e-4 and worst_hom <= 1e-5
    assert verdict(
        5,
        "Levy exponent oracle",
        ok,
        f"Cauchy rel err {worst_rel:.2e} vs 1e-4, homogeneity {worst_hom:.2e} vs 1e-5",
    )


def test_06_functional_inequalities():
    grid1 = discrete.Grid(dim=1, length=8.0, n=256)
    params1 = kernel.KernelParams(alpha=1.0, dim=1)
    fns = discrete.test_function_suite(grid1)
    nash = oracles.nash_check(grid1, CONE1, params1, fns)
    doubled = oracles.nash_check(grid1, CONE1, params1, [2.0 * f for f in fns])
    finite = [r for r in nash.ratios if not math.isnan(r)]
    nash_ok = (
        nash.passed
        and bool(finite)
        and np.allclose(doubled.ratios, nash.ratios, rtol=1e-12, atol=0.0)
    )

    grid2 = discrete.Grid(dim=2, length=4.0, n=16)
    cone2 = kernel.ConeSpec(axis=(1.0, 0.0), aperture=0.5)
    params2 = kernel.KernelParams(alpha=1.0, dim=2)
    cc = oracles.cone_comparability_check(
        grid2, cone2, params2, discrete.test_function_suite(grid2)
    )
    cone_ok = cc.passed and math.isfinite(cc.max_ratio)

    # translation moduli of resolvent solutions
    min_margin = math.inf
    exponents = {}
    grid = discrete.Grid(dim=1, length=8.0, n=256)
    rhs = discrete.evaluate(grid, discrete.bump(grid))
    lebesgue = discrete.measure_weights(grid, None)
    for alpha in (0.5, 1.0, 1.5):
        params = kernel.KernelParams(alpha=alpha, dim=1)
        form = discrete.assemble_form(
            grid, mean_one_summation_form(), CONE1, params, eps=0.25
        )
        sol = S.solve_resolvent(S.ResolventProblem(form, lebesgue, 1.0, rhs))
        h = grid.h
        tr = discrete.translation_estimate_check(
            form, sol.u, (h, 2 * h, 4 * h, 8 * h), r=2.0
        )
        exponents[alpha] = tr.min_exponent
        min_margin = min(min_margin, tr.min_exponent - (alpha / 2.0 - 0.2))
    trans_ok = min_margin >= 0.0

    ok = nash_ok and cone_ok and trans_ok
    assert verdict(
        6,
        "functional inequalities",
        ok,
        f"nash max ratio {nash.max_ratio:.3f} scale-exact {nash_ok}, "
        f"cone max ratio {cc.max_ratio:.3f}, translation exponents "
        + ", ".join(f"alpha {a}: {e:.3f}" for a, e in exponents.items())
        + " vs alpha/2 - 0.2",
    )


def test_07_ergodic_suite():
    marginal = env.uniform(0.5, 1.5)  # mean 1
    region = ([0.0], [1.0])
    rels = {}
    for label, mixing in (("iid", env.iid_cells()), ("ma", env.moving_average(1.5))):
        field = env.sample_field(1, marginal, mixing=mixing, seed=0)
        study = oracles.birkhoff_study(field, 1 / 64, region, n_seeds=20)
        rels[label] = abs(study.median_average - study.exact_mean) / study.exact_mean
    birkhoff_ok = all(r <= 0.05 for r in rels.values())

    iid_field = env.sample_field(1, marginal, seed=0)
    entry = oracles.empirical_covariance(iid_field, [0.25], [0.25], [3.0], trials=10_000)
    cov_ok = abs(entry.signed) <= 3.0 * entry.standard_error

    tail = oracles.maximal_tail_check(iid_field, n_seeds=200)
    ok = birkhoff_ok and cov_ok and tail.markov_bound_ok
    assert verdict(
        7,
        "ergodic suite",
        ok,
        f"birkhoff rel err iid {rels['iid']:.4f} / ma {rels['ma']:.4f} vs 0.05, "
        f"|cov| {abs(entry.signed):.2e} vs 3 se {3 * entry.standard_error:.2e}, "
        f"markov bound {tail.markov_bound_ok}",
    )


def test_08_solver_and_assembly_oracles():
    worst_gap = worst_energy = worst_rowsum = 0.0
    contraction_all = True
    for i in range(20):
        if i == 19:
            dim, n, length, alpha = 1, 4096, 8.0, 1.0
        elif i % 4 == 3:
            dim, n, length = 2, (12, 16, 24, 32)[(i // 4) % 4], 4.0
            alpha = (0.5, 1.0, 1.5)[i % 3]
        else:
            dim, n, length = 1, (64, 128, 256, 512)[i % 4], 8.0
            alpha = (0.5, 1.0, 1.5)[i % 3]
        grid = discrete.Grid(dim=dim, length=length, n=n)
        cone = kernel.full_space_cone(dim)
        params = kernel.KernelParams(alpha=alpha, dim=dim)
        eps = 2.0 if dim == 2 else 0.5
        if i % 3 == 0:
            form_spec = kernel.ConstantForm(1.0 + 0.25 * (i % 5))
        elif i % 3 == 1:
            form_spec = kernel.SummationForm(
                lambda_field=env.sample_field(dim, env.lognormal(0.0, 0.5), seed=i)
            )
        else:
            form_spec = kernel.ProductForm(
                nu1=env.sample_field(dim, env.uniform(0.5, 1.5), seed=i),
                nu2=env.sample_field(dim, env.uniform(0.5, 1.5), seed=100 + i),
            )
        form = discrete.assemble_form(grid, form_spec, cone, params, eps)
        if i % 2 == 0:
            mw = discrete.measure_weights(grid, None)
        else:
            mu = env.sample_field(dim, env.lognormal(0.0, 0.3), seed=200 + i)
            mw = discrete.measure_weights(grid, mu, eps)
        rhs = np.random.default_rng(7000 + i).standard_normal(grid.size)
        lam = (0.3, 1.0, 2.5)[i % 3]
        problem = S.ResolventProblem(form, mw, lam, rhs)
        sol = S.solve_resolvent(problem, tol=1e-11)
        u_dense = S.dense_oracle_solve(problem)
        diff = sol.u - u_dense
        gap = math.sqrt(float(np.dot(mw.m, diff * diff))) / math.sqrt(
            float(np.dot(mw.m, u_dense * u_dense))
        )
        report = oracles.resolvent_contraction_check(problem, sol)
        rowsum = float(np.abs(form.dense_generator().sum(axis=1)).max())
        worst_gap = max(worst_gap, gap)
        worst_energy = max(worst_energy, report.energy_rel)
        worst_rowsum = max(worst_rowsum, rowsum)
        contraction_all = contraction_all and report.l2_ok and report.sup_ok
    ok = (
        worst_gap <= 1e-8
        and worst_energy <= 1e-6
        and worst_rowsum <= 1e-12
        and contraction_all
    )
    assert verdict(
        8,
        "solver and assembly oracles",
        ok,
        f"sparse-dense gap {worst_gap:.2e} vs 1e-8, energy identity "
        f"{worst_energy:.2e} vs 1e-6, row sums {worst_rowsum:.2e} vs 1e-12, "
        f"contraction every instance {contraction_all}",
    )


def test_09_form_convergence_on_test_functions():
    grid = discrete.Grid(dim=1, length=8.0, n=512)
    report = H.mosco_form_check(
        grid,
        uniform_product_form(),
        CONE1,
        kernel.KernelParams(alpha=1.0, dim=1),
        EPS_LADDER,
        seeds=10,
        test_fns=discrete.test_function_suite(grid),
    )
    ratio = report.medians[-1] / report.medians[0]
    ok = report.passed
    assert verdict(
        9,
        "form convergence on test functions",
        ok,
        f"medians {[float(f'{v:.4g}') for v in report.medians]}, "
        f"final/initial {ratio:.3f} vs required <= 0.10, "
        f"decreasing {report.decreasing}",
    )


def test_10_moment_bound_negative_control():
    grid = discrete.Grid(dim=1, length=4.0, n=64)
    kwargs = dict(eps_list=EPS_LADDER, seeds=8, radius=1.0)
    heavy = H.moment_bound_report(
        grid,
        kernel.SummationForm(
            lambda_field=env.sample_field(
                1, env.shifted_pareto(1.0, 1.5, declared_p=2.0), seed=0
            )
        ),
        **kwargs,
    )
    light = H.moment_bound_report(
        grid,
        kernel.SummationForm(
            lambda_field=env.sample_field(1, env.lognormal(0.0, 0.5, declared_p=2.0), seed=0)
        ),
        **kwargs,
    )
    ok = heavy.flagged and not light.flagged
    assert verdict(
        10,
        "moment bound negative control",
        ok,
        f"pareto slope {heavy.growth_slope:.3f} flagged {heavy.flagged}, "
        f"lognormal slope {light.growth_slope:.3f} flagged {light.flagged}",
    )
