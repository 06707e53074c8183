import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from stablehom import env, kernel
from stablehom.errors import ConfigurationError, DomainError


# ---------------------------------------------------------------------------
# cone membership


def test_full_space_cone_accepts_every_direction():
    cone = kernel.full_space_cone(2)
    assert cone.aperture == 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.normal(size=2)
        assert kernel.in_cone(cone, z)


def test_cone_membership_axis_and_perpendicular():
    cone = kernel.ConeSpec(axis=(1.0, 0.0), aperture=0.5)
    assert kernel.in_cone(cone, (1.0, 0.0))
    assert kernel.in_cone(cone, (-1.0, 0.0))  # two-sided
    assert not kernel.in_cone(cone, (0.0, 1.0))
    # |cos| = 1/sqrt(2) ~ 0.707 >= 0.5
    assert kernel.in_cone(cone, (1.0, 1.0))
    # just inside/outside the boundary |cos| = 0.5
    assert kernel.in_cone(cone, (0.501, math.sqrt(1 - 0.501**2)))
    assert not kernel.in_cone(cone, (0.499, math.sqrt(1 - 0.499**2)))


def test_cone_rejects_origin():
    cone = kernel.full_space_cone(1)
    with pytest.raises(DomainError):
        kernel.in_cone(cone, (0.0,))


def test_cone_vectorized_matches_scalar():
    cone = kernel.ConeSpec(axis=(0.0, 1.0), aperture=0.3)
    rng = np.random.default_rng(11)
    zs = rng.normal(size=(50, 2))
    batch = kernel.in_cone(cone, zs)
    single = np.array([kernel.in_cone(cone, z) for z in zs])
    assert np.array_equal(batch, single)


@settings(max_examples=50, deadline=None)
@given(
    z1=st.floats(-100, 100, allow_nan=False),
    z2=st.floats(-100, 100, allow_nan=False),
    aperture=st.floats(0.0, 0.99),
)
def test_cone_evenness(z1, z2, aperture):
    if max(abs(z1), abs(z2)) < 1e-150:  # |z|^2 would underflow to zero
        return
    cone = kernel.ConeSpec(axis=(0.6, 0.8), aperture=aperture)
    z = np.array([z1, z2])
    assert kernel.in_cone(cone, z) == kernel.in_cone(cone, -z)


def test_cone_validation():
    with pytest.raises(ConfigurationError):
        kernel.ConeSpec(axis=(1.0,), aperture=1.0)
    with pytest.raises(ConfigurationError):
        kernel.ConeSpec(axis=(1.0,), aperture=-0.1)
    with pytest.raises(ConfigurationError):
        kernel.ConeSpec(axis=(0.0, 0.0), aperture=0.5)
    # axis is stored normalized
    cone = kernel.ConeSpec(axis=(3.0, 4.0), aperture=0.2)
    assert np.allclose(cone.axis, (0.6, 0.8), rtol=1e-14)


def test_angular_weight_range():
    w = kernel.AngularWeight("cos2", (1.0, 0.0))
    assert w.rho(np.array([[2.0, 0.0]]))[0] == 1.5  # along the axis
    assert w.rho(np.array([[0.0, 5.0]]))[0] == 1.0  # perpendicular
    with pytest.raises(ConfigurationError):
        kernel.AngularWeight("cubic")


# ---------------------------------------------------------------------------
# pointwise coefficient kappa


def test_kappa_summation_constant_field():
    lam = env.sample_field(1, env.constant(1.0))
    form = kernel.SummationForm(lambda_field=lam)
    assert kernel.kappa(form, (0.3,), (1.7,), 1.0) == 2.0


def test_kappa_product_constant_fields():
    nu1 = env.sample_field(1, env.constant(2.0))
    nu2 = env.sample_field(1, env.constant(3.0))
    form = kernel.ProductForm(nu1=nu1, nu2=nu2)
    # nu1(x) nu2(y) + nu1(y) nu2(x) = 2*3 + 2*3
    assert kernel.kappa(form, (0.0,), (1.0,), 1.0) == 12.0


def test_kappa_symmetry_bitwise():
    lam = env.sample_field(2, env.lognormal(0.0, 0.5), seed=3)
    summ = kernel.SummationForm(lambda_field=lam, angular=kernel.AngularWeight("cos2", (1.0, 0.0)))
    prod = kernel.ProductForm(
        nu1=env.sample_field(2, env.uniform(0.5, 1.5), seed=4),
        nu2=env.sample_field(2, env.uniform(0.5, 2.5), seed=5),
    )
    rng = np.random.default_rng(0)
    for form in (summ, prod):
        for _ in range(25):
            x, y = rng.normal(size=2), rng.normal(size=2)
            assert kernel.kappa(form, x, y, 0.25) == kernel.kappa(form, y, x, 0.25)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(-8, 8, allow_nan=False),
    y=st.floats(-8, 8, allow_nan=False),
)
def test_kappa_symmetry_property(x, y):
    if abs(x - y) < 1e-9:
        return
    lam = env.sample_field(1, env.lognormal(0.2, 0.4), seed=9)
    form = kernel.SummationForm(lambda_field=lam)
    a = kernel.kappa(form, (x,), (y,), 0.5)
    b = kernel.kappa(form, (y,), (x,), 0.5)
    assert a == b


def test_kappa_diagonal_and_eps_validation():
    form = kernel.ConstantForm(1.0)
    with pytest.raises(DomainError):
        kernel.kappa(form, (1.0,), (1.0,), 1.0)
    with pytest.raises(ConfigurationError):
        kernel.kappa(form, (0.0,), (1.0,), 0.0)


def test_kappa_eps_is_argument_rescaling():
    lam = env.sample_field(1, env.uniform(0.5, 1.5), seed=2)
    form = kernel.SummationForm(lambda_field=lam)
    x, y = np.array([0.3]), np.array([0.9])
    assert kernel.kappa(form, x, y, 0.5) == kernel.kappa(form, 2 * x, 2 * y, 1.0)


def test_kappa_summation_pointwise_bounds():
    lam = env.sample_field(2, env.lognormal(0.0, 0.6), seed=13)
    w = kernel.AngularWeight("cos2", (0.0, 1.0))
    form = kernel.SummationForm(lambda_field=lam, angular=w)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.normal(size=2) * 3, rng.normal(size=2) * 3
        if np.array_equal(x, y):
            continue
        pair_sum = env.field_at(lam, x) + env.field_at(lam, y)
        k = kernel.kappa(form, x, y, 1.0)
        # cos2 spans [1, 3/2]
        assert pair_sum - 1e-12 <= k <= 1.5 * pair_sum + 1e-12


# ---------------------------------------------------------------------------
# effective kernels


def test_effective_kernel_constant_form():
    k = kernel.effective_kernel(kernel.ConstantForm(5.0))
    assert k == kernel.ConstantForm(5.0, kernel.AngularWeight())


def test_effective_kernel_product_means():
    # both terms of nu1(x) nu2(y) + nu1(y) nu2(x) decorrelate at large
    # separation, so the averaged kernel is twice the product of the means
    nu1 = env.sample_field(1, env.uniform(1.5, 2.5), seed=1)  # mean 2
    nu2 = env.sample_field(1, env.constant(3.0))
    k = kernel.effective_kernel(kernel.ProductForm(nu1=nu1, nu2=nu2))
    assert k.angular == kernel.AngularWeight()
    assert np.allclose(k.k0, 12.0, rtol=1e-12)
    # field scale multiplies straight through
    nu1s = env.sample_field(1, env.uniform(1.5, 2.5), seed=1, scale=2.0)
    ks = kernel.effective_kernel(kernel.ProductForm(nu1=nu1s, nu2=nu2))
    assert np.allclose(ks.k0, 24.0, rtol=1e-12)


def test_effective_kernel_summation_values():
    m, s = 0.3, 0.5
    lam = env.sample_field(2, env.lognormal(m, s), seed=8)
    mean = math.exp(m + s * s / 2)
    plain = kernel.effective_kernel(kernel.SummationForm(lambda_field=lam))
    assert plain.angular == kernel.AngularWeight()
    assert np.allclose(plain.k0, 2 * mean, rtol=1e-12)
    w = kernel.AngularWeight("cos2", (1.0, 0.0))
    tilted = kernel.effective_kernel(kernel.SummationForm(lambda_field=lam, angular=w))
    assert tilted == kernel.ConstantForm(plain.k0, w)


def test_effective_kernel_is_an_idempotent_constant_form():
    lam = env.sample_field(2, env.lognormal(0.0, 0.4), seed=3)
    nu = env.sample_field(2, env.uniform(0.5, 1.5), seed=4)
    w = kernel.AngularWeight("cos2", (0.6, 0.8))
    forms = [
        kernel.ConstantForm(1.7),
        kernel.ConstantForm(0.3, w),
        kernel.SummationForm(lambda_field=lam),
        kernel.SummationForm(lambda_field=lam, angular=w),
        kernel.ProductForm(nu1=lam, nu2=nu),
        kernel.ProductForm(nu1=nu, nu2=nu),
    ]
    for form in forms:
        k = kernel.effective_kernel(form)
        assert isinstance(k, kernel.ConstantForm)
        assert kernel.effective_kernel(k) == k


def test_effective_kernel_scale_free():
    lam = env.sample_field(2, env.uniform(0.5, 1.5), seed=6)
    k = kernel.effective_kernel(
        kernel.SummationForm(lambda_field=lam, angular=kernel.AngularWeight("cos2", (1.0, 1.0)))
    )
    z = np.array([[0.3, -1.2]])
    base = k.k0 * k.angular.rho(z)
    for t in (0.5, 3.0, 100.0):
        assert np.allclose(k.k0 * k.angular.rho(t * z), base, rtol=1e-14)


def test_effective_kernel_needs_finite_mean():
    heavy = env.sample_field(1, env.shifted_pareto(1.0, 1.0))  # E = inf
    with pytest.raises(ConfigurationError):
        kernel.effective_kernel(kernel.SummationForm(lambda_field=heavy))
    with pytest.raises(ConfigurationError):
        kernel.effective_kernel(kernel.ProductForm(nu1=heavy, nu2=heavy))


# ---------------------------------------------------------------------------
# time-changed effective constant


def test_c0_constant_speeds():
    c = env.constant(3.0)
    assert np.allclose(kernel.c0_formula(c, c), 9.0, rtol=1e-12)
    assert np.allclose(kernel.c0_formula(c, c, joint="identical"), 9.0, rtol=1e-12)


def test_c0_independent_matches_moment_ratio():
    lam1 = env.uniform(0.5, 1.5)
    lam2 = env.lognormal(0.1, 0.3)
    e2 = env.moment(lam2, 1.0)
    want = e2 * e2 / (e2 * env.moment(lam1, -1.0))
    assert np.allclose(kernel.c0_formula(lam1, lam2), want, rtol=1e-12)
    # uniform(0.5, 1.5) has E[1/x] = log 3, so with a unit-mean speed the
    # constant collapses to 1/log 3
    one = env.constant(1.0)
    assert np.allclose(kernel.c0_formula(lam1, one), 1.0 / math.log(3.0), rtol=1e-9)


def test_c0_inverse_mean_two():
    # shifted_pareto(0.25, 1): E[1/x] = a/((a+1) x_min) = 2, unit speed -> 1/2
    lam1 = env.shifted_pareto(0.25, 1.0)
    assert np.allclose(kernel.c0_formula(lam1, env.constant(1.0)), 0.5, rtol=1e-9)


def test_c0_identical_branch():
    lam = env.lognormal(0.1, 0.3)
    want = env.moment(lam, 1.0) ** 2
    assert np.allclose(kernel.c0_formula(lam, lam, joint="identical"), want, rtol=1e-12)
    with pytest.raises(ConfigurationError):
        kernel.c0_formula(env.constant(1.0), lam, joint="identical")
    with pytest.raises(ConfigurationError):
        kernel.c0_formula(lam, lam, joint="correlated")


def test_c0_requires_finite_inverse_moment():
    with pytest.raises(ConfigurationError):
        kernel.c0_formula(env.uniform(0.0, 2.0), env.constant(1.0))


# ---------------------------------------------------------------------------
# Levy exponent of the limit


def test_levy_exponent_zero_at_origin():
    params = kernel.KernelParams(alpha=1.2, dim=2)
    k = kernel.ConstantForm(1.0)
    assert kernel.levy_exponent(k, kernel.full_space_cone(2), params, (0.0, 0.0)) == 0.0


def test_levy_exponent_cauchy_closed_form():
    # d = 1, alpha = 1, K = 1 on the whole line: int (1-cos(xi z))/z^2 dz = pi |xi|
    params = kernel.KernelParams(alpha=1.0, dim=1)
    cone = kernel.full_space_cone(1)
    k = kernel.ConstantForm(1.0)
    for xi in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, -3.0, 0.1, 17.0, -0.75):
        got = kernel.levy_exponent(k, cone, params, (xi,))
        assert np.allclose(got, math.pi * abs(xi), rtol=1e-4)


def test_levy_exponent_half_stable_closed_form():
    # alpha = 1/2 oracle: integrating by parts, int_0^inf (1-cos u) u^-3/2 du
    # = 2 int_0^inf sin(u)/sqrt(u) du = sqrt(2 pi), so phi = 2 K sqrt(|xi| 2 pi)
    params = kernel.KernelParams(alpha=0.5, dim=1)
    k = kernel.ConstantForm(2.0)
    for xi in (0.3, 1.7, 6.0):
        exact = 2 * 2.0 * math.sqrt(xi) * math.sqrt(2 * math.pi)
        got = kernel.levy_exponent(k, kernel.full_space_cone(1), params, (xi,))
        assert np.allclose(got, exact, rtol=1e-8)


def _radial_quadrature(alpha):
    """int_0^inf (1 - cos u) u^(-1-alpha) du by QUADPACK: the head on [0, 2 pi]
    as (1 - cos u)/u^2 against the algebraic weight u^(1-alpha), then the
    tail as an exact power integral minus a Fourier integral (qawf)."""
    a = 2.0 * math.pi
    head, _ = integrate.quad(lambda u: 0.5 * np.sinc(u / a) ** 2, 0.0, a,
                             weight="alg", wvar=(1.0 - alpha, 0.0), limit=200)
    tail_cos, _ = integrate.quad(lambda u: u ** (-1.0 - alpha), a, np.inf,
                                 weight="cos", wvar=1.0, limit=200)
    return head + a ** (-alpha) / alpha - tail_cos


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.6, 1.8, 1.9, 1.95, 1.99])
def test_radial_constant_matches_quadrature(alpha):
    assert np.isclose(kernel._radial_constant(alpha), _radial_quadrature(alpha),
                      rtol=1e-9, atol=0.0)
    params = kernel.KernelParams(alpha=alpha, dim=2)
    assert kernel.levy_exponent(kernel.ConstantForm(1.0), kernel.full_space_cone(2),
                                params, (0.6, -0.8)) > 0.0


def test_levy_exponent_homogeneity():
    cone = kernel.ConeSpec(axis=(1.0, 0.0), aperture=0.5)
    w = kernel.AngularWeight("cos2", (1.0, 0.0))
    k = kernel.ConstantForm(2.6, w)
    for alpha in (0.5, 1.5):
        params = kernel.KernelParams(alpha=alpha, dim=2)
        xi = np.array([0.7, -0.4])
        base = kernel.levy_exponent(k, cone, params, xi)
        for t in (2.0, 3.7):
            scaled = kernel.levy_exponent(k, cone, params, t * xi)
            assert np.allclose(scaled, t**alpha * base, rtol=1e-10)


def _levy_ratios(k, cone, params, samples) -> list[float]:
    """phi(xi)/|xi|^alpha at each sample: the lower bound the limit needs is
    their minimum staying positive."""
    return [kernel.levy_exponent(k, cone, params, xi) / math.hypot(*xi) ** params.alpha
            for xi in samples]


def test_levy_lower_bound_full_space_isotropic():
    params = kernel.KernelParams(alpha=1.1, dim=2)
    k = kernel.ConstantForm(1.0)
    angles = np.linspace(0, 2 * math.pi, 9)[:-1]
    samples = [(r * math.cos(a), r * math.sin(a)) for r, a in zip((0.5, 1, 2, 4) * 2, angles)]
    ratios = _levy_ratios(k, kernel.full_space_cone(2), params, samples)
    assert min(ratios) > 0.0
    # isotropic homogeneous exponent: phi(xi)/|xi|^alpha is one constant
    assert np.allclose(ratios, ratios[0], rtol=1e-8)


def test_levy_lower_bound_cone_positive_and_aperture_monotone():
    params = kernel.KernelParams(alpha=1.0, dim=2)
    k = kernel.ConstantForm(1.0)
    angles = np.linspace(0, math.pi, 16, endpoint=False)
    samples = [(math.cos(a), math.sin(a)) for a in angles]
    wide, narrow = (
        min(_levy_ratios(k, kernel.ConeSpec(axis=(1.0, 0.0), aperture=ap), params, samples))
        for ap in (0.3, 0.8)
    )
    assert wide > 0.0 and narrow > 0.0
    assert narrow < wide


def test_kernel_params_validation():
    with pytest.raises(ConfigurationError):
        kernel.KernelParams(alpha=0.0, dim=1)
    with pytest.raises(ConfigurationError):
        kernel.KernelParams(alpha=2.0, dim=1)
    with pytest.raises(ConfigurationError):
        kernel.KernelParams(alpha=1.0, dim=0)
    # jump forms stop at d = 2
    for dim in (3, 4):
        with pytest.raises(ConfigurationError, match=f"^jump forms need dim 1 or 2, got {dim}$"):
            kernel.KernelParams(alpha=1.0, dim=dim)
