"""Jump cones, coefficient forms, effective kernels, and Levy exponents.

The coefficient kappa(x, y) of the jump energy comes in three shapes: a
summation family Lambda(x) rho(dir) + Lambda(y) rho(dir), a product family
nu1(x) nu2(y) + nu1(y) nu2(x), and a constant k0 rho(dir).  `form_terms`
writes each as c rho(dir(y-x)) sum_t F_{i_t}(x) F_{j_t}(y), node factors
times one translation-invariant factor: one table of the form's distinct
factors F, and its terms as index pairs into it.  Every evaluation of a form
reads that table.  Averaging out the environment turns every form into a
ConstantForm, the deterministic kernel K(z) = k0 rho(z/|z|) of the limit; the
Levy exponent of the limit process is a closed-form radial constant times an
integral of K over the cone directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import DistributionSpec, RandomField, field_mean, mean_value, moment
from .errors import ConfigurationError, DomainError, NumericalError


@dataclass(frozen=True)
class ConeSpec:
    """Symmetric double cone {z : |<z, axis>| >= aperture * |z|}.

    aperture 0 gives all of R^d minus the origin; full_space skips the
    membership test entirely, and so takes aperture 0 only.
    """

    axis: tuple[float, ...] = (1.0,)
    aperture: float = 0.0
    full_space: bool = False

    def __post_init__(self):
        if not (0.0 <= self.aperture < 1.0):
            raise ConfigurationError(
                f"cone aperture must lie in [0, 1), got {self.aperture}"
            )
        if self.full_space and self.aperture != 0.0:
            raise ConfigurationError(
                f"a full-space cone has aperture 0, got {self.aperture}"
            )
        norm = math.sqrt(sum(a * a for a in self.axis))
        if norm == 0.0:
            raise ConfigurationError("cone axis must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(self, "axis", tuple(a / norm for a in self.axis))

    @property
    def dim(self) -> int:
        return len(self.axis)


def full_space_cone(dim: int) -> ConeSpec:
    axis = (1.0,) + (0.0,) * (dim - 1)
    return ConeSpec(axis=axis, aperture=0.0, full_space=True)


@dataclass(frozen=True)
class KernelParams:
    alpha: float
    dim: int

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ConfigurationError(f"alpha must lie in (0, 2), got {self.alpha}")
        # the sub-cell fold and the Levy exponent are verified in d = 1, 2 only
        if self.dim not in (1, 2):
            raise ConfigurationError(f"jump forms need dim 1 or 2, got {self.dim}")


def in_cone(cone: ConeSpec, z) -> bool | np.ndarray:
    """Two-sided membership test |<z, axis>| >= aperture * |z|; z = 0 is outside
    the domain of the jump kernel and raises."""
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[None, :]
    norms = np.sqrt((arr**2).sum(axis=1))
    if np.any(norms == 0.0):
        raise DomainError("cone membership is undefined at z = 0")
    if cone.full_space:
        out = np.ones(len(arr), dtype=bool)
    else:
        axis = np.asarray(cone.axis)
        out = np.abs(arr @ axis) >= cone.aperture * norms
    return bool(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# angular weights


@dataclass(frozen=True)
class AngularWeight:
    """Even weight on directions: 'one' is rho = 1, 'cos2' is
    1 + cos^2(angle to axis)/2, spanning [1, 3/2]."""

    kind: str = "one"
    axis: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.kind not in ("one", "cos2"):
            raise ConfigurationError(f"unknown angular weight kind {self.kind!r}")
        norm = math.sqrt(sum(a * a for a in self.axis))
        if norm == 0.0:
            raise ConfigurationError("angular axis must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(self, "axis", tuple(a / norm for a in self.axis))

    def rho_units(self, units: np.ndarray) -> np.ndarray:
        """Evaluate on an (m, d) array of unit vectors."""
        if self.kind == "one":
            return np.ones(len(units))
        axis = np.asarray(self.axis)
        return 1.0 + 0.5 * (units @ axis) ** 2

    def rho(self, z: np.ndarray) -> np.ndarray:
        """Evaluate on an (m, d) array of nonzero displacement vectors."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z[None, :]
        norms = np.sqrt((z**2).sum(axis=1, keepdims=True))
        return self.rho_units(z / norms)


# ---------------------------------------------------------------------------
# coefficient forms


@dataclass(frozen=True)
class SummationForm:
    """kappa(x, y) = Lambda(x) rho(dir(y-x)) + Lambda(y) rho(dir(x-y))."""

    lambda_field: RandomField
    angular: AngularWeight = AngularWeight("one")


@dataclass(frozen=True)
class ProductForm:
    """kappa(x, y) = nu1(x) nu2(y) + nu1(y) nu2(x)."""

    nu1: RandomField
    nu2: RandomField

    def __post_init__(self):
        if self.nu1.dim != self.nu2.dim:
            raise ConfigurationError("product factors must share a dimension")


@dataclass(frozen=True)
class ConstantForm:
    """kappa(x, y) = k0 rho(dir(y-x)) (k0 = 0 gives the zero form); the limit
    kernel K(z) = k0 rho(z/|z|) of every family is one of these."""

    k0: float
    angular: AngularWeight = AngularWeight("one")

    def __post_init__(self):
        if not 0 <= self.k0 < math.inf:
            raise ConfigurationError(f"constant coefficient must be finite and >= 0, got {self.k0}")


CoefficientForm = SummationForm | ProductForm | ConstantForm
# a factor of a coefficient term: a random field, or None for the constant 1
Factor = RandomField | None


def form_terms(
    form: CoefficientForm,
) -> tuple[float, AngularWeight, tuple[Factor, ...], tuple[tuple[int, int], ...]]:
    """The form as (c, rho, factors, terms): with F the distinct factors and
    terms the index pairs (i_t, j_t) into them,
    kappa(x, y) = c rho(dir(y-x)) sum_t F_{i_t}(x) F_{j_t}(y).

    Equal product factors are one entry.  Every evaluation of a form reads
    this table; only the seed tokens of reseed_form and the run's
    constant-form check look at the family itself.
    """
    if isinstance(form, ConstantForm):
        return form.k0, form.angular, (None,), ((0, 0),)
    if isinstance(form, SummationForm):
        return 1.0, form.angular, (form.lambda_field, None), ((0, 1), (1, 0))
    if form.nu1 == form.nu2:
        return 1.0, AngularWeight(), (form.nu1,), ((0, 0), (0, 0))
    return 1.0, AngularWeight(), (form.nu1, form.nu2), ((0, 1), (1, 0))


def form_cell_size(form: CoefficientForm) -> float | None:
    """Smallest microstructure cell among the form's fields, None for constants."""
    return min((f.cell_size for f in form_terms(form)[2] if f is not None), default=None)


def effective_kernel(form: CoefficientForm) -> ConstantForm:
    """Environment average of the coefficient: the kernel of the limit form.

    The decorrelated mean of kappa(x, y) as |x - y| grows is what survives
    homogenization: c rho sum_t E[F_{i_t}] E[F_{j_t}] over the terms of form_terms,
    2 E[Lambda] rho(dir) for the summation form and 2 E[nu1] E[nu2] for the
    product form.
    """
    c, angular, factors, terms = form_terms(form)
    means = [1.0 if f is None else field_mean(f) for f in factors]
    k0 = c * sum(means[i] * means[j] for i, j in terms)
    if not math.isfinite(k0):
        raise ConfigurationError("the coefficient fields must have finite means")
    return ConstantForm(k0, angular)


def c0_formula(
    lambda1: DistributionSpec, lambda2: DistributionSpec, joint: str = "independent"
) -> float:
    """Effective constant (E[lambda2])^2 / E[lambda2/lambda1] of the
    time-changed two-scale family."""
    if joint not in ("independent", "identical"):
        raise ConfigurationError(f"joint must be 'independent' or 'identical', got {joint!r}")
    e2 = mean_value(lambda2)
    if not math.isfinite(e2):
        raise ConfigurationError("E[lambda2] is not finite")
    if joint == "identical":
        if lambda1 != lambda2:
            raise ConfigurationError("identical joint law requires lambda1 == lambda2")
        ratio = 1.0
    else:
        inv1 = moment(lambda1, -1.0)
        if not math.isfinite(inv1):
            raise ConfigurationError("E[1/lambda1] is not finite")
        ratio = e2 * inv1
    if not math.isfinite(ratio) or ratio <= 0:
        raise ConfigurationError(f"E[lambda2/lambda1] must be positive finite, got {ratio}")
    return e2 * e2 / ratio


# ---------------------------------------------------------------------------
# Levy exponent of the limit


def _radial_constant(alpha: float) -> float:
    """int_0^inf (1 - cos u) u^(-1-alpha) du = pi / (2 Gamma(1 + alpha) sin(pi alpha / 2))."""
    return math.pi / (2.0 * math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))


def _angular_integral(
    kernel: ConstantForm, cone: ConeSpec, params: KernelParams, xi_hat: np.ndarray
) -> float:
    """int over cone directions of K(theta) |<xi_hat, theta>|^alpha (surface measure)."""
    from scipy import integrate  # local import: only Levy-exponent checks need QUADPACK
    alpha = params.alpha

    def k(theta: np.ndarray) -> float:
        return kernel.k0 * float(kernel.angular.rho(theta)[0])

    if params.dim == 1:
        total = 0.0
        for s in (1.0, -1.0):
            total += k(np.array([[s]])) * abs(xi_hat[0] * s) ** alpha
        return total

    t0 = math.atan2(cone.axis[1], cone.axis[0])
    t_xi = math.atan2(xi_hat[1], xi_hat[0])

    def integrand(t: float) -> float:
        return k(np.array([[math.cos(t), math.sin(t)]])) * abs(math.cos(t - t_xi)) ** alpha

    if cone.full_space or cone.aperture == 0.0:
        arcs = [(0.0, 2.0 * math.pi)]
    else:
        half = math.acos(cone.aperture)
        arcs = [(t0 - half, t0 + half), (t0 + math.pi - half, t0 + math.pi + half)]
    total = 0.0
    err_total = 0.0
    for lo, hi in arcs:
        # |cos| kinks where the argument crosses pi/2 + k*pi.
        kinks = []
        k0 = math.ceil((lo - t_xi - math.pi / 2) / math.pi)
        while t_xi + math.pi / 2 + k0 * math.pi < hi:
            t = t_xi + math.pi / 2 + k0 * math.pi
            if lo < t < hi:
                kinks.append(t)
            k0 += 1
        val, err = integrate.quad(
            integrand, lo, hi, points=kinks or None, limit=200, epsabs=0.0, epsrel=1e-9
        )
        total += val
        err_total += err
    if total > 0 and err_total > 1e-6 * total:
        raise NumericalError(f"angular quadrature error {err_total} exceeds tolerance")
    return total


def levy_exponent(kernel: ConstantForm, cone: ConeSpec, params: KernelParams, xi) -> float:
    """phi(xi) = int_cone (1 - cos<xi,z>) K(z) / |z|^(d+alpha) dz.

    K(z) = k0 rho(z/|z|) is the limit kernel of effective_kernel.  Factorized
    as |xi|^alpha * (radial constant, in closed form) * (angular integral);
    exactly alpha-homogeneous by construction.  The angular integral is a two-term
    sum in d = 1 and a quadrature over the circle in d = 2, the dims
    KernelParams admits.
    """
    xi = np.asarray(xi, dtype=float).reshape(params.dim)
    norm = float(np.sqrt((xi**2).sum()))
    if norm == 0.0:
        return 0.0
    radial = _radial_constant(params.alpha)
    angular = _angular_integral(kernel, cone, params, xi / norm)
    return norm**params.alpha * radial * angular
