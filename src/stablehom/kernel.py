"""Jump cones, coefficient forms, effective kernels, and Levy exponents.

The coefficient kappa(x, y) of the jump energy comes in three shapes: a
summation family Lambda(x) rho(dir) + Lambda(y) rho(dir), a product family
nu1(x) nu2(y) + nu1(y) nu2(x), and a plain constant.  Averaging out the
environment turns each into a deterministic even kernel K(z) depending only
on the jump direction; the Levy exponent of the limit process is an explicit
integral of K over the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .env import DistributionSpec, RandomField, field_mean, field_moment, mean_value, moment
from .errors import ConfigurationError, DomainError, NumericalError, check_positive


@dataclass(frozen=True)
class ConeSpec:
    """Symmetric double cone {z : |<z, axis>| >= aperture * |z|}.

    aperture 0 gives all of R^d minus the origin; full_space skips the
    membership test entirely.
    """

    axis: tuple[float, ...] = (1.0,)
    aperture: float = 0.0
    full_space: bool = False

    def __post_init__(self):
        if not (0.0 <= self.aperture < 1.0):
            raise ConfigurationError(
                f"cone aperture must lie in [0, 1), got {self.aperture}"
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
        if self.dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {self.dim}")


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

    @property
    def rho_min(self) -> float:
        return 1.0

    @property
    def rho_max(self) -> float:
        return 1.0 if self.kind == "one" else 1.5


def angular_one() -> AngularWeight:
    return AngularWeight("one")


def angular_cos2(axis) -> AngularWeight:
    return AngularWeight("cos2", tuple(float(a) for a in axis))


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
    """kappa = k0 everywhere (k0 = 0 gives the zero form)."""

    k0: float

    def __post_init__(self):
        if not 0 <= self.k0 < math.inf:
            raise ConfigurationError(f"constant coefficient must be finite and >= 0, got {self.k0}")


CoefficientForm = SummationForm | ProductForm | ConstantForm


def form_cell_size(form: CoefficientForm) -> float | None:
    """Smallest microstructure cell among the form's fields, None for constants."""
    if isinstance(form, SummationForm):
        return form.lambda_field.cell_size
    if isinstance(form, ProductForm):
        return min(form.nu1.cell_size, form.nu2.cell_size)
    return None


def kappa(form: CoefficientForm, x, y, eps: float) -> float:
    """Coefficient kappa(x/eps, y/eps) of the scaled energy; symmetric in (x, y)."""
    from .env import field_at  # local import keeps module load cheap

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DomainError("x and y must have the same dimension")
    if np.array_equal(x, y):
        raise DomainError("kappa is undefined on the diagonal x = y")
    check_positive("eps", eps)
    if isinstance(form, ConstantForm):
        return form.k0
    if isinstance(form, SummationForm):
        rho = float(form.angular.rho(y - x)[0])  # even, so one direction suffices
        lam_x = field_at(form.lambda_field, x / eps)
        lam_y = field_at(form.lambda_field, y / eps)
        return lam_x * rho + lam_y * rho
    nu1x = field_at(form.nu1, x / eps)
    nu1y = field_at(form.nu1, y / eps)
    nu2x = field_at(form.nu2, x / eps)
    nu2y = field_at(form.nu2, y / eps)
    return nu1x * nu2y + nu1y * nu2x


# ---------------------------------------------------------------------------
# effective kernels


@dataclass(frozen=True)
class AngularConstantKernel:
    """K(z) = 2 c rho(z/|z|): direction-dependent but scale-free."""

    c: float
    angular: AngularWeight


@dataclass(frozen=True)
class FlatKernel:
    k0: float


EffectiveKernel = AngularConstantKernel | FlatKernel


def kernel_values(kernel: EffectiveKernel, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[None, :]
    if isinstance(kernel, FlatKernel):
        return np.full(len(z), kernel.k0)
    return 2.0 * kernel.c * kernel.angular.rho(z)


def effective_kernel(form: CoefficientForm) -> EffectiveKernel:
    """Environment average of the coefficient: the kernel of the limit form.

    The decorrelated mean of kappa(x, y) as |x - y| grows is what survives
    homogenization, which carries both terms of each two-term coefficient:
    the summation form averages to 2 E[Lambda] rho(dir), the product form to
    2 E[nu1] E[nu2].
    """
    if isinstance(form, ConstantForm):
        return FlatKernel(form.k0)
    if isinstance(form, SummationForm):
        c = field_mean(form.lambda_field)
        if not math.isfinite(c):
            raise ConfigurationError("lambda marginal has no finite mean")
        return AngularConstantKernel(c=c, angular=form.angular)
    m1 = field_mean(form.nu1)
    m2 = field_mean(form.nu2)
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise ConfigurationError("product marginals must have finite means")
    return FlatKernel(2.0 * m1 * m2)


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


@lru_cache(maxsize=64)
def _radial_constant(alpha: float) -> float:
    """int_0^inf (1 - cos u) u^(-1-alpha) du by quadrature.

    Finite head by adaptive quadrature, then the tail splits into an exact
    power integral minus an oscillatory cosine integral (QUADPACK qawf).
    """
    from scipy import integrate  # local import: only Levy-exponent checks need QUADPACK
    a = 2.0 * math.pi
    head, head_err = integrate.quad(
        lambda u: (1.0 - math.cos(u)) * u ** (-1.0 - alpha), 0.0, a, limit=200
    )
    tail_power = a ** (-alpha) / alpha
    tail_cos, tail_err = integrate.quad(
        lambda u: u ** (-1.0 - alpha), a, np.inf, weight="cos", wvar=1.0, limit=200
    )
    value = head + tail_power - tail_cos
    if value <= 0 or (head_err + tail_err) > 1e-8 * value:
        raise NumericalError(
            f"radial integral did not converge: value={value}, err={head_err + tail_err}"
        )
    return value


def _angular_integral(kernel, cone: ConeSpec, params: KernelParams, xi_hat: np.ndarray) -> float:
    """int over cone directions of K(theta) |<xi_hat, theta>|^alpha (surface measure)."""
    from scipy import integrate  # local import, as in _radial_constant
    alpha = params.alpha
    d = params.dim

    def k_of(units: np.ndarray) -> np.ndarray:
        return kernel_values(kernel, units)

    if d == 1:
        total = 0.0
        for s in (1.0, -1.0):
            theta = np.array([[s]])
            total += float(k_of(theta)[0]) * abs(xi_hat[0] * s) ** alpha
        return total

    if d == 2:
        t0 = math.atan2(cone.axis[1], cone.axis[0])
        t_xi = math.atan2(xi_hat[1], xi_hat[0])

        def integrand(t: float) -> float:
            theta = np.array([[math.cos(t), math.sin(t)]])
            return float(k_of(theta)[0]) * abs(math.cos(t - t_xi)) ** alpha

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

    if d == 3:
        # Polar caps |cos(u)| >= aperture around the axis; rotate so the axis
        # is the pole and track xi_hat in that frame.
        axis = np.asarray(cone.axis)
        e = np.zeros(3)
        e[int(np.argmin(np.abs(axis)))] = 1.0
        b1 = np.cross(axis, e)
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(axis, b1)
        xi_local = np.array([xi_hat @ b1, xi_hat @ b2, xi_hat @ axis])

        def integrand(v: float, u: float) -> float:
            theta = np.array(
                [math.sin(u) * math.cos(v), math.sin(u) * math.sin(v), math.cos(u)]
            )
            world = theta[0] * b1 + theta[1] * b2 + theta[2] * axis
            return (
                float(kernel_values(kernel, world[None, :])[0])
                * abs(theta @ xi_local) ** alpha
                * math.sin(u)
            )

        u_max = math.pi if cone.full_space or cone.aperture == 0.0 else math.acos(cone.aperture)
        caps = [(0.0, u_max)] if u_max == math.pi else [(0.0, u_max), (math.pi - u_max, math.pi)]
        total = 0.0
        err_total = 0.0
        for lo, hi in caps:
            val, err = integrate.dblquad(
                integrand, lo, hi, 0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-8
            )
            total += val
            err_total += err
        if total > 0 and err_total > 1e-6 * total:
            raise NumericalError(f"angular quadrature error {err_total} exceeds tolerance")
        return total

    raise ConfigurationError(f"levy_exponent supports dim <= 3, got {d}")


def levy_exponent(kernel: EffectiveKernel, cone: ConeSpec, params: KernelParams, xi) -> float:
    """phi(xi) = int_cone (1 - cos<xi,z>) K(z) / |z|^(d+alpha) dz.

    Factorized as |xi|^alpha * (radial constant) * (angular integral); exactly
    alpha-homogeneous by construction.
    """
    xi = np.asarray(xi, dtype=float).reshape(params.dim)
    norm = float(np.sqrt((xi**2).sum()))
    if norm == 0.0:
        return 0.0
    radial = _radial_constant(params.alpha)
    angular = _angular_integral(kernel, cone, params, xi / norm)
    return norm**params.alpha * radial * angular


@dataclass(frozen=True)
class LevyLowerBoundReport:
    ratios: tuple[float, ...]
    min_ratio: float
    positive: bool


def levy_lower_bound_check(
    kernel: EffectiveKernel, cone: ConeSpec, params: KernelParams, xi_samples
) -> LevyLowerBoundReport:
    """Min over samples of phi(xi)/|xi|^alpha, reported with a positivity flag."""
    samples = [np.asarray(x, dtype=float).reshape(params.dim) for x in xi_samples]
    if not samples:
        raise ConfigurationError("xi_samples must be nonempty")
    ratios = []
    for xi in samples:
        norm = float(np.sqrt((xi**2).sum()))
        if norm == 0.0:
            raise ConfigurationError("xi samples must be nonzero")
        ratios.append(levy_exponent(kernel, cone, params, xi) / norm**params.alpha)
    min_ratio = min(ratios)
    return LevyLowerBoundReport(
        ratios=tuple(ratios), min_ratio=min_ratio, positive=min_ratio > 0.0
    )


# ---------------------------------------------------------------------------
# moment conditions


@dataclass(frozen=True)
class MomentEntry:
    name: str
    value: float
    finite: bool


@dataclass(frozen=True)
class MomentReport:
    entries: tuple[MomentEntry, ...]
    passed: bool


def _entry(name: str, value: float) -> MomentEntry:
    return MomentEntry(name=name, value=value, finite=math.isfinite(value))


def moment_check(form: CoefficientForm) -> MomentReport:
    """Analytic verification of the moment conditions each form needs.

    Summation: E[Lambda^-1] and E[Lambda^p] finite (p = declared exponent).
    Product: E[(nu1 nu2)^-1/2] and E[(nu1+nu2)^2] finite, using independence
    of the two fields (or exact identity when they are the same field).
    """
    if isinstance(form, ConstantForm):
        entries = (_entry("K0", form.k0),)
        return MomentReport(entries=entries, passed=True)
    if isinstance(form, SummationForm):
        lam = form.lambda_field
        p = lam.marginal.declared_p
        entries = (
            _entry("E[Lambda^-1]", field_moment(lam, -1.0)),
            _entry(f"E[Lambda^{p:g}]", field_moment(lam, p)),
        )
        return MomentReport(entries=entries, passed=all(e.finite for e in entries))
    nu1, nu2 = form.nu1, form.nu2
    if nu1 == nu2:
        inv_half = field_moment(nu1, -1.0)
        cross = field_moment(nu1, 2.0)
    else:
        inv_half = field_moment(nu1, -0.5) * field_moment(nu2, -0.5)
        cross = field_moment(nu1, 1.0) * field_moment(nu2, 1.0)
    sq1 = field_moment(nu1, 2.0)
    sq2 = field_moment(nu2, 2.0)
    second = sq1 + 2.0 * cross + sq2
    entries = (
        _entry("E[(nu1*nu2)^-1/2]", inv_half),
        _entry("E[(nu1+nu2)^2]", second),
    )
    return MomentReport(entries=entries, passed=all(e.finite for e in entries))
