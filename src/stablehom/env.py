"""Stationary random environments built from counter-based hashing.

Every field value is a pure function of (seed, cell index): evaluation order,
batching, and repeated queries cannot change a result, and any region can be
reproduced from the seed alone.  Marginals come from a small catalog with
closed-form moments.  Spatial mixing is either independent cells or a
finite-window moving average with polynomially decaying weights, transformed
so the declared marginal holds exactly.

Two entries evaluate a field.  `field_on_lattice` serves tensor lattices
such as grid nodes: it forms cells per axis, hashes every cell of their
bounding box (padded by the window radius for a moving average) once, forms
window sums as shifted adds over the flattened box, and gathers the lattice.
`field_values` serves scattered points; a moving-average batch uses the same
box when it is small enough.  Widely scattered points and per-row seeds fall
back to hashing every window cell of every point.  Non-finite parameters and
points are rejected where they enter.
"""

from __future__ import annotations

import math
from _blake2 import blake2b  # hashlib's blake2b, without hashlib loading OpenSSL
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, check_count, check_positive

_M64 = (1 << 64) - 1
_GOLD = np.uint64(0x9E3779B97F4A7C15)

# Hash salts keep the per-purpose streams separate.
_SALT_IID = 0x11
_SALT_GAUSS = 0x22
_SALT_SHIFT = 0x33

_MA_RADIUS = 8  # moving-average window half-width, in cells


def _mix_int(x: int) -> int:
    """64-bit finalizer (murmur3 style) on a plain Python int."""
    x &= _M64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _M64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _M64
    x ^= x >> 33
    return x


def _mix_arr(h: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = h ^ (h >> np.uint64(33))
        h = h * np.uint64(0xFF51AFD7ED558CCD)
        h = h ^ (h >> np.uint64(33))
        h = h * np.uint64(0xC4CEB9FE1A85EC53)
        h = h ^ (h >> np.uint64(33))
    return h


def _cell_hash(seed, salt: int, coords) -> np.ndarray:
    """Hash integer cell vectors, given as one coordinate array per axis, to
    uint64, one mix per coordinate.

    The coordinate arrays broadcast together: equal shapes hash a list of
    cells, shapes along distinct axes hash a whole lattice.  `seed` may be a
    scalar or a per-cell uint64 array (independent streams in one call).
    """
    salt_mixed = _mix_int(salt)
    if isinstance(seed, np.ndarray):
        h = _mix_arr(seed.astype(np.uint64) ^ np.uint64(salt_mixed))
    else:
        h = np.uint64(_mix_int(int(seed) ^ salt_mixed))
    for axis, c in enumerate(coords):
        c = np.asarray(c, dtype=np.int64).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = _mix_arr(h ^ (c * _GOLD + np.uint64(axis + 1)))
    return h


def _uniform01(h: np.ndarray) -> np.ndarray:
    """Map uint64 to the open interval (0, 1)."""
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def derive_seed(master: int, *tokens) -> int:
    """Derive a substream seed from a master seed and a token path.

    Tokens may be ints or strings; the result is a pure function of the
    inputs, so parallel workers can derive their own streams independently.
    """
    h = _mix_int(master)
    for tok in tokens:
        if isinstance(tok, str):
            digest = blake2b(tok.encode(), digest_size=8).digest()
            tok = int.from_bytes(digest, "little")
        h = _mix_int(h ^ _mix_int(int(tok)))
    return h


# ---------------------------------------------------------------------------
# standard normal CDF and quantile
#
# Ports of Cephes' ndtr and ndtri (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the algorithms behind scipy.special, with the
# same coefficients, branches and order of operations: values agree with
# scipy's to a few ulp, the difference coming from numpy's exp and log.  Each
# rational function is a run of in-place Horner steps over a whole array; a
# tail branch runs only on the entries that take it.

_EXP_M2 = 0.13533528323661269189  # exp(-2), where ndtri's tails begin
_SQRT_2PI = 2.50662827463100050242
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # exp(-z*z) counts as 0 for z*z above this

# ndtri, |y - 1/2| <= 1/2 - exp(-2): y + y * y2 P0(y2) / Q0(y2), y2 = y*y
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2, 2.00260212380060660359e2,
             -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri tails, t = sqrt(-2 log y): z P(z) / Q(z), z = 1/t, P1/Q1 for t < 8, P2/Q2 beyond
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1, 2.50464946208309415979e0,
             -1.42182922854787788574e-1, -3.80806407691578277194e-2,
             -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1, 1.34204006088543189037e-2,
             3.28014464682127739104e-4, 2.89247864745380683936e-6, 6.79019408009981274425e-9)
# erf(x) = x T(x*x) / U(x*x) for |x| < 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(z) = exp(-z*z) P(z) / Q(z) for 1 <= z < 8, exp(-z*z) R(z) / S(z) beyond
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(x: np.ndarray, coef) -> np.ndarray:
    """coef[0] x^k + ... + coef[k], as Cephes' polevl (p1evl when coef[0] is 1)."""
    out = x * coef[0]
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _rational(x: np.ndarray, num, den, factor: np.ndarray) -> np.ndarray:
    """factor * num(x) / den(x), in Cephes' order of operations."""
    out = _horner(x, num)
    out *= factor
    out /= _horner(x, den)
    return out


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each entry: -inf at 0, inf at 1, NaN outside."""
    y0 = np.asarray(y0, dtype=float)
    inside = (y0 > 0.0) & (y0 < 1.0)
    if not inside.all():
        x = np.where(y0 == 0.0, -np.inf, np.where(y0 == 1.0, np.inf, np.nan))
        x[inside] = _ndtri(y0[inside])
        return x
    shape, y0 = y0.shape, y0.ravel()
    y = y0 - 0.5
    y2 = y * y
    x = _rational(y2, _NDTRI_P0, _NDTRI_Q0, y2)
    x *= y
    x += y
    x *= _SQRT_2PI
    tail = np.flatnonzero((y0 <= _EXP_M2) | (y0 > 1.0 - _EXP_M2))
    if len(tail):
        t = y0[tail]
        t = np.sqrt(-2.0 * np.log(np.minimum(t, 1.0 - t)))  # the smaller tail mass
        z = 1.0 / t
        x1 = _rational(z, _NDTRI_P1, _NDTRI_Q1, z)
        if t.max() >= 8.0:
            far = t >= 8.0
            x1[far] = _rational(z[far], _NDTRI_P2, _NDTRI_Q2, z[far])
        x0 = t - np.log(t) / t
        x0 -= x1
        x[tail] = np.copysign(x0, y[tail])
    return x.reshape(shape)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each entry: 0.5 + 0.5 erf(a/sqrt 2) for |a| < 1,
    else 0.5 erfc(|a|/sqrt 2), reflected for a > 0."""
    shape = np.shape(a)
    # Beyond |a| = 38, exp(-a*a/2) is below exp(-MAXLOG), so the clamp keeps
    # every value and keeps infinities out of the polynomials.
    x = np.minimum(np.maximum(a, -38.0), 38.0).ravel()
    x *= _SQRT1_2
    e = _rational(x * x, _ERF_T, _ERF_U, x)  # erf(x) where |x| < 1
    y = 0.5 * e
    y += 0.5
    tail = np.flatnonzero(np.abs(x) >= _SQRT1_2)
    if len(tail):
        z = np.abs(x[tail])
        zz = z * z
        ex = np.exp(-zz)
        c = _rational(z, _ERFC_P, _ERFC_Q, ex)  # erfc(z) where 1 <= z < 8
        if z.max() >= 8.0:
            far = z >= 8.0
            c[far] = _rational(z[far], _ERFC_R, _ERFC_S, ex[far])
            c[zz > _MAXLOG] = 0.0
        c = np.where(z < 1.0, 1.0 - np.abs(e[tail]), c)
        c *= 0.5
        y[tail] = np.where(x[tail] > 0.0, 1.0 - c, c)
    return y.reshape(shape)


def _log_ndtr(a: float) -> float:
    """log of the standard normal CDF at a scalar, on scipy's branches:
    log1p(-Phi(-a)) above 0, log Phi(a) down to -20, and the asymptotic series
    log(phi(a) / -a) + log(1 - 1/a^2 + 3/a^4 - ...) below.  The stdlib's erfc
    keeps this within a few ulp of scipy's log_ndtr on (-20, 0], where
    Cephes' ndtr, as 0.5 (1 - erf) just below a = -1, would not."""
    if a > 0.0:
        return math.log1p(-0.5 * math.erfc(a * _SQRT1_2))
    if a > -20.0:
        return math.log(0.5 * math.erfc(-a * _SQRT1_2))
    inv_a2 = 1.0 / (a * a)
    series, term, k = 1.0, 1.0, 0
    while abs(term) > 2.0**-52:
        k += 1
        term *= -(2 * k - 1) * inv_a2
        series += term
    return -0.5 * a * a - math.log(-a) - 0.5 * math.log(2 * math.pi) + math.log(series)


# ---------------------------------------------------------------------------
# marginal catalog


@dataclass(frozen=True)
class DistributionSpec:
    """Marginal law of a field value, with closed-form moments.

    kind/params:
      constant       (c,)
      uniform        (a, b) on [a, b], 0 <= a < b
      lognormal      (m, s): exp(m + s*G)
      exp_abs_gauss  (s,): exp(-s*|G|), values in (0, 1]
      shifted_pareto (x_min, tail_index): density a*x_min^a/v^(a+1), v >= x_min

    `declared_p` is the moment exponent (> 1) this marginal claims to have;
    homogenize._declared_p reads it as the exponent of the moments diagnostic.
    """

    kind: str
    params: tuple[float, ...]
    declared_p: float = 2.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.params):
            raise ConfigurationError(
                f"{self.kind} marginal needs finite parameters, got {self.params}"
            )
        if not (1.0 < self.declared_p < math.inf):
            raise ConfigurationError(
                f"declared moment exponent must be finite and exceed 1, got {self.declared_p}"
            )
        p = self.params
        if self.kind == "constant":
            if p[0] <= 0:
                raise ConfigurationError(f"constant marginal needs c > 0, got {p[0]}")
        elif self.kind == "uniform":
            if not (0.0 <= p[0] < p[1]):
                raise ConfigurationError(
                    f"uniform marginal needs 0 <= a < b, got a={p[0]}, b={p[1]}"
                )
        elif self.kind == "lognormal":
            if p[1] < 0:
                raise ConfigurationError(f"lognormal marginal needs s >= 0, got {p[1]}")
        elif self.kind == "exp_abs_gauss":
            if p[0] <= 0:
                raise ConfigurationError(f"exp_abs_gauss marginal needs s > 0, got {p[0]}")
        elif self.kind == "shifted_pareto":
            if p[0] <= 0 or p[1] <= 0:
                raise ConfigurationError(
                    f"shifted_pareto marginal needs x_min > 0 and tail_index > 0, got {p}"
                )
        else:
            raise ConfigurationError(f"unknown marginal kind {self.kind!r}")


def constant(c: float, declared_p: float = 2.0) -> DistributionSpec:
    return DistributionSpec("constant", (float(c),), declared_p)


def uniform(a: float, b: float, declared_p: float = 2.0) -> DistributionSpec:
    return DistributionSpec("uniform", (float(a), float(b)), declared_p)


def lognormal(m: float = 0.0, s: float = 1.0, declared_p: float = 2.0) -> DistributionSpec:
    return DistributionSpec("lognormal", (float(m), float(s)), declared_p)


def exp_abs_gauss(s: float = 1.0, declared_p: float = 2.0) -> DistributionSpec:
    return DistributionSpec("exp_abs_gauss", (float(s),), declared_p)


def shifted_pareto(x_min: float, tail_index: float, declared_p: float = 2.0) -> DistributionSpec:
    return DistributionSpec("shifted_pareto", (float(x_min), float(tail_index)), declared_p)


def moment(spec: DistributionSpec, p: float) -> float:
    """Analytic E[V^p] for the catalog marginals; math.inf when divergent or
    beyond the float range."""
    p = float(p)
    if p == 0.0:
        return 1.0
    try:
        if spec.kind == "constant":
            return spec.params[0] ** p
        if spec.kind == "uniform":
            a, b = spec.params
            if a == 0.0 and p <= -1.0:
                return math.inf
            if p == -1.0:
                return math.log(b / a) / (b - a)
            lo = a ** (p + 1.0) if a > 0.0 else 0.0
            return (b ** (p + 1.0) - lo) / ((b - a) * (p + 1.0))
        if spec.kind == "lognormal":
            m, s = spec.params
            return math.exp(p * m + 0.5 * (p * s) ** 2)
        if spec.kind == "exp_abs_gauss":
            # E[exp(t|G|)] = 2 exp(t^2/2) Phi(t) with t = -p*s; log form avoids overflow.
            s = spec.params[0]
            return math.exp(0.5 * (p * s) ** 2 + math.log(2.0) + _log_ndtr(-p * s))
        if spec.kind == "shifted_pareto":
            x_min, a = spec.params
            if p >= a:
                return math.inf
            return a * x_min**p / (a - p)
    except OverflowError:
        return math.inf
    raise ConfigurationError(f"unknown marginal kind {spec.kind!r}")


def mean_value(spec: DistributionSpec) -> float:
    return moment(spec, 1.0)


def _icdf(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """Quantile function, vectorized over u in (0, 1)."""
    if spec.kind == "constant":
        return np.full_like(u, spec.params[0])
    if spec.kind == "uniform":
        a, b = spec.params
        return a + (b - a) * u
    if spec.kind == "lognormal":
        m, s = spec.params
        return np.exp(m + s * _ndtri(u))
    if spec.kind == "exp_abs_gauss":
        # V = exp(-s|G|) has cdf F(v) = 2 Phi(log(v)/s) on (0, 1].
        s = spec.params[0]
        return np.exp(s * _ndtri(0.5 * u))
    if spec.kind == "shifted_pareto":
        x_min, a = spec.params
        return x_min * (1.0 - u) ** (-1.0 / a)
    raise ConfigurationError(f"unknown marginal kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class MixingSpec:
    """Spatial dependence: independent cells, or a moving average whose
    window weights decay like (1+|k|)^(-q) out to radius 8 cells."""

    kind: str = "iid_cells"
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in ("iid_cells", "moving_average"):
            raise ConfigurationError(f"unknown mixing kind {self.kind!r}")
        if self.kind == "moving_average" and not (0 < self.q < math.inf):
            raise ConfigurationError(f"moving_average needs finite q > 0, got {self.q}")


def iid_cells() -> MixingSpec:
    return MixingSpec("iid_cells")


def moving_average(q: float = 1.0) -> MixingSpec:
    return MixingSpec("moving_average", float(q))


@dataclass(frozen=True)
class RandomField:
    """Stationary positive field on R^dim, piecewise constant on a lattice of
    cells shifted by a seed-derived global offset.  `scale` multiplies every
    value (and hence scales every moment)."""

    dim: int
    marginal: DistributionSpec
    mixing: MixingSpec = MixingSpec()
    cell_size: float = 1.0
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError(f"field dim must be >= 1, got {self.dim}")
        if not (0 < self.cell_size < math.inf):
            raise ConfigurationError(
                f"cell_size must be finite and positive, got {self.cell_size}"
            )
        if not (0 < self.scale < math.inf):
            raise ConfigurationError(f"scale must be finite and positive, got {self.scale}")


def sample_field(
    dim: int,
    marginal: DistributionSpec,
    mixing: MixingSpec | None = None,
    cell_size: float = 1.0,
    seed: int = 0,
    scale: float = 1.0,
) -> RandomField:
    """Construct a field realization handle.

    No lattice is stored: every cell value is produced on demand by a
    counter-based hash of (seed, cell index), so values are independent of
    traversal order and batching.  A batch of points costs one hash per cell
    of its bounding box padded by the window radius, or one per window cell
    of every point when that is fewer.
    """
    return RandomField(
        dim=dim,
        marginal=marginal,
        mixing=mixing if mixing is not None else MixingSpec(),
        cell_size=cell_size,
        seed=seed,
        scale=scale,
    )


def field_mean(field: RandomField) -> float:
    return field.scale * moment(field.marginal, 1.0)


def _shifts(seed, dim: int, cell_size: float) -> np.ndarray:
    """Lattice offsets in [0, cell_size), one independent uniform per axis: shape
    (dim,) for a scalar seed, (m, dim) for a uint64 column of m per-row seeds."""
    return _uniform01(_cell_hash(seed, _SALT_SHIFT, [np.arange(dim)])) * cell_size


@lru_cache(maxsize=512)
def _global_shift(seed: int, dim: int, cell_size: float) -> tuple[float, ...]:
    return tuple(_shifts(seed, dim, cell_size).tolist())


@lru_cache(maxsize=64)
def _ma_window(dim: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Window offsets (K, dim) and weights normalized to sum of squares 1."""
    rng = np.arange(-_MA_RADIUS, _MA_RADIUS + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    dist = np.sqrt((offsets.astype(float) ** 2).sum(axis=1))
    w = (1.0 + dist) ** (-q)
    w /= math.sqrt(float((w**2).sum()))
    offsets.flags.writeable = w.flags.writeable = False  # shared by every caller
    return offsets, w


def _values_at_cells(field: RandomField, seed, cells: np.ndarray) -> np.ndarray:
    if field.mixing.kind == "iid_cells":
        u = _uniform01(_cell_hash(seed, _SALT_IID, cells.T))
    else:
        offsets, weights = _ma_window(field.dim, field.mixing.q)
        acc = np.zeros(len(cells))
        for off, w in zip(offsets, weights):
            g = _ndtri(_uniform01(_cell_hash(seed, _SALT_GAUSS, (cells + off).T)))
            acc += w * g
        u = _ndtr(acc)
    return field.scale * _icdf(field.marginal, u)


def _cells_of(field: RandomField, coords: np.ndarray, shift) -> np.ndarray:
    """Integer cell indices floor((x + shift) / cell_size) of coordinates x."""
    scaled = np.floor((coords + shift) / field.cell_size)
    # NaN fails the comparison too, where a cast would make it a real cell;
    # the margin keeps every window cell of a valid cell inside int64.
    if not np.all(np.abs(scaled) < 2.0**62):
        raise ConfigurationError("points must be finite, with cell indices below 2^62")
    return scaled.astype(np.int64)


def check_points(field: RandomField, points) -> None:
    """Refuse points whose cells the field's evaluation refuses under some seed."""
    for shift in (0.0, field.cell_size):  # cells grow with the shift, in [0, cell_size)
        _cells_of(field, np.asarray(points, dtype=float), shift)


def _box(field: RandomField, lows, highs, queries: int):
    """Origin and shape of the box of cells from `lows` to `highs` on each
    axis, padded by the window radius for a moving average; None when it
    holds more cells than the windows of `queries` separate query cells."""
    r = _MA_RADIUS if field.mixing.kind == "moving_average" else 0
    # Python ints, so the box size cannot wrap around int64 into a small one.
    lo = [int(c) - r for c in lows]
    pad = [int(c) + r + 1 - a for c, a in zip(highs, lo)]
    window = len(_ma_window(field.dim, field.mixing.q)[1]) if r else 1
    return (lo, pad) if math.prod(pad) <= window * queries else None


def field_values(field: RandomField, points) -> np.ndarray:
    """Evaluate the field at an (m, dim) array of scattered points.

    A moving-average batch is evaluated over the padded bounding box of its
    cells when that box is small enough.  Grid nodes are a tensor lattice;
    `field_on_lattice` serves them from cells formed per axis.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if field.dim == 1 else pts[None, :]
    if pts.shape[1] != field.dim:
        raise ConfigurationError(
            f"points have dimension {pts.shape[1]}, field has dimension {field.dim}"
        )
    shift = np.array(_global_shift(field.seed, field.dim, field.cell_size))
    cells = _cells_of(field, pts, shift)
    if field.mixing.kind == "moving_average" and len(cells):
        low = cells.min(axis=0)
        box = _box(field, low, cells.max(axis=0), len(cells))
        if box is not None:
            return _values_on_box(field, *box)[tuple((cells - low).T)]
    return _values_at_cells(field, field.seed, cells)


def field_on_lattice(field: RandomField, axes) -> np.ndarray:
    """Evaluate the field on the tensor lattice axes[0] x ... x axes[dim-1].

    `axes` holds one 1D coordinate array per dimension; the result has shape
    (len(axes[0]), ..., len(axes[dim-1])) and equals `field_values` at the
    meshgrid points ('ij' order) bitwise.  Cells are formed per axis, every
    cell of their (padded) bounding box is hashed once, so an iid field
    hashes its distinct cells rather than every node, and the lattice is
    gathered from the box.
    """
    if len(axes) != field.dim:
        raise ConfigurationError(f"lattice has {len(axes)} axes, field has dimension {field.dim}")
    shift = _global_shift(field.seed, field.dim, field.cell_size)
    cells = [_cells_of(field, np.asarray(x, dtype=float), s) for x, s in zip(axes, shift)]
    shape = tuple(len(c) for c in cells)
    if 0 in shape:  # an empty axis leaves no cell to hash
        return np.empty(shape)
    lows = [c.min() for c in cells]
    box = _box(field, lows, [c.max() for c in cells], math.prod(shape))
    if box is None:  # axis coordinates too scattered for one box
        mesh = np.stack([m.ravel() for m in np.meshgrid(*cells, indexing="ij")], axis=1)
        return _values_at_cells(field, field.seed, mesh).reshape(shape)
    return _values_on_box(field, *box)[np.ix_(*(c - a for c, a in zip(cells, lows)))]


def _values_on_box(field: RandomField, lo, pad) -> np.ndarray:
    """Field values on the box at `lo` of shape `pad`, less the window
    radius on each side for a moving average.

    Each cell of the box is hashed once.  For a moving average the window
    sum of the box's lattice Gaussians takes the same operations in the same
    order as `_values_at_cells`, so the values are bitwise equal.
    """
    dim = len(pad)
    coords = [
        np.arange(a, a + p).reshape([p if j == k else 1 for j in range(dim)])
        for k, (a, p) in enumerate(zip(lo, pad))
    ]
    if field.mixing.kind == "iid_cells":
        u = _uniform01(_cell_hash(field.seed, _SALT_IID, coords))
    else:
        g = _ndtri(_uniform01(_cell_hash(field.seed, _SALT_GAUSS, coords)))
        u = _ndtr(_window_sum(g, field.mixing.q))
    return field.scale * _icdf(field.marginal, u)


@lru_cache(maxsize=64)
def _window_terms(dim: int, q: float, shape: tuple[int, ...]):
    """How `_window_sum` walks a box of `shape` padded by the window radius.

    In the flattened box the inner cells, with the padding cells between
    their rows, form one run of `span` cells, starting at the first inner
    cell; the neighbours at a window offset form the same run moved by a
    fixed shift.  Returns the distinct window weights, the (weight index,
    shift) of every offset in `_ma_window` order, `span`, and the shape and
    slice that cut the inner cells out of a run padded to whole rows.
    """
    offsets, weights = _ma_window(dim, q)
    distinct, index = np.unique(weights, return_inverse=True)
    strides = np.cumprod((shape[1:] + (1,))[::-1])[::-1]
    inner = tuple(p - 2 * _MA_RADIUS for p in shape)
    span = int((np.array(inner) - 1) @ strides) + 1
    shifts = (offsets + _MA_RADIUS) @ strides
    rows = (inner[0],) + shape[1:]
    keep = (slice(None),) + tuple(slice(0, n) for n in inner[1:])
    distinct.flags.writeable = False  # shared by every caller
    return distinct, tuple(zip(index.tolist(), shifts.tolist())), span, rows, keep


def _window_sum(g: np.ndarray, q: float) -> np.ndarray:
    """sum_k w_k g[x + offset_k] at every cell x of the box `g` at least the
    window radius from its faces, accumulated in `_ma_window` order.

    The box is scaled once per distinct weight, and each offset adds one
    contiguous run of its scaled box: every cell takes the same products
    and sums in the same order as a multiply-add per offset.
    """
    distinct, terms, span, rows, keep = _window_terms(g.ndim, q, g.shape)
    flat = g.ravel()
    scaled = [flat * w for w in distinct]
    acc = np.zeros(rows)
    run = acc.reshape(-1)[:span]
    for k, shift in terms:
        run += scaled[k][shift:shift + span]
    return acc[keep]


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


def _midpoint_grid(lo: np.ndarray, hi: np.ndarray, eps_cell: float, cap: int) -> np.ndarray:
    axes = []
    for a, b in zip(lo, hi):
        n = int(min(cap, max(8, math.ceil(4.0 * (b - a) / eps_cell))))
        axes.append(a + (b - a) * (np.arange(n) + 0.5) / n)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def check_region(lo, hi) -> None:
    """An averaging box needs max > min along every axis."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not np.all(hi > lo):
        raise ConfigurationError(f"empty averaging region: min={lo}, max={hi}")


def check_eps_grid(eps_grid: list[float]) -> None:
    """The scales of the maximal functional lie in (0, 1)."""
    if not eps_grid:
        raise ConfigurationError("eps_grid must be nonempty")
    if any(not (0.0 < e < 1.0) for e in eps_grid):
        raise ConfigurationError(f"eps_grid values must lie in (0, 1), got {eps_grid}")


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
    points = _midpoint_grid(lo, hi, eps * field.cell_size, cap)
    vol = float(np.prod(hi - lo))
    vals = field_values(field, points / eps)
    if weight is not None:
        vals = vals * np.asarray(weight(points), dtype=float)
    return vol * float(vals.mean())


def maximal_functional(field: RandomField, eps_grid, r0: float = 1.0) -> float:
    """Sup over eps of the mass int_{[0,r0]^d} field(x/eps) dx (quadrature)."""
    eps_grid = [float(e) for e in eps_grid]
    check_eps_grid(eps_grid)
    check_positive("r0", r0)
    check_points(field, r0 / min(eps_grid))  # the farthest point, before r0**dim
    lo = np.zeros(field.dim)
    hi = np.full(field.dim, r0)
    cap = 1024 if field.dim == 1 else 64
    vol = r0**field.dim
    best = -math.inf
    for eps in eps_grid:
        points = _midpoint_grid(lo, hi, eps * field.cell_size, cap)
        best = max(best, vol * float(field_values(field, points / eps).mean()))
    return best


# ---------------------------------------------------------------------------
# multi-seed diagnostics built on the functionals above


def quartiles(values) -> tuple[float, float, float]:
    """(q25, median, q75) of a sample, bitwise as np.percentile (linear
    method) and np.median give them, without loading numpy.ma; NaN for an
    empty sample or one that holds a NaN."""
    x = np.sort(np.asarray(values, dtype=float)).tolist()
    n = len(x)
    if n == 0 or math.isnan(x[-1]):  # a NaN sorts last
        return math.nan, math.nan, math.nan

    def at(p: float) -> float:
        i, t = divmod((n - 1) * p, 1.0)
        a, b = x[int(i)], x[min(int(i) + 1, n - 1)]
        return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t

    mid = n // 2
    median = x[mid] if n % 2 else (x[mid - 1] + x[mid]) / 2.0
    return at(0.25), median, at(0.75)


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
    exact = field_mean(field)
    if not math.isfinite(exact):
        raise ConfigurationError("marginal mean is not finite; Birkhoff limit undefined")
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
    sups: tuple[float, ...]
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
    exact = field_mean(field)
    if not math.isfinite(exact):
        raise ConfigurationError("marginal mean is not finite")
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
        sups=tuple(sups),
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
