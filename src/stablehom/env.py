"""Stationary random environments built from counter-based hashing.

Every cell's random number is a pure function of (seed, cell index), hashed
exactly, so evaluation order cannot change it and any region can be
reproduced from the seed alone.  Marginals come from a catalog table with
closed-form moments.  Spatial mixing is either independent cells or a
finite-window moving average with polynomially decaying weights, transformed
so the declared marginal holds exactly.

Two entries evaluate a field.  `field_values` serves scattered points: it
hashes every window cell of every point and sums the window offset by
offset, and it is the lattice path's oracle.  `field_on_lattice` serves
tensor lattices such as grid nodes and quadrature midpoints, for a stack of
fields at once: it forms cells per axis, hashes every cell of their bounding
box (padded by the window radius for a moving average) once, forms the
window sums by one circular FFT correlation over the box, and gathers the
lattice.  Its iid values are `field_values`' bitwise; its window sums agree
with the per-offset sums to within 16 eps sum_k |w_k| max |g|; and a field's
values on a lattice do not depend on the other fields of the call.
Non-finite parameters and points are rejected where they enter.
"""

from __future__ import annotations

import math
from collections import namedtuple
from _blake2 import blake2b  # hashlib's blake2b, without hashlib loading OpenSSL
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

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
    scalar, a per-cell uint64 array (independent streams in one call), or a
    list of seeds, one per entry of the coordinates' leading axis.
    """
    salt_mixed = _mix_int(salt)
    if isinstance(seed, np.ndarray):
        h = _mix_arr(seed.astype(np.uint64) ^ np.uint64(salt_mixed))
    elif isinstance(seed, list):
        h = np.array([_mix_int(int(s) ^ salt_mixed) for s in seed], dtype=np.uint64)
        h = h.reshape([-1] + [1] * (np.ndim(coords[0]) - 1))
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
# marginal catalog: one row per kind


def _uniform_moment(a: float, b: float, p: float) -> float:
    if a == 0.0 and p <= -1.0:
        return math.inf
    if p == -1.0:
        return math.log(b / a) / (b - a)
    lo = a ** (p + 1.0) if a > 0.0 else 0.0
    return (b ** (p + 1.0) - lo) / ((b - a) * (p + 1.0))


# kind -> its parameter names, then functions of those parameters in order: the
# complaint about parameters outside the domain (None inside it), E[V^p] at
# p != 0 (math.inf when divergent) and the quantile function on (0, 1)
_Marginal = namedtuple("_Marginal", "names complaint moment icdf")
MARGINALS = {
    "constant": _Marginal(
        ("c",),
        lambda c: f"constant marginal needs c > 0, got {c}" if c <= 0 else None,
        lambda c, p: c**p,
        lambda c, u: np.full_like(u, c),
    ),
    # uniform on [a, b]
    "uniform": _Marginal(
        ("a", "b"),
        lambda a, b: None if 0.0 <= a < b
        else f"uniform marginal needs 0 <= a < b, got a={a}, b={b}",
        _uniform_moment,
        lambda a, b, u: a + (b - a) * u,
    ),
    # exp(m + s*G)
    "lognormal": _Marginal(
        ("m", "s"),
        lambda m, s: f"lognormal marginal needs s >= 0, got {s}" if s < 0 else None,
        lambda m, s, p: math.exp(p * m + 0.5 * (p * s) ** 2),
        lambda m, s, u: np.exp(m + s * _ndtri(u)),
    ),
    # exp(-s*|G|) in (0, 1]: E[exp(t|G|)] = 2 exp(t^2/2) Phi(t) with t = -p*s,
    # in log form against overflow, and the cdf is F(v) = 2 Phi(log(v)/s)
    "exp_abs_gauss": _Marginal(
        ("s",),
        lambda s: f"exp_abs_gauss marginal needs s > 0, got {s}" if s <= 0 else None,
        lambda s, p: math.exp(0.5 * (p * s) ** 2 + math.log(2.0) + _log_ndtr(-p * s)),
        lambda s, u: np.exp(s * _ndtri(0.5 * u)),
    ),
    # density a*x_min^a/v^(a+1) on v >= x_min, with a the tail index
    "shifted_pareto": _Marginal(
        ("x_min", "tail_index"),
        lambda x_min, a: None if x_min > 0 and a > 0 else
        f"shifted_pareto marginal needs x_min > 0 and tail_index > 0, got {(x_min, a)}",
        lambda x_min, a, p: math.inf if p >= a else a * x_min**p / (a - p),
        lambda x_min, a, u: x_min * (1.0 - u) ** (-1.0 / a),
    ),
}


@dataclass(frozen=True)
class DistributionSpec:
    """Marginal law of a field value: a kind of `MARGINALS` and its parameters.

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
        row = MARGINALS.get(self.kind)
        if row is None:
            raise ConfigurationError(f"unknown marginal kind {self.kind!r}")
        if len(self.params) != len(row.names):
            raise ConfigurationError(
                f"{self.kind} marginal needs parameters ({', '.join(row.names)}), got {self.params}"
            )
        complaint = row.complaint(*self.params)
        if complaint:
            raise ConfigurationError(complaint)


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
        return MARGINALS[spec.kind].moment(*spec.params, p)
    except OverflowError:
        return math.inf


def mean_value(spec: DistributionSpec) -> float:
    return moment(spec, 1.0)


def _icdf(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """Quantile function, vectorized over u in (0, 1)."""
    return MARGINALS[spec.kind].icdf(*spec.params, u)


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

    No lattice is stored: every cell's random number is produced on demand
    by a counter-based hash of (seed, cell index), independent of traversal
    order.  A lattice costs one hash per cell of its bounding box padded by
    the window radius, and for a moving average one FFT correlation of the
    box with the window; or one hash per window cell of every node when that
    is fewer.
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


def _fft_size(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: numpy's FFT takes several times longer on
    a side with a large prime factor (a 53^2 pair of transforms 277 us
    against 86 us at 54^2, numpy 2.4 on a 2-core host)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@lru_cache(maxsize=64)
def _window_spectrum(dim: int, q: float, shape: tuple[int, ...]) -> np.ndarray:
    """conj(W^), with W^ the rfftn of the window weights placed at their
    offsets modulo a box of `shape` (each side at least the window's)."""
    offsets, weights = _ma_window(dim, q)
    w = np.zeros(shape)
    w[tuple(offsets.T)] = weights  # a negative offset counts from the far face
    spectrum = np.conj(np.fft.rfftn(w))
    spectrum.flags.writeable = False  # shared by every caller
    return spectrum


def _values_at_cells(field: RandomField, seed, cells: np.ndarray) -> np.ndarray:
    if field.mixing.kind == "iid_cells":
        u = _uniform01(_cell_hash(seed, _SALT_IID, cells.T))
    else:
        # the window cells of every point, hashed up to 2^18 at a time (a few
        # MiB per temporary) and summed offset by offset in window order
        offsets, weights = _ma_window(field.dim, field.mixing.q)
        acc = np.zeros(len(cells))
        step = max(1, 2**18 // max(1, len(cells)))
        for k in range(0, len(offsets), step):
            window = np.moveaxis(cells[None, :, :] + offsets[k:k + step, None, :], -1, 0)
            g = _ndtri(_uniform01(_cell_hash(seed, _SALT_GAUSS, window)))
            for w, g_k in zip(weights[k:k + step], g):
                acc += w * g_k
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


def field_values(field: RandomField, points) -> np.ndarray:
    """Evaluate the field at an (m, dim) array of scattered points, hashing
    every window cell of every point.  Grid nodes and other tensor lattices
    go through `field_on_lattice`, which hashes each cell of their box once.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if field.dim == 1 else pts[None, :]
    if pts.ndim != 2:
        raise ConfigurationError(f"points must be an (m, dim) array, got shape {pts.shape}")
    if pts.shape[1] != field.dim:
        raise ConfigurationError(
            f"points have dimension {pts.shape[1]}, field has dimension {field.dim}"
        )
    shift = np.array(_global_shift(field.seed, field.dim, field.cell_size))
    return _values_at_cells(field, field.seed, _cells_of(field, pts, shift))


def field_on_lattice(fields, axes) -> np.ndarray:
    """Evaluate a sequence of fields on the tensor lattice
    axes[0] x ... x axes[dim-1].

    `axes` holds one 1D coordinate array per dimension.  The result is the
    (len(fields), len(axes[0]), ..., len(axes[dim-1])) stack whose row u is
    fields[u] at the meshgrid points ('ij' order).  Cells are formed per
    axis, and the rows that share their mixing and cell size are evaluated
    together on one box of cells (`_rows_on_box`), so an iid field hashes
    its distinct cells rather than every node.
    """
    axes = [np.asarray(x, dtype=float) for x in axes]
    if any(x.ndim != 1 for x in axes):
        raise ConfigurationError(
            f"lattice axes must be 1D coordinate arrays, got shapes {[x.shape for x in axes]}"
        )
    groups: dict = {}
    for u, f in enumerate(fields):
        if f.dim != len(axes):
            raise ConfigurationError(f"lattice has {len(axes)} axes, field has dimension {f.dim}")
        groups.setdefault((f.mixing, f.cell_size), []).append(u)
    out = np.empty((len(fields), *(len(x) for x in axes)))
    if out.size:  # else no field, or an empty axis that leaves no cell to hash
        for rows in groups.values():
            _rows_on_box([fields[u] for u in rows], axes, [out[u] for u in rows])
    return out


def _rows_on_box(rows, axes, out) -> None:
    """Write the lattice values of `rows`, fields that share their mixing and
    cell size, into the arrays of `out`, one per row.

    Each row hashes the box of cells that holds its lattice, padded by the
    window radius for a moving average, in one hash call with a seed per
    row; a moving average then takes one normal quantile, one window
    correlation (`_window_sums`) and one normal CDF over the stacked boxes.
    The box's shape is the most cells any shift can give the lattice (for a
    moving average, padded and rounded up to a fast FFT size), so it
    depends on the axes and the cell size alone, and a row's values do not
    depend on the other rows.  The quantile function and the gather run per
    row.  A lattice sparser than its box is evaluated node by node instead.
    """
    f0 = rows[0]
    dim, size = f0.dim, f0.cell_size
    shifts = np.array([_global_shift(f.seed, dim, size) for f in rows])
    cells = [_cells_of(f0, x, shifts[:, k, None]) for k, x in enumerate(axes)]  # (U, n_k) each
    shape = tuple(len(x) for x in axes)
    # with shift s in [0, size], floor((x + s) / size) lies between
    # floor(min / size) and floor((max + size) / size); Python ints cannot wrap
    span = [math.floor((x.max() + size) / size) - math.floor(x.min() / size) + 1 for x in axes]
    r = _MA_RADIUS if f0.mixing.kind == "moving_average" else 0
    pad = [_fft_size(n + 2 * r) if r else n for n in span]
    window = len(_ma_window(dim, f0.mixing.q)[1]) if r else 1
    if math.prod(pad) > window * math.prod(shape):  # more cells than the nodes' windows
        for i, f in enumerate(rows):
            mesh = np.meshgrid(*(c[i] for c in cells), indexing="ij")
            out[i][...] = _values_at_cells(
                f, f.seed, np.stack([m.ravel() for m in mesh], axis=1)
            ).reshape(shape)
        return
    low = [c.min(axis=1, keepdims=True) for c in cells]
    coords = [
        (a + np.arange(-r, p - r)).reshape([-1] + [p if j == k else 1 for j in range(dim)])
        for k, (a, p) in enumerate(zip(low, pad))
    ]
    seeds = [f.seed for f in rows]
    if r:
        g = _ndtri(_uniform01(_cell_hash(seeds, _SALT_GAUSS, coords)))
        u = _ndtr(_window_sums(g, f0.mixing.q))
    else:
        u = _uniform01(_cell_hash(seeds, _SALT_IID, coords))
    index = [c - a for c, a in zip(cells, low)]  # each row's cells in its box
    for i, f in enumerate(rows):
        v = f.scale * _icdf(f.marginal, u[i])
        for k, idx in enumerate(index):
            v = v.take(idx[i], axis=k)
        out[i][...] = v


def _window_sums(g: np.ndarray, q: float) -> np.ndarray:
    """sum_k w_k g[u, x + offset_k] for each box g[u] of the stack g, at every
    cell x at least the window radius from the box's faces.

    One circular correlation, irfftn(rfftn(g) conj(W^)), over the trailing
    axes: the cells kept see no wrapped neighbour, and each sum agrees with
    the per-offset sum to within a few ulp of sum_k |w_k| max |g|.
    """
    box = g.shape[1:]
    spectrum = np.fft.rfft(g)  # rfftn over the trailing axes, without its set-up
    for axis in range(1, g.ndim - 1):
        spectrum = np.fft.fft(spectrum, axis=axis)
    spectrum *= _window_spectrum(len(box), q, box)
    for axis in range(1, g.ndim - 1):
        spectrum = np.fft.ifft(spectrum, axis=axis)
    sums = np.fft.irfft(spectrum, box[-1])
    return sums[(slice(None),) + tuple(slice(_MA_RADIUS, n - _MA_RADIUS) for n in box)]


# ---------------------------------------------------------------------------
# sample summaries


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
