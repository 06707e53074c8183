"""Stationary random environments built from counter-based hashing.

Every field value is a pure function of (seed, cell index): evaluation order,
batching, and repeated queries cannot change a result, and any region can be
reproduced from the seed alone.  Marginals come from a small catalog with
closed-form moments.  Spatial mixing is either independent cells or a
finite-window moving average with polynomially decaying weights, transformed
so the declared marginal holds exactly.  A batch of moving-average points
hashes each lattice Gaussian of its padded bounding box once and forms the
window sums as shifted slice adds over that box; widely scattered points and
per-row seeds fall back to hashing every window cell of every point.
Non-finite parameters and points are rejected where they enter.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

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


def _cell_hash(seed, salt: int, cells: np.ndarray) -> np.ndarray:
    """Hash integer cell vectors to uint64, one mix per coordinate.

    `seed` may be a scalar or a per-row uint64 array (independent streams in
    one vectorized call).
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim == 1:
        cells = cells[:, None]
    salt_mixed = _mix_int(salt)
    if isinstance(seed, np.ndarray):
        h = _mix_arr(seed.astype(np.uint64) ^ np.uint64(salt_mixed))
    else:
        h = np.full(cells.shape[0], _mix_int(int(seed) ^ salt_mixed), dtype=np.uint64)
    for axis in range(cells.shape[1]):
        c = cells[:, axis].astype(np.uint64)
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
            digest = hashlib.blake2b(tok.encode(), digest_size=8).digest()
            tok = int.from_bytes(digest, "little")
        h = _mix_int(h ^ _mix_int(int(tok)))
    return h


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
    moment checks verify the claim analytically.
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
    """Analytic E[V^p] for the catalog marginals; math.inf when divergent."""
    p = float(p)
    if p == 0.0:
        return 1.0
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
        return math.exp(0.5 * (p * s) ** 2 + math.log(2.0) + log_ndtr(-p * s))
    if spec.kind == "shifted_pareto":
        x_min, a = spec.params
        if p >= a:
            return math.inf
        return a * x_min**p / (a - p)
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
        return np.exp(m + s * ndtri(u))
    if spec.kind == "exp_abs_gauss":
        # V = exp(-s|G|) has cdf F(v) = 2 Phi(log(v)/s) on (0, 1].
        s = spec.params[0]
        return np.exp(s * ndtri(0.5 * u))
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


def field_moment(field: RandomField, p: float) -> float:
    m = moment(field.marginal, p)
    return math.inf if math.isinf(m) else field.scale**p * m


@lru_cache(maxsize=512)
def _global_shift(seed: int, dim: int, cell_size: float) -> tuple[float, ...]:
    # One independent uniform offset per axis keeps the lattice stationary.
    axes = np.arange(dim, dtype=np.int64)[:, None]
    u = _uniform01(_cell_hash(seed, _SALT_SHIFT, axes))
    return tuple(float(v) * cell_size for v in u)


@lru_cache(maxsize=64)
def _ma_window(dim: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Window offsets (K, dim) and weights normalized to sum of squares 1."""
    rng = np.arange(-_MA_RADIUS, _MA_RADIUS + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    dist = np.sqrt((offsets.astype(float) ** 2).sum(axis=1))
    w = (1.0 + dist) ** (-q)
    w /= math.sqrt(float((w**2).sum()))
    return offsets, w


def ma_weight_correlation(dim: int, q: float, lag_cells) -> float:
    """Analytic lag correlation of the window-summed Gaussian: sum_k w_k w_{k+lag}."""
    offsets, w = _ma_window(dim, q)
    lag = np.asarray(lag_cells, dtype=np.int64).reshape(dim)
    shifted = offsets + lag
    inside = np.all(np.abs(shifted) <= _MA_RADIUS, axis=1)
    if not inside.any():
        return 0.0
    # Index each shifted offset through the flattened window grid (C order).
    side = 2 * _MA_RADIUS + 1
    idx = np.zeros(int(inside.sum()), dtype=np.int64)
    for axis in range(dim):
        idx = idx * side + (shifted[inside, axis] + _MA_RADIUS)
    return float((w[inside] * w[idx]).sum())


def _values_at_cells(field: RandomField, seed, cells: np.ndarray) -> np.ndarray:
    if field.mixing.kind == "iid_cells":
        u = _uniform01(_cell_hash(seed, _SALT_IID, cells))
    else:
        offsets, weights = _ma_window(field.dim, field.mixing.q)
        acc = np.zeros(len(cells))
        for off, w in zip(offsets, weights):
            g = ndtri(_uniform01(_cell_hash(seed, _SALT_GAUSS, cells + off)))
            acc += w * g
        u = ndtr(acc)
    return field.scale * _icdf(field.marginal, u)


def field_values(field: RandomField, points) -> np.ndarray:
    """Evaluate the field at an (m, dim) array of points (vectorized)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if field.dim == 1 else pts[None, :]
    if pts.shape[1] != field.dim:
        raise ConfigurationError(
            f"points have dimension {pts.shape[1]}, field has dimension {field.dim}"
        )
    shift = np.array(_global_shift(field.seed, field.dim, field.cell_size))
    scaled = np.floor((pts + shift) / field.cell_size)
    # NaN fails the comparison too, where a cast would make it a real cell;
    # the margin keeps every window cell of a valid cell inside int64.
    if not np.all(np.abs(scaled) < 2.0**62):
        raise ConfigurationError("points must be finite, with cell indices below 2^62")
    cells = scaled.astype(np.int64)
    if field.mixing.kind == "moving_average" and len(cells):
        # Python ints, so the box size cannot wrap around int64 into a small one.
        lo = [int(c) - _MA_RADIUS for c in cells.min(axis=0)]
        pad = [int(c) + _MA_RADIUS + 1 - a for c, a in zip(cells.max(axis=0), lo)]
        window = len(_ma_window(field.dim, field.mixing.q)[1])
        if math.prod(pad) <= window * len(cells):
            return _ma_values_on_box(field, cells, lo, pad)
    return _values_at_cells(field, field.seed, cells)


def _ma_values_on_box(field: RandomField, cells: np.ndarray, lo, pad) -> np.ndarray:
    """Moving-average values at `cells` through the padded box at `lo` of
    shape `pad`, which holds every window cell of every query cell.

    Each lattice Gaussian of the box is hashed once, and the window sum adds
    one shifted slice per offset in `_ma_window` order: the same operations
    in the same order as `_values_at_cells`, so the values are bitwise equal.
    """
    offsets, weights = _ma_window(field.dim, field.mixing.q)
    r = _MA_RADIUS
    box = np.indices(pad).reshape(field.dim, -1).T + np.array(lo, dtype=np.int64)
    g = ndtri(_uniform01(_cell_hash(field.seed, _SALT_GAUSS, box))).reshape(pad)
    inner = [p - 2 * r for p in pad]
    acc = np.zeros(inner)
    for off, w in zip(offsets, weights):
        acc += w * g[tuple(slice(r + o, r + o + n) for o, n in zip(off, inner))]
    values = field.scale * _icdf(field.marginal, ndtr(acc))
    return values[tuple((cells - (np.array(lo) + r)).T)]


def field_at(field: RandomField, x) -> float:
    """Evaluate the field at a single point."""
    pts = np.asarray(x, dtype=float).reshape(1, field.dim)
    return float(field_values(field, pts)[0])


def _field_values_seeds(field: RandomField, seeds: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate with a per-row seed array (independent realizations in one call)."""
    seeds = seeds.astype(np.uint64)
    shifts = np.empty((len(points), field.dim))
    for axis in range(field.dim):
        cells = np.full((len(points), 1), axis, dtype=np.int64)
        shifts[:, axis] = _uniform01(_cell_hash(seeds, _SALT_SHIFT, cells)) * field.cell_size
    cells = np.floor((points + shifts) / field.cell_size).astype(np.int64)
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


@dataclass(frozen=True)
class BirkhoffStudy:
    eps: float
    exact_mean: float
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
        averages=tuple(vals),
        median_average=float(np.median(vals)),
        median_abs_rel_error=float(np.median(rel)),
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
    level_multipliers=(2.0, 8.0),
) -> MaximalReport:
    """Weak-type tail check for the maximal functional.

    Fits C from the exceedance frequency at the first level lambda = m0 *
    r0^d * E[F] (Markov form C = lambda * freq), then requires the later
    levels to satisfy freq <= C / lambda.
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
    levels = tuple(m * vol * exact for m in level_multipliers)
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


@dataclass(frozen=True)
class CovarianceReport:
    lags: tuple[float, ...]
    estimates: tuple[float, ...]
    standard_errors: tuple[float, ...]
    fitted_constant: float | None
    fitted_exponent: float | None
    analytic_exponent: float | None
    trials: int
    truncation: float

    def __post_init__(self):
        if self.trials < 2:
            raise ConfigurationError(f"covariance report needs trials >= 2, got {self.trials}")
        if any(e < 0 for e in self.estimates):
            raise ConfigurationError("covariance estimates must be absolute values")


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


def analytic_nu_exponent(field: RandomField, z1, z2, lags) -> float | None:
    """Log-log slope of the analytic moving-average covariance of nu across lags.

    Valid when z1, z2 and the lags are whole numbers of cells; returns the
    decay exponent l (positive) or None when it does not apply.
    """
    if field.mixing.kind != "moving_average":
        return None
    cs = field.cell_size
    vecs = []
    for lag in lags:
        lag = np.asarray(lag, dtype=float).reshape(field.dim)
        vecs.append(lag)
    z1 = np.asarray(z1, dtype=float).reshape(field.dim)
    z2 = np.asarray(z2, dtype=float).reshape(field.dim)
    pts = [z1 / cs, z2 / cs] + [v / cs for v in vecs]
    if not all(np.allclose(p, np.rint(p), atol=1e-9) for p in pts):
        return None
    z1c = np.rint(z1 / cs).astype(np.int64)
    z2c = np.rint(z2 / cs).astype(np.int64)
    values, norms = [], []
    for v in vecs:
        xc = np.rint(v / cs).astype(np.int64)
        total = 0.0
        for a in (np.zeros(field.dim, dtype=np.int64), z1c):
            for b in (xc, xc + z2c):
                total += ma_weight_correlation(field.dim, field.mixing.q, b - a)
        if total <= 0:
            return None
        values.append(total)
        norms.append(float(np.sqrt((v**2).sum())))
    slope = float(np.polyfit(np.log(norms), np.log(values), 1)[0])
    return -slope


def covariance_report(
    field: RandomField, z1, z2, lags, trials: int = 1000, truncation: float = 1e3
) -> CovarianceReport:
    """Covariance decay across a list of lag vectors, with a power-law fit
    |Cov| ~ C1 * |x|^(-l) and, for moving averages at whole-cell lags, the
    analytic exponent for comparison."""
    entries = [empirical_covariance(field, z1, z2, x, trials, truncation) for x in lags]
    mags = np.array([e.lag for e in entries])
    ests = np.array([e.estimate for e in entries])
    fitted_c = fitted_l = None
    if len(entries) >= 2 and np.all(ests > 0) and np.all(mags > 0):
        slope, intercept = np.polyfit(np.log(mags), np.log(ests), 1)
        fitted_l = -float(slope)
        fitted_c = float(math.exp(intercept))
    return CovarianceReport(
        lags=tuple(float(m) for m in mags),
        estimates=tuple(float(e) for e in ests),
        standard_errors=tuple(e.standard_error for e in entries),
        fitted_constant=fitted_c,
        fitted_exponent=fitted_l,
        analytic_exponent=analytic_nu_exponent(field, z1, z2, lags),
        trials=trials,
        truncation=truncation,
    )
