"""Discretization of the jump energies on a periodic grid.

The torus [-L/2, L/2)^d with n points per axis stands in for R^d.  Jumps are
restricted to displacements z with h <= |z| <= L/4 inside the cone; every
node shares one displacement stencil, and the singular kernel |z|^(-d-alpha)
is integrated exactly (d = 1) or by tensor Gauss-Legendre quadrature (d = 2)
over the near-field cells, midpoint beyond.  Jumps shorter than half a
spacing land in the node's own cell; their second moment is folded onto the
nearest-neighbor weights (see _subcell_axis_mass), which restores first-order
self-convergence for alpha close to 2.  Cell integrals are computed on the
unit-spacing lattice and rescaled by h^(d-alpha), which makes the scaling
identity between dilated grids exact rather than approximate.  Jump forms
exist in d = 1, 2 only, the dims KernelParams admits; grids, measure weights
and the test functions take any d.

Every coefficient family is node fields times one stencil kernel K:
`node_fields` evaluates each distinct factor that kernel.form_terms lists
once, and a form reads its terms as index pairs into that stack.  The
reach n/4 < n/2 makes K an exact circulant on the torus, so the generator is
an FFT convolution and an energy a Parseval sum over forward transforms (see
SparseSymmetricForm).  K and its symbol depend on the config alone, and every
form of one kernel shares them (`_jump_kernel`).  Every FFT of the package
but env's window correlation is `Grid.rfft` or `Grid.irfft`, and every inner
product `inner`.  Explicit
weight slabs are built only on demand, as the oracle path behind the dense
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import env
from .errors import ConfigurationError, DomainError, NumericalError, check_positive
from .kernel import (
    AngularWeight,
    CoefficientForm,
    ConeSpec,
    ConstantForm,
    KernelParams,
    form_cell_size,
    form_terms,
    in_cone,
)

@dataclass(frozen=True)
class Grid:
    """Periodic uniform grid on the torus [-L/2, L/2)^d."""

    dim: int
    length: float
    n: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError(f"grid dim must be >= 1, got {self.dim}")
        check_positive("grid length", self.length)
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigurationError(f"grid needs even n >= 4, got {self.n}")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    def axis_coords(self) -> np.ndarray:
        return -self.length / 2 + self.h * np.arange(self.n)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n^dim, dim), C order."""
        c = self.axis_coords()
        grids = np.meshgrid(*([c] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def ball_mask(self, radius: float) -> np.ndarray:
        return (self.nodes() ** 2).sum(axis=1) <= radius**2

    def rfft(self, x: np.ndarray) -> np.ndarray:
        """numpy's rfftn over the trailing dim axes of x, one lattice or a
        stack, bitwise: rfft on the last axis, then fft on the others inside out."""
        y = np.fft.rfft(x)
        for axis in range(-2, -self.dim - 1, -1):
            y = np.fft.fft(y, axis=axis)
        return y

    def irfft(self, y: np.ndarray) -> np.ndarray:
        """The inverse of `rfft`, numpy's irfftn bitwise."""
        for axis in range(-self.dim, -1):
            y = np.fft.ifft(y, axis=axis)
        return np.fft.irfft(y, self.n)


def evaluate(grid: Grid, fn) -> np.ndarray:
    """Sample a callable of (m, dim) points into a flat grid function."""
    return np.asarray(fn(grid.nodes()), dtype=float).reshape(grid.size)


# OpenBLAS splits a dot product of more than 10,000 entries among its threads,
# which makes the rounding depend on their number.
_INNER_CHUNK = 8192


def inner(x: np.ndarray, y: np.ndarray):
    """sum_i conj(x_i) y_i over the flattened arrays in a fixed order: one BLAS
    call per chunk of at most 8,192 entries, the partial sums added left to
    right, so the bits do not depend on the BLAS thread count.  Up to 8,192
    entries it is np.vdot itself."""
    if x.size <= _INNER_CHUNK:
        return np.vdot(x, y)
    x, y = x.reshape(-1), y.reshape(-1)
    total = np.vdot(x[:_INNER_CHUNK], y[:_INNER_CHUNK])
    for start in range(_INNER_CHUNK, x.size, _INNER_CHUNK):
        total += np.vdot(x[start:start + _INNER_CHUNK], y[start:start + _INNER_CHUNK])
    return total


# ---------------------------------------------------------------------------
# stencil geometry


# Positive halves of numpy's leggauss rules, mapped to [-1/2, 1/2]: (nodes,
# weights) by order.  The literals are leggauss's output bitwise, which keeps
# numpy.polynomial and its LAPACK eigensolver out of a run.
_GL_HALVES = {
    16: ((0.04750625491881872, 0.14080177538962946, 0.22900838882861368,
          0.3089381222013219, 0.3777022041775015, 0.4328156011939159,
          0.4722875115366163, 0.49470046749582497),
         (0.09472530522753432, 0.09130170752246182, 0.08457825969750132,
          0.07479799440828835, 0.062314485627767036, 0.0475792558412463,
          0.031126761969323728, 0.013576229705877088)),
    32: ((0.024153832843869162, 0.07223598079139824, 0.11964368112606853,
          0.16593430114106383, 0.21067563806531767, 0.2534499544661147,
          0.29385787862038115, 0.3315221334651076, 0.36609105937014486,
          0.3972418979839712, 0.424683806866285, 0.44816057788302605,
          0.46745303796886983, 0.4823811277937532, 0.4928057557726342,
          0.4986319309247408),
         (0.04827004425736383, 0.047819360039637354, 0.046922199540402255,
          0.04558693934788189, 0.04382604650220189, 0.041655962113473353,
          0.039096947893535114, 0.03617289705442417, 0.03291111138818084,
          0.029342046739267783, 0.025499029631188046, 0.021417949011113418,
          0.017136931456510882, 0.012696032654631012, 0.008137197365452872,
          0.003509305004735253)),
}


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, no longer writeable: cached values are shared by callers."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of `order` (16 or 32) nodes on [-1/2, 1/2],
    ascending, equal to numpy's leggauss."""
    x, w = (np.array(half) for half in _GL_HALVES[order])
    return _read_only(np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w]))


def _cell_integrals(s: np.ndarray, alpha: float) -> np.ndarray:
    """Integrals over s + [-1/2, 1/2]^dim of |u|^(-dim-alpha) du for the rows
    of s (m, dim), unit spacing: exact in d = 1, tensor 16-point
    Gauss-Legendre in d >= 2, and the midpoint value beyond distance 4."""
    dim = s.shape[1]
    s = s.astype(float)
    dist = np.sqrt((s**2).sum(axis=1))
    q = np.empty(len(s))
    far = dist > 4.0
    # Python's float power is libm's pow; numpy's vectorized one rounds
    # differently in a few percent of entries
    q[far] = [d ** (-dim - alpha) for d in dist[far].tolist()]
    near = s[~far]
    if dim == 1:
        q[~far] = [((a - 0.5) ** (-alpha) - (a + 0.5) ** (-alpha)) / alpha
                   for a in np.abs(near[:, 0]).tolist()]
        return q
    x, w = _gl_nodes(16)
    nodes = np.stack([g.ravel() for g in np.meshgrid(*([x] * dim), indexing="ij")], axis=1)
    wts = np.ones(len(nodes))
    for g in np.meshgrid(*([w] * dim), indexing="ij"):
        wts = wts * g.ravel()
    pts = nodes + near[:, None, :]
    q[~far] = (wts * ((pts**2).sum(axis=2)) ** (-(dim + alpha) / 2.0)).sum(axis=1)
    return q


@lru_cache(maxsize=None)
def _subcell_axis_mass(dim: int, alpha: float, cone: ConeSpec) -> tuple[float, ...]:
    """Second moments c_k = integral over the central unit cell (inside the
    cone) of u_k^2 |u|^(-dim-alpha) du, in the dims 1, 2 KernelParams admits.

    Jumps shorter than half a spacing fall inside the node's own cell and
    would otherwise be discarded; matching their second moment onto the
    nearest-neighbor differences restores first-order self-convergence.
    Exact in d = 1; in d = 2 computed radially, the square's boundary at
    R(theta) = 1/(2 max|theta_j|).  The angular integrand is analytic between
    its kinks at multiples of pi/4 (and the cone's edges), so 32-point
    Gauss-Legendre on each piece matches adaptive quadrature to rounding.
    """
    if dim == 1:
        return (2.0 * 0.5 ** (2.0 - alpha) / (2.0 - alpha),)
    t0 = math.atan2(cone.axis[1], cone.axis[0])
    half = math.acos(cone.aperture)
    arcs = (
        [(0.0, 2.0 * math.pi)]
        if cone.full_space
        else [(t0 - half, t0 + half), (t0 + math.pi - half, t0 + math.pi + half)]
    )
    x, w = _gl_nodes(32)
    nodes, weights = [], []
    for lo, hi in arcs:
        kinks = [
            j * math.pi / 4
            for j in range(math.floor(lo / (math.pi / 4)) - 1, math.ceil(hi / (math.pi / 4)) + 2)
            if lo < j * math.pi / 4 < hi
        ]
        edges = np.array([lo, *kinks, hi])
        width = np.diff(edges)[:, None]
        nodes.append((0.5 * (edges[:-1] + edges[1:])[:, None] + width * x).ravel())
        weights.append((width * w).ravel())
    t, wt = np.concatenate(nodes), np.concatenate(weights)
    cos, sin = np.cos(t), np.sin(t)
    r_cube = 0.5 / np.maximum(np.abs(cos), np.abs(sin))
    return tuple(float((wt * (theta**2 * r_cube ** (2.0 - alpha) / (2.0 - alpha))).sum())
                 for theta in (cos, sin))


@lru_cache(maxsize=None)
def _stencil_geometry(
    dim: int, n: int, alpha: float, cone: ConeSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Displacements s (S, dim) with 1 <= |s| <= n/4 inside the cone, and the
    unit-lattice cell integrals q(s).  Physical weights scale by h^(dim-alpha)."""
    reach = n // 4
    rng = np.arange(-reach, reach + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    disp = np.stack([g.ravel() for g in grids], axis=1)
    dist = np.sqrt((disp.astype(float) ** 2).sum(axis=1))
    keep = (dist >= 1.0) & (dist <= reach)
    disp = disp[keep]
    member = in_cone(cone, disp.astype(float))
    disp = disp[member]
    # Lexicographic order keeps assembly deterministic across runs.
    order = np.lexsort(disp.T[::-1])
    disp = disp[order]
    # A centrally symmetric set in lexicographic order lists -s at the mirror
    # position of s.  Cell integrals are evaluated on the first half and
    # mirrored, so q(s) == q(-s) exactly; quadrature summation order would
    # otherwise differ in the last ulp and break the bitwise symmetry of the
    # assembled weights.
    size = len(disp)
    if not np.array_equal(disp[::-1], -disp):
        raise NumericalError(f"the stencil of {cone} is not mirror-symmetric")
    half = _cell_integrals(disp[: size // 2], alpha)
    q = np.concatenate([half, half[::-1]])
    # Fold sub-cell jumps onto the nearest admissible axis neighbors.
    mass = _subcell_axis_mass(dim, alpha, cone)
    for k_axis in range(dim):
        unit = np.zeros(dim, dtype=np.int64)
        unit[k_axis] = 1
        pos = np.flatnonzero((disp == unit).all(axis=1))  # empty outside the cone
        q[pos] += 0.5 * mass[k_axis]
        q[size - 1 - pos] += 0.5 * mass[k_axis]
    return _read_only(disp, q)


def _symbol(grid: Grid, stencil: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fourier symbol, in `Grid.rfft` layout, of the circulant with entries
    `values` at the displacements `stencil`.

    K_s sits at -s mod n so that (K * v)_i = sum_s K_s v_{i+s}; K is even,
    so its symbol is real."""
    lattice = np.zeros(grid.shape)
    lattice[tuple((-stencil % grid.n).T)] = values
    return grid.rfft(lattice).real


def _parseval_weights(khat: np.ndarray, size: int) -> np.ndarray:
    """omega K^ / N for a grid of N = `size` nodes: sum_xi of these times
    Re(conj(X) Y) over the rfftn half spectrum is (1/N) sum_xi K^ conj(X) Y
    over the whole one.  omega is 1 on the last-axis zero and Nyquist (n even)
    columns, which the half holds once, and 2 on the others, which stand for
    their conjugate mirror too."""
    w = khat * (2.0 / size)
    w[..., 0] *= 0.5
    w[..., -1] *= 0.5
    return w


@lru_cache(maxsize=32)
def _jump_kernel(
    grid: Grid, params: KernelParams, cone: ConeSpec, c: float, angular: AngularWeight
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stencil (S, dim), K_s = c rho(s) geom(s), the symbol K^ and its
    `_parseval_weights`, read-only: K depends on the config alone, so every
    form of one kernel shares them."""
    stencil, q = _stencil_geometry(grid.dim, grid.n, params.alpha, cone)
    geom = grid.h ** (grid.dim - params.alpha) * q
    rho = 1.0 if angular.kind == "one" else angular.rho(stencil.astype(float))
    values = c * rho * geom
    # Nonnegative factors make every weight nonnegative (NaN fails too).
    if not (values >= 0.0).all():
        raise DomainError(f"negative jump kernel: min K_s = {values.min():g}")
    khat = _symbol(grid, stencil, values)
    return (stencil, *_read_only(values, khat, _parseval_weights(khat, grid.size)))


class SparseSymmetricForm:
    """Jump energy E(f,g) = 1/2 sum_{i != j} (f_i - f_j)(g_i - g_j) w(i, j).

    Every node shares one displacement stencil, and the weights factor as

        w(i, i+s) = K_s sum_t F_{i_t}(i) F_{j_t}(i+s),

    with K_s (`stencil_kernel`) the geometry factor of displacement s times
    the constant c and angular weight rho of the form, F the (U, *shape)
    stack of the form's distinct node fields and (i_t, j_t) its terms, index
    pairs into F: kernel.form_terms lists both per family ([nu1, nu2] for a
    product form, [nu] when nu1 equals nu2, [lam, 1] for a summation form,
    [1] for a constant one) and `node_fields` evaluates the stack.  K is
    circulant, so with * the FFT convolution (K * v)_i = sum_s K_s v_{i+s}

        A u = sum_t F_{i_t} (K * (F_{j_t} u)) - d u,
        d = sum_t F_{i_t} (K * F_{j_t}),

    and E(f, g) = -<f, A g>.  By Parseval's identity, with f' = f - f_0,
    g' = g - g_0 and X_u, Y_u the `Grid.rfft` of F_u f' and F_u g',

        E(f, g) = <f', d g'> - (1/N) sum_t sum_xi omega_xi K^(xi)
                  Re(conj(X_{i_t}(xi)) Y_{j_t}(xi)),

    omega the weight of the half spectrum (`_parseval_weights`): an energy
    takes one forward transform of the U factor fields times f' (and g'),
    and no inverse.  The shift by the first entry keeps constants at exactly
    zero energy.  `weight_slab` builds w(i, i+s) explicitly from the
    same table; it is the independent oracle behind `dense_generator`.
    """

    def __init__(
        self,
        grid: Grid,
        params: KernelParams,
        jump_kernel: tuple[np.ndarray, ...],
        fields: np.ndarray,
        terms: tuple[tuple[int, int], ...],
    ):
        self.grid = grid
        self.params = params
        self.stencil, self.stencil_kernel, self._khat, self._weights = jump_kernel
        self._fields, self._terms = fields, terms
        if not (fields >= 0.0).all():  # NaN fails too
            raise DomainError(f"negative coefficient field: min value {fields.min():g}")
        self._d = self._pair_sum(fields)  # row sums

    @property
    def stencil_size(self) -> int:
        return len(self.stencil)

    def weight_slab(self, k: int) -> np.ndarray:
        """Lattice-shaped w(i, i + s_k) for stencil entry k, built explicitly."""
        shift = tuple(-int(v) for v in self.stencil[k])
        axes = tuple(range(self.grid.dim))
        fields = self._fields
        pairs = sum(fields[i] * np.roll(fields[j], shift, axis=axes) for i, j in self._terms)
        return self.stencil_kernel[k] * pairs

    def _pair_sum(self, v: np.ndarray) -> np.ndarray:
        """sum_t F_{i_t} (K * (F_{j_t} u)) from v = F u, the factor fields
        times u: one transform pair per distinct field."""
        conv = self.grid.irfft(self.grid.rfft(v) * self._khat)
        (i, j), *rest = self._terms
        out = self._fields[i] * conv[j]
        for i, j in rest:
            out += self._fields[i] * conv[j]
        return out

    def energy(self, f: np.ndarray, g: np.ndarray) -> float:
        """Dirichlet energy E(f, g) from the cached row sums and Parseval weights."""
        F = self._as_lattice(f)
        F = F - F.flat[0]
        x = self.grid.rfft(self._fields * F)
        if g is f:
            G, y = F, x
        else:
            G = self._as_lattice(g)
            G = G - G.flat[0]
            y = self.grid.rfft(self._fields * G)
        wy = self._weights * y
        cross = sum(inner(x[i], wy[j]).real for i, j in self._terms)
        # 0.0 - x keeps a vanishing energy unsigned
        return 0.0 - (float(cross) - float(inner(F, self._d * G)))

    def apply_generator(self, u: np.ndarray) -> np.ndarray:
        """(A u)_i = sum_j w(i,j) (u_j - u_i); annihilates constants."""
        U = self._as_lattice(u)
        U = U - U.flat[0]
        return (self._pair_sum(self._fields * U) - self._d * U).reshape(u.shape)

    def row_weight_sums(self) -> np.ndarray:
        """sum_j w(i, j) per node (= |A_ii|), flat layout."""
        return self._d.ravel().copy()

    def mean_symbol(self) -> np.ndarray:
        """Fourier symbol c (K^(0) - K^(xi)) of -A_bar, in `Grid.rfft` layout.

        A_bar is the translation-invariant generator with kernel c K, where
        c = mean(row sums) / K^(0) gives it this form's mean row sum (c = 0
        when K vanishes).  For constant coefficients A_bar = A.
        """
        k0 = float(self._khat.flat[0])
        c = float(self._d.mean()) / k0 if k0 > 0.0 else 0.0
        return c * (k0 - self._khat)

    def mean_resolvent(self, shift: float):
        """v -> (shift - A_bar)^(-1) v on flat grid functions: v^ / (shift + mean_symbol)."""
        symbol, grid = shift + self.mean_symbol(), self.grid
        return lambda v: grid.irfft(grid.rfft(v.reshape(grid.shape)) / symbol).reshape(-1)

    def dense_generator(self) -> np.ndarray:
        """Dense A for small instances (tests and the direct solver oracle).

        Entry (i, i + s_k) is w_k(i) from `weight_slab(k)`; the reach n/4 < n/2
        keeps distinct displacements distinct mod n, so each entry is written
        once."""
        if self.grid.size > 4096:
            raise ConfigurationError(
                f"dense generator refused for N = {self.grid.size} > 4096"
            )
        a = np.zeros((self.grid.size, self.grid.size))
        rows = np.arange(self.grid.size)
        node = np.indices(self.grid.shape).reshape(self.grid.dim, -1)
        for k, s in enumerate(self.stencil):
            cols = np.ravel_multi_index(node + s[:, None], self.grid.shape, mode="wrap")
            a[rows, cols] = self.weight_slab(k).ravel()
        np.fill_diagonal(a, a.diagonal() - a.sum(axis=1))
        return a

    def _as_lattice(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.size != self.grid.size:
            raise DomainError(
                f"grid function has {f.size} entries, grid has {self.grid.size} nodes"
            )
        return f.reshape(self.grid.shape)


def _check_dims(grid: Grid, cone: ConeSpec, params: KernelParams):
    if not (grid.dim == cone.dim == params.dim):
        raise ConfigurationError(
            f"dimension mismatch: grid {grid.dim}, cone {cone.dim}, params {params.dim}"
        )


def check_oscillation(grid: Grid, eps: float, cell_size: float):
    if grid.h > eps * cell_size / 4.0 + 1e-15:
        raise ConfigurationError(
            f"h > eps*cell_size/4: h={grid.h:g} does not resolve environment cells "
            f"of size eps*cell_size={eps * cell_size:g}; refine the grid or raise eps"
        )


def node_fields(grid: Grid, form: CoefficientForm, eps: float) -> np.ndarray:
    """The (U, *grid.shape) stack of the factors of kappa(x/eps, y/eps) that
    kernel.form_terms lists, in its order, on the grid lattice (axis_coords()
    / eps on each axis); the constant factor is an array of ones."""
    check_positive("eps", eps)
    cell = form_cell_size(form)
    if cell is not None:
        check_oscillation(grid, eps, cell)
    return lattice_factors(form_terms(form)[2], [grid.axis_coords() / eps] * grid.dim)


def lattice_factors(factors, axes) -> np.ndarray:
    """The (U, *lattice) stack of kernel.form_terms factors on the tensor
    lattice `axes`: the fields in one env.field_on_lattice call, and ones
    for the constant factor None."""
    rows = [i for i, f in enumerate(factors) if f is not None]
    out = np.ones((len(factors), *(len(a) for a in axes)))
    out[rows] = env.field_on_lattice([factors[i] for i in rows], axes)
    return out


def form_from_fields(
    grid: Grid,
    form: CoefficientForm,
    cone: ConeSpec,
    params: KernelParams,
    fields: np.ndarray,
) -> SparseSymmetricForm:
    """The energy of `form`'s kernel and terms with the factor stack `fields`
    of `node_fields`."""
    _check_dims(grid, cone, params)
    c, angular, _, terms = form_terms(form)
    return SparseSymmetricForm(
        grid, params, _jump_kernel(grid, params, cone, c, angular), fields, terms
    )


def assemble_form(
    grid: Grid,
    form: CoefficientForm,
    cone: ConeSpec,
    params: KernelParams,
    eps: float,
) -> SparseSymmetricForm:
    """Assemble the environment energy with coefficient kappa(x/eps, y/eps)."""
    return form_from_fields(grid, form, cone, params, node_fields(grid, form, eps))


def assemble_effective_form(
    grid: Grid,
    kernel: ConstantForm,
    cone: ConeSpec,
    params: KernelParams,
) -> SparseSymmetricForm:
    """Assemble the deterministic limit energy with kernel K(x - y), the
    ConstantForm of kernel.effective_kernel."""
    return form_from_fields(grid, kernel, cone, params, np.ones((1, *grid.shape)))


# ---------------------------------------------------------------------------
# measure weights


@dataclass(frozen=True)
class MeasureWeights:
    """Diagonal mass m_i = mu(x_i / eps) h^d of the symmetrizing measure."""

    grid: Grid
    m: np.ndarray


def measure_weights(grid: Grid, mu_field: env.RandomField | None, eps: float = 1.0) -> MeasureWeights:
    """Node masses for the measure mu(x/eps) dx; mu_field None means Lebesgue."""
    hd = grid.h**grid.dim
    if mu_field is None:
        m = np.full(grid.size, hd)
    else:
        if mu_field.dim != grid.dim:
            raise ConfigurationError(
                f"measure field dim {mu_field.dim} does not match grid dim {grid.dim}"
            )
        check_positive("eps", eps)
        check_oscillation(grid, eps, mu_field.cell_size)
        axes = [grid.axis_coords() / eps] * grid.dim
        m = env.field_on_lattice([mu_field], axes)[0].ravel() * hd
    if not (m > 0).all():
        raise DomainError(f"measure weights must be strictly positive, min {m.min():g}")
    return MeasureWeights(grid=grid, m=m)


# ---------------------------------------------------------------------------
# built-in test functions


def bump(grid: Grid, radius: float | None = None):
    """Smooth compactly supported bump exp(1 - 1/(1 - (|x|/r)^2)), sup = 1."""
    r = grid.length / 8.0 if radius is None else radius
    check_positive("bump radius", r)  # radius 0 gives the zero function
    if r > grid.length / 8.0 + 1e-12:
        raise ConfigurationError(
            f"test-function radius {r:g} exceeds L/8 = {grid.length / 8:g}; "
            "support must stay well inside the torus"
        )

    def fn(points: np.ndarray) -> np.ndarray:
        rho2 = ((points / r) ** 2).sum(axis=1)
        out = np.zeros(len(points))
        inside = rho2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
        return out

    return fn


def odd_bump(grid: Grid, radius: float | None = None):
    """x_1-weighted bump: odd in the first coordinate, compact support."""
    r = grid.length / 8.0 if radius is None else radius
    base = bump(grid, r)

    def fn(points: np.ndarray) -> np.ndarray:
        return (points[:, 0] / r) * base(points)

    return fn


def test_function_suite(grid: Grid) -> list[np.ndarray]:
    """Three smooth compactly supported grid functions used by the checks."""
    return [
        evaluate(grid, bump(grid)),
        evaluate(grid, bump(grid, grid.length / 16.0)),
        evaluate(grid, odd_bump(grid)),
    ]


@dataclass(frozen=True)
class TranslationReport:
    h_steps: tuple[float, ...]
    ratios: tuple[tuple[float, ...], ...]
    max_ratio: float
    fitted_exponents: tuple[float, ...]
    min_exponent: float
    violation: bool


def check_translation_steps(grid: Grid, h_steps) -> None:
    """Translation steps are positive whole multiples of the grid spacing (the
    log-log fit of the moduli takes their logarithm)."""
    for hval in h_steps:
        mult = hval / grid.h
        if abs(mult - round(mult)) > 1e-9 or round(mult) == 0:
            raise ConfigurationError(
                f"translation step {hval:g} is not a nonzero multiple of the spacing {grid.h:g}"
            )
        if mult < 0:
            raise ConfigurationError(f"translation step {hval:g} must be positive")


def translation_estimate_check(
    form: SparseSymmetricForm, f: np.ndarray, h_steps, r: float
) -> TranslationReport:
    """L1 translation moduli T(h) = int_{B(0,r)} |f(x + h e_i) - f(x)| dx against
    the bound c * h^(alpha/2) * E(f,f)^(1/2)."""
    grid = form.grid
    f = np.asarray(f, dtype=float)
    if f.size != grid.size:
        raise DomainError(f"grid function has {f.size} entries, grid has {grid.size}")
    check_translation_steps(grid, h_steps)
    check_positive("translation radius", r)
    steps = [round(hval / grid.h) for hval in h_steps]
    mask = grid.ball_mask(r).reshape(grid.shape)
    hd = grid.h**grid.dim
    energy = form.energy(f, f)
    alpha = form.params.alpha
    lattice = f.reshape(grid.shape)
    ratios, exponents = [], []
    violation = False
    for axis in range(grid.dim):
        t_axis, r_axis = [], []
        for mult in steps:
            shifted = np.roll(lattice, -mult, axis=axis)
            t = hd * float((np.abs(shifted - lattice) * mask).sum())
            t_axis.append(t)
            if energy > 0:
                r_axis.append(t / ((mult * grid.h) ** (alpha / 2.0) * math.sqrt(energy)))
            elif t > 0:
                violation = True
                r_axis.append(math.inf)
            else:
                r_axis.append(0.0)
        ratios.append(tuple(r_axis))
        pos = [(m * grid.h, t) for m, t in zip(steps, t_axis) if t > 0]
        if len(pos) >= 2:
            hs, ts = zip(*pos)
            exponents.append(float(np.polyfit(np.log(hs), np.log(ts), 1)[0]))
        else:
            exponents.append(math.nan)
    flat = [x for row in ratios for x in row]
    finite_exp = [e for e in exponents if not math.isnan(e)]
    return TranslationReport(
        h_steps=tuple(float(m * grid.h) for m in steps),
        ratios=tuple(ratios),
        max_ratio=max(flat) if flat else 0.0,
        fitted_exponents=tuple(exponents),
        min_exponent=min(finite_exp) if finite_exp else math.nan,
        violation=violation,
    )

