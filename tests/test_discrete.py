import hashlib
import inspect
import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from stablehom import discrete, env, kernel, solver
from stablehom import homogenize as H
from stablehom.errors import ConfigurationError, DomainError, NumericalError

import oracles


def unit_q_1d(s, alpha):
    """Independent 1d stencil integrals: exact antiderivative of |u|^(-1-alpha)
    over s + [-1/2, 1/2] up to |s| = 4, midpoint value beyond, plus the
    second moment of the node's own cell folded onto the +/-1 neighbors."""
    a = abs(s)
    if a > 4:
        q = a ** (-1.0 - alpha)
    else:
        q = ((a - 0.5) ** -alpha - (a + 0.5) ** -alpha) / alpha
    if a == 1:
        q += 0.5 * 2.0 * 0.5 ** (2.0 - alpha) / (2.0 - alpha)
    return q


def brute_force_energy_1d(grid, kappa_pairs, alpha, f):
    """Plain double loop over (node, displacement) with periodic wrap."""
    n = grid.n
    reach = n // 4
    total = 0.0
    for i in range(n):
        for s in range(-reach, reach + 1):
            if s == 0:
                continue
            j = (i + s) % n
            w = kappa_pairs(i, j) * unit_q_1d(s, alpha) * grid.h ** (1.0 - alpha)
            total += w * (f[j] - f[i]) ** 2
    return 0.5 * total


# ---------------------------------------------------------------------------
# grid basics


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        discrete.Grid(dim=1, length=8.0, n=7)
    with pytest.raises(ConfigurationError):
        discrete.Grid(dim=1, length=8.0, n=2)
    with pytest.raises(ConfigurationError):
        discrete.Grid(dim=1, length=-1.0, n=8)
    with pytest.raises(ConfigurationError):
        discrete.Grid(dim=0, length=8.0, n=8)
    g = discrete.Grid(dim=2, length=4.0, n=8)
    assert g.h == 0.5
    assert g.size == 64
    assert g.axis_coords()[0] == -2.0
    assert g.axis_coords()[-1] == 2.0 - g.h


def test_grid_nodes_layout():
    g = discrete.Grid(dim=2, length=2.0, n=4)
    nodes = g.nodes()
    assert nodes.shape == (16, 2)
    # C order: second coordinate varies fastest
    assert np.allclose(nodes[0], (-1.0, -1.0))
    assert np.allclose(nodes[1], (-1.0, -0.5))


# ---------------------------------------------------------------------------
# assembled energy against first-principles double sums


def test_constant_form_matches_brute_force_1d():
    grid = discrete.Grid(dim=1, length=8.0, n=8)
    params = kernel.KernelParams(alpha=1.0, dim=1)
    form = discrete.assemble_form(
        grid, kernel.ConstantForm(1.0), kernel.full_space_cone(1), params, eps=1.0
    )
    f = np.zeros(8)
    f[2:5] = 1.0  # indicator of three nodes
    want = brute_force_energy_1d(grid, lambda i, j: 1.0, 1.0, f)
    assert np.allclose(form.energy(f, f), want, rtol=1e-12)


def test_product_form_matches_brute_force_1d():
    grid = discrete.Grid(dim=1, length=4.0, n=16)
    alpha = 1.2
    params = kernel.KernelParams(alpha=alpha, dim=1)
    nu1 = env.sample_field(1, env.uniform(0.5, 1.5), seed=11)
    nu2 = env.sample_field(1, env.lognormal(0.0, 0.4), seed=12)
    form = discrete.assemble_form(
        grid, kernel.ProductForm(nu1=nu1, nu2=nu2), kernel.full_space_cone(1), params, eps=1.0
    )
    nodes = grid.nodes()
    v1 = env.field_values(nu1, nodes)
    v2 = env.field_values(nu2, nodes)
    rng = np.random.default_rng(5)
    f = rng.normal(size=16)
    want = brute_force_energy_1d(
        grid, lambda i, j: v1[i] * v2[j] + v1[j] * v2[i], alpha, f
    )
    assert np.allclose(form.energy(f, f), want, rtol=1e-12)


def test_pair_enumeration_matches_roll_energy():
    # independent indexing route: walk every node pair through the signed
    # torus offset and look the weight up per stencil entry
    grid = discrete.Grid(dim=2, length=3.0, n=12)
    params = kernel.KernelParams(alpha=1.5, dim=2)
    cone = kernel.ConeSpec(axis=(1.0, 0.0), aperture=0.5)
    lam = env.sample_field(2, env.lognormal(0.0, 0.5), seed=3)
    form = discrete.assemble_form(
        grid,
        kernel.SummationForm(lambda_field=lam, angular=kernel.AngularWeight("cos2", (1.0, 0.0))),
        cone,
        params,
        eps=4.0,
    )
    slabs = {tuple(int(v) for v in form.stencil[k]): form.weight_slab(k) for k in range(form.stencil_size)}
    rng = np.random.default_rng(7)
    f = rng.normal(size=grid.size)
    g = rng.normal(size=grid.size)
    F = f.reshape(grid.shape)
    G = g.reshape(grid.shape)
    n = grid.n
    total = 0.0
    for i1 in range(n):
        for i2 in range(n):
            for s, slab in slabs.items():
                j1, j2 = (i1 + s[0]) % n, (i2 + s[1]) % n
                total += (
                    slab[i1, i2] * (F[j1, j2] - F[i1, i2]) * (G[j1, j2] - G[i1, i2])
                )
    assert np.allclose(form.energy(f, g), 0.5 * total, rtol=1e-12)


def test_unit_cell_quadrature_2d_against_dblquad():
    alpha = 0.8
    params = kernel.KernelParams(alpha=alpha, dim=2)
    grid = discrete.Grid(dim=2, length=32.0, n=32)  # h = 1, reach = 8
    form = discrete.assemble_effective_form(
        grid, kernel.ConstantForm(1.0), kernel.full_space_cone(2), params
    )
    idx = {tuple(int(v) for v in s): k for k, s in enumerate(form.stencil)}

    def w(s):
        return float(form.weight_slab(idx[s]).ravel()[0])

    # off-axis near cell: plain cell integral of |u|^(-2-alpha)
    cell11, _ = integrate.dblquad(
        lambda u2, u1: (u1 * u1 + u2 * u2) ** (-(2 + alpha) / 2), 0.5, 1.5, 0.5, 1.5
    )
    assert np.allclose(w((1, 1)), cell11, rtol=1e-9)
    # beyond distance 4 the midpoint value takes over
    assert np.allclose(w((0, 5)), 5.0 ** (-2 - alpha), rtol=1e-14)
    # axis neighbor also carries half the central cell's second moment
    cell10, _ = integrate.dblquad(
        lambda u2, u1: (u1 * u1 + u2 * u2) ** (-(2 + alpha) / 2), 0.5, 1.5, -0.5, 0.5
    )
    central, _ = integrate.dblquad(
        lambda u2, u1: u1 * u1 * (u1 * u1 + u2 * u2) ** (-(2 + alpha) / 2),
        0.0,
        0.5,
        0.0,
        0.5,
    )
    assert np.allclose(w((1, 0)), cell10 + 0.5 * 4.0 * central, rtol=1e-9)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize(
    "cone", [kernel.full_space_cone(2), kernel.ConeSpec(axis=(1.0, 0.3), aperture=0.5)],
    ids=["full", "apertured"],
)
def test_subcell_axis_mass_2d_against_quad(alpha, cone):
    # polar form of int over the central cell of u_k^2 |u|^(-2-alpha): the cell
    # boundary sits at R(t) = 1/(2 max(|cos t|, |sin t|)), with kinks at k*pi/4
    t0, half = math.atan2(cone.axis[1], cone.axis[0]), math.acos(cone.aperture)
    arcs = ([(0.0, 2 * math.pi)] if cone.full_space
            else [(t0 - half, t0 + half), (t0 + math.pi - half, t0 + math.pi + half)])
    expected = []
    for k in range(2):
        def g(t):
            radius = 0.5 / max(abs(math.cos(t)), abs(math.sin(t)))
            return (math.cos(t), math.sin(t))[k] ** 2 * radius ** (2 - alpha) / (2 - alpha)
        total = 0.0
        for lo, hi in arcs:
            kinks = [j * math.pi / 4 for j in range(-8, 16) if lo < j * math.pi / 4 < hi]
            total += integrate.quad(g, lo, hi, points=kinks, limit=200, epsabs=0.0,
                                    epsrel=2e-14)[0]
        expected.append(total)
    got = discrete._subcell_axis_mass(2, alpha, cone)
    assert np.allclose(got, expected, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("order", [16, 32])
def test_gl_nodes_integrate_even_monomials(order):
    x, w = discrete._gl_nodes(order)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    for k in range(order):
        # int_{-1/2}^{1/2} x^(2k) dx
        assert abs(float((w * x ** (2 * k)).sum()) - 0.5 ** (2 * k) / (2 * k + 1)) <= 1e-15


@pytest.mark.parametrize("order", [16, 32])
def test_gl_nodes_match_leggauss(order):
    from numpy.polynomial.legendre import leggauss  # kept out of the library

    x, w = discrete._gl_nodes(order)
    want_x, want_w = (0.5 * v for v in leggauss(order))
    assert np.all(np.abs(x - want_x) <= 2 * np.spacing(np.abs(want_x)))
    assert np.all(np.abs(w - want_w) <= 2 * np.spacing(want_w))


def test_cached_arrays_are_read_only():
    # a caller writing into a cached array would corrupt every later caller
    grid = discrete.Grid(dim=2, length=4.0, n=16)
    cone, params = kernel.full_space_cone(2), kernel.KernelParams(alpha=1.0, dim=2)
    # the stencil, K_s, K^ and its Parseval weights; the box kernels' dict fills on use
    stencil_kernel = discrete._jump_kernel(grid, params, cone, 1.0, kernel.AngularWeight())
    cached = [
        *discrete._stencil_geometry(2, 16, 1.0, cone),
        *discrete._gl_nodes(16),
        *env._ma_window(2, 1.5),
        env._window_spectrum(2, 1.5, (20, 20)),
        *stencil_kernel[:4],
        discrete._box_kernel(grid, *stencil_kernel[:2], 8)[1],
    ]
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def _unit_cell_integral(s, dim, alpha):
    """One cell integral at a time: the per-entry form _stencil_geometry had."""
    dist = math.sqrt(float((s.astype(float) ** 2).sum()))
    if dist > 4.0:
        return dist ** (-dim - alpha)
    if dim == 1:
        a = abs(float(s[0]))
        return ((a - 0.5) ** (-alpha) - (a + 0.5) ** (-alpha)) / alpha
    x, w = discrete._gl_nodes(16)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1) + s.astype(float)
    wts = np.ones(len(pts))
    for g in np.meshgrid(*([w] * dim), indexing="ij"):
        wts = wts * g.ravel()
    vals = ((pts**2).sum(axis=1)) ** (-(dim + alpha) / 2.0)
    return float((wts * vals).sum())


def _stencil_geometry_loop(dim, n, alpha, cone):
    """The per-entry loop _stencil_geometry replaced, kept as its oracle."""
    reach = n // 4
    rng = np.arange(-reach, reach + 1, dtype=np.int64)
    disp = np.stack([g.ravel() for g in np.meshgrid(*([rng] * dim), indexing="ij")], axis=1)
    dist = np.sqrt((disp.astype(float) ** 2).sum(axis=1))
    disp = disp[(dist >= 1.0) & (dist <= reach)]
    disp = disp[kernel.in_cone(cone, disp.astype(float))]
    disp = disp[np.lexsort(disp.T[::-1])]
    q = np.empty(len(disp))
    index = {tuple(int(v) for v in s): k for k, s in enumerate(disp)}
    for k, s in enumerate(disp):
        neg = index[tuple(-int(v) for v in s)]
        q[k] = q[neg] if neg < k else _unit_cell_integral(s, dim, alpha)
    mass = discrete._subcell_axis_mass(dim, alpha, cone)
    for k_axis in range(dim):
        unit = np.zeros(dim, dtype=np.int64)
        unit[k_axis] = 1
        pos, neg = index.get(tuple(unit)), index.get(tuple(-unit))
        if pos is not None and neg is not None:
            q[pos] += 0.5 * mass[k_axis]
            q[neg] += 0.5 * mass[k_axis]
    return disp, q


_GEOMETRY_CONES = {
    1: [kernel.full_space_cone(1), kernel.ConeSpec(axis=(1.0,), aperture=0.0)],
    2: [kernel.full_space_cone(2), kernel.ConeSpec(axis=(1.0, 0.3), aperture=0.5),
        kernel.ConeSpec(axis=(0.0, 1.0), aperture=0.9), kernel.ConeSpec(axis=(0.6, 0.8))],
}


@pytest.mark.parametrize("dim, n", [(1, 4), (1, 64), (1, 8192), (2, 4), (2, 16), (2, 128)])
def test_stencil_geometry_matches_per_entry_loop_bitwise(dim, n):
    for alpha in (0.1, 0.5, 1.0, 1.5, 1.8, 1.95):
        for cone in _GEOMETRY_CONES[dim]:
            disp, q = discrete._stencil_geometry(dim, n, alpha, cone)
            want_disp, want_q = _stencil_geometry_loop(dim, n, alpha, cone)
            assert np.array_equal(disp, want_disp)
            assert np.array_equal(q.view(np.uint64), want_q.view(np.uint64)), (alpha, cone)
            # q(s) == q(-s): the mirrored entry of s is -s
            assert np.array_equal(disp[::-1], -disp) and np.array_equal(q, q[::-1])


def test_stencil_geometry_refuses_an_asymmetric_stencil(monkeypatch):
    monkeypatch.setattr(discrete, "in_cone", lambda cone, z: z[:, 0] > 0)
    with pytest.raises(NumericalError, match="not mirror-symmetric"):
        # unwrapped, so no geometry built with the patched test lands in the cache
        discrete._stencil_geometry.__wrapped__(2, 16, 1.0, kernel.full_space_cone(2))


# ---------------------------------------------------------------------------
# the grid's limit operator against the paper's: the symbol mean_symbol()/h^d
# of the limit form at xi = 2 pi k / L against the Levy exponent of its kernel
# truncated where the stencil stops,
#     phi_R(xi) = int_Omega (1 - cos xi.z) K(z) |z|^(-d-alpha) dz,
# Omega the union of the stencil's cells and the node's own cell.  A cell's
# weight sits at its centre, so the relative error falls like h^(2 - alpha).


def _truncated_exponent_1d(xi, alpha, radius):
    """phi_R in 1D by adaptive quadrature, one piece per period of the cosine."""
    def f(z):
        return 2.0 * math.sin(0.5 * xi * z) ** 2 * z ** (-1.0 - alpha)

    periods = [2.0 * math.pi * j / xi for j in range(1, int(radius * xi / (2.0 * math.pi)) + 1)]
    edges = [0.0, *(p for p in periods if p < radius), radius]
    return 2.0 * sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for a, b in zip(edges, edges[1:]))


# today's relative errors of the 1D limit symbol at n = 512 (L = 8), k = 1, 4, 16
_SYMBOL_ERRORS_1D = {0.5: (3.73e-4, 1.047e-3, 6.765e-3), 1.0: (3.703e-3, 7.686e-3, 2.817e-2),
                     1.5: (2.674e-2, 3.949e-2, 7.634e-2), 1.8: (5.261e-2, 6.185e-2, 7.916e-2)}


@pytest.mark.parametrize("alpha", sorted(_SYMBOL_ERRORS_1D))
def test_limit_symbol_matches_truncated_levy_exponent_1d(alpha):
    errors = {}
    for n in (512, 2048):
        grid = discrete.Grid(dim=1, length=8.0, n=n)
        form = discrete.assemble_effective_form(grid, kernel.ConstantForm(1.0),
                                                kernel.full_space_cone(1),
                                                kernel.KernelParams(alpha, 1))
        symbol = form.mean_symbol() / grid.h
        radius = (n // 4 + 0.5) * grid.h
        errors[n] = [symbol[k] / _truncated_exponent_1d(2.0 * math.pi * k / 8.0, alpha, radius)
                     - 1.0 for k in (1, 4, 16)]
    for err, today in zip(errors[512], _SYMBOL_ERRORS_1D[alpha]):
        assert 0.0 < err <= 1.1 * today, (err, today)
    for coarse, fine in zip(errors[512], errors[2048]):
        assert 0.0 < fine < coarse and abs(math.log(coarse / fine, 4) - (2.0 - alpha)) < 0.05


def _cells_exponent_2d(n, a, alpha, slope, rho):
    """Integral of 2 sin^2(a.u / 2) rho(u) |u|^(-2-alpha) over the unit-lattice
    cells s + [-1/2, 1/2]^2, 1 <= |s| <= n/4, clipped to the cone
    |u2| <= slope |u1| (slope inf: no cone): 8-point Gauss-Legendre in u1 on
    the pieces between the clip's kinks, and in u2 on the clipped interval."""
    x, w = np.polynomial.legendre.leggauss(8)
    x, w = 0.5 * x, 0.5 * w
    reach = n // 4
    s1, s2 = (g.ravel().astype(float) for g in np.meshgrid(*[np.arange(-reach, reach + 1)] * 2,
                                                             indexing="ij"))
    keep = (s1**2 + s2**2 >= 1.0) & (s1**2 + s2**2 <= reach**2)
    lo, hi, c, d = s1[keep] - 0.5, s1[keep] + 0.5, s2[keep] - 0.5, s2[keep] + 0.5
    cuts = [lo, hi]
    if math.isfinite(slope):
        cuts += [0.0 * lo, c / slope, -c / slope, d / slope, -d / slope]
    cuts = np.sort(np.clip(np.stack(cuts, axis=1), lo[:, None], hi[:, None]), axis=1)
    total = 0.0
    for p, q in zip(cuts.T[:-1], cuts.T[1:]):
        u1 = (0.5 * (p + q))[:, None] + (q - p)[:, None] * x
        clip = slope * np.abs(u1)
        y0, y1 = np.maximum(c[:, None], -clip), np.minimum(d[:, None], clip)
        span = np.maximum(y1 - y0, 0.0)[:, :, None]
        u2 = 0.5 * (y0 + y1)[:, :, None] + span * x
        u1 = u1[:, :, None]
        r2 = u1**2 + u2**2
        f = (2.0 * np.sin(0.5 * (a[0] * u1 + a[1] * u2)) ** 2 * rho(u1**2 / r2)
             * r2 ** (-1.0 - alpha / 2))
        total += float(((q - p)[:, None, None] * w[:, None] * span * w * f).sum())
    return total


def _own_cell_exponent_2d(a, alpha, slope, rho):
    """The same integrand over the node's own cell [-1/2, 1/2]^2 in the cone,
    in polar coordinates by adaptive quadrature."""
    def radial(t):
        e = a[0] * math.cos(t) + a[1] * math.sin(t)
        edge = 0.5 / max(abs(math.cos(t)), abs(math.sin(t)))
        return rho(math.cos(t) ** 2) * integrate.quad(
            lambda r: 2.0 * math.sin(0.5 * e * r) ** 2 * r ** (-1.0 - alpha), 0.0, edge,
            epsabs=0.0, epsrel=1e-12, limit=200)[0]
    half = math.atan(slope)
    total = 0.0
    for lo, hi in [(-half, half), (math.pi - half, math.pi + half)]:
        kinks = [j * math.pi / 4 for j in range(-4, 9) if lo < j * math.pi / 4 < hi]
        edges = [lo, *kinks, hi]
        total += sum(integrate.quad(radial, p, q, epsabs=0.0, epsrel=1e-12)[0]
                     for p, q in zip(edges, edges[1:]))
    return total


# (cone, angular weight, the cone's |u2| <= slope |u1|, rho(cos^2 of the angle to
# the axis (1, 0))) of each 2D case, and today's relative errors at n = 128
# (L = 4) by alpha, at the wave numbers k listed
_SYMBOL_CASES_2D = {
    "full": (kernel.full_space_cone(2), kernel.AngularWeight(), math.inf, lambda c2: 1.0,
             ((1, 0), (1, 1), (4, 4)),
             {1.0: (1.535e-2, 1.612e-2, 3.592e-2), 1.8: (6.257e-2, 6.336e-2, 7.387e-2)}),
    # along the cone's axis: see the xfail test below for the directions across it
    "cone": (kernel.ConeSpec(axis=(1.0, 0.0), aperture=0.5), kernel.AngularWeight(), math.sqrt(3.0),
             lambda c2: 1.0, ((1, 0), (4, 0)),
             {1.0: (1.689e-2, 3.042e-2), 1.8: (7.021e-2, 7.868e-2)}),
    "cos2": (kernel.full_space_cone(2), kernel.AngularWeight("cos2", (1.0, 0.0)), math.inf,
             lambda c2: 1.0 + 0.5 * c2, ((1, 0), (0, 1), (1, 1), (4, 4)),
             {1.0: (1.859e-2, 1.141e-2, 1.612e-2, 3.592e-2),
              1.8: (1.106e-1, 3.973e-3, 6.336e-2, 7.387e-2)}),
}


def _symbol_errors_2d(case, alpha, n, ks):
    cone, angular, slope, rho = _SYMBOL_CASES_2D[case][:4]
    grid = discrete.Grid(dim=2, length=4.0, n=n)
    form = discrete.assemble_effective_form(grid, kernel.ConstantForm(1.0, angular), cone,
                                            kernel.KernelParams(alpha, 2))
    symbol = form.mean_symbol() / grid.h**2
    errors = []
    for k in ks:
        a = [grid.h * 2.0 * math.pi * kk / grid.length for kk in k]  # xi h
        exponent = grid.h**-alpha * (_cells_exponent_2d(n, a, alpha, slope, rho)
                                     + _own_cell_exponent_2d(a, alpha, slope, rho))
        errors.append(symbol[k] / exponent - 1.0)
    return errors


@pytest.mark.parametrize("alpha", [1.0, 1.8])
@pytest.mark.parametrize("case", sorted(_SYMBOL_CASES_2D))
def test_limit_symbol_matches_truncated_levy_exponent_2d(case, alpha):
    ks, today = _SYMBOL_CASES_2D[case][4], _SYMBOL_CASES_2D[case][5][alpha]
    for err, bound in zip(_symbol_errors_2d(case, alpha, 128, ks), today):
        assert 0.0 < err <= 1.1 * bound, (err, bound)
    coarse, fine = (_symbol_errors_2d(case, alpha, n, [(1, 0)])[0] for n in (64, 128))
    assert 0.0 < fine < coarse and abs(math.log2(coarse / fine) - (2.0 - alpha)) < 0.05


@pytest.mark.xfail(strict=True, reason="the sub-cell fold drops the own cell's second moment "
                   "along an axis outside the cone: -45.5 % at k = (0, 1)")
def test_cone_symbol_across_its_axis_matches_truncated_levy_exponent():
    err, = _symbol_errors_2d("cone", 1.8, 128, [(0, 1)])
    assert abs(err) <= 0.08


# ---------------------------------------------------------------------------
# structural invariants of the assembled operator


def _small_random_form(seed=0):
    grid = discrete.Grid(dim=1, length=4.0, n=32)
    params = kernel.KernelParams(alpha=1.3, dim=1)
    lam = env.sample_field(1, env.lognormal(0.0, 0.6), seed=seed)
    form = discrete.assemble_form(
        grid, kernel.SummationForm(lambda_field=lam), kernel.full_space_cone(1), params, eps=1.0
    )
    return grid, form


def test_weights_nonnegative_and_rows_sum_to_zero():
    grid, form = _small_random_form()
    for k in range(form.stencil_size):
        assert (form.weight_slab(k) >= 0.0).all()
    ones = np.ones(grid.size)
    assert np.max(np.abs(form.apply_generator(ones))) <= 1e-12
    a = form.dense_generator()
    assert np.max(np.abs(a.sum(axis=1))) <= 1e-12
    assert np.allclose(-np.diag(a), form.row_weight_sums(), rtol=1e-12)


def test_energy_identity_and_self_adjointness():
    grid, form = _small_random_form(seed=4)
    rng = np.random.default_rng(9)
    f = rng.normal(size=grid.size)
    g = rng.normal(size=grid.size)
    af = form.apply_generator(f)
    ag = form.apply_generator(g)
    en = form.energy(f, g)
    assert abs(en - (-float(g @ af))) <= 1e-10 * max(1.0, abs(en))
    assert abs(float(g @ af) - float(f @ ag)) <= 1e-10 * max(1.0, abs(en))
    # bilinearity through polarization
    epp = form.energy(f + g, f + g)
    emm = form.energy(f - g, f - g)
    assert np.allclose(en, 0.25 * (epp - emm), atol=1e-10)


def test_energy_nonnegative():
    grid, form = _small_random_form(seed=6)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.normal(size=grid.size) * rng.uniform(0.1, 10)
        assert form.energy(f, f) >= -1e-12


def test_dense_generator_matches_apply_and_refuses_large():
    grid, form = _small_random_form(seed=8)
    a = form.dense_generator()
    assert np.array_equal(a, a.T)
    rng = np.random.default_rng(2)
    u = rng.normal(size=grid.size)
    assert np.allclose(a @ u, form.apply_generator(u), rtol=1e-12, atol=1e-12)
    big = discrete.Grid(dim=1, length=8.0, n=8192)
    params = kernel.KernelParams(alpha=1.0, dim=1)
    large = discrete.assemble_effective_form(
        big, kernel.ConstantForm(1.0), kernel.full_space_cone(1), params
    )
    with pytest.raises(ConfigurationError):
        large.dense_generator()


def test_length_rescaling_scales_weights_exactly():
    # q is computed in lattice units, so L -> tL multiplies every weight by
    # t^(d - alpha) with no quadrature drift
    params = kernel.KernelParams(alpha=0.7, dim=1)
    cone = kernel.full_space_cone(1)
    base = discrete.assemble_effective_form(
        discrete.Grid(dim=1, length=4.0, n=16), kernel.ConstantForm(1.0), cone, params
    )
    scaled = discrete.assemble_effective_form(
        discrete.Grid(dim=1, length=12.0, n=16), kernel.ConstantForm(1.0), cone, params
    )
    t = 3.0 ** (1.0 - 0.7)
    for k in range(base.stencil_size):
        assert np.allclose(scaled.weight_slab(k), t * base.weight_slab(k), rtol=1e-13)


def test_flat_kernel_equals_constant_form_bitwise():
    grid = discrete.Grid(dim=1, length=8.0, n=16)
    params = kernel.KernelParams(alpha=1.1, dim=1)
    cone = kernel.full_space_cone(1)
    a = discrete.assemble_form(grid, kernel.ConstantForm(3.0), cone, params, eps=1.0)
    b = discrete.assemble_effective_form(grid, kernel.ConstantForm(3.0), cone, params)
    for k in range(a.stencil_size):
        assert np.array_equal(a.weight_slab(k), b.weight_slab(k))


def _roll_oracle(form):
    """Generator and row sums from explicit weight slabs, one np.roll each."""
    axes = tuple(range(form.grid.dim))
    slabs = [
        (tuple(-int(v) for v in form.stencil[k]), form.weight_slab(k))
        for k in range(form.stencil_size)
    ]

    def apply(u):
        U = u.reshape(form.grid.shape)
        return sum(w * (np.roll(U, shift, axis=axes) - U) for shift, w in slabs).ravel()

    return apply, sum(w for _, w in slabs).ravel()


def _oracle_case(kind, dim, coned):
    grid = discrete.Grid(dim=dim, length=4.0, n=32 if dim == 1 else 16)
    params = kernel.KernelParams(alpha=1.3, dim=dim)
    axis = (1.0,) + (0.0,) * (dim - 1)
    if not coned:
        cone = kernel.full_space_cone(dim)
    else:
        cone = kernel.ConeSpec(axis=(0.6, 0.8) if dim == 2 else axis, aperture=0.5)
    if kind == "angular":
        k = kernel.ConstantForm(1.4, kernel.AngularWeight("cos2", axis))
        return grid, discrete.assemble_effective_form(grid, k, cone, params)
    fields = [env.sample_field(dim, env.lognormal(0.0, 0.6), seed=s) for s in (1, 2)]
    form = {
        "constant": kernel.ConstantForm(1.7),
        "summation": kernel.SummationForm(
            lambda_field=fields[0], angular=kernel.AngularWeight("cos2", axis)
        ),
        "product": kernel.ProductForm(nu1=fields[0], nu2=fields[1]),
    }[kind]
    return grid, discrete.assemble_form(grid, form, cone, params, eps=1.0)


@pytest.mark.parametrize("coned", [False, True], ids=["full", "cone"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "summation", "product", "angular"])
def test_fft_generator_matches_slab_oracle(kind, dim, coned):
    # the FFT convolutions against an np.roll matvec over the explicit slabs
    grid, form = _oracle_case(kind, dim, coned)
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid.size)
    g = rng.normal(size=grid.size)

    def close(got, want):
        scale = np.max(np.abs(want))
        assert scale > 0.0
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * scale

    apply, rows = _roll_oracle(form)
    close(form.apply_generator(f), apply(f))
    close(form.row_weight_sums(), rows)
    close(form.energy(f, g), -float(f @ apply(g)))
    close(form.energy(f, f), -float(f @ apply(f)))


def _pair_sum_energy(form, f, g):
    """1/2 sum_k sum_i w_k(i) (f_i - f_{i+s_k})(g_i - g_{i+s_k}) from the
    weight slabs."""
    grid = form.grid
    axes = tuple(range(grid.dim))
    f, g = f.reshape(grid.shape), g.reshape(grid.shape)
    total = 0.0
    for k, s in enumerate(form.stencil):
        shift = tuple(-int(v) for v in s)
        df = f - np.roll(f, shift, axis=axes)
        dg = g - np.roll(g, shift, axis=axes)
        total += float((form.weight_slab(k) * df * dg).sum())
    return 0.5 * total


def _families(dim, nu1, nu2):
    """Constant, summation (rho 1 and cos2) and product forms, the last with
    distinct and with equal factors."""
    axis = (1.0,) + (0.0,) * (dim - 1)
    return {
        "constant": kernel.ConstantForm(1.7),
        "summation-one": kernel.SummationForm(lambda_field=nu2),
        "summation-cos2": kernel.SummationForm(nu1, kernel.AngularWeight("cos2", axis)),
        "product": kernel.ProductForm(nu1=nu1, nu2=nu2),
        "product-equal": kernel.ProductForm(nu1=nu1, nu2=nu1),
    }


def _energy_case(kind, dim, coned):
    grid = discrete.Grid(dim=dim, length=4.0, n=64 if dim == 1 else 16)
    params = kernel.KernelParams(alpha=1.3, dim=dim)
    cone = (kernel.ConeSpec(axis=(0.6, 0.8) if dim == 2 else (1.0,), aperture=0.5) if coned
            else kernel.full_space_cone(dim))
    nu1, nu2 = (env.sample_field(dim, env.lognormal(0.0, 0.6), seed=s) for s in (1, 2))
    form = _families(dim, nu1, nu2)[kind]
    return grid, discrete.assemble_form(grid, form, cone, params, eps=1.0)


@pytest.mark.parametrize("coned", [False, True], ids=["full", "cone"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "kind", ["constant", "summation-one", "summation-cos2", "product", "product-equal"]
)
def test_spectral_energy_matches_pair_sum_oracle(kind, dim, coned):
    grid, form = _energy_case(kind, dim, coned)
    # one factor field each for constant and equal-factor forms, two otherwise
    assert len(form._fields) == (1 if kind in ("constant", "product-equal") else 2)
    rng = np.random.default_rng(5)
    # rough functions: the Nyquist columns of their spectra carry weight
    f, g = rng.normal(size=grid.size), 3.0 + rng.normal(size=grid.size)
    ff = _pair_sum_energy(form, f, f)
    gg = _pair_sum_energy(form, g, g)
    fg = _pair_sum_energy(form, f, g)
    assert ff > 0.0 and gg > 0.0
    assert abs(form.energy(f, f) - ff) <= 1e-12 * ff
    assert abs(form.energy(g, g) - gg) <= 1e-12 * gg
    scale = math.sqrt(ff * gg)
    assert abs(form.energy(f, g) - fg) <= 1e-12 * scale
    assert abs(form.energy(g, f) - fg) <= 1e-12 * scale
    const = np.full(grid.size, -2.5)
    for e in (form.energy(const, const), form.energy(const, g), form.energy(f, const)):
        assert e == 0.0 and math.copysign(1.0, e) == 1.0


def _torus_energy(form, f, g):
    """The Parseval sum of SparseSymmetricForm over the whole torus, whatever
    the supports: the energy as it was before support boxes."""
    grid = form.grid
    f, g = (v.reshape(grid.shape) - v[0] for v in (f, g))
    x, y = grid.rfft(form._fields * f), grid.rfft(form._fields * g)
    wy = form._weights * y
    cross = sum(discrete.inner(x[i], wy[j]).real for i, j in form._terms)
    return 0.0 - (float(cross) - float(discrete.inner(f, form._d * g)))


def _box_case(kernel_kind, dim):
    grid = discrete.Grid(dim=dim, length=4.0, n=64 if dim == 1 else 32)
    params = kernel.KernelParams(alpha=1.3, dim=dim)
    nu1, nu2 = (env.sample_field(dim, env.lognormal(0.0, 0.6), seed=s) for s in (1, 2))
    axis = (0.6, 0.8) if dim == 2 else (1.0,)
    cone, form = kernel.full_space_cone(dim), kernel.ProductForm(nu1=nu1, nu2=nu2)
    if kernel_kind == "cone":
        cone = kernel.ConeSpec(axis=axis, aperture=0.5)
    elif kernel_kind == "cos2":
        form = kernel.SummationForm(nu1, kernel.AngularWeight("cos2", axis))
    return grid, discrete.assemble_form(grid, form, cone, params, eps=1.0)


def _on_box(grid, low, width, seed):
    """2.5 plus random values on the box of `width` nodes per axis from
    `low` (wrapping mod n; the last axis 3 nodes narrower in 2D), but 2.5 at
    node 0: f - f_0 is supported on the box less node 0."""
    f = np.full(grid.shape, 2.5)
    sides = [width] + [width - 3] * (grid.dim - 1)
    box = np.ix_(*((low + np.arange(w)) % grid.n for w in sides))
    f[box] += np.random.default_rng(seed).normal(size=sides)
    f.flat[0] = 2.5
    return f.ravel()


def _box_sizes(monkeypatch, form):
    """The m of every `_box_kernel` call from now on, that is of the first
    energy on a box of each size: `form`'s kernel forgets the box kernels it
    kept."""
    form._boxes.clear()
    sizes = []
    box_kernel = discrete._box_kernel
    monkeypatch.setattr(discrete, "_box_kernel",
                        lambda *key: sizes.append(key[-1]) or box_kernel(*key))
    return sizes


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kernel_kind", ["full", "cone", "cos2"])
def test_energy_on_support_box_matches_pair_sum_and_torus(kernel_kind, dim, monkeypatch):
    grid, form = _box_case(kernel_kind, dim)
    n = grid.n
    sizes = _box_sizes(monkeypatch, form)
    f = _on_box(grid, 3, 7, seed=1)
    disjoint = _on_box(grid, 11, 5, seed=2)  # union box 13 wide: m = 26 < n
    overlap = _on_box(grid, 6, 8, seed=3)
    for a, b in [(f, f), (f, disjoint), (disjoint, f), (f, overlap), (overlap, overlap)]:
        got = form.energy(a, b)
        want = _pair_sum_energy(form, a, b)
        scale = math.sqrt(_pair_sum_energy(form, a, a) * _pair_sum_energy(form, b, b))
        assert scale > 0.0
        assert abs(got - want) <= 1e-12 * scale
        assert abs(got - _torus_energy(form, a, b)) <= 1e-12 * scale
    assert sizes and all(m < n for m in sizes)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kernel_kind", ["full", "cone", "cos2"])
def test_energy_across_the_seam_and_at_full_width_is_the_torus_sum(
        kernel_kind, dim, monkeypatch):
    grid, form = _box_case(kernel_kind, dim)
    n = grid.n
    sizes = _box_sizes(monkeypatch, form)
    # 7 nodes across the seam: the box, not wrapping, spans the whole torus
    seam = _on_box(grid, n - 3, 7, seed=4)
    got = form.energy(seam, seam)
    want = _pair_sum_energy(form, seam, seam)
    assert abs(got - want) <= 1e-12 * want
    assert got == _torus_energy(form, seam, seam)
    assert sizes == []
    # the least width whose m = 2 _fft_size(width) reaches n takes the torus,
    # one node less a box of m < n nodes
    full = next(w for w in range(2, n) if 2 * env._fft_size(w) >= n)
    wide = _on_box(grid, 1, full, seed=5)
    assert form.energy(wide, wide) == _torus_energy(form, wide, wide)
    assert sizes == []
    narrower = _on_box(grid, 1, full - 1, seed=5)
    got = form.energy(narrower, narrower)
    want = _pair_sum_energy(form, narrower, narrower)
    assert abs(got - want) <= 1e-12 * want
    assert abs(got - _torus_energy(form, narrower, narrower)) <= 1e-12 * want
    assert sizes == [2 * env._fft_size(full - 1)] and sizes[0] < n


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kernel_kind", ["full", "cone", "cos2"])
def test_energy_of_an_empty_support_is_exactly_zero(kernel_kind, dim, monkeypatch):
    grid, form = _box_case(kernel_kind, dim)
    sizes = _box_sizes(monkeypatch, form)
    const = np.full(grid.size, -2.5)
    for e in (form.energy(const, const), form.energy(const, const.copy())):
        assert e == 0.0 and math.copysign(1.0, e) == 1.0
    assert sizes == []
    # a single node: its box is one node wide, on a grid of m = 4 nodes
    spike = np.where(np.arange(grid.size) == grid.size // 2, 1.0, 0.0)
    got = form.energy(spike, spike)
    assert abs(got - _pair_sum_energy(form, spike, spike)) <= 1e-12 * got
    assert sizes == [4]


@pytest.mark.parametrize("dim", [1, 2])
def test_energy_of_a_nonfinite_function_is_nan(dim):
    # a first entry that is not finite takes the torus, where f - f_0 is NaN
    grid, form = _box_case("full", dim)
    spike = np.where(np.arange(grid.size) == grid.size // 2, 1.0, 0.0)
    for f in (np.full(grid.size, np.inf), np.where(spike > 0.0, 0.0, np.nan)):
        with np.errstate(invalid="ignore"):  # inf - inf
            assert math.isnan(form.energy(f, f))
            assert math.isnan(form.energy(spike, f)) and math.isnan(form.energy(f, spike))


def test_forms_of_one_kernel_share_its_symbol():
    grid = discrete.Grid(dim=2, length=4.0, n=32)
    cone, params = kernel.full_space_cone(2), kernel.KernelParams(alpha=1.0, dim=2)
    ma = env.moving_average(1.5)
    form = kernel.ProductForm(nu1=env.sample_field(2, env.uniform(0.5, 1.5), ma, seed=0),
                              nu2=env.sample_field(2, env.uniform(0.5, 1.5), ma, seed=1))
    forms = [discrete.assemble_form(grid, H.reseed_form(form, seed), cone, params, eps)
             for seed in (3, 4) for eps in (1.0, 0.5)]
    assert all(op._khat is forms[0]._khat for op in forms)
    assert all(op.stencil_kernel is forms[0].stencil_kernel for op in forms)
    assert all(op._boxes is forms[0]._boxes for op in forms)  # and the box kernels
    limit = discrete.assemble_effective_form(grid, kernel.effective_kernel(form), cone, params)
    assert limit._khat is not forms[0]._khat  # another constant c, another kernel


# sha256 prefixes of apply_generator(u) and row_weight_sums(), recorded with
# the generator that multiplied stacks of the a_t and b_t fields, before the
# factor table.  They pin its operations bitwise for numpy 2.4's FFT.  The
# families that read the moving-average nu1 were re-recorded when window sums
# became an FFT correlation; with per-offset window sums they give the
# earlier digests.
_GENERATOR_DIGESTS = {
    "1d-constant": ("1303bb12692d90a2", "e60b8c9cdadf7eb2"),
    "1d-summation-one": ("72e52ebd573b8a74", "ef10ae9a8a17166e"),
    "1d-summation-cos2": ("9f5cb0da3a45d22d", "0ec7ce63ccdd6c50"),
    "1d-product": ("b638101a30b4de89", "a53f6d8f89b305cb"),
    "1d-product-equal": ("c25f860d329955e4", "c56f0d0dc8cba6e0"),
    "2d-constant": ("6dd50ebec606ee90", "e3db50ea91ea4625"),
    "2d-summation-one": ("c98082c7719759dd", "70e1547e5a9e13de"),
    "2d-summation-cos2": ("43d71109a64c7b9d", "01ba845b4b12f4d1"),
    "2d-product": ("62a4ece31dd5beb4", "50e1da8f643e106e"),
    "2d-product-equal": ("7ace742859e61ded", "9885c641689dc5bd"),
}


@pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="digests of numpy 2.4's FFT")
@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_generator_and_row_sums_match_recorded_digests(dim, n):
    grid = discrete.Grid(dim=dim, length=4.0, n=n)
    cone, params = kernel.full_space_cone(dim), kernel.KernelParams(alpha=1.3, dim=dim)
    nu1 = env.sample_field(dim, env.uniform(0.5, 1.5), env.moving_average(1.5), seed=1)
    nu2 = env.sample_field(dim, env.lognormal(0.0, 0.5), seed=2)
    u = np.random.default_rng(0).normal(size=grid.size)

    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]

    for name, coefficient in _families(dim, nu1, nu2).items():
        op = discrete.assemble_form(grid, coefficient, cone, params, eps=1.0)
        got = (digest(op.apply_generator(u)), digest(op.row_weight_sums()))
        assert got == _GENERATOR_DIGESTS[f"{dim}d-{name}"], name


# sha256 prefixes of solve_resolvent(...).u and CG iteration counts, recorded
# before the lattice transform moved into Grid.rfft/irfft and CG updated its
# vectors in place: the 1D summation form of acceptance criterion 3 at
# eps 1/4, and the first cell (eps 1/2, master seed 0) of the benchmark's 2D
# moving-average product form on a lognormal(-1/2, 1) measure; the 2D one
# re-recorded when window sums became an FFT correlation, and both when the
# preconditioner's scaling was smoothed at a quarter of the cell length
# (23 -> 20 and 17 -> 15 iterations).
_SOLVER_DIGESTS = {1: ("bacb9ebc5984f602", 20), 2: ("3c13d8b5df13f715", 15)}


def _digest_problem(dim):
    if dim == 1:
        grid = discrete.Grid(dim=1, length=8.0, n=512)
        form = kernel.SummationForm(env.sample_field(1, env.lognormal(-0.125, 0.5), seed=3))
        eps, measure = 0.25, discrete.measure_weights(grid, None)
    else:
        grid = discrete.Grid(dim=2, length=4.0, n=64)
        ma = env.moving_average(1.5)
        form = kernel.ProductForm(nu1=env.sample_field(2, env.uniform(0.5, 1.5), ma, seed=0),
                                  nu2=env.sample_field(2, env.uniform(0.5, 1.5), ma, seed=1))
        (_, eps, _, cell_seed), _ = H._study_cells(0, "sweep", (0.5, 0.25), 1)
        form = H.reseed_form(form, cell_seed)
        mu = env.sample_field(2, env.lognormal(-0.5, 1.0), seed=env.derive_seed(cell_seed, "mu"))
        measure = discrete.measure_weights(grid, mu, eps)
    cone, params = kernel.full_space_cone(dim), kernel.KernelParams(alpha=1.0, dim=dim)
    op = discrete.assemble_form(grid, form, cone, params, eps)
    return solver.ResolventProblem(op, measure, 1.0, discrete.evaluate(grid, discrete.bump(grid)))


@pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="digests of numpy 2.4's FFT")
@pytest.mark.parametrize("dim", [1, 2])
def test_solver_output_matches_recorded_digests(dim):
    sol = solver.solve_resolvent(_digest_problem(dim), tol=1e-9)
    digest = hashlib.sha256(np.ascontiguousarray(sol.u).tobytes()).hexdigest()[:16]
    assert (digest, sol.iterations) == _SOLVER_DIGESTS[dim]


@pytest.mark.parametrize("stack", [(), (3,)])
@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_grid_transform_pair_is_numpys_rfftn_bitwise(dim, n, stack):
    grid = discrete.Grid(dim=dim, length=4.0, n=n)
    x = np.random.default_rng(dim).normal(size=stack + grid.shape)
    axes = tuple(range(len(stack), x.ndim))
    spectrum = np.fft.rfftn(x, axes=axes)
    assert np.array_equal(grid.rfft(x), spectrum)
    assert np.array_equal(grid.irfft(spectrum), np.fft.irfftn(spectrum, s=grid.shape, axes=axes))


def test_inner_is_vdot_up_to_a_chunk_then_sums_chunks_in_order():
    rng = np.random.default_rng(0)
    for size in (1, 8192):
        x, y = rng.normal(size=size), rng.normal(size=size) + 1j * rng.normal(size=size)
        assert discrete.inner(x, y) == np.vdot(x, y)
        assert discrete.inner(y, y) == np.vdot(y, y)  # conjugates its first argument
    x, y = rng.normal(size=(2, 10000)), rng.normal(size=(2, 10000))
    chunks = [np.vdot(x.ravel()[k:k + 8192], y.ravel()[k:k + 8192]) for k in range(0, 20000, 8192)]
    assert discrete.inner(x, y) == (chunks[0] + chunks[1]) + chunks[2]


def test_every_inner_product_goes_through_inner():
    # np.dot and np.vdot thread long products in BLAS; only `inner` may call them
    lines, start = inspect.getsourcelines(discrete.inner)
    body = range(start, start + len(lines))
    calls = [(path.name, number)
             for path in sorted(pathlib.Path(discrete.__file__).parent.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"np\.v?dot\b", line)]
    assert calls and all(name == "discrete.py" and number in body for name, number in calls), calls


def test_n_doubling_energy_drift_small():
    params = kernel.KernelParams(alpha=1.5, dim=1)
    cone = kernel.full_space_cone(1)
    energies = []
    for n in (128, 256):
        grid = discrete.Grid(dim=1, length=8.0, n=n)
        form = discrete.assemble_effective_form(grid, kernel.ConstantForm(1.0), cone, params)
        f = discrete.evaluate(grid, discrete.bump(grid))
        energies.append(form.energy(f, f))
    assert abs(energies[1] / energies[0] - 1.0) < 0.02


_GRID16 = discrete.Grid(dim=1, length=4.0, n=16)
_UNIT = (kernel.full_space_cone(1), kernel.KernelParams(alpha=1.0, dim=1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: kernel.ConstantForm(math.nan),
        lambda: kernel.ConstantForm(math.inf),
        lambda: discrete.assemble_form(_GRID16, kernel.ConstantForm(1.0), *_UNIT, eps=math.nan),
        lambda: discrete.measure_weights(
            _GRID16, env.sample_field(1, env.constant(1.0)), eps=math.nan
        ),
        lambda: oracles.kappa(kernel.ConstantForm(1.0), [0.0], [1.0], eps=math.nan),
        # infinite scales, refused as NaN ones are
        lambda: discrete.assemble_form(
            _GRID16, kernel.SummationForm(env.sample_field(1, env.uniform(0.5, 1.5))), *_UNIT,
            eps=math.inf,
        ),
        lambda: discrete.measure_weights(
            _GRID16, env.sample_field(1, env.constant(1.0)), eps=math.inf
        ),
        lambda: discrete.Grid(dim=1, length=math.nan, n=64),
        lambda: discrete.Grid(dim=1, length=math.inf, n=64),
    ],
)
def test_non_finite_form_inputs_rejected(make):
    with pytest.raises(ConfigurationError):
        make()


def test_equal_product_factors_are_one_field_row():
    # equal factors that are distinct objects were two rows of the factor
    # table, evaluated and transformed twice
    grid = discrete.Grid(dim=2, length=4.0, n=16)
    cone, params = kernel.full_space_cone(2), kernel.KernelParams(alpha=1.3, dim=2)
    nu = env.sample_field(2, env.lognormal(0.0, 0.6), seed=1)
    shared = discrete.assemble_form(grid, kernel.ProductForm(nu, nu), cone, params, eps=1.0)
    twin = discrete.assemble_form(grid, kernel.ProductForm(nu, replace(nu)), cone, params, eps=1.0)
    assert twin._fields.shape == shared._fields.shape == (1, *grid.shape)
    rng = np.random.default_rng(3)
    f, g = rng.normal(size=grid.size), rng.normal(size=grid.size)
    assert np.array_equal(twin.apply_generator(f), shared.apply_generator(f))
    assert np.array_equal(twin.row_weight_sums(), shared.row_weight_sums())
    assert twin.energy(f, g) == shared.energy(f, g)
    assert twin.energy(f, f) == shared.energy(f, f)


@pytest.mark.parametrize("eps", [0.5, 0.125])
@pytest.mark.parametrize("dim", [1, 2])
def test_grid_fields_match_field_values_at_nodes_bitwise(dim, eps):
    # fields are evaluated on the grid lattice; field_values at the nodes is the
    # oracle, bitwise for iid fields and within 1e-13 relative for moving
    # averages, whose window sums the lattice forms by an FFT correlation
    grid = discrete.Grid(dim=dim, length=2.0, n=64)
    ma = env.moving_average(1.5)
    nu1 = env.sample_field(dim, env.uniform(0.5, 1.5), ma, seed=1)
    nu2 = env.sample_field(dim, env.lognormal(0.0, 0.5), seed=2)
    lam = env.sample_field(dim, env.exp_abs_gauss(1.0), ma, cell_size=1.5, seed=3)
    mu = env.sample_field(dim, env.lognormal(-0.5, 1.0), seed=4)
    cone = kernel.full_space_cone(dim)
    params = kernel.KernelParams(alpha=1.0, dim=dim)
    nodes = grid.nodes() / eps

    def at_nodes(field):
        return env.field_values(field, nodes).reshape(grid.shape)

    product = discrete.assemble_form(
        grid, kernel.ProductForm(nu1=nu1, nu2=nu2), cone, params, eps
    )
    # factor tables: [nu1, nu2] and [lam, 1], with the pairs as index pairs
    np.testing.assert_allclose(product._fields[0], at_nodes(nu1), rtol=1e-13, atol=0.0)
    assert np.array_equal(product._fields[1], at_nodes(nu2))
    assert product._terms == ((0, 1), (1, 0))
    summation = discrete.assemble_form(
        grid, kernel.SummationForm(lambda_field=lam), cone, params, eps
    )
    np.testing.assert_allclose(summation._fields[0], at_nodes(lam), rtol=1e-13, atol=0.0)
    assert np.array_equal(summation._fields[1], np.ones(grid.shape))
    assert summation._terms == ((0, 1), (1, 0))
    mw = discrete.measure_weights(grid, mu, eps)
    assert np.array_equal(mw.m, env.field_values(mu, nodes) * grid.h**dim)


def test_dimension_mismatch_rejected():
    grid = discrete.Grid(dim=2, length=4.0, n=8)
    with pytest.raises(ConfigurationError):
        discrete.assemble_effective_form(
            grid, kernel.ConstantForm(1.0), kernel.full_space_cone(1),
            kernel.KernelParams(alpha=1.0, dim=2),
        )
    with pytest.raises(DomainError):
        form = discrete.assemble_effective_form(
            grid, kernel.ConstantForm(1.0), kernel.full_space_cone(2),
            kernel.KernelParams(alpha=1.0, dim=2),
        )
        form.energy(np.ones(5), np.ones(5))


def test_unresolved_microstructure_rejected():
    grid = discrete.Grid(dim=1, length=8.0, n=16)  # h = 0.5
    lam = env.sample_field(1, env.uniform(0.5, 1.5))
    with pytest.raises(ConfigurationError, match=r"h > eps\*cell_size/4"):
        discrete.assemble_form(
            grid, kernel.SummationForm(lambda_field=lam), kernel.full_space_cone(1),
            kernel.KernelParams(alpha=1.0, dim=1), eps=1.0,
        )


# ---------------------------------------------------------------------------
# measure weights


def test_measure_weights_lebesgue_exact():
    grid = discrete.Grid(dim=2, length=4.0, n=8)
    mw = discrete.measure_weights(grid, None)
    assert np.all(mw.m == grid.h**2)
    assert np.allclose(mw.m.sum(), 16.0, rtol=1e-12)  # total mass L^d


def test_measure_weights_total_mass_ergodic():
    grid = discrete.Grid(dim=1, length=4.0, n=1024)
    spec = env.lognormal(0.0, 0.5)
    exact = 4.0 * env.moment(spec, 1.0)
    totals = []
    for seed in range(10):
        field = env.sample_field(1, spec, seed=seed)
        mw = discrete.measure_weights(grid, field, eps=1.0 / 64.0)
        totals.append(mw.m.sum())
    assert abs(np.mean(totals) / exact - 1.0) < 0.05


def test_measure_weights_halving_h():
    field = env.sample_field(2, env.constant(2.0))
    coarse = discrete.measure_weights(discrete.Grid(dim=2, length=8.0, n=8), field, eps=4.0)
    fine = discrete.measure_weights(discrete.Grid(dim=2, length=8.0, n=16), field, eps=4.0)
    assert np.all(coarse.m == 2.0 * 1.0**2)
    assert np.all(fine.m == coarse.m[0] / 2.0**2)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_smooth_is_the_periodic_gaussian_convolution(dim, n):
    grid = discrete.Grid(dim=dim, length=4.0, n=n)
    width = 2.5 * grid.h
    v = np.random.default_rng(dim).normal(size=grid.size)
    # sampled Gaussian, periodized over three images per side, as a circulant
    x = grid.h * np.arange(n)
    g1 = sum(np.exp(-0.5 * ((x + k * grid.length) / width) ** 2) for k in range(-3, 4))
    g1 *= grid.h / (math.sqrt(2.0 * math.pi) * width)
    kern = g1 if dim == 1 else np.multiply.outer(g1, g1)
    direct = np.real(np.fft.ifftn(np.fft.fftn(kern) * np.fft.fftn(v.reshape(grid.shape))))
    got = grid.smooth(v, width)
    assert np.abs(got - direct.ravel()).max() <= 1e-12 * np.abs(v).max()
    assert grid.smooth(np.full(grid.size, 2.5), width) == pytest.approx(2.5, rel=1e-15)
    assert discrete._gaussian_symbol(grid, width).flags.writeable is False


def test_forms_and_measures_carry_their_cell_length():
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    cone, params = kernel.full_space_cone(1), kernel.KernelParams(1.0, 1)
    form = kernel.ProductForm(nu1=env.sample_field(1, env.uniform(0.5, 1.5), cell_size=2.0),
                              nu2=env.sample_field(1, env.uniform(0.5, 1.5), seed=1))
    assert discrete.assemble_form(grid, form, cone, params, eps=0.5).cell_length == 0.5
    fields = discrete.node_fields(grid, form, 0.5)
    assert discrete.form_from_fields(grid, form, cone, params, fields, 0.5).cell_length == 0.5
    constant = discrete.assemble_form(grid, kernel.ConstantForm(1.0), cone, params, eps=0.5)
    assert constant.cell_length is None
    mu = env.sample_field(1, env.lognormal(0.0, 0.5), cell_size=3.0)
    assert discrete.measure_weights(grid, mu, eps=0.5).cell_length == 1.5
    assert discrete.measure_weights(grid, None).cell_length is None


def test_measure_weights_validation():
    grid = discrete.Grid(dim=1, length=4.0, n=64)
    with pytest.raises(ConfigurationError):
        discrete.measure_weights(grid, env.sample_field(2, env.constant(1.0)))
    with pytest.raises(ConfigurationError, match="refine the grid or raise eps"):
        discrete.measure_weights(grid, env.sample_field(1, env.constant(1.0)), eps=0.1)


# ---------------------------------------------------------------------------
# built-in test functions


def test_bump_shape_and_radius_cap():
    grid = discrete.Grid(dim=1, length=8.0, n=64)
    f = discrete.evaluate(grid, discrete.bump(grid))
    nodes = grid.nodes()[:, 0]
    assert f[np.argmin(np.abs(nodes))] == 1.0  # sup at the center
    assert np.all(f[np.abs(nodes) >= 1.0] == 0.0)  # support radius L/8 = 1
    with pytest.raises(ConfigurationError):
        discrete.bump(grid, radius=1.02)
    # radius 0 used to give the zero function, with a RuntimeWarning
    with pytest.raises(ConfigurationError, match="bump radius must be positive, got 0.0"):
        discrete.bump(grid, radius=0.0)
    odd = discrete.evaluate(grid, discrete.odd_bump(grid))
    flipped = discrete.evaluate(grid, lambda pts: discrete.odd_bump(grid)(-pts))
    assert np.allclose(odd, -flipped, atol=1e-15)
    suite = discrete.test_function_suite(grid)
    assert len(suite) == 3 and all(fn.shape == (64,) for fn in suite)


# ---------------------------------------------------------------------------
# functional-inequality diagnostics


def test_nash_check_scaling_invariance():
    grid = discrete.Grid(dim=2, length=8.0, n=16)
    params = kernel.KernelParams(alpha=1.0, dim=2)
    cone = kernel.full_space_cone(2)
    fns = discrete.test_function_suite(grid)
    r1 = oracles.nash_check(grid, cone, params, fns)
    assert r1.passed
    assert all(math.isfinite(r) for r in r1.ratios)
    r2 = oracles.nash_check(grid, cone, params, [2.0 * f for f in fns])
    assert np.allclose(r1.ratios, r2.ratios, rtol=1e-12)
    r3 = oracles.nash_check(grid, cone, params, fns + [np.zeros(grid.size)])
    assert r3.skipped == (3,)
    with pytest.raises(ConfigurationError):
        oracles.nash_check(grid, cone, params, [])


def test_cone_comparability_full_space_is_unity():
    grid = discrete.Grid(dim=2, length=8.0, n=16)
    params = kernel.KernelParams(alpha=1.2, dim=2)
    fns = discrete.test_function_suite(grid)
    report = oracles.cone_comparability_check(grid, kernel.full_space_cone(2), params, fns)
    assert report.passed
    assert all(r == 1.0 for r in report.ratios)


def test_cone_comparability_proper_cone():
    grid = discrete.Grid(dim=2, length=8.0, n=16)
    params = kernel.KernelParams(alpha=1.2, dim=2)
    cone = kernel.ConeSpec(axis=(1.0, 0.0), aperture=0.5)
    report = oracles.cone_comparability_check(grid, cone, params, discrete.test_function_suite(grid))
    assert report.passed and not report.violations
    # dropping jumps can only shrink the energy
    assert report.max_ratio >= 1.0


def test_translation_check_smooth_function():
    grid = discrete.Grid(dim=1, length=8.0, n=128)
    params = kernel.KernelParams(alpha=1.0, dim=1)
    form = discrete.assemble_effective_form(
        grid, kernel.ConstantForm(1.0), kernel.full_space_cone(1), params
    )
    f = discrete.evaluate(grid, discrete.bump(grid))
    report = discrete.translation_estimate_check(
        form, f, h_steps=[grid.h, 2 * grid.h, 4 * grid.h, 8 * grid.h], r=2.0
    )
    assert not report.violation
    # smooth bump translates at first order, far above the alpha/2 floor
    assert report.min_exponent >= 1.0 / 2.0 - 0.2
    assert report.max_ratio < math.inf


def test_translation_check_constant_and_bad_step():
    grid = discrete.Grid(dim=1, length=8.0, n=32)
    params = kernel.KernelParams(alpha=1.0, dim=1)
    form = discrete.assemble_effective_form(
        grid, kernel.ConstantForm(1.0), kernel.full_space_cone(1), params
    )
    report = discrete.translation_estimate_check(
        form, np.full(32, 3.0), h_steps=[grid.h], r=2.0
    )
    assert not report.violation
    assert report.max_ratio == 0.0
    with pytest.raises(ConfigurationError):
        discrete.translation_estimate_check(form, np.zeros(32), h_steps=[grid.h * 1.5], r=2.0)
    with pytest.raises(ConfigurationError, match="^translation step -0.25 must be positive$"):
        discrete.translation_estimate_check(form, np.zeros(32), h_steps=[-grid.h, grid.h], r=2.0)
    with pytest.raises(ConfigurationError, match="^translation step 0 is not a nonzero multiple"):
        discrete.check_translation_steps(grid, [0.0])


@pytest.mark.parametrize("r", [-2.0, 0.0])
def test_translation_check_refuses_non_positive_radius(r):
    # the ball mask compares |x|^2 with r^2: -r measured the ball of r, and 0 one node
    grid = discrete.Grid(dim=1, length=8.0, n=32)
    form = discrete.assemble_effective_form(grid, kernel.ConstantForm(1.0), *_UNIT)
    f = discrete.evaluate(grid, discrete.bump(grid))
    with pytest.raises(ConfigurationError, match=f"^translation radius must be positive, got {r}$"):
        discrete.translation_estimate_check(form, f, h_steps=[grid.h], r=r)

