import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from stablehom import env
from stablehom.errors import ConfigurationError


# ---------------------------------------------------------------------------
# the normal CDF and quantile ports against scipy.special


def _ulps(a, b) -> np.ndarray:
    """|a - b| in units in the last place of b; 0 where they are equal."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.zeros(a.shape)
    ne = a != b
    out[ne] = np.abs(a[ne] - b[ne]) / np.spacing(np.abs(b[ne]))
    return out


def test_ndtri_within_four_ulp_of_scipy():
    u = env._uniform01(env._cell_hash(7, env._SALT_GAUSS, [np.arange(10**6)]))
    tails = np.logspace(-300, np.log10(0.2), 20_000)
    for y in (u, tails, 1.0 - tails, 1.0 - 10.0 ** -np.linspace(0.5, 16, 2_000)):
        assert _ulps(env._ndtri(y), special.ndtri(y)).max() <= 4
    # n-d input keeps its shape and takes the same values
    assert np.array_equal(env._ndtri(u.reshape(1000, 1000)).ravel(), env._ndtri(u))


def test_ndtr_within_four_ulp_of_scipy():
    a = np.random.default_rng(3).normal(0.0, 2.0, 10**6)
    grid = np.linspace(-38.0, 38.0, 200_001)
    for x in (a, grid):
        assert _ulps(env._ndtr(x), special.ndtr(x)).max() <= 4
    assert np.array_equal(env._ndtr(a.reshape(1000, 1000)).ravel(), env._ndtr(a))


def test_ndtr_and_ndtri_edge_values():
    y = np.array([0.0, 1.0, np.nan, -0.5, 1.5, -np.inf, np.inf, 0.5])
    out = env._ndtri(y)
    assert out[0] == -np.inf and out[1] == np.inf
    assert np.isnan(out[2:7]).all()
    assert out[7] == 0.0
    a = np.array([np.inf, -np.inf, np.nan, 40.0, -40.0, 0.0])
    assert np.array_equal(env._ndtr(a), [1.0, 0.0, np.nan, 1.0, 0.0, 0.5], equal_nan=True)
    assert env._ndtri(np.array([])).shape == env._ndtr(np.array([])).shape == (0,)


def test_log_ndtr_matches_scipy():
    near = -np.linspace(0.0, 20.0, 20_001)[:-1]  # (-20, 0]
    ours = np.array([env._log_ndtr(float(a)) for a in near])
    assert _ulps(ours, special.log_ndtr(near)).max() <= 4
    deep = np.linspace(-40.0, -20.0, 2_001)
    ours = np.array([env._log_ndtr(float(a)) for a in deep])
    assert np.allclose(ours, special.log_ndtr(deep), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("ps", [0.5, 5.0, 19.0, 25.0, -2.0])
def test_exp_abs_gauss_moment_matches_scipy_formula(ps):
    # E[exp(-p s |G|)] = 2 exp((p s)^2 / 2) Phi(-p s); the exponent near
    # (p s)^2 / 2 turns log_ndtr's last-place differences into ~1e-13.
    s = 1.25
    expected = math.exp(0.5 * ps**2 + math.log(2.0) + special.log_ndtr(-ps))
    assert math.isclose(env.moment(env.exp_abs_gauss(s), ps / s), expected, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# marginal moment catalog against independent quadrature


def test_uniform_moments_match_quadrature():
    spec = env.uniform(0.5, 1.5)
    for p in (1.0, 2.0, 3.5, -1.0):
        exact, _ = integrate.quad(lambda v: v**p, 0.5, 1.5)
        assert np.allclose(env.moment(spec, p), exact, rtol=1e-12)


def test_lognormal_moments_closed_form():
    spec = env.lognormal(0.25, 0.75)
    for p in (1.0, 2.0, -1.0, 0.5):
        assert np.allclose(
            env.moment(spec, p), math.exp(p * 0.25 + p * p * 0.75**2 / 2), rtol=1e-12
        )


def test_exp_abs_gauss_moments_match_quadrature():
    spec = env.exp_abs_gauss(0.8)
    for p in (1.0, 2.0, -1.0):
        exact, _ = integrate.quad(
            lambda g: math.exp(-p * 0.8 * abs(g) - g * g / 2) / math.sqrt(2 * math.pi),
            -np.inf,
            np.inf,
        )
        assert np.allclose(env.moment(spec, p), exact, rtol=1e-9)


def test_pareto_moment_threshold():
    spec = env.shifted_pareto(1.0, 1.5)
    exact, _ = integrate.quad(lambda v: v * 1.5 / v**2.5, 1.0, np.inf)
    assert np.allclose(env.moment(spec, 1.0), exact, rtol=1e-9)
    assert env.moment(spec, 1.5) == math.inf
    assert env.moment(spec, 2.0) == math.inf
    # inverse moment is always finite for a lower-bounded law
    assert np.isfinite(env.moment(spec, -1.0))


def test_uniform_at_zero_has_no_inverse_moment():
    assert env.moment(env.uniform(0.0, 2.0), -1.0) == math.inf


def test_marginal_validation():
    with pytest.raises(ConfigurationError):
        env.uniform(2.0, 1.0)
    with pytest.raises(ConfigurationError):
        env.constant(-1.0)
    with pytest.raises(ConfigurationError):
        env.DistributionSpec("uniform", (0.0, 1.0), declared_p=1.0)
    with pytest.raises(ConfigurationError):
        env.DistributionSpec("nonsense", (1.0,))


@pytest.mark.parametrize(
    "make",
    [
        lambda: env.lognormal(m=math.nan),
        lambda: env.lognormal(s=math.inf),
        lambda: env.constant(math.inf),
        lambda: env.uniform(0.0, math.inf),
        lambda: env.shifted_pareto(1.0, math.nan),
        lambda: env.uniform(0.0, 1.0, declared_p=math.nan),
        lambda: env.moving_average(q=math.nan),
        lambda: env.moving_average(q=math.inf),
        lambda: env.sample_field(1, env.uniform(0.5, 1.5), scale=math.nan),
        lambda: env.sample_field(1, env.uniform(0.5, 1.5), scale=math.inf),
        lambda: env.sample_field(1, env.uniform(0.5, 1.5), cell_size=math.nan),
        lambda: env.sample_field(1, env.uniform(0.5, 1.5), cell_size=math.inf),
        lambda: env.birkhoff_average(
            env.sample_field(1, env.constant(1.0)), math.nan, ([0.0], [1.0])
        ),
    ],
)
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ConfigurationError):
        make()


@pytest.mark.parametrize("mixing", [env.iid_cells(), env.moving_average(1.5)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
def test_non_finite_points_rejected(mixing, bad):
    field = env.sample_field(2, env.uniform(0.5, 1.5), mixing, seed=3)
    with pytest.raises(ConfigurationError, match="finite"):
        env.field_values(field, [[bad, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("mixing", [env.iid_cells(), env.moving_average(1.5)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
def test_non_finite_lattice_coordinates_rejected(mixing, bad):
    # the lattice entry refuses what field_values refuses, with the same message
    field = env.sample_field(2, env.uniform(0.5, 1.5), mixing, seed=3)
    with pytest.raises(ConfigurationError) as scattered:
        env.field_values(field, [[bad, 0.0], [1.0, 1.0]])
    with pytest.raises(ConfigurationError) as lattice:
        env.field_on_lattice(field, [np.array([bad, 1.0]), np.array([0.0, 1.0])])
    assert str(lattice.value) == str(scattered.value)


# ---------------------------------------------------------------------------
# field construction and evaluation


def test_constant_field_everywhere():
    field = env.sample_field(1, env.constant(3.0), seed=7)
    xs = np.array([[-11.3], [0.0], [0.25], [1e4]])
    assert (env.field_values(field, xs) == 3.0).all()
    assert env.field_at(field, [2.5]) == 3.0


def test_evaluation_is_pure_and_order_independent():
    field = env.sample_field(2, env.uniform(0.5, 1.5), seed=42)
    pts = np.random.default_rng(0).uniform(-5, 5, size=(50, 2))
    forward = env.field_values(field, pts)
    backward = env.field_values(field, pts[::-1])[::-1]
    single = np.array([env.field_at(field, p) for p in pts])
    assert (forward == backward).all()
    assert (forward == single).all()


def test_moving_average_grid_matches_per_point_bitwise():
    # field_values hashes each cell of the padded bounding box once; a grid
    # with eps < 1 puts many nodes in one cell
    field = env.sample_field(2, env.uniform(0.5, 1.5), env.moving_average(1.5), seed=4)
    axis = -1.5 + 0.25 * np.arange(12)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1) / 0.5
    pts = pts[np.random.default_rng(0).permutation(len(pts))]
    vals = env.field_values(field, pts)
    single = np.array([env.field_at(field, p) for p in pts])
    assert len(np.unique(vals)) < len(pts)
    assert np.array_equal(vals, single)


def _grid_points(dim: int, n: int, eps: float, origin: float = -2.0) -> np.ndarray:
    axis = origin + 4.0 * (np.arange(n) + 0.5) / n
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1) / eps


@pytest.mark.parametrize(
    "dim, cell_size, seed, points, box",
    [
        (1, 1.0, 0, _grid_points(1, 512, 0.5), True),
        (1, 1.0, 9, _grid_points(1, 512, 0.125), True),
        (1, 0.7, 0, _grid_points(1, 64, 0.25, origin=-90.0), True),
        (2, 1.0, 9, _grid_points(2, 32, 0.5), True),
        (2, 1.0, 0, _grid_points(2, 32, 0.125), True),
        (2, 0.7, 9, _grid_points(2, 16, 0.25, origin=-60.0), True),
        (3, 1.0, 0, _grid_points(3, 6, 0.25), True),
        (1, 1.0, 9, np.array([[-3.3]]), True),
        (2, 0.7, 0, np.array([[-41.2, 5.9]]), True),
        (3, 1.0, 9, np.array([[0.4, -7.5, 2.2]]), True),
        (1, 1.0, 0, np.array([[-5e3], [0.0], [7e3]]), False),
        (2, 1.0, 9, np.random.default_rng(1).uniform(-1e4, 1e4, size=(20, 2)), False),
    ],
)
def test_moving_average_box_matches_window_loop_bitwise(
    monkeypatch, dim, cell_size, seed, points, box
):
    # the per-offset loop over every window cell of every point is the oracle
    field = env.sample_field(
        dim, env.lognormal(0.1, 0.8), env.moving_average(1.5), cell_size=cell_size, seed=seed
    )
    box_calls = []
    box_path = env._values_on_box
    monkeypatch.setattr(
        env, "_values_on_box", lambda *a: box_calls.append(1) or box_path(*a)
    )
    vals = env.field_values(field, points)
    shift = np.array(env._global_shift(seed, dim, cell_size))
    cells = np.floor((points + shift) / cell_size).astype(np.int64)
    assert bool(box_calls) == box
    assert np.array_equal(vals, env._values_at_cells(field, seed, cells))


_LATTICE_CASES = [  # (dim, cell_size, seed, n, eps, origin) of the grid cases above
    (1, 1.0, 0, 512, 0.5, -2.0),
    (1, 1.0, 9, 512, 0.125, -2.0),
    (1, 0.7, 0, 64, 0.25, -90.0),
    (2, 1.0, 9, 32, 0.5, -2.0),
    (2, 1.0, 0, 32, 0.125, -2.0),
    (2, 0.7, 9, 16, 0.25, -60.0),
    (3, 1.0, 0, 6, 0.25, -2.0),
]


@pytest.mark.parametrize("mixing", [env.moving_average(1.5), env.iid_cells()], ids=["ma", "iid"])
@pytest.mark.parametrize("dim, cell_size, seed, n, eps, origin", _LATTICE_CASES)
def test_lattice_matches_per_cell_values_bitwise(dim, cell_size, seed, n, eps, origin, mixing):
    # the per-cell evaluation at every meshgrid cell is the oracle
    field = env.sample_field(
        dim, env.lognormal(0.1, 0.8), mixing, cell_size=cell_size, seed=seed
    )
    axis = (origin + 4.0 * (np.arange(n) + 0.5) / n) / eps
    vals = env.field_on_lattice(field, [axis] * dim)
    shift = env._global_shift(seed, dim, cell_size)
    cells = [np.floor((axis + s) / cell_size).astype(np.int64) for s in shift]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*cells, indexing="ij")], axis=1)
    assert vals.shape == (n,) * dim
    assert np.array_equal(vals.ravel(), env._values_at_cells(field, seed, mesh))


def test_lattice_takes_axes_of_any_length():
    # a non-square lattice, and one too scattered for a box, agree with
    # field_values at the meshgrid points
    field = env.sample_field(2, env.uniform(0.5, 1.5), env.moving_average(1.0), seed=2)
    for axes in ([np.arange(5) * 0.3, np.arange(3) * 0.7 - 4.0],
                 [np.array([-5e3, 7e3]), np.array([0.0, 1e4, -1e4])]):
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = env.field_on_lattice(field, axes)
        assert vals.shape == tuple(len(a) for a in axes)
        assert np.array_equal(vals.ravel(), env.field_values(field, pts))
    with pytest.raises(ConfigurationError, match="lattice has 1 axes"):
        env.field_on_lattice(field, [np.arange(3.0)])


def test_iid_empirical_mean_within_three_se():
    # 10^4 distinct cells of a uniform(0, 2) field in d=2
    field = env.sample_field(2, env.uniform(0.0, 2.0), seed=11)
    side = 100
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    pts = np.stack([ii.ravel() + 0.5, jj.ravel() + 0.5], axis=1)
    vals = env.field_values(field, pts)
    se = math.sqrt(vals.var(ddof=1) / vals.size)
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_piecewise_constant_on_cells():
    field = env.sample_field(1, env.uniform(0.5, 1.5), seed=5, cell_size=1.0)
    # probe pairs of points closer than any cell boundary spacing can separate
    x = 17.3
    v1 = env.field_at(field, [x])
    v2 = env.field_at(field, [x + 1e-9])
    assert v1 == v2


def test_lognormal_inverse_moment_empirical():
    # E[1/V] for lognormal(0,1) is e^(1/2); 10^5 cells, 5% tolerance
    field = env.sample_field(1, env.lognormal(0.0, 1.0), seed=3)
    pts = (np.arange(100_000) + 0.5)[:, None]
    inv = 1.0 / env.field_values(field, pts)
    assert abs(inv.mean() - math.exp(0.5)) / math.exp(0.5) <= 0.05


def test_positivity_all_marginals():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-20, 20, size=(200, 1))
    for spec in (
        env.constant(2.0),
        env.uniform(0.0, 2.0),
        env.lognormal(0.0, 1.0),
        env.exp_abs_gauss(1.0),
        env.shifted_pareto(0.5, 2.5),
    ):
        for mixing in (env.iid_cells(), env.moving_average(1.5)):
            field = env.sample_field(1, spec, mixing=mixing, seed=9)
            assert (env.field_values(field, pts) > 0).all()


def test_scale_multiplies_values():
    base = env.sample_field(1, env.uniform(0.5, 1.5), seed=21)
    scaled = env.sample_field(1, env.uniform(0.5, 1.5), seed=21, scale=3.0)
    pts = np.linspace(-4, 4, 33)[:, None]
    assert np.allclose(env.field_values(scaled, pts), 3.0 * env.field_values(base, pts))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    x=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_purity_property(seed, x):
    field = env.sample_field(1, env.lognormal(0.0, 0.5), seed=seed)
    assert env.field_at(field, [x]) == env.field_at(field, [x])


def test_derive_seed_is_deterministic_and_token_sensitive():
    a = env.derive_seed(123, "sweep", 0, 4)
    assert a == env.derive_seed(123, "sweep", 0, 4)
    assert a != env.derive_seed(123, "sweep", 4, 0)
    assert a != env.derive_seed(124, "sweep", 0, 4)
    assert a != env.derive_seed(123, "mosco", 0, 4)


def test_derive_seed_values_are_pinned():
    # string tokens hash with blake2b; these are the values hashlib.blake2b gives
    assert env.derive_seed(123, "sweep") == 17624102946006979562
    assert env.derive_seed(0, "moment", 1, 2) == 4861899335187494581


# ---------------------------------------------------------------------------
# sample quartiles


def _numpy_quartiles(x):
    return np.percentile(x, 25), np.median(x), np.percentile(x, 75)


def test_quartiles_match_numpy_bitwise():
    rng = np.random.default_rng(0)
    for n in range(1, 61):
        for scale in (1e-5, 1e-2, 1.0, 1e3, 1e5):
            x = scale * rng.lognormal(size=n)
            ties = scale * rng.integers(0, 4, size=n).astype(float)  # repeated values
            for sample in (x, ties, -x):
                got = np.array(env.quartiles(list(sample)))
                want = np.array(_numpy_quartiles(sample))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, scale)


def test_quartiles_of_nan_and_empty_samples():
    for sample in ([math.nan], [1.0, math.nan, 2.0], [3.0, 1.0, 2.0, math.nan]):
        assert all(math.isnan(v) for v in _numpy_quartiles(np.array(sample)))
        assert all(math.isnan(v) for v in env.quartiles(sample))
    assert all(math.isnan(v) for v in env.quartiles([]))


# ---------------------------------------------------------------------------
# Birkhoff averages


def test_birkhoff_constant_field_exact():
    field = env.sample_field(2, env.constant(1.75), seed=0)
    val = env.birkhoff_average(field, 0.25, (np.zeros(2), np.array([2.0, 1.0])))
    assert np.allclose(val, 1.75 * 2.0, rtol=1e-12)


def test_birkhoff_uniform_unit_box():
    # mean of 20 seeded averages within 5% of E = 1 at eps = 1/64
    vals = []
    for i in range(20):
        field = env.sample_field(1, env.uniform(0.0, 2.0), seed=env.derive_seed(7, i))
        vals.append(env.birkhoff_average(field, 1 / 64, ([0.0], [1.0])))
    assert abs(np.mean(vals) - 1.0) <= 0.05


def test_birkhoff_half_box_weight():
    vals = []
    for i in range(20):
        field = env.sample_field(1, env.uniform(0.0, 2.0), seed=env.derive_seed(8, i))
        vals.append(
            env.birkhoff_average(
                field, 1 / 64, ([0.0], [1.0]), weight=lambda p: (p[:, 0] < 0.5).astype(float)
            )
        )
    assert abs(np.mean(vals) - 0.5) <= 0.05 * 0.5


def test_birkhoff_error_shrinks_along_eps():
    eps_ladder = [1.0, 0.25, 1 / 16, 1 / 64]
    medians = []
    for eps in eps_ladder:
        errs = []
        for i in range(12):
            field = env.sample_field(1, env.uniform(0.0, 2.0), seed=env.derive_seed(9, i))
            errs.append(abs(env.birkhoff_average(field, eps, ([0.0], [1.0])) - 1.0))
        medians.append(np.median(errs))
    assert medians[-1] < medians[0]
    assert all(b <= a * 1.05 for a, b in zip(medians, medians[1:]))


def test_birkhoff_empty_region_rejected():
    field = env.sample_field(1, env.constant(1.0), seed=0)
    with pytest.raises(ConfigurationError):
        env.birkhoff_average(field, 0.5, ([1.0], [1.0]))


def test_birkhoff_study_median_tracks_mean():
    field = env.sample_field(1, env.lognormal(-0.125, 0.5), seed=4)
    study = env.birkhoff_study(field, 1 / 64, ([0.0], [1.0]), n_seeds=20)
    assert study.target == study.exact_mean
    assert abs(study.median_average - study.exact_mean) / study.exact_mean <= 0.05
    half = env.birkhoff_study(field, 1 / 64, ([0.0], [0.5]), n_seeds=2)
    assert half.target == 0.5 * half.exact_mean
    assert study.median_abs_rel_error <= 0.05


# ---------------------------------------------------------------------------
# maximal functional


def test_maximal_constant_field():
    field = env.sample_field(2, env.constant(2.5), seed=0)
    val = env.maximal_functional(field, [0.5, 0.25, 0.125], r0=1.5)
    assert np.allclose(val, 2.5 * 1.5**2, rtol=1e-12)


def test_maximal_singleton_equals_birkhoff():
    field = env.sample_field(1, env.uniform(0.5, 1.5), seed=13)
    sup = env.maximal_functional(field, [0.5], r0=1.0)
    avg = env.birkhoff_average(field, 0.5, ([0.0], [1.0]))
    assert np.allclose(sup, avg, rtol=1e-12)


def test_maximal_tail_markov_scaling():
    # frequency at level 8 E[F] r0^d bounded by C/8 with C fitted at level 2 E[F] r0^d
    field = env.sample_field(1, env.lognormal(0.0, 1.0), seed=17)
    report = env.maximal_tail_check(field, n_seeds=200)
    assert report.markov_bound_ok
    assert report.frequencies[0] >= report.frequencies[1]


def test_maximal_far_r0_refused():
    # r0**dim used to overflow into a bare OverflowError before any point check
    field = env.sample_field(2, env.uniform(0.5, 1.5), seed=3)
    message = "points must be finite, with cell indices below 2"
    with pytest.raises(ConfigurationError, match=message):
        env.maximal_functional(field, [0.5], r0=1e200)
    with pytest.raises(ConfigurationError, match=message):
        env.maximal_tail_check(field, [0.5], r0=1e200, n_seeds=2)


# ---------------------------------------------------------------------------
# covariance of the summation coefficient


def test_covariance_constant_field_is_zero():
    field = env.sample_field(1, env.constant(1.0), seed=0)
    entry = env.empirical_covariance(field, [0.25], [0.25], [0.0], trials=200)
    assert entry.estimate == 0.0


def test_covariance_iid_beyond_one_cell():
    field = env.sample_field(1, env.uniform(0.5, 1.5), seed=23)
    entry = env.empirical_covariance(field, [0.25], [0.25], [3.0], trials=10_000)
    assert entry.estimate <= 3.0 * entry.standard_error


def test_study_seed_counts_checked():
    # zero realizations used to give a NaN median with a RuntimeWarning
    field = env.sample_field(1, env.uniform(0.5, 1.5), seed=23)
    with pytest.raises(ConfigurationError, match="n_seeds must be >= 1, got 0"):
        env.birkhoff_study(field, 0.25, ([0.0], [1.0]), n_seeds=0)
    with pytest.raises(ConfigurationError, match="n_seeds must be >= 1, got 0"):
        env.maximal_tail_check(field, n_seeds=0)


def test_covariance_trials_floor():
    field = env.sample_field(1, env.uniform(0.5, 1.5), seed=23)
    with pytest.raises(ConfigurationError):
        env.empirical_covariance(field, [0.25], [0.25], [3.0], trials=50)


@pytest.mark.parametrize("lag", [math.nan, 1e300])
def test_covariance_lag_points_checked(lag):
    # the per-seed evaluation forms its cells through the same check as field_values
    field = env.sample_field(1, env.uniform(0.5, 1.5), seed=23)
    with pytest.raises(ConfigurationError, match="finite, with cell indices below 2"):
        env.empirical_covariance(field, [0.25], [0.25], [lag], trials=100)


@pytest.mark.parametrize("mixing", [env.iid_cells(), env.moving_average(1.5)])
def test_per_seed_values_match_field_values(mixing):
    # one shift rule: row k of a per-seed call is field_values of the field reseeded
    field = env.sample_field(2, env.uniform(0.5, 1.5), mixing, cell_size=0.5, seed=3)
    seeds = np.array([env.derive_seed(3, "row", k) for k in range(6)], dtype=np.uint64)
    points = np.random.default_rng(0).uniform(-20.0, 20.0, size=(6, 2))
    got = env._field_values_seeds(field, seeds, points)
    want = [env.field_values(replace(field, seed=int(s)), p[None, :])[0]
            for s, p in zip(seeds, points)]
    assert np.array_equal(got, want)


def test_moving_average_exponent_matches_analytic():
    field = env.sample_field(
        1, env.uniform(0.5, 1.5), mixing=env.moving_average(1.0), seed=29
    )
    lags = [[2.0], [4.0], [8.0], [16.0]]
    report = env.covariance_report(field, [1.0], [1.0], lags, trials=4000)
    assert report.analytic_exponent is not None
    assert report.fitted_exponent is not None
    assert abs(report.fitted_exponent - report.analytic_exponent) <= 0.5


def test_iid_mixing_has_no_analytic_exponent():
    field = env.sample_field(1, env.uniform(0.5, 1.5), seed=29)
    assert env.analytic_nu_exponent(field, [1.0], [1.0], [[2.0], [4.0]]) is None
