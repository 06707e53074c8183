"""The two eps-study workloads: inputs from a seed, one timed study, checks.

Every workload is a pure function of the benchmark seed, which becomes the
study's `master_seed`; the program receives only the generated inputs.  A
study returns its operations as a dict `op -> {metric: value}` (None for an
operation the program itself reported as failed), which is what the output
checks compare.  Sweep operations are (eps, seed) cells carrying their five
metrics plus the medians of their eps; form-check operations are (eps, seed)
form evaluations carrying the median of their eps.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from stablehom import cli, discrete, env, kernel, solver
from stablehom import homogenize as H

SOLVER_TOL = 1e-9
# Relative bound and absolute floor (times the workload's scale) for every
# compared value: ten times the solver tolerance.  Jacobi CG and the dense
# Cholesky oracle agree to about 1e-12, so a solve that converges to the
# tolerance passes with a wide margin, while one stopped at a residual of
# 1e-5 does not.  The floor is needed because pairing_err and norm_err are
# differences of nearly equal numbers, so their relative error is unbounded.
RTOL = 10 * SOLVER_TOL
ATOL = 10 * SOLVER_TOL


@dataclass
class Workload:
    name: str
    grid: discrete.Grid
    form: kernel.CoefficientForm
    cone: kernel.ConeSpec
    params: kernel.KernelParams
    eps_list: tuple[float, ...]
    seeds: int
    master_seed: int
    mu_field: env.RandomField | None
    run_dir: str
    study_input: object = None

    @property
    def is_sweep(self) -> bool:
        return self.name.startswith("sweep-")

    @property
    def operations(self) -> int:
        return len(self.eps_list) * self.seeds

    def op_ids(self) -> list[str]:
        return [f"e{ei}s{si}" for ei in range(len(self.eps_list)) for si in range(self.seeds)]


def _ma_product_form() -> kernel.ProductForm:
    ma = env.moving_average(1.5)
    return kernel.ProductForm(
        nu1=env.sample_field(2, env.uniform(0.5, 1.5), ma, seed=0),
        nu2=env.sample_field(2, env.uniform(0.5, 1.5), ma, seed=1),
    )


def _ma_field(seed: int) -> dict:
    return {"marginal": {"kind": "uniform", "a": 0.5, "b": 1.5},
            "mixing": {"kind": "moving_average", "q": 1.5}, "seed": seed}


def _cli_config(seed: int) -> dict:
    """`stablehom run` config of the inputs `build` makes for sweep-2d-measure."""
    return {
        "schema_version": 1,
        "experiment": "sweep",
        "master_seed": seed,
        "grid": {"dim": 2, "length": 4.0, "n": 64},
        "alpha": 1.0,
        "form": {"kind": "product", "nu1": _ma_field(0), "nu2": _ma_field(1)},
        "mu": {"marginal": {"kind": "lognormal", "m": -0.5, "s": 1.0}},
        "eps_list": [0.5, 0.25],
        "seeds": 1,
        "tol": SOLVER_TOL,
    }


def build(name: str, seed: int, out_root: str) -> Workload:
    """Generate the workload's inputs from the seed and warm first-call caches."""
    run_dir = os.path.join(out_root, name)
    os.makedirs(run_dir, exist_ok=True)
    if name == "sweep-2d-measure":
        # The same objects cli builds from the config; the oracle check uses them.
        w = Workload(
            name, discrete.Grid(2, 4.0, 64), _ma_product_form(),
            kernel.full_space_cone(2), kernel.KernelParams(1.0, 2),
            (0.5, 0.25), 1, seed,
            env.sample_field(2, env.lognormal(-0.5, 1.0)), run_dir,
        )
        path = os.path.join(run_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(_cli_config(seed), fh)
        w.study_input = path
    elif name == "forms-2d-large":
        w = Workload(
            name, discrete.Grid(2, 4.0, 128), _ma_product_form(),
            kernel.full_space_cone(2), kernel.KernelParams(1.0, 2),
            (0.5, 0.25, 0.125), 1, seed, None, run_dir,
        )
        w.study_input = discrete.test_function_suite(w.grid)
    else:
        raise ValueError(f"unknown workload {name!r}")
    _warm_caches(w)
    return w


def _warm_caches(w: Workload) -> None:
    # First-call caches belong to set-up, not to the first timed study.  They
    # are private, so a program that drops one simply has nothing to warm.
    geometry = getattr(discrete, "_stencil_geometry", None)
    if geometry is not None:
        geometry(w.grid.dim, w.grid.n, w.params.alpha, w.cone)
    window = getattr(env, "_ma_window", None)
    if window is not None:
        for field in (getattr(w.form, "nu1", None), getattr(w.form, "nu2", None)):
            if field is not None and field.mixing.kind == "moving_average":
                window(field.dim, field.mixing.q)


def slab_bytes(w: Workload) -> int:
    """Bytes of one weight slab per stencil entry, computed from array sizes:
    entries 1 <= |s| <= n/4 of the full-space stencil, times nodes, times 8."""
    reach = w.grid.n // 4
    axis = np.arange(-reach, reach + 1)
    r2 = sum(np.meshgrid(*([axis**2] * w.grid.dim), indexing="ij"))
    entries = int(((r2 >= 1) & (r2 <= reach * reach)).sum())
    return entries * w.grid.size * 8


# ---------------------------------------------------------------------------
# one study


class StudyFailed(Exception):
    """`stablehom run` exited with code 2: a config or I/O error."""


def run_study(w: Workload) -> dict[str, dict[str, float] | None]:
    """Run one complete eps study on the generated inputs; return its ops."""
    if w.is_sweep:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", w.study_input, "--out", w.run_dir])
        # Exit code 1 is the program's scientific verdict, not a failure.
        if code not in (0, 1):
            raise StudyFailed(f"stablehom run exited with {code}")
        with open(os.path.join(w.run_dir, "report.json")) as fh:
            sweep = json.load(fh)["results"]["sweep"]
        cells = {(c["eps"], c["seed"]): c for c in sweep["cells"]}
        medians = {m: sweep["metrics"][m]["median"] for m in H.METRICS}
        return _sweep_ops(w, cells, medians)
    report = H.mosco_form_check(
        w.grid, w.form, w.cone, w.params, w.eps_list, w.seeds, w.study_input,
        master_seed=w.master_seed,
    )
    return {
        f"e{ei}s{si}": {"median": float(report.medians[ei])}
        for ei in range(len(w.eps_list)) for si in range(w.seeds)
    }


def _sweep_ops(w: Workload, cells: dict, medians: dict) -> dict:
    ops = {}
    for ei, eps in enumerate(w.eps_list):
        for si in range(w.seeds):
            cell = cells.get((eps, si))
            if cell is None:  # listed in report.failures
                ops[f"e{ei}s{si}"] = None
                continue
            values = {m: float(cell[m]) for m in H.METRICS}
            values.update({f"median.{m}": float(medians[m][ei]) for m in H.METRICS})
            ops[f"e{ei}s{si}"] = values
    return ops


# ---------------------------------------------------------------------------
# output checks


def bound_use(value: float, ref: float, scale: float) -> float:
    """|value - ref| as a share of the allowed deviation (<= 1 passes)."""
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / (RTOL * abs(ref) + ATOL * scale)


def failed_ops(ops: dict, ref: dict, scale: float) -> set[str]:
    """Ops that are missing, failed, or differ from `ref` beyond the bound."""
    bad = set()
    for op, ref_values in ref.items():
        values = ops.get(op)
        if values is None or ref_values is None:
            bad.add(op)
            continue
        for key, r in ref_values.items():
            if key not in values or bound_use(values[key], r, scale) > 1.0:
                bad.add(op)
                break
    return bad


def limit_solution(w: Workload) -> np.ndarray:
    """Dense Cholesky solve of the averaged-kernel limit problem:
    (limit form, Lebesgue weights, right-hand side, u_K)."""
    form_k = discrete.assemble_effective_form(
        w.grid, kernel.effective_kernel(w.form), w.cone, w.params
    )
    rhs = discrete.evaluate(w.grid, discrete.bump(w.grid))
    lebesgue = discrete.measure_weights(w.grid, None)
    u_k = solver.dense_oracle_solve(solver.ResolventProblem(form_k, lebesgue, 1.0, rhs))
    return form_k, lebesgue, rhs, u_k


def scale(w: Workload) -> float:
    """Absolute scale of the compared values: ||u_K|| in L2(dx) for a sweep,
    the largest limit energy E_K(f, f) over the test functions otherwise."""
    if w.is_sweep:
        u_k = limit_solution(w)[3]
        return math.sqrt(w.grid.h**w.grid.dim * float(np.dot(u_k, u_k)))
    form_k = discrete.assemble_effective_form(
        w.grid, kernel.effective_kernel(w.form), w.cone, w.params
    )
    return max(form_k.energy(f, f) for f in w.study_input)


def oracle_cells(w: Workload, op_ids: list[str], limit) -> dict[str, dict[str, float]]:
    """Recompute sweep cells with the dense Cholesky oracle instead of CG.

    Mirrors the cell definition of homogenize: the cell seed comes from
    (master_seed, "sweep", eps index, seed index), the measure seed from the
    cell seed, and the five metrics compare u_eps with the limit solution.
    """
    form_k, lebesgue, rhs, u_k = limit
    grid = w.grid
    hd = grid.h**grid.dim
    ball = grid.ball_mask(grid.length / 8.0)
    out = {}
    for op in op_ids:
        ei, si = (int(x) for x in op[1:].split("s"))
        eps = w.eps_list[ei]
        cell_seed = env.derive_seed(w.master_seed, "sweep", ei, si)
        form_eps = discrete.assemble_form(grid, H.reseed_form(w.form, cell_seed), w.cone, w.params, eps)
        if w.mu_field is None:
            mw = lebesgue
        else:
            mu = replace(w.mu_field, seed=env.derive_seed(cell_seed, "mu"))
            mw = discrete.measure_weights(grid, mu, eps)
        u = solver.dense_oracle_solve(solver.ResolventProblem(form_eps, mw, 1.0, rhs))
        diff = u - u_k
        out[op] = {
            "err_l2_mu": math.sqrt(float(np.dot(mw.m, diff * diff))),
            "err_l1_ball": hd * float(np.abs(diff[ball]).sum()),
            "pairing_err": abs(float(np.dot(mw.m, u * rhs)) - float(np.dot(lebesgue.m, u_k * rhs))),
            "form_err": abs(form_eps.energy(u, rhs) - form_k.energy(u_k, rhs)),
            "norm_err": abs(
                math.sqrt(float(np.dot(mw.m, u * u)))
                - math.sqrt(float(np.dot(lebesgue.m, u_k * u_k)))
            ),
        }
    return out

