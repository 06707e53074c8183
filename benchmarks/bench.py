"""Per-layer micro-benchmark of the stablehom engine.

For 1D grids with n in {512, 2048, 8192} and 2D grids with n in {32, 64, 128},
and for a degenerate 1D case (n = 2048, factors uniform(0, 2), which come
arbitrarily close to 0), it reports the median wall time of

- field evaluation at the grid nodes, for iid and moving-average mixing;
- assembly of a product form with moving-average factors;
- one generator matvec;
- one resolvent solve (lambda = 1, bump right-hand side, Lebesgue measure,
  tol 1e-9), together with its CG iteration count;
- one energy of the bump.

End to end, it times the acceptance-size sweep: acceptance criterion 3's
config (1D, n = 512, summation form with lognormal(-1/8, 1/2) lambda,
5 eps values x 10 seeds) through `homogenize.run_sweep`, and reports the CG
iterations summed over its cells.

Each run is stored in the output JSON under a label, next to the runs already
there, so two checkouts measured on the same machine sit side by side.  The
output file has no default, so a run never lands in another change's record.
From the repository root:

    python3 benchmarks/bench.py --label before --src /path/to/parent/src --out BENCH_x.json
    python3 benchmarks/bench.py --label after --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOUNDED, DEGENERATE = (0.5, 1.5), (0.0, 2.0)  # uniform factor marginals
CASES = {  # label -> (dim, n, length, eps, factor marginal)
    "1d-n512": (1, 512, 8.0, 0.25, BOUNDED),
    "1d-n2048": (1, 2048, 8.0, 0.25, BOUNDED),
    "1d-n8192": (1, 8192, 8.0, 0.25, BOUNDED),
    "2d-n32": (2, 32, 4.0, 0.5, BOUNDED),
    "2d-n64": (2, 64, 4.0, 0.5, BOUNDED),
    "2d-n128": (2, 128, 4.0, 0.5, BOUNDED),
    "1d-n2048-degenerate": (1, 2048, 8.0, 0.25, DEGENERATE),
}
REPEATS = 5  # samples per layer, unless BUDGET_S runs out first
BUDGET_S = 3.0  # seconds per layer after which repeats stop


def median_time(fn) -> float:
    """Median of up to REPEATS timed calls; stops early once BUDGET_S seconds
    have gone by, after at least one call."""
    times = []
    start = time.perf_counter()
    while len(times) < REPEATS and (not times or time.perf_counter() - start < BUDGET_S):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_case(dim: int, n: int, length: float, eps: float, factor: tuple) -> dict:
    import numpy as np

    from stablehom import discrete, env, kernel, solver

    grid = discrete.Grid(dim=dim, length=length, n=n)
    cone = kernel.full_space_cone(dim)
    params = kernel.KernelParams(alpha=1.0, dim=dim)
    ma = env.moving_average(1.5)
    form = kernel.ProductForm(
        nu1=env.sample_field(dim, env.uniform(*factor), ma, seed=0),
        nu2=env.sample_field(dim, env.uniform(*factor), ma, seed=1),
    )
    iid = env.sample_field(dim, env.uniform(0.5, 1.5), seed=2)
    points = grid.nodes() / eps
    out = {"nodes": grid.size}
    out["field_iid_s"] = median_time(lambda: env.field_values(iid, points))
    out["field_ma_s"] = median_time(lambda: env.field_values(form.nu1, points))
    out["assembly_s"] = median_time(
        lambda: discrete.assemble_form(grid, form, cone, params, eps)
    )
    op = discrete.assemble_form(grid, form, cone, params, eps)
    out["stencil"] = op.stencil_size
    u = np.random.default_rng(0).normal(size=grid.size)
    out["matvec_s"] = median_time(lambda: op.apply_generator(u))
    f = discrete.evaluate(grid, discrete.bump(grid))
    problem = solver.ResolventProblem(
        form=op, measure=discrete.measure_weights(grid, None), lam=1.0, rhs=f
    )
    solutions = []
    out["solve_s"] = median_time(
        lambda: solutions.append(solver.solve_resolvent(problem, tol=1e-9))
    )
    out["solve_iterations"] = solutions[-1].iterations
    out["energy_s"] = median_time(lambda: op.energy(f, f))
    return out


def run_acceptance_sweep() -> dict:
    from stablehom import discrete, env, kernel
    from stablehom import homogenize as H

    config = H.SweepConfig(
        grid=discrete.Grid(dim=1, length=8.0, n=512),
        form=kernel.SummationForm(
            lambda_field=env.sample_field(1, env.lognormal(-0.125, 0.5), seed=0)
        ),
        cone=kernel.full_space_cone(1),
        params=kernel.KernelParams(alpha=1.0, dim=1),
        eps_list=(1.0, 0.5, 0.25, 0.125, 0.0625),
        seeds=10,
    )
    reports = []
    out = {"sweep_s": median_time(lambda: reports.append(H.run_sweep(config)))}
    cells = reports[-1].cells
    out["cells"] = len(cells)
    out["failures"] = len(reports[-1].failures)
    out["cell_iterations"] = sum(c.iterations for c in cells)
    return out


def source_commit(src: str) -> str:
    try:
        head = subprocess.run(
            ["git", "-C", src, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", src, "status", "--porcelain", "--", "."],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree that holds the stablehom package")
    parser.add_argument("--out", required=True, help="BENCH_<label>.json file to add the run to")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    run = {
        "source": source_commit(args.src),
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(terse=True),
        },
        "cases": {},
    }
    for name, case in CASES.items():
        run["cases"][name] = run_case(*case)
        print(name, json.dumps(run["cases"][name]), flush=True)
    name = "1d-n512-acceptance-sweep"
    run["cases"][name] = run_acceptance_sweep()
    print(name, json.dumps(run["cases"][name]), flush=True)
    doc = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["description"] = (
        "Median wall time per layer (seconds) of benchmarks/bench.py: product form "
        "with moving-average uniform(0.5, 1.5) factors (uniform(0, 2) for the "
        "degenerate case), alpha = 1, full-space cone; 1D L = 8, eps = 1/4; 2D L = 4, "
        "eps = 1/2.  1d-n512-acceptance-sweep: acceptance criterion 3's sweep end to "
        "end (5 eps x 10 seeds) and the CG iterations summed over its cells."
    )
    doc["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
