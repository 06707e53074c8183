"""Per-layer micro-benchmark of the stablehom engine.

For 1D grids with n in {512, 2048, 8192} and 2D grids with n in {32, 64, 128},
and for a degenerate 1D case (n = 2048, factors uniform(0, 2), which come
arbitrarily close to 0), it reports the median wall time per call of

- the stencil geometry: the first `discrete._stencil_geometry` call, with
  the caches of it, `_subcell_axis_mass` and `_gl_nodes` cleared;
- field evaluation at the grid nodes, for iid and moving-average mixing,
  timed through `discrete.measure_weights(grid, field, eps)`, the call the
  library itself makes for a lone grid field (the same API at older commits,
  so a run on one of them times that commit's own grid path), and the
  stacked call `discrete.node_fields(grid, form, eps)` that evaluates a
  form's factors together, as sweeps and form checks do (no row on a tree
  without `node_fields`);
- assembly of a product form with moving-average factors;
- one generator matvec;
- one resolvent solve (lambda = 1, bump right-hand side, Lebesgue measure,
  tol 1e-9), together with its CG iteration count;
- one energy E(f, f) of the bump f, and one E(u, f) with the random u of
  the matvec;
- in 2D, one form-convergence check (`homogenize.mosco_form_check` at eps
  4e, 2e and e for the case's eps e, one seed, the three functions of
  `discrete.test_function_suite`).

Each layer gets up to WARMUP untimed calls first, since a fresh process runs
its first calls slowly, and a sample times a batch of calls that lasts at
least BATCH_S, so that layers of tens of microseconds are not timed one call
at a time.

End to end, it times the acceptance-size sweep: acceptance criterion 3's
config (1D, n = 512, summation form with lognormal(-1/8, 1/2) lambda,
5 eps values x 10 seeds) through `homogenize.run_sweep`, and reports the CG
iterations summed over its cells.

For the solve layer (`1d-preconditioner-rows`), it solves ROADMAP item 1's
eight rows, four coefficient families at alpha 1 and 1.8, at n = 512, 2048
and 8192, and reports each solve's CG iterations, true residual, whether it
met tol, and its wall time.

Cold start (`cold-cli-2d-sweep`), it spawns fresh `python -m stablehom.cli
run` processes on a 2D sweep config (the benchmark's sweep-2d-measure study:
n = 64, moving-average product form, lognormal(-1/2, 1) measure, eps 1/2 and
1/4, one seed) and reports their median wall time and minor page faults, the
children's peak RSS (`getrusage(RUSAGE_CHILDREN)`, the largest child), and
the optional modules in `sys.modules` at the exit of one more, untimed run:
`scipy` and its public subpackages (`scipy.special`, `scipy.integrate`, ...),
OpenSSL's `_hashlib`, `numpy.ma` and `numpy.polynomial`.

Every case runs in a child process of its own.  Given two source trees,
`--before` and `--after`, the script times them in ROUNDS rounds: in each
round every case runs once per tree, the tree that goes first alternating
from case to case and from round to round, so a drift of the host's speed
falls on both alike.  The output JSON keeps each tree under its label,
`before` or `after` (replacing a run of that label, keeping the others),
with the median of every timing over the rounds, each round's values, and
the machine (cores, Python, numpy, platform and the BLAS thread variables).
The output file has no default, so a run never lands in another change's
record.  From the repository root:

    python3 benchmarks/bench.py --before /path/to/parent/src --after src --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
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
COLD_RUNS = 9  # fresh processes of the cold-start case
ROUNDS = 5  # child processes per case and tree
WARMUP = 3  # untimed calls per layer, unless they take BUDGET_S
REPEATS = 11  # samples per layer, unless BUDGET_S runs out first
BATCH_S = 2e-3  # a sample times as many calls as this takes, at least one
BUDGET_S = 3.0  # seconds per layer after which warm-up and repeats stop


def median_time(fn) -> float:
    """Median seconds per call of up to REPEATS samples, after up to WARMUP
    untimed calls: a fresh process runs its first calls of a layer slowly.
    A sample times a batch of as many calls as the fastest warm-up call fits
    into BATCH_S, so a layer of tens of microseconds is not timed call by
    call.  Warm-up and samples stop once BUDGET_S seconds have gone by,
    after one call and one sample."""
    start = time.perf_counter()
    fastest = math.inf
    for _ in range(WARMUP):
        t0 = time.perf_counter()
        fn()
        fastest = min(fastest, time.perf_counter() - t0)
        if time.perf_counter() - start >= BUDGET_S:
            break
    batch = max(1, int(BATCH_S / fastest))
    times = []
    start = time.perf_counter()
    while len(times) < REPEATS and (not times or time.perf_counter() - start < BUDGET_S):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
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
    out = {"nodes": grid.size}

    def geometry():
        for cached in (discrete._stencil_geometry, discrete._subcell_axis_mass,
                       discrete._gl_nodes):
            cached.cache_clear()
        discrete._stencil_geometry(dim, n, params.alpha, cone)

    out["geometry_s"] = median_time(geometry)
    out["field_iid_s"] = median_time(lambda: discrete.measure_weights(grid, iid, eps))
    out["field_ma_s"] = median_time(lambda: discrete.measure_weights(grid, form.nu1, eps))
    if hasattr(discrete, "node_fields"):
        out["node_fields_s"] = median_time(lambda: discrete.node_fields(grid, form, eps))
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
    out["energy_fg_s"] = median_time(lambda: op.energy(u, f))
    if dim == 2:
        from stablehom import homogenize as H

        fns = discrete.test_function_suite(grid)
        out["mosco_s"] = median_time(lambda: H.mosco_form_check(
            grid, form, cone, params, (4 * eps, 2 * eps, eps), 1, fns))
    return out


# ROADMAP item 1's rows: 1D, L = 8, iid factors, lambda = 1, bump right-hand
# side, Lebesgue measure, tol 1e-9.  label -> (form, marginal, eps, alpha)
ROWS = {
    f"{name}-a{alpha}": (form, marginal, eps, alpha)
    for name, form, marginal, eps in (
        ("product-U(0.5,1.5)", "product", ("uniform", 0.5, 1.5), 0.25),
        ("product-U(0,2)", "product", ("uniform", 0.0, 2.0), 0.25),
        ("summation-lognormal(-1/8,1/2)", "summation", ("lognormal", -0.125, 0.5), 0.0625),
        ("summation-lognormal(-9/8,3/2)", "summation", ("lognormal", -1.125, 1.5), 0.0625),
    )
    for alpha in (1.0, 1.8)
}
ROW_SIZES = (512, 2048, 8192)


def run_rows() -> dict:
    """Per row and n, one resolvent solve: its CG iterations, its true
    residual, whether that met tol, and its median wall time."""
    from stablehom import discrete, env, kernel, solver
    from stablehom.errors import ConvergenceFailure

    out = {}
    for label, (kind, (dist, a, b), eps, alpha) in ROWS.items():
        marginal = getattr(env, dist)(a, b)
        if kind == "product":
            form = kernel.ProductForm(nu1=env.sample_field(1, marginal, seed=1),
                                      nu2=env.sample_field(1, marginal, seed=2))
        else:
            form = kernel.SummationForm(lambda_field=env.sample_field(1, marginal, seed=0))
        for n in ROW_SIZES:
            grid = discrete.Grid(dim=1, length=8.0, n=n)
            problem = solver.ResolventProblem(
                form=discrete.assemble_form(grid, form, kernel.full_space_cone(1),
                                            kernel.KernelParams(alpha=alpha, dim=1), eps),
                measure=discrete.measure_weights(grid, None), lam=1.0,
                rhs=discrete.evaluate(grid, discrete.bump(grid)),
            )
            results = []

            def solve():
                try:
                    sol = solver.solve_resolvent(problem, tol=1e-9)
                    results.append((sol.iterations, sol.residual, True))
                except ConvergenceFailure as exc:
                    results.append((exc.iterations, exc.residual, False))

            key = f"{label}-n{n}"
            out[f"{key}-solve_s"] = median_time(solve)
            out[f"{key}-iterations"], out[f"{key}-residual"], out[f"{key}-converged"] = results[-1]
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


def _ma_factor(seed: int) -> dict:
    return {"marginal": {"kind": "uniform", "a": 0.5, "b": 1.5},
            "mixing": {"kind": "moving_average", "q": 1.5}, "seed": seed}


COLD_CONFIG = {
    "schema_version": 1, "experiment": "sweep", "grid": {"dim": 2, "length": 4.0, "n": 64},
    "alpha": 1.0, "form": {"kind": "product", "nu1": _ma_factor(0), "nu2": _ma_factor(1)},
    "mu": {"marginal": {"kind": "lognormal", "m": -0.5, "s": 1.0}},
    "eps_list": [0.5, 0.25], "seeds": 1, "tol": 1e-9,
}


# `python -m stablehom.cli` that lists the optional modules it loaded on exit:
# `scipy`, the public scipy subpackages, `_hashlib`, `numpy.ma` and
# `numpy.polynomial`
_LIST_MODULES = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m in\n"
    "    ('scipy', '_hashlib', 'numpy.ma', 'numpy.polynomial') or\n"
    "    m.count('.') == 1 and m.startswith('scipy.') and not m.startswith('scipy._'))))\n"
    "runpy.run_module('stablehom.cli', run_name='__main__', alter_sys=True)\n"
)


def run_cold_cli(src: str) -> dict:
    """Fresh `stablehom run` processes: wall time, peak RSS, optional modules."""
    child_env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(COLD_CONFIG, fh)
        cmd = [sys.executable, "-m", "stablehom.cli", "run", config, "--out", tmp]
        times, faults = [], []
        for _ in range(COLD_RUNS):
            f0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            t0 = time.perf_counter()
            subprocess.run(cmd, env=child_env, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - f0)
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        listed = subprocess.run([sys.executable, "-c", _LIST_MODULES, *cmd[3:]], env=child_env,
                                check=True, capture_output=True, text=True).stdout
    loaded = listed.splitlines()[-1].split()
    return {"runs": COLD_RUNS, "wall_s": statistics.median(times),
            "wall_s_min": min(times), "wall_s_max": max(times),
            "minor_faults": statistics.median(faults), "peak_rss_mb": peak_mb,
            "modules": loaded}


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


COLD_CASE, ACCEPTANCE_CASE = "cold-cli-2d-sweep", "1d-n512-acceptance-sweep"
ROWS_CASE = "1d-preconditioner-rows"
CASE_NAMES = (COLD_CASE, *CASES, ACCEPTANCE_CASE, ROWS_CASE)


def run_named(name: str, src: str) -> dict:
    """One case by name: a key of CASES, the acceptance sweep, item 1's rows
    or the cold start."""
    if name == COLD_CASE:
        return run_cold_cli(src)
    if name == ACCEPTANCE_CASE:
        return run_acceptance_sweep()
    if name == ROWS_CASE:
        return run_rows()
    return run_case(*CASES[name])


DESCRIPTION = (
    "Median wall time per call (seconds) of each layer of benchmarks/bench.py, "
    "after up to 3 untimed calls, a sample timing a batch of calls that lasts "
    "at least 2 ms: product form "
    "with moving-average uniform(0.5, 1.5) factors (uniform(0, 2) for the "
    "degenerate case), alpha = 1, full-space cone; 1D L = 8, eps = 1/4; 2D L = 4, "
    "eps = 1/2; field_iid_s and field_ma_s time discrete.measure_weights on the "
    "grid with an iid uniform(0.5, 1.5) field and the first factor, node_fields_s "
    "discrete.node_fields on the form's two factors; geometry_s "
    "times the first discrete._stencil_geometry call with its caches cleared; "
    "energy_s is E(f, f) of the bump f, energy_fg_s E(u, f) with the matvec's "
    "random u; mosco_s (2D) is one homogenize.mosco_form_check at eps 2, 1 and "
    "1/2, one seed and the three functions of test_function_suite.  "
    "1d-n512-acceptance-sweep: acceptance criterion 3's sweep end to "
    "end (5 eps x 10 seeds) and the CG iterations summed over its cells.  "
    "1d-preconditioner-rows: ROADMAP item 1's eight rows (1D, L = 8, iid "
    "product forms with uniform(0.5, 1.5) and uniform(0, 2) factors at eps "
    "1/4, seeds 1 and 2, summation forms with lognormal(-1/8, 1/2) and "
    "lognormal(-9/8, 3/2) coefficients at eps 1/16, seed 0; alpha 1 and 1.8; "
    "lambda = 1, bump data, Lebesgue measure, tol 1e-9) at n = 512, 2048 "
    "and 8192: per solve <row>-n<n>-solve_s, -iterations, the true "
    "-residual, and -converged, false where it stayed above tol.  "
    "cold-cli-2d-sweep: fresh `python -m stablehom.cli run` processes on a 2D "
    "sweep (n = 64, 2 eps x 1 seed): median, min and max wall time (s), median "
    "minor page faults per process, the largest child's peak RSS (MB), and "
    "the optional modules it imports: `scipy`, the public scipy subpackages, "
    "`_hashlib`, `numpy.ma` and `numpy.polynomial`.  Every case ran in a child "
    "process of its own, before and after alternating which went first from case "
    "to case and round to round; "
    "`cases` holds the median over the rounds of every float, and the first "
    "round's value of everything else, `rounds` each round's values."
)


def run_child(name: str, src: str) -> dict:
    """Run one case in a fresh process on the tree `src`; its result dict."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--case", name, "--tree", src],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summarize(rounds: list[dict]) -> dict:
    """Per case, the median over the rounds of every float, and the first
    round's value of everything else (counts, module lists)."""
    out = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        out[name] = {
            key: statistics.median(v[key] for v in values)
            if all(isinstance(v[key], float) for v in values) else values[0][key]
            for key in values[0]
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", help="source tree of the stablehom package before the change")
    parser.add_argument("--after", help="source tree of the stablehom package after it")
    parser.add_argument("--out", help="BENCH_<name>.json file to add the runs to")
    parser.add_argument("--case", choices=CASE_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--tree", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case:  # a child: one case on one tree, its result on the last line
        sys.path.insert(0, os.path.abspath(args.tree))
        print(json.dumps(run_named(args.case, args.tree)))
        return 0
    if not (args.before and args.after and args.out):
        parser.error("give --before, --after and --out")
    import numpy as np

    machine = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(terse=True),
        # dot products above 10,000 entries, and so timings, depend on these
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    trees = {"before": args.before, "after": args.after}
    labels = list(trees)
    rounds = {label: [] for label in labels}
    for r in range(ROUNDS):
        for label in labels:
            rounds[label].append({})
        for c, name in enumerate(CASE_NAMES):
            for label in labels if (r + c) % 2 == 0 else labels[::-1]:
                result = run_child(name, trees[label])
                rounds[label][r][name] = result
                print(f"round {r} {label} {name}", json.dumps(result), flush=True)
    doc = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["description"] = DESCRIPTION
    for label in labels:
        doc["runs"][label] = {
            "source": source_commit(trees[label]), "machine": machine,
            "cases": summarize(rounds[label]), "rounds": rounds[label],
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
