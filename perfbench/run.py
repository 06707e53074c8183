"""stablehom benchmark: eps studies run as a closed loop, one at a time.

    python3 perfbench/run.py --workload sweep-2d-measure --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from `src/` of that
checkout and nowhere else.  The seed becomes the study's `master_seed`.  The
run sets up the workload, then runs complete studies back to back until the
next one would end past `--seconds` (at least one), then checks every output.
Human-readable lines go first; the last line of standard output is the JSON
result.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer ones: it alternates untraced and traced studies and
reports the difference of their medians as the tracing overhead.  Spans and
the full result are written under `.bench_out/` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-2d-measure", "forms-2d-large")
SETUP_PROBES = 3  # fresh processes whose set-up time gives setup_s
MAX_TRACED = 10  # traced studies kept in memory per run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_program():
    """Import stablehom from this checkout's src/ and the workload module."""
    for var in BLAS_VARS:
        os.environ[var] = str(_nproc())
    os.environ.pop("STABLEHOM_THREADS", None)  # sweep cells run one at a time
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import stablehom
    except ImportError as exc:
        sys.exit(f"cannot import stablehom from {ROOT / 'src'}: {exc}")
    if not Path(stablehom.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"stablehom imported from {stablehom.__file__}, not from this checkout")
    import workloads

    return workloads


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process until its study could start."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed),
         "--seconds", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _tail(values: list[float]) -> str:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.4f}"
    return "none (fewer than 40 samples)"


def _provenance(wl, w) -> dict:
    import numpy
    import scipy

    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": _nproc(),
        "l3_cache": l3,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "slab_mib_computed_from_array_sizes": round(wl.slab_bytes(w) / 2**20, 1),
    }


def check_outputs(wl, w, studies: list, reference: dict) -> tuple[list[set], list[str]]:
    """Failed ops per study and a list of findings, outside the timed region."""
    failed = [set(w.op_ids()) if ops is None else {k for k, v in ops.items() if v is None}
              for ops in studies]
    findings = []
    good = [i for i, ops in enumerate(studies) if ops is not None]
    scale = reference[w.name]["scale"]
    ref = reference[w.name].get("seeds", {}).get(str(w.master_seed))
    ref_agree = 0
    for i in good:
        if ref is not None:
            bad = wl.failed_ops(studies[i], ref, scale)
            failed[i] |= bad
            ref_agree += not bad
        if i != good[0]:
            bad = wl.failed_ops(studies[i], studies[good[0]], scale)
            failed[i] |= bad
            if bad:
                findings.append(f"study {i}: {len(bad)} ops differ from study {good[0]}")
    if ref is None:
        findings.append(f"no reference values for seed {w.master_seed}")
    else:
        findings.append(f"reference values for seed {w.master_seed}: "
                        f"{ref_agree}/{len(good)} completed studies agree")
    if good and w.is_sweep:
        first = studies[good[0]]
        ops = [o for o in _oracle_sample(w) if first.get(o) is not None]
        oracle = wl.oracle_cells(w, ops, wl.limit_solution(w))
        use = {o: max(wl.bound_use(first[o][m], v, scale) for m, v in oracle[o].items())
               for o in ops}
        bad = {o for o in ops if use[o] > 1.0}
        failed[good[0]] |= bad
        findings.append(
            f"dense oracle: {len(ops) - len(bad)}/{len(ops)} sampled cells agree, "
            f"largest deviation {max(use.values(), default=0.0):.2e} of the bound")
    return failed, findings


def _oracle_sample(w) -> list[str]:
    """Two cells, at the largest and the smallest eps, picked by the seed."""
    last = len(w.eps_list) - 1
    return [f"e0s{w.master_seed % w.seeds}", f"e{last}s{(w.master_seed + 1) % w.seeds}"]


def _run_loop(wl, w, seconds: float, tracer) -> tuple[list, list[float], list[float]]:
    """Closed loop of studies; with a tracer, odd studies are traced.

    The first study warms up the process and is checked but not timed: it
    page-faults in the heap that later studies reuse, which takes up to a
    tenth of a 2D study.
    """
    studies, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(studies) % 2 == 1
        if trace_this:
            tracer.install()
        t0 = time.perf_counter()
        try:
            ops = tracer.trace_study(wl.run_study, w) if trace_this else wl.run_study(w)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ops = None
        finally:
            if trace_this:
                tracer.restore()
        if studies:
            (traced if trace_this else plain).append(time.perf_counter() - t0)
        studies.append(ops)
        if not plain + traced:
            continue
        elapsed = time.perf_counter() - start
        out_of_time = elapsed + statistics.median(plain + traced) > seconds
        if tracer is None:
            if out_of_time:
                return studies, plain, traced
        elif traced and plain and (out_of_time or len(traced) >= MAX_TRACED):
            return studies, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = import_program()
    if args.probe:
        wl.build(args.workload, args.seed, str(OUT))
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    w = wl.build(args.workload, args.seed, str(OUT))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    studies, plain, traced = _run_loop(wl, w, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    failed_sets, findings = check_outputs(wl, w, studies, reference)
    attempted = w.operations * len(studies)
    failed = sum(len(s) for s in failed_sets)

    if args.trace:
        per_study = [tracing.summarize(spans) for spans in tracer.studies]
        values = {
            key: statistics.median(s.get(key, 0.0) for s in per_study)
            for key in {k for s in per_study for k in s}
        }
        values["homogenize.cells"] = float(w.operations)
        values["homogenize.cells_failed"] = float(statistics.median(
            w.operations if ops is None else sum(v is None for v in ops.values())
            for ops in studies[1::2]  # the traced studies
        ))
        values["trace.sweep_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        specs = bench["per_layer"]
        kernel_share = values.get("kernel.effective_kernel.self_s", 0.0) / values["root_s"]
        findings.append(f"kernel layer share of a traced study: {kernel_share:.2e}")
        findings.append(
            f"self times sum to {values['self_sum_s']:.9f} s against a root span of "
            f"{values['root_s']:.9f} s")
        spans_path = OUT / f"spans-{w.name}-seed{w.master_seed}.json"
        spans_path.write_text(json.dumps(tracer.studies))
    else:
        values = {
            "sweep_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        specs = bench["end_to_end"]
        findings.append(f"sweep_s over {len(plain)} studies, tail {_tail(plain)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in specs}

    provenance = _provenance(wl, w)
    for name, m in metrics.items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{w.name} failed_frac = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for line in findings:
        print(f"{w.name} check: {line}")
    print(f"{w.name} provenance: {json.dumps(provenance)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{w.name}-seed{w.master_seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": provenance, "findings": findings,
                    "study_s": {"untraced": plain, "traced": traced}, "setup_s": setup},
                   indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
