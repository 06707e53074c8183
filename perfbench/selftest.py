"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default) it makes two short traced runs on one
seed and checks that

- both runs pass their output checks;
- the count metrics repeat exactly between the two runs;
- in every traced study, the self times of all spans add up to the root
  span's duration to within rounding.

It also checks that the benchmark refuses to run, with a non-zero exit code
and no result line, in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

COUNTS = (
    "solver.iterations",
    "solver.iterations_max",
    "solver.solve_resolvent.calls",
    "discrete.apply_generator.calls",
    "discrete.energy.calls",
    "discrete.assemble_form.calls",
    "env.field_values.calls",
    "env.field_values.points",
    "homogenize.cells",
    "homogenize.cells_failed",
)
HERE = Path(__file__).resolve().parent


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _self_time_gaps(workload: str, tracing) -> list[float]:
    studies = json.loads((run.OUT / f"spans-{workload}-seed0.json").read_text())
    gaps = []
    for spans in studies:
        root = spans[0]["end"] - spans[0]["start"]
        gaps.append(abs(math.fsum(tracing.self_times(spans)) - root) / root)
    return gaps


def _bare_directory_refused() -> bool:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", run.WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    run.import_program()
    import tracing

    problems = []
    for workload in sys.argv[1:] or run.WORKLOADS:
        first = _traced_run(workload)
        gaps = _self_time_gaps(workload, tracing)
        second = _traced_run(workload)
        gaps += _self_time_gaps(workload, tracing)
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: output check failed")
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b}")
        if max(gaps) > 1e-9:
            problems.append(f"{workload}: self times miss the root span by {max(gaps):.2e}")
        print(f"{workload}: counts {[first['metrics'][n]['value'] for n in COUNTS]}, "
              f"largest self-time gap {max(gaps):.1e} of the root span", flush=True)
    if not _bare_directory_refused():
        problems.append("run.py did not refuse a directory without the program")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
