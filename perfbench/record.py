"""Record the reference outputs that run.py compares every study against.

    python3 perfbench/record.py [--seeds 0 1 ...] [--workload NAME ...]

Runs one study per (workload, seed) with the program in this checkout and
stores its operations, with the workload's absolute scale, in
perfbench/reference.json (merged into what is there).  Sweep references are
stored only if their sampled cells agree with the dense Cholesky oracle.
Re-record only when the program's results are meant to change.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import run

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    spec = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=spec["reference_seeds"])
    parser.add_argument("--workload", nargs="+", default=list(run.WORKLOADS))
    args = parser.parse_args()
    wl = run.import_program()
    reference = json.loads(REFERENCE.read_text())
    for name in args.workload:
        entry = reference.setdefault(name, {"seeds": {}})
        for seed in args.seeds:
            w = wl.build(name, seed, str(run.OUT))
            if "scale" not in entry:
                entry["scale"] = wl.scale(w)
            ops = wl.run_study(w)
            failed, findings = run.check_outputs(wl, w, [ops], {name: {"scale": entry["scale"]}})
            if failed[0]:
                raise SystemExit(f"{name} seed {seed}: {sorted(failed[0])} failed; {findings}")
            entry["seeds"][str(seed)] = ops
            print(f"{name} seed {seed}: recorded; {findings[-1]}", flush=True)
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
