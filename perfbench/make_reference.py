#!/usr/bin/env python3
"""Write the reference reports the benchmark compares against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's manifest at every reference seed, with BLAS pinned as
in the benchmark, and stores report.csv as perfbench/reference/
<workload>-seed<seed>.csv.  Regenerate only when the program's numbers are
meant to change; the benchmark fails any run that drifts from these files.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BLAS_THREADS  # noqa: E402

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from fuzzytorus.experiments import run_experiment  # noqa: E402
from fuzzytorus.manifest import emit_report, manifest_from_dict  # noqa: E402


def main(names: list[str]) -> int:
    scratch = HERE / "_out" / "reference"
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        for seed in workloads.REFERENCE_SEEDS:
            man = manifest_from_dict(workloads.make_manifest(name, seed, str(scratch)))
            rows = [row for cfg in man.experiments for row in run_experiment(cfg)]
            emit_report(rows, man)
            shutil.copyfile(scratch / "report.csv", workloads.reference_path(name, seed))
            failing = sum(not r.passed for r in rows)
            print(f"{name} seed {seed}: {len(rows)} rows, {failing} failing", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
