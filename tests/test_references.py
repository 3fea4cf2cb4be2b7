"""The benchmark's reference reports reproduce from the source tree.

perfbench/reference holds report.csv for each benchmark workload at seeds
0-9, written by perfbench/make_reference.py at the benchmark's BLAS thread
count.  Here make_reference.py writes all 30 again, into a temporary
directory, and perfbench/checks.py checks each against its reference: values
within 1e-12 relative (roundoff rows below 1e-10 match each other), bounds and
pass flags equal.  A subprocess runs it, so that make_reference pins the BLAS
threads before numpy loads.

The references do not record the machine or BLAS build that wrote them, and
other BLAS kernels can move a row by more than 1e-12, so this test is marked
`references` and left out of the default run.  Run it with

    PYTHONPATH=src python -m pytest -q -m references tests/test_references.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

REGENERATE = r"""
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import make_reference  # pins the BLAS threads, then puts src on the path
import checks
import workloads
from fuzzytorus.experiments import row_passes

reference, workloads.REFERENCE_DIR = workloads.REFERENCE_DIR, Path(sys.argv[2])
make_reference.main([])
failed = 0
for name in sorted(workloads.WORKLOADS):
    for seed in workloads.REFERENCE_SEEDS:
        path = workloads.reference_path(name, seed)
        count, problems = checks.check_report(
            checks.parse_report(path.read_text()), workloads.expected_rows(name),
            checks.parse_report((reference / path.name).read_text()), {}, row_passes)
        failed += count
        for problem in problems:
            print(f"{name} seed {seed}: {problem}")
sys.exit(1 if failed else 0)
"""


@pytest.mark.references
def test_all_reference_reports_reproduce(tmp_path):
    proc = subprocess.run([sys.executable, "-c", REGENERATE, str(PERFBENCH), str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
