"""Correctness gate for one written report.

A report row fails when it fails its pass rule, when its stored flag
disagrees with the rule, or when it does not match the reference report (if
one exists for the seed).  Values match when they agree to 1e-12 relative.
Values below the program's exactness tolerance (1e-10) are roundoff, such as
an exact identity's defect or a zero eigenvalue; their digits differ between
BLAS kernels, so any two of them match.  In the reference reports they stay
below 4e-12, and every measured value is above 2e-7.  Pass flags must be
equal.  If an experiment raised, or emitted the wrong number of rows, all
its expected rows count as failed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

REL_TOL = 1e-12
ROUNDOFF = 1e-10


@dataclass(frozen=True)
class Row:
    experiment: str
    n: str
    metric: str
    value: float
    bound: float
    passed: bool

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.experiment, self.n, self.metric)


def parse_report(text: str) -> list[Row]:
    lines = text.splitlines()
    if not lines or lines[0] != "experiment,n,metric,value,bound,pass":
        raise ValueError("report header is missing or changed")
    rows = []
    for line in lines[1:]:
        exp, n, metric, value, bound, flag = line.split(",")
        if flag not in ("true", "false"):
            raise ValueError(f"bad pass flag {flag!r}")
        rows.append(Row(exp, n, metric, float(value), float(bound), flag == "true"))
    return rows


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def values_agree(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    if abs(a) < ROUNDOFF and abs(b) < ROUNDOFF:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def row_problems(row: Row, ref: Optional[Row],
                 passes: Callable[[str, float, float], bool]) -> list[str]:
    where = f"{row.experiment} n={row.n or '-'} {row.metric}"
    problems = []
    if not row.passed:
        problems.append(f"{where}: fails its pass rule ({row.value!r} vs {row.bound!r})")
    if passes(row.metric, row.value, row.bound) != row.passed:
        problems.append(f"{where}: pass flag disagrees with the pass rule")
    if ref is not None:
        if ref.key != row.key:
            problems.append(f"{where}: reference has {ref.key} here")
        elif not values_agree(row.value, ref.value) or row.bound != ref.bound:
            problems.append(f"{where}: {row.value!r} != reference {ref.value!r}")
        elif row.passed != ref.passed:
            problems.append(f"{where}: pass flag differs from the reference")
    return problems


def check_report(rows: list[Row], expected: dict[str, int],
                 reference: Optional[list[Row]], crashed: dict[str, str],
                 passes: Callable[[str, float, float], bool]) -> tuple[int, list[str]]:
    """(failed row count, problems) against expected rows per experiment."""
    failed = 0
    problems = [f"{exp}: raised {msg}" for exp, msg in crashed.items()]
    ref_by_exp: dict[str, list[Row]] = {}
    for r in reference or ():
        ref_by_exp.setdefault(r.experiment, []).append(r)
    for exp, count in expected.items():
        got = [r for r in rows if r.experiment == exp]
        if exp in crashed:
            failed += count
            continue
        if len(got) != count:
            problems.append(f"{exp}: {len(got)} rows, expected {count}")
            failed += count
            continue
        refs = None
        if reference is not None:
            refs = ref_by_exp.get(exp, [])
            if len(refs) != count:
                problems.append(f"{exp}: reference has {len(refs)} rows, expected {count}")
                failed += count
                continue
        for i, row in enumerate(got):
            found = row_problems(row, refs[i] if refs else None, passes)
            problems += found
            failed += bool(found)
    extra = sorted({r.experiment for r in rows} - set(expected))
    problems += [f"{exp}: unexpected experiment in report" for exp in extra]
    return failed, problems
