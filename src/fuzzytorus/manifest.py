"""Run manifests and report emission.

A manifest is a JSON document:

    {
      "seed": 1234,
      "out": "reports",
      "format": "csv",
      "experiments": [
        {"id": "psd-audit"},
        {"id": "isometry", "samples": 100, "n_schedule": [16, 32, 64]}
      ]
    }

Unknown keys anywhere are errors (reported with their key path); the seed is
mandatory so reruns are reproducible.  Reports are written with 17 significant
digits and fixed row order, so identical manifests produce byte-identical
files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass, replace
from typing import Sequence

from .experiments import EXPERIMENTS, ExperimentConfig, ReportRow, default_config

__all__ = ["RunManifest", "check_seed", "parse_config", "manifest_from_dict", "emit_report"]

_TOP_KEYS = {"seed", "out", "format", "experiments"}
_TUPLE_FIELDS = {"amplifications", "n_schedule", "cutoffs", "theta"}
_CFG_FIELDS = {
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"
}


@dataclass(frozen=True)
class RunManifest:
    seed: int
    out: str
    fmt: str
    experiments: tuple[ExperimentConfig, ...]


class ManifestError(ValueError):
    pass


_HINTS = typing.get_type_hints(ExperimentConfig)


def _is_a(value, kind: type) -> bool:
    """JSON type check: an int is also a float, a bool is neither."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind
    )


def check_seed(seed) -> int:
    """The seed itself, if it is a non-negative integer (not a bool)."""
    if not _is_a(seed, int) or seed < 0:
        raise ManifestError(f"seed: expected a non-negative integer, got {seed!r}")
    return seed


def _coerce(name: str, value, path: str):
    kinds = typing.get_args(_HINTS[name]) or (_HINTS[name],)  # Optional[X] -> (X, None)
    if value is None and type(None) in kinds:
        return None
    if name in _TUPLE_FIELDS:
        if not isinstance(value, (list, tuple)) or not all(_is_a(v, int) for v in value):
            raise ManifestError(f"{path}.{name}: expected a list of integers")
        return tuple(value)
    if not _is_a(value, kinds[0]):
        raise ManifestError(
            f"{path}.{name}: expected {kinds[0].__name__}, got {type(value).__name__}"
        )
    return value


def manifest_from_dict(doc: dict) -> RunManifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ManifestError(f"unknown manifest keys: {sorted(unknown)}")
    if "seed" not in doc:
        raise ManifestError("seed required")
    seed = check_seed(doc["seed"])
    out = doc.get("out", "reports")
    if not isinstance(out, str):
        raise ManifestError(f"out: expected a string, got {type(out).__name__}")
    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ManifestError(f"format: expected 'csv' or 'json', got {fmt!r}")
    exps = doc.get("experiments", [])
    if not isinstance(exps, list):
        raise ManifestError("experiments: expected a list")
    configs = []
    for i, entry in enumerate(exps):
        path = f"experiments[{i}]"
        if not isinstance(entry, dict):
            raise ManifestError(f"{path}: expected an object")
        if "id" not in entry:
            raise ManifestError(f"{path}: missing experiment id")
        exp_id = entry["id"]
        if exp_id not in EXPERIMENTS:
            raise ManifestError(f"{path}.id: unknown experiment id {exp_id!r}")
        kwargs = {}
        for key, value in entry.items():
            if key == "id":
                continue
            if key not in _CFG_FIELDS:
                raise ManifestError(f"{path}.{key}: unknown configuration key")
            kwargs[key] = _coerce(key, value, path)
        try:
            configs.append(replace(default_config(exp_id, seed), **kwargs))
        except ValueError as exc:
            raise ManifestError(f"{path}: {exc}") from exc
    return RunManifest(seed=seed, out=out, fmt=fmt, experiments=tuple(configs))


def parse_config(path: str) -> RunManifest:
    """Read and validate a manifest file; parse errors carry line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"{path}:{exc.lineno}:{exc.colno}: parse error: {exc.msg}"
        ) from exc
    return manifest_from_dict(doc)


def _fmt_float(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def emit_report(rows: Sequence[ReportRow], manifest: RunManifest) -> list[str]:
    """Write report + summary files; returns the written paths.

    CSV columns: experiment,n,metric,value,bound,pass.  The JSON mirror keeps
    the same records with floats rendered as 17-significant-digit strings so
    both formats are byte-stable across reruns.
    """
    if not rows:
        raise ValueError("no report rows to emit")
    os.makedirs(manifest.out, exist_ok=True)
    if manifest.fmt == "csv":
        lines = ["experiment,n,metric,value,bound,pass"]
        for r in rows:
            n = "" if r.n is None else str(r.n)
            lines.append(
                f"{r.experiment},{n},{r.metric},{_fmt_float(r.value)},"
                f"{_fmt_float(r.bound)},{str(r.passed).lower()}"
            )
        text = "\n".join(lines) + "\n"
    else:
        records = []
        for r in rows:
            records.append(
                "  {"
                + ", ".join(
                    [
                        f'"experiment": {json.dumps(r.experiment)}',
                        f'"n": {"null" if r.n is None else r.n}',
                        f'"metric": {json.dumps(r.metric)}',
                        f'"value": "{_fmt_float(r.value)}"',
                        f'"bound": "{_fmt_float(r.bound)}"',
                        f'"pass": {str(r.passed).lower()}',
                    ]
                )
                + "}"
            )
        text = "[\n" + ",\n".join(records) + "\n]\n"
    path = os.path.join(manifest.out, f"report.{manifest.fmt}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    summary = os.path.join(manifest.out, "summary.txt")
    by_exp: dict[str, list[ReportRow]] = {}
    for r in rows:
        by_exp.setdefault(r.experiment, []).append(r)
    with open(summary, "w", encoding="utf-8") as fh:
        for exp in sorted(by_exp):
            group = by_exp[exp]
            ok = all(r.passed for r in group)
            n_pass = sum(r.passed for r in group)
            fh.write(
                f"{exp}: {'PASS' if ok else 'FAIL'} ({n_pass}/{len(group)} rows)\n"
            )
    return [path, summary]
