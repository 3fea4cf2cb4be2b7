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
mandatory so reruns are reproducible.  An experiment entry may set only the
keys its experiment reads, which are the keys of its `experiments._DEFAULTS`
entry; a key it leaves out takes the default given there.  ExperimentConfig
checks each entry whole, building its models once, before anything runs, and
every error in an entry reads `experiments[i].<key>: <why>`.
Reports are written with 17 significant digits and fixed row order, so
identical manifests produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

from .experiments import _DEFAULTS, ExperimentConfig, ReportRow, _is_a

__all__ = ["RunManifest", "read_document", "parse_config", "manifest_from_dict", "emit_report"]

_TOP_KEYS = {"seed", "out", "format", "experiments"}


@dataclass(frozen=True)
class RunManifest:
    seed: int
    out: str
    fmt: str
    experiments: tuple[ExperimentConfig, ...]


class ManifestError(ValueError):
    pass


def manifest_from_dict(doc: dict) -> RunManifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ManifestError(f"unknown manifest keys: {sorted(unknown)}")
    if "seed" not in doc:
        raise ManifestError("seed required")
    seed = doc["seed"]
    if not _is_a(seed, int) or seed < 0:
        raise ManifestError(f"seed: expected a non-negative integer, got {seed!r}")
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
        if not isinstance(exp_id, str) or exp_id not in _DEFAULTS:
            raise ManifestError(f"{path}.id: unknown experiment id {exp_id!r}")
        # no experiment reads a seed: the manifest's top-level seed is the only seed
        unread = [key for key in entry if key != "id" and key not in _DEFAULTS[exp_id]]
        if unread:
            raise ManifestError(f"{path}.{unread[0]}: unknown configuration key for {exp_id}")
        kwargs = {key: value for key, value in entry.items() if key != "id"}
        try:
            configs.append(ExperimentConfig(exp_id, seed, **kwargs))
        except ValueError as exc:
            raise ManifestError(f"{path}.{exc}") from exc
    return RunManifest(seed=seed, out=out, fmt=fmt, experiments=tuple(configs))


def read_document(path: str):
    """The JSON document of a manifest file; parse errors carry line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"{path}:{exc.lineno}:{exc.colno}: parse error: {exc.msg}"
        ) from exc


def parse_config(path: str) -> RunManifest:
    """Read and validate a manifest file."""
    return manifest_from_dict(read_document(path))


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
        records = [
            json.dumps({"experiment": r.experiment, "n": r.n, "metric": r.metric,
                        "value": _fmt_float(r.value), "bound": _fmt_float(r.bound),
                        "pass": r.passed})
            for r in rows
        ]
        text = "[\n  " + ",\n  ".join(records) + "\n]\n"
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
