"""Command-line entry point: experiment dispatch and report emission.

Exit code is 0 iff every emitted row passes, so CI can gate on the
acceptance-style checks directly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .experiments import EXPERIMENTS, run_experiment
from .manifest import (
    ManifestError, RunManifest, check_seed, emit_report, manifest_from_dict, parse_config,
)

DEFAULT_SEED = 20240901

SUBCOMMANDS = {
    "audit": ("psd-audit",),
    "lip": ("intertwining", "isometry"),
    "converge": ("rate", "smoothing-tail"),
    "net": ("covering-net",),
    "reach": ("bridge-reach",),
    "all": tuple(EXPERIMENTS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzytorus",
        description="Matrix-model convergence experiments for rotation algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, ids in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run: {', '.join(ids)}")
        p.add_argument("--manifest", help="JSON manifest (overrides defaults)")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt",
                       help="override the report format")
    return parser


def _manifest_for(args) -> RunManifest:
    ids = SUBCOMMANDS[args.command]
    if args.seed is not None:
        check_seed(args.seed)
    if args.manifest:
        man = parse_config(args.manifest)
        configs = tuple(c for c in man.experiments if c.experiment in ids)
        if not configs:
            raise ManifestError(
                f"manifest holds no experiments for subcommand {args.command!r}"
            )
        man = replace(man, experiments=configs)
    else:
        man = manifest_from_dict({"seed": DEFAULT_SEED, "experiments": [{"id": i} for i in ids]})
    if args.seed is not None:
        man = replace(
            man,
            seed=args.seed,
            experiments=tuple(replace(c, seed=args.seed) for c in man.experiments),
        )
    if args.out is not None:
        man = replace(man, out=args.out)
    if args.fmt is not None:
        man = replace(man, fmt=args.fmt)
    return man


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        man = _manifest_for(args)
    except (ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    failed = None
    for cfg in man.experiments:
        print(f"running {cfg.experiment} (seed {cfg.seed}) ...")
        try:
            rows.extend(run_experiment(cfg))
        except (ValueError, RuntimeError) as exc:
            failed = f"{cfg.experiment}: {exc}"
            break
    try:
        paths = emit_report(rows, man) if rows else []
    except OSError as exc:
        print(f"error: cannot write reports to {man.out!r}: {exc}", file=sys.stderr)
        return 2
    if failed is not None:
        if paths:
            print("wrote " + ", ".join(paths))
        print(f"error: {failed}", file=sys.stderr)
        return 2
    by_exp: dict[str, bool] = {}
    for r in rows:
        by_exp[r.experiment] = by_exp.get(r.experiment, True) and r.passed
    for exp in sorted(by_exp):
        print(f"{exp}: {'PASS' if by_exp[exp] else 'FAIL'}")
    print("wrote " + ", ".join(paths))
    return 0 if all(by_exp.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
