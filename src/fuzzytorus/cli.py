"""Command-line entry point: experiment dispatch and report emission.

Exit code is 0 iff every emitted row passes, so CI can gate on the
acceptance-style checks directly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .experiments import EXPERIMENTS, ConfigError, run_experiment
from .manifest import ManifestError, RunManifest, emit_report, manifest_from_dict, read_document

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
    """The manifest document (or the subcommand's default one) with the set
    flags written over its keys, validated once, cut to the subcommand; and
    the kept entries' indices in the document."""
    ids = SUBCOMMANDS[args.command]
    if args.manifest:
        doc = read_document(args.manifest)
    else:
        doc = {"seed": DEFAULT_SEED, "experiments": [{"id": i} for i in ids]}
    flags = {"seed": args.seed, "out": args.out, "format": args.fmt}
    if isinstance(doc, dict):
        doc.update((key, value) for key, value in flags.items() if value is not None)
    man = manifest_from_dict(doc)
    picked = [i for i, c in enumerate(man.experiments) if c.experiment in ids]
    if not picked:
        raise ManifestError(f"manifest holds no experiments for subcommand {args.command!r}")
    return replace(man, experiments=tuple(man.experiments[i] for i in picked)), picked


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        man, where = _manifest_for(args)
    except (ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    failed = None
    for i, cfg in zip(where, man.experiments):
        print(f"running {cfg.experiment} (seed {cfg.seed}) ...")
        try:
            rows.extend(run_experiment(cfg))
        except ConfigError as exc:
            failed = f"experiments[{i}].{exc}"
            break
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
    with open(paths[1], encoding="utf-8") as fh:
        print(fh.read(), end="")
    print("wrote " + ", ".join(paths))
    return 0 if all(r.passed for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
