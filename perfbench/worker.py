"""One cold run of a workload manifest, in a fresh process.

Usage (started by run.py, once per iteration):

    python3 perfbench/worker.py --manifest M --spawned T --trace 0|1 \
        --expected JSON --result OUT.json [--reference REF.csv]

``--spawned`` is the parent's time.monotonic() just before the spawn (the
clock is system-wide on Linux), so setup_s covers the interpreter start, the
imports and parse_config.  report_s runs from the first experiment call to a
report that is written, read back and verified.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402


def blas_info() -> tuple[str, int]:
    """Runtime OpenBLAS configuration and thread count of numpy's BLAS."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            config = getattr(dll, f"{prefix}get_config{suffix}", None)
            threads = getattr(dll, f"{prefix}get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode().strip(), threads()
    return "OpenBLAS unknown", -1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--expected", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--reference")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first experiment call; report setup_s only")
    args = ap.parse_args()

    import fuzzytorus.manifest as manifest
    from fuzzytorus import experiments

    if not Path(manifest.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fuzzytorus imported from {manifest.__file__}, not {ROOT / 'src'}")

    problems = []
    tracer = spans.Tracer()
    replaced = []
    if args.trace:
        replaced = layers.install_layers(tracer)
    else:
        problems += [f"untraced run sees wrapper {n}" for n in layers.wrapped_names()]

    crashed: dict[str, str] = {}
    try:
        man = manifest.parse_config(args.manifest)
        t0 = time.perf_counter()
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            Path(args.result).write_text(json.dumps({"setup_s": setup_s}))
            return 0
        rows = []
        for cfg in man.experiments:
            try:
                rows.extend(experiments.run_experiment(cfg))
            except Exception as exc:  # the gate counts the rows as failed
                crashed[cfg.experiment] = f"{type(exc).__name__}: {exc}"
        if rows:
            manifest.emit_report(rows, man)
        text = Path(man.out, "report.csv").read_text() if rows else ""
        report = checks.parse_report(text) if rows else []
        reference = None
        if args.reference:
            reference = checks.parse_report(Path(args.reference).read_text())
        failed, found = checks.check_report(
            report, json.loads(args.expected), reference, crashed,
            experiments.row_passes)
        problems += found
        t1 = time.perf_counter()
    finally:
        spans.restore(replaced)
    problems += [f"not restored: {n}" for n in layers.wrapped_names()]

    ru = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "report_s": t1 - t0,
        "setup_s": setup_s,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "failed": failed,
        "problems": problems,
        "digest": checks.digest(text),
    }
    import numpy

    openblas, threads = blas_info()
    result["env"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"), "openblas": openblas,
        "blas_threads": threads,
    }
    if args.trace:
        # spans of the report window; parse_config belongs to set-up
        window = [s for s in tracer.spans if s.start >= t0]
        roots = sum(s.duration for s in window if s.parent < 0)
        result["layers"] = layers.layer_metrics(tracer.spans)
        result["glue_s"] = result["report_s"] - roots
        result["self_sum_s"] = sum(s.self_s for s in window)
        problems += tracer.nesting_errors()
        if abs(result["self_sum_s"] + result["glue_s"] - result["report_s"]) > 1e-6:
            problems.append("self times plus glue do not add up to report_s")
        if result["glue_s"] < 0:
            problems.append("spans cover more than the report window")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
