#!/usr/bin/env python3
"""fuzzytorus benchmark: cold runs of a workload manifest, end to end.

    python3 perfbench/run.py --workload transport --seed 0 --seconds 40 --trace 0

Load model: a closed loop with one client.  Each iteration is a fresh
process (perfbench/worker.py) that parses the generated manifest, runs every
experiment, writes the report and verifies it, so every iteration pays the
cold caches a ``fuzzytorus`` user pays.  The next iteration starts when the
previous one has ended; a new iteration starts while it is expected to end
less than half an iteration after --seconds.  BLAS is pinned to one thread:
report bytes depend on the thread count, and a second thread buys little on
these sizes.

Machine speed: the host's speed drifts (see perfbench/speed.py), so a fixed
calibration kernel is timed before the first iteration and after each
iteration with the set-up starts that follow it.  report_s, cpu_s and setup_s
are seconds at the reference speed: the total of a time over the starts, over
the total of the speed factors measured around them.  The raw medians are
printed and recorded too.

--trace 0 prints the end-to-end metrics; peak_rss_mb is a median.
--trace 1 alternates untraced and traced iterations and prints the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)  # before numpy loads, for the calibration kernel

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HARD_LIMIT_S = 170  # a run must end within 180 s, even if a worker hangs
# Set-up-only starts per untraced run, spread between the iterations, so that
# setup_s is taken over many process starts even when only two iterations
# fit, and the starts do not all fall into one slow phase of the machine.
SETUP_PROBES = 10
# Each calibration of the machine's speed runs for about this share of the
# time of the starts it follows, and at least CALIBRATE_MIN_S.
CALIBRATE_FRAC = 0.1
CALIBRATE_MIN_S = 0.5
E2E_UNITS = {"report_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "rows_passed_frac": "frac"}


def run_worker(manifest: Path, result: Path, traced: bool, expected: dict,
               reference: Path | None, deadline: float,
               setup_only: bool = False) -> dict:
    """One iteration in a fresh process; a crash fails every expected row."""
    env = dict(os.environ, **BLAS_ENV)
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
           "--trace", str(int(traced)), "--expected", json.dumps(expected),
           "--result", str(result)]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rc = "none (killed at the run's time limit)"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc == 0 and result.is_file():
        out = json.loads(result.read_text())
    else:
        out = {"failed": sum(expected.values()),
               "problems": [f"worker exited with code {rc}"]}
    out["traced"] = traced
    return out


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def at_reference_speed(runs: list[dict], key: str) -> float:
    """Mean time per start at the reference speed: the total of a time over
    the starts over the total of the speed factors measured around them.  A
    ratio of totals, not a median of ratios: each calibration is short, and its
    own noise averages out in the total."""
    return sum(r[key] for r in runs) / sum(r["speed"] for r in runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fuzzytorus" / "__init__.py").is_file():
        print(f"error: no fuzzytorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps(
        workloads.make_manifest(args.workload, args.seed, str(out / "report")), indent=1))
    expected = workloads.expected_rows(args.workload)
    reference = workloads.reference_path(args.workload, args.seed)
    if not reference.is_file():
        reference = None

    runs: list[dict] = []
    setups: list[dict] = []  # setup_s and speed of every start
    probe_problems: list[str] = []
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    speed.measure()  # warm-up
    before = speed.measure(1.0)
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        t = time.monotonic()
        runs.append(run_worker(manifest, out / f"iter{len(runs)}.json", traced,
                               expected, reference, deadline))
        if "report_s" not in runs[-1]:
            break
        batch = [{"setup_s": runs[-1]["setup_s"]}]
        if not args.trace:
            # set-up-only starts after each iteration, about SETUP_PROBES per run
            count = max(1, round(SETUP_PROBES * (time.monotonic() - t) / args.seconds))
            for _ in range(count):
                probe = run_worker(manifest, out / "setup.json", False, expected,
                                   reference, deadline, setup_only=True)
                if "setup_s" not in probe:
                    probe_problems += probe["problems"]
                    break
                batch.append({"setup_s": probe["setup_s"]})
        after = speed.measure(max(CALIBRATE_MIN_S,
                                  CALIBRATE_FRAC * (time.monotonic() - t)))
        runs[-1]["speed"] = (before + after) / 2
        for probe in batch:
            probe["speed"] = runs[-1]["speed"]
        before = after
        setups += batch
        if args.trace and len(runs) < 2:
            continue
        # the next iteration starts if it is expected to end no later than
        # half an iteration after --seconds, so a run lasts --seconds on average
        step = time.monotonic() - t
        if probe_problems or time.monotonic() - start + step / 2 >= args.seconds:
            break

    attempted = sum(expected.values()) * len(runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]] + probe_problems
    ok = [r for r in runs if "report_s" in r]
    correct = not problems and len(ok) == len(runs)
    plain = [r for r in ok if not r["traced"]]
    traced_runs = [r for r in ok if r["traced"]]

    metrics: dict[str, float] = {}
    units = E2E_UNITS
    raw: dict[str, float] = {}
    if plain and not args.trace:
        for key in ("report_s", "cpu_s"):
            metrics[key] = at_reference_speed(plain, key)
            raw[key] = median_of(plain, key)
        metrics["setup_s"] = at_reference_speed(setups, "setup_s")
        raw["setup_s"] = median_of(setups, "setup_s")
        metrics["peak_rss_mb"] = median_of(plain, "peak_rss_mb")
        metrics["rows_passed_frac"] = 1.0 - failed / attempted
    elif plain and traced_runs:
        per_layer = [r["layers"] for r in traced_runs]
        metrics = {k: statistics.median(p[k] for p in per_layer) for k in per_layer[0]}
        metrics["trace.overhead_frac"] = (at_reference_speed(traced_runs, "report_s")
                                          / at_reference_speed(plain, "report_s") - 1.0)
        metrics["trace.glue_s"] = median_of(traced_runs, "glue_s")
        units = layers.metric_units()

    env = ok[0]["env"] if ok else {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, 1 client, fresh process per iteration",
        "blas_threads_pinned": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "env": env, "input": workloads.input_size(args.workload),
        "reference": reference.name if reference else None,
        "digests": sorted({r["digest"] for r in ok}), "setups": setups,
        "iterations": runs, "correct": correct, "metrics": metrics,
        "raw_medians": raw,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1))

    print(f"# workload {args.workload}, seed {args.seed} (manifest seed "
          f"{workloads.manifest_seed(args.workload, args.seed)}), trace {args.trace}")
    print(f"# {record['load']}: {len(runs)} iterations "
          f"({len(traced_runs)} traced) and {len(setups)} set-ups in "
          f"{time.monotonic() - start:.1f} s")
    print(f"# python {env.get('python')}, numpy {env.get('numpy')}, scipy "
          f"{env.get('scipy')}, {env.get('openblas')}; BLAS threads "
          f"{env.get('blas_threads')} (pinned {BLAS_THREADS}), nproc {record['nproc']}")
    for item in record["input"]:
        print("# input " + ", ".join(f"{k}={v}" for k, v in item.items()))
    print(f"# report sha256 {', '.join(record['digests'])}; reference "
          f"{record['reference'] or 'none for this seed'}")
    speeds = [r["speed"] for r in ok]
    if speeds:
        print(f"# speed factor (1 = reference speed) median "
              f"{statistics.median(speeds):.3f}, range {min(speeds):.3f} to "
              f"{max(speeds):.3f}")
    for name, value in raw.items():
        print(f"# raw {name} {value:.6g} {units[name]} (median, not speed-corrected)")
    print(f"rows_failed_frac {failed / attempted:.6g} frac ({failed} of {attempted} rows)")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    if args.trace and metrics:
        timed = {k: v for k, v in metrics.items() if k.endswith(("self_s", "build_s"))}
        print(f"# dominant layer by self time: {max(timed, key=timed.get)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
