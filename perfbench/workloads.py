"""The benchmark's workloads and the manifests generated from them.

Each workload is a fixed list of experiment entries, sized so that one cold
run of the whole manifest takes a few seconds on a 2-core machine (the
spectral one about twelve, because it must reach n = 1024).  The workload seed
only selects the manifest's random seed; sizes never depend on it, so
timings taken at different seeds are comparable.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Reference reports exist for these workload seeds; any other seed is checked
# against the pass rules only.
REFERENCE_SEEDS = tuple(range(10))

WORKLOADS: dict[str, list[dict]] = {
    # Many small embeds: about 290 coefficients per element on 64x64
    # matrices, no symbol oracle, small operator norms.
    "transport": [
        {"id": "smoothing-tail", "psi": "heat", "band": 8, "n_schedule": [64],
         "amplifications": [1], "samples": 20, "cutoffs": [2, 4, 8], "eps": 0.25},
        {"id": "hp-ratio", "psi": "heat", "band": 4, "n_schedule": [64],
         "samples": 10},
    ],
    # Few coefficients on large matrices: power iteration and a 400 MB Gamma
    # stack at n = 1024; dense SVD/eigvalsh up to N = 512 come from
    # bridge-reach (fuzzy n = 128 at amplification 2); both SymbolGrid
    # oracles.  Amplification 1 for isometry because amplification 2 at
    # n = 1024 needs > 3 GB.  Bridge-reach skips n = 32: with one sample
    # per n, reach(32) exceeds reach(8) at some seeds (106 and 118 of
    # 100-129), which fails the decreasing-trend rule; reach(8) is at least
    # 1.8 times reach(128) at every seed from 100 to 139.
    "spectral": [
        {"id": "isometry", "psi": "heat", "band": 2, "amplifications": [1],
         "n_schedule": [64, 256, 1024], "samples": 2, "lip_samples": 1,
         "grid": 512, "eps": 0.05},
        {"id": "bridge-reach", "psi": "heat", "theta": [1, 2], "band": 2,
         "n_schedule": [8, 128], "amplifications": [1, 2], "samples": 1,
         "eps": 0.1, "eps_multiplier": 0.01, "grid": 128},
    ],
    # The brute-force net search plus the lattice/cocycle code; 64x64 only.
    "net": [
        {"id": "covering-net", "psi": "heat", "n_schedule": [64], "R": 1.0,
         "eps": 0.25, "samples": 25, "sample_band": 1},
        {"id": "psd-audit", "n_schedule": list(range(4, 65))},
        {"id": "intertwining", "psi": "word", "band": 4, "n_schedule": [16, 32],
         "samples": 50},
        {"id": "rate", "psi": "heat",
         "n_schedule": [16, 32, 64, 128, 256, 512, 1024], "grid": 16384},
    ],
}


def manifest_seed(workload: str, seed: int) -> int:
    """The program's seed for (workload, seed): stable, and distinct per workload."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def make_manifest(workload: str, seed: int, out: str) -> dict:
    return {
        "seed": manifest_seed(workload, seed),
        "out": out,
        "format": "csv",
        "experiments": [dict(e) for e in WORKLOADS[workload]],
    }


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.csv"


def expected_rows(workload: str) -> dict[str, int]:
    """Rows each experiment must emit, counted from the workload's first
    reference report (row counts do not depend on the seed)."""
    counts = {e["id"]: 0 for e in WORKLOADS[workload]}
    lines = reference_path(workload, REFERENCE_SEEDS[0]).read_text().splitlines()
    for line in lines[1:]:
        counts[line.split(",", 1)[0]] += 1
    return counts


def input_size(workload: str) -> list[dict]:
    """The stated input size of each experiment, as recorded with results."""
    rows = expected_rows(workload)
    keys = ("n_schedule", "samples", "lip_samples", "amplifications", "band",
            "theta", "cutoffs")
    return [
        {"experiment": e["id"], **{k: e[k] for k in keys if k in e},
         "rows": rows[e["id"]]}
        for e in WORKLOADS[workload]
    ]
