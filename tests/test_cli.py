import json
import os
from pathlib import Path

import pytest

from fuzzytorus.cli import main
from fuzzytorus.experiments import EXPERIMENTS, ExperimentConfig, ReportRow
from fuzzytorus.manifest import (
    ManifestError,
    RunManifest,
    emit_report,
    manifest_from_dict,
    parse_config,
)


def test_manifest_minimal_valid(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "seed": 5,
        "experiments": [{"id": "psd-audit", "n_schedule": [4, 5, 6]}],
    }))
    man = parse_config(str(path))
    assert man.seed == 5
    assert man.experiments[0].experiment == "psd-audit"
    assert man.experiments[0].n_schedule == (4, 5, 6)
    assert man.fmt == "csv"


def test_manifest_errors():
    with pytest.raises(ManifestError, match="seed required"):
        manifest_from_dict({"experiments": []})
    with pytest.raises(ManifestError, match="unknown experiment id"):
        manifest_from_dict({"seed": 1, "experiments": [{"id": "nope"}]})
    with pytest.raises(ManifestError, match=r"experiments\[0\].wat"):
        manifest_from_dict({"seed": 1, "experiments": [{"id": "rate", "wat": 2}]})
    with pytest.raises(ManifestError, match=r"experiments\[0\]\.tol"):
        manifest_from_dict({"seed": 1, "experiments": [{"id": "intertwining", "tol": 5}]})
    with pytest.raises(ManifestError, match="unknown manifest keys"):
        manifest_from_dict({"seed": 1, "bogus": True})
    with pytest.raises(ManifestError, match="format"):
        manifest_from_dict({"seed": 1, "format": "xml", "experiments": []})


def test_manifest_parse_error_has_line_number(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,\n "experiments": [}')
    with pytest.raises(ManifestError, match=r":2:"):
        parse_config(str(path))


def _tiny_manifest(out, fmt="csv"):
    return RunManifest(
        seed=3,
        out=str(out),
        fmt=fmt,
        experiments=(
            ExperimentConfig("psd-audit", 3, n_schedule=(4, 5)),
        ),
    )


def test_emit_report_csv_and_summary(tmp_path):
    rows = [
        ReportRow.make("psd-audit", 4, "psd_min_eig/heat", -1e-15, -1e-10),
        ReportRow.make("psd-audit", None, "naive_max_witness", -1.46, -1e-10),
    ]
    paths = emit_report(rows, _tiny_manifest(tmp_path))
    text = open(paths[0]).read()
    assert text.splitlines()[0] == "experiment,n,metric,value,bound,pass"
    assert "psd-audit,4,psd_min_eig/heat," in text
    assert "psd-audit,,naive_max_witness," in text
    summary = open(paths[1]).read()
    assert "psd-audit: PASS (2/2 rows)" in summary


def test_emit_report_json_mirrors(tmp_path):
    rows = [ReportRow.make("rate", 16, "norm_defect", 0.25, float("inf"))]
    man = _tiny_manifest(tmp_path, fmt="json")
    paths = emit_report(rows, man)
    doc = json.loads(open(paths[0]).read())
    assert doc[0]["experiment"] == "rate"
    assert doc[0]["n"] == 16
    assert doc[0]["bound"] == "inf"
    assert doc[0]["pass"] is True


def test_emit_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], _tiny_manifest(tmp_path))


def test_cli_audit_roundtrip(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    code = main(["audit", "--out", str(out1), "--seed", "11"])
    assert code == 0
    code = main(["audit", "--out", str(out2), "--seed", "11"])
    assert code == 0
    b1 = open(out1 / "report.csv", "rb").read()
    b2 = open(out2 / "report.csv", "rb").read()
    assert b1 == b2  # rerun equality, byte for byte


def test_cli_manifest_flow_and_exit_codes(tmp_path):
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "seed": 5,
        "out": str(tmp_path / "rep"),
        "experiments": [{"id": "psd-audit", "n_schedule": [4, 5, 6, 7]}],
    }))
    assert main(["audit", "--manifest", str(man)]) == 0
    assert os.path.exists(tmp_path / "rep" / "report.csv")
    # a manifest without matching experiments is a usage error
    man2 = tmp_path / "man2.json"
    man2.write_text(json.dumps({"seed": 5, "experiments": [{"id": "rate"}]}))
    assert main(["audit", "--manifest", str(man2)]) == 2


def test_cli_format_override(tmp_path):
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "seed": 5,
        "experiments": [{"id": "psd-audit", "n_schedule": [4, 5]}],
    }))
    code = main([
        "audit", "--manifest", str(man), "--out", str(tmp_path / "rj"),
        "--format", "json",
    ])
    assert code == 0
    assert os.path.exists(tmp_path / "rj" / "report.json")


def _write_manifest(tmp_path, doc):
    path = tmp_path / "man.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_rejects_mistyped_scalar_with_key_path(tmp_path, capsys):
    man = _write_manifest(tmp_path, {
        "seed": 5,
        "out": str(tmp_path / "rep"),
        "experiments": [{"id": "psd-audit", "n_schedule": [4, 5], "samples": "many"}],
    })
    assert main(["audit", "--manifest", man]) == 2
    assert "experiments[0].samples: expected int" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "rep")


def test_cli_rejects_bad_schedule_with_key_path(tmp_path, capsys):
    man = _write_manifest(tmp_path, {
        "seed": 5,
        "experiments": [{"id": "psd-audit", "n_schedule": [6, 5]}],
    })
    assert main(["audit", "--manifest", man]) == 2
    err = capsys.readouterr().err
    assert "experiments[0]: n schedule must be strictly increasing" in err


@pytest.mark.parametrize("entry, prefix", [
    ({"id": "rate", "n_schedule": [0]}, "experiments[0]: n_schedule: "),
    ({"id": "isometry", "n_schedule": [5000], "samples": 2}, "experiments[0]: n_schedule: "),
    ({"id": "covering-net", "samples": 0}, "experiments[0]: samples: "),
    ({"id": "isometry", "n_schedule": [8], "samples": -1}, "experiments[0]: samples: "),
    ({"id": "isometry", "n_schedule": [8], "amplifications": []},
     "experiments[0]: amplifications: "),
    ({"id": "isometry", "n_schedule": [8], "amplifications": [0]},
     "experiments[0]: amplifications: "),
    ({"id": "bridge-reach", "theta": [1, 2, 3]}, "experiments[0]: theta: "),
    ({"id": "bridge-reach", "theta": [1, 0], "n_schedule": [8]}, "experiments[0]: theta: "),
    ({"id": "bridge-reach", "theta": [0, 2], "n_schedule": [8], "samples": 1},
     "experiments[0]: theta: "),
    ({"id": "smoothing-tail", "n_schedule": [64], "samples": 2, "cutoffs": []},
     "experiments[0]: cutoffs: "),
    ({"id": "isometry", "n_schedule": [8], "samples": 2, "grid": 0}, "experiments[0]: grid: "),
    ({"id": "isometry", "n_schedule": [8], "samples": 2, "lip_grid": 0},
     "experiments[0]: lip_grid: "),
    ({"id": "covering-net", "samples": 2, "eps": 0}, "experiments[0]: eps: "),
    ({"id": "covering-net", "samples": 2, "eps": -0.5}, "experiments[0]: eps: "),
    ({"id": "covering-net", "samples": 2, "R": -1}, "experiments[0]: R: "),
    ({"id": "covering-net", "samples": 2, "sample_band": -1}, "experiments[0]: sample_band: "),
    ({"id": "intertwining", "n_schedule": [16], "samples": 2, "band": -1},
     "experiments[0]: band: "),
    ({"id": "isometry", "n_schedule": [8], "samples": 2, "band": -1}, "experiments[0]: band: "),
    ({"id": "psd-audit", "psi": "bogus"}, "experiments[0]: psi: "),
    ({"id": "isometry", "n_schedule": [8], "samples": 2, "lip_samples": 0},
     "experiments[0]: lip_samples: "),
    ({"id": "covering-net", "samples": 2, "net_cap": 0}, "experiments[0]: net_cap: "),
    ({"id": "covering-net", "n_schedule": [64], "samples": 2, "eps": 0.001,
      "net_cap": 10**12}, "experiments[0]: net_cap: "),
    ({"id": "covering-net", "samples": 2, "eps": 2}, "experiments[0]: eps: "),
    ({"id": "smoothing-tail", "n_schedule": [64], "samples": 2, "eps": 2},
     "experiments[0]: eps: "),
    ({"id": "bridge-reach", "n_schedule": [8], "samples": 1, "eps_multiplier": 1.5},
     "experiments[0]: eps_multiplier: "),
    ({"id": "smoothing-tail", "n_schedule": [64], "samples": 2, "eps_multiplier": 0},
     "experiments[0]: eps_multiplier: "),
    ({"id": "smoothing-tail", "n_schedule": [64], "band": 0, "samples": 1},
     "experiments[0]: band: "),
    ({"id": "hp-ratio", "n_schedule": [64], "band": 0, "samples": 1}, "experiments[0]: band: "),
    ({"id": "isometry", "n_schedule": [8], "band": 0, "samples": 1}, "experiments[0]: band: "),
    ({"id": "bridge-reach", "n_schedule": [8], "band": 0, "samples": 1},
     "experiments[0]: band: "),
    ({"id": "isometry", "n_schedule": [8], "grid": 65536},
     "experiments[0]: grid: 65536^2 grid points with 2 x 2 values each"),
    ({"id": "intertwining", "n_schedule": [16], "samples": 2, "tol": 5},
     "experiments[0].tol: unknown configuration key"),
    ({"id": "smoothing-tail", "n_schedule": [16], "band": 8, "samples": 1},
     "experiments[0]: band: sample band exceeds the model window"),
    ({"id": "smoothing-tail", "band": 32, "samples": 1},
     "experiments[0]: band: sample band exceeds the model window"),
    ({"id": "covering-net", "n_schedule": [4], "sample_band": 2, "samples": 1},
     "experiments[0]: sample_band: frequencies -2..2 alias mod n = 4"),
    ({"id": "isometry", "n_schedule": [1024], "amplifications": [64], "samples": 1},
     "experiments[0]: amplifications: amplification 64 of the 1024-dimensional model"),
    ({"id": "bridge-reach", "theta": [1, 2], "n_schedule": [8, 2048], "samples": 1},
     "experiments[0]: amplifications: amplification 2 of the 4096-dimensional model"),
    ({"id": "bridge-reach", "theta": [1, 2], "n_schedule": [4096], "amplifications": [1]},
     "experiments[0]: amplifications: amplification 1 of the 8192-dimensional model"),
    ({"id": "smoothing-tail", "amplifications": [65], "samples": 1},
     "experiments[0]: amplifications: amplification 65 of the 64-dimensional model"),
    ({"id": "rate", "n_schedule": [16, 24]},
     "experiments[0]: n_schedule: rate's oracle grid G = 16384 must contain every n-grid"),
    ({"id": "intertwining", "n_schedule": [4, 16], "band": 4, "samples": 1},
     "experiments[0]: band: intertwining needs band <= n/2 at every n"),
    ({"id": "bridge-reach", "theta": None, "n_schedule": [8], "samples": 1},
     "experiments[0]: theta: bridge-reach needs a rational twist"),
    ({"id": "bridge-reach", "n_schedule": [8], "band": 4, "samples": 1},
     "experiments[0]: band: bridge-reach pulls model elements back on the band window"),
], ids=["n-zero", "n-over-cap", "samples-zero", "samples-negative",
        "amplifications-empty", "amplifications-zero", "theta-triple", "theta-m-zero",
        "theta-gcd", "cutoffs-empty", "grid-zero", "lip-grid-zero", "eps-zero",
        "eps-negative", "R-negative", "sample-band-negative", "band-negative-intertwining",
        "band-negative-isometry", "psi-unknown", "lip-samples-zero", "net-cap-zero",
        "net-cap-above-max",
        "eps-covering-net-above-one", "eps-smoothing-tail-half-above-one",
        "eps-multiplier-above-one", "eps-multiplier-zero", "band-zero-smoothing-tail",
        "band-zero-hp-ratio", "band-zero-isometry", "band-zero-bridge-reach",
        "grid-over-cap", "tol-unknown", "band-smoothing-tail-window",
        "band-smoothing-tail-default-n", "sample-band-covering-net-alias",
        "amplification-over-cap", "amplification-over-cap-fuzzy", "fuzzy-model-over-cap",
        "amplification-over-cap-default-n", "rate-grid-not-a-multiple",
        "band-intertwining-above-half-n", "theta-null-bridge-reach",
        "band-bridge-reach-aliases"])
def test_cli_rejects_out_of_range_config_with_key_path(tmp_path, capsys, entry, prefix):
    out = tmp_path / "rep"
    man = _write_manifest(tmp_path, {"seed": 5, "out": str(out), "experiments": [entry]})
    assert main(["all", "--manifest", man]) == 2
    assert f"error: {prefix}" in capsys.readouterr().err
    assert not out.exists()


def test_example_manifest_parses():
    path = Path(__file__).resolve().parents[1] / "scripts" / "manifest.example.json"
    man = parse_config(str(path))
    assert [c.experiment for c in man.experiments] == [
        "psd-audit", "intertwining", "rate", "isometry", "smoothing-tail",
        "covering-net", "bridge-reach",
    ]


def test_cli_rejects_non_integer_seed(tmp_path, capsys):
    man = _write_manifest(tmp_path, {
        "seed": "tomorrow",
        "experiments": [{"id": "psd-audit", "n_schedule": [4, 5]}],
    })
    assert main(["audit", "--manifest", man]) == 2
    assert "error: seed:" in capsys.readouterr().err


@pytest.mark.parametrize("seed, flag", [
    (1.5, None), (True, None), ("12", None), (-3, None), (5, "-3"),
], ids=["float", "bool", "string", "negative", "negative-flag"])
def test_cli_rejects_bad_seed_before_any_experiment(tmp_path, capsys, seed, flag):
    out = tmp_path / "rep"
    man = _write_manifest(tmp_path, {
        "seed": seed,
        "out": str(out),
        "experiments": [{"id": "psd-audit", "n_schedule": [4, 5]}],
    })
    argv = ["audit", "--manifest", man] + (["--seed", flag] if flag else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: seed: expected a non-negative integer" in captured.err
    assert "running" not in captured.out
    assert not out.exists()


def test_cli_rejects_negative_seed_flag_without_manifest(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["audit", "--seed", "-3", "--out", str(out)]) == 2
    assert "error: seed: expected a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_cli_failing_experiment_keeps_earlier_rows(tmp_path, capsys):
    out = tmp_path / "rep"
    man = _write_manifest(tmp_path, {
        "seed": 5,
        "out": str(out),
        "experiments": [
            {"id": "rate", "psi": "heat", "n_schedule": [16, 64], "grid": 4096},
            {"id": "covering-net", "n_schedule": [32], "net_cap": 10},
        ],
    })
    assert main(["all", "--manifest", man]) == 2
    assert "error: covering-net: net budget exceeded" in capsys.readouterr().err
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "experiment,n,metric,value,bound,pass"
    assert len(lines) > 1
    assert all(line.startswith("rate,") for line in lines[1:])


@pytest.mark.parametrize("exp_id", ["isometry", "bridge-reach", "rate", "intertwining"])
def test_cli_rejects_empty_schedule_with_key_path(tmp_path, capsys, exp_id):
    out = tmp_path / "rep"
    man = _write_manifest(tmp_path, {
        "seed": 5,
        "out": str(out),
        "experiments": [{"id": exp_id, "n_schedule": []}],
    })
    assert main(["all", "--manifest", man]) == 2
    err = capsys.readouterr().err
    assert f"error: experiments[0]: n_schedule: {exp_id} needs at least one n" in err
    assert not out.exists()


def test_cli_runtime_error_keeps_earlier_rows(tmp_path, capsys, monkeypatch):
    def no_convergence(cfg):
        raise RuntimeError("power iteration did not converge for the operator norm")

    monkeypatch.setitem(EXPERIMENTS, "covering-net", no_convergence)
    out = tmp_path / "rep"
    man = _write_manifest(tmp_path, {
        "seed": 5,
        "out": str(out),
        "experiments": [
            {"id": "rate", "psi": "heat", "n_schedule": [16, 64], "grid": 4096},
            {"id": "covering-net"},
        ],
    })
    assert main(["all", "--manifest", man]) == 2
    err = capsys.readouterr().err
    assert "error: covering-net: power iteration did not converge" in err
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) > 1
    assert all(line.startswith("rate,") for line in lines[1:])
