import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzytorus
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


GOLDEN_ROWS = [
    ReportRow.make("psd-audit", 4, "psd_min_eig/heat", -1.5e-15, -1e-10),
    ReportRow.make("rate", None, "rate_constant", 0.1, math.inf),
    ReportRow.make("rate", 16, "norm_defect", -math.inf, 1e-12),
    ReportRow.make("isometry", 64, "isometry_norm_defect", math.nan, 0.05),
    ReportRow.make("isometry", None, "isometry_norm_trend_kendall", 1 / 3, 0.5),
]

GOLDEN_SUMMARY = (
    "isometry: FAIL (0/2 rows)\n"
    "psd-audit: PASS (1/1 rows)\n"
    "rate: FAIL (1/2 rows)\n"
)


def test_emit_report_csv_golden_bytes(tmp_path):
    report, summary = emit_report(GOLDEN_ROWS, _tiny_manifest(tmp_path))
    assert open(report, "rb").read() == (
        b"experiment,n,metric,value,bound,pass\n"
        b"psd-audit,4,psd_min_eig/heat,-1.4999999999999999e-15,-1e-10,true\n"
        b"rate,,rate_constant,0.10000000000000001,inf,true\n"
        b"rate,16,norm_defect,-inf,9.9999999999999998e-13,false\n"
        b"isometry,64,isometry_norm_defect,nan,0.050000000000000003,false\n"
        b"isometry,,isometry_norm_trend_kendall,0.33333333333333331,0.5,false\n"
    )
    assert open(summary, encoding="utf-8").read() == GOLDEN_SUMMARY


def test_emit_report_json_golden_bytes(tmp_path):
    report, summary = emit_report(GOLDEN_ROWS, _tiny_manifest(tmp_path, fmt="json"))
    assert open(report, "rb").read() == (
        b'[\n'
        b'  {"experiment": "psd-audit", "n": 4, "metric": "psd_min_eig/heat", '
        b'"value": "-1.4999999999999999e-15", "bound": "-1e-10", "pass": true},\n'
        b'  {"experiment": "rate", "n": null, "metric": "rate_constant", '
        b'"value": "0.10000000000000001", "bound": "inf", "pass": true},\n'
        b'  {"experiment": "rate", "n": 16, "metric": "norm_defect", '
        b'"value": "-inf", "bound": "9.9999999999999998e-13", "pass": false},\n'
        b'  {"experiment": "isometry", "n": 64, "metric": "isometry_norm_defect", '
        b'"value": "nan", "bound": "0.050000000000000003", "pass": false},\n'
        b'  {"experiment": "isometry", "n": null, "metric": "isometry_norm_trend_kendall", '
        b'"value": "0.33333333333333331", "bound": "0.5", "pass": false}\n'
        b']\n'
    )
    assert open(summary, encoding="utf-8").read() == GOLDEN_SUMMARY


def test_emit_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], _tiny_manifest(tmp_path))


def test_cli_audit_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    code = main(["audit", "--out", str(out1), "--seed", "11"])
    assert code == 0
    # stdout repeats the summary file's verdict lines
    summary = (out1 / "summary.txt").read_text()
    assert summary == "psd-audit: PASS (136/136 rows)\n"
    assert summary in capsys.readouterr().out
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
        "experiments": [{"id": "intertwining", "n_schedule": [16], "samples": "many"}],
    })
    assert main(["lip", "--manifest", man]) == 2
    assert "experiments[0]: samples: expected int" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "rep")


def test_cli_rejects_bad_schedule_with_key_path(tmp_path, capsys):
    man = _write_manifest(tmp_path, {
        "seed": 5,
        "experiments": [{"id": "psd-audit", "n_schedule": [6, 5]}],
    })
    assert main(["audit", "--manifest", man]) == 2
    err = capsys.readouterr().err
    assert "experiments[0]: n_schedule: " in err and "strictly increasing" in err


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
    ({"id": "intertwining", "psi": "bogus"}, "experiments[0]: psi: "),
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
    ({"id": "bridge-reach", "n_schedule": [8], "samples": 1, "eps_multiplier": 0},
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
    ({"id": "bridge-reach", "theta": [1, 2], "n_schedule": [8, 12], "samples": 1},
     "experiments[0]: n_schedule: schedule entries [12] are not admissible sizes m^(k+1) "
     "for m=2"),
    ({"id": "isometry", "cutoffs": [3]},
     "experiments[0].cutoffs: unknown configuration key for isometry"),
    ({"id": "isometry", "R": -1}, "experiments[0].R: unknown configuration key for isometry"),
    ({"id": "psd-audit", "psi": "heat"},
     "experiments[0].psi: unknown configuration key for psd-audit"),
    ({"id": "smoothing-tail", "eps_multiplier": 0.1},
     "experiments[0].eps_multiplier: unknown configuration key for smoothing-tail"),
    ({"id": "smoothing-tail", "n_schedule": [32, 64], "samples": 1},
     "experiments[0]: n_schedule: smoothing-tail builds one model and needs exactly one n"),
    ({"id": "covering-net", "n_schedule": [32, 64], "samples": 1},
     "experiments[0]: n_schedule: covering-net builds one model and needs exactly one n"),
    ({"id": "hp-ratio", "n_schedule": [32, 64], "samples": 1},
     "experiments[0]: n_schedule: hp-ratio builds one model and needs exactly one n"),
    ({"id": "hp-ratio", "psi": "word", "samples": 1},
     "experiments[0]: psi: hp-ratio compares the heat and the word length"),
    ({"id": "isometry", "grid": None}, "experiments[0]: grid: expected int, got NoneType"),
    ({"id": ["rate"]}, "experiments[0].id: unknown experiment id"),
    ({"id": "smoothing-tail", "cutoffs": [0]}, "experiments[0]: cutoffs: "),
    ({"id": "smoothing-tail", "cutoffs": [4, 2]}, "experiments[0]: cutoffs: "),
    ({"id": "smoothing-tail", "cutoffs": [24, 40], "samples": 1},
     "experiments[0]: cutoffs: cutoff 40 aliases mod n = 64"),
    ({"id": "isometry", "n_schedule": [8, 2048]},
     "experiments[0].n_schedule: clock_shift(2048) rejected: "),
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
        "band-bridge-reach-aliases", "n-schedule-fuzzy-not-admissible",
        "unread-cutoffs-isometry", "unread-R-isometry", "unread-psi-psd-audit",
        "unread-eps-multiplier-smoothing-tail", "two-n-smoothing-tail", "two-n-covering-net",
        "two-n-hp-ratio", "psi-word-hp-ratio", "grid-null", "id-not-a-string",
        "cutoffs-zero", "cutoffs-decreasing", "cutoffs-above-half-n",
        "n-schedule-model-rejects"])
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


def test_checked_in_manifests_validate(tmp_path):
    # the benchmark's workload manifests (read-only: workloads.py is loaded
    # from its file), and the default manifest of every experiment, which
    # must build the config ExperimentConfig builds from the same defaults
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, entries in workloads.WORKLOADS.items():
        man = manifest_from_dict(workloads.make_manifest(name, 0, str(tmp_path)))
        assert [c.experiment for c in man.experiments] == [e["id"] for e in entries]
    for exp_id in EXPERIMENTS:
        man = manifest_from_dict({"seed": 5, "experiments": [{"id": exp_id}]})
        assert man.experiments == (ExperimentConfig(exp_id, 5),)


def test_cli_rejects_non_integer_seed(tmp_path, capsys):
    man = _write_manifest(tmp_path, {
        "seed": "tomorrow",
        "experiments": [{"id": "psd-audit", "n_schedule": [4, 5]}],
    })
    assert main(["audit", "--manifest", man]) == 2
    assert "error: seed:" in capsys.readouterr().err


@pytest.mark.parametrize("seed, flag", [
    (1.5, None), (True, None), ("12", None), (-3, None), (5, "-3"), ("tomorrow", "-1"),
    (7.0, None), (None, None),
], ids=["float", "bool", "string", "negative", "negative-flag", "string-and-flag-minus-one",
        "integral-float", "null"])
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


def test_cli_seed_flag_reaches_every_config_of_a_manifest(tmp_path, monkeypatch, capsys):
    seen = []

    def record(cfg):
        seen.append((cfg.experiment, cfg.seed))
        return [ReportRow.make(cfg.experiment, None, "norm_defect", 0.0, 1.0)]

    monkeypatch.setattr("fuzzytorus.cli.run_experiment", record)
    man = _write_manifest(tmp_path, {
        "seed": 5,
        "out": str(tmp_path / "rep"),
        "experiments": [{"id": "rate"}, {"id": "psd-audit"}, {"id": "covering-net"}],
    })
    assert main(["all", "--manifest", man, "--seed", "9"]) == 0
    assert seen == [("rate", 9), ("psd-audit", 9), ("covering-net", 9)]

    # An entry's own seed would escape the flag, so entries carry none.
    seen.clear()
    man = _write_manifest(tmp_path, {
        "seed": 5,
        "out": str(tmp_path / "rep2"),
        "experiments": [{"id": "rate"}, {"id": "psd-audit", "seed": -1}],
    })
    assert main(["all", "--manifest", man, "--seed", "9"]) == 2
    err = capsys.readouterr().err
    assert "experiments[1].seed: unknown configuration key" in err
    assert "Traceback" not in err
    assert seen == []


@pytest.mark.parametrize("doc_seed", [None, "tomorrow"], ids=["missing", "invalid"])
def test_cli_seed_flag_stands_in_for_the_manifest_seed(tmp_path, capsys, doc_seed):
    doc = {"out": str(tmp_path / "rep"),
           "experiments": [{"id": "psd-audit", "n_schedule": [4, 5]}]}
    if doc_seed is not None:
        doc["seed"] = doc_seed
    assert main(["audit", "--manifest", _write_manifest(tmp_path, doc), "--seed", "3"]) == 0
    assert "running psd-audit (seed 3) ..." in capsys.readouterr().out


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


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
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


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_report_bytes_default_to_one_blas_thread(tmp_path):
    """A CLI run with the thread variables unset writes the bytes of a run
    at one BLAS thread (smoothing-tail's rows differ in their last digits at
    two threads)."""
    src = str(Path(fuzzytorus.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    reports = []
    for name, threads in (("unset", {}), ("one", dict.fromkeys(BLAS_VARS, "1"))):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "fuzzytorus.cli", "converge", "--seed", "7",
                        "--out", str(out)], env={**base, **threads}, check=True)
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]
