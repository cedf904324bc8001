import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hardydual import NotPositiveDefinite, cli, kernels
from hardydual.cli import STUDY_ORDER, main
from hardydual.corpus import BY_NAME, mass_single_trace
from hardydual.duality import build_dual
from oracle import golden_angle_points, sunflower_points

REPO = Path(__file__).resolve().parents[1]


def _write_config(path, **overrides):
    config = {
        "label": "test",
        "seed": 7,
        "grid": 1024,
        "degree": 40,
        "symbol": {"kind": "coefficients", "entries": {}},
        "masses": [{"point": [0.5, 0.0], "weight": 3.0}],
        "n_max": 12,
        "rho_list": [0.5],
        "N_list": [1],
        "studies": ["duality"],
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_duality_study_closed_form(tmp_path):
    cfg = tmp_path / "c.json"
    _write_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] is True
    rows = _read_csv(out / "duality.csv")
    assert float(rows[0]["residual"]) < 1e-9


def test_non_contractive_symbol_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    _write_config(cfg, symbol={"kind": "expression", "formula": "1.5*conj(t)"})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    config = _write_config(cfg)
    config["surprise"] = 1
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg)]) == 2


def test_n_range_is_an_unknown_key(tmp_path, capsys):
    # n_max is the one spelling of the sweep length
    cfg = tmp_path / "c.json"
    config = _write_config(cfg)
    del config["n_max"]
    config["n_range"] = [0, 12]
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown configuration keys: ['n_range']" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, b'{"grid": 1024,', b'\xff{}', b"[" * 100_000],
                         ids=["missing", "malformed", "not-utf8", "nested"])
def test_unreadable_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    if text is not None:
        cfg.write_bytes(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err


def test_origin_mass_with_duality_study_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    _write_config(cfg, masses=[{"point": [0.0, 0.0], "weight": 1.0}])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "need origin-free mass points" in err

def test_touching_symbol_exits_3(tmp_path):
    # |R| = 1 everywhere: a contraction, but no outer function; a fresh
    # process prints that in one stderr line, with no warning before it
    cfg = tmp_path / "c.json"
    _write_config(cfg, symbol={"kind": "expression", "formula": "conj(t)"},
                  masses=[], N_list=[0], grid=512, degree=8)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "hardydual", "run", str(cfg),
                           "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data failure:"), proc.stderr
    assert "touches 1" in lines[0]


@pytest.mark.parametrize("formula, message", [
    ("1e308*t", "sup |R| = 1e+308 exceeds 1 (not a contraction)"),
    ("1/(t-1)", "symbol has non-finite samples (NaN or inf)"),
    ("exp(1000*t)", "symbol has non-finite samples (NaN or inf)"),
], ids=["overflow-in-fft", "division-by-zero", "overflow-in-formula"])
def test_overflowing_symbol_exits_2_without_warnings(tmp_path, formula, message):
    # the README config with a symbol that overflows: the contraction check
    # prints the only stderr line, even where numpy's warnings are errors
    config = json.loads((REPO / "perfbench" / "readme_config.json").read_text())
    config["symbol"] = {"kind": "expression", "formula": formula}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "hardydual", "run", str(cfg), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("target, where", [("MassSet", ""),
                                           ("symbol_from_expression", ""),
                                           ("asymptotic_sweep", " (asymptotics study)")],
                         ids=["masses", "build-space", "study"])
def test_memory_error_exits_3(tmp_path, capsys, monkeypatch, target, where):
    # a refused allocation while parse_config builds the masses, while the
    # symbol is realized or in a study is a data failure of one line, not a
    # traceback, that names the study it was raised in; no report is written
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, refuse)
    cfg = tmp_path / "c.json"
    _write_config(cfg, symbol={"kind": "expression", "formula": "0.3*conj(t)"},
                  studies=["asymptotics", "duality"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"data failure: out of memory{where}\n"
    assert not (tmp_path / "o").exists()


def test_gate_failure_exits_4_report_written(tmp_path):
    cfg = tmp_path / "c.json"
    _write_config(cfg, gates={"identity": 1e-30, "theorem": 1e-30, "tau": 1e-30})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] is False
    assert (out / "duality.csv").exists()


def test_asymptotics_csv_matches_closed_form(tmp_path):
    cfg = tmp_path / "c.json"
    _write_config(cfg, studies=["asymptotics"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "asymptotics.csv")
    assert len(rows) == 13
    for row in rows:
        expected = mass_single_trace(int(row["n"]))
        assert abs(float(row["kernel_value"]) - expected) < 1e-10



@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_asymptotics_with_no_shift_from_four_on_exits_0(tmp_path, n_max):
    # below n_max 4 the monotone tail is empty: it has no rise and holds
    cfg = tmp_path / "c.json"
    _write_config(cfg, studies=["asymptotics"], n_max=n_max,
                  masses=[{"point": [0.5, 0.0], "weight": 1e-4}])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scalars"]["asymptotics"]["tail_monotone"] is True


def test_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "c.json"
    _write_config(cfg, studies=["asymptotics", "duality", "sandwich", "tau"],
                  grid=512, degree=24, n_max=6)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    for name in ("asymptotics.csv", "duality.csv", "sandwich.csv", "tau.csv",
                 "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_printed_convention_key(tmp_path):
    # the config alone sets the pairing and the gates
    cfg = tmp_path / "c.json"
    _write_config(cfg, studies=["duality", "sandwich"], convention="printed",
                  gates={"identity": 1.0, "theorem": 1.0, "tau": 1.0})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "duality.csv")
    assert float(rows[0]["residual"]) > 0.05  # printed pairing breaks the identity
    # and the sandwich dualizes its variants in the same pairing
    row, = _read_csv(out / "sandwich.csv")
    residuals = [float(row[f"identity_residual_{label}"])
                 for label in ("cutoff", "scaled", "both")]
    assert min(residuals) > 0.05
    summary = json.loads((out / "summary.json").read_text())
    assert summary["convention"] == "printed"


def test_convergence_study(tmp_path):
    cfg = tmp_path / "c.json"
    _write_config(
        cfg,
        studies=["convergence"],
        n_max=8,
        rho_list=[0.5, 0.9, 0.99],
        N_list=[0, 1],
        convergence={"grids": [256, 512, 1024], "degrees": [12, 24, 40]},
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    refinement = _read_csv(out / "convergence_refinement.csv")
    residuals = [float(r["identity_residual"]) for r in refinement]
    summary = json.loads((out / "summary.json").read_text())
    gate = summary["gates"][0]
    # the record is the rule: the residuals' largest rise against the
    # largest tolerance of the levels' Grams, TOL_PSD at these scales
    assert gate == {"name": "convergence.residual_monotone",
                    "value": kernels.largest_rise(residuals), "threshold": 1e-12,
                    "passed": True}
    rho_rows = _read_csv(out / "convergence_rho.csv")
    rho_values = [float(r["k_scaled"]) for r in rho_rows]
    assert rho_values == sorted(rho_values)  # K increases toward K(alpha) as rho -> 1
    cut_rows = _read_csv(out / "convergence_cutoff.csv")
    cut_values = [float(r["k_cutoff"]) for r in cut_rows]
    assert cut_values == sorted(cut_values, reverse=True)  # decreases toward K(alpha)
    assert summary["scalars"]["convergence"]["rho_sweep_monotone"] is True
    assert summary["scalars"]["convergence"]["cutoff_sweep_monotone"] is True


def test_full_study_list_passes(tmp_path):
    cfg = tmp_path / "c.json"
    _write_config(
        cfg,
        studies=["asymptotics", "duality", "sandwich", "theorem", "tau"],
        grid=1024,
        degree=32,
        n_max=8,
        symbol={"kind": "expression", "formula": "0.3*conj(t)"},
        masses=[{"point": [0.5, 0.0], "weight": 1.0},
                {"point": [-0.3333333333333333, 0.0], "weight": 0.8}],
        N_list=[1],
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    gate_names = {g["name"] for g in summary["gates"]}
    assert {"duality.identity_residual", "tau.unitarity",
            "theorem.membership_residual"} <= gate_names


def test_theorem_study_on_too_small_grid_exits_2(tmp_path, capsys):
    # the theorem study maps dual monomials up to u^8 back, which an 8-point
    # grid's analytic band cannot hold
    cfg = tmp_path / "c.json"
    _write_config(cfg, studies=list(STUDY_ORDER), grid=8, degree=1, n_max=1,
                  convergence={"grids": [8, 16], "degrees": [1, 2]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: the theorem study's converse power on a size-8 grid "
                   "must be an integer in 0..3, got 8\n")


def test_symbol_from_sample_file(tmp_path):
    nodes = np.exp(2j * np.pi * np.arange(512) / 512)
    values = 0.6 * np.conj(nodes)
    samples = [[float(v.real), float(v.imag)] for v in values]
    sample_path = tmp_path / "symbol.json"
    sample_path.write_text(json.dumps(samples))
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=512, degree=24,
                  symbol={"kind": "samples", "path": str(sample_path)},
                  masses=[], N_list=[0])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "duality.csv")
    assert abs(float(rows[0]["kernel_shifted"]) - 1.25) < 1e-10


def test_symbol_inline_samples_and_overrides(tmp_path):
    nodes = np.exp(2j * np.pi * np.arange(256) / 256)
    values = 0.6 * np.conj(nodes)
    samples = [[float(v.real), float(v.imag)] for v in values]
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=1024, degree=40,
                  symbol={"kind": "samples", "values": samples},
                  masses=[], N_list=[0])
    out = tmp_path / "out"
    # --grid must override the config so the 256 samples fit
    assert main(["run", str(cfg), "--out", str(out), "--grid", "256",
                 "--degree", "24"]) == 0
    rows = _read_csv(out / "duality.csv")
    assert abs(float(rows[0]["kernel_shifted"]) - 1.25) < 1e-10


def test_samples_with_both_values_and_path_exit_2(tmp_path, capsys):
    # neither source wins silently: inline 0.9 and a file of 0.3 are refused
    sample_path = tmp_path / "symbol.json"
    sample_path.write_text(json.dumps([[0.3, 0.0]] * 64))
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=64, degree=8, masses=[], N_list=[0],
                  symbol={"kind": "samples", "values": [[0.9, 0.0]] * 64,
                          "path": str(sample_path)})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "config error: a samples symbol takes 'values' or 'path', not both\n"
    assert not (tmp_path / "o").exists()


def test_wrong_sample_count_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=512, symbol={"kind": "samples", "values": [[0.1, 0.0]] * 17},
                  masses=[], N_list=[0])
    assert main(["run", str(cfg)]) == 2


def test_unread_tolerance_key_exits_2(tmp_path, capsys):
    # no tolerance is configurable: the sandwich derives its own from its
    # Grams, so any tolerances object, the constant's own value included,
    # is an unknown key
    cfg = tmp_path / "c.json"
    for tolerances in ({"order": 1e-10}, {"order": 1e-6}, {"psd": 10.0}, {}):
        _write_config(cfg, tolerances=tolerances, studies=["sandwich"])
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2, tolerances
        assert capsys.readouterr().err == \
            "config error: unknown configuration keys: ['tolerances']\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides", [
    {"gates": {"identity": "x"}},
    {"gates": {"identity": True}},
    {"masses": [{"point": [0.5, 0.0], "weight": True}]},
    {"masses": [{"point": [0.5, False], "weight": 1.0}]},
    {"seed": True},
    {"degree": True},
    {"N_list": [True]},
    {"label": [1, 2]},
    {"symbol": {"kind": "expression", "formula": "0*t/0"}},
    {"masses": [{"point": [float("nan"), 0.0], "weight": 1.0}]},
    {"masses": [{"point": [0.5, 0.0], "weight": float("inf")}]},
    {"symbol": {"kind": "coefficients", "entries": [0.1]}},
    {"studies": ["convergence"], "convergence": {"grids": 256, "degrees": 8}},
], ids=["gate-str", "gate-bool", "weight-bool",
        "point-bool", "seed-bool", "degree-bool", "cutoff-bool", "label-list",
        "nan-symbol", "nan-point", "inf-weight", "entries-list", "grids-int"])
def test_non_numeric_or_non_finite_value_exits_2(tmp_path, capsys, overrides):
    cfg = tmp_path / "c.json"
    _write_config(cfg, **overrides)
    with np.errstate(invalid="ignore", divide="ignore"):  # the NaN formula
        code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip()
    assert code == 2, err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err


def test_config_setting_hankel_exits_2(tmp_path, capsys):
    # the Hankel truncation is the grid's, not a configuration key
    cfg = tmp_path / "c.json"
    _write_config(cfg, studies=["asymptotics"], grid=512, degree=24, n_max=8,
                  hankel=256 - 32)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "config error: unknown configuration keys: ['hankel']\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "c.json", "--grid", "x"], "argument --grid: invalid int value: 'x'"),
    (["run", "c.json", "--degree=1.5"], "argument --degree: invalid int value: '1.5'"),
    (["run", "c.json", "--tol-gate", "1e-6"], "unrecognized arguments: --tol-gate 1e-6"),
    (["run", "c.json", "--convention", "printed"],
     "unrecognized arguments: --convention printed"),
    (["run"], "the following arguments are required: config"),
    ([], "the following arguments are required: command"),
    (["walk"], "argument command: invalid choice: 'walk'"),
    (["run", "c.json", "a\nb"], "unrecognized arguments: a\\nb"),
], ids=["grid", "degree", "tol-gate", "convention", "no-config", "no-command",
        "command", "extra"])
def test_rejected_command_line_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    # argparse's rejections, in the run subparser too, are one config error
    # line and a return code, not a usage message and SystemExit; the list
    # of choices after an invalid one is worded by the Python version.  The
    # convention and the gates are config keys only
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path / "c.json")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hardydual")


def test_coinciding_masses_exit_2(tmp_path, capsys):
    # points at a separation below TOL_BLASCHKE are refused when the masses are read
    cfg = tmp_path / "c.json"
    _write_config(cfg, masses=[{"point": [0.5, 0.0], "weight": 1.0},
                               {"point": [0.5 + 1e-10, 0.0], "weight": 1.0}])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("overrides", [
    {"gates": -1},
    {"gates": False},
    {"seed": -1, "studies": ["tau"]},
], ids=["gates-int", "gates-false", "seed-negative"])
def test_non_object_gates_or_negative_seed_exits_2(tmp_path, capsys, overrides):
    # each of these once ended in a traceback: the gate-key message iterated
    # a non-object, and the tau study's default_rng refused a negative seed
    cfg = tmp_path / "c.json"
    _write_config(cfg, **overrides)
    code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip()
    assert code == 2, err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("raw, flags", [
    ([], ["--grid", "256"]),
    ([1], ["--degree", "8"]),
], ids=["list-grid", "list-degree"])
def test_command_line_override_of_a_non_object_exits_2(tmp_path, capsys, raw, flags):
    # the overrides write into the loaded JSON, so its type is checked first
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    code = main(["run", str(cfg), "--out", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err.strip()
    assert code == 2, err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err


def test_failed_window_factorization_names_the_scale(tmp_path, capsys):
    # the Gram's smallest eigenvalue lies below its roundoff, order * eps *
    # (largest diagonal entry), so its own PD check refuses it: exit 3,
    # naming the Gram's scale
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=4096, degree=48, studies=["asymptotics"],
                  masses=[{"point": [0.5, 0.0], "weight": 1e16},
                          {"point": [0.999999, 0.0], "weight": 1e8}])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data failure:") and len(err.splitlines()) == 1, err
    assert "double precision" in err and "largest mass weight" in err


def test_gram_below_its_roundoff_names_the_scale(tmp_path, capsys):
    # one mass of weight 1e16: the Gram's roundoff, order * eps * 1e16, is
    # about 140, far above its smallest eigenvalue, so no K(0) read from it
    # means anything; the PD check refuses it: exit 3, naming the scale
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=4096, degree=48, studies=["asymptotics"],
                  masses=[{"point": [0.5, 0.0], "weight": 1e16}])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data failure:") and len(err.splitlines()) == 1, err
    assert "double precision" in err and "largest mass weight" in err
    assert err.endswith("(asymptotics study)")


@pytest.mark.parametrize("studies, builds", [
    (["duality", "theorem", "tau"], 1),
    (["asymptotics", "sandwich"], 0),
], ids=["dual-studies", "no-dual-study"])
def test_studies_share_one_dual(tmp_path, monkeypatch, studies, builds):
    # the dual data is built once per run, and only for a study that reads it
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    build = cli.dual_of
    monkeypatch.setattr(cli, "dual_of", counted)
    cfg = tmp_path / "c.json"
    _write_config(cfg, studies=studies)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == builds


def test_degenerate_masses_exit_2_in_every_study(tmp_path, capsys):
    # points 1e-7 apart are at pseudo-hyperbolic separation 1.33e-7, below
    # TOL_BLASCHKE: the masses are refused when they are read, whether or not
    # a study builds dual data
    cfg = tmp_path / "c.json"
    for studies in (["theorem", "tau"], ["asymptotics"]):
        _write_config(cfg, studies=studies,
                      masses=[{"point": [0.5, 0.0], "weight": 1.0},
                              {"point": [0.5 + 1e-7, 0.0], "weight": 1.0}])
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid masses: mass points 0.5+0j and 0.5000001+0j are at "
            "pseudo-hyperbolic separation 1.33e-07, below 1e-06\n")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count, studies, code", [
    (24, ["duality", "tau"], 0),
    (32, ["duality"], 3),
    (64, ["duality"], 3),
], ids=["24", "32", "64"])
def test_blaschke_family_runs_or_names_the_gram_scale(tmp_path, capsys, count, studies, code):
    # a separated golden-angle family at 4096/48: |B'(zeta_k)| falls to 4.4e-7
    # at 24 masses and 1e-18 at 64, and the dual weights 1/(nu |(1/T)'|^2)
    # grow with it until the dual Gram's scale leaves double precision
    cfg = tmp_path / "c.json"
    points = golden_angle_points(count)
    _write_config(cfg, grid=4096, degree=48, studies=studies,
                  symbol={"kind": "expression", "formula": "0.3*conj(t)"},
                  masses=[{"point": [z.real, z.imag], "weight": 1.0} for z in points])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "coinciding" not in err
    if code == 0:
        assert err == ""
        return
    assert err.startswith("data failure: Gram minimum eigenvalue ")
    assert "of the Gram's scale " in err
    assert err.endswith("sets that scale (a dual weight 1/(nu |(1/T)'(zeta_k)|^2) grows as "
                        "nu |(1/T)'(zeta_k)|^2 shrinks) (duality study)\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("count, cause", [
    (512, "of the Gram's scale "),
    (640, "the dual weight at mass point 0.0355756237+0j is beyond double range: "
          "|(1/T)'(zeta_k)| is 2.125e-166 (duality study)\n"),
], ids=["512", "640"])
def test_dual_weight_beyond_double_range_exits_3(tmp_path, capsys, count, cause):
    # a sunflower family at 4096/48: at 512 masses the dual weights reach
    # 1.5e264 and the dual Gram's scale is blamed; at 640 |(1/T)'(zeta_0)|^2
    # underflows, and the weight is refused at its point before any Gram
    cfg = tmp_path / "c.json"
    points = sunflower_points(count)
    _write_config(cfg, grid=4096, degree=48, studies=["duality"],
                  symbol={"kind": "expression", "formula": "0.3*conj(t)"},
                  masses=[{"point": [z.real, z.imag], "weight": 1.0} for z in points])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data failure: ") and len(err.splitlines()) == 1, err
    assert cause in err and "largest mass weight is" not in err


def test_overflow_names_the_sandwich_study(tmp_path, capsys):
    # a weight of 1e308 overflows the first Gram the sandwich study assembles;
    # the line names the largest weight, as when a Gram's scale is blamed on it
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=256, degree=16, studies=["sandwich"],
                  masses=[{"point": [0.5, 0.0], "weight": 2.0},
                          {"point": [-0.25, 0.0], "weight": 1e308}])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == ("data failure: overflow encountered in add: the "
                                       "data's scale is beyond double range; the largest "
                                       "mass weight is 1.000e+308 (sandwich study)\n")


@pytest.mark.parametrize("weight", [1e16, 1e300, 1e-16, 1e-300])
def test_extreme_mass_weight_names_the_gram_scale(tmp_path, capsys, weight):
    # the Gram (primal, or dual for a tiny weight) is too large for TOL_PSD to
    # be resolved; the message must say so, not blame |R|
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=256, degree=16,
                  masses=[{"point": [0.5, 0.0], "weight": weight}],
                  studies=list(STUDY_ORDER),
                  convergence={"grids": [128, 256], "degrees": [8, 16]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data failure:") and len(err.splitlines()) == 1
    assert "double precision" in err and "largest mass weight" in err
    assert "|R|" not in err


@pytest.mark.parametrize("weight", [1e-15, 1e-13])
def test_sub_tolerance_mass_weight_is_named(tmp_path, capsys, weight):
    # the diag(nu) block of the theorem study's Laurent Gram has the weight
    # itself as its minimum eigenvalue; the weight, not |R|, is the cause
    def failure(studies):
        cfg = tmp_path / "c.json"
        _write_config(cfg, grid=256, degree=16,
                      masses=[{"point": [0.5, 0.0], "weight": weight}],
                      studies=studies,
                      convergence={"grids": [128, 256], "degrees": [8, 16]})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("data failure:") and len(err.splitlines()) == 1
        assert "|R|" not in err
        return err

    err = failure(list(STUDY_ORDER))
    if weight == 1e-15:
        # the dual weight, about 5.6e14, puts the dual Gram's roundoff (2.1)
        # above its smallest eigenvalue (0.94), so the duality study stops
        # first, naming the scale
        assert "double precision" in err and "largest mass weight" in err
        assert err.endswith("(duality study)")
        err = failure(["theorem"])
    assert f"is the mass weight {weight:.3e}" in err

def test_symbol_near_one_names_r(tmp_path, capsys):
    # a true |R| -> 1 failure keeps its cause
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=256, degree=16, masses=[], N_list=[0],
                  symbol={"kind": "expression", "formula": "0.9999999999999*conj(t)"},
                  studies=["asymptotics"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data failure:") and len(err.splitlines()) == 1
    assert "|R| too close to 1" in err and "double precision" not in err


def test_formula_cannot_run_code(tmp_path):
    # attribute access and boolean operators are outside the formula grammar
    cfg = tmp_path / "c.json"
    formula = "().__class__.__base__.__subclasses__()[0].__name__ and 0.1"
    _write_config(cfg, symbol={"kind": "expression", "formula": formula})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_readme_config_runs_without_scipy(tmp_path):
    # scipy blocked: any import of it raises ImportError; the report must be
    # byte-identical to a run in this process
    config = REPO / "perfbench" / "readme_config.json"
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    script = ("import sys; sys.modules['scipy'] = None; "
              "from hardydual.cli import main; "
              f"sys.exit(main(['run', {str(config)!r}, '--out', {str(blocked)!r}]))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(["run", str(config), "--out", str(free)]) == 0
    names = sorted(p.name for p in free.glob("*.csv"))
    assert names == sorted(p.name for p in blocked.glob("*.csv"))
    for name in names + ["summary.json"]:
        assert (blocked / name).read_bytes() == (free / name).read_bytes(), name


def test_order_violation_rows_and_strict_summary(tmp_path, monkeypatch):
    # with every PSD margin read as -1, every sandwich row violates the PSD
    # order: its row keeps its numbers, its gate records the row's own
    # margin and tolerance, and summary.json stays strict JSON
    monkeypatch.setattr(kernels, "_psd_margin", lambda upper, lower, out: -1.0)
    config = json.loads((REPO / "perfbench" / "readme_config.json").read_text())
    config.update(studies=["sandwich"])
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 4
    rows = _read_csv(out / "sandwich.csv")
    assert [float(row["rho"]) for row in rows] == config["rho_list"]
    for row in rows:
        assert "error" not in row and all(math.isfinite(float(v)) for v in row.values())
        assert float(row["psd_margin_cutoff"]) == float(row["psd_margin_scaled"]) == -1.0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    gates = {gate["name"]: gate for gate in summary["gates"]}
    for rho in config["rho_list"]:
        assert gates[f"sandwich.order[N=1,rho={rho}]"] == {
            "name": f"sandwich.order[N=1,rho={rho}]", "value": -1.0,
            "threshold": -1e-10, "passed": False}
    assert gates["sandwich.worst_margin"] == {
        "name": "sandwich.worst_margin", "value": -1.0, "threshold": -1e-10, "passed": False}
    assert summary["all_passed"] is False


def test_a_negative_upper_chain_alone_fails_the_order_gates(tmp_path, monkeypatch):
    # T_e^rho(0) read at half its value breaks only the upper chain
    # K(cutoff) <= (T_e^rho(0)/T_e(0)) K(both); the heavy weight makes the
    # tolerance its Grams' roundoff, 1.09e-6
    dual_parts = kernels._dual_parts

    def halved(space, convention):
        parts, te0 = dual_parts(space, convention)
        return parts, te0 * (0.5 if space.rho != 1.0 else 1.0)

    monkeypatch.setattr(kernels, "_dual_parts", halved)
    masses = [{"point": [0.5, 0.0], "weight": 3.0}, {"point": [-0.3, 0.4], "weight": 1e8}]
    code, gates = _sandwich_summary(tmp_path, masses=masses)
    assert code == 4
    config = cli.parse_config(json.loads((tmp_path / "c.json").read_text()))
    report = kernels.sandwich_check(cli.build_space(config), 1, 0.5, 0, 48)
    assert report.tolerance == pytest.approx(1.09e-6, rel=1e-2)
    assert min(report.margin_cutoff, report.margin_scaled, report.psd_margin_cutoff,
               report.psd_margin_scaled) >= -report.tolerance
    assert report.chain_upper_slack < -report.tolerance
    assert gates["sandwich.order[N=1,rho=0.5]"] == {
        "name": "sandwich.order[N=1,rho=0.5]", "value": report.chain_upper_slack,
        "threshold": -report.tolerance, "passed": False}
    assert gates["sandwich.worst_margin"] == {
        "name": "sandwich.worst_margin", "value": report.chain_upper_slack,
        "threshold": -report.tolerance, "passed": False}


def test_a_nonpositive_kernel_norm_in_the_sandwich_exits_3(tmp_path, capsys, monkeypatch):
    # the orderings are reported, but a Gram whose kernel norm comes out
    # nonpositive is unusable, and that still raises: here every kernel is
    # solved from -G
    monkeypatch.setattr(kernels, "kernel_at_origin",
                        lambda gram: kernels.kernel_at_point(-gram, 0.0))
    with pytest.raises(NotPositiveDefinite, match="^kernel norm came out nonpositive; "
                                                  "Gram unusable$"):
        kernels.kernel_at_origin(np.eye(3))
    cfg = tmp_path / "c.json"
    _write_config(cfg, studies=["sandwich"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == ("data failure: kernel norm came out nonpositive; "
                                       "Gram unusable (sandwich study)\n")
    assert not (tmp_path / "o").exists()


def _sandwich_summary(tmp_path, **overrides):
    cfg = tmp_path / "c.json"
    _write_config(cfg, **{"grid": 4096, "degree": 48, "studies": ["sandwich"], **overrides})
    out = tmp_path / "o"
    code = main(["run", str(cfg), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    return code, {gate["name"]: gate for gate in summary["gates"]}


def test_sandwich_with_a_hankel_term_checks_no_lower_chain(tmp_path):
    # K(scaled) >= (B(0)/B^N(0)) K(both) fails here by 2.2e-2 at rho 0.99:
    # it is not a theorem once R is nonzero, and the study no longer checks it
    code, gates = _sandwich_summary(
        tmp_path, symbol={"kind": "expression", "formula": "0.8*conj(t)"},
        masses=[{"point": [0.5, 0.0], "weight": 2.0}], N_list=[0],
        rho_list=[0.5, 0.99])
    assert code == 0
    assert not any(name.startswith("sandwich.order") for name in gates)
    assert gates["sandwich.worst_margin"]["threshold"] == -1e-10


def test_sandwich_judges_a_heavy_weight_against_its_roundoff(tmp_path):
    # dropping the weight-1e8 mass leaves Gram(alpha) - Gram(cutoff) PSD by
    # construction, yet eigvalsh reads -1.2e-8 in roundoff; the tolerance is
    # 49 eps (1 + 3 + 1e8) = 1.09e-6 on the order-49 Grams.  The identity
    # residual sits at 4.9e-10 on every convergence level, rising by 5.3e-15
    # in roundoff, which the levels' Grams, of tolerance 4.35e-6, cannot tell
    # from a plateau
    code, gates = _sandwich_summary(
        tmp_path, masses=[{"point": [0.5, 0.0], "weight": 3.0},
                          {"point": [-0.3, 0.4], "weight": 1e8}],
        studies=["sandwich", "convergence"],
        convergence={"grids": [1024, 2048, 4096], "degrees": [24, 36, 48]})
    assert code == 0
    gate = gates["sandwich.worst_margin"]
    assert gate["value"] < -1e-10
    assert gate["threshold"] == pytest.approx(-1.09e-6, rel=1e-2)
    gate = gates["convergence.residual_monotone"]
    assert 0 < gate["value"] < 1e-13
    assert gate["threshold"] == pytest.approx(4.35e-6, rel=1e-2)
    assert gate["passed"] is (gate["value"] <= gate["threshold"])


def test_a_residual_growing_per_level_fails_the_convergence_gate(tmp_path, monkeypatch):
    # the README config with an identity residual that grows 10x per
    # refinement level: 1e-9, 1e-8, 1e-7 added at grids 1024, 2048, 4096
    level = {1024: 0, 2048: 1, 4096: 2}
    identity = cli.duality_identity

    def grown(space, dual, degree):
        rep = identity(space, dual, degree)
        return dataclasses.replace(
            rep, residual=rep.residual + 1e-9 * 10 ** level[space.grid.size])

    monkeypatch.setattr(cli, "duality_identity", grown)
    out = tmp_path / "o"
    assert main(["run", str(REPO / "perfbench" / "readme_config.json"),
                 "--out", str(out)]) == 4
    residuals = [float(r["identity_residual"])
                 for r in _read_csv(out / "convergence_refinement.csv")]
    summary = json.loads((out / "summary.json").read_text())
    assert [g["name"] for g in summary["gates"] if not g["passed"]] == \
        ["convergence.residual_monotone"]
    assert summary["gates"][-1] == {
        "name": "convergence.residual_monotone", "value": residuals[2] - residuals[0],
        "threshold": 1e-12, "passed": False}
    assert summary["gates"][-1]["value"] == pytest.approx(9.9e-8, rel=1e-6)



@pytest.mark.parametrize("step, code", [(1e-7, 0), (1e-5, 4)])
def test_a_heavy_weight_convergence_gate_is_blind_below_its_tolerance(
        tmp_path, monkeypatch, step, code):
    # the weight-1e8 pair's Grams resolve the identity residual only to
    # order * eps * (largest diagonal) = 2.2e-6 at degree 24: a residual
    # that grows by 1e-7 from grid 256 to 512 is within roundoff and passes,
    # one that grows by 1e-5 fails
    identity = cli.duality_identity

    def grown(space, dual, degree):
        rep = identity(space, dual, degree)
        return dataclasses.replace(rep, residual=rep.residual + step * (space.grid.size // 512))

    monkeypatch.setattr(cli, "duality_identity", grown)
    cfg = tmp_path / "c.json"
    _write_config(cfg, degree=24, studies=["convergence"],
                  masses=[{"point": [0.5, 0.0], "weight": 3.0},
                          {"point": [-0.3, 0.4], "weight": 1e8}],
                  convergence={"grids": [256, 512], "degrees": [12, 24]})
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == code
    residuals = [float(r["identity_residual"])
                 for r in _read_csv(out / "convergence_refinement.csv")]
    gate = json.loads((out / "summary.json").read_text())["gates"][0]
    assert gate["name"] == "convergence.residual_monotone"
    assert gate["value"] == residuals[1] - residuals[0] > step / 2
    assert gate["threshold"] == pytest.approx(2.22e-6, rel=1e-2)
    assert gate["passed"] is (code == 0)


def test_samples_symbol_with_a_coarser_convergence_grid_exits_2(tmp_path, capsys):
    # samples exist on one grid; the config is refused before any study
    # runs, not after the asymptotics and duality studies
    nodes = np.exp(2j * np.pi * np.arange(256) / 256)
    samples = [[float(v.real), float(v.imag)] for v in 0.3 * np.conj(nodes)]
    cfg = tmp_path / "c.json"
    raw = _write_config(cfg, grid=256, degree=16, n_max=8,
                        symbol={"kind": "samples", "values": samples},
                        studies=["asymptotics", "duality", "convergence"],
                        convergence={"grids": [128, 256], "degrees": [8, 16]})
    message = "a samples symbol fixes the grid: every convergence grid must equal grid 256"
    with pytest.raises(cli.ConfigError, match=message):
        cli.parse_config(raw)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()
    # the same samples on every level run
    raw["convergence"] = {"grids": [256, 256], "degrees": [8, 16]}
    cli.parse_config(raw)
    # --grid is applied first: the override must equal every convergence grid
    raw["grid"] = 128
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--grid", "256", "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("convergence, message", [
    (5, "convergence needs an object with 'grids' and 'degrees'"),
    (None, "convergence needs an object with 'grids' and 'degrees'"),
    ({"grids": [1024, 512], "degrees": [8, 8]},
     "convergence level (512, 8) does not refine (1024, 8)"),
    ({"grids": [4096, 2048, 1024], "degrees": [48, 36, 24]},
     "convergence level (2048, 36) does not refine (4096, 48)"),
    ({"grids": [512, 1024], "degrees": [24, 16]},
     "convergence level (1024, 16) does not refine (512, 24)"),
    ({"grids": [512, 512], "degrees": [16, 16]},
     "convergence level (512, 16) does not refine (512, 16)"),
    ({"grids": [512, 1024.0], "degrees": [16, 24]},
     "convergence grid must be an integer >= 8, got 1024.0"),
    ({"grids": [512, 1024], "degrees": [16, True]},
     "convergence degree must be an integer >= 0, got True"),
], ids=["int", "null", "coarser-grid", "coarsening", "lower-degree", "equal", "float-grid",
        "bool-degree"])
def test_a_convergence_block_is_checked_whenever_given(tmp_path, capsys, convergence, message):
    # without the convergence study too; a ladder must refine level by level
    cfg = tmp_path / "c.json"
    raw = _write_config(cfg, studies=["asymptotics"], n_max=8, convergence=convergence)
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.parse_config(raw)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_refining_ladder_that_holds_one_axis_runs(tmp_path):
    cfg = tmp_path / "c.json"
    _write_config(cfg, studies=["convergence"], n_max=8,
                  convergence={"grids": [512, 512, 1024], "degrees": [16, 24, 24]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("entries, key", [
    ({"+1": 0.3}, "+1"),
    ({" -1 ": 0.3}, " -1 "),
    ({"-1_0": 0.3}, "-1_0"),
    ({"-１": 0.3}, "-１"),
    ({"-0": 0.3}, "-0"),
    ({"-1": 0.3, "-01": 0.1}, "-01"),
], ids=["plus", "spaces", "underscore", "fullwidth", "minus-zero", "collision"])
def test_a_coefficient_key_not_in_canonical_decimal_form_exits_2(tmp_path, capsys,
                                                                entries, key):
    # each of these once ran, read by int(); the collision ran with r_{-1} = 0.1
    cfg = tmp_path / "c.json"
    _write_config(cfg, symbol={"kind": "coefficients", "entries": entries})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: coefficient key {key!r} is not an "
                                       "integer in canonical decimal form\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"grid": 1024.0}, "grid must be an integer >= 8, got 1024.0"),
    ({"grid": 1000}, "grid must be a power of two >= 8, got 1000"),
    ({"degree": 512}, "degree must be an integer in 0..511, got 512"),
    ({"n_max": 0}, "n_max must be an integer >= 1, got 0"),
    ({"N_list": [1, -1]}, "N_list entry must be an integer >= 0, got -1"),
    ({"N_list": []}, "N_list must be a nonempty list"),
], ids=["seed-bool", "grid-float", "grid-1000", "degree-high", "n_max-0", "cutoff-negative",
        "cutoff-empty"])
def test_config_integers_take_the_library_rule(tmp_path, capsys, overrides, message):
    cfg = tmp_path / "c.json"
    _write_config(cfg, **overrides)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_canonical_coefficient_keys_build_their_symbol(tmp_path):
    cfg = tmp_path / "c.json"
    raw = _write_config(cfg, symbol={"kind": "coefficients",
                                     "entries": {"-1": 0.3, "0": 0.1, "2": [0.0, 0.05]}})
    symbol = cli.build_space(cli.parse_config(raw)).symbol
    grid = symbol.grid.size
    assert symbol.coeffs[[grid - 1, 0, 2]].tolist() == [0.3, 0.1, 0.05j]
    assert np.count_nonzero(symbol.coeffs) == 3


def _spied_studies(monkeypatch):
    """The names of the studies called, in order, each still run."""
    called = []

    def spy(study, func):
        def run_study(*args):
            called.append(study)
            return func(*args)
        return run_study

    monkeypatch.setattr(cli, "_STUDY_FUNCS",
                        {study: spy(study, func) for study, func in cli._STUDY_FUNCS.items()})
    return called


def test_a_coefficient_key_past_a_convergence_grid_exits_2_before_any_study(
        tmp_path, capsys, monkeypatch):
    # key 600 fits grid 4096 but not the first convergence grid, 1024: the
    # config is refused before the first study, not after five of them
    called = _spied_studies(monkeypatch)
    config = json.loads((REPO / "perfbench" / "readme_config.json").read_text())
    config["symbol"] = {"kind": "coefficients", "entries": {"-1": 0.3, "600": 0.1}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "config error: coefficient index must be an integer in -511..511, got 600\n"
    assert called == [] and not (tmp_path / "o").exists()
    # a block the run does not realize is not judged by the key: the five
    # studies run and write their report (its identity gates fail, exit 4)
    config["studies"].remove("convergence")
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert called == config["studies"] and (tmp_path / "o" / "summary.json").exists()


def test_a_symbol_past_one_on_a_finer_level_grid_exits_2_late(tmp_path, capsys, monkeypatch):
    # a bump at the first odd node of the 512-point grid, which the 256-point
    # grid misses: only realizing the symbol on the level's grid finds it
    called = _spied_studies(monkeypatch)
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=256, degree=16, n_max=8, studies=["duality", "convergence"],
                  symbol={"kind": "expression",
                          "formula": "0.3*conj(t) + exp(-1e5*abs(t - exp(1j*pi/256))**2)"},
                  convergence={"grids": [256, 512], "degrees": [8, 16]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sup |R| = 1.") and err.endswith(
        " exceeds 1 (not a contraction)\n")
    assert called == ["duality", "convergence"] and not (tmp_path / "o").exists()


def test_a_run_builds_its_masses_once(tmp_path, monkeypatch):
    # parse_config builds the MassSet; the convergence levels realize only the symbol
    built = []

    def counted(*args):
        built.append(args)
        return mass_set(*args)

    mass_set = cli.MassSet
    monkeypatch.setattr(cli, "MassSet", counted)
    assert main(["run", str(REPO / "perfbench" / "readme_config.json"),
                 "--out", str(tmp_path / "o")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("overrides, message", [
    ({"masses": [{"point": [0.5, 0.0], "weight": -1.0}]},
     "invalid masses: all mass weights must be strictly positive"),
    ({"masses": [{"point": [0.5, 0.0], "weight": math.nan}]},
     "invalid masses: mass points and weights must be finite"),
    ({"masses": [{"point": [0.5, 0.0], "weight": "3"}]}, "mass weights must be numbers"),
    ({"masses": [{"point": [1.5, 0.0], "weight": 1.0}]},
     "invalid masses: all mass points must lie strictly inside the unit disk"),
    ({"masses": [{"point": [0.5, 0.0], "weight": 10 ** 400}]},
     "invalid masses: int too large to convert to float"),
    ({"masses": [{"point": [10 ** 400, 0.0], "weight": 1.0}]},
     "invalid masses: int too large to convert to float"),
    ({"symbol": {"kind": "coefficients", "entries": {"-1": 10 ** 400}}},
     "cannot build symbol: int too large to convert to float"),
    ({"gates": {"tau": 10 ** 400}}, "gate thresholds must be positive finite numbers"),
    ({"grid": 64, "degree": 8, "symbol": {"kind": "samples", "values": [0.1, 0.2, 0.3]}},
     "cannot build symbol: expected 64 grid samples, got shape (3,)"),
    ({"grid": 64, "degree": 8, "symbol": {"kind": "samples", "values": {"0": 0.1}}},
     "samples must be a list"),
    ({"convention": "Printed"}, "convention must be 'unitary' or 'printed', got 'Printed'"),
], ids=["weight-negative", "weight-nan", "weight-string", "point-outside", "weight-huge-int",
        "point-huge-int", "coefficient-huge-int", "gate-huge-int", "samples-short",
        "samples-object", "convention"])
def test_library_judges_the_config(tmp_path, capsys, overrides, message):
    # each of these is one line from the library's own rule; before, an int
    # past double range ended in a traceback
    cfg = tmp_path / "c.json"
    _write_config(cfg, **overrides)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_the_config_convention_takes_the_library_judge(tmp_path):
    raw = _write_config(tmp_path / "c.json", convention="guess")
    with pytest.raises(ValueError) as library:
        build_dual(BY_NAME["mass_single"].space(256), "guess")
    with pytest.raises(cli.ConfigError) as config:
        cli.parse_config(raw)
    assert str(config.value) == str(library.value)


def test_readme_config_never_imports_numpy_random(tmp_path):
    # the tau study draws from the standard library's generator; numpy.random
    # alone would add about 6 MB to the run's peak memory.  numpy.ma, which
    # np.union1d imports, costs about 11 ms of start-up
    config = REPO / "perfbench" / "readme_config.json"
    script = ("import sys; from hardydual.cli import main; "
              f"code = main(['run', {str(config)!r}, '--out', {str(tmp_path / 'o')!r}]); "
              "print('numpy.random' in sys.modules, 'numpy.ma' in sys.modules); "
              "sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


@pytest.mark.parametrize("overrides", [
    {"grid": 16384, "degree": 64, "studies": ["duality", "theorem", "tau"],
     "masses": [{"point": [0.5, 0.0], "weight": 3.0},
                {"point": [-0.3, 0.4], "weight": 0.8}]},
    {"grid": 32768, "degree": 16, "studies": ["asymptotics"]},
], ids=["16384-vector-studies", "32768-asymptotics"])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, overrides):
    # OpenBLAS splits a complex dot of more than 10000 elements over its
    # threads; every grid-length sum is taken in fixed chunks below that
    config = json.loads((REPO / "perfbench" / "readme_config.json").read_text())
    config.update(overrides)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "hardydual", "run", str(cfg),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv")) + ["summary.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("path", [0, 2], ids=["stdin", "stderr"])
def test_non_string_sample_path_exits_2(tmp_path, path):
    # an integer path is a file descriptor to open(): 0 read the samples from
    # stdin, and 2 closed stderr before the error could be printed; a fresh
    # process, so that no descriptor of the test runner is at stake
    cfg = tmp_path / "c.json"
    _write_config(cfg, grid=64, degree=8, masses=[], N_list=[0],
                  symbol={"kind": "samples", "path": path})
    samples = json.dumps([[0.0, 0.0]] * 64)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "hardydual", "run", str(cfg),
                           "--out", str(tmp_path / "o")], env=env, input=samples,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["config error: symbol path must be a nonempty "
                                        "printable string"]


@pytest.mark.parametrize("output, symbol", [
    ({"dir": 5}, None), ({"dir": None}, None), ({"dir": ["o"]}, None),
    ({"dir": {"o": 1}}, None), ({"dir": ""}, None), ({"dir": "o\nut"}, None),
    ({}, {"kind": "expression"}),
], ids=["int", "null", "list", "object", "empty", "newline", "no-formula"])
def test_bad_output_dir_or_formula_exits_2(tmp_path, capsys, monkeypatch, output, symbol):
    monkeypatch.chdir(tmp_path)  # where a report with no usable dir would go
    cfg = tmp_path / "c.json"
    _write_config(cfg, output=output, **({"symbol": symbol} if symbol else {}))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")


def test_unwritable_output_exits_2(tmp_path, capsys):
    # --out naming an existing file: the report cannot be written
    cfg = tmp_path / "c.json"
    _write_config(cfg)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", str(cfg), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: cannot write the report")


@pytest.mark.parametrize("weight, study", [
    (1e308, "asymptotics"), (1e308, "duality"), (1e308, "sandwich"),
    (5e-324, "duality"), (5e-324, "sandwich"),
])
def test_mass_weight_beyond_double_range_exits_3(tmp_path, capsys, weight, study):
    # Grams or dual weights that overflow, or a shifted weight nu |zeta|^2
    # that underflows: one data-failure line, no warning and no traceback
    cfg = tmp_path / "c.json"
    _write_config(cfg, masses=[{"point": [0.5, 0.0], "weight": weight}], studies=[study])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data failure: ")


# --- mutations of the README config -----------------------------------------------

# the README config at 256/16; convergence levels fit n_max 16 (d + n_max < g/2).
# Its gates are the defaults, given, so that mutations reach them
_FUZZ_BASE = {**json.loads((REPO / "perfbench" / "readme_config.json").read_text()),
              "grid": 256, "degree": 16, "gates": dict(cli._DEFAULT_GATES),
              "convergence": {"grids": [64, 128, 256], "degrees": [8, 12, 16]}}


def _fuzz_paths(node, prefix=()):
    """Every key path of a config, nested keys and list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _fuzz_paths(value, prefix + (key,))


# no "/" or ".": a mutated output.dir stays inside the run's directory
_fuzz_text = st.text(alphabet="tj*+-()01 ab\n", max_size=8)
_fuzz_scalar = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, 2]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.5, -0.5, 1e-300]),
    _fuzz_text)
_fuzz_value = st.one_of(_fuzz_scalar, st.lists(_fuzz_scalar, max_size=3),
                        st.dictionaries(_fuzz_text, _fuzz_scalar, max_size=2))
_fuzz_mutations = st.lists(st.tuples(st.sampled_from(list(_fuzz_paths(_FUZZ_BASE))),
                                     _fuzz_value), min_size=1, max_size=2)
# command-line overrides of grid and degree, the only ones there are, written
# --flag=value so that a negative value is not read as an option; grids stop
# at 1024, since a config cannot yet be refused for its size, and degrees stop
# at 64 where a grid can hold them, for speed.  The strings are values that
# argparse itself rejects.
_fuzz_rejected = ["", "x", "1.5", "1e3"]
_fuzz_overrides = st.lists(st.one_of(
    st.tuples(st.just("--grid"),
              st.sampled_from([2 ** k for k in range(11)] + [0, -256, 3, 100, 1000]
                              + _fuzz_rejected)),
    st.tuples(st.just("--degree"),
              st.sampled_from([-1, 0, 1, 8, 16, 48, 64, 511, 4096] + _fuzz_rejected))),
    max_size=3)


@st.composite
def _fuzz_band(draw):
    """(config keys, top, past): a config on a grid of 32 to 1024 whose highest
    exponent, top = grid/2 - 1 the band's last, is reached, or passed by one,
    by the degree (degree + n_max with the asymptotics study), by n_max, or by
    the top convergence level's degree + n_max."""
    grid = draw(st.sampled_from([2 ** k for k in range(5, 11)]))
    limit = draw(st.sampled_from(["degree", "n_max", "convergence"]))
    past = draw(st.booleans())
    studies = draw(st.lists(st.sampled_from(STUDY_ORDER[:5]), min_size=1, max_size=2,
                            unique=True))
    top = grid // 2 - 1
    keys = {"grid": grid, "degree": 8, "n_max": draw(st.sampled_from([1, 2, 4]))}
    if limit == "degree":
        asymptotics = keys["n_max"] if "asymptotics" in studies else 0
        keys["degree"] = top - asymptotics + past
    elif limit == "n_max":
        studies = ["asymptotics", *studies]
        keys["degree"] = draw(st.sampled_from([0, 1, 8]))
        keys["n_max"] = top - keys["degree"] + past
    else:  # the lower level holds degree 0 + n_max <= 7 on the coarsest grid, 16
        studies = [*studies, "convergence"]
        keys["convergence"] = {"grids": [grid // 2, grid],
                               "degrees": [0, top - keys["n_max"] + past]}
    return {**keys, "studies": list(dict.fromkeys(studies))}, top, past


@given(_fuzz_mutations, _fuzz_overrides, st.none() | _fuzz_band())
@example([(("output", "dir"), 5)], [], None)
@example([(("output", "dir"), None)], [], None)
@example([(("symbol",), {"kind": "expression"})], [], None)
@example([(("gates", "tau"), -math.inf)], [("--grid", 1024), ("--degree", 64)], None)
@example([(("convention",), "bad")], [("--grid", "x")], None)
@example([], [], ({"grid": 1024, "degree": 511, "n_max": 1, "studies": ["theorem"]}, 511, False))
@example([], [], ({"grid": 32, "degree": 15, "n_max": 1, "studies": ["asymptotics"]}, 15, True))
@settings(deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_readme_config_exits_cleanly(mutations, overrides, band):
    # a documented exit code, no exception, one stderr line for exits 2 and
    # 3 and none for 0 and 4; warnings count as stderr output.  A band draw
    # replaces the mutations: at the band's edge the config reaches its
    # studies (exit 0, 3 or 4), and one past it, it exits 2 naming the exponent
    config = copy.deepcopy(_FUZZ_BASE)
    if band is not None:
        config.pop("convergence")
        config.update(band[0])
        mutations, overrides = [], []
    for path, value in mutations:
        node = config
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced a node on the path
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            Path("c.json").write_text(json.dumps(config))
            code = main(["run", "c.json", *(f"{flag}={value}" for flag, value in overrides)])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    assert not caught, [str(w.message) for w in caught]
    text = err.getvalue()
    if code in (0, 4):
        assert text == "", text
    else:
        assert text.count("\n") == 1 and text.endswith("\n"), text
    if band is not None:
        _, top, past = band
        assert (code == 2) == past, (band, text)
        assert not past or (text.startswith("config error: ")
                            and text.endswith(f"0..{top}, got {top + 1}\n")), text
