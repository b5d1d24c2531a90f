import json
import subprocess
import sys

import numpy as np
import pytest

from gpchannels.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_mub_command_emits_valid_family(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code, _, _ = run_cli(["mub", "--d", "3", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["d"] == 3
    assert len(payload["bases"]) == 4
    from gpchannels.mub import mub_family_from_dict

    fam = mub_family_from_dict(payload)
    assert fam.is_maximal


def test_mub_command_rejects_nonprime(capsys):
    code, _, err = run_cli(["mub", "--d", "6"], capsys)
    assert code == 2
    assert "no built-in construction" in err


def test_validate_channel_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, "ch.json", {"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.1]})
    code, out, _ = run_cli(["validate", spec], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["channel"]["cptp"] is True
    assert report["channel"]["eigenvalues"] == pytest.approx([0.6, 0.6, 0.6])


def test_validate_mub_file(tmp_path, capsys):
    code, _, _ = run_cli(["mub", "--d", "2", "--out", str(tmp_path / "fam.json")], capsys)
    assert code == 0
    code, out, _ = run_cli(["validate", str(tmp_path / "fam.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["family"]["passed"] is True


def test_validate_rejects_corrupt_mub_file(tmp_path, capsys):
    code, _, _ = run_cli(["mub", "--d", "2", "--out", str(tmp_path / "fam.json")], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "fam.json").read_text())
    payload["bases"][1][0][0][0] *= 1.01
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    code, _, err = run_cli(["validate", str(tmp_path / "bad.json")], capsys)
    assert code == 2
    assert "validation" in err


def test_help_smoke(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "analyze" in capsys.readouterr().out


def test_analyze_identity_channel(tmp_path, capsys):
    spec = write_spec(tmp_path, "ident.json", {"d": 2, "probabilities": [1, 0, 0, 0]})
    code, out, _ = run_cli(["analyze", spec], capsys)
    assert code == 0
    rep = json.loads(out)
    m = rep["metrics"]
    assert m["f_min"] == 1.0 and m["f_max"] == 1.0
    assert m["nu2"] == 1.0 and m["nu_inf"] == 1.0
    assert rep["manifest"]["command"] == "analyze"
    assert rep["manifest"]["version"]
    assert list(rep["manifest"]["inputs"].values())[0].startswith("sha256:")


def test_analyze_with_oracle_residuals(tmp_path, capsys):
    spec = write_spec(tmp_path, "ch3.json", {"d": 3, "eigenvalues": [0.4, 0.2, 0.1, 0.2]})
    code, out, _ = run_cli(
        ["analyze", spec, "--oracle", "--seed", "7", "--restarts", "24"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["metrics"]["f_max"] == pytest.approx(0.6, abs=1e-12)
    assert rep["metrics"]["nu_inf"] == pytest.approx(0.6, abs=1e-12)
    for key in ("f_max", "f_min", "nu2", "nu_inf"):
        assert rep["oracle"][key]["residual"] <= 1e-6
    assert rep["oracle"]["eigenrelation_residual"] <= 1e-12
    assert rep["oracle"]["nu_inf"]["state"]["nearest_basis"]["alpha"] == 0


def test_analyze_noncptp_exit3_names_bound(tmp_path, capsys):
    spec = write_spec(tmp_path, "bad.json", {"d": 3, "eigenvalues": [0.5, 0.2, -0.1, 0.3]})
    code, _, err = run_cli(["analyze", spec], capsys)
    assert code == 3
    assert "upper" in err and "Fujiwara-Algoet" in err


def test_analyze_allow_noncptp_diagnostics(tmp_path, capsys):
    spec = write_spec(tmp_path, "bad.json", {"d": 3, "eigenvalues": [0.5, 0.2, -0.1, 0.3]})
    code, out, _ = run_cli(["analyze", spec, "--allow-noncptp"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["channel"]["cptp"] is False
    assert rep["channel"]["violated_bound"] == "upper"
    assert rep["channel"]["slacks"]["upper"] == pytest.approx(-0.2, abs=1e-12)
    assert "metrics" not in rep


def test_analyze_parse_error_exit2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(["analyze", str(tmp_path / "missing.json")], capsys)
    assert code == 2


def test_analyze_byte_identical_reports(tmp_path, capsys):
    spec = write_spec(tmp_path, "ch.json", {"d": 2, "probabilities": [0.55, 0.25, 0.1, 0.1]})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["analyze", spec, "--oracle", "--seed", "7", "--restarts", "16"]
    assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tensor_command_factorizing(tmp_path, capsys):
    spec = write_spec(tmp_path, "ch.json", {"d": 2, "eigenvalues": [0.6, 0.6, 0.6]})
    code, out, _ = run_cli(
        ["tensor", spec, "--n", "2", "--restarts", "128", "--seed", "3"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["probe"]["regime"] == "factorizing"
    assert rep["probe"]["estimate"] == pytest.approx(0.64, abs=1e-6)
    assert rep["probe"]["excess"] <= 1e-6
    assert rep["probe"]["baseline_fmax_power"] == pytest.approx(0.64, abs=1e-12)
    assert rep["probe"]["flags"]["fmax_multiplicative"] is True
    assert rep["probe"]["flags"]["nuinf_equals_fmax"] is True


def test_tensor_command_open_regime(tmp_path, capsys):
    spec = write_spec(tmp_path, "ch.json", {"d": 2, "eigenvalues": [-1 / 3, -1 / 3, -1 / 3]})
    code, out, _ = run_cli(
        ["tensor", spec, "--n", "2", "--restarts", "128", "--seed", "3"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["probe"]["regime"] == "open"
    assert "not judged" in rep["probe"]["verdict"]


def test_tensor_guard_exit4(tmp_path, capsys):
    spec = write_spec(tmp_path, "ch5.json", {"d": 5, "probabilities": [1, 0, 0, 0, 0, 0, 0]})
    code, _, err = run_cli(["tensor", spec, "--n", "3", "--restarts", "4"], capsys)
    assert code == 4
    assert "guard" in err


def test_evolve_csv_and_summary(tmp_path, capsys):
    spec = write_spec(tmp_path, "evo.json", {"d": 2, "rates": [1, 1, 1]})
    csv_path = tmp_path / "tl.csv"
    out_path = tmp_path / "summary.json"
    code, _, _ = run_cli(
        ["evolve", spec, "--t-max", "2", "--steps", "100",
         "--csv", str(csv_path), "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 101
    header = lines[0].split(",")
    fmax_col = header.index("f_max")
    fmax = np.array([float(row.split(",")[fmax_col]) for row in lines[1:]])
    assert np.all(np.diff(fmax) <= 1e-12)
    assert fmax[-1] == pytest.approx((1 + np.exp(-4)) / 2, abs=1e-12)
    summary = json.loads(out_path.read_text())
    assert summary["summary"]["fmax_equals_nuinf_everywhere"] is True
    assert summary["summary"]["fmax_nonincreasing"] is True
    assert summary["summary"]["final"]["f_max"] == pytest.approx((1 + np.exp(-4)) / 2)


def test_evolve_constant_rows_for_zero_rates(tmp_path, capsys):
    spec = write_spec(tmp_path, "evo.json", {"d": 2, "rates": [0, 0, 0]})
    code, out, _ = run_cli(["evolve", spec, "--t-max", "1", "--steps", "10"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    for row in lines[1:]:
        cols = row.split(",")
        assert all(float(x) == 1.0 for x in cols[1:8])


def test_evolve_beyond_sampled_range_exit3(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "evo.json",
        {
            "d": 2,
            "trajectory": [
                {"t": 0.0, "lambdas": [1, 1, 1]},
                {"t": 1.0, "lambdas": [0.6, 0.5, 0.4]},
            ],
        },
    )
    code, _, err = run_cli(["evolve", spec, "--t-max", "3", "--steps", "4"], capsys)
    assert code == 3
    assert "range" in err


def test_analyze_oracle_marks_lower_bound_regime(tmp_path, capsys):
    # two strongly negative eigenvalues: the closed form is only a lower bound
    # and the report must say so while the search value sits above it
    spec = write_spec(
        tmp_path, "ch.json", {"d": 3, "eigenvalues": [0.187, 0.153, -0.341, -0.419]}
    )
    code, out, _ = run_cli(
        ["analyze", spec, "--oracle", "--seed", "3", "--restarts", "40"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    nu_inf = rep["oracle"]["nu_inf"]
    assert nu_inf["closed_form_regime"] == "lower-bound"
    assert nu_inf["excess_over_closed_form"] > 0.01
    assert nu_inf["value"] >= nu_inf["closed_form"] - 1e-9


def test_evolve_violation_exit3_with_time(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "evo.json",
        {
            "d": 2,
            "trajectory": [
                {"t": 0.0, "lambdas": [1, 1, 1]},
                {"t": 1.0, "lambdas": [0.6, 0.5, 0.4]},
                {"t": 2.0, "lambdas": [0.3, -0.05, 0.2]},
            ],
        },
    )
    code, _, err = run_cli(["evolve", spec, "--t-max", "2", "--steps", "5"], capsys)
    assert code == 3
    assert "t=2" in err


NAN, INF = float("nan"), float("inf")
_TRAJ_START = {"t": 0.0, "lambdas": [1, 1, 1]}


@pytest.mark.parametrize(
    "command, payload, extra, expected",
    [
        ("analyze", {"d": 2, "probabilities": [NAN, 0.5, 0.25, 0.25]}, [], 2),
        ("validate", {"d": 2, "probabilities": [0.5, INF, 0.25, 0.25]}, [], 2),
        ("tensor", {"d": 2, "probabilities": [0.5, 0.5, -INF, INF]}, ["--n", "2"], 2),
        ("validate", {"d": 3, "eigenvalues": [0.4, NAN, 0.1, 0.2]}, [], 2),
        ("analyze", {"d": 2, "eigenvalues": [INF, 0.1, 0.1]}, ["--allow-noncptp"], 2),
        ("evolve", {"d": 2, "rates": [1.0, NAN, 1.0]}, ["--t-max", "1", "--steps", "3"], 3),
        ("evolve", {"d": 2, "rates": [1.0, INF, 1.0]}, ["--t-max", "1", "--steps", "3"], 3),
        ("evolve", {"d": 2, "rates": [1e308, 1e308, 1.0]}, ["--t-max", "1", "--steps", "3"], 3),
        (
            "evolve",
            {"d": 2, "trajectory": [_TRAJ_START, {"t": 1.0, "lambdas": [0.5, NAN, 0.3]}]},
            ["--t-max", "1", "--steps", "3"],
            3,
        ),
        (
            "evolve",
            {"d": 2, "trajectory": [_TRAJ_START, {"t": NAN, "lambdas": [0.5, 0.4, 0.3]}]},
            ["--t-max", "1", "--steps", "3"],
            3,
        ),
        ("evolve", {"d": 2, "rates": [1.0, 1.0, 1.0]}, ["--t-max", "nan", "--steps", "3"], 3),
        ("evolve", {"d": 2, "rates": [1.0, 1.0, 1.0]}, ["--t-max", "inf", "--steps", "3"], 3),
    ],
)
def test_non_finite_input_fails_without_report(tmp_path, capsys, command, payload, extra, expected):
    # json.dumps writes NaN/Infinity literals, which json.load accepts
    spec = write_spec(tmp_path, "spec.json", payload)
    code, out, err = run_cli([command, spec, *extra], capsys)
    assert code == expected
    assert out == ""
    assert err.startswith("error:")


def test_selftest_passes_quick(capsys):
    code, out, _ = run_cli(["selftest", "--d", "2"], capsys)
    assert code == 0
    assert "[PASS] mub-validity-d2" in out
    assert "[PASS] closed-vs-oracle-d2" in out
    assert "[FAIL]" not in out
    assert "0 failure(s)" in out


def test_selftest_fault_injection_fails(capsys):
    code, out, _ = run_cli(["selftest", "--d", "2", "--inject-mub-fault"], capsys)
    assert code == 1
    assert "[FAIL] mub-validity-d2" in out
    assert "unbiasedness" in out


def test_module_entrypoint_subprocess(tmp_path):
    spec = tmp_path / "ch.json"
    spec.write_text(json.dumps({"d": 2, "probabilities": [1, 0, 0, 0]}))
    proc = subprocess.run(
        [sys.executable, "-m", "gpchannels", "analyze", str(spec)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["metrics"]["f_max"] == 1.0
    assert "finished in" in proc.stderr
