import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpchannels.channel import FA_TOL, fa_slacks, lambdas_from_probabilities
from gpchannels.cli import main
from gpchannels.dynamics import evolution_from_dict, timeline_report
from gpchannels.mub import build_mub_family, mub_family_to_dict
from helpers import timeline_csv_reference


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


def test_validate_passes_family_admitted_by_loader(tmp_path, capsys):
    # residual 6e-11: inside the loading tolerance 1e-10, outside the build one
    code, _, _ = run_cli(["mub", "--d", "3", "--out", str(tmp_path / "fam.json")], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "fam.json").read_text())
    payload["bases"][0][0] = [[x * (1 + 3e-11) for x in z] for z in payload["bases"][0][0]]
    (tmp_path / "loose.json").write_text(json.dumps(payload))
    code, out, _ = run_cli(["validate", str(tmp_path / "loose.json")], capsys)
    assert code == 0
    family = json.loads(out)["family"]
    assert family["orthonormality_residual"] == pytest.approx(6e-11, rel=1e-3)
    assert family["passed"] is True
    spec = write_spec(tmp_path, "ch.json", {"d": 3, "eigenvalues": [0.4, 0.2, 0.1, 0.2],
                                            "mub_file": "loose.json"})
    assert run_cli(["analyze", spec], capsys)[0] == 0


@pytest.mark.parametrize("bad_d", [3.9, "3", True])
@pytest.mark.parametrize("command", ["validate", "analyze", "evolve", "family"])
def test_non_integer_dimension_exits_2_without_report(tmp_path, capsys, command, bad_d):
    argv, payload = [command], {"d": bad_d, "probabilities": [0.2] * 5}
    if command == "evolve":
        argv, payload = ["evolve", "--t-max", "1", "--steps", "3"], {"d": bad_d, "rates": [1.0] * 4}
    elif command == "family":
        assert run_cli(["mub", "--d", "3", "--out", str(tmp_path / "fam.json")], capsys)[0] == 0
        argv, payload = ["validate"], json.loads((tmp_path / "fam.json").read_text())
        payload["d"] = bad_d
    spec = write_spec(tmp_path, "spec.json", payload)
    report = tmp_path / "report.json"
    code, out, err = run_cli(argv[:1] + [spec] + argv[1:] + ["--out", str(report)], capsys)
    assert code == 2 and out == "" and not report.exists()
    assert err.startswith("error: UnsupportedDimensionError: ") and err.count("\n") == 1


@st.composite
def _boundary_specs(draw):
    """Specs at the loader's tolerance edge: one weight in (-1e-12, 0], or a
    spectrum whose Fujiwara-Algoet slack lies within 1e-14 of -FA_TOL."""
    d = draw(st.sampled_from([2, 3, 5]))
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=d + 2, max_size=d + 2)))
    p = w / w.sum()
    if draw(st.booleans()):
        j, k = draw(st.permutations(range(d + 2)))[:2]
        eps = draw(st.floats(-1e-12, 0.0, exclude_min=True))
        p[k] += p[j] - eps  # weight j moves to k, leaving eps behind
        p[j] = eps
        return {"d": d, "probabilities": p.tolist()}
    lam = lambdas_from_probabilities(p)
    lower, upper = fa_slacks(lam)
    edge = -FA_TOL + draw(st.floats(-1e-14, 1e-14))
    if draw(st.booleans()):  # lowering the smallest eigenvalue moves the upper slack
        lam[np.argmin(lam)] -= (upper - edge) / (d - 1)
    else:  # a shift of every eigenvalue moves the lower slack
        lam -= (lower - edge) / (d + 1)
    return {"d": d, "eigenvalues": lam.tolist()}


@settings(max_examples=80, deadline=None)
@given(spec=_boundary_specs(), command=st.sampled_from(["validate", "analyze"]))
@example(spec={"d": 2, "probabilities": [0.5, 0.5000000000009, -9e-13, 0.0]}, command="analyze")
@example(spec={"d": 2, "eigenvalues": [-0.06738841607080992, -0.7696682675992645,
                                       0.29772014847254535]}, command="validate")
@example(spec={"d": 3, "eigenvalues": [0.17908751983530258, 0.41008154580624745,
                                       -0.2578781202120344, -0.33435452728574205]},
         command="analyze")
@example(spec={"d": 2, "eigenvalues": [-0.2519779140000118, -0.9160494947713476,
                                       0.1680274087703595]}, command="validate")
def test_accepted_channels_report_cptp(spec, command):
    # the report states the loader's verdict; it does not re-decide it on the
    # round-tripped spectrum
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(spec_path)])
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["channel"]["cptp"] is True


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_on_identity_channel_warns_nothing(tmp_path, capsys):
    # every restart of f_min starts at a critical point with a zero gradient
    spec = write_spec(tmp_path, "id.json", {"d": 2, "probabilities": [1, 0, 0, 0]})
    code, out, _ = run_cli(["analyze", spec, "--oracle", "--restarts", "256", "--seed", "11"], capsys)
    assert code == 0
    assert json.loads(out)["oracle"]["f_min"]["value"] == pytest.approx(1.0, abs=1e-12)


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


def test_analyze_allow_noncptp_refuses_overflowing_diagnostics(tmp_path, capsys):
    # the probabilities and slacks of this spectrum overflow: no partial report
    spec = write_spec(tmp_path, "big.json", {"d": 2, "eigenvalues": [1e308, 1e308, 1e308]})
    report = tmp_path / "report.json"
    code, out, err = run_cli(["analyze", spec, "--allow-noncptp", "--out", str(report)], capsys)
    assert code == 3 and out == "" and not report.exists()
    assert err.startswith("error: NotCPTPError: ")


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


def test_restarts_guard_exit4_before_drawing(tmp_path, capsys, monkeypatch):
    from gpchannels import oracle

    def no_draw(*args, **kwargs):
        raise AssertionError("the Haar starts were drawn")

    monkeypatch.setattr(oracle, "random_pure_state", no_draw)
    spec = write_spec(tmp_path, "ch.json", {"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.1]})
    for argv in (["analyze", spec, "--oracle"], ["tensor", spec, "--n", "2"]):
        code, out, err = run_cli(argv + ["--restarts", str(10**9)], capsys)
        assert code == 4
        assert "exceed" in err and out == ""


@pytest.mark.parametrize("restarts", ["6", "8"])
@pytest.mark.parametrize("command", [["analyze", "--oracle"], ["tensor", "--n", "2"]])
def test_negative_seed_exits_2(tmp_path, capsys, command, restarts):
    # at 6 restarts the 6 basis states of d=2 leave no Haar start to draw:
    # the seed is refused all the same
    spec = write_spec(tmp_path, "ch.json", {"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.1]})
    argv = [command[0], spec, *command[1:], "--seed", "-1", "--restarts", restarts]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == "error: ValueError: seed must be >= 0, got -1\n"


def test_evolve_steps_guard_exit4_before_allocating(tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the time grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    spec = write_spec(tmp_path, "evo.json", {"d": 2, "rates": [1, 1, 1]})
    code, out, err = run_cli(["evolve", spec, "--t-max", "1", "--steps", str(10**12)], capsys)
    assert code == 4
    assert "--steps" in err and out == ""


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--t-max", "1", "--steps", "0"], "--steps"),
        (["--t-max", "1", "--steps", "-1"], "--steps"),
        (["--t-max", "-1", "--steps", "5"], "--t-max"),
    ],
)
def test_evolve_refuses_empty_grid_and_negative_t_max(tmp_path, capsys, flags, flag):
    spec = write_spec(tmp_path, "evo.json", {"d": 2, "rates": [1, 1, 1]})
    csv_path, out_path = tmp_path / "tl.csv", tmp_path / "summary.json"
    code, out, err = run_cli(
        ["evolve", spec, *flags, "--csv", str(csv_path), "--out", str(out_path)], capsys
    )
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: InvalidTrajectoryError: {flag} must be")
    assert not csv_path.exists() and not out_path.exists()


def test_evolve_accepts_zero_t_max(tmp_path, capsys):
    spec = write_spec(tmp_path, "evo.json", {"d": 2, "rates": [1, 1, 1]})
    code, out, _ = run_cli(["evolve", spec, "--t-max", "0", "--steps", "3"], capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 4


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


def test_evolve_stdout_matches_csv_file(tmp_path, capsys):
    spec = write_spec(tmp_path, "evo.json", {"d": 3, "rates": [0.3, 0.0, 1.2, 0.7]})
    argv = ["evolve", spec, "--t-max", "4", "--steps", "300"]
    csv_path = tmp_path / "tl.csv"
    code, out, _ = run_cli(argv + ["--csv", str(csv_path)], capsys)
    assert code == 0 and json.loads(out)["summary"]["points"] == 300
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.encode() == csv_path.read_bytes()


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
@pytest.mark.filterwarnings("error::RuntimeWarning")  # finiteness is checked before arithmetic
def test_non_finite_input_fails_without_report(tmp_path, capsys, command, payload, extra, expected):
    # json.dumps writes NaN/Infinity literals, which json.load accepts
    spec = write_spec(tmp_path, "spec.json", payload)
    code, out, err = run_cli([command, spec, *extra], capsys)
    assert code == expected
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("entry", [[NAN, 0.0], [INF, 0.0], [0.0, -INF], [1e308, 0.0]])
@pytest.mark.parametrize(
    "argv", [["validate"], ["analyze"], ["analyze", "--oracle", "--restarts", "8"]]
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # refused before any residual is computed
def test_family_file_with_non_finite_entries_exits_2(tmp_path, capsys, entry, argv):
    from gpchannels.mub import build_mub_family, mub_family_to_dict

    family = mub_family_to_dict(build_mub_family(3))
    family["bases"][1][0][2] = family["bases"][2][1][0] = entry
    path = write_spec(tmp_path, "fam.json", family)
    if argv[0] == "analyze":  # a channel spec on the family file
        path = write_spec(tmp_path, "ch.json", {"d": 3, "probabilities": [0.2] * 5,
                                                "mub_file": "fam.json"})
    code, out, err = run_cli([argv[0], path, *argv[1:]], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: MubValidationError: basis entry [1][0][2]")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


HUGE = 10**400  # a JSON integer past the float range
_EVOLVE_FLAGS = ["--t-max", "1", "--steps", "3"]


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["validate"], {"d": 2, "probabilities": [HUGE, 0, 0, 0]}),
        (["analyze", "--oracle", "--restarts", "8"], {"d": 2, "probabilities": [0, HUGE, 0, 0]}),
        (["tensor", "--n", "2"], {"d": 2, "probabilities": [0, 0, 0, -HUGE]}),
        (["validate"], {"d": 3, "eigenvalues": [0.4, HUGE, 0.1, 0.2]}),
        (["analyze", "--allow-noncptp"], {"d": 2, "eigenvalues": [HUGE, 0.1, 0.1]}),
        (["evolve", *_EVOLVE_FLAGS], {"d": 2, "rates": [1, HUGE, 1]}),
        (["evolve", *_EVOLVE_FLAGS], {"d": 2, "trajectory": [_TRAJ_START, {"t": HUGE, "lambdas": [1, 1, 1]}]}),
        (["validate"], "family"),
        (["analyze"], "family"),
    ],
    ids=["probabilities", "probabilities-oracle", "probabilities-tensor", "eigenvalues",
         "eigenvalues-noncptp", "rates", "trajectory-t", "bases", "bases-channel"],
)
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, argv, payload):
    expected = "OverflowError: "
    if payload == "family":
        # the family loader names a huge entry as a malformed payload
        expected = "MubValidationError: malformed basis-family payload: "
        from gpchannels.mub import build_mub_family, mub_family_to_dict

        payload = mub_family_to_dict(build_mub_family(3))
        payload["bases"][2][1][0] = [0, HUGE]
        if argv[0] == "analyze":  # a channel spec on the family file
            write_spec(tmp_path, "fam.json", payload)
            payload = {"d": 3, "probabilities": [0.2] * 5, "mub_file": "fam.json"}
    spec = write_spec(tmp_path, "spec.json", payload)
    code, out, err = run_cli(argv[:1] + [spec] + argv[1:], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: " + expected) and err.count("\n") == 1
    assert "Traceback" not in err


#: JSON values that are not numbers, which a spec's number fields refuse
NON_NUMBERS = {"string": "0.25", "boolean": True, "object": {"a": 1}}


@pytest.mark.parametrize("kind", list(NON_NUMBERS))
@pytest.mark.parametrize(
    "command, field, payload, expected, name",
    [
        ("validate", "probabilities", {"d": 2, "probabilities": [0.25, 0.25, 0.25, None]},
         2, "BadProbabilitiesError"),
        ("analyze", "probabilities", {"d": 2, "probabilities": [None, 0.25, 0.25, 0.25]},
         2, "BadProbabilitiesError"),
        ("validate", "eigenvalues", {"d": 2, "eigenvalues": [0.5, None, 0.5]},
         2, "BadProbabilitiesError"),
        ("analyze", "eigenvalues", {"d": 3, "eigenvalues": [0.4, 0.2, 0.1, None]},
         2, "BadProbabilitiesError"),
        ("evolve", "rates", {"d": 2, "rates": [1, None, 1]}, 3, "InvalidTrajectoryError"),
        ("evolve", "t", {"d": 2, "trajectory": [_TRAJ_START, {"t": None, "lambdas": [1, 1, 1]}]},
         3, "InvalidTrajectoryError"),
        ("evolve", "lambdas",
         {"d": 2, "trajectory": [_TRAJ_START, {"t": 1, "lambdas": [0.5, None, 0.5]}]},
         3, "InvalidTrajectoryError"),
    ],
    ids=["probabilities-validate", "probabilities-analyze", "eigenvalues-validate",
         "eigenvalues-analyze", "rates", "trajectory-t", "trajectory-lambdas"],
)
def test_spec_number_that_is_not_a_json_number_is_refused(tmp_path, capsys, command, field,
                                                          payload, expected, name, kind):
    # the one null in each payload marks the entry that becomes the non-number
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload).replace("null", json.dumps(NON_NUMBERS[kind])))
    flags = _EVOLVE_FLAGS if command == "evolve" else []
    code, out, err = run_cli([command, str(spec), *flags], capsys)
    assert code == expected and out == ""
    assert err.startswith(f"error: {name}: ") and err.count("\n") == 1
    found = type(NON_NUMBERS[kind]).__name__
    assert f"spec field '{field}' must hold JSON numbers, found {found}" in err


@pytest.mark.parametrize("argv", [["validate"], ["analyze"], ["evolve", *_EVOLVE_FLAGS],
                                  ["analyze", "family"]],
                         ids=["validate", "analyze", "evolve", "family-file"])
def test_deeply_nested_file_is_a_parse_error(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    spec = str(deep)
    if argv[-1] == "family":  # a channel spec whose mub_file is the deep file
        argv = argv[:1]
        spec = write_spec(tmp_path, "ch.json", {"d": 3, "probabilities": [0.2] * 5,
                                                "mub_file": "deep.json"})
    code, out, err = run_cli(argv[:1] + [spec] + argv[1:], capsys)
    assert code == 2 and out == ""
    assert err == f"error: ValueError: {deep} nests JSON too deeply to parse\n"


@pytest.mark.parametrize(
    "argv, payload, expected, message",
    [
        (["validate"], {"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.1],
                        "eigenvalues": [-0.5, -0.5, -0.5]},
         2, "BadProbabilitiesError: channel spec gives both 'probabilities' and 'eigenvalues'"),
        (["analyze"], {"d": 2, "eigenvalues": [-0.5, -0.5, -0.5],
                       "probabilities": [0.7, 0.1, 0.1, 0.1]},
         2, "BadProbabilitiesError: channel spec gives both 'probabilities' and 'eigenvalues'"),
        (["evolve", *_EVOLVE_FLAGS], {"d": 2, "rates": [1, 1, 1], "trajectory": [_TRAJ_START]},
         3, "InvalidTrajectoryError: evolution spec gives both 'rates' and 'trajectory'"),
    ],
    ids=["validate", "analyze", "evolve"],
)
def test_spec_giving_both_forms_is_refused(tmp_path, capsys, argv, payload, expected, message):
    spec = write_spec(tmp_path, "spec.json", payload)
    code, out, err = run_cli(argv[:1] + [spec] + argv[1:], capsys)
    assert code == expected and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, payload", [
    (["validate"], {"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.1]}),
    (["analyze"], {"d": 3, "eigenvalues": [0.4, 0.2, 0.1, 0.2]}),
    (["tensor", "--n", "2", "--restarts", "128"], {"d": 2, "eigenvalues": [0.6, 0.6, 0.6]}),
    (["evolve", *_EVOLVE_FLAGS], {"d": 2, "rates": [1, 1, 1]}),
    (["validate"], {"d": 3, "probabilities": [0.2] * 5, "mub_file": "fam.json"}),
    (["analyze"], {"d": 3, "eigenvalues": [0.4, 0.2, 0.1, 0.2], "mub_file": "fam.json"}),
    (["tensor", "--n", "2", "--restarts", "128"],
     {"d": 2, "eigenvalues": [0.6, 0.6, 0.6], "mub_file": "fam.json"}),
    (["evolve", *_EVOLVE_FLAGS], {"d": 3, "rates": [1, 0, 2, 1], "mub_file": "fam.json"}),
])
def test_each_command_opens_its_spec_once(tmp_path, capsys, monkeypatch, argv, payload):
    # the manifest digests the very bytes that were parsed, not a second read,
    # of the spec and of the family file it names, read from the spec's directory
    files = [write_spec(tmp_path, "spec.json", payload)]
    if "mub_file" in payload:
        family = mub_family_to_dict(build_mub_family(payload["d"]))
        files.append(write_spec(tmp_path, "fam.json", family))
    digests = {f: "sha256:" + hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files}
    report = tmp_path / "report.json"
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, _, _ = run_cli(argv[:1] + files[:1] + argv[1:] + ["--out", str(report)], capsys)
    assert code == 0 and [opened.count(f) for f in files] == [1] * len(files)
    assert json.loads(report.read_text())["manifest"]["inputs"] == digests


@pytest.mark.parametrize("payload", [[1, 2], "x", 3])
@pytest.mark.parametrize("argv, via_spec", [
    (["validate"], False), (["analyze"], False), (["evolve", *_EVOLVE_FLAGS], False),
    (["validate"], True), (["analyze"], True),
])
def test_file_that_is_not_an_object_exits_2(tmp_path, capsys, argv, via_spec, payload):
    # the error names the file and the type found in it, a family file too
    bad = spec = write_spec(tmp_path, "bad.json", payload)
    if via_spec:  # a channel spec whose mub_file is the bad file
        spec = write_spec(tmp_path, "ch.json", {"d": 3, "probabilities": [0.2] * 5,
                                                "mub_file": "bad.json"})
    code, out, err = run_cli(argv[:1] + [spec] + argv[1:], capsys)
    assert code == 2 and out == ""
    kind = type(payload).__name__
    assert err == f"error: ValueError: {bad} must hold a JSON object, found {kind}\n"


@pytest.mark.parametrize("name", [5, [], {}, True, ["x"]])
@pytest.mark.parametrize("argv", [["validate"], ["analyze"], ["tensor", "--n", "2"],
                                  ["evolve", *_EVOLVE_FLAGS]])
def test_mub_file_that_is_not_a_string_exits_2(tmp_path, capsys, argv, name):
    spec = write_spec(tmp_path, "spec.json", {"d": 3, "probabilities": [0.2] * 5,
                                              "mub_file": name})
    code, out, err = run_cli(argv[:1] + [spec] + argv[1:], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: MubValidationError: 'mub_file' must be a path string")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_null_mub_file_means_the_builtin_family(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"d": 3, "probabilities": [0.2] * 5,
                                              "mub_file": None})
    code, out, _ = run_cli(["analyze", spec], capsys)
    assert code == 0 and list(json.loads(out)["manifest"]["inputs"]) == [spec]


@pytest.mark.parametrize("payload", [
    {"d": 3, "rates": [1, 0, 2, 1], "mub_file": "absent.json"},
    {"d": 2, "trajectory": [_TRAJ_START], "mub_file": "absent.json"},
])
def test_evolution_spec_naming_a_missing_family_file_exits_2(tmp_path, capsys, payload):
    spec = write_spec(tmp_path, "evo.json", payload)
    code, out, err = run_cli(["evolve", spec, *_EVOLVE_FLAGS], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: FileNotFoundError: ") and "absent.json" in err


def test_evolution_on_the_builtin_family_file_writes_the_same_csv(tmp_path, capsys):
    # the family a spec names is the one its timeline is built over; at d=3 the
    # file holds the built-in family, so only the manifest's inputs change
    fam = write_spec(tmp_path, "fam3.json", mub_family_to_dict(build_mub_family(3)))
    rates = {"d": 3, "rates": [0.3, 0.0, 1.2, 0.7]}
    outputs = []
    for name, payload in [("plain.json", rates), ("named.json", {**rates, "mub_file": "fam3.json"})]:
        spec = write_spec(tmp_path, name, payload)
        csv_path, out_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.out"
        argv = ["evolve", spec, "--t-max", "3", "--steps", "40", "--csv", str(csv_path),
                "--out", str(out_path)]
        assert run_cli(argv, capsys)[0] == 0
        outputs.append((spec, csv_path.read_bytes(), json.loads(out_path.read_text())))
    (plain, plain_csv, plain_out), (named, named_csv, named_out) = outputs
    assert named_csv == plain_csv
    assert list(plain_out["manifest"]["inputs"]) == [plain]
    assert named_out["manifest"]["inputs"].keys() == {named, fam}
    del plain_out["manifest"]["inputs"], named_out["manifest"]["inputs"]
    assert named_out == plain_out


def test_evolution_on_a_two_qubit_family_file(tmp_path, capsys):
    # d=4 has no built-in family: the spec's family file supplies one
    from gpchannels.mub import MubFamily
    from helpers import two_qubit_mub_bases

    write_spec(tmp_path, "fam4.json", mub_family_to_dict(MubFamily(d=4, bases=two_qubit_mub_bases())))
    spec = write_spec(tmp_path, "evo4.json", {"d": 4, "rates": [1.0, 0.5, 0.5, 0.2, 0.0],
                                              "mub_file": "fam4.json"})
    code, out, err = run_cli(["evolve", spec, "--t-max", "2", "--steps", "5"], capsys)
    assert code == 0, err
    assert out.splitlines()[0].startswith("t,lambda_1,") and len(out.splitlines()) == 6
    summary = json.loads(err[: err.rindex("[gpchannels]")])
    assert summary["evolution"]["d"] == 4 and len(summary["manifest"]["inputs"]) == 2


_SPEC_VALUES = {"probabilities": [0.7, 0.1, 0.1, 0.1], "eigenvalues": [0.6, 0.6, 0.6],
                "rates": [1, 1, 1], "trajectory": [_TRAJ_START], "mub_file": "other.json"}


@pytest.mark.parametrize("field", list(_SPEC_VALUES))
@pytest.mark.parametrize("argv", [["validate"], ["analyze"], ["tensor", "--n", "2"],
                                  ["evolve", *_EVOLVE_FLAGS]])
def test_family_with_a_spec_field_is_refused(tmp_path, capsys, argv, field):
    # a file holds one kind of payload: no command reads it as the other
    payload = {**mub_family_to_dict(build_mub_family(2)), field: _SPEC_VALUES[field]}
    spec = write_spec(tmp_path, "mixed.json", payload)
    code, out, err = run_cli(argv[:1] + [spec] + argv[1:], capsys)
    assert code == 2 and out == ""
    assert err == (f"error: ValueError: {spec} holds both a basis family and the spec "
                   f"field {field!r}\n")


@pytest.mark.parametrize("argv", [["analyze"], ["tensor", "--n", "2"], ["evolve", *_EVOLVE_FLAGS]])
def test_family_file_is_not_a_spec(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "fam.json", mub_family_to_dict(build_mub_family(2)))
    code, out, err = run_cli(argv[:1] + [spec] + argv[1:], capsys)
    assert code == 2 and out == ""
    assert err == f"error: ValueError: {spec} holds a basis family, not a spec\n"


@pytest.mark.parametrize("entry", [True, False, "0.5", None, {}])
@pytest.mark.parametrize("argv", [["validate"], ["analyze"], ["evolve", *_EVOLVE_FLAGS]])
def test_family_entry_that_is_not_a_json_number_is_refused(tmp_path, capsys, argv, entry):
    family = mub_family_to_dict(build_mub_family(2))
    family["bases"][1][0][1][0] = entry
    path = write_spec(tmp_path, "fam.json", family)
    specs = {"analyze": {"d": 2, "probabilities": [0.25] * 4}, "evolve": {"d": 2, "rates": [1] * 3}}
    if argv[0] in specs:  # a spec on the family file
        path = write_spec(tmp_path, "spec.json", {**specs[argv[0]], "mub_file": "fam.json"})
    code, out, err = run_cli(argv[:1] + [path] + argv[1:], capsys)
    assert code == 2 and out == ""
    assert err == ("error: MubValidationError: spec field 'bases' must hold JSON numbers, "
                   f"found {type(entry).__name__}\n")


def test_family_of_booleans_is_refused(tmp_path, capsys):
    # true and false are not 1 and 0: the computational basis written with them is refused
    family = mub_family_to_dict(build_mub_family(2))
    family["bases"][0] = [[[True, False], [False, False]], [[False, False], [True, False]]]
    path = write_spec(tmp_path, "fam.json", family)
    code, out, err = run_cli(["validate", path], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: MubValidationError: spec field 'bases' must hold JSON numbers")


@pytest.mark.parametrize(
    "argv, payload, expected",
    [
        (["validate"], {"d": 2, "probabilities": [[0.25, 0.25], [0.25, 0.25]]}, 2),
        (["analyze"], {"d": 2, "probabilities": [[0.25], [0.25], [0.25], [0.25]]}, 2),
        (["analyze"], {"d": 2, "eigenvalues": [[0.5], [0.5], [0.5]]}, 2),
        (["analyze"], {"d": 2, "eigenvalues": [0.5, [0.5], 0.5]}, 2),
        (["evolve", *_EVOLVE_FLAGS], {"d": 2, "rates": [[1], [1], [1]]}, 3),
        (["evolve", *_EVOLVE_FLAGS], {"d": 2, "trajectory": [{"t": [0.0], "lambdas": [1, 1, 1]}]}, 3),
        (["evolve", *_EVOLVE_FLAGS], {"d": 2, "trajectory": [{"t": 0, "lambdas": [[1, 1, 1]]}]}, 3),
    ],
    ids=["probabilities-square", "probabilities-column", "eigenvalues-column",
         "eigenvalues-ragged", "rates", "trajectory-t", "trajectory-lambdas"],
)
def test_nested_list_in_a_flat_field_exits_with_its_code(tmp_path, capsys, argv, payload,
                                                         expected):
    spec = write_spec(tmp_path, "spec.json", payload)
    code, out, err = run_cli(argv[:1] + [spec] + argv[1:], capsys)
    assert code == expected and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


BIG_PRIME = 2**61 - 1


@pytest.mark.parametrize("argv, payload", [
    (["mub", "--d", str(BIG_PRIME)], None),
    (["validate"], {"d": BIG_PRIME, "probabilities": [1, 0, 0]}),
    (["evolve", *_EVOLVE_FLAGS], {"d": BIG_PRIME, "rates": [1, 1, 1]}),
])
def test_huge_prime_dimension_refused_before_trial_division(tmp_path, capsys, argv, payload):
    # built-in dimensions are a table lookup: a huge prime is refused at once
    if payload is not None:
        argv = argv[:1] + [write_spec(tmp_path, "spec.json", payload)] + argv[1:]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: UnsupportedDimensionError: no built-in construction for d={BIG_PRIME}")


@pytest.mark.parametrize(
    "argv, payload, expected, name",
    [
        (["mub", "--d", "6"], None, 2, "UnsupportedDimensionError"),
        (["analyze"], {"d": 3, "eigenvalues": [0.5, 0.2, -0.1, 0.3]}, 3, "NotCPTPError"),
        (["evolve", "--t-max", "1", "--steps", str(10**7)], {"d": 2, "rates": [1, 1, 1]},
         4, "TooLargeError"),
        # interpolating between huge samples overflows inside the grid
        (["evolve", "--t-max", "0.5", "--steps", "5"],
         {"d": 2, "trajectory": [{"t": 0, "lambdas": [1, 1, 1]},
                                 {"t": 1e-300, "lambdas": [1e308, 1, 1]},
                                 {"t": 1, "lambdas": [-1e308, 1, 1]}]},
         3, "InvalidTrajectoryError"),
        (["evolve", "--t-max", "1", "--steps", "3"], {"d": -1, "rates": []},
         2, "UnsupportedDimensionError"),
        (["validate"], {"d": 2, "eigenvalues": [1e308, 1e308, 1e308]}, 3, "NotCPTPError"),
        (["analyze", "--restarts", "0"], {"d": 2, "eigenvalues": [1, 1, 1]}, 2, "ValueError"),
    ],
)
def test_error_line_names_class(tmp_path, capsys, argv, payload, expected, name):
    if payload is not None:
        argv = argv[:1] + [write_spec(tmp_path, "spec.json", payload)] + argv[1:]
    code, out, err = run_cli(argv, capsys)
    assert code == expected and out == ""
    assert err.startswith(f"error: {name}: ")
    if name == "NotCPTPError":  # the bound, and the violation or that its slack overflowed
        detail = " by 0.2" if argv[0] == "analyze" else "; its slack overflowed"
        assert f"upper Fujiwara-Algoet bound{detail}" in err
    if name == "InvalidTrajectoryError":  # the first grid time that overflowed
        assert "not finite at t=0.125" in err


@pytest.mark.parametrize("payload", [
    {"d": 4, "rates": ["x"] * 5},
    {"d": 4, "trajectory": [{"t": "x", "lambdas": ["x"] * 5}]},
    {"d": 4, "trajectory": "x"},
])
def test_evolve_unsupported_dimension_fails_before_the_numbers(tmp_path, capsys, payload):
    # unreadable rates or rows would be InvalidTrajectoryError (exit 3); as for a channel
    # spec, a d without a built-in family is refused first
    spec = write_spec(tmp_path, "evo.json", payload)
    code, out, err = run_cli(["evolve", spec, "--t-max", "1", "--steps", "3"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: UnsupportedDimensionError: no built-in construction for d=4")
    channel = write_spec(tmp_path, "ch.json", {"d": 4, "probabilities": ["x"] * 6})
    assert run_cli(["analyze", channel], capsys) == (2, "", err)


_SPECIAL_NUMBERS = st.sampled_from(
    [0.0, -0.0, -1.0, 1e308, -1e308, math.nan, math.inf, -math.inf]
)


@st.composite
def _evolve_cases(draw):
    """(spec, t_max): half valid by construction, half with hostile numbers anywhere."""
    d = draw(st.sampled_from([2, 3, 5, 7]))
    clean = draw(st.booleans())
    number = st.floats(0.0, 3.0) if clean else st.one_of(st.floats(-1.0, 3.0), _SPECIAL_NUMBERS)
    rates = draw(st.lists(number, min_size=d + 1, max_size=d + 1))
    horizon = st.floats(0.0, 6.0) if clean else st.one_of(st.floats(-1.0, 6.0), _SPECIAL_NUMBERS)
    t_max = draw(horizon)
    if draw(st.booleans()):
        return {"d": d, "rates": rates}, t_max
    if clean:  # knots of a valid exponential trajectory; interpolation stays CPTP
        knots = sorted(set(draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=3))))
        gam = np.asarray(rates)
        lams = np.exp(-np.outer(knots, gam.sum() - gam)).tolist()
        t_max = min(t_max, knots[-1])
    else:
        knots = draw(st.lists(st.one_of(st.floats(0.0, 5.0), _SPECIAL_NUMBERS), max_size=3))
        lams = [draw(st.lists(number, min_size=d + 1, max_size=d + 1)) for _ in knots]
    rows = [{"t": t, "lambdas": lam} for t, lam in zip(knots, lams)]
    if clean or draw(st.booleans()):
        rows.insert(0, {"t": 0.0, "lambdas": [1.0] * (d + 1)})
    return {"d": d, "trajectory": rows}, t_max


@settings(max_examples=60, deadline=None)
@given(case=_evolve_cases(), steps=st.integers(0, 600), to_file=st.booleans())
def test_evolve_fuzz_exit_codes_and_csv(case, steps, to_file):
    spec, t_max = case
    # json.dumps writes NaN/Infinity constants, which the spec loader accepts
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        csv_path = Path(tmp) / "tl.csv"
        argv = ["evolve", str(spec_path), f"--t-max={t_max!r}", "--steps", str(steps)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + (["--csv", str(csv_path)] if to_file else []))
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            return
        text = csv_path.read_text() if to_file else out.getvalue()
    lines = text.split("\n")
    assert lines[-1] == "" and len(lines) == steps + 2  # header, one row per step, final newline
    d = spec["d"]
    for line in lines[1:-1]:
        fields = line.split(",")
        assert all(math.isfinite(float(x)) for x in fields[: d + 6])
        assert set(fields[d + 6 :]) <= {"0", "1"}
    tl = timeline_report(evolution_from_dict(spec), np.linspace(0.0, t_max, steps))
    assert text == timeline_csv_reference(tl)


_NON_NUMBER_ENTRIES = st.sampled_from(["0.25", "NaN", True, False, None, {"a": 1}, [0.5]])


@st.composite
def _channel_cases(draw):
    """(argv head, spec): a command and a channel spec, valid or hostile."""
    command = draw(st.sampled_from(["validate", "analyze", "analyze-noncptp", "tensor"]))
    head = {"analyze-noncptp": ["analyze", "--allow-noncptp"],
            "tensor": ["tensor", "--n", "2", "--restarts", "4"]}.get(command, [command])
    supported = [2] if command == "tensor" else [2, 3, 5, 7]  # d=2 keeps n=2 cheap
    d = draw(st.sampled_from(supported + [-1, 0, 1, 4, 37]))
    key = draw(st.sampled_from(["probabilities", "eigenvalues"]))
    size = max(d, 1) + (2 if key == "probabilities" else 1)  # any length fails an unsupported d
    if draw(st.booleans()):  # finite: normalized weights, or a spectrum in (0, 1], CPTP or not
        w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)))
        values = (w / w.sum() if key == "probabilities" else w / w.max()).tolist()
    else:
        number = st.one_of(st.floats(-1.0, 1.5), _SPECIAL_NUMBERS)
        length = draw(st.sampled_from([size, size, size - 1, size + 1]))
        values = draw(st.lists(number, min_size=length, max_size=length))
        if values and draw(st.booleans()):  # one entry that is not a JSON number
            values[draw(st.integers(0, length - 1))] = draw(_NON_NUMBER_ENTRIES)
    return head, {"d": d, key: values}


def _numbers(node):
    """Every number in a parsed report, flattened."""
    if isinstance(node, dict):
        return [x for v in node.values() for x in _numbers(v)]
    if isinstance(node, list):
        return [x for v in node for x in _numbers(v)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=60, deadline=None)
@given(case=_channel_cases())
def test_channel_commands_fuzz_exit_codes_and_reports(case):
    head, spec = case
    # json.dumps writes NaN/Infinity constants, which the spec loader accepts
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(head[:1] + [str(spec_path)] + head[1:])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 0:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert all(math.isfinite(x) for x in _numbers(report))


_FAMILY_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, HUGE, -HUGE,
                                   True, False, "0.5", None, {}])


@st.composite
def _family_payloads(draw):
    """(d, payload): a built-in family file for d, broken in one way or left valid."""
    from gpchannels.mub import LOAD_TOL, build_mub_family, mub_family_to_dict

    d = draw(st.sampled_from([2, 3, 5]))
    payload = mub_family_to_dict(build_mub_family(d))
    bases = payload["bases"]
    a, k, i = draw(st.integers(0, d)), draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    kind = draw(st.sampled_from(["number", "entry", "vector", "bases", "d", "scale", "edge",
                                 "partial", "valid"]))
    if kind == "number":
        bases[a][k][i][draw(st.integers(0, 1))] = draw(_FAMILY_NUMBERS)
    elif kind == "entry":  # not a [re, im] pair
        bases[a][k][i] = draw(st.sampled_from([[], [0.5], [0.5, 0.0, 0.0], 0.5, "ab", None]))
    elif kind == "vector":  # one vector or basis too short or too long: ragged lists
        row = bases[a] if draw(st.booleans()) else bases[a][k]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(row[-1])
    elif kind == "bases":
        payload["bases"] = draw(st.sampled_from([[], [[]], [[[]]], {}, 1.0, "bases", None]))
    elif kind == "d":  # a declared d that does not match the vectors
        payload["d"] = draw(st.sampled_from([1, 0, -1, 4, 7, BIG_PRIME, HUGE, 3.0, "3", None]))
    elif kind in ("scale", "edge"):  # a vector off unit length, or at the loading tolerance
        c = (draw(st.sampled_from([0.0, 1e-300, 0.5, 1.01, -1.0])) if kind == "scale"
             else 1.0 + draw(st.floats(0.45, 0.55)) * LOAD_TOL)  # residual about 2(c - 1)
        bases[a][k] = [[c * re, c * im] for re, im in bases[a][k]]
    elif kind == "partial":
        del bases[draw(st.integers(1, d)):]
    return d, payload


@settings(max_examples=60, deadline=None)
@given(case=_family_payloads(),
       head=st.sampled_from([["validate"], ["analyze"], ["analyze", "--oracle", "--restarts", "8"]]))
def test_family_file_fuzz_exit_codes_and_reports(case, head):
    d, family = case
    # json.dumps writes NaN/Infinity constants and big integers, which the loader reads
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fam.json"
        path.write_text(json.dumps(family))
        if head[0] == "analyze":  # a channel spec on the family file
            path = Path(tmp) / "ch.json"
            path.write_text(json.dumps({"d": family.get("d"), "mub_file": "fam.json",
                                        "probabilities": [0.4] + [0.6 / (d + 1)] * (d + 1)}))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(head[:1] + [str(path)] + head[1:])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 0:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert all(math.isfinite(x) for x in _numbers(report))
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_selftest_passes_quick(capsys):
    code, out, _ = run_cli(["selftest", "--d", "2"], capsys)
    assert code == 0
    assert "[PASS] mub-validity-d2" in out
    assert "[PASS] closed-vs-oracle-d2" in out
    assert "[FAIL]" not in out
    assert "0 failure(s)" in out


def test_selftest_fault_injection_fails(monkeypatch, capsys):
    from gpchannels import cli
    from gpchannels.mub import MubFamily, build_mub_family

    bases = build_mub_family(2).bases.copy()
    bases[1, 0] += 0.05 * np.eye(2)[0]
    bases[1, 0] /= np.linalg.norm(bases[1, 0])
    monkeypatch.setattr(cli, "build_mub_family", lambda d: MubFamily(d=2, bases=bases))
    code, out, _ = run_cli(["selftest", "--d", "2"], capsys)
    assert code == 1
    assert "[FAIL] mub-validity-d2" in out
    assert "unbiasedness" in out


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1"], "ValueError: seed must be >= 0, got -1"),
    (["--d", "2", "--d", "4"], "UnsupportedDimensionError: no built-in construction for d=4"),
])
def test_selftest_refuses_bad_input_before_any_check(capsys, argv, message):
    # the library's own message, and not one check line printed first
    code, out, err = run_cli(["selftest", *argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_shared_parser_does_not_accumulate_appended_values():
    from gpchannels.cli import build_parser

    assert build_parser() is build_parser()
    first = build_parser().parse_args(["selftest", "--d", "2"])
    second = build_parser().parse_args(["selftest", "--d", "2"])
    assert first.d == [2] and second.d == [2]
    assert first.d is not second.d


def test_oracle_flags_do_not_carry_over_between_calls(tmp_path, capsys):
    spec = write_spec(tmp_path, "ch.json", {"d": 3, "eigenvalues": [0.4, 0.2, 0.1, 0.2]})
    plain, a, b = tmp_path / "plain.json", tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["analyze", spec, "--out", str(plain)], capsys)[0] == 0
    argv = ["analyze", spec, "--oracle", "--restarts", "16", "--out", str(a)]
    assert run_cli(argv, capsys)[0] == 0
    assert "oracle" in json.loads(a.read_text())
    assert run_cli(["analyze", spec, "--out", str(b)], capsys)[0] == 0
    assert "oracle" not in json.loads(b.read_text())
    assert b.read_bytes() == plain.read_bytes()


def test_usage_error_leaves_next_call_unchanged(tmp_path, capsys):
    spec = write_spec(tmp_path, "evo.json", {"d": 3, "rates": [0.3, 0.0, 1.2, 0.7]})

    def evolve(tag):
        csv_path, out_path = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        argv = ["evolve", spec, "--t-max", "2", "--steps", "50",
                "--csv", str(csv_path), "--out", str(out_path)]
        assert run_cli(argv, capsys)[0] == 0
        return csv_path.read_bytes(), out_path.read_bytes()

    before = evolve("before")
    with pytest.raises(SystemExit) as exc:
        main(["evolve", spec])  # --t-max and --steps are required
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err
    assert evolve("after") == before


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


def test_selftest_runs_without_scipy():
    code = (
        "import sys\n"
        "from gpchannels.cli import main\n"
        "assert main(['selftest', '--d', '2']) == 0\n"
        "assert 'scipy' not in sys.modules, 'selftest imported scipy'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] dynamics-generator-d2" in proc.stdout


def test_validate_family_file_runs_one_residual_pass(tmp_path, capsys, monkeypatch):
    # each residual pass compares the Gram matrices with one d x d identity:
    # the pass that admits the file also fills the report
    from gpchannels import mub

    eyes = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def eye(self, *args, **kwargs):
            eyes.append(args)
            return np.eye(*args, **kwargs)

    family = write_spec(tmp_path, "mub3.json", mub.mub_family_to_dict(mub.build_mub_family(3)))
    monkeypatch.setattr(mub, "np", CountingNumpy())
    code, out, _ = run_cli(["validate", family], capsys)
    assert code == 0 and json.loads(out)["family"]["passed"]
    assert eyes == [(3,)]
