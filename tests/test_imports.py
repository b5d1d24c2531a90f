"""The import boundary: which layers the CLI and the package load, checked in fresh interpreters."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: the package's exports, by the module that holds them
EXPORTS = {
    "channel": ["GeneralizedPauliChannel", "Spectrum", "channel_from_dict",
                "channel_from_eigenvalues", "channel_from_probabilities", "compose",
                "fujiwara_algoet_check", "probabilities_of", "spectrum_of", "superoperator_of",
                "tensor_power"],
    "dynamics": ["EvolutionSpec", "exponential_evolution", "sampled_evolution",
                 "timeline_report", "validate_trajectory"],
    "errors": ["BadProbabilitiesError", "DimensionMismatchError", "FamilyMismatchError",
               "GpcError", "InvalidTrajectoryError", "MubValidationError", "NotCPTPError",
               "OutOfRangeError", "TooLargeError", "UnsupportedDimensionError"],
    "metrics": ["composition_two_norm_residual", "fidelity_extremes", "fidelity_report",
                "max_output_2norm", "max_output_inf_norm", "spectral_figures"],
    "mub": ["MubFamily", "build_mub_family", "validate_mub_family"],
    "oracle": ["OracleConfig", "OracleResult", "ProbeReport", "ScanReport", "SpectrumGrid",
               "cptp_equivalence_scan", "eigenrelation_residual", "extremize_self_fidelity",
               "maximize_output_2norm", "maximize_output_inf_norm", "mub_seed_states",
               "product_seed_states", "random_pure_state", "tensor_fidelity_probe"],
}
SEARCH_LAYERS = ["gpchannels.metrics", "gpchannels.oracle", "gpchannels.dynamics"]


def _fresh(code: str, *argv: str, cwd=None) -> str:
    """stdout of ``code`` run in a new interpreter that imports the package from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=120, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code: str, *argv: str, cwd=None) -> set[str]:
    """The gpchannels modules loaded after ``code`` runs in a new interpreter."""
    out = _fresh(code + "\nimport sys\nprint(' '.join(m for m in sys.modules"
                 " if m.startswith('gpchannels')))\n", *argv, cwd=cwd)
    return set(out.split())


def test_importing_the_cli_loads_no_metrics_oracle_or_dynamics():
    loaded = _loaded("import gpchannels.cli")
    assert {"gpchannels.channel", "gpchannels.errors", "gpchannels.mub"} <= loaded
    assert not loaded & set(SEARCH_LAYERS), sorted(loaded)


@pytest.mark.parametrize("argv, layers", [
    (["mub", "--d", "3"], []),
    (["validate", "ch.json"], []),
    (["analyze", "ch.json"], ["gpchannels.metrics"]),
    (["evolve", "ev.json", "--t-max", "1", "--steps", "4"],
     ["gpchannels.metrics", "gpchannels.dynamics"]),
], ids=["mub", "validate", "analyze", "evolve"])
def test_commands_without_a_search_load_no_oracle(tmp_path, argv, layers):
    (tmp_path / "ch.json").write_text(json.dumps({"d": 3, "probabilities": [0.2] * 5}))
    (tmp_path / "ev.json").write_text(json.dumps({"d": 3, "rates": [0.1, 0.2, 0.3, 0.4]}))
    code = ("import contextlib, io, sys\nfrom gpchannels.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n")
    loaded = _loaded(code, *argv, cwd=tmp_path)
    assert loaded & set(SEARCH_LAYERS) == set(layers), sorted(loaded)


def test_every_export_is_its_modules_object():
    # every name is imported from the package first, before any layer is
    # imported by name, and then compared with that layer's attribute
    names = [(module, name) for module, names in EXPORTS.items() for name in names]
    assert len(names) == 49
    code = "\n".join(
        ["import importlib", "import gpchannels", f"names = {names!r}", "values = {}"]
        + [f"from gpchannels import {name}; values[{name!r}] = {name}" for _, name in names]
        + ["for module, name in names:",
           "    held = getattr(importlib.import_module(f'gpchannels.{module}'), name)",
           "    print(module, name, values[name] is held, name in gpchannels.__all__)",
           "print(len(gpchannels.__all__))"])
    lines = _fresh(code).splitlines()
    assert lines == [f"{module} {name} True True" for module, name in names] + ["49"]
