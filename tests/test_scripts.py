"""Smoke tests for the experiment scripts and the README quick tour, run in-process,
a check that the benchmark's imports from the package resolve, a check that
every exported name has a reader outside the tests, and a check that only the
CLI touches files."""

import ast
import csv
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_inf_norm_gap_scan(tmp_path):
    out = tmp_path / "gaps.csv"
    argv = ["--d", "3", "--samples", "4", "--restarts", "4", "--out", str(out)]
    assert _load("inf_norm_gap_scan").main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        # search never falls below the closed form, which basis seeds attain
        assert float(row["excess"]) >= -1e-6


def test_tensor_excess_probe(tmp_path):
    out = tmp_path / "probe.json"
    argv = ["--d", "2", "--n", "2", "--samples", "2", "--restarts", "16", "--out", str(out)]
    assert _load("tensor_excess_probe").main(argv) == 0
    summary = json.loads(out.read_text())
    assert summary["samples"] == 2
    assert len(summary["records"]) == 2
    for rec in summary["records"]:
        assert rec["estimate"] >= rec["baseline"] - 1e-9  # product seeds are searched


def test_tensor_excess_probe_accepts_d3_n3(tmp_path):
    # the superoperator of side 3^6 = 729 is within the library's tensor guard
    out = tmp_path / "probe.json"
    argv = ["--d", "3", "--n", "3", "--samples", "0", "--out", str(out)]
    assert _load("tensor_excess_probe").main(argv) == 0
    summary = json.loads(out.read_text())
    assert summary["samples"] == 0 and summary["records"] == []


def test_tensor_excess_probe_refuses_negative_samples(tmp_path, capsys):
    out = tmp_path / "probe.json"
    with pytest.raises(SystemExit) as exc:
        _load("tensor_excess_probe").main(["--samples", "-2", "--out", str(out)])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("script, argv", [
    ("inf_norm_gap_scan", ["--samples", "-2"]),
    ("inf_norm_gap_scan", ["--restarts", "-100"]),
    ("inf_norm_gap_scan", ["--seed", "-1"]),
    ("tensor_excess_probe", ["--restarts", "0"]),
    ("tensor_excess_probe", ["--seed", "-1"]),
])
def test_scripts_refuse_bad_counts(tmp_path, capsys, script, argv):
    # a usage error (exit 2) naming the flag, before any channel is drawn
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _load(script).main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {argv[0]} must be" in err and "Traceback" not in err
    assert not out.exists()


def test_inf_norm_gap_scan_refuses_dimension_without_family(tmp_path, capsys):
    # a usage error naming --d, not a traceback from the family build
    out = tmp_path / "gaps.csv"
    with pytest.raises(SystemExit) as exc:
        _load("inf_norm_gap_scan").main(["--d", "4", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --d: invalid choice: 4" in err and "Traceback" not in err
    assert not out.exists()


def test_readme_quick_tour_runs():
    # every name the tour imports must resolve, and its own assert must hold
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from gpchannels import" in block
    exec(compile(block, "README.md quick tour", "exec"), {})


def test_output_digest_is_deterministic(capsys):
    digest = _load("output_digest")
    runs = []
    for _ in range(2):
        assert digest.main(["--seed", "5", "--tiny"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    # per d: mub --out (stdout, file) and validate of the file; validate,
    # analyze, analyze --oracle and tensor of two specs; validate, analyze and
    # analyze --oracle of a spec on the family file; analyze
    # --allow-noncptp; 2 evolve kinds x (--csv: 2, stdout: 2); then twenty-four
    # refused inputs and selftest's seven check lines and summary line
    assert set(digest.TINY_DIMS) <= set(digest.TENSOR_DIMS)
    assert len(lines) == len(digest.TINY_DIMS) * (3 + 8 + 3 + 1 + 8) + 24 + 7 + 1
    for line in lines:
        sha, command = line.split("  ", 1)
        assert len(sha) == 64 and int(sha, 16) >= 0
        assert command.split()[0] in {"mub", "validate", "analyze", "tensor", "evolve", "selftest"}
    assert lines[-1].endswith("  selftest --d 2 --seed 5 [summary]")
    assert lines[-2].endswith("  selftest --d 2 --seed 5 [dynamics-generator-d2]")
    by_command = dict(reversed(line.split("  ", 1)) for line in lines)
    # the same evolve command writes the same CSV to a file and to stdout
    for command, sha in by_command.items():
        if command.endswith(".csv]"):
            argv = command.split(" --csv ")[0]
            assert by_command[f"{argv} [stdout]"] == sha


def _from_import(module, name):
    """What ``from module import name`` binds, or None where that import fails."""
    try:
        mod = importlib.import_module(module)
        return getattr(mod, name) if hasattr(mod, name) else importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def test_perfbench_gpchannels_names_resolve():
    # the benchmark imports these at module level, so a name that moves or
    # goes breaks every benchmark run; perfbench is only parsed, never imported
    checked, missing = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local name -> the gpchannels module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "gpchannels":
                        checked += 1
                        importlib.import_module(alias.name)  # raises if it is gone
                        # `import a.b` binds a; `import a.b as c` binds a.b
                        modules[alias.asname or "gpchannels"] = importlib.import_module(
                            alias.name if alias.asname else "gpchannels")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gpchannels":
                for alias in node.names:
                    checked += 1
                    obj = _from_import(node.module, alias.name)
                    if obj is None:
                        missing.append(f"{path.name}: from {node.module} import {alias.name}")
                    elif inspect.ismodule(obj):
                        modules[alias.asname or alias.name] = obj
        for node in ast.walk(tree):  # attributes read off those modules, such as cli.main
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                checked += 1
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert checked > 20 and not missing, missing


def test_every_export_has_a_non_test_reader():
    # a name the package exports must be read by the library, a script, the
    # benchmark or the README; one only the tests read belongs in tests/helpers.py
    init = ROOT / "src" / "gpchannels" / "__init__.py"
    body = ast.parse(init.read_text()).body
    exports = [alias.asname or alias.name
               for node in body if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    # and the names of the layers that are imported on first access
    lazy = [node.value for node in body
            if isinstance(node, ast.Assign) and node.targets[0].id == "_LAZY"]
    exports += [name for names in ast.literal_eval(lazy[0]).values() for name in names]
    sources = [p for p in sorted((ROOT / "src" / "gpchannels").glob("*.py")) if p != init]
    sources += sorted(SCRIPTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py")) + [ROOT / "README.md"]
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    unread = []
    for name in exports:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    assert len(exports) > 40 and not unread, unread


def test_only_the_cli_touches_files():
    # the library takes and returns values; reading inputs and writing
    # outputs is the CLI's job alone
    found = []
    for path in sorted((ROOT / "src" / "gpchannels").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    found.append(f"{path.name}:{node.lineno}: open(...)")
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            found += [f"{path.name}:{node.lineno}: import {m}" for m in modules
                      if m.split(".")[0] in {"os", "pathlib", "io"}]
    assert not found, found
