#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed, seeded CLI battery.

The battery runs in-process, at d in {2, 3, 5, 7}: `mub --out FILE` and
`validate` of that family file; `validate`, `analyze` and `analyze --oracle`
(with a small restart budget) of two channel specs and of a third whose
`mub_file` is that family file, so the loaded family's own vectors and
unitaries are used; `analyze --allow-noncptp` of a finite spectrum that is
not CPTP; `tensor --n 2` at d in {2, 3}; and `evolve` for an exponential
and a sampled trajectory, once with `--csv FILE` and once to stdout.
Then each input of the fixed list REFUSALS gives one line digesting its
exit code and stderr error line, so a change to a refusal path shows up as
output changes do.  Last comes `selftest --d 2`, whose stdout carries no
timing.  Spec files are written to a temporary directory and named by
relative path, so the manifests and therefore every output byte depend
only on the seed and the code.  Each output (stdout, a written file, or
the summary evolve prints to stderr) gives one line
`<sha256>  <command> [<output>]`, except selftest's stdout: each of its
lines gives one, tagged with its check's name or `summary`, so a moved
figure names its check.  Diff two runs to check that a change keeps the
CLI's bytes.

Usage:
    PYTHONPATH=src python scripts/output_digest.py --seed 1 > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from gpchannels.channel import lambdas_from_probabilities
from gpchannels.cli import main as cli_main
from gpchannels.mub import build_mub_family, mub_family_to_dict

FULL_DIMS, FULL_STEPS = (2, 3, 5, 7), 2000
TINY_DIMS, TINY_STEPS = (2, 3), 40
TENSOR_DIMS = (2, 3)
SEARCH_RESTARTS = "16"  # the basis seed states are searched even where they outnumber it
TIMING_PREFIX = "[gpchannels] "  # the wall-clock line every command ends stderr with
NAN_FAMILY = mub_family_to_dict(build_mub_family(3))
NAN_FAMILY["bases"][1][0][2] = NAN_FAMILY["bases"][2][1][0] = [float("nan"), 0.0]
BOOL_FAMILY = mub_family_to_dict(build_mub_family(2))
BOOL_FAMILY["bases"][0] = [[[True, False], [False, False]], [[False, False], [True, False]]]
#: (argv, spec written to the file argv[1] as JSON, or as is where it is a string, or None
#: where argv names no file) of inputs the CLI refuses: a `d` that is not a
#: JSON integer, a dimension with no built-in family and no family file, a
#: spectrum that is not CPTP, a family file with NaN entries, read directly
#: and through a channel spec, a spec that is not a JSON object, a `mub_file`
#: that is not a string, a negative search seed, a selftest with a negative
#: seed or a `--d` with no family, spec numbers that are strings, booleans or
#: objects, a file nested too deeply to parse, specs that give both
#: parametrizations of a channel or both kinds of evolution, a family file
#: whose computational basis is written with booleans, a family file that
#: also holds channel probabilities, and an evolution spec whose `mub_file`
#: is not a string
REFUSALS = [
    (["validate", "float-d.json"], {"d": 3.9, "probabilities": [0.2] * 5}),
    (["analyze", "string-d.json"], {"d": "3", "eigenvalues": [0.5] * 4}),
    (["evolve", "bool-d.json", "--t-max", "1", "--steps", "3"], {"d": True, "rates": [1.0] * 3}),
    (["analyze", "no-family-d4.json"], {"d": 4, "probabilities": [1 / 6] * 6}),
    (["analyze", "noncptp-refused.json"], {"d": 3, "eigenvalues": [1.25, 0.1, 0.1, 0.1]}),
    (["validate", "nan-family-d3.json"], NAN_FAMILY),
    (["analyze", "on-nan-family.json"],
     {"d": 3, "probabilities": [0.2] * 5, "mub_file": "nan-family-d3.json"}),
    (["validate", "array-spec.json"], [1, 2]),
    (["analyze", "number-mub-file.json"], {"d": 3, "probabilities": [0.2] * 5, "mub_file": 5}),
    (["analyze", "negative-seed.json", "--oracle", "--seed", "-1", "--restarts", "6"],
     {"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.1]}),
    (["selftest", "--seed", "-1"], None),
    (["selftest", "--d", "2", "--d", "4"], None),
    (["validate", "string-probabilities.json"], {"d": 2, "probabilities": ["0.25"] * 4}),
    (["analyze", "bool-probabilities.json"], {"d": 2, "probabilities": [True, False, False, False]}),
    (["analyze", "object-eigenvalue.json"], {"d": 2, "eigenvalues": [0.25, 0.25, {"a": 1}]}),
    (["evolve", "string-rates.json", "--t-max", "1", "--steps", "3"], {"d": 2, "rates": ["1"] * 3}),
    (["evolve", "string-t.json", "--t-max", "1", "--steps", "3"],
     {"d": 2, "trajectory": [{"t": "0", "lambdas": [1, 1, 1]}]}),
    (["validate", "deep-nesting.json"], "[" * 100_000 + "]" * 100_000),
    (["analyze", "probabilities-and-eigenvalues.json"],
     {"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.1], "eigenvalues": [-0.5, -0.5, -0.5]}),
    (["evolve", "rates-and-trajectory.json", "--t-max", "1", "--steps", "3"],
     {"d": 2, "rates": [1, 1, 1], "trajectory": [{"t": 0, "lambdas": [1, 1, 1]}]}),
    (["validate", "bool-family-d2.json"], BOOL_FAMILY),
    (["analyze", "family-and-probabilities.json"],
     {**mub_family_to_dict(build_mub_family(2)), "probabilities": [0.7, 0.1, 0.1, 0.1]}),
    (["evolve", "number-mub-file-evolution.json", "--t-max", "1", "--steps", "3"],
     {"d": 2, "rates": [1, 1, 1], "mub_file": 5}),
    (["evolve", "no-family-d4-string-rates.json", "--t-max", "1", "--steps", "3"],
     {"d": 4, "rates": ["x"] * 5}),
]


def _specs(d, rng):
    """Channel specs, in both parametrizations, a non-CPTP spectrum, and the two
    kinds of evolution spec."""
    probs = rng.dirichlet(np.ones(d + 2))
    lambdas = lambdas_from_probabilities(rng.dirichlet(np.full(d + 2, 0.3)))
    rates = rng.uniform(0.0, 2.0, size=d + 1)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 5.0, size=4))])
    gam = rng.uniform(0.0, 2.0, size=d + 1)
    samples = np.exp(-np.outer(knots, gam.sum() - gam))  # valid, so interpolation is too
    channels = {
        f"probs-d{d}.json": {"d": d, "probabilities": probs.tolist()},
        f"eigs-d{d}.json": {"d": d, "eigenvalues": lambdas.tolist()},
    }
    evolutions = {
        f"exponential-d{d}.json": ({"d": d, "rates": rates.tolist()}, 10.0),
        f"sampled-d{d}.json": (
            {"d": d, "trajectory": [{"t": t, "lambdas": lam}
                                    for t, lam in zip(knots.tolist(), samples.tolist())]},
            float(knots[-1]),
        ),
    }
    # an eigenvalue above 1 breaks the upper Fujiwara-Algoet bound
    noncptp = {"d": d, "eigenvalues": [1.25] + lambdas[1:].tolist()}
    return channels, noncptp, evolutions


def _run(argv):
    """(exit code, stdout, stderr without its timing line) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    lines = err.getvalue().splitlines(keepends=True)
    if lines and lines[-1].startswith(TIMING_PREFIX):
        lines.pop()
    return code, out.getvalue(), "".join(lines)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def battery(seed, dims, steps):
    """Digest lines of the battery, run in the current directory."""
    rng = np.random.default_rng(seed)
    lines = []

    def succeed(argv):
        code, out, err = _run(argv)
        if code != 0:
            raise RuntimeError(f"`{' '.join(argv)}` exited {code}: {err.strip()}")
        return out, err

    def record(argv, files=(), stderr=False):
        out, err = succeed(argv)
        command = " ".join(argv)
        outputs = [("stdout", out)] + ([("stderr", err)] if stderr else [])
        for name in files:
            with open(name, encoding="utf-8") as fh:
                outputs.append((name, fh.read()))
        lines.extend(f"{_digest(text)}  {command} [{name}]" for name, text in outputs)

    for d in dims:
        channels, noncptp, evolutions = _specs(d, rng)
        family = f"mub-d{d}.json"
        record(["mub", "--d", str(d), "--out", family], files=[family])
        record(["validate", family])
        for name, spec in channels.items():
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            record(["validate", name])
            record(["analyze", name])
            record(["analyze", name, "--oracle", "--restarts", SEARCH_RESTARTS])
            if d in TENSOR_DIMS:
                record(["tensor", name, "--n", "2", "--restarts", SEARCH_RESTARTS])
        name = f"loaded-d{d}.json"
        with open(name, "w", encoding="utf-8") as fh:
            json.dump({**channels[f"probs-d{d}.json"], "mub_file": family}, fh)
        record(["validate", name])
        record(["analyze", name])
        record(["analyze", name, "--oracle", "--restarts", SEARCH_RESTARTS])
        name = f"noncptp-d{d}.json"
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(noncptp, fh)
        record(["analyze", name, "--allow-noncptp"])
        for name, (spec, t_max) in evolutions.items():
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            argv = ["evolve", name, "--t-max", repr(t_max), "--steps", str(steps)]
            csv_name = name.replace(".json", ".csv")
            record(argv + ["--csv", csv_name], files=[csv_name])
            record(argv, stderr=True)  # CSV on stdout, summary on stderr
    for argv, spec in REFUSALS:
        if spec is not None:
            with open(argv[1], "w", encoding="utf-8") as fh:
                if isinstance(spec, str):  # text as is: json.dump recurses too deep to write it
                    fh.write(spec)
                else:
                    json.dump(spec, fh)
        code, _, err = _run(argv)  # a refusal writes one error line to stderr
        text = f"exit {code}\n{err}"
        lines.append(f"{_digest(text)}  {' '.join(argv)} [exit, stderr]")
    argv = ["selftest", "--d", "2", "--seed", str(seed)]
    for line in succeed(argv)[0].splitlines():  # "[PASS] <check>: <detail>", then a summary
        check = line.split("] ", 1)[1].split(":", 1)[0] if line.startswith("[") else "summary"
        lines.append(f"{_digest(line)}  {' '.join(argv)} [{check}]")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true",
                    help=f"d in {TINY_DIMS} and {TINY_STEPS} evolve steps, for the tests")
    args = ap.parse_args(argv)
    dims, steps = (TINY_DIMS, TINY_STEPS) if args.tiny else (FULL_DIMS, FULL_STEPS)
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative spec paths keep the manifests free of the temp name
        try:
            lines = battery(args.seed, dims, steps)
        finally:
            os.chdir(start)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
