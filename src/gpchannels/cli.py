"""Command-line front end: spec loading, analysis runs, reproducible reports.

It is the package's only module that touches files: it reads every input
file and writes every output, and every command reads its input through
:func:`_load_spec`, which decides once whether a file is a family or a spec.

Commands
--------
mub        emit a built-in basis family as JSON
validate   check a channel spec (or a basis-family file) and report slacks
analyze    closed-form report for one channel, optionally with oracle runs
tensor     tensor-power fidelity probe against the product baseline
evolve     CSV timeline plus summary JSON for an evolution spec
selftest   reduced-scale run of the whole verification battery

Exit codes are a stable contract: 0 success, 1 selftest failure, 2 parse
error, 3 invalid channel or trajectory, 4 resource guard.

Reports are deterministic: all randomness flows from ``--seed`` (a fixed
constant by default), keys are sorted, and the embedded manifest carries
the command, input digests, seed, config echo, and tool version.  Rerunning
the same command on the same inputs reproduces the report byte for byte;
wall-clock timing goes to stderr only.

Importing this module loads only the ``channel``, ``errors`` and ``mub``
layers.  Each command imports the other layers it runs when it runs:
``metrics`` for ``analyze``, ``tensor`` and ``selftest``, ``oracle`` for
``analyze --oracle``, ``tensor`` and ``selftest``, and ``dynamics`` for
``evolve`` and ``selftest``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .channel import (
    DEFAULT_SEED,
    SINGLE_RESTARTS,
    TENSOR_RESTARTS,
    GeneralizedPauliChannel,
    OracleConfig,
    Spectrum,
    channel_from_dict,
    fa_slacks,
    lambdas_from_probabilities,
    probabilities_of,
    spectrum_of,
    superoperator_of,
)
from .errors import (
    GpcError,
    InvalidTrajectoryError,
    MubValidationError,
    NotCPTPError,
    OutOfRangeError,
    TooLargeError,
)
from .mub import (
    LOAD_TOL,
    MubFamily,
    build_mub_family,
    complex_pairs,
    mub_family_from_dict,
    mub_family_to_dict,
    validate_mub_family,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_GUARD = 4

#: largest evolve time grid
MAX_STEPS = 10**6
#: the fields of channel and evolution specs, none of which a basis-family file holds
SPEC_FIELDS = ("probabilities", "eigenvalues", "rates", "trajectory", "mub_file")


def _json_default(obj):
    """numpy arrays, booleans and integers as Python values; numpy floats already are floats."""
    if isinstance(obj, (np.ndarray, np.bool_, np.integer)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _report_text(report: dict) -> str:
    # allow_nan=False: a non-finite number fails the command instead of
    # writing a bare NaN, which is not JSON
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default) + "\n"


def _manifest(command: str, inputs: dict[str, str], seed: int | None, config: dict) -> dict:
    """``inputs`` maps each input path to the digest of the bytes that were parsed."""
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "inputs": inputs,
        "config": config,
    }


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, out_path: str | None) -> None:
    _write(_report_text(report), out_path)


def _load_json(path: str, inputs: dict[str, str]) -> dict:
    """The JSON object in file ``path``; ``inputs[path]`` becomes the digest of its bytes.

    Every input file is read here, once.  Its bytes are decoded as UTF-8,
    not sniffed, so a byte-order mark stays a parse error, and JSON nested
    deeper than the parser can recurse is one too.
    """
    import hashlib

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path} nests JSON too deeply to parse") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path} must hold a JSON object, found {type(payload).__name__}")
    inputs[path] = "sha256:" + hashlib.sha256(raw).hexdigest()
    return payload


def _load_spec(path: str, family_file: bool = False) -> tuple[dict | None, MubFamily | None, dict]:
    """(spec, family, input digests) of the file ``path``.

    A payload holding ``bases`` is a family file (``spec`` None), refused unless
    ``family_file`` and when it also holds a spec field.  A spec's family is read
    from the file its ``mub_file`` names, relative to the spec's directory, or None.
    """
    inputs = {}
    payload = _load_json(path, inputs)
    if "bases" in payload:
        mixed = [key for key in SPEC_FIELDS if key in payload]
        if mixed:
            raise ValueError(f"{path} holds both a basis family and the spec field {mixed[0]!r}")
        if not family_file:
            raise ValueError(f"{path} holds a basis family, not a spec")
        return None, mub_family_from_dict(payload), inputs
    name = payload.get("mub_file")
    if name is None:
        return payload, None, inputs
    if not isinstance(name, str):
        raise MubValidationError(f"'mub_file' must be a path string, got {name!r}")
    family = _load_json(os.path.join(os.path.dirname(path), name), inputs)
    return payload, mub_family_from_dict(family), inputs


def _channel_section(sp: Spectrum, probs, cptp: bool) -> dict:
    """Weights, spectrum and Fujiwara-Algoet slacks of a channel spec.

    ``cptp`` is the loader's verdict, not decided again: true for a channel
    that ``channel_from_dict`` built, false for a spectrum it refused.
    """
    lower, upper = (float(x) for x in fa_slacks(sp.lambdas))
    return {
        "d": sp.d,
        "probabilities": list(probs),
        "eigenvalues": list(sp.lambdas),
        "cptp": cptp,
        "slacks": {"lower": lower, "upper": upper},
    }


def _metrics_section(ch: GeneralizedPauliChannel) -> dict:
    from .metrics import fidelity_report

    rep = fidelity_report(ch)
    return {
        "f_min": rep.f_min,
        "f_max": rep.f_max,
        "nu2": rep.nu2,
        "nu_inf": rep.nu_inf,
        "flags": {
            "fmax_multiplicative": rep.fmax_multiplicative,
            "fmin_multiplicative": rep.fmin_multiplicative,
            "nuinf_equals_fmax": rep.nuinf_equals_fmax,
            "nuinf_multiplicative": rep.nuinf_multiplicative,
        },
        "attainment": {
            "argmax_alpha": rep.argmax_alpha,
            "argmin_alpha": rep.argmin_alpha,
            "nu2_alpha": rep.nu2_alpha,
            "nu2_fmax_coincide": rep.nu2_fmax_coincide,
            "nu2_fmin_coincide": rep.nu2_fmin_coincide,
        },
        "regularized": {
            "exact": rep.fmax_multiplicative,
            "lower": rep.f_max,
            "upper": rep.regularized_upper,
        },
    }


def nearest_basis_index(fam: MubFamily, psi: np.ndarray) -> tuple[int, int, float]:
    """(alpha, k, overlap) of the family vector closest to ``psi``."""
    overlaps = np.abs(fam.bases.conj() @ np.asarray(psi, dtype=complex)) ** 2
    a, k = np.unravel_index(int(np.argmax(overlaps)), overlaps.shape)
    return int(a), int(k), float(overlaps[a, k])


def _oracle_state(fam: MubFamily, psi: np.ndarray) -> dict:
    a, k, overlap = nearest_basis_index(fam, psi)
    return {
        "amplitudes": complex_pairs(psi),
        "nearest_basis": {"alpha": a, "k": k, "overlap": overlap},
    }


def _oracle_section(ch: GeneralizedPauliChannel, cfg: OracleConfig) -> dict:
    from .metrics import fidelity_report
    from .oracle import (eigenrelation_residual, extremize_self_fidelity, maximize_output_2norm,
                         maximize_output_inf_norm, mub_seed_states)

    superop = superoperator_of(ch)
    seeds = mub_seed_states(ch.fam)
    fig = fidelity_report(ch)
    res_max = extremize_self_fidelity(superop, "max", cfg, seed_states=seeds)
    res_min = extremize_self_fidelity(superop, "min", cfg, seed_states=seeds)
    res_nu2 = maximize_output_2norm(superop, cfg, seed_states=seeds)
    res_inf = maximize_output_inf_norm(superop, cfg, seed_states=seeds)
    eig_res = eigenrelation_residual(ch)

    def compared(res, closed_form):
        return {
            "value": res.value,
            "closed_form": closed_form,
            "residual": abs(res.value - closed_form),
            "state": _oracle_state(ch.fam, res.state),
            # a certified search met its S-only bound with a seed and ran no Haar start
            "certified": res.certified,
            "bound": res.bound,
            "haar_restarts": res.restarts - res.n_seed_states,
        }

    nu_inf = float(fig.nu_inf)
    return {
        "config": {"restarts": cfg.restarts, "max_iters": cfg.max_iters, "seed": cfg.seed},
        "f_max": compared(res_max, float(fig.f_max)),
        "f_min": compared(res_min, float(fig.f_min)),
        "nu2": compared(res_nu2, float(fig.nu2)),
        "nu_inf": {
            **compared(res_inf, nu_inf),
            # outside the exact regime the closed form is a lower bound only
            # and the search can legitimately exceed it
            "closed_form_regime": "exact" if fig.inf_exact else "lower-bound",
            "excess_over_closed_form": res_inf.value - nu_inf,
            "dual_state": _oracle_state(ch.fam, res_inf.dual_state),
        },
        "eigenrelation_residual": eig_res,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_mub(args) -> int:
    _emit(mub_family_to_dict(build_mub_family(args.d)), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    spec, fam, inputs = _load_spec(args.spec, family_file=True)
    if spec is None:
        rep = validate_mub_family(fam, tol=LOAD_TOL)  # the tolerance that admitted it
        report = {"family": {
            "d": fam.d,
            "orthonormality_residual": rep.max_orthonormality_residual,
            "unbiasedness_residual": rep.max_unbiasedness_residual,
            "passed": rep.passed,
        }}
    else:
        ch = channel_from_dict(spec, fam)
        report = {"channel": _channel_section(spectrum_of(ch), ch.probs, cptp=True)}
    _emit({"manifest": _manifest("validate", inputs, None, {}), **report}, args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    payload, fam, inputs = _load_spec(args.spec)
    cfg = OracleConfig(restarts=args.restarts, seed=args.seed)
    manifest = _manifest("analyze", inputs, args.seed,
                         {"oracle": bool(args.oracle), "restarts": args.restarts})
    try:
        ch = channel_from_dict(payload, fam)
    except NotCPTPError as exc:
        if not args.allow_noncptp:
            raise
        sp = exc.spectrum
        with np.errstate(over="ignore", invalid="ignore"):  # huge eigenvalues: refused below
            section = _channel_section(sp, probabilities_of(sp), cptp=False)
        if not np.all(np.isfinite([*section["probabilities"], *section["slacks"].values()])):
            raise  # the diagnostics overflowed: refuse the spectrum, as without the flag
        _emit({"manifest": manifest, "channel": {**section, "violated_bound": exc.bound}}, args.out)
        return EXIT_OK
    report = {
        "manifest": manifest,
        "channel": _channel_section(spectrum_of(ch), ch.probs, cptp=True),
        "metrics": _metrics_section(ch),
    }
    if args.oracle:
        report["oracle"] = _oracle_section(ch, cfg)
    _emit(report, args.out)
    return EXIT_OK


def cmd_tensor(args) -> int:
    from .metrics import fidelity_report
    from .oracle import tensor_fidelity_probe

    payload, fam, inputs = _load_spec(args.spec)
    ch = channel_from_dict(payload, fam)
    cfg = OracleConfig(restarts=args.restarts, seed=args.seed)
    probe = tensor_fidelity_probe(ch, args.n, cfg)
    fig = fidelity_report(ch)
    verdict = (
        "factorizing regime: excess beyond tolerance would be a defect"
        if probe.regime == "factorizing"
        else "open regime: excess is recorded, not judged"
    )
    _emit(
        {
            "manifest": _manifest("tensor", inputs, args.seed,
                                  {"n": args.n, "restarts": args.restarts}),
            "channel": _channel_section(spectrum_of(ch), ch.probs, cptp=True),
            "probe": {
                "n": probe.n,
                "estimate": probe.estimate,
                "baseline_fmax_power": probe.baseline,
                "excess": probe.excess,
                "regime": probe.regime,
                "verdict": verdict,
                "restarts": probe.result.restarts,
                "flags": {
                    "fmax_multiplicative": fig.fmax_multiplicative,
                    "nuinf_equals_fmax": fig.nuinf_equals_fmax,
                },
            },
        },
        args.out,
    )
    return EXIT_OK


def cmd_evolve(args) -> int:
    from .dynamics import evolution_from_dict, timeline_csv_text, timeline_report

    payload, fam, inputs = _load_spec(args.spec)
    spec = evolution_from_dict(payload, fam)
    # every flag is checked before the grid is allocated
    if not np.isfinite(args.t_max):
        raise InvalidTrajectoryError(f"--t-max must be finite, got {args.t_max!r}")
    if args.t_max < 0:
        raise InvalidTrajectoryError(f"--t-max must be nonnegative, got {args.t_max!r}")
    if args.steps < 1:
        raise InvalidTrajectoryError(f"--steps must be at least 1, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise TooLargeError(f"--steps {args.steps} exceeds {MAX_STEPS}")
    grid = np.linspace(0.0, args.t_max, args.steps)
    tl = timeline_report(spec, grid)  # raises InvalidTrajectoryError with first time
    _write(timeline_csv_text(tl), args.csv)
    summary = {
        "manifest": _manifest("evolve", inputs, None, {"t_max": args.t_max, "steps": args.steps}),
        "evolution": {
            "d": spec.d,
            "kind": spec.kind,
            "rates": list(spec.rates) if spec.rates is not None else None,
        },
        "summary": {
            "points": int(tl.times.size),
            "fmax_equals_nuinf_everywhere": bool(np.all(tl.f_max == tl.nu_inf)),
            "fmax_nonincreasing": bool(np.all(np.diff(tl.f_max) <= 1e-12)),
            "regularized_exact_everywhere": bool(np.all(tl.fmax_multiplicative)),
            "final": {
                "t": float(tl.times[-1]),
                "f_max": float(tl.f_max[-1]),
                "nu_inf": float(tl.nu_inf[-1]),
            },
        },
    }
    if args.out or args.csv:
        _emit(summary, args.out)
    else:  # the CSV went to stdout
        sys.stderr.write(_report_text(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _random_cptp_spectrum(d: int, rng: np.random.Generator) -> np.ndarray:
    return lambdas_from_probabilities(rng.dirichlet(np.ones(d + 2)))


def _selftest_checks(dims: list[int], seed: int):
    """(name, check) pairs in run order; a bad seed or d is refused before any check runs."""
    from .dynamics import (exponential_evolution, generator_consistency_residual,
                           timeline_report, validate_trajectory)
    from .metrics import max_output_inf_norm
    from .oracle import (SpectrumGrid, cptp_equivalence_scan, eigenrelation_residual,
                         mub_seed_states)

    OracleConfig(seed=seed)  # refuses a negative seed
    for d in dims:
        build_mub_family(d)
    rng = np.random.default_rng(seed)
    oracle_dims = [d for d in dims if d <= 5]

    def check_mub(d):
        fam = build_mub_family(d)
        rep = validate_mub_family(fam, tol=1e-12)
        us = fam.unitaries().reshape(-1, d, d)
        gram = np.einsum("aij,bij->ab", us.conj(), us)
        ortho = float(np.max(np.abs(gram - d * np.eye(us.shape[0]))))
        ok = rep.passed and ortho <= 1e-10
        return ok, (
            f"orthonormality {rep.max_orthonormality_residual:.2e}, "
            f"unbiasedness {rep.max_unbiasedness_residual:.2e}, "
            f"trace-orthogonality {ortho:.2e}"
        )

    def check_roundtrip():
        worst = 0.0
        for _ in range(1000):
            d = int(rng.choice(dims))
            lam = _random_cptp_spectrum(d, rng)
            sp = Spectrum(d, lam)
            back = spectrum_of(
                channel_from_dict({"d": d, "probabilities": list(probabilities_of(sp))})
            )
            worst = max(worst, float(np.max(np.abs(back.lambdas - lam))))
        ok = worst <= 1e-12
        return ok, f"max round-trip deviation {worst:.2e}"

    def check_scan(d):
        rep = cptp_equivalence_scan(d, SpectrumGrid(n_random=2000, seed=seed + d))
        return rep.passed, (
            f"{rep.n_total} spectra, {rep.n_disagreements} disagreements, "
            f"boundary |min eig| {rep.worst_boundary_choi_eig:.2e}"
        )

    def check_eigenrelation(d):
        worst = 0.0
        for _ in range(10):
            lam = _random_cptp_spectrum(d, rng)
            ch = channel_from_dict({"d": d, "eigenvalues": list(lam)})
            worst = max(worst, eigenrelation_residual(ch))
        ok = worst <= 1e-12
        return ok, f"max residual {worst:.2e}"

    def check_oracle(d):
        # f extremes and the 2-norm reproduce their closed forms everywhere;
        # in the inf-norm's lower-bound regime the search may exceed the
        # closed form, so there only the lower side is asserted and the
        # excess is reported
        cfg = OracleConfig(restarts=mub_seed_states(build_mub_family(d)).shape[0] + 8,
                           seed=seed + d)
        worst = worst_low = excess = 0.0
        for _ in range(6):
            lam = _random_cptp_spectrum(d, rng)
            sec = _oracle_section(channel_from_dict({"d": d, "eigenvalues": list(lam)}), cfg)
            inf = sec["nu_inf"]
            worst = max(worst, sec["f_max"]["residual"], sec["f_min"]["residual"],
                        sec["nu2"]["residual"])
            if inf["closed_form_regime"] == "exact":
                worst = max(worst, inf["residual"])
            else:
                worst_low = max(worst_low, -inf["excess_over_closed_form"])
                excess = max(excess, inf["excess_over_closed_form"])
        ok = worst <= 1e-6 and worst_low <= 1e-6
        detail = f"max |oracle - closed form| {worst:.2e}"
        if excess > 0:
            detail += f"; inf-norm search excess beyond lower-bound regime {excess:.2e}"
        return ok, detail

    def check_casework():
        worst = 0.0
        for _ in range(2000):
            p = rng.dirichlet(np.ones(4))
            ch = channel_from_dict({"d": 2, "probabilities": list(p)})
            p0, rest = p[0], np.sort(p[1:])
            expected = p0 + rest[-1] if p0 >= rest[1] else rest[1] + rest[-1]
            worst = max(worst, abs(max_output_inf_norm(ch) - expected))
        ok = worst <= 1e-12
        return ok, f"max branch deviation {worst:.2e}"

    def check_dynamics(d):
        rates = rng.uniform(0.0, 2.0, size=d + 1)
        spec = exponential_evolution(d, rates)
        grid = np.linspace(0.0, 10.0, 200)
        val = validate_trajectory(spec, grid)
        tl = timeline_report(spec, grid)
        gen_res = generator_consistency_residual(spec, np.linspace(0.0, 3.0, 10))
        ok = (
            val.passed
            and bool(np.all(tl.f_max == tl.nu_inf))
            and gen_res <= 1e-9
        )
        return ok, f"generator residual {gen_res:.2e}"

    return [
        *((f"mub-validity-d{d}", functools.partial(check_mub, d)) for d in dims),
        ("probability-roundtrip", check_roundtrip),
        *((f"cptp-equivalence-d{d}", functools.partial(check_scan, d)) for d in dims if d <= 3),
        *((f"eigenrelation-d{d}", functools.partial(check_eigenrelation, d)) for d in dims),
        *((f"closed-vs-oracle-d{d}", functools.partial(check_oracle, d)) for d in oracle_dims),
        ("pauli-casework-d2", check_casework),
        *((f"dynamics-generator-d{d}", functools.partial(check_dynamics, d)) for d in oracle_dims),
    ]


def cmd_selftest(args) -> int:
    dims = sorted(set(args.d)) if args.d else [2, 3]
    failures = 0
    for name, fn in _selftest_checks(dims, args.seed):
        ok, detail = fn()
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name}: {detail}")
        failures += 0 if ok else 1
    print(f"selftest: {failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Building it costs more than most commands, and ``parse_args`` keeps no
    state between calls.  The ``cmd_*`` handlers are bound when it is built,
    so it is built by the first ``main`` call rather than at import: code
    that replaces a handler before that call is still dispatched to.
    """
    parser = argparse.ArgumentParser(
        prog="gpchannels",
        description="Generalized Pauli channel analysis and verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mub", help="emit a built-in basis family as JSON")
    p.add_argument("--d", type=int, required=True, help="prime dimension")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_mub)

    p = sub.add_parser("validate", help="validate a channel spec or basis-family file")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="closed-form report, optionally oracle-verified")
    p.add_argument("spec")
    p.add_argument("--oracle", action="store_true", help="append oracle sections")
    p.add_argument("--restarts", type=int, default=SINGLE_RESTARTS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--allow-noncptp", action="store_true",
                   help="emit diagnostics instead of failing on non-CPTP spectra")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("tensor", help="tensor-power fidelity probe")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True, choices=[2, 3])
    p.add_argument("--restarts", type=int, default=TENSOR_RESTARTS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("evolve", help="CSV timeline plus summary JSON")
    p.add_argument("spec")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", default=None, help="timeline CSV path (default: stdout)")
    p.add_argument("--out", default=None, help="summary JSON path")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("selftest", help="reduced-scale verification battery")
    p.add_argument("--d", type=int, action="append", default=None,
                   help="dimension to include (repeatable; default 2 and 3)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_selftest)
    return parser


def _fail(exc: Exception, code: int) -> int:
    """Print the one-line error, naming the exception class, and return the exit code."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except (NotCPTPError, InvalidTrajectoryError, OutOfRangeError) as exc:
        return _fail(exc, EXIT_INVALID)
    except TooLargeError as exc:
        return _fail(exc, EXIT_GUARD)
    except (OSError, KeyError, GpcError, ValueError, OverflowError) as exc:
        # JSON syntax and every remaining package error (bad weights,
        # dimensions, basis families) subclass ValueError or GpcError; a JSON
        # integer past the float range raises OverflowError where it is read
        return _fail(exc, EXIT_PARSE)
    print(
        f"[gpchannels] {args.command} finished in {time.monotonic() - start:.3f}s",
        file=sys.stderr,
    )
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
