"""Command-line front end: spec loading, analysis runs, reproducible reports.

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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .channel import (
    GeneralizedPauliChannel,
    Spectrum,
    channel_from_dict,
    fujiwara_algoet_check,
    lambdas_from_probabilities,
    probabilities_of,
    spectrum_of,
    superoperator_of,
)
from .dynamics import (
    evolution_from_dict,
    exponential_evolution,
    generator_consistency_residual,
    timeline_csv_text,
    timeline_report,
    validate_trajectory,
)
from .errors import (
    BadProbabilitiesError,
    GpcError,
    InvalidTrajectoryError,
    NotCPTPError,
    OutOfRangeError,
    TooLargeError,
)
from .metrics import (
    fidelity_report,
    max_output_inf_norm,
    multiplicativity_flags,
    spectral_figures,
)
from .mub import (
    MubFamily,
    build_mub_family,
    mub_family_from_dict,
    mub_family_to_dict,
    validate_mub_family,
)
from .oracle import (
    DEFAULT_SEED,
    OracleConfig,
    SpectrumGrid,
    cptp_equivalence_scan,
    eigenrelation_residual,
    extremize_self_fidelity,
    maximize_output_2norm,
    maximize_output_inf_norm,
    mub_seed_states,
    tensor_fidelity_probe,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_GUARD = 4


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def _manifest(command: str, inputs: list[str], seed: int | None, config: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "inputs": {path: _digest(path) for path in inputs},
        "config": config,
    }


def _emit(report: dict, out_path: str | None) -> None:
    # allow_nan=False: a non-finite number fails the command instead of
    # writing a bare NaN, which is not JSON
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise BadProbabilitiesError("spec file must contain a JSON object")
    return payload


def _channel_section(sp: Spectrum, probs) -> dict:
    check = fujiwara_algoet_check(sp)
    return {
        "d": sp.d,
        "probabilities": list(probs),
        "eigenvalues": list(sp.lambdas),
        "cptp": check.passed,
        "slacks": {"lower": check.lower_slack, "upper": check.upper_slack},
    }


def _metrics_section(ch: GeneralizedPauliChannel) -> dict:
    rep = fidelity_report(ch)
    return {
        "f_min": rep.f_min,
        "f_max": rep.f_max,
        "nu2": rep.nu2,
        "nu_inf": rep.nu_inf,
        "flags": {
            "fmax_multiplicative": rep.flags.fmax_multiplicative,
            "fmin_multiplicative": rep.flags.fmin_multiplicative,
            "nuinf_equals_fmax": rep.flags.nuinf_equals_fmax,
            "nuinf_multiplicative": rep.flags.nuinf_multiplicative,
        },
        "attainment": {
            "argmax_alpha": rep.argmax_alpha,
            "argmin_alpha": rep.argmin_alpha,
            "nu2_alpha": rep.nu2_alpha,
            "nu2_fmax_coincide": rep.nu2_fmax_coincide,
            "nu2_fmin_coincide": rep.nu2_fmin_coincide,
        },
        "regularized": {
            "exact": rep.regularized.exact,
            "lower": rep.regularized.lower,
            "upper": rep.regularized.upper,
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
        "amplitudes": [[float(z.real), float(z.imag)] for z in psi],
        "nearest_basis": {"alpha": a, "k": k, "overlap": overlap},
    }


def _oracle_section(ch: GeneralizedPauliChannel, cfg: OracleConfig) -> dict:
    superop = superoperator_of(ch)
    seeds = mub_seed_states(ch.fam)
    fig = spectral_figures(spectrum_of(ch).lambdas)
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
    fam = build_mub_family(args.d)
    report = mub_family_to_dict(fam)
    _emit(report, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    payload = _load_json(args.spec)
    if "bases" in payload:
        fam = mub_family_from_dict(payload)  # raises MubValidationError on failure
        rep = validate_mub_family(fam)
        _emit(
            {
                "manifest": _manifest("validate", [args.spec], None, {}),
                "family": {
                    "d": fam.d,
                    "orthonormality_residual": rep.max_orthonormality_residual,
                    "unbiasedness_residual": rep.max_unbiasedness_residual,
                    "passed": rep.passed,
                },
            },
            args.out,
        )
        return EXIT_OK
    ch = channel_from_dict(payload, base_dir=_dir_of(args.spec))
    _emit(
        {
            "manifest": _manifest("validate", [args.spec], None, {}),
            "channel": _channel_section(spectrum_of(ch), ch.probs),
        },
        args.out,
    )
    return EXIT_OK


def _dir_of(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))


def cmd_analyze(args) -> int:
    payload = _load_json(args.spec)
    cfg = OracleConfig(restarts=args.restarts, seed=args.seed)
    manifest = _manifest(
        "analyze",
        [args.spec],
        args.seed,
        {"oracle": bool(args.oracle), "restarts": args.restarts},
    )
    try:
        ch = channel_from_dict(payload, base_dir=_dir_of(args.spec))
    except NotCPTPError as exc:
        if not args.allow_noncptp:
            raise
        sp = Spectrum(int(payload["d"]), np.asarray(payload["eigenvalues"], dtype=float))
        section = {**_channel_section(sp, probabilities_of(sp)), "violated_bound": exc.bound}
        _emit({"manifest": manifest, "channel": section}, args.out)
        return EXIT_OK
    report = {
        "manifest": manifest,
        "channel": _channel_section(spectrum_of(ch), ch.probs),
        "metrics": _metrics_section(ch),
    }
    if args.oracle:
        report["oracle"] = _oracle_section(ch, cfg)
    _emit(report, args.out)
    return EXIT_OK


def cmd_tensor(args) -> int:
    payload = _load_json(args.spec)
    ch = channel_from_dict(payload, base_dir=_dir_of(args.spec))
    cfg = OracleConfig(restarts=args.restarts, seed=args.seed)
    probe = tensor_fidelity_probe(ch, args.n, cfg)
    flags = multiplicativity_flags(ch)
    verdict = (
        "factorizing regime: excess beyond tolerance would be a defect"
        if probe.regime == "factorizing"
        else "open regime: excess is recorded, not judged"
    )
    _emit(
        {
            "manifest": _manifest(
                "tensor",
                [args.spec],
                args.seed,
                {"n": args.n, "restarts": args.restarts},
            ),
            "channel": _channel_section(spectrum_of(ch), ch.probs),
            "probe": {
                "n": probe.n,
                "estimate": probe.estimate,
                "baseline_fmax_power": probe.baseline,
                "excess": probe.excess,
                "regime": probe.regime,
                "verdict": verdict,
                "restarts": probe.result.restarts,
                "flags": {
                    "fmax_multiplicative": flags.fmax_multiplicative,
                    "nuinf_equals_fmax": flags.nuinf_equals_fmax,
                },
            },
        },
        args.out,
    )
    return EXIT_OK


def cmd_evolve(args) -> int:
    payload = _load_json(args.spec)
    spec = evolution_from_dict(payload)
    grid = np.linspace(0.0, args.t_max, args.steps)
    tl = timeline_report(spec, grid)  # raises InvalidTrajectoryError with first time
    csv_text = timeline_csv_text(tl)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    summary = {
        "manifest": _manifest(
            "evolve", [args.spec], None, {"t_max": args.t_max, "steps": args.steps}
        ),
        "evolution": {
            "d": spec.d,
            "kind": spec.kind,
            "rates": list(spec.rates) if spec.rates is not None else None,
        },
        "summary": {
            "points": int(tl.times.size),
            "fmax_equals_nuinf_everywhere": bool(np.all(tl.f_max == tl.nu_inf)),
            "fmax_nonincreasing": bool(np.all(np.diff(tl.f_max) <= 1e-12)),
            "regularized_exact_everywhere": bool(np.all(tl.regularized_exact)),
            "final": {
                "t": float(tl.times[-1]),
                "f_max": float(tl.f_max[-1]),
                "nu_inf": float(tl.nu_inf[-1]),
            },
        },
    }
    if args.out:
        _emit(summary, args.out)
    elif args.csv:
        _emit(summary, None)
    else:
        sys.stderr.write(json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _random_cptp_spectrum(d: int, rng: np.random.Generator) -> np.ndarray:
    return lambdas_from_probabilities(rng.dirichlet(np.ones(d + 2)))


def _selftest_checks(dims: list[int], seed: int, inject_mub_fault: bool):
    rng = np.random.default_rng(seed)
    oracle_dims = [d for d in dims if d <= 5]

    def check_mub(d):
        fam = build_mub_family(d)
        if inject_mub_fault and d == dims[0]:
            bases = fam.bases.copy()
            bases[1, 0] = bases[1, 0] + 0.05 * np.eye(d)[0]
            bases[1, 0] /= np.linalg.norm(bases[1, 0])
            fam = MubFamily(d=d, bases=bases)
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
        fam = build_mub_family(d)
        worst = 0.0
        for _ in range(10):
            lam = _random_cptp_spectrum(d, rng)
            ch = channel_from_dict({"d": d, "eigenvalues": list(lam)})
            worst = max(worst, eigenrelation_residual(ch))
        ok = worst <= 1e-12
        return ok, f"max residual {worst:.2e}"

    def check_oracle(d):
        # f extremes and the 2-norm reproduce their closed forms everywhere;
        # the inf-norm closed form is exact only when max(lambda) >= |min(lambda)|
        # (or d = 2) and is a valid lower bound elsewhere, so outside that
        # regime only the lower side is asserted and the excess is reported.
        fam = build_mub_family(d)
        seeds = mub_seed_states(fam)
        cfg = OracleConfig(restarts=seeds.shape[0] + 8, seed=seed + d)
        worst = 0.0
        worst_low = 0.0
        excess = 0.0
        for _ in range(6):
            lam = _random_cptp_spectrum(d, rng)
            ch = channel_from_dict({"d": d, "eigenvalues": list(lam)})
            s = superoperator_of(ch)
            fig = spectral_figures(spectrum_of(ch).lambdas)
            worst = max(
                worst,
                abs(extremize_self_fidelity(s, "max", cfg, seeds).value - fig.f_max),
                abs(extremize_self_fidelity(s, "min", cfg, seeds).value - fig.f_min),
                abs(maximize_output_2norm(s, cfg, seeds).value - fig.nu2),
            )
            inf_gap = maximize_output_inf_norm(s, cfg, seeds).value - fig.nu_inf
            if fig.inf_exact:
                worst = max(worst, abs(inf_gap))
            else:
                worst_low = max(worst_low, -inf_gap)
                excess = max(excess, inf_gap)
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

    checks = []
    for d in dims:
        checks.append((f"mub-validity-d{d}", lambda d=d: check_mub(d)))
    checks.append(("probability-roundtrip", check_roundtrip))
    for d in [d for d in dims if d <= 3]:
        checks.append((f"cptp-equivalence-d{d}", lambda d=d: check_scan(d)))
    for d in dims:
        checks.append((f"eigenrelation-d{d}", lambda d=d: check_eigenrelation(d)))
    for d in oracle_dims:
        checks.append((f"closed-vs-oracle-d{d}", lambda d=d: check_oracle(d)))
    checks.append(("pauli-casework-d2", check_casework))
    for d in oracle_dims:
        checks.append((f"dynamics-generator-d{d}", lambda d=d: check_dynamics(d)))
    return checks


def cmd_selftest(args) -> int:
    dims = sorted(set(args.d)) if args.d else [2, 3]
    failures = 0
    for name, fn in _selftest_checks(dims, args.seed, args.inject_mub_fault):
        ok, detail = fn()
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name}: {detail}")
        failures += 0 if ok else 1
    print(f"selftest: {failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--restarts", type=int, default=256)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--allow-noncptp", action="store_true",
                   help="emit diagnostics instead of failing on non-CPTP spectra")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("tensor", help="tensor-power fidelity probe")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True, choices=[2, 3])
    p.add_argument("--restarts", type=int, default=2048)
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
    p.add_argument("--inject-mub-fault", action="store_true",
                   help="testing hook: corrupt one basis vector before validation")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except (NotCPTPError, InvalidTrajectoryError, OutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (OSError, KeyError, GpcError, ValueError) as exc:
        # JSON syntax and every remaining package error (bad weights,
        # dimensions, basis families) subclass ValueError or GpcError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(
        f"[gpchannels] {args.command} finished in {time.monotonic() - start:.3f}s",
        file=sys.stderr,
    )
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
