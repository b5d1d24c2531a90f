"""The four benchmark workloads: seeded inputs, the timed call, and its checks.

Each workload builds its inputs in fixed-composition blocks from a
``numpy.random.Generator`` seeded by the benchmark's ``--seed``; the
program only ever sees the generated specs.  An :class:`Item` carries the
call that is timed (``run``), the check of its output (``check``, run
untimed), and for ``closed_form_cli`` the library calls the same command
makes (``library``), which the traced run replays to split CLI self time
from library time.

Checks recompute every reported closed-form number from the spec with the
formulas below, which use numpy only and share no code with gpchannels.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from gpchannels import cli
from gpchannels.channel import (
    channel_from_dict,
    channel_from_probabilities,
    fujiwara_algoet_check,
    spectrum_of,
    superoperator_of,
    tensor_power,
)
from gpchannels.dynamics import (
    evolution_from_dict,
    exponential_evolution,
    generator_consistency_residual,
    timeline_csv_text,
    timeline_report,
)
from gpchannels.metrics import composition_two_norm_residual, fidelity_report
from gpchannels.mub import build_mub_family, mub_family_to_dict
from gpchannels.oracle import (
    OracleConfig,
    SpectrumGrid,
    cptp_equivalence_scan,
    eigenrelation_residual,
    extremize_self_fidelity,
    maximize_output_2norm,
    maximize_output_inf_norm,
    mub_seed_states,
    product_seed_states,
    tensor_fidelity_probe,
)

#: tolerance of the acceptance gates for search against closed form
SEARCH_TOL = 1e-6
#: tolerance for report numbers recomputed from the spec
REPORT_TOL = 1e-12
#: generator residual bound used by the selftest
GENERATOR_TOL = 1e-9
#: the CLI's default --seed, so searches match what users run
CLI_SEED = cli.DEFAULT_SEED
#: gate 7 spectra are nonnegative; open-regime draws keep this margin from the boundary
REGIME_MARGIN = 1e-3


@dataclass(frozen=True)
class Sizes:
    """Per-item work; ``FULL`` is what the benchmark measures."""

    oracle_restarts: int
    tensor_restarts: int
    max_iters: int
    steps: int
    scan_points: int
    generator_times: int


FULL = Sizes(oracle_restarts=256, tensor_restarts=2048, max_iters=500,
             steps=2000, scan_points=2000, generator_times=10)
TINY = Sizes(oracle_restarts=8, tensor_restarts=8, max_iters=20,
             steps=50, scan_points=200, generator_times=3)


@dataclass
class Tally:
    """Counts gathered from outputs while checking; reported by the traced run."""

    searches: int = 0
    restarts: int = 0
    sweeps: int = 0
    max_iters_hits: int = 0
    seed_wins: int = 0
    channels: int = 0
    lower_bound: int = 0
    near_degenerate: int = 0
    excess: list = field(default_factory=list)
    scan_points: int = 0

    def add_search(self, res, max_iters: int) -> None:
        iters = np.asarray(res.restart_iterations)
        self.searches += 1
        self.restarts += int(res.restarts)
        self.sweeps += int(iters.sum())
        self.max_iters_hits += int(np.count_nonzero(iters >= max_iters))
        self.seed_wins += int(res.best_restart < res.n_seed_states)


@dataclass
class Item:
    kind: str
    # the timed call; a generator function is a pipeline whose bare yields
    # separate stages, and run.py times each stage on its own
    run: Callable[[], object]
    check: Callable[[object], str | None]  # failure reason, or None when correct
    library: Callable[[], object] | None = None


# ---------------------------------------------------------------------------
# independent closed forms (numpy only)
# ---------------------------------------------------------------------------


def spectrum_from_probs(d: int, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return (d * (p[0] + p[1:]) - 1.0) / (d - 1)


def probs_from_spectrum(d: int, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    total = lam.sum(axis=-1, keepdims=True)
    p0 = (1.0 + (d - 1) * total) / d**2
    rest = (d - 1) * (1.0 + d * lam - total) / d**2
    return np.concatenate([p0, rest], axis=-1)


def closed_forms(d: int, lam) -> dict:
    """Figures of merit for spectra ``lam`` of shape (..., d+1)."""
    lam = np.asarray(lam, dtype=float)
    lmax = lam.max(axis=-1)
    lmin = lam.min(axis=-1)
    total = lam.sum(axis=-1)
    fmax_mult = lmax >= np.abs(lmin) - 1e-12
    nuinf_eq = lmax >= -lmin / (d - 1) - 1e-12
    return {
        "f_min": (1.0 + (d - 1) * lmin) / d,
        "f_max": (1.0 + (d - 1) * lmax) / d,
        "nu2": np.sqrt((1.0 + (d - 1) * np.max(lam**2, axis=-1)) / d),
        "nu_inf": np.maximum(1.0 + (d - 1) * lmax, 1.0 - lmin) / d,
        "lower_slack": total + 1.0 / (d - 1),
        "upper_slack": 1.0 + d * lmin - total,
        "fmax_multiplicative": fmax_mult,
        "fmin_multiplicative": np.abs(lmax) <= np.abs(lmin) + 1e-12,
        "nuinf_equals_fmax": nuinf_eq,
        "nuinf_multiplicative": fmax_mult & nuinf_eq,
        "inf_exact": (d == 2) | fmax_mult,
    }


def gate1_styles(d: int) -> list[np.ndarray]:
    """The four Dirichlet weightings of acceptance gate 1."""
    return [
        np.ones(d + 2),
        np.full(d + 2, 0.4),
        np.concatenate([[0.25], np.full(d + 1, 3.0)]),
        np.concatenate([[2.0], np.full(d + 1, 0.5)]),
    ]


def gate1_draw(d: int, rng) -> np.ndarray:
    """Probabilities from one of the gate-1 styles, chosen by ``rng``."""
    return rng.dirichlet(gate1_styles(d)[int(rng.integers(4))])


def near_degenerate(d: int, lam) -> bool:
    """Spectra that gate 1 redraws: near-tied extremes or inf-norm branches."""
    s = np.sort(lam)
    return bool(s[-1] - s[-2] < 1e-4 or s[1] - s[0] < 1e-4
                or abs((d - 1) * s[-1] + s[0]) < 1e-4)


def _mismatch(label: str, got, want, tol: float = REPORT_TOL) -> str | None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"{label}: shape {got.shape} != {want.shape}"
    if not np.all(np.isfinite(got)):
        return f"{label}: non-finite value"
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return f"{label}: off by {err:.3e}" if err > tol else None


def _below(label: str, got: float, lower_bound: float) -> str | None:
    """Search value against a closed form that is only a lower bound."""
    gap = got - lower_bound
    return f"{label} below its lower bound by {-gap:.3e}" if gap < -SEARCH_TOL else None


def _first(*reasons) -> str | None:
    return next((r for r in reasons if r is not None), None)


def strict_json(text: str):
    """Parse JSON, rejecting NaN and infinities."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# oracle_verify: the call path of `analyze --oracle`
# ---------------------------------------------------------------------------

ORACLE_DIMS = (2, 3, 5, 7)


def oracle_verify_block(rng, index: int, sizes: Sizes, tally: Tally, workdir: str) -> list[Item]:
    """One spec per d, round-robin; styles rotate so every four blocks
    each d meets each gate-1 style once.

    Unlike gate 1 there is no redraw, so near-degenerate and lower-bound
    regime spectra keep their natural share.
    """
    cfg = OracleConfig(restarts=sizes.oracle_restarts, max_iters=sizes.max_iters, seed=CLI_SEED)
    items = []
    for j, d in enumerate(ORACLE_DIMS):
        p = rng.dirichlet(gate1_styles(d)[(index + j) % 4])
        items.append(_oracle_item({"d": d, "probabilities": p.tolist()}, cfg, tally))
    return items


def _oracle_item(spec: dict, cfg: OracleConfig, tally: Tally) -> Item:
    def run():
        # each bare yield ends a stage: the gauge samples between the searches
        ch = channel_from_dict(spec)
        rep = fidelity_report(ch)
        superop = superoperator_of(ch)
        seeds = mub_seed_states(ch.fam)
        yield
        fmax = extremize_self_fidelity(superop, "max", cfg, seed_states=seeds)
        yield
        fmin = extremize_self_fidelity(superop, "min", cfg, seed_states=seeds)
        yield
        nu2 = maximize_output_2norm(superop, cfg, seed_states=seeds)
        yield
        nuinf = maximize_output_inf_norm(superop, cfg, seed_states=seeds)
        return rep, (fmax, fmin, nu2, nuinf), eigenrelation_residual(ch)

    def check(out):
        rep, (fmax, fmin, nu2, nuinf), eig = out
        d = spec["d"]
        p = np.asarray(spec["probabilities"])
        lam = spectrum_from_probs(d, p / p.sum())
        cf = closed_forms(d, lam)
        for res in (fmax, fmin, nu2, nuinf):
            tally.add_search(res, cfg.max_iters)
        tally.channels += 1
        tally.near_degenerate += near_degenerate(d, lam)
        if not cf["inf_exact"]:
            tally.lower_bound += 1
            tally.excess.append(nuinf.value - cf["nu_inf"])
        return _first(
            _mismatch("f_min", rep.f_min, cf["f_min"]),
            _mismatch("f_max", rep.f_max, cf["f_max"]),
            _mismatch("nu2", rep.nu2, cf["nu2"]),
            _mismatch("nu_inf", rep.nu_inf, cf["nu_inf"]),
            _mismatch("oracle f_max", fmax.value, rep.f_max, SEARCH_TOL),
            _mismatch("oracle f_min", fmin.value, rep.f_min, SEARCH_TOL),
            _mismatch("oracle nu2", nu2.value, rep.nu2, SEARCH_TOL),
            # outside the exact regime the closed form is only a lower bound
            _mismatch("oracle nu_inf", nuinf.value, rep.nu_inf, SEARCH_TOL)
            if cf["inf_exact"]
            else _below("oracle nu_inf", nuinf.value, rep.nu_inf),
            None if eig <= REPORT_TOL else f"eigenrelation residual {eig:.3e}",
        )

    return Item(f"oracle-d{spec['d']}", run, check)


# ---------------------------------------------------------------------------
# tensor_probe: tensor-power searches from product seeds
# ---------------------------------------------------------------------------

TENSOR_DIMS = (2, 3)
TENSOR_CASES = tuple((d, regime) for d in TENSOR_DIMS for regime in ("factorizing", "open"))


def _factorizing_spectrum(d: int, rng) -> np.ndarray:
    """Nonnegative CPTP spectrum, drawn as in gate 7."""
    while True:
        lam = rng.uniform(0.0, 1.0, size=d + 1)
        if lam.sum() <= 1 + d * lam.min():
            return lam


def _open_spectrum(d: int, rng) -> np.ndarray:
    """Spectrum with max(lambda) < |min(lambda)|, clear of the regime boundary."""
    style = gate1_styles(d)[2]
    while True:
        lam = spectrum_from_probs(d, rng.dirichlet(style))
        if lam.max() < abs(lam.min()) - REGIME_MARGIN:
            return lam


def tensor_probe_block(rng, index: int, sizes: Sizes, tally: Tally, workdir: str) -> list[Item]:
    cfg = OracleConfig(restarts=sizes.tensor_restarts, max_iters=sizes.max_iters, seed=CLI_SEED)
    items = []
    for d, regime in TENSOR_CASES:
        draw = _factorizing_spectrum if regime == "factorizing" else _open_spectrum
        spec = {"d": d, "eigenvalues": draw(d, rng).tolist()}
        items.append(_tensor_item(spec, regime, cfg, tally))
    return items


def _tensor_item(spec: dict, regime: str, cfg: OracleConfig, tally: Tally) -> Item:
    n = 2

    def run():
        return tensor_fidelity_probe(channel_from_dict(spec), n, cfg)

    def check(probe):
        d = spec["d"]
        baseline = float(closed_forms(d, spec["eigenvalues"])["f_max"]) ** n
        tally.add_search(probe.result, cfg.max_iters)
        tally.channels += 1
        if regime == "open":
            tally.excess.append(probe.excess)
        if probe.regime != regime:
            return f"regime {probe.regime!r}, expected {regime!r}"
        return _first(
            _mismatch("baseline", probe.baseline, baseline),
            _mismatch("factorizing excess", probe.excess, 0.0, SEARCH_TOL)
            if regime == "factorizing"
            else _below("estimate", probe.estimate, probe.baseline),
        )

    return Item(f"tensor-d{spec['d']}-{regime}", run, check)


# ---------------------------------------------------------------------------
# closed_form_cli: in-process cli.main over validate / analyze / mub / evolve
# ---------------------------------------------------------------------------

CLI_DIMS = (2, 3, 5, 7)


def closed_form_cli_block(rng, index: int, sizes: Sizes, tally: Tally, workdir: str) -> list[Item]:
    """Per d: validate, analyze, mub, and evolve on both trajectory kinds; shuffled."""
    items = []
    for d in CLI_DIMS:
        items.append(_report_item("validate", _channel_spec(d, rng), workdir))
        items.append(_report_item("analyze", _channel_spec(d, rng), workdir))
        items.append(_mub_item(d, workdir))
        rates = rng.uniform(0.0, 2.0, size=d + 1)
        t_max = float(rng.uniform(1.0, 5.0))
        items.append(_evolve_item({"d": d, "rates": rates.tolist()}, t_max, sizes.steps, workdir))
        items.append(_evolve_item(_sampled_spec(d, rng, t_max), t_max, sizes.steps, workdir))
    return [items[i] for i in rng.permutation(len(items))]


def _channel_spec(d: int, rng) -> dict:
    p = gate1_draw(d, rng)
    if rng.integers(2):
        return {"d": d, "probabilities": p.tolist()}
    return {"d": d, "eigenvalues": spectrum_from_probs(d, p).tolist()}


def _sampled_spec(d: int, rng, t_max: float) -> dict:
    """Samples of a constant-rate trajectory; linear interpolation stays valid."""
    rates = rng.uniform(0.0, 2.0, size=d + 1)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_max, size=6)), [t_max]])
    lam = np.exp(-np.outer(times, rates.sum() - rates))
    return {"d": d, "trajectory": [{"t": float(t), "lambdas": row.tolist()}
                                   for t, row in zip(times, lam)]}


def _write_spec(workdir: str, name: str, spec: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def _spec_spectrum(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    d = spec["d"]
    if "probabilities" in spec:
        p = np.asarray(spec["probabilities"], dtype=float)
        p = p / p.sum()
        return p, spectrum_from_probs(d, p)
    lam = np.asarray(spec["eigenvalues"], dtype=float)
    return probs_from_spectrum(d, lam), lam


def _read_report(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return strict_json(fh.read())


def _check_channel_section(sec: dict, spec: dict) -> str | None:
    d = spec["d"]
    p, lam = _spec_spectrum(spec)
    cf = closed_forms(d, lam)
    return _first(
        None if sec["d"] == d else f"d {sec['d']} != {d}",
        None if sec["cptp"] is True else "cptp not true",
        _mismatch("probabilities", sec["probabilities"], p),
        _mismatch("eigenvalues", sec["eigenvalues"], lam),
        _mismatch("lower slack", sec["slacks"]["lower"], cf["lower_slack"]),
        _mismatch("upper slack", sec["slacks"]["upper"], cf["upper_slack"]),
    )


def _check_metrics_section(sec: dict, spec: dict) -> str | None:
    d = spec["d"]
    _, lam = _spec_spectrum(spec)
    cf = closed_forms(d, lam)
    flags = sec["flags"]
    att = sec["attainment"]
    reg = sec["regularized"]
    bools = [
        (flags[k], bool(cf[k]))
        for k in ("fmax_multiplicative", "fmin_multiplicative",
                  "nuinf_equals_fmax", "nuinf_multiplicative")
    ] + [
        (att["argmax_alpha"], int(np.argmax(lam))),
        (att["argmin_alpha"], int(np.argmin(lam))),
        (att["nu2_alpha"], int(np.argmax(lam**2))),
        (reg["exact"], bool(cf["fmax_multiplicative"])),
    ]
    reg_upper = cf["f_max"] if cf["fmax_multiplicative"] else cf["nu_inf"]
    return _first(
        *(_mismatch(k, sec[k], cf[k]) for k in ("f_min", "f_max", "nu2", "nu_inf")),
        None if all(got == want for got, want in bools) else "flag or attainment index differs",
        _mismatch("regularized lower", reg["lower"], cf["f_max"]),
        _mismatch("regularized upper", reg["upper"], reg_upper),
    )


def _report_item(command: str, spec: dict, workdir: str) -> Item:
    spec_path = _write_spec(workdir, f"{command}-{spec['d']}.json", spec)
    out_path = os.path.join(workdir, f"{command}-{spec['d']}.out.json")
    argv = [command, spec_path, "--out", out_path]

    def check(code):
        if code != 0:
            return f"{command} exit code {code}"
        rep = _read_report(out_path)
        return _first(
            None if rep["manifest"]["command"] == command else "manifest command differs",
            _check_channel_section(rep["channel"], spec),
            _check_metrics_section(rep["metrics"], spec) if command == "analyze" else None,
        )

    def library():
        ch = channel_from_dict(spec)
        fa = fujiwara_algoet_check(spectrum_of(ch))
        return fidelity_report(ch) if command == "analyze" else fa

    return Item(f"{command}-d{spec['d']}", lambda: cli.main(argv), check, library)


def _mub_item(d: int, workdir: str) -> Item:
    out_path = os.path.join(workdir, f"mub-{d}.out.json")
    argv = ["mub", "--d", str(d), "--out", out_path]

    def check(code):
        if code != 0:
            return f"mub exit code {code}"
        rep = _read_report(out_path)
        bases = np.asarray(rep["bases"], dtype=float)
        if rep["d"] != d or bases.shape != (d + 1, d, d, 2):
            return f"mub family shape {bases.shape} for d={d}"
        vecs = bases[..., 0] + 1j * bases[..., 1]
        overlaps = np.abs(np.einsum("aki,bli->akbl", vecs.conj(), vecs)) ** 2
        same = np.eye(d + 1, dtype=bool)[:, None, :, None]
        want = np.where(same, np.eye(d)[None, :, None, :], 1.0 / d)
        return _first(
            _mismatch("basis 0", vecs[0], np.eye(d)),
            _mismatch("orthonormality/unbiasedness", overlaps, want),
        )

    def library():
        return mub_family_to_dict(build_mub_family(d))

    return Item(f"mub-d{d}", lambda: cli.main(argv), check, library)


def _evolve_item(spec: dict, t_max: float, steps: int, workdir: str) -> Item:
    kind = "exponential" if "rates" in spec else "sampled"
    tag = f"evolve-{kind}-{spec['d']}"
    spec_path = _write_spec(workdir, f"{tag}.json", spec)
    csv_path = os.path.join(workdir, f"{tag}.csv")
    out_path = os.path.join(workdir, f"{tag}.out.json")
    argv = ["evolve", spec_path, "--t-max", repr(t_max), "--steps", str(steps),
            "--csv", csv_path, "--out", out_path]

    def expected_lambdas(times):
        if kind == "exponential":
            rates = np.asarray(spec["rates"])
            return np.exp(-np.outer(times, rates.sum() - rates))
        st = np.array([row["t"] for row in spec["trajectory"]])
        sl = np.array([row["lambdas"] for row in spec["trajectory"]])
        return np.stack([np.interp(times, st, sl[:, a]) for a in range(sl.shape[1])], axis=1)

    def check(code):
        if code != 0:
            return f"evolve exit code {code}"
        d = spec["d"]
        with open(csv_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = lines[1:]
        if len(rows) != steps:
            return f"CSV has {len(rows)} rows, expected {steps}"
        table = np.array([[float(x) for x in row.split(",")] for row in rows])
        times = np.linspace(0.0, t_max, steps)
        lam = expected_lambdas(times)
        cf = closed_forms(d, lam)
        flags = np.stack([cf[k] for k in ("fmax_multiplicative", "fmin_multiplicative",
                                           "nuinf_equals_fmax", "nuinf_multiplicative")], axis=1)
        summary = _read_report(out_path)
        final = summary["summary"]["final"]
        return _first(
            _mismatch("CSV t", table[:, 0], times),
            _mismatch("CSV lambdas", table[:, 1 : d + 2], lam),
            _mismatch("CSV f_min..nu_inf", table[:, d + 2 : d + 6],
                      np.stack([cf[k] for k in ("f_min", "f_max", "nu2", "nu_inf")], axis=1)),
            _mismatch("CSV flags", table[:, d + 6 :], flags.astype(float)),
            None if summary["summary"]["points"] == steps else "summary points differ",
            _mismatch("final f_max", final["f_max"], cf["f_max"][-1]),
            _mismatch("final nu_inf", final["nu_inf"], cf["nu_inf"][-1]),
        )

    def library():
        ev = evolution_from_dict(spec)
        return timeline_csv_text(timeline_report(ev, np.linspace(0.0, t_max, steps)))

    return Item(f"evolve-{kind}-d{spec['d']}", lambda: cli.main(argv), check, library)


# ---------------------------------------------------------------------------
# verify_battery: cross-checks that do not search
# ---------------------------------------------------------------------------

SCAN_DIMS = (2, 3, 5)
BATTERY_DIMS = (2, 3, 5, 7)


def verify_battery_block(rng, index: int, sizes: Sizes, tally: Tally, workdir: str) -> list[Item]:
    items = []
    for d in SCAN_DIMS:
        grid = SpectrumGrid(n_random=sizes.scan_points, seed=int(rng.integers(2**31)))
        items.append(_scan_item(d, grid, tally))
    for d in BATTERY_DIMS:
        ch = channel_from_probabilities(d, gate1_draw(d, rng))
        items.append(Item(f"eigenrelation-d{d}", lambda ch=ch: eigenrelation_residual(ch),
                          lambda res: _residual_check("eigenrelation", res, REPORT_TOL)))
        ch2 = channel_from_probabilities(d, gate1_draw(d, rng))
        items.append(Item(f"composition-d{d}", lambda ch=ch2: composition_two_norm_residual(ch),
                          lambda res: _residual_check("composition", res, REPORT_TOL)))
        ev = exponential_evolution(d, rng.uniform(0.0, 2.0, size=d + 1))
        times = np.linspace(0.0, 3.0, sizes.generator_times)
        items.append(Item(f"generator-d{d}",
                          lambda ev=ev, times=times: generator_consistency_residual(ev, times),
                          lambda res: _residual_check("generator", res, GENERATOR_TOL)))
    for d in TENSOR_DIMS:
        items.append(_tensor_assembly_item(channel_from_probabilities(d, gate1_draw(d, rng)), rng))
    return items


def _tensor_assembly_item(ch, rng) -> Item:
    """Two-copy superoperator and product seeds, checked on product inputs.

    The tensor power must map vec(X1 (x) X2) to vec(L[X1] (x) L[X2]), with L
    applied through the single-copy superoperator; the seeds must be the
    Kronecker products of the basis vectors.
    """
    d = ch.d
    xs = rng.standard_normal((2, d, d, 2)) @ np.array([1.0, 1j])
    single = superoperator_of(ch)

    def vec(m):
        return m.reshape(-1, order="F")

    def apply(x):
        return (single @ vec(x)).reshape(d, d, order="F")

    def check(out):
        power, seeds = out
        got = power @ vec(np.kron(xs[0], xs[1]))
        want = vec(np.kron(apply(xs[0]), apply(xs[1])))
        vecs = ch.fam.all_vectors()
        kron = np.einsum("ai,bj->abij", vecs, vecs).reshape(len(vecs) ** 2, d * d)
        return _first(_mismatch("tensor power on product input", got, want),
                      _mismatch("product seed states", seeds, kron))

    return Item(f"tensor-assembly-d{d}",
                lambda: (tensor_power(ch, 2), product_seed_states(ch.fam, 2)), check)


def _residual_check(label: str, res: float, tol: float) -> str | None:
    return None if math.isfinite(res) and res <= tol else f"{label} residual {res:.3e}"


def _scan_item(d: int, grid: SpectrumGrid, tally: Tally) -> Item:
    # random points, 4 boundary points, 4 violations (+1 extra at d=3)
    expected = grid.n_random + 8 + (d == 3)

    def check(rep):
        tally.scan_points += rep.n_total
        if rep.n_total != expected:
            return f"scan covered {rep.n_total} spectra, expected {expected}"
        return None if rep.passed else f"scan disagreements {rep.n_disagreements}"

    return Item(f"scan-d{d}", lambda: cptp_equivalence_scan(d, grid), check)


WORKLOADS = {
    "oracle_verify": (oracle_verify_block, ORACLE_DIMS),
    "tensor_probe": (tensor_probe_block, TENSOR_DIMS),
    "closed_form_cli": (closed_form_cli_block, CLI_DIMS),
    "verify_battery": (verify_battery_block, BATTERY_DIMS),
}
