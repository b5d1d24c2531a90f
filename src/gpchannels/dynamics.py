"""Time-parametrized channel families with per-time validity checks.

Two kinds of eigenvalue trajectories are supported:

* ``exponential``: constant nonnegative rates gamma_1..gamma_{d+1} generate

      lambda_a(t) = exp(-(G - gamma_a) * t),       G = sum(gamma),

  which solves d/dt Lambda(t) = L[Lambda(t)], Lambda(0) = id, for the
  constant generator L = sum_a gamma_a (Phi_a - id) built from the
  dephasing maps.  The formula is re-verified numerically against the
  matrix exponential of the assembled generator superoperator
  (:func:`generator_consistency_residual`).

* ``sampled``: the user supplies time-ordered (t, lambda) samples starting
  from the identity spectrum at t = 0; queries interpolate linearly and
  the module validates rather than integrates.

Trajectories with nonnegative eigenvalues keep max(lambda) >= |min(lambda)|
at all times, so the maximal fidelity equals the maximal output inf-norm
along the evolution and both factorize over tensor powers; timeline
reports carry those flags per grid time.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .channel import Spectrum, dephasing_superoperator, superop_from_spectrum
from .errors import InvalidTrajectoryError, OutOfRangeError
from .mub import MubFamily, build_mub_family

#: eigenvalue negativity tolerated on validated trajectories
TRAJ_TOL = 1e-12
#: identity-spectrum drift allowed at t=0 for sampled trajectories
T0_TOL = 1e-9


@dataclass(eq=False)
class EvolutionSpec:
    """Immutable description of one eigenvalue trajectory."""

    d: int
    fam: MubFamily
    rates: np.ndarray | None = None          # exponential kind
    sample_times: np.ndarray | None = None   # sampled kind
    sample_lambdas: np.ndarray | None = None

    @property
    def kind(self) -> str:
        return "exponential" if self.rates is not None else "sampled"


def exponential_evolution(d: int, rates, fam: MubFamily | None = None) -> EvolutionSpec:
    """Constant-rate evolution; all rates must be nonnegative."""
    gam = np.asarray(rates, dtype=float).copy()
    if gam.shape != (d + 1,):
        raise InvalidTrajectoryError(f"need {d + 1} rates for d={d}, got shape {gam.shape}")
    if np.min(gam) < 0:
        raise InvalidTrajectoryError(f"negative rate {np.min(gam):.3e}")
    fam = fam or build_mub_family(d)
    gam.setflags(write=False)
    return EvolutionSpec(d=d, fam=fam, rates=gam)


def sampled_evolution(d: int, times, lambdas, fam: MubFamily | None = None) -> EvolutionSpec:
    """User-supplied trajectory samples; interpolation is linear in between."""
    t = np.asarray(times, dtype=float).copy()
    lam = np.asarray(lambdas, dtype=float).copy()
    if t.ndim != 1 or lam.shape != (t.size, d + 1):
        raise InvalidTrajectoryError(
            f"need times (T,) and lambdas (T, {d + 1}), got {t.shape} and {lam.shape}"
        )
    if t.size < 1 or abs(t[0]) > 1e-12:
        raise InvalidTrajectoryError("sampled trajectories must start at t = 0")
    if np.any(np.diff(t) <= 0):
        raise InvalidTrajectoryError("sample times must be strictly increasing")
    if np.max(np.abs(lam[0] - 1.0)) > T0_TOL:
        raise InvalidTrajectoryError("lambda(0) must be the identity spectrum (all ones)")
    fam = fam or build_mub_family(d)
    t.setflags(write=False)
    lam.setflags(write=False)
    return EvolutionSpec(d=d, fam=fam, sample_times=t, sample_lambdas=lam)


def _trajectory_grid(spec: EvolutionSpec, times: np.ndarray) -> np.ndarray:
    """Eigenvalues at each grid time, shape (T, d+1)."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise OutOfRangeError("trajectory times must be >= 0")
    if spec.kind == "exponential":
        decay = np.sum(spec.rates) - spec.rates  # G - gamma_a, per basis
        return np.exp(-np.outer(times, decay))
    lo, hi = spec.sample_times[0], spec.sample_times[-1]
    if np.any(times < lo - 1e-12) or np.any(times > hi + 1e-12):
        raise OutOfRangeError(
            f"sampled trajectory covers [{lo:g}, {hi:g}]; query outside range"
        )
    out = np.empty((times.size, spec.d + 1))
    for a in range(spec.d + 1):
        out[:, a] = np.interp(times, spec.sample_times, spec.sample_lambdas[:, a])
    return out


def eigenvalue_trajectory(spec: EvolutionSpec, t: float) -> Spectrum:
    """Spectrum of the evolving channel at one time."""
    lam = _trajectory_grid(spec, np.array([float(t)]))[0]
    return Spectrum(d=spec.d, lambdas=lam)


@dataclass(frozen=True)
class TrajectoryValidation:
    """Per-grid-time validity: eigenvalue positivity and the CPTP inequalities."""

    times: np.ndarray
    lambda_min: np.ndarray
    fa_lower_slack: np.ndarray
    fa_upper_slack: np.ndarray
    passed: bool
    first_violation_time: float | None
    first_violation_kind: str | None


def validate_trajectory(
    spec: EvolutionSpec, t_grid, tol: float = TRAJ_TOL
) -> TrajectoryValidation:
    """Check lambda(t) >= 0 and the CPTP inequalities on a time grid."""
    times = np.asarray(t_grid, dtype=float)
    if times.size == 0 or np.any(np.diff(times) < 0):
        raise InvalidTrajectoryError("time grid must be nonempty and nondecreasing")
    lam = _trajectory_grid(spec, times)
    d = spec.d
    lam_min = lam.min(axis=1)
    totals = lam.sum(axis=1)
    lower = totals + 1.0 / (d - 1)
    upper = 1.0 + d * lam_min - totals
    neg = lam_min < -tol
    fa_bad = (lower < -tol) | (upper < -tol)
    bad = neg | fa_bad
    if bad.any():
        i = int(np.argmax(bad))
        kind = "negative-eigenvalue" if neg[i] else "fujiwara-algoet"
        return TrajectoryValidation(
            times, lam_min, lower, upper, False, float(times[i]), kind
        )
    return TrajectoryValidation(times, lam_min, lower, upper, True, None, None)


@dataclass(frozen=True)
class Timeline:
    """Column-oriented time series of the closed-form figures of merit."""

    d: int
    times: np.ndarray
    lambdas: np.ndarray  # (T, d+1)
    f_min: np.ndarray
    f_max: np.ndarray
    nu2: np.ndarray
    nu_inf: np.ndarray
    fmax_multiplicative: np.ndarray
    fmin_multiplicative: np.ndarray
    nuinf_equals_fmax: np.ndarray
    nuinf_multiplicative: np.ndarray
    regularized_exact: np.ndarray


def timeline_report(spec: EvolutionSpec, t_grid, slack: float = 1e-12) -> Timeline:
    """Evaluate fidelities, output norms, and factorization flags per grid time.

    Raises :class:`InvalidTrajectoryError` if the trajectory violates
    validity anywhere on the grid.  For nonnegative-eigenvalue
    trajectories the maximal fidelity equals the maximal output inf-norm
    at every time and the reported regularized value is exact.
    """
    check = validate_trajectory(spec, t_grid)
    if not check.passed:
        raise InvalidTrajectoryError(
            f"trajectory invalid at t={check.first_violation_time:g} "
            f"({check.first_violation_kind})"
        )
    times = check.times
    lam = _trajectory_grid(spec, times)
    d = spec.d
    lmax = lam.max(axis=1)
    lmin = lam.min(axis=1)
    f_min = (1.0 + (d - 1) * lmin) / d
    f_max = (1.0 + (d - 1) * lmax) / d
    nu2 = np.sqrt((1.0 + (d - 1) * np.max(lam**2, axis=1)) / d)
    nu_inf = np.maximum(1.0 + (d - 1) * lmax, 1.0 - lmin) / d
    fmax_mult = lmax >= np.abs(lmin) - slack
    fmin_mult = np.abs(lmax) <= np.abs(lmin) + slack
    nuinf_eq = lmax >= -lmin / (d - 1) - slack
    return Timeline(
        d=d,
        times=times,
        lambdas=lam,
        f_min=f_min,
        f_max=f_max,
        nu2=nu2,
        nu_inf=nu_inf,
        fmax_multiplicative=fmax_mult,
        fmin_multiplicative=fmin_mult,
        nuinf_equals_fmax=nuinf_eq,
        nuinf_multiplicative=fmax_mult & nuinf_eq,
        regularized_exact=fmax_mult,
    )


def generator_superoperator(spec: EvolutionSpec) -> np.ndarray:
    """Assembled superoperator of L = sum_a gamma_a (Phi_a - id)."""
    if spec.kind != "exponential":
        raise InvalidTrajectoryError("only constant-rate evolutions carry a generator")
    d = spec.d
    gen = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d * d, dtype=complex)
    for a in range(d + 1):
        if spec.rates[a] != 0.0:
            gen += spec.rates[a] * (dephasing_superoperator(spec.fam, a) - eye)
    return gen


def generator_consistency_residual(spec: EvolutionSpec, times) -> float:
    """max over times of ||expm(t L) - S(lambda(t))|| (max-entry norm).

    Grounds the exponential eigenvalue formula in a machine check against
    the matrix exponential of the explicitly assembled generator.
    """
    import scipy.linalg  # deferred: nothing else needs scipy, and it dominates import time

    gen = generator_superoperator(spec)
    worst = 0.0
    for t in np.asarray(times, dtype=float):
        expected = scipy.linalg.expm(t * gen)
        actual = superop_from_spectrum(spec.fam, eigenvalue_trajectory(spec, t).lambdas)
        worst = max(worst, float(np.max(np.abs(expected - actual))))
    return worst


# ---------------------------------------------------------------------------
# files and CSV export
# ---------------------------------------------------------------------------


def evolution_from_dict(payload: dict) -> EvolutionSpec:
    """Build a spec from ``{"d":, "rates": [...]}`` or
    ``{"d":, "trajectory": [{"t":, "lambdas": [...]}, ...]}``."""
    try:
        d = int(payload["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidTrajectoryError(f"evolution spec needs an integer 'd': {exc}") from exc
    if "rates" in payload:
        return exponential_evolution(d, np.asarray(payload["rates"], dtype=float))
    if "trajectory" in payload:
        rows = payload["trajectory"]
        try:
            times = np.array([float(row["t"]) for row in rows])
            lams = np.array([[float(x) for x in row["lambdas"]] for row in rows])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidTrajectoryError(f"malformed trajectory rows: {exc}") from exc
        return sampled_evolution(d, times, lams)
    raise InvalidTrajectoryError("evolution spec needs 'rates' or 'trajectory'")


def load_evolution_file(path) -> EvolutionSpec:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return evolution_from_dict(payload)


def timeline_csv_rows(tl: Timeline):
    """Header and rows for the CSV export of a timeline."""
    header = (
        ["t"]
        + [f"lambda_{a + 1}" for a in range(tl.d + 1)]
        + [
            "f_min",
            "f_max",
            "nu2",
            "nu_inf",
            "fmax_multiplicative",
            "fmin_multiplicative",
            "nuinf_equals_fmax",
            "nuinf_multiplicative",
        ]
    )
    rows = []
    for i in range(tl.times.size):
        rows.append(
            [repr(float(tl.times[i]))]
            + [repr(float(x)) for x in tl.lambdas[i]]
            + [
                repr(float(tl.f_min[i])),
                repr(float(tl.f_max[i])),
                repr(float(tl.nu2[i])),
                repr(float(tl.nu_inf[i])),
                str(int(tl.fmax_multiplicative[i])),
                str(int(tl.fmin_multiplicative[i])),
                str(int(tl.nuinf_equals_fmax[i])),
                str(int(tl.nuinf_multiplicative[i])),
            ]
        )
    return header, rows


def write_timeline_csv(tl: Timeline, fh) -> None:
    header, rows = timeline_csv_rows(tl)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def timeline_csv_text(tl: Timeline) -> str:
    buf = io.StringIO()
    write_timeline_csv(tl, buf)
    return buf.getvalue()
