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
from .metrics import spectral_figures
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
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(gam)
    if not np.isfinite(total):  # a non-finite rate, or a sum that overflows
        raise InvalidTrajectoryError(f"rates {gam.tolist()} must be finite with a finite sum")
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
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(lam))):
        raise InvalidTrajectoryError("trajectory samples must be finite")
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


def _checked_grid(spec: EvolutionSpec, t_grid):
    """Validation of the grid plus the eigenvalues and figures it was built from."""
    times = np.asarray(t_grid, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0):
        raise InvalidTrajectoryError("time grid must be nonempty, finite and nondecreasing")
    lam = _trajectory_grid(spec, times)
    fig = spectral_figures(lam)
    lam_min = lam.min(axis=1)
    lower, upper = fig.fa_lower_slack, fig.fa_upper_slack
    neg = lam_min < -TRAJ_TOL
    bad = neg | (lower < -TRAJ_TOL) | (upper < -TRAJ_TOL)
    first_time = first_kind = None
    if bad.any():
        i = int(np.argmax(bad))
        first_time = float(times[i])
        first_kind = "negative-eigenvalue" if neg[i] else "fujiwara-algoet"
    check = TrajectoryValidation(
        times, lam_min, lower, upper, not bad.any(), first_time, first_kind
    )
    return check, lam, fig


def validate_trajectory(spec: EvolutionSpec, t_grid) -> TrajectoryValidation:
    """Check lambda(t) >= 0 and the CPTP inequalities on a time grid."""
    return _checked_grid(spec, t_grid)[0]


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


def timeline_report(spec: EvolutionSpec, t_grid) -> Timeline:
    """Evaluate fidelities, output norms, and factorization flags per grid time.

    Raises :class:`InvalidTrajectoryError` if the trajectory violates
    validity anywhere on the grid.  For nonnegative-eigenvalue
    trajectories the maximal fidelity equals the maximal output inf-norm
    at every time and the reported regularized value is exact.
    """
    check, lam, fig = _checked_grid(spec, t_grid)
    if not check.passed:
        raise InvalidTrajectoryError(
            f"trajectory invalid at t={check.first_violation_time:g} "
            f"({check.first_violation_kind})"
        )
    return Timeline(
        d=spec.d,
        times=check.times,
        lambdas=lam,
        f_min=fig.f_min,
        f_max=fig.f_max,
        nu2=fig.nu2,
        nu_inf=fig.nu_inf,
        fmax_multiplicative=fig.fmax_multiplicative,
        fmin_multiplicative=fig.fmin_multiplicative,
        nuinf_equals_fmax=fig.nuinf_equals_fmax,
        nuinf_multiplicative=fig.nuinf_multiplicative,
        regularized_exact=fig.fmax_multiplicative,
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


def timeline_csv_text(tl: Timeline) -> str:
    """CSV export of a timeline: one row per grid time, flags as 0/1."""
    figures = ["f_min", "f_max", "nu2", "nu_inf"]
    flags = ["fmax_multiplicative", "fmin_multiplicative", "nuinf_equals_fmax",
             "nuinf_multiplicative"]
    values = np.column_stack([tl.times, tl.lambdas] + [getattr(tl, n) for n in figures])
    bits = np.column_stack([getattr(tl, n) for n in flags]).astype(int)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"lambda_{a + 1}" for a in range(tl.d + 1)] + figures + flags)
    for row, row_bits in zip(values.tolist(), bits.tolist()):
        writer.writerow([repr(x) for x in row] + [str(b) for b in row_bits])
    return buf.getvalue()
