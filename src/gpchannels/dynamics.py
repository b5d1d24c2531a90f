"""Time-parametrized channel families with per-time validity checks.

Two kinds of eigenvalue trajectories are supported:

* ``exponential``: constant nonnegative rates gamma_1..gamma_{d+1} generate

      lambda_a(t) = exp(-(G - gamma_a) * t),       G = sum(gamma),

  which solves d/dt Lambda(t) = L[Lambda(t)], Lambda(0) = id, for the
  constant generator L = sum_a gamma_a (Phi_a - id) built from the
  dephasing maps.  The formula is re-verified numerically against the
  exponential of the assembled generator superoperator, which is Hermitian
  and so is exponentiated through one ``eigh``
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

import json
from dataclasses import dataclass

import numpy as np

from .channel import dephasing_mixture, eigen_columns, resolve_family
from .errors import InvalidTrajectoryError, MubValidationError, OutOfRangeError
from .metrics import SpectralFigures, spectral_figures
from .mub import MubFamily, spec_dimension, spec_numbers

#: eigenvalue negativity tolerated on validated trajectories
TRAJ_TOL = 1e-12
#: identity-spectrum drift allowed at t=0 for sampled trajectories
T0_TOL = 1e-9
#: timeline rows per json.dumps call in the CSV export; a whole-table encode
#: is no faster and raises peak memory with the table's text
CSV_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class EvolutionSpec:
    """Frozen eigenvalue trajectory: a maximal family plus read-only rates or samples.

    ``d`` is the family's.  Build specs with :func:`exponential_evolution`
    or :func:`sampled_evolution`, which check them.
    """

    fam: MubFamily
    rates: np.ndarray | None = None          # exponential kind
    sample_times: np.ndarray | None = None   # sampled kind
    sample_lambdas: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.fam.d

    @property
    def kind(self) -> str:
        return "exponential" if self.rates is not None else "sampled"


def exponential_evolution(d: int, rates, fam: MubFamily | None = None) -> EvolutionSpec:
    """Constant-rate evolution; all rates must be nonnegative."""
    fam = resolve_family(d, fam)  # an unsupported d fails first, whatever the rates
    gam = np.asarray(rates, dtype=float).copy()
    if gam.shape != (d + 1,):
        raise InvalidTrajectoryError(f"need {d + 1} rates for d={d}, got shape {gam.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(gam)
    if not np.isfinite(total):  # a non-finite rate, or a sum that overflows
        raise InvalidTrajectoryError(f"rates {gam.tolist()} must be finite with a finite sum")
    if np.min(gam) < 0:
        raise InvalidTrajectoryError(f"negative rate {np.min(gam):.3e}")
    gam.setflags(write=False)
    return EvolutionSpec(fam=fam, rates=gam)


def sampled_evolution(d: int, times, lambdas, fam: MubFamily | None = None) -> EvolutionSpec:
    """User-supplied trajectory samples; interpolation is linear in between."""
    fam = resolve_family(d, fam)
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
    if np.any(t[1:] <= t[:-1]):  # compared, not subtracted: a difference can overflow
        raise InvalidTrajectoryError("sample times must be strictly increasing")
    if np.max(np.abs(lam[0] - 1.0)) > T0_TOL:
        raise InvalidTrajectoryError("lambda(0) must be the identity spectrum (all ones)")
    t.setflags(write=False)
    lam.setflags(write=False)
    return EvolutionSpec(fam=fam, sample_times=t, sample_lambdas=lam)


def _trajectory_grid(spec: EvolutionSpec, times: np.ndarray) -> np.ndarray:
    """Eigenvalues at each grid time, shape (T, d+1)."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise OutOfRangeError("trajectory times must be >= 0")
    if spec.kind == "exponential":
        decay = np.sum(spec.rates) - spec.rates  # G - gamma_a, per basis
        with np.errstate(over="ignore"):  # an exponent past the float range decays to 0
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


@dataclass(frozen=True)
class TrajectoryValidation:
    """Eigenvalue positivity and the CPTP inequalities on a grid; the first bad time, if any."""

    passed: bool
    first_violation_time: float | None
    first_violation_kind: str | None


def _checked_grid(spec: EvolutionSpec, t_grid):
    """Validation of the grid plus the times, eigenvalues and figures it was built from."""
    times = np.asarray(t_grid, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times)) or np.any(times[1:] < times[:-1]):
        raise InvalidTrajectoryError("time grid must be nonempty, finite and nondecreasing")
    lam = _trajectory_grid(spec, times)
    finite = np.all(np.isfinite(lam), axis=1)
    if not finite.all():  # interpolating between huge samples can overflow
        t_bad = float(times[np.argmin(finite)])
        raise InvalidTrajectoryError(f"trajectory eigenvalues are not finite at t={t_bad:g}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge samples; flagged below
        fig = spectral_figures(lam)
    neg = lam.min(axis=1) < -TRAJ_TOL
    # an eigenvalue outside [-1, 1] breaks a Fujiwara-Algoet bound by at least
    # as much; testing it directly keeps rows whose slacks overflowed to nan bad
    outside = np.any(np.abs(lam) > 1.0 + TRAJ_TOL, axis=1)
    bad = neg | outside | (fig.fa_lower_slack < -TRAJ_TOL) | (fig.fa_upper_slack < -TRAJ_TOL)
    first_time = first_kind = None
    if bad.any():
        i = int(np.argmax(bad))
        first_time = float(times[i])
        first_kind = "negative-eigenvalue" if neg[i] else "fujiwara-algoet"
    return TrajectoryValidation(not bad.any(), first_time, first_kind), times, lam, fig


def validate_trajectory(spec: EvolutionSpec, t_grid) -> TrajectoryValidation:
    """Check lambda(t) >= 0 and the CPTP inequalities on a time grid."""
    return _checked_grid(spec, t_grid)[0]


@dataclass(frozen=True)
class Timeline(SpectralFigures):
    """The closed-form record of every grid time, with the grid it was taken on.

    Each inherited column has one entry per grid time; ``d``, ``times`` and
    ``lambdas`` (shape (T, d+1)) say where the figures were evaluated.
    """

    d: int
    times: np.ndarray
    lambdas: np.ndarray


def timeline_report(spec: EvolutionSpec, t_grid) -> Timeline:
    """Evaluate fidelities, output norms, and factorization flags per grid time.

    Raises :class:`InvalidTrajectoryError` if the trajectory violates
    validity anywhere on the grid.  For nonnegative-eigenvalue
    trajectories the maximal fidelity equals the maximal output inf-norm
    at every time and ``fmax_multiplicative`` marks the regularized value
    exact.
    """
    check, times, lam, fig = _checked_grid(spec, t_grid)
    if not check.passed:
        raise InvalidTrajectoryError(
            f"trajectory invalid at t={check.first_violation_time:g} "
            f"({check.first_violation_kind})"
        )
    return Timeline(**vars(fig), d=spec.d, times=times, lambdas=lam)


def generator_superoperator(spec: EvolutionSpec) -> np.ndarray:
    """Assembled superoperator of L = sum_a gamma_a (Phi_a - id)."""
    if spec.kind != "exponential":
        raise InvalidTrajectoryError("only constant-rate evolutions carry a generator")
    return dephasing_mixture(spec.fam, -np.sum(spec.rates), spec.rates)


def generator_consistency_residual(spec: EvolutionSpec, times) -> float:
    """max over times of |e^(tL) X - X diag(1, lambda(t))| (max-entry norm).

    X is :func:`~gpchannels.channel.eigen_columns`: vec(I) and every
    vec(U(a, k)), which span the d x d matrices, so a zero residual means
    e^(tL) is the channel with eigenvalues lambda(t).  L is Hermitian, so
    one ``eigh`` L = V diag(mu) V^dagger gives every
    e^(tL) = V diag(e^(t mu)) V^dagger.
    """
    d = spec.d
    mu, v = np.linalg.eigh(generator_superoperator(spec))
    x = eigen_columns(spec.fam)
    coeffs = v.conj().T @ x
    times = np.asarray(times, dtype=float)
    worst = 0.0
    for t, lam in zip(times, _trajectory_grid(spec, times)):
        scale = np.concatenate([[1.0], np.repeat(lam, d - 1)])
        evolved = v @ (np.exp(t * mu)[:, None] * coeffs)
        worst = max(worst, float(np.max(np.abs(evolved - x * scale))))
    return worst


# ---------------------------------------------------------------------------
# spec payloads and CSV export
# ---------------------------------------------------------------------------


def evolution_from_dict(payload: dict, fam: MubFamily | None = None) -> EvolutionSpec:
    """Build a spec from ``{"d":, "rates": [...]}`` or
    ``{"d":, "trajectory": [{"t":, "lambdas": [...]}, ...]}``, not both, over ``fam``
    or the built-in family, as ``channel_from_dict`` does (a ``mub_file`` needs ``fam``);
    ``d`` is read by :func:`~gpchannels.mub.spec_dimension` and every number by
    :func:`~gpchannels.mub.spec_numbers`."""
    d = spec_dimension(payload)
    if "rates" in payload and "trajectory" in payload:
        raise InvalidTrajectoryError("evolution spec gives both 'rates' and 'trajectory'")
    if fam is None and payload.get("mub_file") is not None:
        raise MubValidationError("the spec names a 'mub_file', but no family was passed")
    fam = resolve_family(d, fam)  # an unsupported d fails first, whatever the numbers
    if "rates" in payload:
        rates = spec_numbers(payload["rates"], "rates", InvalidTrajectoryError)
        return exponential_evolution(d, rates, fam)
    if "trajectory" in payload:
        rows = payload["trajectory"]
        try:
            times = np.array([spec_numbers(row["t"], "t", InvalidTrajectoryError)
                              for row in rows])
            lams = np.array([spec_numbers(row["lambdas"], "lambdas", InvalidTrajectoryError)
                             for row in rows])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidTrajectoryError(f"malformed trajectory rows: {exc}") from exc
        return sampled_evolution(d, times, lams, fam)
    raise InvalidTrajectoryError("evolution spec needs 'rates' or 'trajectory'")


def timeline_csv_text(tl: Timeline) -> str:
    """CSV export of a timeline: one row per grid time, flags as 0/1.

    Every float is written as Python's shortest round-trip ``repr``, so the
    text reads back to the exact doubles of the timeline.  Rows go through
    the C json encoder a block at a time, which writes floats with that
    same ``repr``; non-finite values raise ``ValueError``.
    """
    figures = ["f_min", "f_max", "nu2", "nu_inf"]
    flags = ["fmax_multiplicative", "fmin_multiplicative", "nuinf_equals_fmax",
             "nuinf_multiplicative"]
    values = np.column_stack([tl.times, tl.lambdas] + [getattr(tl, n) for n in figures])
    bits = np.column_stack([getattr(tl, n) for n in flags]).astype(int)
    header = ",".join(["t"] + [f"lambda_{a + 1}" for a in range(tl.d + 1)] + figures + flags)
    lines = [header]
    for start in range(0, values.shape[0], CSV_BLOCK_ROWS):
        stop = start + CSV_BLOCK_ROWS
        rows = [v + b for v, b in zip(values[start:stop].tolist(), bits[start:stop].tolist())]
        text = json.dumps(rows, separators=(",", ":"), allow_nan=False)
        lines.extend(text[2:-2].split("],["))
    return "\n".join(lines) + "\n"
