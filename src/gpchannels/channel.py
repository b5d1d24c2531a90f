"""Generalized Pauli channels: construction, validation, and representations.

A channel over a family of d+1 unbiased bases is parametrized by
probability weights p = (p_0, p_1, ..., p_{d+1}):

    Lambda = (d*p_0 - 1)/(d - 1) * id + d/(d - 1) * sum_a p_a * Phi_a,

where Phi_a dephases in basis a, Phi_a[X] = sum_k P_k X P_k.  The channel
acts diagonally on the basis unitaries, Lambda[U(a, k)] = lambda_a U(a, k),
with

    lambda_a = [d*(p_0 + p_a) - 1] / (d - 1),

and the inverse map

    p_0 = [1 + (d-1) * sum(lambda)] / d^2,
    p_a = (d-1) * [1 + d*lambda_a - sum(lambda)] / d^2.

Complete positivity is equivalent to the Fujiwara-Algoet inequalities

    -1/(d-1) <= sum(lambda) <= 1 + d*min(lambda),

which hold exactly when the inverse map lands in the probability simplex.

Probabilities are stored as ground truth; spectra are derived.  Channels
are immutable and all operations are pure.  Superoperators use the
column-stacking convention vec(A)[i + rows*j] = A[i, j], so that
vec(A X B) = (B^T kron A) vec(X).  Every superoperator, generator and
Choi matrix is built by :func:`dephasing_mixture`.

The oracle searches' budget and defaults also live here: MAX_ORACLE_DIM,
the restart counts SINGLE_RESTARTS and TENSOR_RESTARTS, DEFAULT_SEED and
:class:`OracleConfig`.  :mod:`gpchannels.oracle` re-exports them, and the
CLI checks its flags against them without loading the search engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadProbabilitiesError,
    DimensionMismatchError,
    FamilyMismatchError,
    MubValidationError,
    NotCPTPError,
    TooLargeError,
)
from .mub import MubFamily, build_mub_family, families_equal, spec_dimension, spec_numbers

#: tolerated probability round-off at CPTP boundaries
PROB_TOL = 1e-12
#: Fujiwara-Algoet slack tolerance for validity checks
FA_TOL = 1e-12
#: hard cap on the state dimension of a tensor power or an oracle search
MAX_ORACLE_DIM = 64
#: default restart counts (single-copy searches, tensor-power probes) and Haar seed
SINGLE_RESTARTS = 256
TENSOR_RESTARTS = 2048
DEFAULT_SEED = 2026


@dataclass(frozen=True)
class Spectrum:
    """The d+1 channel eigenvalues, one per basis, each (d-1)-fold degenerate."""

    d: int
    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).copy()
        if lam.shape != (self.d + 1,):
            raise DimensionMismatchError(
                f"expected {self.d + 1} eigenvalues for d={self.d}, got shape {lam.shape}"
            )
        if not np.all(np.isfinite(lam)):
            raise BadProbabilitiesError(f"non-finite eigenvalue in {lam.tolist()}")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)


@dataclass(frozen=True)
class OracleConfig:
    """Search budget and reproducibility stamp for one oracle run.

    ``restarts`` is the number of ascents (raised to the number of seeded
    candidates if they are more), ``max_iters`` caps the sweeps of each and
    ``seed``, a nonnegative integer, seeds the Haar starts.  The stop
    tolerances are the constants ``oracle.STEP_TOL`` and ``oracle.VALUE_TOL``.
    It lives here, with the searches' defaults, so that a caller can check a
    budget without importing the search engine.
    """

    restarts: int = SINGLE_RESTARTS
    max_iters: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FujiwaraAlgoetResult:
    """Slack of each complete-positivity bound; negative slack means violation."""

    passed: bool
    lower_slack: float   # sum(lambda) + 1/(d-1)
    upper_slack: float   # 1 + d*min(lambda) - sum(lambda)
    violated: str | None  # "lower", "upper", or None


@dataclass(frozen=True, eq=False)
class GeneralizedPauliChannel:
    """Frozen channel: its probability weights and maximal basis family; ``d`` is the family's."""

    probs: np.ndarray  # shape (d+2,), read-only
    fam: MubFamily

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def d(self) -> int:
        return self.fam.d


def fa_slacks(lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Fujiwara-Algoet slacks of each spectrum along the last axis.

    Returns (sum(lambda) + 1/(d-1), 1 + d*min(lambda) - sum(lambda)); a
    negative slack means the bound is violated.
    """
    lam = np.asarray(lambdas, dtype=float)
    d = lam.shape[-1] - 1
    with np.errstate(over="ignore", invalid="ignore"):  # huge spectra: slacks go inf or nan
        total = lam.sum(axis=-1)
        return total + 1.0 / (d - 1), 1.0 + d * lam.min(axis=-1) - total


def fujiwara_algoet_check(sp: Spectrum) -> FujiwaraAlgoetResult:
    """Evaluate -1/(d-1) <= sum(lambda) <= 1 + d*min(lambda) with slacks."""
    lower, upper = (float(x) for x in fa_slacks(sp.lambdas))
    violated = None
    if not lower >= -FA_TOL:  # negated, so that a nan slack fails too
        violated = "lower"
    elif not upper >= -FA_TOL:
        violated = "upper"
    return FujiwaraAlgoetResult(violated is None, lower, upper, violated)


def lambdas_from_probabilities(probs) -> np.ndarray:
    """Eigenvalues lambda_a = [d*(p_0 + p_a) - 1] / (d - 1) along the last axis."""
    p = np.asarray(probs, dtype=float)
    d = p.shape[-1] - 2
    return (d * (p[..., :1] + p[..., 1:]) - 1.0) / (d - 1)


def spectrum_of(ch: GeneralizedPauliChannel) -> Spectrum:
    """The channel's eigenvalues; see :func:`lambdas_from_probabilities`."""
    return Spectrum(d=ch.d, lambdas=lambdas_from_probabilities(ch.probs))


def probabilities_of(sp: Spectrum) -> np.ndarray:
    """Inverse of :func:`spectrum_of`; exact round-trip to float precision."""
    d = sp.d
    total = float(np.sum(sp.lambdas))
    p = np.empty(d + 2, dtype=float)
    p[0] = (1.0 + (d - 1) * total) / d**2
    p[1:] = (d - 1) * (1.0 + d * sp.lambdas - total) / d**2
    return p


def resolve_family(d: int, fam: MubFamily | None = None) -> MubFamily:
    """``fam``, or the built-in family for d, checked to be maximal of dimension d."""
    if fam is None:
        fam = build_mub_family(d)
    if fam.d != d:
        raise DimensionMismatchError(f"family dimension {fam.d} != channel dimension {d}")
    if not fam.is_maximal:
        raise DimensionMismatchError(
            f"channels need a maximal family of {d + 1} bases, got {fam.n_bases}"
        )
    return fam


def channel_from_probabilities(
    d: int, probs, fam: MubFamily | None = None
) -> GeneralizedPauliChannel:
    """Build a channel from d+2 nonnegative weights summing to one.

    Weights down to -1e-12 are accepted to absorb round-trip noise at
    complete-positivity boundaries.  Any point of the simplex yields a
    valid (CPTP) channel.
    """
    p = np.asarray(probs, dtype=float)
    fam = resolve_family(d, fam)
    if p.shape != (d + 2,):
        raise BadProbabilitiesError(f"need {d + 2} weights for d={d}, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise BadProbabilitiesError(f"non-finite weight in {p.tolist()}")
    if np.min(p) < -PROB_TOL:
        raise BadProbabilitiesError(f"negative weight {np.min(p):.3e}")
    drift = abs(float(np.sum(p)) - 1.0)
    if drift > PROB_TOL:
        raise BadProbabilitiesError(f"weights sum off one by {drift:.3e}")
    return GeneralizedPauliChannel(probs=p, fam=fam)


def channel_from_eigenvalues(
    d: int, lambdas, fam: MubFamily | None = None
) -> GeneralizedPauliChannel:
    """Build a channel from its d+1 eigenvalues, rejecting non-CPTP spectra."""
    sp = Spectrum(d=d, lambdas=np.asarray(lambdas, dtype=float))
    check = fujiwara_algoet_check(sp)
    if not check.passed:
        slack = check.lower_slack if check.violated == "lower" else check.upper_slack
        if np.isfinite(slack):
            by = f" by {-slack:.6g}"
        else:  # huge eigenvalues: the sums behind the slack overflowed
            by = "; its slack overflowed the float range"
        raise NotCPTPError(
            f"spectrum violates the {check.violated} Fujiwara-Algoet bound{by}",
            bound=check.violated,
            spectrum=sp,
        )
    return channel_from_probabilities(d, probabilities_of(sp), fam)


def dephasing_mixture(fam: MubFamily, identity_weight, basis_weights) -> np.ndarray:
    """Column-stacking superoperator of c_0 * id + sum_a c_a * Phi_a.

    ``identity_weight`` c_0 has shape (...) and ``basis_weights`` c shape
    (..., d+1); the result has shape (..., d^2, d^2).  It is
    c_0 I + W diag(c_a, each repeated d times) W^dagger, where the columns
    of W are vec(|v><v|) = conj(v) kron v for the d(d+1) family vectors v.
    """
    d = fam.d
    v = fam.all_vectors()
    w = (v.conj()[:, :, None] * v[:, None, :]).reshape(-1, d * d).T
    c = np.repeat(np.asarray(basis_weights, dtype=float), d, axis=-1)
    c0 = np.asarray(identity_weight, dtype=float)[..., None, None]
    return c0 * np.eye(d * d) + (w * c[..., None, :]) @ w.conj().T


def eigen_columns(fam: MubFamily) -> np.ndarray:
    """Matrix (d^2, d^2) whose columns are vec(I) and every vec(U(a, k)), in unitaries() order.

    Every channel of the family scales them by 1 and lambda_a.
    """
    d = fam.d
    us = np.concatenate([np.eye(d)[None], fam.unitaries().reshape(-1, d, d)])
    # column-stacking vec of each matrix is its transpose's row-major flattening
    return us.transpose(0, 2, 1).reshape(d * d, d * d).T


def superoperator_of(ch: GeneralizedPauliChannel) -> np.ndarray:
    """Matrix S with vec(Lambda[X]) = S @ vec(X), assembled afresh from the definition."""
    d, p = ch.d, ch.probs
    return dephasing_mixture(ch.fam, (d * p[0] - 1.0) / (d - 1), d * p[1:] / (d - 1))


def choi_from_spectrum(fam: MubFamily, lambdas) -> np.ndarray:
    """Choi matrices (trace one) of the maps with eigenvalues stacked along the last axis.

    The map is (1 - sum(lambda)) T + sum_a lambda_a Phi_a, T[X] = Tr(X) I/d.
    For a projector P, conj(P) kron P = vec(P) vec(P)^dagger, so Phi_a has
    Choi matrix S(Phi_a)/d (Watrous, The Theory of Quantum Information,
    2018, ch. 2), and T has I/d^2.
    """
    lam = np.asarray(lambdas, dtype=float)
    return dephasing_mixture(fam, (1.0 - lam.sum(axis=-1)) / fam.d, lam) / fam.d


def compose(a: GeneralizedPauliChannel, b: GeneralizedPauliChannel) -> GeneralizedPauliChannel:
    """Composition a after b; spectra multiply elementwise over a shared family."""
    if a.d != b.d or not families_equal(a.fam, b.fam):
        raise FamilyMismatchError("channels must share one basis family to compose")
    lam = spectrum_of(a).lambdas * spectrum_of(b).lambdas
    return channel_from_probabilities(a.d, probabilities_of(Spectrum(a.d, lam)), a.fam)


def check_oracle_dim(m: int) -> None:
    """Raise :class:`TooLargeError` if state dimension m exceeds MAX_ORACLE_DIM."""
    if m > MAX_ORACLE_DIM:
        raise TooLargeError(f"state dimension {m} exceeds oracle guard {MAX_ORACLE_DIM}")


def tensor_power(ch: GeneralizedPauliChannel, n: int) -> np.ndarray:
    """Superoperator of the n-fold tensor power, side d^(2n).

    Refused with :class:`TooLargeError`, before any arithmetic, when the
    state dimension d^n exceeds MAX_ORACLE_DIM (so the side stays <= 4096).
    """
    d = ch.d
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    check_oracle_dim(d**n)
    side = d ** (2 * n)
    s = superoperator_of(ch)
    if n == 1:
        return s
    # fold copies with interleaved (row-out, col-out, row-in, col-in) indices
    t = s.reshape(d, d, d, d)  # [j', i', j, i] in column-stacking order
    out = t
    dim = d
    for _ in range(n - 1):
        out = np.einsum("abcd,efgh->aebfcgdh", out, t).reshape(
            dim * d, dim * d, dim * d, dim * d
        )
        dim *= d
    return np.ascontiguousarray(out.reshape(side, side))


# ---------------------------------------------------------------------------
# channel specs
# ---------------------------------------------------------------------------

#: normalization drift accepted (and renormalized away) when loading specs
LOAD_DRIFT = 1e-9


def channel_from_dict(payload: dict, fam: MubFamily | None = None) -> GeneralizedPauliChannel:
    """Build a channel from a parsed spec dict, over ``fam`` or the built-in family.

    The payload carries ``d`` (see :func:`~gpchannels.mub.spec_dimension`),
    either ``probabilities`` (d+2) or ``eigenvalues`` (d+1), each read by
    :func:`~gpchannels.mub.spec_numbers`, and optionally ``mub_file``, a
    basis-family file that the caller reads and passes as ``fam`` (a
    payload naming one without ``fam`` is refused).  Weights drifting off
    one by at most 1e-9 are renormalized.  This is where a spec's complete
    positivity is decided: every channel is CPTP.
    """
    d = spec_dimension(payload)
    if "probabilities" in payload and "eigenvalues" in payload:
        raise BadProbabilitiesError("channel spec gives both 'probabilities' and 'eigenvalues'")
    if fam is None:
        if payload.get("mub_file") is not None:
            raise MubValidationError("the spec names a 'mub_file', but no family was passed")
        fam = build_mub_family(d)
    if "probabilities" in payload:
        p = spec_numbers(payload["probabilities"], "probabilities", BadProbabilitiesError)
        # non-finite weights are left for channel_from_probabilities to reject
        with np.errstate(over="ignore"):  # an overflowing sum is rejected as a drift
            total = float(np.sum(p)) if np.all(np.isfinite(p)) else 1.0
        if abs(total - 1.0) > LOAD_DRIFT:
            raise BadProbabilitiesError(f"probabilities sum to {total!r}, beyond 1e-9 drift")
        return channel_from_probabilities(d, p / total, fam)
    if "eigenvalues" in payload:
        lam = spec_numbers(payload["eigenvalues"], "eigenvalues", BadProbabilitiesError)
        return channel_from_eigenvalues(d, lam, fam)
    raise BadProbabilitiesError("channel spec needs 'probabilities' or 'eigenvalues'")

