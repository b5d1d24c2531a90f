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
vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadProbabilitiesError,
    DimensionMismatchError,
    FamilyMismatchError,
    NotCPTPError,
    TooLargeError,
)
from .mub import MubFamily, build_mub_family, families_equal, load_mub_file

#: tolerated probability round-off at CPTP boundaries
PROB_TOL = 1e-12
#: Fujiwara-Algoet slack tolerance for validity checks
FA_TOL = 1e-12
#: largest superoperator side allowed for tensor powers
TENSOR_GUARD = 4096


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
class FujiwaraAlgoetResult:
    """Slack of each complete-positivity bound; negative slack means violation."""

    passed: bool
    lower_slack: float   # sum(lambda) + 1/(d-1)
    upper_slack: float   # 1 + d*min(lambda) - sum(lambda)
    violated: str | None  # "lower", "upper", or None


@dataclass(eq=False)
class GeneralizedPauliChannel:
    """Immutable channel: dimension, probability weights, and basis family."""

    d: int
    probs: np.ndarray  # shape (d+2,)
    fam: MubFamily
    _superop: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        p.setflags(write=False)
        self.probs = p


def fa_slacks(lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Fujiwara-Algoet slacks of each spectrum along the last axis.

    Returns (sum(lambda) + 1/(d-1), 1 + d*min(lambda) - sum(lambda)); a
    negative slack means the bound is violated.
    """
    lam = np.asarray(lambdas, dtype=float)
    d = lam.shape[-1] - 1
    total = lam.sum(axis=-1)
    return total + 1.0 / (d - 1), 1.0 + d * lam.min(axis=-1) - total


def fujiwara_algoet_check(sp: Spectrum) -> FujiwaraAlgoetResult:
    """Evaluate -1/(d-1) <= sum(lambda) <= 1 + d*min(lambda) with slacks."""
    lower, upper = (float(x) for x in fa_slacks(sp.lambdas))
    violated = None
    if lower < -FA_TOL:
        violated = "lower"
    elif upper < -FA_TOL:
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


def channel_from_probabilities(
    d: int, probs, fam: MubFamily | None = None
) -> GeneralizedPauliChannel:
    """Build a channel from d+2 nonnegative weights summing to one.

    Weights down to -1e-12 are accepted to absorb round-trip noise at
    complete-positivity boundaries.  Any point of the simplex yields a
    valid (CPTP) channel.
    """
    p = np.asarray(probs, dtype=float)
    if fam is None:
        fam = build_mub_family(d)
    if fam.d != d:
        raise DimensionMismatchError(f"family dimension {fam.d} != channel dimension {d}")
    if not fam.is_maximal:
        raise DimensionMismatchError(
            f"channels need a maximal family of {d + 1} bases, got {fam.n_bases}"
        )
    if p.shape != (d + 2,):
        raise BadProbabilitiesError(f"need {d + 2} weights for d={d}, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise BadProbabilitiesError(f"non-finite weight in {p.tolist()}")
    if np.min(p) < -PROB_TOL:
        raise BadProbabilitiesError(f"negative weight {np.min(p):.3e}")
    drift = abs(float(np.sum(p)) - 1.0)
    if drift > PROB_TOL:
        raise BadProbabilitiesError(f"weights sum off one by {drift:.3e}")
    return GeneralizedPauliChannel(d=d, probs=p, fam=fam)


def channel_from_eigenvalues(
    d: int, lambdas, fam: MubFamily | None = None
) -> GeneralizedPauliChannel:
    """Build a channel from its d+1 eigenvalues, rejecting non-CPTP spectra."""
    sp = Spectrum(d=d, lambdas=np.asarray(lambdas, dtype=float))
    check = fujiwara_algoet_check(sp)
    if not check.passed:
        slack = check.lower_slack if check.violated == "lower" else check.upper_slack
        raise NotCPTPError(
            f"spectrum violates the {check.violated} Fujiwara-Algoet bound by {-slack:.6g}",
            bound=check.violated,
            violation=-slack,
        )
    return channel_from_probabilities(d, probabilities_of(sp), fam)


def identity_channel(d: int, fam: MubFamily | None = None) -> GeneralizedPauliChannel:
    p = np.zeros(d + 2)
    p[0] = 1.0
    return channel_from_probabilities(d, p, fam)


def depolarizing_channel(d: int, fam: MubFamily | None = None) -> GeneralizedPauliChannel:
    """The channel with all-zero spectrum (every input goes to I/d)."""
    return channel_from_eigenvalues(d, np.zeros(d + 1), fam)


def _dephase(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Phi_a[X] = sum_k <psi_k|X|psi_k> |psi_k><psi_k|; rows of `basis` are the psi_k
    w = np.einsum("ki,ij,kj->k", basis.conj(), x, basis)
    return np.einsum("k,ki,kj->ij", w, basis, basis.conj())


def apply_channel(ch: GeneralizedPauliChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a matrix (density or otherwise) of matching size."""
    rho = np.asarray(rho, dtype=complex)
    d = ch.d
    if rho.shape != (d, d):
        raise DimensionMismatchError(f"expected a {d}x{d} matrix, got {rho.shape}")
    out = ((d * ch.probs[0] - 1.0) / (d - 1)) * rho
    scale = d / (d - 1)
    for a in range(d + 1):
        pa = ch.probs[1 + a]
        if pa != 0.0:
            out = out + scale * pa * _dephase(ch.fam.bases[a], rho)
    return out


def dephasing_superoperator(fam: MubFamily, alpha: int) -> np.ndarray:
    """Column-stacking superoperator of the basis-alpha dephasing map."""
    d = fam.d
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        p = fam.projector(alpha, k)
        s += np.kron(p.conj(), p)  # P^T = conj(P) for Hermitian P
    return s


def superoperator_of(ch: GeneralizedPauliChannel) -> np.ndarray:
    """Matrix S with vec(Lambda[X]) = S @ vec(X), assembled from the definition."""
    if ch._superop is None:
        d = ch.d
        s = ((d * ch.probs[0] - 1.0) / (d - 1)) * np.eye(d * d, dtype=complex)
        scale = d / (d - 1)
        for a in range(d + 1):
            s += scale * ch.probs[1 + a] * dephasing_superoperator(ch.fam, a)
        s.setflags(write=False)
        ch._superop = s
    return ch._superop.copy()


def _spectral_parts(fam: MubFamily) -> tuple[np.ndarray, np.ndarray]:
    """Cached per-basis building blocks of the spectral superoperator and Choi forms.

    Returns ``(sup_parts, choi_parts)`` of shape (d+1, d^2, d^2) with

        S(lam)  = |vec I><vec I| / d + sum_a lam_a * sup_parts[a]
        J(lam)  = I / d^2          + sum_a lam_a * choi_parts[a]
    """
    cached = getattr(fam, "_spectral_parts", None)
    if cached is not None:
        return cached
    d = fam.d
    us = fam.unitaries()
    sup = np.zeros((d + 1, d * d, d * d), dtype=complex)
    choi = np.zeros((d + 1, d * d, d * d), dtype=complex)
    for a in range(d + 1):
        for k in range(d - 1):
            u = us[a, k]
            v = u.reshape(-1, order="F")
            sup[a] += np.outer(v, v.conj()) / d
            choi[a] += np.kron(u.conj(), u) / d**2
    sup.setflags(write=False)  # built-in families, and so these parts, are shared
    choi.setflags(write=False)
    object.__setattr__(fam, "_spectral_parts", (sup, choi))
    return sup, choi


def superop_from_spectrum(fam: MubFamily, lambdas) -> np.ndarray:
    """Superoperator of the (not necessarily CPTP) map with the given eigenvalues."""
    d = fam.d
    lam = np.asarray(lambdas, dtype=float)
    sup, _ = _spectral_parts(fam)
    vid = np.eye(d, dtype=complex).reshape(-1, order="F")
    s = np.outer(vid, vid.conj()) / d
    s += np.tensordot(lam, sup, axes=1)
    return s


def choi_from_spectrum(fam: MubFamily, lambdas) -> np.ndarray:
    """Choi matrices (trace one) of the maps with eigenvalues stacked along the last axis."""
    d = fam.d
    _, choi = _spectral_parts(fam)
    lam = np.asarray(lambdas, dtype=float)
    return np.einsum("...a,aij->...ij", lam, choi) + np.eye(d * d, dtype=complex) / d**2


def choi_of(ch: GeneralizedPauliChannel) -> np.ndarray:
    """Choi matrix J = (id x Lambda)[|Omega><Omega|], |Omega> = sum_i |ii>/sqrt(d).

    Normalized to trace one; J is positive semidefinite iff the channel is
    completely positive.
    """
    d = ch.d
    j = np.zeros((d * d, d * d), dtype=complex)
    e = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for k in range(d):
            e[i, k] = 1.0
            block = apply_channel(ch, e)
            j[i * d : (i + 1) * d, k * d : (k + 1) * d] = block / d
            e[i, k] = 0.0
    return j


def compose(a: GeneralizedPauliChannel, b: GeneralizedPauliChannel) -> GeneralizedPauliChannel:
    """Composition a after b; spectra multiply elementwise over a shared family."""
    if a.d != b.d or not families_equal(a.fam, b.fam):
        raise FamilyMismatchError("channels must share one basis family to compose")
    lam = spectrum_of(a).lambdas * spectrum_of(b).lambdas
    return channel_from_probabilities(a.d, probabilities_of(Spectrum(a.d, lam)), a.fam)


def tensor_power(ch: GeneralizedPauliChannel, n: int) -> np.ndarray:
    """Superoperator of the n-fold tensor power, side d^(2n).

    Guarded at side 4096; raises :class:`TooLargeError` beyond.
    """
    d = ch.d
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    side = d ** (2 * n)
    if side > TENSOR_GUARD:
        raise TooLargeError(f"superoperator side {side} exceeds guard {TENSOR_GUARD}")
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
# channel spec files
# ---------------------------------------------------------------------------

#: normalization drift accepted (and renormalized away) when loading files
LOAD_DRIFT = 1e-9


def channel_from_dict(payload: dict, base_dir: str | None = None) -> GeneralizedPauliChannel:
    """Build a channel from a parsed spec dict.

    The payload carries ``d`` plus either ``probabilities`` (length d+2) or
    ``eigenvalues`` (length d+1), and optionally ``mub_file`` pointing at a
    basis-family JSON (default: built-in prime construction).  Probability
    vectors are renormalized when their sum drifts by at most 1e-9 and are
    rejected beyond that.
    """
    try:
        d = int(payload["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadProbabilitiesError(f"channel spec needs an integer 'd': {exc}") from exc
    mub_path = payload.get("mub_file")
    if mub_path is not None:
        if base_dir is not None and not os.path.isabs(mub_path):
            mub_path = os.path.join(base_dir, mub_path)
        fam = load_mub_file(mub_path)
    else:
        fam = build_mub_family(d)
    if "probabilities" in payload:
        p = np.asarray(payload["probabilities"], dtype=float)
        total = float(np.sum(p))
        if abs(total - 1.0) > LOAD_DRIFT:
            raise BadProbabilitiesError(f"probabilities sum to {total!r}, beyond 1e-9 drift")
        return channel_from_probabilities(d, p / total, fam)
    if "eigenvalues" in payload:
        return channel_from_eigenvalues(d, np.asarray(payload["eigenvalues"], dtype=float), fam)
    raise BadProbabilitiesError("channel spec needs 'probabilities' or 'eigenvalues'")


def load_channel_file(path) -> GeneralizedPauliChannel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return channel_from_dict(payload, base_dir=os.path.dirname(os.fspath(path)))
