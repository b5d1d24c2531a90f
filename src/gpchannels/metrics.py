"""Closed-form channel figures of merit.

For a channel with eigenvalues lambda_1..lambda_{d+1} the extremal
input-output fidelities over pure states are

    f_min = [1 + (d-1)*min(lambda)] / d,
    f_max = [1 + (d-1)*max(lambda)] / d,

equivalently p_0 + min_a p_a and p_0 + max_a p_a in probability form.  The
maximal output Schatten norms over pure inputs are

    nu_2   = sqrt([1 + (d-1)*max_a lambda_a^2] / d),
    nu_inf = max(1 + (d-1)*max(lambda), 1 - min(lambda)) / d,

and f_max of the self-composed channel equals nu_2^2 (the channel is
self-adjoint in the Hilbert-Schmidt inner product).

Multiplicativity classification: f_max of a tensor power factorizes into
the single-copy power whenever max(lambda) >= |min(lambda)|, in which case
the n-th regularized maximal fidelity equals f_max for every n and also
equals nu_inf.  Outside that regime only the bracket
[f_max, nu_inf] is reported; whether tensor inputs can beat product
inputs there is probed numerically, never asserted.

Every formula above is written once, in :func:`spectral_figures`, which
takes spectra of shape (..., d+1) and returns, each of shape (...), the
closed forms f_min, f_max, nu2 and nu_inf; the attaining bases
argmin_alpha, argmax_alpha and nu2_alpha (argmax of lambda^2); the flags
of :func:`multiplicativity_flags`; nu2_fmax_coincide (|max(lambda)| >=
|min(lambda)|) and nu2_fmin_coincide (max(lambda)^2 <= min(lambda)^2);
inf_exact (d = 2 or f_max factorizes: nu_inf is then the verified
maximum); and the Fujiwara-Algoet slacks fa_lower_slack and
fa_upper_slack of :func:`gpchannels.channel.fa_slacks`.

The per-channel functions below, the trajectory timelines and the
complete-positivity scan all read their numbers from it.  Argmax/argmin
ties break toward the lowest basis index everywhere, so attainment indices
are deterministic.  Comparisons carry :data:`CLASSIFY_SLACK` (1e-12) toward
"true" on equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GeneralizedPauliChannel, compose, fa_slacks, spectrum_of
from .errors import BadProbabilitiesError, DimensionMismatchError
from .mub import MubFamily

#: slack applied toward "true" when classifying non-strict inequalities
CLASSIFY_SLACK = 1e-12


@dataclass(frozen=True)
class SpectralFigures:
    """Closed forms of an array of spectra; see the module docstring."""

    f_min: np.ndarray
    f_max: np.ndarray
    nu2: np.ndarray
    nu_inf: np.ndarray
    argmin_alpha: np.ndarray
    argmax_alpha: np.ndarray
    nu2_alpha: np.ndarray
    fmax_multiplicative: np.ndarray
    fmin_multiplicative: np.ndarray
    nuinf_equals_fmax: np.ndarray
    nuinf_multiplicative: np.ndarray
    nu2_fmax_coincide: np.ndarray
    nu2_fmin_coincide: np.ndarray
    inf_exact: np.ndarray
    fa_lower_slack: np.ndarray
    fa_upper_slack: np.ndarray


def spectral_figures(lambdas) -> SpectralFigures:
    """Evaluate every closed form on spectra stacked along the last axis.

    ``lambdas`` has shape (..., d+1); a single spectrum of shape (d+1,)
    yields numpy scalars.  Non-finite eigenvalues raise
    :class:`BadProbabilitiesError`.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim < 1 or lam.shape[-1] < 3:
        raise DimensionMismatchError(f"need spectra of length d+1 >= 3, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise BadProbabilitiesError("non-finite eigenvalue in spectrum")
    d = lam.shape[-1] - 1
    lmin = lam.min(axis=-1)
    lmax = lam.max(axis=-1)
    squares = lam**2
    fmax_mult = lmax >= np.abs(lmin) - CLASSIFY_SLACK
    nuinf_eq = lmax >= -lmin / (d - 1) - CLASSIFY_SLACK
    lower, upper = fa_slacks(lam)
    return SpectralFigures(
        f_min=(1.0 + (d - 1) * lmin) / d,
        f_max=(1.0 + (d - 1) * lmax) / d,
        nu2=np.sqrt((1.0 + (d - 1) * np.max(squares, axis=-1)) / d),
        nu_inf=np.maximum(1.0 + (d - 1) * lmax, 1.0 - lmin) / d,
        argmin_alpha=np.argmin(lam, axis=-1),
        argmax_alpha=np.argmax(lam, axis=-1),
        nu2_alpha=np.argmax(squares, axis=-1),
        fmax_multiplicative=fmax_mult,
        fmin_multiplicative=np.abs(lmax) <= np.abs(lmin) + CLASSIFY_SLACK,
        nuinf_equals_fmax=nuinf_eq,
        nuinf_multiplicative=fmax_mult & nuinf_eq,
        nu2_fmax_coincide=np.abs(lmax) >= np.abs(lmin) - CLASSIFY_SLACK,
        nu2_fmin_coincide=lmax**2 <= lmin**2 + CLASSIFY_SLACK,
        inf_exact=(d == 2) | fmax_mult,
        fa_lower_slack=lower,
        fa_upper_slack=upper,
    )


def _figures(ch: GeneralizedPauliChannel) -> SpectralFigures:
    return spectral_figures(spectrum_of(ch).lambdas)


@dataclass(frozen=True)
class FidelityExtremes:
    f_min: float
    f_max: float
    argmin_alpha: int
    argmax_alpha: int


@dataclass(frozen=True)
class MultiplicativityFlags:
    """Which factorization guarantees apply to the channel's spectrum."""

    fmax_multiplicative: bool
    fmin_multiplicative: bool
    nuinf_equals_fmax: bool
    nuinf_multiplicative: bool

    @classmethod
    def of(cls, fig: SpectralFigures) -> "MultiplicativityFlags":
        return cls(
            fmax_multiplicative=bool(fig.fmax_multiplicative),
            fmin_multiplicative=bool(fig.fmin_multiplicative),
            nuinf_equals_fmax=bool(fig.nuinf_equals_fmax),
            nuinf_multiplicative=bool(fig.nuinf_multiplicative),
        )


@dataclass(frozen=True)
class RegularizedMaxFidelity:
    """Value (or bracket) for the n-th regularized maximal fidelity.

    When ``exact`` is set the value is f_max itself for every n.  Otherwise
    ``lower``/``upper`` bracket the quantity; ``oracle_estimate`` holds the
    tensor-power search value that refined the lower end, if one ran.
    """

    n: int
    exact: bool
    value: float | None
    lower: float
    upper: float
    oracle_estimate: float | None = None


@dataclass(frozen=True)
class FidelityReport:
    """Everything the analyzer knows about one channel, closed forms only."""

    f_min: float
    f_max: float
    nu2: float
    nu_inf: float
    argmin_alpha: int
    argmax_alpha: int
    nu2_alpha: int
    nu2_fmax_coincide: bool
    nu2_fmin_coincide: bool
    flags: MultiplicativityFlags
    regularized: RegularizedMaxFidelity


def fidelity_extremes(ch: GeneralizedPauliChannel) -> FidelityExtremes:
    """Extremal pure-state fidelities and the basis indices attaining them."""
    fig = _figures(ch)
    return FidelityExtremes(
        f_min=float(fig.f_min),
        f_max=float(fig.f_max),
        argmin_alpha=int(fig.argmin_alpha),
        argmax_alpha=int(fig.argmax_alpha),
    )


def unitary_coefficients(fam: MubFamily, psi: np.ndarray) -> np.ndarray:
    """Expansion coefficients x[a, k-1] of |psi><psi| over the basis unitaries.

    |psi><psi| = (I + sum_{a,k} x[a,k] U(a,k)) / d; for any unit vector the
    total weight sum |x|^2 equals d-1.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (fam.d,):
        raise DimensionMismatchError(f"expected a length-{fam.d} vector, got {psi.shape}")
    q = np.einsum("i,akij,j->ak", psi.conj(), fam.unitaries(), psi)
    return q.conj()


def channel_fidelity(ch: GeneralizedPauliChannel, psi: np.ndarray) -> float:
    """Input-output fidelity Tr(P Lambda[P]) for the pure input P = |psi><psi|."""
    x = unitary_coefficients(ch.fam, psi)
    lam = spectrum_of(ch).lambdas
    weights = np.sum(np.abs(x) ** 2, axis=1)
    return float((1.0 + np.dot(lam, weights)) / ch.d)


def max_output_2norm(ch: GeneralizedPauliChannel) -> float:
    """Largest Schatten 2-norm of any output from a pure input."""
    return float(_figures(ch).nu2)


def max_output_inf_norm(ch: GeneralizedPauliChannel) -> float:
    """Closed form max(1 + (d-1)*max(lambda), 1 - min(lambda)) / d.

    This is the best value over basis-projector inputs: the first branch is
    attained with equal input and measurement projectors on a vector of the
    maximizing basis, the second with two orthogonal vectors of the
    minimizing basis.  It equals the true maximal output eigenvalue for
    d = 2, and for any d when max(lambda) >= |min(lambda)|.  When
    max(lambda) < |min(lambda)| at d >= 3, inputs superposed across several
    negative-eigenvalue bases can beat it (brute-force search confirms
    excesses up to a few percent), so there it is a lower bound only; see
    :func:`gpchannels.oracle.maximize_output_inf_norm`.
    """
    return float(_figures(ch).nu_inf)


def inf_norm_formula_is_exact(ch: GeneralizedPauliChannel) -> bool:
    """Whether the closed-form output inf-norm is the verified true maximum."""
    return bool(_figures(ch).inf_exact)


def composition_two_norm_residual(ch: GeneralizedPauliChannel) -> float:
    """|f_max(Lambda o Lambda) - nu_2(Lambda)^2|; contractually <= 1e-12."""
    squared = compose(ch, ch)
    return abs(fidelity_extremes(squared).f_max - max_output_2norm(ch) ** 2)


def multiplicativity_flags(ch: GeneralizedPauliChannel) -> MultiplicativityFlags:
    """Classify which factorization guarantees hold for this spectrum.

    f_max factorizes when max(lambda) >= |min(lambda)| (so the dominant
    eigenvalue is the nonnegative one); f_min factorizes when
    |max(lambda)| <= |min(lambda)|; nu_inf collapses onto f_max when
    max(lambda) >= -min(lambda)/(d-1); and nu_inf factorizes when both the
    f_max and the collapse conditions hold.
    """
    return MultiplicativityFlags.of(_figures(ch))


def regularized_max_fidelity(
    ch: GeneralizedPauliChannel,
    n: int,
    mode: str = "closed",
    cfg=None,
) -> RegularizedMaxFidelity:
    """n-th regularized maximal fidelity: exact value or bracket.

    In the factorizing regime (max(lambda) >= |min(lambda)|) the value is
    f_max exactly for every n, and coincides with nu_inf.  Otherwise the
    result brackets the quantity by [f_max, nu_inf]; ``mode="oracle"``
    additionally runs the tensor-power searches up to order n and refines
    the lower end with the best m-th root over m <= n.  Every m-th root of
    a tensor search value lower-bounds the asymptotic regularization, so
    the refined lower bound only improves with n; ``oracle_estimate``
    carries the order-n search value itself.
    """
    if mode not in ("closed", "oracle"):
        raise ValueError(f"mode must be 'closed' or 'oracle', got {mode!r}")
    if n < 1:
        raise ValueError("regularization order must be >= 1")
    fig = _figures(ch)
    f_max = float(fig.f_max)
    if fig.fmax_multiplicative:
        return RegularizedMaxFidelity(n=n, exact=True, value=f_max, lower=f_max, upper=f_max)
    upper = float(fig.nu_inf)
    lower = f_max
    estimate = None
    if mode == "oracle" and n >= 2:
        from .oracle import tensor_fidelity_probe  # local import, avoids cycle

        for m in range(2, n + 1):
            probe = tensor_fidelity_probe(ch, m, cfg)
            lower = max(lower, probe.estimate ** (1.0 / m))
            if m == n:
                estimate = probe.estimate
    return RegularizedMaxFidelity(
        n=n, exact=False, value=None, lower=lower, upper=upper, oracle_estimate=estimate
    )


def fidelity_report(ch: GeneralizedPauliChannel, n_reg: int = 1) -> FidelityReport:
    """Assemble all closed-form quantities for one channel."""
    fig = _figures(ch)
    return FidelityReport(
        f_min=float(fig.f_min),
        f_max=float(fig.f_max),
        nu2=float(fig.nu2),
        nu_inf=float(fig.nu_inf),
        argmin_alpha=int(fig.argmin_alpha),
        argmax_alpha=int(fig.argmax_alpha),
        nu2_alpha=int(fig.nu2_alpha),
        nu2_fmax_coincide=bool(fig.nu2_fmax_coincide),
        nu2_fmin_coincide=bool(fig.nu2_fmin_coincide),
        flags=MultiplicativityFlags.of(fig),
        regularized=regularized_max_fidelity(ch, n_reg, mode="closed"),
    )
