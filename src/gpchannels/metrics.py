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
the regularized maximal fidelity equals f_max at every order and also
equals nu_inf.  Outside that regime only the bracket [f_max, nu_inf] is
reported.  Its lower end is attained by a product of basis vectors, and
the n-th root of any tensor-power search value
(:func:`gpchannels.oracle.tensor_fidelity_probe`) can raise it.  Its upper
end, the closed-form nu_inf, bounds every tensor-power fidelity only where
it is the true maximal output inf-norm and that norm is multiplicative, as
at d = 2; at d >= 3 the search can exceed it.  The four flags are

    fmax_multiplicative   max(lambda) >= |min(lambda)|
                          (the dominant eigenvalue is the nonnegative one),
    fmin_multiplicative   |max(lambda)| <= |min(lambda)|,
    nuinf_equals_fmax     max(lambda) >= -min(lambda)/(d-1)
                          (nu_inf collapses onto f_max),
    nuinf_multiplicative  fmax_multiplicative and nuinf_equals_fmax; the first
                          implies the second at d >= 2, rounding included.

Every formula above is written once, in :func:`spectral_figures`, which
takes spectra of shape (..., d+1) and returns one :class:`SpectralFigures`
record holding, each of shape (...), the closed forms f_min, f_max, nu2
and nu_inf; the attaining bases argmin_alpha, argmax_alpha and nu2_alpha
(argmax of lambda^2); the four flags; nu2_fmax_coincide (|max(lambda)| >=
|min(lambda)|) and nu2_fmin_coincide (max(lambda)^2 <= min(lambda)^2);
inf_exact (d = 2 or f_max factorizes: nu_inf is then the verified
maximum); regularized_upper, the upper end of the regularized bracket (f_max
where fmax_multiplicative marks the value exact, else nu_inf; the lower end
is f_max); and the Fujiwara-Algoet slacks fa_lower_slack and
fa_upper_slack of :func:`gpchannels.channel.fa_slacks`.

That record is the only one: the per-channel functions below return it for
a single spectrum (numpy scalars) and the trajectory timelines extend it with
their time grid.
Argmax/argmin ties break toward the lowest basis index everywhere, so
attainment indices are deterministic.  Comparisons carry
:data:`CLASSIFY_SLACK` (1e-12) toward "true" on equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GeneralizedPauliChannel, compose, fa_slacks, spectrum_of
from .errors import BadProbabilitiesError, DimensionMismatchError

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
    regularized_upper: np.ndarray
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
    lower, upper = fa_slacks(lam)
    f_max = (1.0 + (d - 1) * lmax) / d
    nu_inf = np.maximum(1.0 + (d - 1) * lmax, 1.0 - lmin) / d
    return SpectralFigures(
        f_min=(1.0 + (d - 1) * lmin) / d,
        f_max=f_max,
        nu2=np.sqrt((1.0 + (d - 1) * np.max(squares, axis=-1)) / d),
        nu_inf=nu_inf,
        argmin_alpha=np.argmin(lam, axis=-1),
        argmax_alpha=np.argmax(lam, axis=-1),
        nu2_alpha=np.argmax(squares, axis=-1),
        fmax_multiplicative=fmax_mult,
        fmin_multiplicative=np.abs(lmax) <= np.abs(lmin) + CLASSIFY_SLACK,
        nuinf_equals_fmax=lmax >= -lmin / (d - 1) - CLASSIFY_SLACK,
        nuinf_multiplicative=fmax_mult,  # it implies nuinf_equals_fmax: see the module docstring
        nu2_fmax_coincide=np.abs(lmax) >= np.abs(lmin) - CLASSIFY_SLACK,
        nu2_fmin_coincide=lmax**2 <= lmin**2 + CLASSIFY_SLACK,
        inf_exact=(d == 2) | fmax_mult,
        regularized_upper=np.where(fmax_mult, f_max, nu_inf)[()],  # [()]: 0-d to scalar
        fa_lower_slack=lower,
        fa_upper_slack=upper,
    )


def fidelity_report(ch: GeneralizedPauliChannel) -> SpectralFigures:
    """Every closed form of one channel, as numpy scalars."""
    return spectral_figures(spectrum_of(ch).lambdas)


def fidelity_extremes(ch: GeneralizedPauliChannel) -> SpectralFigures:
    """The same record, read for f_min, f_max and the bases attaining them."""
    return fidelity_report(ch)


def max_output_2norm(ch: GeneralizedPauliChannel) -> float:
    """Largest Schatten 2-norm of any output from a pure input."""
    return float(fidelity_report(ch).nu2)


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
    return float(fidelity_report(ch).nu_inf)


def composition_two_norm_residual(ch: GeneralizedPauliChannel) -> float:
    """|f_max(Lambda o Lambda) - nu_2(Lambda)^2|; contractually <= 1e-12."""
    squared = compose(ch, ch)
    return abs(float(fidelity_report(squared).f_max) - max_output_2norm(ch) ** 2)

