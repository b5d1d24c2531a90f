import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpchannels import (
    OracleConfig,
    Spectrum,
    build_mub_family,
    channel_fidelity,
    channel_from_eigenvalues,
    channel_from_probabilities,
    composition_two_norm_residual,
    depolarizing_channel,
    exponential_evolution,
    fidelity_extremes,
    fidelity_report,
    fujiwara_algoet_check,
    identity_channel,
    max_output_2norm,
    max_output_inf_norm,
    multiplicativity_flags,
    regularized_max_fidelity,
    spectral_figures,
    spectrum_of,
    timeline_report,
    unitary_coefficients,
)
from gpchannels.metrics import CLASSIFY_SLACK, inf_norm_formula_is_exact
from helpers import fidelity_extremes_probability_form, random_cptp_channel, random_pure


def test_extremes_identity_and_depolarizing(fam3):
    ident = fidelity_extremes(identity_channel(3, fam3))
    assert ident.f_min == pytest.approx(1.0, abs=1e-15)
    assert ident.f_max == pytest.approx(1.0, abs=1e-15)
    depol = fidelity_extremes(depolarizing_channel(3, fam3))
    assert depol.f_min == pytest.approx(1 / 3, abs=1e-15)
    assert depol.f_max == pytest.approx(1 / 3, abs=1e-15)


def test_extremes_hand_value_and_probability_form(fam2):
    ch = channel_from_probabilities(2, [0.7, 0.1, 0.1, 0.1], fam2)
    ext = fidelity_extremes(ch)
    assert ext.f_min == pytest.approx(0.8, abs=1e-15)
    assert ext.f_max == pytest.approx(0.8, abs=1e-15)
    alt = fidelity_extremes_probability_form(ch)
    assert abs(alt.f_min - ext.f_min) <= 1e-12
    assert abs(alt.f_max - ext.f_max) <= 1e-12


def test_both_extreme_forms_agree_on_random_channels(rng):
    for _ in range(200):
        d = int(rng.choice([2, 3, 5]))
        ch = random_cptp_channel(d, rng)
        a = fidelity_extremes(ch)
        b = fidelity_extremes_probability_form(ch)
        assert abs(a.f_min - b.f_min) <= 1e-12
        assert abs(a.f_max - b.f_max) <= 1e-12
        assert a.argmin_alpha == b.argmin_alpha
        assert a.argmax_alpha == b.argmax_alpha


def test_pointwise_fidelity_on_basis_vectors(fam3):
    ch = channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3)
    lam = spectrum_of(ch).lambdas
    for a in range(4):
        for k in range(3):
            expected = (1 + 2 * lam[a]) / 3
            assert channel_fidelity(ch, fam3.vector(a, k)) == pytest.approx(expected, abs=1e-12)


def test_pointwise_fidelity_trivial_channels(fam5, rng):
    psi = random_pure(5, rng)
    assert channel_fidelity(identity_channel(5, fam5), psi) == pytest.approx(1.0, abs=1e-10)
    assert channel_fidelity(depolarizing_channel(5, fam5), psi) == pytest.approx(0.2, abs=1e-10)


def test_pointwise_fidelity_matches_direct_matrix_route(fam3, rng):
    from gpchannels import apply_channel

    ch = random_cptp_channel(3, rng, fam3)
    for _ in range(25):
        psi = random_pure(3, rng)
        direct = np.real(psi.conj() @ apply_channel(ch, np.outer(psi, psi.conj())) @ psi)
        assert abs(channel_fidelity(ch, psi) - direct) <= 1e-10


def test_pointwise_fidelity_bounded_by_extremes_10k(fam3, rng):
    ch = random_cptp_channel(3, rng, fam3)
    ext = fidelity_extremes(ch)
    lam = spectrum_of(ch).lambdas
    z = rng.standard_normal((10_000, 3)) + 1j * rng.standard_normal((10_000, 3))
    psi = z / np.linalg.norm(z, axis=1, keepdims=True)
    x = np.einsum("bi,akij,bj->bak", psi.conj(), fam3.unitaries(), psi).conj()
    f = (1 + np.einsum("a,bak->b", lam, np.abs(x) ** 2)) / 3
    assert np.max(f) <= ext.f_max + 1e-10
    assert np.min(f) >= ext.f_min - 1e-10


def test_nu2_values(fam2, fam3):
    assert max_output_2norm(identity_channel(3, fam3)) == pytest.approx(1.0, abs=1e-15)
    assert max_output_2norm(depolarizing_channel(3, fam3)) == pytest.approx(1 / np.sqrt(3), abs=1e-15)
    ch = channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2)
    assert max_output_2norm(ch) == pytest.approx(np.sqrt(5 / 9), abs=1e-15)


def test_nu_inf_values(fam2, fam3):
    ch3 = channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3)
    assert max_output_inf_norm(ch3) == pytest.approx(0.6, abs=1e-15)
    assert max_output_inf_norm(identity_channel(3, fam3)) == pytest.approx(1.0, abs=1e-15)
    ch2 = channel_from_probabilities(2, [0.0, 1 / 3, 1 / 3, 1 / 3], fam2)
    assert max_output_inf_norm(ch2) == pytest.approx(2 / 3, abs=1e-15)


def test_composition_identity_examples(fam2):
    assert composition_two_norm_residual(identity_channel(2, fam2)) <= 1e-15
    ch = channel_from_eigenvalues(2, [0.6, 0.6, 0.6], fam2)
    squared = channel_from_eigenvalues(2, [0.36, 0.36, 0.36], fam2)
    assert fidelity_extremes(squared).f_max == pytest.approx(0.68, abs=1e-15)
    assert max_output_2norm(ch) ** 2 == pytest.approx(0.68, abs=1e-15)
    assert composition_two_norm_residual(ch) <= 1e-12


def test_composition_residual_sweep(rng):
    worst = 0.0
    for _ in range(100):
        d = int(rng.choice([2, 3, 5]))
        worst = max(worst, composition_two_norm_residual(random_cptp_channel(d, rng)))
    assert worst <= 1e-12


def test_multiplicativity_flags_examples(fam2):
    all_pos = multiplicativity_flags(channel_from_eigenvalues(2, [0.6, 0.6, 0.6], fam2))
    assert all_pos.fmax_multiplicative
    assert all_pos.fmin_multiplicative
    assert all_pos.nuinf_equals_fmax
    assert all_pos.nuinf_multiplicative

    all_neg = multiplicativity_flags(channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2))
    assert all_neg.fmin_multiplicative
    assert not all_neg.fmax_multiplicative
    assert not all_neg.nuinf_equals_fmax
    assert not all_neg.nuinf_multiplicative

    zero = multiplicativity_flags(depolarizing_channel(2, fam2))
    assert zero.fmax_multiplicative and zero.fmin_multiplicative
    assert zero.nuinf_equals_fmax and zero.nuinf_multiplicative


def test_chain_fmax_below_nuinf_with_equality_condition(rng):
    for _ in range(300):
        d = int(rng.choice([2, 3, 5]))
        ch = random_cptp_channel(d, rng, alpha=0.5)
        f_max = fidelity_extremes(ch).f_max
        nu_inf = max_output_inf_norm(ch)
        assert f_max <= nu_inf + 1e-12
        equal = abs(f_max - nu_inf) <= 1e-12
        assert equal == multiplicativity_flags(ch).nuinf_equals_fmax


def test_attainment_coincidence_indices(rng):
    # skip the measure-zero double tie |max| == |min| with max != min
    for _ in range(300):
        d = int(rng.choice([2, 3, 5]))
        ch = random_cptp_channel(d, rng, alpha=0.6)
        lam = spectrum_of(ch).lambdas
        lmax, lmin = np.max(lam), np.min(lam)
        if abs(abs(lmax) - abs(lmin)) <= 1e-9 and lmax != lmin:
            continue
        rep = fidelity_report(ch)
        if abs(lmax) > abs(lmin):
            assert rep.nu2_fmax_coincide
            assert rep.nu2_alpha == rep.argmax_alpha
        if lmax**2 < lmin**2:
            assert rep.nu2_fmin_coincide
            assert rep.nu2_alpha == rep.argmin_alpha


def test_attainment_coincidence_flag_conditions(fam2):
    rep = fidelity_report(channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2))
    # constant spectrum: both coincidences hold
    assert rep.nu2_fmax_coincide and rep.nu2_fmin_coincide


def test_regularized_identity(fam3):
    for n in (1, 2, 3):
        reg = regularized_max_fidelity(identity_channel(3, fam3), n)
        assert reg.exact and reg.value == pytest.approx(1.0, abs=1e-15)


def test_regularized_factorizing_value(fam2):
    ch = channel_from_eigenvalues(2, [0.6, 0.6, 0.6], fam2)
    reg = regularized_max_fidelity(ch, 2)
    assert reg.exact
    assert reg.value == pytest.approx(0.8, abs=1e-15)
    assert reg.lower == reg.upper == reg.value


def test_regularized_open_regime_bracket_and_refinement(fam2):
    ch = channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2)
    closed = regularized_max_fidelity(ch, 2)
    assert not closed.exact
    assert closed.lower == pytest.approx(1 / 3, abs=1e-12)
    assert closed.upper == pytest.approx(2 / 3, abs=1e-12)
    oracle = regularized_max_fidelity(
        ch, 2, mode="oracle", cfg=OracleConfig(restarts=128, seed=5)
    )
    assert closed.lower - 1e-9 <= oracle.lower <= oracle.upper + 1e-9
    assert oracle.oracle_estimate is not None
    # the tensor search reaches 1/3 on entangled inputs, refining the bracket
    assert oracle.lower == pytest.approx(np.sqrt(1 / 3), abs=1e-6)


def test_regularized_monotone_in_n_oracle_mode(fam2):
    ch = channel_from_eigenvalues(2, [-0.3, -0.25, -0.2], fam2)
    cfg = OracleConfig(restarts=64, seed=9)
    lower_prev = 0.0
    for n in (1, 2, 3):
        reg = regularized_max_fidelity(ch, n, mode="oracle", cfg=cfg)
        assert reg.lower >= lower_prev - 1e-9
        assert reg.lower <= reg.upper + 1e-9
        lower_prev = max(lower_prev, reg.lower)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_coefficient_weight_identity(seed, d):
    from gpchannels import build_mub_family

    rng = np.random.default_rng(seed)
    fam = build_mub_family(d)
    x = unitary_coefficients(fam, random_pure(d, rng))
    assert abs(np.sum(np.abs(x) ** 2) - (d - 1)) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_coefficient_pair_bound(seed, d):
    # 0 <= Tr(PQ) <= 1 is equivalent to -1 <= sum x conj(y) <= d-1
    from gpchannels import build_mub_family

    rng = np.random.default_rng(seed)
    fam = build_mub_family(d)
    p, q = random_pure(d, rng), random_pure(d, rng)
    x = unitary_coefficients(fam, p)
    y = unitary_coefficients(fam, q)
    s = np.sum(x * y.conj())
    assert abs(s.imag) <= 1e-9
    assert -1.0 - 1e-9 <= s.real <= d - 1 + 1e-9
    overlap = abs(np.vdot(p, q)) ** 2
    assert s.real == pytest.approx(d * overlap - 1, abs=1e-9)


def test_report_invariants(rng):
    for _ in range(100):
        d = int(rng.choice([2, 3, 5]))
        rep = fidelity_report(random_cptp_channel(d, rng))
        assert 0.0 - 1e-12 <= rep.f_min <= rep.f_max <= rep.nu_inf <= 1.0 + 1e-12
        assert 0.0 <= rep.nu2 <= 1.0 + 1e-12
        assert rep.flags.nuinf_multiplicative == (
            rep.flags.fmax_multiplicative and rep.flags.nuinf_equals_fmax
        )


def _scalar_figures(lam):
    """The closed forms written out for one spectrum with plain float arithmetic."""
    d = lam.size - 1
    lmin, lmax = float(np.min(lam)), float(np.max(lam))
    total = float(np.sum(lam))
    fmax_mult = lmax >= abs(lmin) - CLASSIFY_SLACK
    nuinf_eq = lmax >= -lmin / (d - 1) - CLASSIFY_SLACK
    return {
        "f_min": (1.0 + (d - 1) * lmin) / d,
        "f_max": (1.0 + (d - 1) * lmax) / d,
        "nu2": float(np.sqrt((1.0 + (d - 1) * np.max(lam**2)) / d)),
        "nu_inf": max(1.0 + (d - 1) * lmax, 1.0 - lmin) / d,
        "argmin_alpha": int(np.argmin(lam)),
        "argmax_alpha": int(np.argmax(lam)),
        "nu2_alpha": int(np.argmax(lam**2)),
        "fmax_multiplicative": fmax_mult,
        "fmin_multiplicative": abs(lmax) <= abs(lmin) + CLASSIFY_SLACK,
        "nuinf_equals_fmax": nuinf_eq,
        "nuinf_multiplicative": fmax_mult and nuinf_eq,
        "nu2_fmax_coincide": abs(lmax) >= abs(lmin) - CLASSIFY_SLACK,
        "nu2_fmin_coincide": lmax * lmax <= lmin * lmin + CLASSIFY_SLACK,
        "inf_exact": d == 2 or fmax_mult,
        "fa_lower_slack": total + 1.0 / (d - 1),
        "fa_upper_slack": 1.0 + d * lmin - total,
    }


def _kernel_test_channels(d, rng, fam):
    """Random CPTP channels plus tied-extreme and FA-boundary ones."""
    probs = [rng.dirichlet(np.full(d + 2, alpha)) for alpha in (1.0, 0.3) for _ in range(30)]
    for _ in range(10):
        p = rng.dirichlet(np.ones(d + 2))
        hi, lo = p[1:].max(), p[1:].min()
        p[1] = p[2] = hi  # tied extremes: lowest index must win
        p[-2] = p[-1] = lo
        probs.append(p / np.sum(p))
    for _ in range(10):
        p = rng.dirichlet(np.ones(d + 2))
        p[rng.choice(d + 2, size=2, replace=False)] = 0.0  # on a CPTP face
        probs.append(p / np.sum(p))
    probs.append(np.eye(d + 2)[0])                       # identity: upper slack 0
    probs.append(np.r_[0.0, np.full(d + 1, 1.0 / (d + 1))])  # lower slack 0
    probs.append(np.full(d + 2, 1.0 / (d + 2)))          # constant spectrum
    return [channel_from_probabilities(d, p, fam) for p in probs]


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_spectral_figures_bitwise_against_per_channel_api(d):
    rng = np.random.default_rng(7000 + d)
    fam = build_mub_family(d)
    channels = _kernel_test_channels(d, rng, fam)
    cptp = np.vstack([spectrum_of(ch).lambdas for ch in channels])
    lower_const = -1.0 / (d * d - 1)
    non_cptp = np.vstack(
        [
            rng.uniform(-1.0, 1.2, size=(30, d + 1)),
            np.full(d + 1, lower_const - 1e-3),
            np.r_[1.0 + 1e-3, np.zeros(d)],
            np.r_[0.4, -0.4, np.zeros(d - 1)],  # |max| == |min|
        ]
    )
    lam = np.vstack([cptp, non_cptp])
    fig = spectral_figures(lam)
    names = list(_scalar_figures(lam[0]))
    assert all(getattr(fig, name).shape == (lam.shape[0],) for name in names)
    n_fail = 0
    for i, row in enumerate(lam):
        for name, want in _scalar_figures(row).items():
            assert getattr(fig, name)[i] == want, (i, name)
        check = fujiwara_algoet_check(Spectrum(d, row))
        assert fig.fa_lower_slack[i] == check.lower_slack
        assert fig.fa_upper_slack[i] == check.upper_slack
        n_fail += not check.passed
    assert n_fail >= 3  # the non-CPTP block really leaves the CPTP set
    for i, ch in enumerate(channels):
        rep = fidelity_report(ch)
        ext = fidelity_extremes(ch)
        flags = multiplicativity_flags(ch)
        assert (rep.f_min, rep.f_max) == (ext.f_min, ext.f_max) == (fig.f_min[i], fig.f_max[i])
        assert (ext.argmin_alpha, ext.argmax_alpha) == (fig.argmin_alpha[i], fig.argmax_alpha[i])
        assert rep.nu2 == max_output_2norm(ch) == fig.nu2[i]
        assert rep.nu_inf == max_output_inf_norm(ch) == fig.nu_inf[i]
        assert rep.nu2_alpha == fig.nu2_alpha[i]
        assert rep.nu2_fmax_coincide == fig.nu2_fmax_coincide[i]
        assert rep.nu2_fmin_coincide == fig.nu2_fmin_coincide[i]
        assert inf_norm_formula_is_exact(ch) == fig.inf_exact[i]
        assert rep.flags == flags
        for name in ("fmax_multiplicative", "fmin_multiplicative",
                     "nuinf_equals_fmax", "nuinf_multiplicative"):
            assert getattr(flags, name) == getattr(fig, name)[i]


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_timeline_rows_equal_kernel_on_their_spectra(d):
    rng = np.random.default_rng(7100 + d)
    tl = timeline_report(exponential_evolution(d, rng.uniform(0.0, 2.0, size=d + 1)),
                         np.linspace(0.0, 4.0, 33))
    for i, row in enumerate(tl.lambdas):
        fig = spectral_figures(row)
        for name in ("f_min", "f_max", "nu2", "nu_inf", "fmax_multiplicative",
                     "fmin_multiplicative", "nuinf_equals_fmax", "nuinf_multiplicative"):
            assert getattr(tl, name)[i] == getattr(fig, name), (i, name)
        assert tl.regularized_exact[i] == fig.fmax_multiplicative


def test_spectral_figures_rejects_non_finite_and_short_spectra():
    from gpchannels import BadProbabilitiesError, DimensionMismatchError

    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BadProbabilitiesError):
            spectral_figures([[0.1, 0.2, 0.3], [0.1, bad, 0.3]])
    with pytest.raises(DimensionMismatchError):
        spectral_figures([0.1, 0.2])
