from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpchannels import (
    OracleConfig,
    Spectrum,
    build_mub_family,
    channel_from_eigenvalues,
    channel_from_probabilities,
    composition_two_norm_residual,
    exponential_evolution,
    fidelity_extremes,
    fidelity_report,
    fujiwara_algoet_check,
    max_output_2norm,
    max_output_inf_norm,
    spectral_figures,
    spectrum_of,
    tensor_fidelity_probe,
    timeline_report,
)
from gpchannels.metrics import CLASSIFY_SLACK, SpectralFigures
from helpers import (
    apply_channel,
    channel_fidelity,
    depolarizing_channel,
    fidelity_extremes_probability_form,
    identity_channel,
    random_cptp_channel,
    random_pure,
    unitary_coefficients,
)


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
            assert channel_fidelity(ch, fam3.bases[a, k]) == pytest.approx(expected, abs=1e-12)


def test_pointwise_fidelity_trivial_channels(fam5, rng):
    psi = random_pure(5, rng)
    assert channel_fidelity(identity_channel(5, fam5), psi) == pytest.approx(1.0, abs=1e-10)
    assert channel_fidelity(depolarizing_channel(5, fam5), psi) == pytest.approx(0.2, abs=1e-10)


def test_pointwise_fidelity_matches_direct_matrix_route(fam3, rng):
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
    all_pos = fidelity_report(channel_from_eigenvalues(2, [0.6, 0.6, 0.6], fam2))
    assert all_pos.fmax_multiplicative
    assert all_pos.fmin_multiplicative
    assert all_pos.nuinf_equals_fmax
    assert all_pos.nuinf_multiplicative

    all_neg = fidelity_report(channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2))
    assert all_neg.fmin_multiplicative
    assert not all_neg.fmax_multiplicative
    assert not all_neg.nuinf_equals_fmax
    assert not all_neg.nuinf_multiplicative

    zero = fidelity_report(depolarizing_channel(2, fam2))
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
        assert equal == fidelity_report(ch).nuinf_equals_fmax


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
    rep = fidelity_report(identity_channel(3, fam3))
    assert rep.fmax_multiplicative and rep.f_max == pytest.approx(1.0, abs=1e-15)
    assert rep.regularized_upper == rep.f_max


def test_regularized_factorizing_value(fam2):
    ch = channel_from_eigenvalues(2, [0.6, 0.6, 0.6], fam2)
    rep = fidelity_report(ch)
    assert rep.fmax_multiplicative
    assert rep.f_max == pytest.approx(0.8, abs=1e-15)
    assert rep.f_max == rep.regularized_upper


def test_regularized_open_regime_bracket_and_refinement(fam2):
    ch = channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2)
    rep = fidelity_report(ch)
    assert not rep.fmax_multiplicative
    assert rep.f_max == pytest.approx(1 / 3, abs=1e-12)
    assert rep.regularized_upper == pytest.approx(2 / 3, abs=1e-12)
    probe = tensor_fidelity_probe(ch, 2, OracleConfig(restarts=128, seed=5))
    refined = max(rep.f_max, probe.estimate ** (1 / 2))
    assert rep.f_max - 1e-9 <= refined <= rep.regularized_upper + 1e-9
    # the tensor search reaches 1/3 on entangled inputs, refining the bracket
    assert refined == pytest.approx(np.sqrt(1 / 3), abs=1e-6)


def test_regularized_lower_bound_monotone_in_n(fam2):
    # each m-th root of a tensor search value lower-bounds the regularization:
    # the running best over m <= n never falls and stays inside the d=2 bracket
    ch = channel_from_eigenvalues(2, [-0.3, -0.25, -0.2], fam2)
    cfg = OracleConfig(restarts=64, seed=9)
    rep = fidelity_report(ch)
    lower_prev = rep.f_max
    for n in (2, 3):
        root = tensor_fidelity_probe(ch, n, cfg).estimate ** (1 / n)
        lower = max(lower_prev, root)
        assert root >= rep.f_max - 1e-9  # product seeds reach f_max^n
        assert lower >= lower_prev - 1e-9
        assert lower <= rep.regularized_upper + 1e-9
        lower_prev = lower


def _branch_upper(rep):
    """The bracket's upper end as a per-channel branch: f_max where it is exact, else nu_inf."""
    return float(rep.f_max) if rep.fmax_multiplicative else float(rep.nu_inf)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_regularized_upper_matches_branch(d):
    rng = np.random.default_rng(7200 + d)
    fam = build_mub_family(d)
    probs = [rng.dirichlet(np.ones(d + 2)) for _ in range(6)]
    # no identity weight and near-even dephasing: max(lambda) < |min(lambda)|
    probs += [np.r_[0.0, rng.dirichlet(np.full(d + 1, 20.0))] for _ in range(6)]
    channels = [channel_from_probabilities(d, p, fam) for p in probs]
    regimes = set()
    for ch in channels:
        rep = fidelity_report(ch)
        assert rep.regularized_upper.tobytes() == np.float64(_branch_upper(rep)).tobytes()
        regimes.add(bool(rep.fmax_multiplicative))
    assert regimes == {True, False}
    fig = spectral_figures(np.vstack([spectrum_of(ch).lambdas for ch in channels]))
    assert np.array_equal(fig.regularized_upper,
                          [_branch_upper(fidelity_report(ch)) for ch in channels])


def test_regularized_upper_at_the_classification_boundary(fam2):
    # max(lambda) sits 5e-13 below |min(lambda)|, inside CLASSIFY_SLACK: the
    # value is exact, so the upper end is f_max, not the larger nu_inf
    rep = fidelity_report(channel_from_eigenvalues(2, [0.3 - 5e-13, -0.3, 0.0], fam2))
    assert rep.fmax_multiplicative
    assert rep.f_max == 0.64999999999975 and rep.nu_inf == 0.65
    assert rep.regularized_upper == rep.f_max == _branch_upper(rep)


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
        assert rep.nuinf_multiplicative == (rep.fmax_multiplicative and rep.nuinf_equals_fmax)


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
        "regularized_upper": ((1.0 + (d - 1) * lmax) / d if fmax_mult
                              else max(1.0 + (d - 1) * lmax, 1.0 - lmin) / d),
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
        for field in fields(SpectralFigures):
            want = getattr(fig, field.name)[i]
            assert getattr(rep, field.name) == getattr(ext, field.name) == want, (i, field.name)
        assert max_output_2norm(ch) == fig.nu2[i]
        assert max_output_inf_norm(ch) == fig.nu_inf[i]


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_timeline_rows_equal_kernel_on_their_spectra(d):
    rng = np.random.default_rng(7100 + d)
    tl = timeline_report(exponential_evolution(d, rng.uniform(0.0, 2.0, size=d + 1)),
                         np.linspace(0.0, 4.0, 33))
    for i, row in enumerate(tl.lambdas):
        fig = spectral_figures(row)
        for field in fields(SpectralFigures):  # every inherited column
            assert getattr(tl, field.name)[i] == getattr(fig, field.name), (i, field.name)


def test_spectral_figures_rejects_non_finite_and_short_spectra():
    from gpchannels import BadProbabilitiesError, DimensionMismatchError

    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BadProbabilitiesError):
            spectral_figures([[0.1, 0.2, 0.3], [0.1, bad, 0.3]])
    with pytest.raises(DimensionMismatchError):
        spectral_figures([0.1, 0.2])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 11, 31])
def test_fmax_multiplicative_implies_nuinf_equals_fmax(d):
    # max >= |min| - s implies max >= -min/(d-1) - s in floating point too, so
    # nuinf_multiplicative, the conjunction of the two flags, is fmax_multiplicative
    rng = np.random.default_rng(7200 + d)
    lmin = -rng.uniform(0.0, 1.0, size=500)
    tops = []
    for edge in (np.abs(lmin), -lmin / (d - 1)):  # each flag's boundary, +- the slack
        for cut in (edge - CLASSIFY_SLACK, edge, edge + CLASSIFY_SLACK):
            tops += [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)]
    edges = np.column_stack([np.tile(lmin, len(tops)), np.concatenate(tops)])
    inner = rng.uniform(edges.min(axis=1, keepdims=True), edges.max(axis=1, keepdims=True),
                        size=(edges.shape[0], d - 1))
    lam = np.vstack([np.hstack([edges, inner]), rng.uniform(-1.0, 1.0, size=(5000, d + 1))])
    fig = spectral_figures(lam)
    assert fig.fmax_multiplicative.any() and not fig.fmax_multiplicative.all()
    assert fig.nuinf_equals_fmax[fig.fmax_multiplicative].all()
    assert np.array_equal(fig.nuinf_multiplicative,
                          fig.fmax_multiplicative & fig.nuinf_equals_fmax)
