import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpchannels import (
    BadProbabilitiesError,
    DimensionMismatchError,
    FamilyMismatchError,
    MubFamily,
    MubValidationError,
    NotCPTPError,
    Spectrum,
    TooLargeError,
    build_mub_family,
    channel_from_dict,
    channel_from_eigenvalues,
    channel_from_probabilities,
    compose,
    fujiwara_algoet_check,
    probabilities_of,
    spectrum_of,
    superoperator_of,
    tensor_power,
)
from gpchannels.channel import choi_from_spectrum
from gpchannels.mub import mub_family_from_dict, mub_family_to_dict
from helpers import (
    apply_channel,
    choi_of,
    depolarizing_channel,
    identity_channel,
    projector,
    random_cptp_channel,
    random_density,
    random_hermitian,
    rotated_family,
    two_qubit_mub_bases,
    unvec,
    validate_density_matrix,
    vec,
)


def test_identity_channel_from_probabilities(fam2):
    ch = channel_from_probabilities(2, [1, 0, 0, 0], fam2)
    assert np.allclose(spectrum_of(ch).lambdas, [1, 1, 1])
    rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    assert np.max(np.abs(unvec(superoperator_of(ch) @ vec(rho)) - rho)) <= 1e-14


def test_depolarizing_d3_spectrum_zero(fam3):
    ch = channel_from_probabilities(3, [1 / 9, 2 / 9, 2 / 9, 2 / 9, 2 / 9], fam3)
    assert np.max(np.abs(spectrum_of(ch).lambdas)) <= 1e-15
    assert np.allclose(depolarizing_channel(3, fam3).probs, ch.probs)


def test_spectrum_hand_values(fam2):
    ch = channel_from_probabilities(2, [0.7, 0.1, 0.1, 0.1], fam2)
    assert np.allclose(spectrum_of(ch).lambdas, [0.6, 0.6, 0.6], atol=1e-15)
    ch_pd = channel_from_probabilities(2, [0.5, 0.5, 0.0, 0.0], fam2)
    lam = spectrum_of(ch_pd).lambdas
    assert np.allclose(lam, [1.0, 0.0, 0.0], atol=1e-15)
    # phase-damping-like point sits on the CPTP boundary
    assert fujiwara_algoet_check(Spectrum(2, lam)).upper_slack == pytest.approx(0.0, abs=1e-15)


def test_bad_probabilities_rejected(fam2):
    with pytest.raises(BadProbabilitiesError):
        channel_from_probabilities(2, [0.5, 0.5, 0.1, -0.1], fam2)
    with pytest.raises(BadProbabilitiesError):
        channel_from_probabilities(2, [0.5, 0.2, 0.2, 0.2], fam2)
    with pytest.raises(BadProbabilitiesError):
        channel_from_probabilities(2, [1, 0, 0], fam2)
    with pytest.raises(DimensionMismatchError):
        channel_from_probabilities(3, [1, 0, 0, 0, 0], fam2)
    with pytest.raises(BadProbabilitiesError, match="needs 'probabilities' or 'eigenvalues'"):
        channel_from_dict({"d": 2})  # neither field


def test_from_eigenvalues_boundary_point(fam2):
    ch = channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2)
    assert np.allclose(ch.probs, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    check = fujiwara_algoet_check(spectrum_of(ch))
    assert check.passed
    assert check.lower_slack == pytest.approx(0.0, abs=1e-15)


def test_from_eigenvalues_identity(fam2):
    ch = channel_from_eigenvalues(2, [1, 1, 1], fam2)
    assert np.allclose(ch.probs, [1, 0, 0, 0], atol=1e-15)


def test_from_eigenvalues_rejects_noncptp(fam3):
    with pytest.raises(NotCPTPError) as exc:
        channel_from_eigenvalues(3, [0.5, 0.2, -0.1, 0.3], fam3)
    assert exc.value.bound == "upper"
    assert str(exc.value) == "spectrum violates the upper Fujiwara-Algoet bound by 0.2"
    assert np.array_equal(exc.value.spectrum.lambdas, [0.5, 0.2, -0.1, 0.3])
    # both sums behind the upper slack overflow: the slack is nan, and the
    # message says so instead of stating an amount
    with pytest.raises(NotCPTPError) as exc:
        channel_from_eigenvalues(2, [1e308, 1e308, 1e308])
    assert exc.value.bound == "upper"
    assert "slack overflowed" in str(exc.value) and " by " not in str(exc.value)
    assert np.array_equal(exc.value.spectrum.lambdas, [1e308, 1e308, 1e308])


def test_fujiwara_algoet_identity_boundary():
    check = fujiwara_algoet_check(Spectrum(2, np.array([1.0, 1.0, 1.0])))
    assert check.passed
    assert check.upper_slack == pytest.approx(0.0, abs=1e-15)
    bad = fujiwara_algoet_check(Spectrum(3, np.array([0.5, 0.2, -0.1, 0.3])))
    assert not bad.passed and bad.violated == "upper"
    assert bad.upper_slack == pytest.approx(-0.2, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_probability_eigenvalue_round_trip(seed, d):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d + 2))
    sp = Spectrum(d, (d * (p[0] + p[1:]) - 1.0) / (d - 1))
    assert np.max(np.abs(probabilities_of(sp) - p)) <= 1e-12
    # and spectra round-trip through probabilities
    back = (d * (probabilities_of(sp)[0] + probabilities_of(sp)[1:]) - 1.0) / (d - 1)
    assert np.max(np.abs(back - sp.lambdas)) <= 1e-12


def test_round_trip_bulk_1000(rng):
    worst = 0.0
    for _ in range(1000):
        d = int(rng.choice([2, 3, 5]))
        p = rng.dirichlet(np.ones(d + 2))
        sp = Spectrum(d, (d * (p[0] + p[1:]) - 1.0) / (d - 1))
        worst = max(worst, float(np.max(np.abs(probabilities_of(sp) - p))))
    assert worst <= 1e-12


def test_unitality_and_trace_preservation(fam3, rng):
    ch = random_cptp_channel(3, rng, fam3)
    s = superoperator_of(ch)
    out = unvec(s @ vec(np.eye(3, dtype=complex)))
    assert np.max(np.abs(out - np.eye(3))) <= 1e-12
    x = random_hermitian(3, rng)
    assert abs(np.trace(unvec(s @ vec(x))) - np.trace(x)) <= 1e-12


def test_apply_channel_output_is_density(fam5, rng):
    ch = random_cptp_channel(5, rng, fam5)
    rho = random_density(5, rng)
    validate_density_matrix(unvec(superoperator_of(ch) @ vec(rho)))


def test_fixed_point_of_unit_eigenvalue_axis(fam2):
    ch = channel_from_eigenvalues(2, [1.0, 0.0, 0.0], fam2)
    p = projector(fam2, 0, 0)
    assert np.max(np.abs(unvec(superoperator_of(ch) @ vec(p)) - p)) <= 1e-12


def test_apply_channel_stack_matches_per_matrix_calls(fam5, rng):
    ch = random_cptp_channel(5, rng, fam5)
    stack = np.array([[random_hermitian(5, rng) for _ in range(3)] for _ in range(2)])
    out = apply_channel(ch, stack)
    assert out.shape == (2, 3, 5, 5)
    for i in range(2):
        for j in range(3):
            assert np.max(np.abs(out[i, j] - apply_channel(ch, stack[i, j]))) <= 1e-13


def test_eigenrelation_via_superoperator(fam3, rng):
    ch = random_cptp_channel(3, rng, fam3)
    s = superoperator_of(ch)
    lam = spectrum_of(ch).lambdas
    for a in range(4):
        for k in range(2):
            u = fam3.unitaries()[a, k]
            resid = np.max(np.abs(unvec(s @ vec(u), 3) - lam[a] * u))
            assert resid <= 1e-12


def test_vec_unvec_column_stacking():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(unvec(vec(a)), a)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_vec_intertwines_left_right_products(seed, d):
    # the convention superoperator_of relies on: vec(A X B) = (B^T kron A) vec(X)
    rng = np.random.default_rng(seed)
    a, x, b = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(3))
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_superoperator_identity_and_depolarizing(fam2):
    assert np.max(np.abs(superoperator_of(identity_channel(2, fam2)) - np.eye(4))) <= 1e-12
    s = superoperator_of(depolarizing_channel(2, fam2))
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert np.max(np.abs(s @ vec(sz))) <= 1e-14


def test_channel_is_frozen_and_holds_only_probs_and_family(fam2, rng):
    ch = random_cptp_channel(2, rng, fam2)
    assert [f.name for f in dataclasses.fields(ch)] == ["probs", "fam"]
    assert ch.d == fam2.d
    for name, value in (("probs", np.full(4, 0.25)), ("fam", build_mub_family(3))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ch, name, value)
    with pytest.raises(TypeError):
        type(ch)(ch.probs, fam2, _superop=np.zeros((4, 4), dtype=complex))


def test_superoperator_is_fresh_on_every_call(fam3, rng):
    ch = random_cptp_channel(3, rng, fam3)
    first, second = superoperator_of(ch), superoperator_of(ch)
    assert first is not second and not np.shares_memory(first, second)
    assert np.array_equal(first, second)
    first[0, 0] = 7.0  # a caller may write its own copy
    assert np.array_equal(superoperator_of(ch), second)
    assert set(vars(ch)) == {"probs", "fam"}  # nothing is cached on the channel


@pytest.mark.parametrize("d", [29, 31])
def test_choi_of_identity_spectrum_at_large_d(d):
    # no per-family table bounds the Choi form: it is built at every built-in d
    j = choi_from_spectrum(build_mub_family(d), np.ones(d + 1))
    omega = vec(np.eye(d)) / np.sqrt(d)
    assert np.max(np.abs(j - np.outer(omega, omega))) <= 1e-12


def _family(name, rng):
    if name == "loaded-d4":  # a prime-power family, through its file form
        return mub_family_from_dict(mub_family_to_dict(MubFamily(d=4, bases=two_qubit_mub_bases())))
    if name == "rotated-d5":
        return rotated_family(build_mub_family(5), rng)
    return build_mub_family(int(name[1:]))


@pytest.mark.parametrize("family", ["d2", "d3", "d5", "d7", "loaded-d4", "rotated-d5"])
def test_superoperator_matches_apply_on_20_random_inputs(family, rng):
    fam = _family(family, rng)
    d = fam.d
    ch = random_cptp_channel(d, rng, fam)
    s = superoperator_of(ch)
    for _ in range(20):
        x = random_hermitian(d, rng)
        assert np.max(np.abs(unvec(s @ vec(x), d) - apply_channel(ch, x))) <= 1e-10


def test_choi_identity_is_maximally_entangled_projector(fam3):
    j = choi_of(identity_channel(3, fam3))
    omega = np.zeros(9, dtype=complex)
    omega[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.max(np.abs(j - np.outer(omega, omega.conj()))) <= 1e-14


def test_choi_depolarizing_is_maximally_mixed(fam2):
    j = choi_of(depolarizing_channel(2, fam2))
    assert np.max(np.abs(j - np.eye(4) / 4)) <= 1e-14


def test_choi_boundary_min_eigenvalue_zero(fam2):
    ch = channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2)
    w = np.linalg.eigvalsh(choi_of(ch))
    assert abs(w[0]) <= 1e-10
    assert abs(np.trace(choi_of(ch)) - 1) <= 1e-12


def test_choi_routes_agree(fam5, rng):
    ch = random_cptp_channel(5, rng, fam5)
    j1 = choi_of(ch)
    j2 = choi_from_spectrum(fam5, spectrum_of(ch).lambdas)
    assert np.max(np.abs(j1 - j2)) <= 1e-12


def test_compose_identity_neutral(fam3, rng):
    ch = random_cptp_channel(3, rng, fam3)
    composed = compose(identity_channel(3, fam3), ch)
    assert np.max(np.abs(composed.probs - ch.probs)) <= 1e-12


def test_compose_squares_spectrum(fam2):
    ch = channel_from_eigenvalues(2, [0.6, 0.6, 0.6], fam2)
    sq = compose(ch, ch)
    assert np.allclose(spectrum_of(sq).lambdas, [0.36, 0.36, 0.36], atol=1e-14)


def test_compose_matches_superoperator_product(fam3, rng):
    a = random_cptp_channel(3, rng, fam3)
    b = random_cptp_channel(3, rng, fam3)
    lhs = superoperator_of(compose(a, b))
    rhs = superoperator_of(a) @ superoperator_of(b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_compose_family_mismatch(fam2, fam3, rng):
    with pytest.raises(FamilyMismatchError):
        compose(identity_channel(2, fam2), identity_channel(3, fam3))
    rotated = MubFamily(d=2, bases=fam2.bases[[0, 2, 1]])
    with pytest.raises(FamilyMismatchError):
        compose(identity_channel(2, fam2), identity_channel(2, rotated))


def test_tensor_power_basics(fam2, rng):
    ch = random_cptp_channel(2, rng, fam2)
    assert np.array_equal(tensor_power(ch, 1), superoperator_of(ch))
    ident = identity_channel(2, fam2)
    assert np.max(np.abs(tensor_power(ident, 2) - np.eye(16))) <= 1e-12


def test_tensor_power_depolarizing_product_state(fam2, rng):
    s2 = tensor_power(depolarizing_channel(2, fam2), 2)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    out = unvec(s2 @ vec(np.outer(psi, psi.conj())), 4)
    assert np.max(np.abs(out - np.eye(4) / 4)) <= 1e-12


def test_tensor_power_factorizes_on_products(fam3, rng):
    ch = random_cptp_channel(3, rng, fam3)
    s1 = superoperator_of(ch)
    s2 = tensor_power(ch, 2)
    x = random_hermitian(3, rng)
    y = random_hermitian(3, rng)
    lhs = unvec(s2 @ vec(np.kron(x, y)), 9)
    rhs = np.kron(unvec(s1 @ vec(x), 3), unvec(s1 @ vec(y), 3))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_tensor_power_preserves_trace_and_identity(fam2, rng):
    ch = random_cptp_channel(2, rng, fam2)
    s2 = tensor_power(ch, 2)
    assert np.max(np.abs(unvec(s2 @ vec(np.eye(4, dtype=complex)), 4) - np.eye(4))) <= 1e-12
    x = random_hermitian(4, rng)
    out = unvec(s2 @ vec(x), 4)
    assert abs(np.trace(out) - np.trace(x)) <= 1e-10


def test_tensor_power_guard(fam5, monkeypatch):
    from gpchannels import channel, oracle

    def no_build(*args, **kwargs):
        raise AssertionError("the superoperator was assembled")

    assert oracle.MAX_ORACLE_DIM is channel.MAX_ORACLE_DIM  # one cap for probes and powers
    monkeypatch.setattr(channel, "superoperator_of", no_build)
    with pytest.raises(TooLargeError, match="state dimension 125 exceeds oracle guard 64"):
        tensor_power(identity_channel(5, fam5), 3)
    with pytest.raises(ValueError, match="tensor power needs n >= 1"):
        tensor_power(identity_channel(5, fam5), 0)


def test_cptp_spectra_have_contractive_eigenvalues(rng):
    for _ in range(200):
        d = int(rng.choice([2, 3, 5]))
        ch = random_cptp_channel(d, rng)
        assert np.max(np.abs(spectrum_of(ch).lambdas)) <= 1.0 + 1e-12


def test_values_are_frozen(fam3, rng):
    ch = random_cptp_channel(3, rng, fam3)
    with pytest.raises(ValueError):
        ch.probs[0] = 0.5
    with pytest.raises(ValueError):
        fam3.bases[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        spectrum_of(ch).lambdas[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_fa_slacks_are_scaled_inverse_probabilities(seed, d):
    # the complete-positivity slacks are exactly the inverse-relation weights
    # rescaled by d^2/(d-1), so the simplex covers the CPTP set precisely
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, size=d + 1)  # arbitrary, CPTP or not
    sp = Spectrum(d, lam)
    check = fujiwara_algoet_check(sp)
    p = probabilities_of(sp)
    scale = d * d / (d - 1)
    assert check.lower_slack == pytest.approx(p[0] * scale, abs=1e-10)
    assert check.upper_slack == pytest.approx(np.min(p[1:]) * scale, abs=1e-10)


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def load_channel_file(path):
    # the family file a spec names is read from the spec's directory, as the CLI reads it
    payload = json.loads(path.read_text())
    fam = None
    if payload.get("mub_file") is not None:
        fam = mub_family_from_dict(json.loads((path.parent / payload["mub_file"]).read_text()))
    return channel_from_dict(payload, fam)


def save_mub_file(fam, path):
    path.write_text(json.dumps(mub_family_to_dict(fam)))


def test_load_channel_probabilities_form(tmp_path):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.1]}))
    ch = load_channel_file(path)
    assert np.allclose(spectrum_of(ch).lambdas, [0.6, 0.6, 0.6])


def test_load_channel_eigenvalues_form(tmp_path):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"d": 3, "eigenvalues": [0.4, 0.2, 0.1, 0.2]}))
    ch = load_channel_file(path)
    assert np.allclose(spectrum_of(ch).lambdas, [0.4, 0.2, 0.1, 0.2], atol=1e-12)


def test_load_channel_normalizes_small_drift(tmp_path):
    p = [0.7, 0.1, 0.1, 0.1 + 5e-10]
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"d": 2, "probabilities": p}))
    ch = load_channel_file(path)
    assert abs(np.sum(ch.probs) - 1.0) <= 1e-15


def test_load_channel_rejects_large_drift(tmp_path):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.2]}))
    with pytest.raises(BadProbabilitiesError):
        load_channel_file(path)
    path.write_text(json.dumps({"d": 2, "probabilities": [0.7, 0.1, 0.1, 0.1 + 5e-9]}))
    with pytest.raises(BadProbabilitiesError):
        load_channel_file(path)


def test_load_channel_with_mub_file(tmp_path, fam3):
    save_mub_file(fam3, tmp_path / "fam.json")
    path = tmp_path / "ch.json"
    path.write_text(
        json.dumps({"d": 3, "eigenvalues": [0.4, 0.2, 0.1, 0.2], "mub_file": "fam.json"})
    )
    ch = load_channel_file(path)
    assert np.max(np.abs(ch.fam.bases - fam3.bases)) <= 1e-15


def test_channel_from_dict_refuses_mub_file_without_family(fam3):
    # the library reads no files: a spec naming a family file needs that family passed in
    payload = {"d": 3, "eigenvalues": [0.4, 0.2, 0.1, 0.2], "mub_file": "fam.json"}
    with pytest.raises(MubValidationError, match="mub_file"):
        channel_from_dict(payload)
    assert channel_from_dict(payload, fam3).fam is fam3
    # null names no file: the built-in family
    assert channel_from_dict({**payload, "mub_file": None}).fam is build_mub_family(3)


def test_two_qubit_channel_via_mub_file(tmp_path):
    fam4 = MubFamily(d=4, bases=two_qubit_mub_bases())
    save_mub_file(fam4, tmp_path / "fam4.json")
    path = tmp_path / "ch.json"
    path.write_text(
        json.dumps({"d": 4, "eigenvalues": [0.5, 0.25, 0.1, 0.0, 0.05], "mub_file": "fam4.json"})
    )
    ch = load_channel_file(path)
    lam = spectrum_of(ch).lambdas
    # eigen-action still holds for a file-supplied prime-power family
    s = superoperator_of(ch)
    for a in range(5):
        for k in range(3):
            u = ch.fam.unitaries()[a, k]
            assert np.max(np.abs(unvec(s @ vec(u), 4) - lam[a] * u)) <= 1e-10
    # and the Choi test agrees with the inequality route
    assert np.linalg.eigvalsh(choi_of(ch))[0] >= -1e-10
