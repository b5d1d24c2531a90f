import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from gpchannels import (
    MubFamily,
    MubValidationError,
    UnsupportedDimensionError,
    build_mub_family,
    validate_mub_family,
)
from gpchannels.mub import BUILTIN_PRIMES, mub_family_from_dict, mub_family_to_dict
from helpers import choi_of, projector, rotated_family, two_qubit_mub_bases

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_d2_is_the_three_pauli_eigenbases(fam2):
    assert fam2.n_bases == 3
    assert np.array_equal(fam2.bases[0], np.eye(2))
    for basis, op in zip(fam2.bases, (SZ, SX, SY)):
        for sign, v in zip((1.0, -1.0), basis):
            assert np.allclose(op @ v, sign * v)


def test_d3_all_cross_overlaps_are_one_third(fam3):
    assert fam3.n_bases == 4
    rep = validate_mub_family(fam3, tol=1e-12)
    assert rep.passed
    for a in range(4):
        for b in range(a + 1, 4):
            overlaps = np.abs(fam3.bases[a] @ fam3.bases[b].conj().T) ** 2
            assert np.max(np.abs(overlaps - 1 / 3)) <= 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_builtin_tables_are_the_module_formulas(d):
    # each entry on its own, exactly: basis 0 is computational and
    # psi_k[l] = omega^(a*l^2 + k*l) / sqrt(d) for a >= 1; then
    # U(a, k)[i, j] = sum_l omega^(k*l) psi_l[i] conj(psi_l[j])
    fam = build_mub_family(d)

    def omega(m):
        return np.exp(2j * np.pi * (m % d) / d)

    psi = np.zeros((d + 1, d, d), dtype=complex)
    for k in range(d):
        psi[0, k, k] = 1.0
    for a, k, l in itertools.product(range(1, d + 1), range(d), range(d)):
        psi[a, k, l] = omega(a * l * l + k * l) / np.sqrt(d)
    assert np.array_equal(fam.bases, psi)
    us = fam.unitaries()
    assert us.shape == (d + 1, d - 1, d, d)
    for a, k, i, j in itertools.product(range(d + 1), range(1, d), range(d), range(d)):
        entry = sum(omega(k * l) * psi[a, l, i] * psi[a, l, j].conjugate() for l in range(d))
        assert us[a, k - 1, i, j] == entry, (a, k, i, j)


@pytest.mark.parametrize("d", [1, 4, 6, 9, 32, 37])
def test_non_prime_or_out_of_range_dimensions_rejected(d):
    with pytest.raises(UnsupportedDimensionError):
        build_mub_family(d)


def test_builtin_family_built_once_and_frozen():
    # one shared family per d, so none of its arrays may be written through
    fam = build_mub_family(3)
    assert build_mub_family(3) is fam
    assert build_mub_family(np.int64(3)) is fam
    with pytest.raises(UnsupportedDimensionError):
        build_mub_family(3.0)  # the type check is not bypassed by the cache
    for arr in (fam.bases, fam.unitaries()):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e308, 1.0 + 1e-9, 1.5e308 + 1.5e308j])
def test_family_refuses_entries_no_unit_vector_has(fam3, entry):
    bases = fam3.bases.copy()
    bases[1, 0, 2] = entry
    with pytest.raises(MubValidationError, match=r"basis entry \[1\]\[0\]\[2\]"):
        MubFamily(d=3, bases=bases)


@pytest.mark.parametrize("d, shape, message", [
    (1, (1, 1, 1), "a family needs d >= 2, got d=1"),
    (3, (5, 3, 3), "expected bases of shape (n<= 4, 3, 3), got (5, 3, 3)"),
    (3, (3, 3), "expected bases of shape (n<= 4, 3, 3), got (3, 3)"),
])
def test_family_refuses_a_dimension_or_shape_it_cannot_hold(d, shape, message):
    with pytest.raises(MubValidationError, match=re.escape(message)):
        MubFamily(d=d, bases=np.zeros(shape, dtype=complex))


def test_family_is_frozen_and_holds_only_d_and_bases(fam3):
    assert [f.name for f in dataclasses.fields(fam3)] == ["d", "bases"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam3.bases = fam3.bases[:3]
    assert fam3.n_bases == 4 and build_mub_family(3) is fam3
    with pytest.raises(TypeError):
        MubFamily(d=3, bases=fam3.bases, _unitaries=fam3.unitaries())


def test_validate_builtin_d5(fam5):
    rep = validate_mub_family(fam5, tol=1e-12)
    assert rep.passed
    assert rep.max_orthonormality_residual <= 1e-12
    assert rep.max_unbiasedness_residual <= 1e-12


def test_validate_flags_scaled_vector(fam3):
    bases = fam3.bases.copy()
    bases[1, 0] = bases[1, 0] * 1.01
    rep = validate_mub_family(MubFamily(d=3, bases=bases), tol=1e-12)
    assert not rep.passed
    assert rep.max_orthonormality_residual == pytest.approx(0.0201, abs=1e-4)


def test_single_basis_family_passes_vacuously():
    fam = MubFamily(d=3, bases=np.eye(3, dtype=complex)[None, :, :])
    rep = validate_mub_family(fam, tol=1e-12)
    assert rep.passed
    assert rep.max_unbiasedness_residual == 0.0


def test_basis_unitary_computational_d2_is_sigma_z(fam2):
    assert np.allclose(fam2.unitaries()[0, 0], SZ, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_basis_unitaries_traceless_and_unitary(d):
    fam = build_mub_family(d)
    for a in range(d + 1):
        for k in range(1, d):
            u = fam.unitaries()[a, k - 1]
            assert abs(np.trace(u)) <= 1e-12
            assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-12


def test_unitary_cube_is_identity_d3(fam3):
    for a in range(4):
        u = fam3.unitaries()[a, 0]
        assert np.max(np.abs(u @ u @ u - np.eye(3))) <= 1e-12


def test_unitary_gram_has_unit_eigenvalues(fam5):
    u = fam5.unitaries()[3, 2]
    w = np.linalg.eigvalsh(u.conj().T @ u)
    assert np.max(np.abs(w - 1.0)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_trace_orthogonality(d):
    fam = build_mub_family(d)
    us = fam.unitaries().reshape(-1, d, d)
    gram = np.einsum("aij,bij->ab", us.conj(), us)
    assert np.max(np.abs(gram - d * np.eye(us.shape[0]))) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 5])
def test_adjoint_is_power_complement(d):
    fam = build_mub_family(d)
    for a in range(d + 1):
        for k in range(1, d):
            lhs = fam.unitaries()[a, k - 1].conj().T
            rhs = fam.unitaries()[a, d - k - 1]
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_projector_completeness(d):
    # P_l = (I + sum_k omega^(-k*l) U(a, k)) / d reproduces every projector
    fam = build_mub_family(d)
    for a in range(d + 1):
        for l in range(d):
            acc = np.eye(d, dtype=complex)
            for k in range(1, d):
                acc += np.exp(-2j * np.pi * k * l / d) * fam.unitaries()[a, k - 1]
            assert np.max(np.abs(acc / d - projector(fam, a, l))) <= 1e-12


def save_mub_file(fam, path):
    path.write_text(json.dumps(mub_family_to_dict(fam)))


def read_mub_file(path):
    return mub_family_from_dict(json.loads(path.read_text()))


def test_file_round_trip(tmp_path, fam3):
    path = tmp_path / "fam3.json"
    save_mub_file(fam3, path)
    loaded = read_mub_file(path)
    assert loaded.d == 3
    assert np.max(np.abs(loaded.bases - fam3.bases)) <= 1e-15


def test_file_load_rejects_invalid_family(tmp_path, fam3):
    bad = MubFamily(d=3, bases=fam3.bases.copy())
    scaled = bad.bases.copy()
    scaled[2, 1] = scaled[2, 1] * 1.01
    path = tmp_path / "bad.json"
    save_mub_file(MubFamily(d=3, bases=scaled), path)
    with pytest.raises(MubValidationError):
        read_mub_file(path)


def test_two_qubit_family_from_file_is_valid(tmp_path):
    fam = MubFamily(d=4, bases=two_qubit_mub_bases())
    rep = validate_mub_family(fam, tol=1e-10)
    assert rep.passed
    path = tmp_path / "fam4.json"
    save_mub_file(fam, path)
    loaded = read_mub_file(path)
    assert loaded.d == 4 and loaded.is_maximal


def test_rotated_family_still_valid(fam3, rng):
    rep = validate_mub_family(rotated_family(fam3, rng), tol=1e-12)
    assert rep.passed


# ---------------------------------------------------------------------------
# convention independence: two different valid families give the same physics
# ---------------------------------------------------------------------------


def test_rephased_permuted_family_gives_identical_channel(fam3, rng):
    # per-vector phases and within-basis reordering leave every projector set,
    # hence the channel itself, unchanged
    from gpchannels import channel_from_probabilities, superoperator_of

    bases = fam3.bases.copy()
    for a in range(4):
        perm = rng.permutation(3)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        bases[a] = (fam3.bases[a][perm].T * phases).T
    variant = MubFamily(d=3, bases=bases)
    assert validate_mub_family(variant, tol=1e-12).passed
    p = rng.dirichlet(np.ones(5))
    s_a = superoperator_of(channel_from_probabilities(3, p, fam3))
    s_b = superoperator_of(channel_from_probabilities(3, p, variant))
    assert np.max(np.abs(s_a - s_b)) <= 1e-12


def test_rotated_family_gives_same_extremal_values(fam3, rng):
    # a globally rotated family builds a unitarily equivalent channel: all
    # eigenvalue-determined quantities and oracle extrema must agree
    from gpchannels import (
        OracleConfig,
        channel_from_probabilities,
        eigenrelation_residual,
        extremize_self_fidelity,
        fidelity_extremes,
        mub_seed_states,
        superoperator_of,
    )

    variant = rotated_family(fam3, rng)
    p = rng.dirichlet(np.ones(5))
    ch_a = channel_from_probabilities(3, p, fam3)
    ch_b = channel_from_probabilities(3, p, variant)
    assert eigenrelation_residual(ch_b) <= 1e-12
    assert np.linalg.eigvalsh(choi_of(ch_b))[0] >= -1e-10
    ext = fidelity_extremes(ch_a)
    for ch, fam in ((ch_a, fam3), (ch_b, variant)):
        cfg = OracleConfig(restarts=16, seed=11)
        v = extremize_self_fidelity(
            superoperator_of(ch), "max", cfg, mub_seed_states(fam)
        ).value
        assert v == pytest.approx(ext.f_max, abs=1e-9)


def _residuals_pair_by_pair(fam):
    """Both residuals from one Gram product per basis and per pair of bases."""
    ortho = [np.max(np.abs(b @ b.conj().T - np.eye(fam.d))) for b in fam.bases]
    unbias = [np.max(np.abs(np.abs(a @ b.conj().T) ** 2 - 1.0 / fam.d))
              for a, b in itertools.combinations(fam.bases, 2)]
    return float(np.max(ortho)), float(np.max([0.0] + unbias))


def _families_to_check(d, rng):
    base = (build_mub_family(d) if d in BUILTIN_PRIMES
            else mub_family_from_dict(mub_family_to_dict(MubFamily(d=d, bases=two_qubit_mub_bases()))))
    noisy = base.bases + 1e-7 * rng.standard_normal(base.bases.shape)
    return [base, rotated_family(base, rng), MubFamily(d=d, bases=noisy / 1.00001),
            MubFamily(d=d, bases=base.bases[:2]), MubFamily(d=d, bases=base.bases[:1])]


@pytest.mark.parametrize("d", sorted(BUILTIN_PRIMES) + [4])
def test_residuals_bitwise_against_pair_by_pair_products(d):
    # the batched Gram product rounds each entry as the per-pair products do
    for fam in _families_to_check(d, np.random.default_rng(300 + d)):
        assert fam._residuals == _residuals_pair_by_pair(fam)


@pytest.mark.parametrize("d", sorted(BUILTIN_PRIMES))
def test_family_json_is_entrywise_pairs_and_reads_back_exactly(d):
    fam = build_mub_family(d)
    entrywise = {"d": d, "bases": [[[[float(z.real), float(z.imag)] for z in vec] for vec in basis]
                                   for basis in fam.bases]}
    text = json.dumps(mub_family_to_dict(fam), indent=2, sort_keys=True)
    assert text == json.dumps(entrywise, indent=2, sort_keys=True)
    assert mub_family_from_dict(json.loads(text)).bases.tobytes() == fam.bases.tobytes()


@pytest.mark.parametrize("bases, message", [
    ([], "'bases' has shape (0,)"),
    ([[[0.5, 0.5]]], "'bases' has shape (1, 1, 2)"),
    ([[[[1, 0, 0]]]], "'bases' has shape (1, 1, 1, 3)"),
    ([[[[1, 0], [0, 0]], [[0, 0]]]], "must hold JSON numbers, found list"),
    ([[[[1, 0], [0, 0]], [[0, 0], [1, True]]]], "must hold JSON numbers, found bool"),
    ([[[[1, 0], [0, 0], [0, 0]]]], "expected bases of shape (n<= 3, 2, 2), got (1, 1, 3)"),
])
def test_family_payload_that_is_no_bases_of_pairs_is_refused(bases, message):
    with pytest.raises(MubValidationError, match=re.escape(message)):
        mub_family_from_dict({"d": 2, "bases": bases})
