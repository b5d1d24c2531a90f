import numpy as np
import pytest

from gpchannels import (
    MubFamily,
    MubValidationError,
    UnsupportedDimensionError,
    basis_unitary,
    build_mub_family,
    load_mub_file,
    save_mub_file,
    validate_mub_family,
)
from helpers import rotated_family, two_qubit_mub_bases

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


@pytest.mark.parametrize("d", [1, 4, 6, 9, 32, 37])
def test_non_prime_or_out_of_range_dimensions_rejected(d):
    with pytest.raises(UnsupportedDimensionError):
        build_mub_family(d)


def test_builtin_family_built_once_and_frozen():
    # one shared family per d, so neither its arrays nor the spectral parts
    # memoized on it may be written through
    from gpchannels.channel import _spectral_parts

    fam = build_mub_family(3)
    assert build_mub_family(3) is fam
    assert build_mub_family(np.int64(3)) is fam
    with pytest.raises(UnsupportedDimensionError):
        build_mub_family(3.0)  # the type check is not bypassed by the cache
    sup, choi = _spectral_parts(fam)
    assert _spectral_parts(build_mub_family(3))[0] is sup
    for arr in (fam.bases, fam.unitaries(), sup, choi):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


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
    assert np.allclose(basis_unitary(fam2, 0, 1), SZ, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_basis_unitaries_traceless_and_unitary(d):
    fam = build_mub_family(d)
    for a in range(d + 1):
        for k in range(1, d):
            u = basis_unitary(fam, a, k)
            assert abs(np.trace(u)) <= 1e-12
            assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-12


def test_unitary_cube_is_identity_d3(fam3):
    for a in range(4):
        u = basis_unitary(fam3, a, 1)
        assert np.max(np.abs(u @ u @ u - np.eye(3))) <= 1e-12


def test_unitary_gram_has_unit_eigenvalues(fam5):
    u = fam5.unitaries()[3, 2]
    w = np.linalg.eigvalsh(u.conj().T @ u)
    assert np.max(np.abs(w - 1.0)) <= 1e-10


def test_basis_unitary_index_bounds(fam3):
    with pytest.raises(IndexError):
        basis_unitary(fam3, 4, 1)
    with pytest.raises(IndexError):
        basis_unitary(fam3, 0, 0)
    with pytest.raises(IndexError):
        basis_unitary(fam3, 0, 3)


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
            lhs = basis_unitary(fam, a, k).conj().T
            rhs = basis_unitary(fam, a, d - k)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_projector_completeness(d):
    # P_l = (I + sum_k omega^(-k*l) U(a, k)) / d reproduces every projector
    fam = build_mub_family(d)
    for a in range(d + 1):
        for l in range(d):
            acc = np.eye(d, dtype=complex)
            for k in range(1, d):
                acc += np.exp(-2j * np.pi * k * l / d) * basis_unitary(fam, a, k)
            assert np.max(np.abs(acc / d - fam.projector(a, l))) <= 1e-12


def test_file_round_trip(tmp_path, fam3):
    path = tmp_path / "fam3.json"
    save_mub_file(fam3, path)
    loaded = load_mub_file(path)
    assert loaded.d == 3
    assert np.max(np.abs(loaded.bases - fam3.bases)) <= 1e-15


def test_file_load_rejects_invalid_family(tmp_path, fam3):
    bad = MubFamily(d=3, bases=fam3.bases.copy())
    scaled = bad.bases.copy()
    scaled[2, 1] = scaled[2, 1] * 1.01
    path = tmp_path / "bad.json"
    save_mub_file(MubFamily(d=3, bases=scaled), path)
    with pytest.raises(MubValidationError):
        load_mub_file(path)


def test_two_qubit_family_from_file_is_valid(tmp_path):
    fam = MubFamily(d=4, bases=two_qubit_mub_bases())
    rep = validate_mub_family(fam, tol=1e-10)
    assert rep.passed
    path = tmp_path / "fam4.json"
    save_mub_file(fam, path)
    loaded = load_mub_file(path)
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
        choi_of,
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
