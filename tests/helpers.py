"""Shared sampling and construction helpers for the test suite."""

import csv
import io
from types import SimpleNamespace

import numpy as np

from gpchannels import (
    DimensionMismatchError,
    MubFamily,
    Spectrum,
    channel_from_eigenvalues,
    channel_from_probabilities,
    spectrum_of,
)
from gpchannels.dynamics import _trajectory_grid


def random_cptp_channel(d, rng, fam=None, alpha=1.0):
    """Channel with probabilities drawn from a symmetric Dirichlet."""
    p = rng.dirichlet(np.full(d + 2, alpha))
    return channel_from_probabilities(d, p, fam)


def identity_channel(d, fam=None):
    return channel_from_probabilities(d, np.eye(d + 2)[0], fam)


def depolarizing_channel(d, fam=None):
    """The channel with all-zero spectrum (every input goes to I/d)."""
    return channel_from_eigenvalues(d, np.zeros(d + 1), fam)


def projector(fam, alpha, k):
    """Rank-1 projector onto vector k of basis alpha."""
    v = fam.bases[alpha, k]
    return np.outer(v, v.conj())


def eigenvalue_trajectory(spec, t):
    """Spectrum of the evolving channel at one time, read off the library's grid."""
    return Spectrum(d=spec.d, lambdas=_trajectory_grid(spec, np.array([float(t)]))[0])


def _dephase(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Phi_a[X] = sum_k <psi_k|X|psi_k> |psi_k><psi_k|; rows of `basis` are the psi_k
    w = np.einsum("ki,...ij,kj->...k", basis.conj(), x, basis)
    return np.einsum("...k,ki,kj->...ij", w, basis, basis.conj())


def apply_channel(ch, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a matrix, or a stack (..., d, d) of them, of matching size.

    The reference route: it dephases each matrix basis by basis and never
    builds a superoperator.
    """
    rho = np.asarray(rho, dtype=complex)
    d = ch.d
    if rho.shape[-2:] != (d, d):
        raise DimensionMismatchError(f"expected {d}x{d} matrices, got shape {rho.shape}")
    out = ((d * ch.probs[0] - 1.0) / (d - 1)) * rho
    scale = d / (d - 1)
    for a in range(d + 1):
        pa = ch.probs[1 + a]
        if pa != 0.0:
            out = out + scale * pa * _dephase(ch.fam.bases[a], rho)
    return out


def choi_of(ch):
    """Choi matrix J = (id x Lambda)[|Omega><Omega|], |Omega> = sum_i |ii>/sqrt(d).

    Normalized to trace one; the reference route for the spectral Choi form:
    block (i, k) of J is Lambda[|i><k|] / d, every block from one stacked call.
    """
    d = ch.d
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[i, k] = |i><k|
    return (apply_channel(ch, units) / d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def unitary_coefficients(fam, psi):
    """Expansion coefficients x[a, k-1] of |psi><psi| over the basis unitaries.

    |psi><psi| = (I + sum_{a,k} x[a,k] U(a,k)) / d; for any unit vector the
    total weight sum |x|^2 equals d-1.
    """
    psi = np.asarray(psi, dtype=complex)
    return np.einsum("i,akij,j->ak", psi.conj(), fam.unitaries(), psi).conj()


def channel_fidelity(ch, psi):
    """Input-output fidelity Tr(P Lambda[P]) of P = |psi><psi| from the coefficient route."""
    x = unitary_coefficients(ch.fam, psi)
    weights = np.sum(np.abs(x) ** 2, axis=1)
    return float((1.0 + np.dot(spectrum_of(ch).lambdas, weights)) / ch.d)


def fidelity_extremes_probability_form(ch):
    """Extremes computed as p_0 + min/max p_a; cross-check route for the closed forms."""
    p0 = float(ch.probs[0])
    rest = ch.probs[1:]
    amin = int(np.argmin(rest))
    amax = int(np.argmax(rest))
    return SimpleNamespace(
        f_min=p0 + float(rest[amin]),
        f_max=p0 + float(rest[amax]),
        argmin_alpha=amin,
        argmax_alpha=amax,
    )


def timeline_csv_reference(tl):
    """Timeline CSV written row by row with csv.writer and float ``repr``.

    The reference route for :func:`gpchannels.dynamics.timeline_csv_text`,
    which must produce the same bytes.
    """
    figures = ["f_min", "f_max", "nu2", "nu_inf"]
    flags = ["fmax_multiplicative", "fmin_multiplicative", "nuinf_equals_fmax",
             "nuinf_multiplicative"]
    values = np.column_stack([tl.times, tl.lambdas] + [getattr(tl, n) for n in figures])
    bits = np.column_stack([getattr(tl, n) for n in flags]).astype(int)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"lambda_{a + 1}" for a in range(tl.d + 1)] + figures + flags)
    for row, row_bits in zip(values.tolist(), bits.tolist()):
        writer.writerow([repr(x) for x in row] + [str(b) for b in row_bits])
    return buf.getvalue()


def validate_density_matrix(rho, tol_herm=1e-12, tol_trace=1e-12, tol_psd=1e-10):
    """Raise if ``rho`` is not a density matrix within the given tolerances."""
    rho = np.asarray(rho)
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    if defect > tol_herm:
        raise ValueError(f"not Hermitian: defect {defect:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol_trace:
        raise ValueError(f"trace {tr} != 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w[0] < -tol_psd:
        raise ValueError(f"negative eigenvalue {w[0]:.3e}")


def vec(m):
    """Column-stacking vectorization, vec(A)[i + rows*j] = A[i, j]."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v, rows=None):
    """Inverse of :func:`vec` for square (or explicitly sized) matrices."""
    v = np.asarray(v).reshape(-1)
    if rows is None:
        rows = int(round(np.sqrt(v.size)))
    return v.reshape((rows, v.size // rows), order="F")


def random_pure(d, rng):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def random_density(d, rng, rank=None):
    rank = rank or d
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + a.conj().T


def rotated_family(fam, rng):
    """Conjugate every basis vector by one random unitary; stays a valid family."""
    z = rng.standard_normal((fam.d, fam.d)) + 1j * rng.standard_normal((fam.d, fam.d))
    w, _ = np.linalg.qr(z)
    return MubFamily(d=fam.d, bases=fam.bases @ w.T)


def two_qubit_mub_bases():
    """The five unbiased bases of C^4 from commuting two-qubit sign-operator triples.

    Each triple of commuting operators below shares an eigenbasis; taking a
    generic combination with distinct eigenvalue sums splits all degeneracy.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def kk(a, b):
        return np.kron(a, b)

    triples = [
        (kk(sz, eye), kk(eye, sz), kk(sz, sz)),
        (kk(sx, eye), kk(eye, sx), kk(sx, sx)),
        (kk(sy, eye), kk(eye, sy), kk(sy, sy)),
        (kk(sx, sy), kk(sy, sz), kk(sz, sx)),
        (kk(sy, sx), kk(sz, sy), kk(sx, sz)),
    ]
    bases = []
    for a, b, c in triples:
        # eigenvalues of a+2b+4c are the distinct sums +-1 +-2 +-4
        _, v = np.linalg.eigh(a + 2 * b + 4 * c)
        bases.append(v.T.copy())  # rows are the eigenvector kets
    return np.array(bases)
