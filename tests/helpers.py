"""Shared sampling and construction helpers for the test suite."""

import numpy as np

from gpchannels import MubFamily, channel_from_probabilities
from gpchannels.metrics import FidelityExtremes


def random_cptp_channel(d, rng, fam=None, alpha=1.0):
    """Channel with probabilities drawn from a symmetric Dirichlet."""
    p = rng.dirichlet(np.full(d + 2, alpha))
    return channel_from_probabilities(d, p, fam)


def fidelity_extremes_probability_form(ch):
    """Extremes computed as p_0 + min/max p_a; cross-check route for the closed forms."""
    p0 = float(ch.probs[0])
    rest = ch.probs[1:]
    amin = int(np.argmin(rest))
    amax = int(np.argmax(rest))
    return FidelityExtremes(
        f_min=p0 + float(rest[amin]),
        f_max=p0 + float(rest[amax]),
        argmin_alpha=amin,
        argmax_alpha=amax,
    )


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
