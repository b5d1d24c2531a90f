"""Mutually unbiased bases for prime dimensions, and the unitaries they generate.

A *family* is a set of d+1 orthonormal bases of C^d such that any two
vectors taken from different bases overlap with squared magnitude exactly
1/d.  Basis index 0 of a built-in family is always the computational
basis.  For d = 2 the other two bases are the eigenbases of sigma_x and
sigma_y (in that order).  For odd prime d, basis a (a = 1..d) has vectors

    psi_k[l] = omega^(a*l^2 + k*l) / sqrt(d),      omega = exp(2*pi*i/d),

for k = 0..d-1.  This labeling is fixed so that spectra and attainment
indices are reproducible across runs.

Each basis generates d-1 traceless unitaries

    U(a, k) = sum_l omega^(k*l) |psi_l><psi_l|,     k = 1..d-1,

which are trace-orthogonal across all (a, k) pairs and satisfy
U(a, k)^dagger = U(a, d-k).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MubValidationError, UnsupportedDimensionError

MAX_BUILTIN_DIM = 31

#: validation tolerance for built-in constructions
BUILD_TOL = 1e-12
#: validation tolerance applied when loading a family from file
LOAD_TOL = 1e-10


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


@dataclass(eq=False)
class MubFamily:
    """Pairwise unbiased orthonormal bases of C^d, maximally d+1 of them.

    ``bases[a, k]`` is the k-th unit vector of basis a.  Channels require a
    maximal family; partial families are permitted here so they can still
    be validated.  The array is frozen after construction; families are
    safe to share between workers.
    """

    d: int
    bases: np.ndarray  # shape (n_bases, d, d), complex, n_bases <= d+1
    _unitaries: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        bases = np.asarray(self.bases, dtype=complex)
        if (
            bases.ndim != 3
            or bases.shape[1:] != (self.d, self.d)
            or not (1 <= bases.shape[0] <= self.d + 1)
        ):
            raise MubValidationError(
                f"expected bases of shape (n<= {self.d + 1}, {self.d}, {self.d}), "
                f"got {bases.shape}"
            )
        bases = bases.copy()
        bases.setflags(write=False)
        self.bases = bases

    @property
    def is_maximal(self) -> bool:
        return self.bases.shape[0] == self.d + 1

    @property
    def omega(self) -> complex:
        """Primitive d-th root of unity used by the basis unitaries."""
        return np.exp(2j * np.pi / self.d)

    @property
    def n_bases(self) -> int:
        return self.bases.shape[0]

    def projector(self, alpha: int, k: int) -> np.ndarray:
        """Rank-1 projector onto vector k of basis alpha."""
        v = self.vector(alpha, k)
        return np.outer(v, v.conj())

    def vector(self, alpha: int, k: int) -> np.ndarray:
        if not (0 <= alpha < self.n_bases and 0 <= k < self.d):
            raise IndexError(f"basis index ({alpha}, {k}) out of range for d={self.d}")
        return self.bases[alpha, k]

    def all_vectors(self) -> np.ndarray:
        """All basis vectors flattened to shape (n_bases*d, d)."""
        return self.bases.reshape(-1, self.d)

    def unitaries(self) -> np.ndarray:
        """Stacked basis unitaries, shape (n_bases, d-1, d, d); entry [a, k-1] is U(a, k)."""
        if self._unitaries is None:
            d = self.d
            pows = np.exp(2j * np.pi * np.arange(d) / d)
            us = np.empty((self.n_bases, d - 1, d, d), dtype=complex)
            for a in range(self.n_bases):
                b = self.bases[a]  # rows are vectors
                for k in range(1, d):
                    w = pows[(k * np.arange(d)) % d]
                    us[a, k - 1] = np.einsum("l,li,lj->ij", w, b, b.conj())
            us.setflags(write=False)
            self._unitaries = us
        return self._unitaries


@dataclass(frozen=True)
class MubValidationReport:
    """Worst-case residuals of the two defining properties of a family."""

    max_orthonormality_residual: float
    max_unbiasedness_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_orthonormality_residual <= self.tol
            and self.max_unbiasedness_residual <= self.tol
        )


def validate_mub_family(fam: MubFamily, tol: float = BUILD_TOL) -> MubValidationReport:
    """Check orthonormality within bases and unbiasedness across bases.

    Reports the two worst-case residuals; the report passes iff both are
    within ``tol``.  A single-basis family passes unbiasedness vacuously.
    """
    d = fam.d
    ortho = 0.0
    unbias = 0.0
    eye = np.eye(d)
    for a in range(fam.n_bases):
        g = fam.bases[a] @ fam.bases[a].conj().T  # Gram matrix of basis a
        ortho = max(ortho, float(np.max(np.abs(g - eye))))
    for a in range(fam.n_bases):
        for b in range(a + 1, fam.n_bases):
            overlaps = np.abs(fam.bases[a] @ fam.bases[b].conj().T) ** 2
            unbias = max(unbias, float(np.max(np.abs(overlaps - 1.0 / d))))
    return MubValidationReport(ortho, unbias, tol)


def build_mub_family(d: int) -> MubFamily:
    """Construct the maximal family of d+1 unbiased bases for prime d.

    Basis 0 is the computational basis.  Raises
    :class:`UnsupportedDimensionError` for non-prime or out-of-range d;
    families for prime-power dimensions can be supplied via
    :func:`load_mub_file` instead.  Each d is built and validated once and
    the same frozen family is returned on every later call.
    """
    if not isinstance(d, (int, np.integer)) or not _is_prime(int(d)) or not (2 <= d <= MAX_BUILTIN_DIM):
        raise UnsupportedDimensionError(
            f"no built-in construction for d={d}; need a prime in [2, {MAX_BUILTIN_DIM}] "
            "(load a family from file for other dimensions)"
        )
    return _builtin_family(int(d))


@functools.lru_cache(maxsize=None)
def _builtin_family(d: int) -> MubFamily:
    """Build and validate the family for a prime d that passed the checks."""
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        bases = np.array(
            [
                [[1, 0], [0, 1]],            # computational (sigma_z eigenbasis)
                [[s, s], [s, -s]],           # sigma_x eigenbasis
                [[s, 1j * s], [s, -1j * s]], # sigma_y eigenbasis
            ],
            dtype=complex,
        )
    else:
        pows = np.exp(2j * np.pi * np.arange(d) / d)
        l = np.arange(d)
        bases = np.empty((d + 1, d, d), dtype=complex)
        bases[0] = np.eye(d)
        for a in range(1, d + 1):
            for k in range(d):
                bases[a, k] = pows[(a * l * l + k * l) % d] / np.sqrt(d)
    fam = MubFamily(d=d, bases=bases)
    report = validate_mub_family(fam, tol=BUILD_TOL)
    if not report.passed:
        raise MubValidationError(
            f"built-in construction for d={d} failed validation: "
            f"orthonormality {report.max_orthonormality_residual:.3e}, "
            f"unbiasedness {report.max_unbiasedness_residual:.3e}"
        )
    return fam


def basis_unitary(fam: MubFamily, alpha: int, k: int) -> np.ndarray:
    """The unitary U(alpha, k) = sum_l omega^(k*l) P_l generated by basis alpha.

    ``alpha`` ranges over 0..d and ``k`` over 1..d-1; the result is unitary
    and traceless.
    """
    if not (0 <= alpha < fam.n_bases):
        raise IndexError(f"basis index {alpha} out of range 0..{fam.n_bases - 1}")
    if not (1 <= k <= fam.d - 1):
        raise IndexError(f"power {k} out of range 1..{fam.d - 1}")
    return fam.unitaries()[alpha, k - 1].copy()


def families_equal(a: MubFamily, b: MubFamily) -> bool:
    """Bitwise equality of two families (same object always passes)."""
    return a is b or (a.d == b.d and np.array_equal(a.bases, b.bases))


def mub_family_to_dict(fam: MubFamily) -> dict:
    """JSON-ready form: vectors as [re, im] pairs."""
    return {
        "d": fam.d,
        "bases": [
            [[[float(z.real), float(z.imag)] for z in vec] for vec in basis]
            for basis in fam.bases
        ],
    }


def save_mub_file(fam: MubFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mub_family_to_dict(fam), fh)
        fh.write("\n")


def mub_family_from_dict(payload: dict, tol: float = LOAD_TOL) -> MubFamily:
    try:
        d = int(payload["d"])
        raw = payload["bases"]
        bases = np.array(
            [[[complex(re, im) for re, im in vec] for vec in basis] for basis in raw],
            dtype=complex,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MubValidationError(f"malformed basis-family payload: {exc}") from exc
    fam = MubFamily(d=d, bases=bases)
    report = validate_mub_family(fam, tol=tol)
    if not report.passed:
        raise MubValidationError(
            f"loaded family failed validation at tol {tol:.1e}: "
            f"orthonormality {report.max_orthonormality_residual:.3e}, "
            f"unbiasedness {report.max_unbiasedness_residual:.3e}"
        )
    return fam


def load_mub_file(path, tol: float = LOAD_TOL) -> MubFamily:
    """Load a family from JSON and re-validate its invariants."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return mub_family_from_dict(payload, tol=tol)
