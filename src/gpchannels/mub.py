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
from dataclasses import dataclass

import numpy as np

from .errors import MubValidationError, UnsupportedDimensionError

MAX_BUILTIN_DIM = 31
#: the primes up to MAX_BUILTIN_DIM: the dimensions with a built-in family
BUILTIN_PRIMES = frozenset({2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31})

#: validation tolerance for built-in constructions
BUILD_TOL = 1e-12
#: validation tolerance applied when loading a family from file
LOAD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MubFamily:
    """Pairwise unbiased orthonormal bases of C^d (d >= 2), maximally d+1 of them.

    ``bases[a, k]`` is the k-th unit vector of basis a.  Channels require a
    maximal family; partial families are permitted here so they can still
    be validated.  A family is frozen and holds only ``d`` and a read-only
    copy of the bases; the unitaries and the validation residuals are
    derived once on first request.  An entry that is not finite, or whose
    modulus exceeds 1 + LOAD_TOL (no unit vector has one), is refused before
    any residual is computed.
    Families compare and hash by identity and are safe to share between
    workers.
    """

    d: int
    bases: np.ndarray  # shape (n_bases, d, d), complex, n_bases <= d+1

    def __post_init__(self):
        if self.d < 2:  # C^1 holds no channel: every formula divides by d - 1
            raise MubValidationError(f"a family needs d >= 2, got d={self.d}")
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
        with np.errstate(over="ignore"):  # a modulus past the float range is inf, refused too
            bad = np.argwhere(~(np.abs(bases) <= 1.0 + LOAD_TOL))  # negated: nan is refused
        if bad.size:
            a, k, i = bad[0]
            raise MubValidationError(f"basis entry [{a}][{k}][{i}] = {bases[a, k, i]} is "
                                     "not finite with modulus <= 1")
        bases = bases.copy()
        bases.setflags(write=False)
        object.__setattr__(self, "bases", bases)

    @property
    def is_maximal(self) -> bool:
        return self.bases.shape[0] == self.d + 1

    @property
    def n_bases(self) -> int:
        return self.bases.shape[0]

    def all_vectors(self) -> np.ndarray:
        """All basis vectors flattened to shape (n_bases*d, d)."""
        return self.bases.reshape(-1, self.d)

    def unitaries(self) -> np.ndarray:
        """Stacked basis unitaries, shape (n_bases, d-1, d, d); entry [a, k-1] is U(a, k)."""
        return self._unitary_stack

    @functools.cached_property
    def _unitary_stack(self) -> np.ndarray:
        d = self.d
        pows = np.exp(2j * np.pi * np.arange(d) / d)
        k, l = np.ogrid[1:d, :d]
        # all U(a, k) at once: bases[a, l] is |psi_l> of basis a
        us = np.einsum("kl,ali,alj->akij", pows[(k * l) % d], self.bases, self.bases.conj())
        us.setflags(write=False)
        return us

    @functools.cached_property
    def _residuals(self) -> tuple[float, float]:
        """Worst orthonormality and unbiasedness residuals; see :func:`validate_mub_family`."""
        a, b = np.triu_indices(self.n_bases)  # every pair a <= b, each basis with itself too
        g = self.bases[a] @ self.bases.conj()[b].swapaxes(1, 2)  # Gram matrix of each pair
        ortho = np.max(np.abs(g[a == b] - np.eye(self.d)))
        unbias = np.max(np.abs(np.abs(g[a != b]) ** 2 - 1.0 / self.d), initial=0.0)
        return float(ortho), float(unbias)  # np.max: a nan is never dropped


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
    The residuals are computed once per family; judging it again is free.
    """
    return MubValidationReport(*fam._residuals, tol)


def build_mub_family(d: int) -> MubFamily:
    """Construct the maximal family of d+1 unbiased bases for prime d.

    Basis 0 is the computational basis.  Raises
    :class:`UnsupportedDimensionError` for non-prime or out-of-range d;
    families for prime-power dimensions can be supplied through
    :func:`mub_family_from_dict` instead.  Each d is built and validated
    once and the same frozen family is returned on every later call.
    """
    # the type first: 3.0 hashes as 3 and would pass the lookup
    if not isinstance(d, (int, np.integer)) or int(d) not in BUILTIN_PRIMES:
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
        a, k, l = np.ogrid[1:d + 1, :d, :d]
        bases = np.concatenate([np.eye(d)[None], pows[(a * l * l + k * l) % d] / np.sqrt(d)])
    return _admitted(MubFamily(d=d, bases=bases), BUILD_TOL, f"built-in construction for d={d}")


def _admitted(fam: MubFamily, tol: float, what: str) -> MubFamily:
    """``fam`` if it passes validation at ``tol``, else MubValidationError naming its residuals."""
    report = validate_mub_family(fam, tol=tol)
    if not report.passed:
        raise MubValidationError(
            f"{what} failed validation at tol {tol:.1e}: "
            f"orthonormality {report.max_orthonormality_residual:.3e}, "
            f"unbiasedness {report.max_unbiasedness_residual:.3e}"
        )
    return fam


def families_equal(a: MubFamily, b: MubFamily) -> bool:
    """Bitwise equality of two families (same object always passes)."""
    return a is b or (a.d == b.d and np.array_equal(a.bases, b.bases))


def spec_dimension(payload: dict) -> int:
    """A spec's ``d``; anything but a JSON integer raises UnsupportedDimensionError."""
    d = payload.get("d") if isinstance(payload, dict) else None
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise UnsupportedDimensionError(f"spec needs an integer 'd', got {d!r}")
    return int(d)


def spec_numbers(value, name: str, error: type[Exception]) -> np.ndarray:
    """A file's number, or rectangular nest of lists of numbers, ``value`` as floats.

    ``name`` is its field; the caller checks the shape.  A boolean, string, object,
    null or list where a number belongs anywhere in ``value`` raises ``error``.
    """
    entries = np.array(value, dtype=object)  # lists nest as deep as they are rectangular
    flat = entries.ravel().tolist()
    bad = [t for t in set(map(type, flat))
           if t is bool or not issubclass(t, (int, float, np.integer, np.floating))]
    if bad:  # name the first entry that is not a number
        found = next(type(x) for x in flat if type(x) in bad)
        raise error(f"spec field {name!r} must hold JSON numbers, found {found.__name__}")
    return entries.astype(float)


def complex_pairs(z) -> list:
    """A complex array as nested lists with each entry an [re, im] pair, as files hold them."""
    return np.stack([np.real(z), np.imag(z)], -1).tolist()


def mub_family_to_dict(fam: MubFamily) -> dict:
    """JSON-ready form: vectors as [re, im] pairs."""
    return {"d": fam.d, "bases": complex_pairs(fam.bases)}


def mub_family_from_dict(payload: dict) -> MubFamily:
    """Family from its JSON form, ``d`` and ``bases`` of [re, im] pairs, admitted at LOAD_TOL."""
    d = spec_dimension(payload)
    try:
        pairs = spec_numbers(payload["bases"], "bases", MubValidationError)
    except (KeyError, OverflowError) as exc:  # no bases, or a JSON integer past the float range
        raise MubValidationError(f"malformed basis-family payload: {exc}") from exc
    if pairs.ndim != 4 or pairs.shape[-1] != 2:  # not bases of vectors of [re, im] pairs
        raise MubValidationError(f"malformed basis-family payload: 'bases' has shape {pairs.shape}")
    return _admitted(MubFamily(d=d, bases=pairs.view(complex)[..., 0]), LOAD_TOL, "loaded family")
