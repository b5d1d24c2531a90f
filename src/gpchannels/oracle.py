"""Brute-force verification oracles, independent of the closed forms.

The searches see only the channel's superoperator S and share one engine: a
Riemannian conjugate-gradient ascent (Absil, Mahony & Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008) of the quartic form f(x) = <vec P,
H vec P> over unit vectors x, P = |x><x|.  It takes H as the map Lambda_H,
never as a form on P:

* ``extremize_self_fidelity`` uses H = +/-(S + S^dagger)/2, whose form is
  Tr(P Lambda[P]) even for a superoperator that is not self-adjoint;
* ``maximize_output_2norm`` uses H = S^dagger S, since Tr(Lambda[P]^2) =
  <vec P, S^dagger S vec P>, and reports the square root;
* ``maximize_output_inf_norm`` runs on C^(2m).  For x = (a psi, b phi) with
  |a|^2 + |b|^2 = 1, 4 Tr(P_22 Lambda[P_11]) = 4|a|^2|b|^2 <phi,
  Lambda[psi psi^dagger] phi>, whose maximum over unit x is the largest
  output inf-norm, reached at |a| = |b|.  Its Lambda_H is block diagonal,
  2 Lambda^dagger[P_22] on the input block and 2 Lambda[P_11] on the
  measurement block, so it needs only S and S^dagger.  The pair is kept
  balanced: after every step each block x_j is rescaled to norm
  1/sqrt(2), by s_j = 1/(sqrt(2) |x_j|), which multiplies the value by
  (s_0 s_1)^2 >= 1 and block j's image by s_(1-j)^2, so it needs no
  further Lambda_H.  The balance direction is the form's most curved one
  (-8 nu_inf at the optimum); fixing it leaves the conjugate-gradient
  steps a better-conditioned problem.

The engine works in real coordinates K(X) = Re X + Im X of Hermitian
matrices, an isometry onto real matrices: <K(X), K(Y)> = Tr(XY).  When S is
Hermiticity-preserving, Lambda[X^dagger] = Lambda[X]^dagger, as every channel
and tensor power of one is, Lambda is one real matrix R on row vectors,
K(vec X) @ R = K(vec Lambda[X]), and Lambda^dagger is R^T.  Each search
builds its map from R alone: H = +/-(R + R^T)/2 for the fidelities, R R^T
for the 2-norm, and the blocks 2 R^T and 2 R for the inf-norm.  The searches
refuse a superoperator that is not finite or not Hermiticity-preserving, or
of dimension below 2, before any Haar start is drawn.

Each sweep moves every active restart along a Polak-Ribiere+ direction,
transported by projection and reset to steepest ascent every 2n-2 accepted
steps on C^n or when it does not ascend.  The line search is exact: along the
geodesic x cos t + u sin t the form is a trigonometric polynomial of degree
4, whose coefficients follow from Lambda_H of u u^dagger and
(x+u)(x+u)^dagger; a grid and a Newton step maximize it.  A step is kept only
if it improves, so every restart's value is nondecreasing.

A restart stops on the first-order certificate ||Lambda_H[P] x - f x|| <=
CERT_TOL ||H||_2; when a steepest-ascent line search gains nothing; when
STALL_CYCLES reset cycles in a row fail to halve that gradient norm; or, in a
loose stop, when a step gains at most VALUE_TOL once the gradient norm is at
most LOOSE_CERT_TOL ||H||_2.  A line-search step shorter than STEP_TOL (an
angle along the geodesic) is not taken.  The restart that is reported is
resumed after a loose stop until it stops by one of the other rules.

Restart seeding always includes the supplied candidate states (basis
vectors, or their tensor products for tensor-power probes) ahead of Haar
draws, so conjectured optima are starting points and the search's job is
to confirm nothing beats them.  The Haar starts of one search are the rows
of one draw from a generator seeded with the config's seed, so a larger
restart budget appends starts and keeps the earlier ones.  On ties within
VALUE_TOL the earliest restart wins, so seeded optima are reported
verbatim.

The restart budget is a ceiling: a search whose best seed meets an upper
bound read off R alone is ``certified`` and reports no Haar start.  Each
entry point reads its seeds' start values in one pass, <K(P), K(P) H> row
by row for f and nu_2, and for the inf-norm the top eigenvalue of each
seed's output Lambda[psi psi^dagger] from one batched eigvalsh (a seed
starts as the pair (psi, phi)/sqrt(2), phi the top eigenvector of that
output, whose value is that eigenvalue), and where it has seeds the bound.
``_search`` alone reads the config, and decides certification at two
points.  If the best start is within VALUE_TOL of the bound, the engine
never runs and no Haar start is drawn: the search reports the earliest seed
on the bound, with its start value and 0 sweeps, and an inf-norm search
takes one eigh for that seed's measurement.  Otherwise the Haar starts are
drawn, lifted to the engine's starts together with the seeds, and every
restart climbs in one run of the engine, each with its own sweep budget.
Once after that climb, if the seeds' climbed values meet the bound, the
Haar starts are dropped unreported.

Let u = K(vec I)/sqrt(m).  When u R = u and R u = u to HP_TOL max|R|
(Lambda is unital and trace preserving), a pure P has <K(P), u> =
Tr P/sqrt(m) and ||K(P)|| = ||P||_F = 1, so K(P) = u/sqrt(m) + p
with p in the complement u^perp and ||p||^2 = 1 - 1/m exactly.  Each H above
then fixes u up to sign and maps u^perp to itself, the cross terms vanish,
and every engine value is at most:

* f (H = +/-(R + R^T)/2): <u, H u>/m + (1 - 1/m) lambda_max(H on u^perp),
  where <u, H u> = +/-1;
* nu_2^2 (H = R R^T): 1/m + (1 - 1/m) lambda_max(R R^T on u^perp);
* the inf-norm pair value 4|a|^2|b|^2 <phi, Lambda[psi psi^dagger] phi> <=
  <K(phi phi^dagger), K(psi psi^dagger) R> = 1/m + <q, p R>, at most
  1/m + (1 - 1/m) sigma_max(R on u^perp), the root of lambda_max(R R^T on u^perp).

H is restricted to u^perp through an orthonormal basis of it, the last m^2 - 1
columns of the Householder reflector Q = I - w w^T / w_0, w = u + e_0, which
takes e_0 to -u.  Q H Q is a rank-2 update of H (Golub & Van Loan, Matrix
Computations, section 5.1), so the restriction costs O(m^4) and the bound
one eigvalsh of side m^2 - 1; no identity of side m^2 is built and no dense
product is formed.  The compression (I - u u^T) H (I - u u^T) would add an
eigenvalue 0 on u, which exceeds lambda_max whenever every eigenvalue on
u^perp is negative.  No closed form and no family enters the bound.

||H||_2, which only the CERT_TOL stop rules read, comes from the same
spectrum: H fixes u up to sign, so <u, H u> and the eigenvalues on u^perp are
all of H's.  It is max(|<u, H u>|, |lambda_min|, |lambda_max|) on u^perp for
f, max(1, lambda_max) for nu_2, and 2 sqrt(max(1, lambda_max(R R^T on
u^perp))) for the inf-norm's blocks 2 R^T and 2 R.  An SVD computes it only
for a map that is not unital and trace preserving, or a search with no seeds.

The search budget :class:`OracleConfig`, its defaults SINGLE_RESTARTS,
TENSOR_RESTARTS and DEFAULT_SEED, and the state-dimension cap MAX_ORACLE_DIM
are defined in :mod:`gpchannels.channel`, which loads without this module,
and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (  # noqa: F401  the budget names are also read off this module
    DEFAULT_SEED,
    MAX_ORACLE_DIM,
    SINGLE_RESTARTS,
    TENSOR_RESTARTS,
    GeneralizedPauliChannel,
    OracleConfig,
    check_oracle_dim,
    choi_from_spectrum,
    eigen_columns,
    fa_slacks,
    spectrum_of,
    superoperator_of,
    tensor_power,
)
from .errors import TooLargeError
from .metrics import fidelity_report
from .mub import MubFamily, build_mub_family

#: hard cap on restarts times squared state dimension, the size of the ascent's projector arrays
MAX_START_ENTRIES = 2**24
#: hard cap on spectra per equivalence scan
MAX_SCAN_POINTS = 100_000
#: stop rules of the ascent (see the module docstring); CERT_TOLs relative to ||H||_2
CERT_TOL = 1e-10
LOOSE_CERT_TOL = 1e-7
STEP_TOL = 1e-9
VALUE_TOL = 1e-10
STALL_CYCLES = 3
LINE_SEARCH_POINTS = 32
#: largest |Lambda[X^dagger] - Lambda[X]^dagger| entry of S the searches accept, relative to max |S|
HP_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """Best value found, the state(s) attaining it, and per-restart summaries.

    ``value`` is the extremal value over all restarts; ``state`` comes from
    the earliest restart within VALUE_TOL of it (seeded candidates come
    first), which never ends on a loose stop unless it runs out of sweeps.
    ``restart_values`` holds each restart's final objective and
    ``restart_iterations`` its sweeps, for the ``restarts`` rows reported.
    ``bound`` is the S-only bound of the module docstring in the units of
    ``value`` (a lower bound for a minimum), or None where the search had
    no seeds or the map is not unital and trace preserving; ``certified``
    says the best seed met it within VALUE_TOL, so no Haar start is
    reported.  A search certified at its seeds' start values climbs
    nothing: its ``restart_values`` are those start values, its
    ``restart_iterations`` are 0, and ``state`` is the earliest seed within
    VALUE_TOL of the bound.  The same config and inputs replay the result
    bit-identically.
    """

    value: float
    state: np.ndarray
    dual_state: np.ndarray | None
    restart_values: np.ndarray
    restart_iterations: np.ndarray
    best_restart: int
    restarts: int
    n_seed_states: int
    certified: bool
    bound: float | None

    def __post_init__(self):
        for name in ("state", "dual_state", "restart_values", "restart_iterations"):
            if getattr(self, name) is not None:
                arr = np.asarray(getattr(self, name))
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


def random_pure_state(dim: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar-distributed unit vectors of C^dim (normalized complex-normal rows).

    Row j reads draws 2*dim*j to 2*dim*(j+1) - 1 of one standard-normal
    block, real and imaginary parts interleaved, so a larger ``count``
    appends rows and never changes the earlier ones.
    """
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    z = rng.standard_normal((count, dim, 2)).view(complex)[..., 0]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def mub_seed_states(fam: MubFamily) -> np.ndarray:
    """All d*(d+1) basis vectors of the family, as restart candidates."""
    return fam.all_vectors().copy()


def product_seed_states(fam: MubFamily, n: int) -> np.ndarray:
    """All n-fold tensor products of the family's basis vectors."""
    single = fam.all_vectors()
    out = single
    for _ in range(n - 1):
        out = np.einsum("ai,bj->abij", out, single).reshape(-1, out.shape[1] * single.shape[1])
    return out


def _check_start_count(count: int, dim: int) -> None:
    if count * dim * dim > MAX_START_ENTRIES:
        raise TooLargeError(
            f"{count} restarts of dimension {dim} exceed {MAX_START_ENTRIES} projector entries"
        )


def _checked_superop(superop: np.ndarray) -> tuple[np.ndarray, int]:
    """The real matrix R of Lambda in the coordinates K, and the state dimension m (capped).

    ``superop`` acts on column-stacked vectorizations; R acts on row vectors of
    row-major ones, K(vec X) @ R = K(vec Lambda[X]) for Hermitian X, where
    vec(X)[i*m + j] = X[i, j].  K is an isometry, so R^T is Lambda^dagger.
    S must be finite and Hermiticity-preserving to HP_TOL (see the module docstring).
    """
    superop = np.asarray(superop)
    if superop.ndim != 2 or superop.shape[0] != superop.shape[1]:
        raise ValueError(f"superoperator must be square, got {superop.shape}")
    m = int(round(np.sqrt(superop.shape[0])))
    if m * m != superop.shape[0]:
        raise ValueError(f"superoperator side {superop.shape[0]} is not a perfect square")
    if m < 2:
        raise ValueError("dimension must be >= 2")
    check_oracle_dim(m)  # before the complex copy
    superop = superop.astype(complex, copy=False)
    if not np.isfinite(superop).all():
        raise ValueError("superoperator has non-finite entries")
    s = superop.reshape(m, m, m, m).transpose(1, 0, 3, 2)
    # Lambda[X^dagger] = Lambda[X]^dagger: swapping row and column of input and output conjugates S
    miss = np.max(np.abs(s.transpose(1, 0, 3, 2) - s.conj()))
    if miss > HP_TOL * np.max(np.abs(s)):
        raise ValueError(f"superoperator is not Hermiticity-preserving (off by {miss:.3g})")
    # for k = K(vec X), Re vec X = (k + k[flip]) / 2 and Im vec X = (k - k[flip]) / 2, with
    # flip the permutation vec(X) -> vec(X^T); so K(vec Lambda[X]) = k @ (Re S + Im S[:, flip])^T
    return (s.real + s.imag.transpose(0, 1, 3, 2)).reshape(m * m, m * m).T, m


def _start_states(dim: int, restarts: int, seed_states) -> np.ndarray:
    """The checked seed rows, normalized, as an (n, dim) stack (n = 0 without seeds).

    It checks the cap on max(restarts, n) starts before ``_search`` draws a Haar row.
    """
    if seed_states is None:
        seeds = np.zeros((0, dim), dtype=complex)
    else:
        seeds = np.asarray(seed_states, dtype=complex)
        if seeds.shape[-1:] != (dim,) or seeds.ndim > 2:
            raise ValueError(f"seed states of shape {seeds.shape} are not vectors of C^{dim}")
        seeds = seeds.reshape(-1, dim)
        with np.errstate(invalid="ignore", over="ignore"):  # such rows are refused below
            norms = np.linalg.norm(seeds, axis=1, keepdims=True)
        bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
        if bad.size:
            raise ValueError(f"seed state {bad[0]} has norm {norms[bad[0], 0]}; "
                             "seed states must be finite and nonzero")
        seeds = seeds / norms
    _check_start_count(max(restarts, seeds.shape[0]), dim)
    return seeds


def _on_u_perp(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symmetric h restricted to u^perp, in the last m^2 - 1 columns of the reflector Q.

    Q = I - w w^T / w_0 with w = u + e_0 takes e_0 to -u (u_0 > 0, so no
    cancellation), and Q h Q = h - w z^T - z w^T with z = (h w - (w^T h w /
    2 w_0) w) / w_0: a rank-2 update of h, read off from row and column 1 on.
    """
    w = u.copy()
    w[0] += 1.0
    hw = h @ w
    z = (hw - (w @ hw) / (2.0 * w[0]) * w) / w[0]
    wz = w[1:, None] * z[1:]
    return h[1:, 1:] - (wz + wz.T)


def _unital_bound(r: np.ndarray, h: np.ndarray, m: int,
                  pair: bool = False) -> tuple[float, float] | None:
    """A search's bound of the module docstring and its ||H||_2, read off R alone.

    The bound is on <k, h k> for H = h; with ``pair``, h is R R^T and the bound is
    on the inf-norm pair value, for H the blocks 2 R^T and 2 R of norm 2 sigma_max(R).
    None unless R fixes u = K(vec I)/sqrt(m) from both sides to HP_TOL max|R|.  Then
    h fixes u up to sign, so <u, h u> and h on u^perp give all of its spectrum, and
    the norm needs no SVD.  The entry points call it; ``_search`` alone reads the bound.
    """
    u = np.eye(m).reshape(-1) / np.sqrt(m)
    if max(np.linalg.norm(u @ r - u), np.linalg.norm(r @ u - u)) > HP_TOL * np.max(np.abs(r)):
        return None
    on_u = float(u @ h @ u)
    spectrum = np.linalg.eigvalsh(_on_u_perp(h, u))
    top, norm = float(spectrum[-1]), max(abs(on_u), -float(spectrum[0]), float(spectrum[-1]))
    if pair:
        top, norm = np.sqrt(max(top, 0.0)), 2.0 * np.sqrt(norm)
    return on_u / m + (1.0 - 1.0 / m) * top, norm


def _coordinates(psi: np.ndarray) -> np.ndarray:
    """K(vec P) of the projectors P = psi psi^dagger, one row per row psi of any stack."""
    proj = psi[..., :, None] * psi.conj()[..., None, :]
    return (proj.real + proj.imag).reshape(*psi.shape[:-1], psi.shape[-1] ** 2)


def _doubled_outputs(r: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """2 Lambda[psi psi^dagger] for the unit rows psi, as a stack of Hermitian matrices."""
    m = psi.shape[1]
    out = (_coordinates(psi) @ r).reshape(-1, m, m)  # K(Lambda[P])
    return out + out.mT + 1j * (out - out.mT)


def _pair_starts(r: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Inf-norm starts (psi, phi)/sqrt(2), phi the top eigenvector of Lambda[psi psi^dagger]."""
    phi = np.linalg.eigh(_doubled_outputs(r, psi))[1][:, :, -1]
    return np.stack([psi, phi]) / np.sqrt(2.0)


def _line_search_tables(points: int):
    """Grid steps t, and maps from the line-search dots to gains and derivatives there.

    With A = x x^dagger, C = u u^dagger, W = (x+u)(x+u)^dagger and F(X, Y) =
    Re Tr(X Lambda_H[Y]), ``coef`` maps the dots F(A,A), F(W,A), F(C,A), F(C,C),
    F(C,W), F(W,W) to the k of the gain f(x cos t + u sin t) - f(x) =
    k1 (cos 2t - 1) + k2 sin 2t + k3 (cos 4t - 1) + k4 sin 4t.
    """
    coef = np.array([[4, -4, 0, -2], [0, 4, 2, 2], [0, -8, -4, 0],
                     [-4, -4, 0, 2], [0, 4, 2, -2], [0, 0, -1, 0]]) / 8.0
    t = np.linspace(-0.5 * np.pi, 0.5 * np.pi, points, endpoint=False)
    c2, s2, c4, s4 = np.cos(2 * t), np.sin(2 * t), np.cos(4 * t), np.sin(4 * t)
    gain = coef @ np.stack([c2 - 1.0, s2, c4 - 1.0, s4])
    slope = coef @ np.stack([-2 * s2, 2 * c2, -4 * s4, 4 * c4])
    bend = coef @ np.stack([4 * c2, 4 * s2, 16 * c4, 16 * s4])  # minus the second derivative
    return t, gain, np.stack([slope.T, bend.T], axis=1)


_STEPS, _GAIN, _DERIVS = _line_search_tables(LINE_SEARCH_POINTS)
_SPACING = np.pi / LINE_SEARCH_POINTS
#: c^2, cs, sc, s^2 -> weights of Lambda_H[A], Lambda_H[C], Lambda_H[W] in Lambda_H[P(t)]
_MIX = np.array([[1.0, 0.0, 0.0], [-0.5, -0.5, 0.5], [-0.5, -0.5, 0.5], [0.0, 1.0, 0.0]])


def _ascent(ops: np.ndarray, starts: np.ndarray, budget: int, scale: float,
            patient: bool = False):
    """The ascent engine: maximize f(x) = <x, Lambda_H[x x^dagger] x> from each start.

    ``starts`` (k, n, m) holds n unit vectors of C^(k m) in k blocks.
    Lambda_H is block diagonal: ``ops[j]`` is the real matrix of block j in
    the coordinates K of the module docstring, K(vec P) @ ops[j] for the
    row-major vec P of block k-1-j (the same block when k = 1), as built from
    ``_checked_superop``'s R.  Two blocks are the inf-norm pair, which every
    step rebalances to block norms 1/sqrt(2).  The engine keeps projectors
    and their images in K; ``scale`` is ||H||_2.  All restarts climb in one
    loop, and each stops on its own rules or after ``budget`` sweeps; a
    ``patient`` climb makes no loose stop.  The engine reads no bound and no
    config.  Returns states, values, sweeps, and whether each restart settled:
    stopped by a rule other than the loose stop, or out of sweeps.
    """
    k, n, m = starts.shape
    tight, loose = (CERT_TOL * scale) ** 2, (LOOSE_CERT_TOL * scale) ** 2
    cycle = 2 * k * m - 2  # real dimension of the projective space: CG resets after it
    states, values = np.empty_like(starts), np.empty(n)
    iters, settled = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)

    def apply(w, out):
        # out <- K(Lambda_H[w w^dagger]) for w of shape (n, k, b, m); returns the K(w w^dagger)
        proj = _coordinates(w[:, ::-1])
        np.matmul(proj, ops, out=out)
        return proj[:, ::-1]

    def times(img, x):
        # G x = Re G x + i Im G x for the image K = K(G) of G = Lambda_H[P]:
        # Re G = (K + K^T) / 2 and Im G = (K - K^T) / 2, so G x = ((1+i) K x + (1-i) K^T x) / 2
        kk, xs = img.reshape(k, -1, m, m), (0.5 * x).view(float).reshape(*x.shape, 2)
        kx, ktx = kk @ xs, kk.mT @ xs
        both, diff = kx + ktx, kx - ktx
        both[..., 0] -= diff[..., 1]
        both[..., 1] += diff[..., 0]
        return both.view(complex)[..., 0]

    idx, x = np.arange(n), starts
    g = np.empty((3, k, n, m * m))  # K(Lambda_H[P]), then line-search images
    apply(x[None], g[:1])
    gx = times(g[0], x)
    f = np.vecdot(x, gx).real.sum(0)
    grad = gx - f[:, None] * x  # the Riemannian gradient, up to a factor 2
    gg = np.vecdot(grad, grad).real.sum(0)
    memory = np.zeros((2,) + x.shape, dtype=complex)  # previous direction and gradient
    # |grad|^2 at the last step, and the smallest |grad|^2 of this reset cycle and of the last one
    gg_prev, low, last_low = np.ones(n), gg.copy(), np.full(n, np.inf)
    age = np.full(n, cycle)  # accepted steps since steepest ascent (cycle: reset)
    stall = np.zeros(n, dtype=np.int64)  # reset cycles that did not halve |grad|
    stop = final = gg <= tight
    iters[stop] += 1  # a certified start spends one sweep, without moving

    while True:
        if stop.any():  # drop the restarts that stopped
            done, keep = idx[stop], ~stop
            states[:, done], values[done], settled[done] = x[:, stop], f[stop], final[stop]
            if not keep.any():
                return states, values, iters, settled
            idx, x, gx, grad = idx[keep], x[:, keep], gx[:, keep], grad[:, keep]
            memory = memory[:, :, keep]
            f, gg, gg_prev, low, last_low, age, stall = (
                a[keep] for a in (f, gg, gg_prev, low, last_low, age, stall))
            g, old = np.empty((3, k, idx.size, m * m)), g
            np.compress(keep, old[0], axis=1, out=g[0])
        iters[idx] += 1

        # PR+ direction: grad is tangent at x, so projection transport acts on the result
        g_dir, g_old = np.vecdot(grad, memory).real.sum(1)
        beta = np.maximum(gg - g_old, 0.0) / gg_prev
        beta[(age >= cycle) | (gg + beta * g_dir <= 0.0)] = 0.0  # reset, or not ascending
        steepest = beta == 0.0
        # a new cycle: did the smallest |grad|^2 of the last one fall to a quarter?
        stall = np.where(steepest, np.where(low < 0.25 * last_low, 0, stall + 1), stall)
        last_low, low = np.where(steepest, low, last_low), np.where(steepest, gg, low)
        u = grad + beta[:, None] * memory[0]
        u -= np.vecdot(x, u).sum(0)[:, None] * x  # exactly tangent: keeps |x| = 1 to roundoff
        norm = np.sqrt(np.vecdot(u, u).real.sum(0)) + 1e-300  # no 0/0 even for a zero u

        # exact line search along the geodesic x cos t + u sin t; its two images are
        # applied one at a time and freed before the next ones, to bound the peak memory
        un = u / norm[:, None]
        dots = np.empty((idx.size, 6))
        dots[:, 0] = f
        proj = [apply(w[None], g[1 + j:2 + j])[0] for j, w in enumerate((un, x + un))]
        dots[:, 1:] = np.stack([np.vecdot(p, g).sum(1) for p in proj]).reshape(6, -1)[
            [3, 0, 1, 2, 5]].T
        del proj
        best = np.argmax(dots @ _GAIN, axis=1)
        slope, bend = np.vecdot(dots[:, None, :], _DERIVS[best]).T
        bend = np.where(bend > 0.0, bend, np.inf)  # a Newton step only where concave
        t = _STEPS[best] + np.clip(slope / bend, -_SPACING, _SPACING)
        t[np.abs(t) < STEP_TOL] = 0.0  # too short to count as a move
        c, s = np.cos(t), np.sin(t)

        xn = c[:, None] * x + s[:, None] * un
        cs = np.stack([c, s], axis=1)
        mix = (cs[:, :, None] * cs[:, None, :]).reshape(-1, 4) @ _MIX
        gn = np.empty_like(g)
        np.matmul(mix[None, :, None, :], g.transpose(1, 2, 0, 3), out=gn[0][:, :, None, :])
        if k == 2:
            # rebalance the pair: block j scales by s_j = 1/(sqrt(2)|x_j|), which multiplies
            # the value by (s_0 s_1)^2 >= 1 and block j's image by s_(1-j)^2; a zero step stays
            s2 = np.where(t == 0.0, 1.0, 0.5 / np.vecdot(xn, xn).real)
            xn *= np.sqrt(s2)[:, :, None]
            gn[0] *= s2[::-1, :, None]
        gxn = times(gn[0], xn)
        fn = np.vecdot(xn, gxn).real.sum(0)
        up = fn > f
        if not up.all():
            down = ~up
            xn[:, down], gn[0][:, down] = x[:, down], g[0][:, down]
            gxn[:, down], fn[down] = gx[:, down], f[down]
        gain, memory, gg_prev = fn - f, np.stack([u, grad]), gg
        x, g, gx, f, grad = xn, gn, gxn, fn, gxn - fn[:, None] * xn
        gg = np.vecdot(grad, grad).real.sum(0)
        low, age = np.minimum(low, gg), np.where(up, np.where(steepest, 1, age + 1), cycle)
        # certified; steepest ascent gains nothing; stalled; out of sweeps; or a loose stop
        final = (gg <= tight) | (steepest > up) | (stall >= STALL_CYCLES) | (iters[idx] >= budget)
        stop = final if patient else final | (up & (gain <= VALUE_TOL) & (gg <= loose))


def _norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) or 1.0


def _select_best(values: np.ndarray) -> int:
    """Earliest restart within VALUE_TOL of the best value."""
    return int(np.nonzero(values >= np.max(values) - VALUE_TOL)[0][0])


def _search(ops, seeds, cfg, found, start, score=np.asarray, sign=1.0,
            lift=lambda psi: psi[None], measure=None) -> OracleResult:
    """One search: certify the seeds at their start values, else climb once.

    The only reader of ``cfg`` below the entry points, and the only place that
    draws Haar rows.  ``seeds`` are the unit seed rows, ``found`` is
    ``_unital_bound``'s (bound, ||H||_2) or None, and ``start`` the seeds'
    engine values, read only where there is a bound.  ``score`` maps engine
    values to what is ranked, larger being better, and the result reports
    sign * score.  If the best start is within VALUE_TOL of the bound,
    nothing climbs, nothing is drawn and nothing is lifted: the result is the
    earliest seed on the bound, with the measurement ``measure`` gives for its
    index (the inf-norm's; None gives no dual state).  Otherwise the
    cfg.restarts - n Haar rows are drawn, ``lift`` maps all rows to the
    engine's starts in one call, and all climb in one ``_ascent`` of
    cfg.max_iters sweeps; if the climbed seeds then meet the bound, the Haar
    rows are dropped.  The restart that is reported carries the certificate:
    after a loose stop it climbs on, patiently, over the sweeps it has left,
    which only raises its value, so it stays the earliest best.
    """
    n = seeds.shape[0]
    bound, scale = found or (None, None)
    certified = False
    if bound is not None:
        bound, values = float(score(bound)), score(start)
        on = np.flatnonzero(values >= bound - VALUE_TOL)
        certified = on.size > 0
    if certified:
        best, iters = int(on[0]), np.zeros(n, dtype=np.int64)
        state, dual = seeds[best], None if measure is None else measure(best)
    else:
        rows = seeds
        if cfg.restarts > n:  # the Haar rows follow the seeds
            rows = np.concatenate([seeds, random_pure_state(
                seeds.shape[1], np.random.default_rng(cfg.seed), cfg.restarts - n)])
        scale = _norm2(ops[0]) if scale is None else scale  # every block's operator has this norm
        states, values, iters, settled = _ascent(ops, lift(rows), cfg.max_iters, scale)
        certified = bound is not None and bool(np.max(score(values[:n])) >= bound - VALUE_TOL)
        if certified:  # the Haar rows are dropped
            states, values, iters, settled = states[:, :n], values[:n], iters[:n], settled[:n]
        best = _select_best(score(values))
        if not settled[best]:  # a loose stop, with sweeps left
            x, v, it, _ = _ascent(ops, states[:, [best]], cfg.max_iters - iters[best], scale,
                                  patient=True)
            states[:, best], values[best] = x[:, 0], max(values[best], v[0])  # it never drops
            iters[best] += it[0]
        values, x = score(values), states[:, best]
        if len(x) == 1:
            state, dual = x[0], None
        else:  # the pair's blocks, each a unit vector
            state, dual = x / np.linalg.norm(x, axis=1, keepdims=True)
    return OracleResult(
        value=sign * float(np.max(values)),
        state=state,
        dual_state=dual,
        restart_values=sign * values,
        restart_iterations=iters,
        best_restart=best,
        restarts=values.shape[0],
        n_seed_states=n,
        certified=certified,
        bound=None if bound is None else sign * bound,
    )


def _form_search(r, h, m, cfg, seed_states, score=np.asarray, sign=1.0) -> OracleResult:
    """Maximize <K(P), K(P) h> over pure P, the f and nu_2 searches."""
    seeds = _start_states(m, cfg.restarts, seed_states)
    found = _unital_bound(r, h, m) if seeds.shape[0] else None
    k = _coordinates(seeds)
    return _search(h[None], seeds, cfg, found, np.vecdot(k @ h, k), score, sign)


def extremize_self_fidelity(
    superop: np.ndarray,
    sense: str,
    cfg: OracleConfig | None = None,
    seed_states: Sequence[np.ndarray] | np.ndarray | None = None,
) -> OracleResult:
    """Search the extremum of Tr(P Lambda[P]) over pure inputs.

    ``sense`` is ``"max"`` or ``"min"``.  The returned value is the best
    over all restarts that ran; seeded candidates are searched first.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    cfg = cfg or OracleConfig()
    r, m = _checked_superop(superop)
    sgn = 1.0 if sense == "max" else -1.0
    return _form_search(r, 0.5 * sgn * (r + r.T), m, cfg, seed_states, sign=sgn)


def maximize_output_2norm(
    superop: np.ndarray,
    cfg: OracleConfig | None = None,
    seed_states: Sequence[np.ndarray] | np.ndarray | None = None,
) -> OracleResult:
    """Search the largest output 2-norm sqrt(Tr(Lambda[P]^2)) over pure inputs."""
    cfg = cfg or OracleConfig()
    r, m = _checked_superop(superop)
    h = r @ r.T  # Lambda^dagger Lambda
    return _form_search(r, h, m, cfg, seed_states, score=np.sqrt)


def maximize_output_inf_norm(
    superop: np.ndarray,
    cfg: OracleConfig | None = None,
    seed_states: Sequence[np.ndarray] | np.ndarray | None = None,
) -> OracleResult:
    """Search the largest Tr(Q Lambda[P]) over pure input/measurement pairs.

    The engine runs on the pairs (psi, phi)/sqrt(2) of C^(2m) (see the module
    docstring), each restart starting from its input and the top eigenvector
    of its output.  A seed's start value is the top eigenvalue of its output,
    so a search certified there lifts no pair and takes one eigh, for the
    reported seed's measurement.  The result's ``state`` is the input P and
    ``dual_state`` the measurement Q; on ties the earlier (seeded) pair is
    kept.
    """
    cfg = cfg or OracleConfig()
    r, m = _checked_superop(superop)
    seeds = _start_states(m, cfg.restarts, seed_states)
    found = _unital_bound(r, r @ r.T, m, pair=True) if seeds.shape[0] else None
    outs = _doubled_outputs(r, seeds)
    ops = 2.0 * np.stack([r.T, r])  # Lambda^dagger, then Lambda
    return _search(ops, seeds, cfg, found, 0.5 * np.linalg.eigvalsh(outs)[:, -1],
                   lift=lambda psi: _pair_starts(r, psi),
                   measure=lambda i: np.linalg.eigh(outs[i])[1][:, -1])


def eigenrelation_residual(ch: GeneralizedPauliChannel) -> float:
    """max over (a, k) of ||Lambda[U(a, k)] - lambda_a U(a, k)||_F, and of ||Lambda[I] - I||_F.

    Lambda is the superoperator the searches receive, ``superoperator_of(ch)``,
    applied to every column of :func:`~gpchannels.channel.eigen_columns`;
    the residual is zero up to roundoff for a consistent channel and family.
    """
    d = ch.d
    x = eigen_columns(ch.fam)
    scale = np.concatenate([[1.0], np.repeat(spectrum_of(ch).lambdas, d - 1)])
    diff = superoperator_of(ch) @ x - x * scale
    return float(np.max(np.linalg.norm(diff, axis=0)))


# ---------------------------------------------------------------------------
# complete-positivity equivalence scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumGrid:
    """Sampling plan for the inequality-vs-Choi equivalence scan."""

    n_random: int = 10_000
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class ScanReport:
    n_total: int
    n_cptp: int
    n_disagreements: int
    worst_boundary_choi_eig: float

    @property
    def passed(self) -> bool:
        return self.n_disagreements == 0


def _grid_spectra(d: int, grid: SpectrumGrid) -> np.ndarray:
    lower_const = -1.0 / (d * d - 1)  # constant spectrum with lower slack 0
    axis = np.zeros(d + 1)
    axis[0] = 1.0
    # identity (upper slack 0), lower slack 0, one preserved axis (upper slack 0), interior
    boundary = np.vstack([np.ones(d + 1), np.full(d + 1, lower_const), axis, 0 * axis])
    over_axis = np.zeros(d + 1)
    over_axis[0] = 1.0 + 1e-3
    bumped = np.ones(d + 1)
    bumped[-1] = 1.0 + 1e-3
    violations = [
        np.full(d + 1, lower_const - 1e-3),          # just past the lower bound
        over_axis,                                   # just past the upper bound
        np.full(d + 1, -1.0),                        # gross lower violation
        bumped,                                      # gross upper violation
    ]
    if d == 3:
        violations.append(np.array([0.5, 0.2, -0.1, 0.3]))  # upper bound off by 0.2
    fixed = np.vstack([boundary, *violations])
    n = grid.n_random + fixed.shape[0]
    if n > MAX_SCAN_POINTS:  # before the random block is drawn
        raise TooLargeError(f"scan grid of {n} points exceeds {MAX_SCAN_POINTS}")
    rng = np.random.default_rng(grid.seed)
    return np.vstack([rng.uniform(-1.0, 1.0, size=(grid.n_random, d + 1)), fixed])


def cptp_equivalence_scan(
    d: int,
    grid: SpectrumGrid | None = None,
    tol: float = 1e-10,
) -> ScanReport:
    """Compare the spectrum inequalities against the Choi positivity test.

    For every sampled spectrum both routes are evaluated at the same
    tolerance; the report counts the disagreements (expected: none) and the
    worst Choi eigenvalue magnitude among points sitting on the inequality
    boundary.
    """
    grid = grid or SpectrumGrid()
    fam = build_mub_family(d)
    spectra = _grid_spectra(d, grid)
    n = spectra.shape[0]

    lower, upper = fa_slacks(spectra)
    fa_pass = (lower >= -tol) & (upper >= -tol)

    min_eigs = np.empty(n)
    chunk = max(1, min(2048, (1 << 22) // (d**4)))
    for start in range(0, n, chunk):
        js = choi_from_spectrum(fam, spectra[start : start + chunk])
        min_eigs[start : start + chunk] = np.linalg.eigvalsh(js)[:, 0]
    psd_pass = min_eigs >= -tol

    disagree = fa_pass != psd_pass
    boundary = np.minimum(np.abs(lower), np.abs(upper)) <= tol
    worst_boundary = float(np.max(np.abs(min_eigs[boundary]))) if boundary.any() else 0.0
    return ScanReport(
        n_total=n,
        n_cptp=int(np.count_nonzero(fa_pass)),
        n_disagreements=int(np.count_nonzero(disagree)),
        worst_boundary_choi_eig=worst_boundary,
    )


# ---------------------------------------------------------------------------
# tensor-power multiplicativity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Tensor-power fidelity search against the product-state baseline.

    ``estimate`` is a valid lower bound on the tensor power's maximal
    fidelity (product candidates are seeded, so it is also
    >= baseline up to search noise).  ``excess`` > 0 would mean entangled
    inputs beat products; in the open regime this is recorded, never
    judged.
    """

    n: int
    estimate: float
    baseline: float
    excess: float
    regime: str  # "factorizing" or "open"
    result: OracleResult


def tensor_fidelity_probe(
    ch: GeneralizedPauliChannel,
    n: int,
    cfg: OracleConfig | None = None,
) -> ProbeReport:
    """Search f_max of the n-fold tensor power and compare to f_max^n."""
    cfg = cfg or OracleConfig(restarts=TENSOR_RESTARTS)
    m = ch.d**n  # both caps trip before the power and its product seeds are built
    check_oracle_dim(m)
    _check_start_count(max(cfg.restarts, len(ch.fam.all_vectors()) ** n), m)
    superop_n = tensor_power(ch, n)
    seeds = product_seed_states(ch.fam, n)
    result = extremize_self_fidelity(superop_n, "max", cfg, seed_states=seeds)
    fig = fidelity_report(ch)
    baseline = float(fig.f_max) ** n
    regime = "factorizing" if fig.fmax_multiplicative else "open"
    return ProbeReport(
        n=n,
        estimate=result.value,
        baseline=baseline,
        excess=result.value - baseline,
        regime=regime,
        result=result,
    )
