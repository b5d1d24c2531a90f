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
  measurement block, so it needs only S and S^dagger.

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

The seeds climb first, and the restart budget is a ceiling: a search whose
best seed meets an upper bound read off R alone is ``certified`` and never
draws its Haar starts.  Let u = K(vec I)/sqrt(m).  When u R = u and R u = u
to HP_TOL max|R| (Lambda is unital and trace preserving), a pure P has
<K(P), u> = Tr P/sqrt(m) and ||K(P)|| = ||P||_F = 1, so K(P) = u/sqrt(m) + p
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
columns of the Householder reflector taking e_0 to -u; the compression
(I - u u^T) H (I - u u^T) would add an eigenvalue 0 on u, which exceeds
lambda_max whenever every eigenvalue on u^perp is negative.  The bound is
tried only when the search has both seeds and Haar starts, and costs one
eigvalsh of side m^2 - 1.  No closed form and no family enters it.

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
    ``restart_iterations`` its sweeps, for the ``restarts`` rows that ran.
    ``bound`` is the S-only bound of the module docstring in the units of
    ``value`` (a lower bound for a minimum), or None where it was not tried
    or the map is not unital and trace preserving; ``certified`` says the
    best seed met it within VALUE_TOL, so no Haar start ran.  The same
    config and inputs replay the result bit-identically.
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


def _start_states(dim: int, cfg: OracleConfig, seed_states, lift=lambda psi: psi[None]):
    """The engine's seeded starts, and a function drawing its Haar starts (None if none run).

    ``lift`` maps unit rows of C^dim to the engine's (k, rows, m) starts.  The
    restart cap is checked before anything is drawn.
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
    _check_start_count(max(cfg.restarts, seeds.shape[0]), dim)  # before any Haar start is drawn
    n_haar = max(cfg.restarts - seeds.shape[0], 0)

    def haar():
        return lift(random_pure_state(dim, np.random.default_rng(cfg.seed), n_haar))

    return lift(seeds), haar if n_haar else None


def _unital_bound(r: np.ndarray, h: np.ndarray, m: int, root: bool = False) -> float | None:
    """The bound of the module docstring on <k, h k> (root: on the inf-norm pair value).

    None unless R fixes u = K(vec I)/sqrt(m) from both sides to HP_TOL max|R|.
    """
    u = np.eye(m).reshape(-1) / np.sqrt(m)
    if max(np.linalg.norm(u @ r - u), np.linalg.norm(r @ u - u)) > HP_TOL * np.max(np.abs(r)):
        return None
    w = u.copy()
    w[0] += 1.0  # I - w w^T / w[0] reflects e_0 to -u; u[0] > 0, so no cancellation
    perp = np.eye(m * m)[:, 1:] - np.outer(w, w[1:] / w[0])  # orthonormal basis of u^perp
    top = float(np.linalg.eigvalsh(perp.T @ h @ perp)[-1])
    if root:
        top = np.sqrt(max(top, 0.0))
    return float(u @ h @ u) / m + (1.0 - 1.0 / m) * top


def _pair_starts(r: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Inf-norm starts (psi, phi)/sqrt(2), phi the top eigenvector of Lambda[psi psi^dagger]."""
    m = psi.shape[1]
    proj = psi[:, :, None] * psi.conj()[:, None, :]
    out = ((proj.real + proj.imag).reshape(-1, m * m) @ r).reshape(-1, m, m)  # K(Lambda[P])
    phi = np.linalg.eigh(out + out.mT + 1j * (out - out.mT))[1][:, :, -1]  # of 2 Lambda[P]
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


def _ascent(ops: np.ndarray, seeds: np.ndarray, haar, scale: float, cfg: OracleConfig,
            score=np.asarray, bound=None):
    """The ascent engine: maximize f(x) = <x, Lambda_H[x x^dagger] x> from each start.

    ``seeds`` (k, n, m) holds n unit vectors of C^(k m) in k blocks, and
    ``haar`` is None or returns the Haar starts in the same layout.
    Lambda_H is block diagonal: ``ops[j]`` is the real matrix of block j in
    the coordinates K of the module docstring, K(vec P) @ ops[j] for the
    row-major vec P of block k-1-j (the same block when k = 1), as built from
    ``_checked_superop``'s R.  The engine keeps projectors and their images
    in K.  ``scale`` is ||H||_2; ``score`` maps values to what
    ``_select_best`` ranks.  The seeds climb first; where Haar starts would
    follow, ``bound()`` (a value bound, or None) is tried, and a best seed
    within VALUE_TOL of it skips them.  Returns states, values, sweeps, the
    index of the restart to report, the scored bound tried (or None) and
    whether it certified.
    """
    k, n, m = seeds.shape
    tight, loose = (CERT_TOL * scale) ** 2, (LOOSE_CERT_TOL * scale) ** 2
    cycle = 2 * k * m - 2  # real dimension of the projective space: CG resets after it
    states, values = np.array(seeds, dtype=complex), np.full(n, -np.inf)
    iters, settled = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)  # settled: no loose stop

    def apply(w, out):
        # out <- K(Lambda_H[w w^dagger]) for w of shape (n, k, b, m); returns the K(w w^dagger)
        ws = w[:, ::-1]
        proj = ws[..., :, None] * ws.conj()[..., None, :]
        proj = (proj.real + proj.imag).reshape(*w.shape[:3], m * m)
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

    def climb(idx, patient):
        # run restarts idx from their states; a patient climb makes no loose stop
        x = states[:, idx]
        g = np.empty((3, k, idx.size, m * m))  # K(Lambda_H[P]), then line-search images
        apply(x[None], g[:1])
        gx = times(g[0], x)
        f = np.maximum(np.vecdot(x, gx).real.sum(0), values[idx])  # a resumed value never drops
        values[idx] = f
        grad = gx - f[:, None] * x  # the Riemannian gradient, up to a factor 2
        gg = np.vecdot(grad, grad).real.sum(0)
        memory = np.zeros((2,) + x.shape, dtype=complex)  # previous direction and gradient
        gg_prev, low, last_low = np.ones(idx.size), gg.copy(), np.full(idx.size, np.inf)
        age = np.full(idx.size, cycle)  # accepted steps since steepest ascent (cycle: reset)
        stall = np.zeros(idx.size, dtype=np.int64)  # reset cycles that did not halve |grad|
        stop = final = gg <= tight
        budget = cfg.max_iters - int(iters[idx].max())
        iters[idx[stop]] = 1  # a certified start spends one sweep, without moving

        for _ in range(budget):
            if stop.any():  # drop the restarts that stopped
                states[:, idx[stop]], settled[idx[stop]] = x[:, stop], final[stop]
                keep = ~stop
                idx, x = idx[keep], x[:, keep]
                if idx.size == 0:
                    return
                g, old = np.empty((3, k, idx.size, m * m)), g
                np.compress(keep, old[0], axis=1, out=g[0])
                gx, grad, memory = gx[:, keep], grad[:, keep], memory[:, :, keep]
                f, gg, gg_prev, low, last_low, age, stall, stop = (
                    a[keep] for a in (f, gg, gg_prev, low, last_low, age, stall, stop))
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

            # exact line search along the geodesic x cos t + u sin t
            un = u / norm[:, None]
            proj = apply(np.stack([un, x + un]), g[1:])
            dots = np.empty((idx.size, 6))
            dots[:, 0] = f
            dots[:, 1:] = np.vecdot(proj[:, None], g).sum(2).reshape(6, -1)[[3, 0, 1, 2, 5]].T
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
            values[idx] = f
            # certified; steepest ascent gains nothing; stalled; or a loose stop
            final = (gg <= tight) | (steepest > up) | (stall >= STALL_CYCLES)
            stop = final if patient else final | (up & (gain <= VALUE_TOL) & (gg <= loose))
        states[:, idx] = x

    top, certified = None, False
    if n:
        climb(np.arange(n), False)
        if haar is not None and bound is not None:
            top = bound()
            top = None if top is None else float(score(top))
            certified = top is not None and bool(np.max(score(values)) >= top - VALUE_TOL)
    if haar is not None and not certified:
        more = haar()
        h = more.shape[1]
        states = np.concatenate([states, more], axis=1)
        values = np.concatenate([values, np.full(h, -np.inf)])
        iters = np.concatenate([iters, np.zeros(h, dtype=np.int64)])
        settled = np.concatenate([settled, np.zeros(h, dtype=bool)])
        climb(np.arange(n, n + h), False)
    # the restart that is reported carries the certificate: resume it after a loose stop;
    # that only raises its value, so it stays the earliest within VALUE_TOL of the best
    best = _select_best(score(values))
    if not settled[best] and iters[best] < cfg.max_iters:
        climb(np.array([best]), True)
    return states, values, iters, best, top, certified


def _norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) or 1.0


def _select_best(values: np.ndarray) -> int:
    """Earliest restart within VALUE_TOL of the best value."""
    return int(np.nonzero(values >= np.max(values) - VALUE_TOL)[0][0])


def _result(score, states, run, n_seeds, sign=1.0, dual_states=None):
    """OracleResult from per-restart scores (larger is better), reported as sign * score.

    ``run`` is the engine's (sweeps, reported restart, scored bound, certified).
    """
    iters, best, top, certified = run
    return OracleResult(
        value=sign * float(np.max(score)),
        state=states[best],
        dual_state=None if dual_states is None else dual_states[best],
        restart_values=sign * score,
        restart_iterations=iters,
        best_restart=best,
        restarts=score.shape[0],
        n_seed_states=n_seeds,
        certified=certified,
        bound=None if top is None else sign * top,
    )


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
    seeds, haar = _start_states(m, cfg, seed_states)
    h = 0.5 * sgn * (r + r.T)
    psi, g, *run = _ascent(h[None], seeds, haar, _norm2(h), cfg,
                           bound=lambda: _unital_bound(r, h, m))
    return _result(g, psi[0], run, seeds.shape[1], sign=sgn)


def maximize_output_2norm(
    superop: np.ndarray,
    cfg: OracleConfig | None = None,
    seed_states: Sequence[np.ndarray] | np.ndarray | None = None,
) -> OracleResult:
    """Search the largest output 2-norm sqrt(Tr(Lambda[P]^2)) over pure inputs."""
    cfg = cfg or OracleConfig()
    r, m = _checked_superop(superop)
    seeds, haar = _start_states(m, cfg, seed_states)
    h = r @ r.T  # Lambda^dagger Lambda
    psi, g, *run = _ascent(h[None], seeds, haar, _norm2(h), cfg, score=np.sqrt,
                           bound=lambda: _unital_bound(r, h, m))
    return _result(np.sqrt(g), psi[0], run, seeds.shape[1])


def maximize_output_inf_norm(
    superop: np.ndarray,
    cfg: OracleConfig | None = None,
    seed_states: Sequence[np.ndarray] | np.ndarray | None = None,
) -> OracleResult:
    """Search the largest Tr(Q Lambda[P]) over pure input/measurement pairs.

    The engine runs on the pairs (psi, phi)/sqrt(2) of C^(2m) (see the module
    docstring), each restart starting from its input and the top eigenvector
    of its output.  The result's ``state`` is the input P and ``dual_state``
    the measurement Q; on ties the earlier (seeded) pair is kept.
    """
    cfg = cfg or OracleConfig()
    r, m = _checked_superop(superop)
    seeds, haar = _start_states(m, cfg, seed_states, lambda psi: _pair_starts(r, psi))
    ops = 2.0 * np.stack([r.T, r])  # Lambda^dagger, then Lambda
    x, g, *run = _ascent(ops, seeds, haar, 2.0 * _norm2(r), cfg,
                         bound=lambda: _unital_bound(r, r @ r.T, m, root=True))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    return _result(g, x[0], run, seeds.shape[1], dual_states=x[1])


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
