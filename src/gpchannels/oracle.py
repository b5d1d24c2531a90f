"""Brute-force verification oracles, independent of the closed forms.

Three searches run over pure-state manifolds using only the channel's
superoperator matrix S:

* ``extremize_self_fidelity`` and ``maximize_output_2norm`` share one
  shifted power ascent (SS-HOPM, Kolda & Mayo, SIAM J. Matrix Anal. Appl.
  2011) of the quartic form <vec P, H vec P> over P = |psi><psi|.  The
  fidelity uses H = +/-(S + S^dagger)/2, whose form equals Tr(P Lambda[P])
  even for a superoperator that is not self-adjoint; the output 2-norm uses
  H = S^dagger S, since Tr(Lambda[P]^2) = <vec P, S^dagger S vec P>, and
  reports the square root.  Each sweep moves every restart to
  normalize(Lambda_H[P] psi + c psi) and keeps the move only if it strictly
  improves, so every restart's value is nondecreasing.  An accepted move
  shrinks the restart's shift c by SHIFT_DECAY down to a floor, and the
  restart stops once a move gains no more than the value tolerance.  A
  rejected move doubles c, and the restart stops instead if the rejected
  candidate lies within the step tolerance of its state up to phase (a
  fixed point, such as a seeded optimum).
* ``maximize_output_inf_norm``: alternating ascent of Tr(Q Lambda[P]) over
  pure inputs P and measurements Q.  For a fixed input the optimal
  measurement is the top eigenvector of Lambda[P]; for a fixed measurement
  the optimal input is the top eigenvector of Lambda^dagger[Q], the adjoint
  map whose superoperator is S^dagger, so S need not be self-adjoint.  A
  restart first takes shifted power steps toward these eigenvectors,
  phi <- normalize(Lambda[P] phi + c phi) for the measurement and then
  psi <- normalize(Lambda^dagger[Q] psi + c psi) for the input, two of
  each per sweep, with the accept-if-improves rule and shift schedule
  above (the shift starts at its floor).  Once such a sweep gains no more
  than the value tolerance, the restart switches for good to exact sweeps,
  which take both eigenvectors by ``eigh``, and stops when neither exact
  half-step gains more than the value tolerance, so every stopped restart
  is certified by exact eigenvectors.  The objective is nondecreasing
  across half-steps.

Both ascents run on the same restart loop (per-restart active mask, sweep
counts, history rows) and report through the same result builder.

Restart seeding always includes the supplied candidate states (basis
vectors, or their tensor products for tensor-power probes) ahead of Haar
draws, so conjectured optima are starting points and the search's job is
to confirm nothing beats them.  Each Haar restart draws from a generator
spawned from the master seed and the restart's global index, making
results independent of batching or worker count.  On ties within the
value tolerance the earliest restart wins, so seeded optima are reported
verbatim.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    GeneralizedPauliChannel,
    apply_channel,
    choi_from_spectrum,
    spectrum_of,
    tensor_power,
)
from .errors import TooLargeError
from .metrics import spectral_figures
from .mub import MubFamily, build_mub_family

#: default restart counts (single-copy searches, tensor-power probes)
SINGLE_RESTARTS = 256
TENSOR_RESTARTS = 2048
#: hard cap on the state dimension an oracle will search over
MAX_ORACLE_DIM = 64
#: hard cap on spectra per equivalence scan
MAX_SCAN_POINTS = 100_000
#: shift schedule of the power ascent, relative to ||H||_2
SHIFT_FLOOR = 1e-3
SHIFT_DECAY = 0.7

DEFAULT_SEED = 2026


@dataclass(frozen=True)
class OracleConfig:
    """Search budget and reproducibility stamp for one oracle run."""

    restarts: int = SINGLE_RESTARTS
    max_iters: int = 500
    #: fixed-point test of the power ascent: a rejected candidate this close
    #: to the current state (up to phase) ends the restart
    step_tol: float = 1e-9
    value_tol: float = 1e-10
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step_tol <= 0 or self.value_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class OracleResult:
    """Best value found, the state(s) attaining it, and per-restart summaries.

    ``value`` is the extremal value over all restarts; ``state`` comes from
    the earliest restart within ``value_tol`` of it (seeded candidates come
    first), and ``restart_values`` holds each restart's final objective.
    ``history`` holds the starting row plus one row per sweep; column r
    follows restart r and only improves.  The (seed, restarts) stamp plus
    the same inputs replays the result bit-identically regardless of how
    restarts are scheduled.
    """

    value: float
    state: np.ndarray
    dual_state: np.ndarray | None
    restart_values: np.ndarray
    restart_iterations: np.ndarray
    history: np.ndarray
    best_restart: int
    seed: int
    restarts: int
    n_seed_states: int

    def __post_init__(self):
        for name in ("state", "restart_values", "restart_iterations", "history"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.dual_state is not None:
            dual = np.asarray(self.dual_state)
            dual.setflags(write=False)
            object.__setattr__(self, "dual_state", dual)


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unit vector (normalized complex-normal components)."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


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


def _checked_superop(superop: np.ndarray) -> tuple[np.ndarray, int]:
    """The superoperator as a complex array, and its state dimension (capped)."""
    superop = np.asarray(superop, dtype=complex)
    if superop.ndim != 2 or superop.shape[0] != superop.shape[1]:
        raise ValueError(f"superoperator must be square, got {superop.shape}")
    m = int(round(np.sqrt(superop.shape[0])))
    if m * m != superop.shape[0]:
        raise ValueError(f"superoperator side {superop.shape[0]} is not a perfect square")
    if m > MAX_ORACLE_DIM:
        raise TooLargeError(f"state dimension {m} exceeds oracle cap {MAX_ORACLE_DIM}")
    return superop, m


@functools.lru_cache(maxsize=8)
def _haar_block(dim: int, seed: int, first: int, count: int) -> np.ndarray:
    """Read-only Haar starts for global restart indices first..first+count-1."""
    block = np.empty((count, dim), dtype=complex)
    for i in range(count):
        # generator keyed by the global restart index: worker-count independent
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(first + i,)))
        block[i] = random_pure_state(dim, rng)
    block.setflags(write=False)
    return block


def _start_states(dim: int, cfg: OracleConfig, seed_states) -> tuple[np.ndarray, int]:
    if seed_states is None:
        seeds = np.zeros((0, dim), dtype=complex)
    else:
        seeds = np.asarray(seed_states, dtype=complex).reshape(-1, dim)
        seeds = seeds / np.linalg.norm(seeds, axis=1, keepdims=True)
    n_haar = max(cfg.restarts - seeds.shape[0], 0)
    haar = _haar_block(dim, cfg.seed, seeds.shape[0], n_haar)
    return np.concatenate([seeds, haar], axis=0), seeds.shape[0]


def _output_batch(superop_t: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Lambda[|psi><psi|] for a batch of unit vectors; returns (B, m, m)."""
    b, m = psi.shape
    v = np.einsum("bj,bi->bji", psi.conj(), psi).reshape(b, m * m)
    w = v @ superop_t
    return w.reshape(b, m, m).transpose(0, 2, 1)


def _run_restarts(sweep, values: np.ndarray, cfg: OracleConfig):
    """The restart loop shared by both ascents.

    ``sweep(active)`` advances the active restarts by one sweep, updating
    ``values`` in place, and returns a mask of those that continue.
    Returns per-restart sweep counts and the history of ``values``.
    """
    r = values.shape[0]
    iters = np.zeros(r, dtype=np.int64)
    history = [values.copy()]
    active = np.arange(r)
    for _ in range(cfg.max_iters):
        if active.size == 0:
            break
        keep = sweep(active)
        iters[active] += 1
        history.append(values.copy())
        active = active[keep]
    return iters, np.asarray(history)


def _power_ascent(h: np.ndarray, starts: np.ndarray, cfg: OracleConfig):
    """Batched shifted power ascent of <vec P, H vec P>, P = |psi><psi|, H Hermitian.

    The part of H along |vec I><vec I| adds the constant Tr(P)^2 = 1 to the
    form and acts as a built-in shift of Lambda_H[P] psi; a positive part
    is taken out (and its constant added back to the values) so that the
    adaptive shift alone sets the step length.  Returns the final states,
    their values, sweep counts and history.
    """
    m = starts.shape[1]
    vec_i = np.eye(m).reshape(-1)
    kappa = max(float((vec_i @ h @ vec_i).real) / m**2, 0.0)
    h = h - kappa * np.outer(vec_i, vec_i)
    h_t = np.ascontiguousarray(h.T)
    scale = float(np.linalg.norm(h, 2)) or 1.0

    def evaluate(psi):
        # Lambda_H[P] psi is the ascent direction; <psi, Lambda_H[P] psi> the value
        grad = (_output_batch(h_t, psi) @ psi[:, :, None])[:, :, 0]
        return np.einsum("bi,bi->b", psi.conj(), grad).real, grad

    psi = starts
    f, grad = evaluate(psi)
    shift = np.full(psi.shape[0], scale)

    def sweep(active):
        cur = psi[active]
        cand = grad[active] + shift[active, None] * cur
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        fc, gc = evaluate(cand)
        gain = fc - f[active]
        up = gain > 0
        rows = active[up]
        psi[rows] = cand[up]
        f[rows] = fc[up]
        grad[rows] = gc[up]
        shift[rows] = np.maximum(SHIFT_DECAY * shift[rows], SHIFT_FLOOR * scale)
        shift[active[~up]] *= 2.0
        # distance between candidate and current state, minimized over phase
        overlap = np.einsum("bi,bi->b", cur.conj(), cand)
        phase = np.exp(1j * np.angle(overlap))
        moved = np.linalg.norm(cand - phase[:, None] * cur, axis=1)
        return np.where(up, gain > cfg.value_tol, moved >= cfg.step_tol)

    iters, history = _run_restarts(sweep, f, cfg)
    return psi, f + kappa, iters, history + kappa


def _select_best(values: np.ndarray, value_tol: float) -> int:
    """Earliest restart within tolerance of the best value."""
    vmax = float(np.max(values))
    return int(np.nonzero(values >= vmax - value_tol)[0][0])


def _result(score, states, iters, history, n_seeds, cfg, sign=1.0, dual_states=None):
    """OracleResult from per-restart scores (larger is better), reported as sign * score."""
    best = _select_best(score, cfg.value_tol)
    return OracleResult(
        value=sign * float(np.max(score)),
        state=states[best],
        dual_state=None if dual_states is None else dual_states[best],
        restart_values=sign * score,
        restart_iterations=iters,
        history=sign * history,
        best_restart=best,
        seed=cfg.seed,
        restarts=score.shape[0],
        n_seed_states=n_seeds,
    )


def extremize_self_fidelity(
    superop: np.ndarray,
    sense: str,
    cfg: OracleConfig | None = None,
    seed_states: Sequence[np.ndarray] | np.ndarray | None = None,
) -> OracleResult:
    """Search the extremum of Tr(P Lambda[P]) over pure inputs.

    ``sense`` is ``"max"`` or ``"min"``.  The returned value is the best
    over all restarts; seeded candidates are searched first.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    cfg = cfg or OracleConfig()
    superop, m = _checked_superop(superop)
    sgn = 1.0 if sense == "max" else -1.0
    starts, n_seeds = _start_states(m, cfg, seed_states)
    psi, g, iters, hist = _power_ascent(0.5 * sgn * (superop + superop.conj().T), starts, cfg)
    return _result(g, psi, iters, hist, n_seeds, cfg, sign=sgn)


def maximize_output_2norm(
    superop: np.ndarray,
    cfg: OracleConfig | None = None,
    seed_states: Sequence[np.ndarray] | np.ndarray | None = None,
) -> OracleResult:
    """Search the largest output 2-norm sqrt(Tr(Lambda[P]^2)) over pure inputs."""
    cfg = cfg or OracleConfig()
    superop, m = _checked_superop(superop)
    starts, n_seeds = _start_states(m, cfg, seed_states)
    psi, g, iters, hist = _power_ascent(superop.conj().T @ superop, starts, cfg)
    return _result(np.sqrt(g), psi, iters, np.sqrt(hist), n_seeds, cfg)


def maximize_output_inf_norm(
    superop: np.ndarray,
    cfg: OracleConfig | None = None,
    seed_states: Sequence[np.ndarray] | np.ndarray | None = None,
) -> OracleResult:
    """Alternating ascent of Tr(Q Lambda[P]) over pure input/measurement pairs.

    For a fixed input P the best measurement Q is the top eigenvector of
    Lambda[P]; for a fixed Q the best P is the top eigenvector of
    Lambda^dagger[Q], the adjoint map whose superoperator is S^dagger.
    Each restart starts from its input and the top eigenvector of its
    output.  A power sweep moves Q, then P, by two shifted power steps
    toward those eigenvectors, each kept only if it strictly improves.  Once
    a power sweep gains no more than ``value_tol`` the restart switches for
    good to exact sweeps, which take both eigenvectors by ``eigh``, and it
    stops when neither exact half-step gains more than ``value_tol``.  The
    shift starts at its floor: for a positive map Lambda[P] and
    Lambda^dagger[Q] are positive semidefinite, where unshifted power steps
    already ascend, and a rejected step doubles it.  The result's ``state``
    is the input P and ``dual_state`` the measurement Q; on ties the
    earlier (seeded) pair is kept.
    """
    cfg = cfg or OracleConfig()
    superop, m = _checked_superop(superop)
    fwd_t = np.ascontiguousarray(superop.T)  # Lambda, as _output_batch takes it
    adj_t = np.ascontiguousarray(superop.conj())  # Lambda^dagger: (S^dagger)^T
    floor = SHIFT_FLOOR * (float(np.linalg.norm(superop, 2)) or 1.0)
    best_p, n_seeds = _start_states(m, cfg, seed_states)
    w, v = np.linalg.eigh(_output_batch(fwd_t, best_p))
    best_val = w[:, -1].copy()
    best_q = v[:, :, -1].copy()
    p = np.empty_like(best_p)  # where the next exact sweep starts, set on the switch
    shift = np.full(best_p.shape[0], floor)
    exact = np.zeros(best_p.shape[0], dtype=bool)

    def power_half_step(rows, x, fixed, op_t):
        # two shifted power steps of x[rows] toward the top eigenvector of op[fixed[rows]]
        a = _output_batch(op_t, fixed[rows])
        cur, f, c = x[rows], best_val[rows], shift[rows]
        grad = np.einsum("bij,bj->bi", a, cur)
        for _ in range(2):
            cand = grad + c[:, None] * cur
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            gc = np.einsum("bij,bj->bi", a, cand)
            fc = np.einsum("bi,bi->b", cand.conj(), gc).real
            up = fc > f
            cur = np.where(up[:, None], cand, cur)
            grad = np.where(up[:, None], gc, grad)
            f = np.where(up, fc, f)
            c = np.where(up, np.maximum(SHIFT_DECAY * c, floor), 2.0 * c)
        x[rows], best_val[rows], shift[rows] = cur, f, c

    def power_sweep(rows):
        before = best_val[rows]
        power_half_step(rows, best_q, best_p, fwd_t)
        power_half_step(rows, best_p, best_q, adj_t)
        done = rows[best_val[rows] - before <= cfg.value_tol]
        exact[done] = True
        p[done] = best_p[done]

    def exact_sweep(active):
        w, v = np.linalg.eigh(_output_batch(fwd_t, p[active]))
        val1 = w[:, -1]
        q = v[:, :, -1]
        w2, v2 = np.linalg.eigh(_output_batch(adj_t, q))
        val2 = w2[:, -1]
        p2 = v2[:, :, -1]

        imp1 = val1 > best_val[active] + cfg.value_tol
        rows = active[imp1]
        best_val[rows] = val1[imp1]
        best_p[rows] = p[rows]
        best_q[rows] = q[imp1]
        imp2 = val2 > best_val[active] + cfg.value_tol
        rows2 = active[imp2]
        best_val[rows2] = val2[imp2]
        best_p[rows2] = p2[imp2]
        best_q[rows2] = q[imp2]
        p[active] = p2
        return imp1 | imp2

    def sweep(active):
        keep = np.ones(active.size, dtype=bool)
        polish = exact[active]
        if polish.any():
            keep[polish] = exact_sweep(active[polish])
        if not polish.all():
            power_sweep(active[~polish])
        return keep

    iters, history = _run_restarts(sweep, best_val, cfg)
    return _result(best_val, best_p, iters, history, n_seeds, cfg, dual_states=best_q)


def eigenrelation_residual(ch: GeneralizedPauliChannel, lambdas=None) -> float:
    """max over (a, k) of ||Lambda[U(a, k)] - lambda_a U(a, k)||_F.

    Passing ``lambdas`` overrides the channel's own spectrum (fault
    injection and detection tests).
    """
    lam = spectrum_of(ch).lambdas if lambdas is None else np.asarray(lambdas, dtype=float)
    us = ch.fam.unitaries()
    worst = 0.0
    for a in range(ch.d + 1):
        for k in range(ch.d - 1):
            diff = apply_channel(ch, us[a, k]) - lam[a] * us[a, k]
            worst = max(worst, float(np.linalg.norm(diff)))
    return worst


# ---------------------------------------------------------------------------
# complete-positivity equivalence scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumGrid:
    """Sampling plan for the inequality-vs-Choi equivalence scan."""

    n_random: int = 10_000
    seed: int = DEFAULT_SEED
    include_boundary: bool = True
    include_violations: bool = True


@dataclass(frozen=True)
class ScanReport:
    d: int
    n_total: int
    n_cptp: int
    n_disagreements: int
    disagreements: tuple
    worst_boundary_choi_eig: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.n_disagreements == 0


def _grid_spectra(d: int, grid: SpectrumGrid) -> np.ndarray:
    rng = np.random.default_rng(grid.seed)
    blocks = [rng.uniform(-1.0, 1.0, size=(grid.n_random, d + 1))]
    lower_const = -1.0 / (d * d - 1)  # constant spectrum with lower slack 0
    if grid.include_boundary:
        axis = np.zeros(d + 1)
        axis[0] = 1.0
        blocks.append(
            np.vstack(
                [
                    np.ones(d + 1),                      # identity: upper slack 0
                    np.full(d + 1, lower_const),         # lower slack 0
                    axis,                                # one preserved axis: upper slack 0
                    np.zeros(d + 1),                     # interior point
                ]
            )
        )
    if grid.include_violations:
        over_axis = np.zeros(d + 1)
        over_axis[0] = 1.0 + 1e-3
        bumped = np.ones(d + 1)
        bumped[-1] = 1.0 + 1e-3
        rows = [
            np.full(d + 1, lower_const - 1e-3),          # just past the lower bound
            over_axis,                                   # just past the upper bound
            np.full(d + 1, -1.0),                        # gross lower violation
            bumped,                                      # gross upper violation
        ]
        if d == 3:
            rows.append(np.array([0.5, 0.2, -0.1, 0.3]))  # upper bound off by 0.2
        blocks.append(np.vstack(rows))
    spectra = np.vstack(blocks)
    if spectra.shape[0] > MAX_SCAN_POINTS:
        raise TooLargeError(f"scan grid of {spectra.shape[0]} points exceeds {MAX_SCAN_POINTS}")
    return spectra


def cptp_equivalence_scan(
    d: int,
    grid: SpectrumGrid | None = None,
    fam: MubFamily | None = None,
    tol: float = 1e-10,
) -> ScanReport:
    """Compare the spectrum inequalities against the Choi positivity test.

    For every sampled spectrum both routes are evaluated at the same
    tolerance; the report lists any disagreements (expected: none) and the
    worst Choi eigenvalue magnitude among points sitting on the inequality
    boundary.
    """
    grid = grid or SpectrumGrid()
    fam = fam or build_mub_family(d)
    spectra = _grid_spectra(d, grid)
    n = spectra.shape[0]

    fig = spectral_figures(spectra)
    lower, upper = fig.fa_lower_slack, fig.fa_upper_slack
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
    offending = tuple(tuple(row) for row in spectra[disagree][:20])
    return ScanReport(
        d=d,
        n_total=n,
        n_cptp=int(np.count_nonzero(fa_pass)),
        n_disagreements=int(np.count_nonzero(disagree)),
        disagreements=offending,
        worst_boundary_choi_eig=worst_boundary,
        tol=tol,
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

    d: int
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
    superop_n = tensor_power(ch, n)
    seeds = product_seed_states(ch.fam, n)
    result = extremize_self_fidelity(superop_n, "max", cfg, seed_states=seeds)
    fig = spectral_figures(spectrum_of(ch).lambdas)
    baseline = float(fig.f_max) ** n
    regime = "factorizing" if fig.fmax_multiplicative else "open"
    return ProbeReport(
        d=ch.d,
        n=n,
        estimate=result.value,
        baseline=baseline,
        excess=result.value - baseline,
        regime=regime,
        result=result,
    )
