import numpy as np
import pytest

from gpchannels import (
    OracleConfig,
    SpectrumGrid,
    TooLargeError,
    channel_from_eigenvalues,
    cptp_equivalence_scan,
    depolarizing_channel,
    eigenrelation_residual,
    extremize_self_fidelity,
    fidelity_extremes,
    identity_channel,
    max_output_2norm,
    maximize_output_2norm,
    maximize_output_inf_norm,
    mub_seed_states,
    random_pure_state,
    spectrum_of,
    superoperator_of,
    tensor_fidelity_probe,
)
from gpchannels.cli import nearest_basis_index
from helpers import random_cptp_channel


def small_cfg(fam, extra=8, seed=7):
    return OracleConfig(restarts=fam.d * (fam.d + 1) + extra, seed=seed)


def test_random_pure_state_norm_and_determinism():
    rng = np.random.default_rng(123)
    psi = random_pure_state(5, rng)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    again = random_pure_state(5, np.random.default_rng(123))
    assert np.array_equal(psi, again)
    with pytest.raises(ValueError):
        random_pure_state(1, rng)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)
    with pytest.raises(ValueError):
        OracleConfig(step_tol=0.0)
    with pytest.raises(ValueError):
        OracleConfig(value_tol=-1e-9)


def test_random_pure_state_haar_first_moment():
    rng = np.random.default_rng(99)
    dim = 3
    z = rng.standard_normal((100_000, dim)) + 1j * rng.standard_normal((100_000, dim))
    psi = z / np.linalg.norm(z, axis=1, keepdims=True)
    w = np.abs(psi[:, 0]) ** 2
    se = w.std() / np.sqrt(w.size)
    assert abs(w.mean() - 1 / dim) <= 3 * se


def test_self_fidelity_identity(fam3):
    s = superoperator_of(identity_channel(3, fam3))
    res = extremize_self_fidelity(s, "max", OracleConfig(restarts=8, seed=1))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_self_fidelity_matches_closed_forms(fam3):
    ch = channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3)
    s = superoperator_of(ch)
    seeds = mub_seed_states(fam3)
    cfg = small_cfg(fam3)
    rmax = extremize_self_fidelity(s, "max", cfg, seeds)
    rmin = extremize_self_fidelity(s, "min", cfg, seeds)
    assert rmax.value == pytest.approx(0.6, abs=1e-6)
    assert rmin.value == pytest.approx(0.4, abs=1e-6)


def test_self_fidelity_bounds_respect_closed_forms(rng):
    # oracle never exceeds f_max (up to numerics) and reaches it from seeds
    for d in (2, 3):
        from gpchannels import build_mub_family

        fam = build_mub_family(d)
        seeds = mub_seed_states(fam)
        cfg = small_cfg(fam, seed=21)
        for _ in range(5):
            ch = random_cptp_channel(d, rng, fam)
            ext = fidelity_extremes(ch)
            s = superoperator_of(ch)
            vmax = extremize_self_fidelity(s, "max", cfg, seeds).value
            vmin = extremize_self_fidelity(s, "min", cfg, seeds).value
            assert vmax <= ext.f_max + 1e-9
            assert vmax >= ext.f_max - 1e-6
            assert vmin >= ext.f_min - 1e-9
            assert vmin <= ext.f_min + 1e-6


def test_sense_argument_validated(fam2):
    s = superoperator_of(identity_channel(2, fam2))
    with pytest.raises(ValueError):
        extremize_self_fidelity(s, "best")


def test_oracle_dimension_guard():
    with pytest.raises(TooLargeError):
        extremize_self_fidelity(np.eye(65**2), "max")


def test_nu2_oracle(fam2):
    assert maximize_output_2norm(
        superoperator_of(identity_channel(2, fam2)), OracleConfig(restarts=8, seed=3)
    ).value == pytest.approx(1.0, abs=1e-9)
    assert maximize_output_2norm(
        superoperator_of(depolarizing_channel(2, fam2)), OracleConfig(restarts=8, seed=3)
    ).value == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    ch = channel_from_eigenvalues(2, [0.6, 0.6, 0.6], fam2)
    res = maximize_output_2norm(superoperator_of(ch), OracleConfig(restarts=12, seed=3),
                                mub_seed_states(fam2))
    assert res.value == pytest.approx(np.sqrt(0.68), abs=1e-6)
    assert res.value == pytest.approx(max_output_2norm(ch), abs=1e-6)


def test_nu_inf_identity(fam2):
    res = maximize_output_inf_norm(
        superoperator_of(identity_channel(2, fam2)), OracleConfig(restarts=8, seed=5)
    )
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert abs(np.vdot(res.state, res.dual_state)) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_nu_inf_negative_branch_orthogonal_partners(fam2):
    ch = channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2)
    res = maximize_output_inf_norm(
        superoperator_of(ch), small_cfg(fam2), mub_seed_states(fam2)
    )
    assert res.value == pytest.approx(2 / 3, abs=1e-6)
    a_p, k_p, ov_p = nearest_basis_index(fam2, res.state)
    a_q, k_q, ov_q = nearest_basis_index(fam2, res.dual_state)
    assert ov_p >= 1 - 1e-9 and ov_q >= 1 - 1e-9
    assert a_p == a_q and k_p != k_q
    assert abs(np.vdot(res.state, res.dual_state)) ** 2 <= 1e-9


def test_nu_inf_positive_branch_equal_projectors(fam3):
    ch = channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3)
    res = maximize_output_inf_norm(
        superoperator_of(ch), small_cfg(fam3), mub_seed_states(fam3)
    )
    assert res.value == pytest.approx(0.6, abs=1e-6)
    a_p, k_p, ov_p = nearest_basis_index(fam3, res.state)
    assert ov_p >= 1 - 1e-9
    assert a_p == 0  # argmax eigenvalue lives on basis 0
    assert abs(np.vdot(res.state, res.dual_state)) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_nu_inf_ascent_monotone(fam3, rng):
    ch = random_cptp_channel(3, rng, fam3)
    res = maximize_output_inf_norm(
        superoperator_of(ch), OracleConfig(restarts=16, seed=2)
    )
    hist = res.history
    assert np.all(np.isfinite(hist))  # row 0 holds the starting pairs' values
    assert np.all(np.diff(hist, axis=0) >= -1e-12)


def _top_output_eigenvalue(superop, x):
    """Largest eigenvalue of the map with superoperator ``superop`` at |x><x|."""
    m = x.shape[0]
    out = superop @ np.outer(x, x.conj()).reshape(-1, order="F")
    return np.linalg.eigvalsh(out.reshape(m, m, order="F"))[-1]


def test_nu_inf_dual_step_uses_adjoint():
    # amplitude damping is not self-adjoint: the input half-step must take the
    # top eigenvector of Lambda^dagger[Q], or the pair drifts off its value
    gamma = 0.6
    kraus = [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]]),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
    ]
    s = sum(np.kron(k.conj(), k) for k in kraus)
    assert not np.allclose(s, s.conj().T)
    res = maximize_output_inf_norm(s, OracleConfig(restarts=16, seed=5))
    out = sum(k @ np.outer(res.state, res.state.conj()) @ k.conj().T for k in kraus)
    direct = np.real(res.dual_state.conj() @ out @ res.dual_state)
    assert direct == pytest.approx(res.value, abs=1e-12)
    # the alternating ascent converges only sublinearly toward |0><0| here
    assert res.value >= 1 - 1e-6


def test_nu_inf_stopped_pair_is_exact_fixed_point(fam3, rng):
    # a restart that stops before max_iters passed an exact sweep: neither
    # top eigenvector gains more than value_tol over the reported value
    rot = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    pauli = superoperator_of(random_cptp_channel(3, rng, fam3))
    pinned = superoperator_of(channel_from_eigenvalues(3, [0.187, 0.153, -0.341, -0.419], fam3))
    cases = [
        (pauli, mub_seed_states(fam3)),
        (pinned, mub_seed_states(fam3)),
        (0.5 * pauli + 0.5 * np.kron(rot.conj(), rot), None),  # not self-adjoint
    ]
    cfg = OracleConfig(restarts=28, seed=11)
    for s, seeds in cases:
        res = maximize_output_inf_norm(s, cfg, seeds)
        assert res.restart_iterations[res.best_restart] < cfg.max_iters
        assert _top_output_eigenvalue(s, res.state) <= res.value + cfg.value_tol
        assert _top_output_eigenvalue(s.conj().T, res.dual_state) <= res.value + cfg.value_tol


def test_nu_inf_value_on_pinned_counterexample(fam3):
    # regression guard on the search value beyond the closed form, with the
    # configuration of test_inf_norm_formula_beaten_outside_exact_regime
    ch = channel_from_eigenvalues(3, [0.187, 0.153, -0.341, -0.419], fam3)
    seeds = mub_seed_states(fam3)
    cfg = OracleConfig(restarts=seeds.shape[0] + 40, seed=3, max_iters=2000)
    res = maximize_output_inf_norm(superoperator_of(ch), cfg, seeds)
    assert res.value >= 0.5328641273733129 - 1e-8


def _searches(s, cfg, seeds=None):
    """(name, result, sign) for the three power-ascent searches; sign * value is maximized."""
    return [
        ("max", extremize_self_fidelity(s, "max", cfg, seeds), 1.0),
        ("min", extremize_self_fidelity(s, "min", cfg, seeds), -1.0),
        ("nu2", maximize_output_2norm(s, cfg, seeds), 1.0),
    ]


def test_power_ascent_histories_monotone(fam3, rng):
    # Haar starts only, so every restart actually climbs; rows never get worse
    s = superoperator_of(random_cptp_channel(3, rng, fam3))
    for name, res, sign in _searches(s, OracleConfig(restarts=16, seed=2)):
        hist = sign * res.history
        assert hist.shape == (res.restart_iterations.max() + 1, 16), name
        assert np.all(np.diff(hist, axis=0) >= 0.0), name
        assert np.array_equal(hist[-1], sign * res.restart_values), name


def test_returned_values_match_direct_evaluation(rng):
    # the winning restart's value is the objective at the returned state;
    # with the basis seeds that state attains the reported value itself
    from gpchannels import apply_channel, build_mub_family

    for d in (2, 3, 5):
        fam = build_mub_family(d)
        ch = random_cptp_channel(d, rng, fam, alpha=0.7)
        for seeds in (None, mub_seed_states(fam)):
            for name, res, sign in _searches(superoperator_of(ch), small_cfg(fam, seed=9), seeds):
                out = apply_channel(ch, np.outer(res.state, res.state.conj()))
                if name == "nu2":
                    direct = np.sqrt(np.trace(out @ out).real)
                else:
                    direct = np.real(res.state.conj() @ out @ res.state)
                own = res.restart_values[res.best_restart]
                assert own == pytest.approx(direct, abs=1e-12), (d, name)
                assert 0.0 <= sign * (res.value - own) <= OracleConfig().value_tol
                if seeds is not None:
                    assert res.value == pytest.approx(direct, abs=1e-12), (d, name)


def test_power_ascent_on_non_self_adjoint_superoperator():
    # conjugation by a fixed unitary: S = conj(U) (x) U is not self-adjoint, and
    # Tr(P U P U^dagger) = |<psi|U|psi>|^2 ranges over the numerical range of U
    rng = np.random.default_rng(17)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v, _ = np.linalg.qr(z)
    theta = np.array([0.0, 0.3, 0.5])
    u = v @ np.diag(np.exp(1j * theta)) @ v.conj().T
    s = np.kron(u.conj(), u)
    assert not np.allclose(s, s.conj().T)
    results = _searches(s, OracleConfig(restarts=32, seed=4))
    for name, res, _ in results:
        direct = 1.0 if name == "nu2" else abs(res.state.conj() @ u @ res.state) ** 2
        assert res.restart_values[res.best_restart] == pytest.approx(direct, abs=1e-12), name
    values = {name: res.value for name, res, _ in results}
    assert values["max"] == pytest.approx(1.0, abs=1e-9)  # any eigenvector of U
    # nearest point of the eigenvalue triangle to 0 lies on the widest chord
    assert values["min"] == pytest.approx(np.cos(0.25) ** 2, abs=1e-9)


def test_seeded_fixed_points_stop_after_one_sweep(fam3):
    # every basis vector is an exact fixed point of the ascent: its first
    # step moves less than step_tol, which ends the restart at once
    ch = channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3)
    seeds = mub_seed_states(fam3)
    for name, res, _ in _searches(superoperator_of(ch), small_cfg(fam3), seeds):
        assert np.all(res.restart_iterations[: res.n_seed_states] == 1), name
        assert res.best_restart < res.n_seed_states, name


def test_haar_starts_generated_once_and_read_only(fam2):
    from gpchannels.oracle import _haar_block, _start_states

    seeds = mub_seed_states(fam2)
    cfg = OracleConfig(restarts=12, seed=5)
    first, _ = _start_states(2, cfg, seeds)
    block = _haar_block(2, 5, seeds.shape[0], 12 - seeds.shape[0])
    assert block is _haar_block(2, 5, seeds.shape[0], 12 - seeds.shape[0])
    assert not block.flags.writeable
    first[:] = 0.0  # a caller's copy; the memoized block is untouched
    again, _ = _start_states(2, cfg, seeds)
    assert np.array_equal(again[seeds.shape[0]:], block)


def test_oracle_determinism(fam3, rng):
    ch = random_cptp_channel(3, rng, fam3)
    s = superoperator_of(ch)
    seeds = mub_seed_states(fam3)
    cfg = OracleConfig(restarts=20, seed=77)
    r1 = extremize_self_fidelity(s, "max", cfg, seeds)
    r2 = extremize_self_fidelity(s, "max", cfg, seeds)
    assert r1.value == r2.value
    assert np.array_equal(r1.state, r2.state)
    assert np.array_equal(r1.restart_values, r2.restart_values)
    assert np.array_equal(r1.history, r2.history)
    assert r1.best_restart == r2.best_restart
    n1 = maximize_output_inf_norm(s, cfg, seeds)
    n2 = maximize_output_inf_norm(s, cfg, seeds)
    assert n1.value == n2.value
    assert np.array_equal(n1.state, n2.state)
    assert np.array_equal(n1.dual_state, n2.dual_state)


def test_start_states_keyed_by_global_restart_index(fam2):
    # each Haar start depends only on (master seed, its global index), not on
    # how many restarts run together, so any scheduling reproduces the batch
    from gpchannels.oracle import _start_states

    seeds = mub_seed_states(fam2)
    full, n_seeds = _start_states(2, OracleConfig(restarts=12, seed=5), seeds)
    assert n_seeds == seeds.shape[0]
    for i in range(n_seeds, 12):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(i,)))
        assert np.array_equal(full[i], random_pure_state(2, rng))


def test_returned_pair_respects_coefficient_bound(fam3, rng):
    # -1 <= sum_a sum_k x conj(y) <= d-1 for the optimal input/measurement pair
    from gpchannels import unitary_coefficients

    ch = random_cptp_channel(3, rng, fam3)
    res = maximize_output_inf_norm(
        superoperator_of(ch), small_cfg(fam3), mub_seed_states(fam3)
    )
    s = np.sum(
        unitary_coefficients(fam3, res.state) * unitary_coefficients(fam3, res.dual_state).conj()
    )
    assert -1.0 - 1e-9 <= s.real <= 2.0 + 1e-9
    assert abs(s.imag) <= 1e-9


def test_seeded_restart_wins_ties(fam3):
    # the optimum is a seed state, so the earliest (seeded) restart is reported
    ch = channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3)
    res = extremize_self_fidelity(
        superoperator_of(ch), "max", small_cfg(fam3), mub_seed_states(fam3)
    )
    assert res.best_restart < res.n_seed_states
    overlap = np.abs(fam3.all_vectors() @ res.state.conj()) ** 2
    assert np.max(overlap) == pytest.approx(1.0, abs=1e-12)


def test_eigenrelation_residual_and_fault_injection(fam5, rng):
    ch = random_cptp_channel(5, rng, fam5)
    assert eigenrelation_residual(ch) <= 1e-12
    assert eigenrelation_residual(identity_channel(5, fam5)) <= 1e-13
    lam = spectrum_of(ch).lambdas.copy()
    lam[2] += 0.01
    # corrupted eigenvalue on one axis: residual is 0.01 * ||U||_F = 0.01 * sqrt(d)
    assert eigenrelation_residual(ch, lam) == pytest.approx(0.01 * np.sqrt(5), rel=1e-9)


def test_cptp_scan_d2_no_disagreements():
    rep = cptp_equivalence_scan(2, SpectrumGrid(n_random=10_000, seed=4))
    assert rep.passed
    assert rep.n_total >= 10_000
    assert 0 < rep.n_cptp < rep.n_total
    assert rep.worst_boundary_choi_eig <= 1e-10


def test_cptp_scan_boundary_and_violations_present():
    rep = cptp_equivalence_scan(3, SpectrumGrid(n_random=2000, seed=8))
    assert rep.passed
    assert rep.worst_boundary_choi_eig <= 1e-10


def test_scan_guard():
    with pytest.raises(TooLargeError):
        cptp_equivalence_scan(2, SpectrumGrid(n_random=200_000))


def test_tensor_probe_identity(fam2):
    probe = tensor_fidelity_probe(identity_channel(2, fam2), 2, OracleConfig(restarts=40, seed=6))
    assert probe.estimate == pytest.approx(1.0, abs=1e-9)
    assert abs(probe.excess) <= 1e-9


def test_tensor_probe_factorizing_regime(fam2):
    ch = channel_from_eigenvalues(2, [0.6, 0.6, 0.6], fam2)
    probe = tensor_fidelity_probe(ch, 2, OracleConfig(restarts=256, seed=6))
    assert probe.regime == "factorizing"
    assert probe.estimate == pytest.approx(0.64, abs=1e-6)
    assert probe.excess <= 1e-6
    assert probe.estimate >= probe.baseline - 1e-9


def test_tensor_probe_open_regime_finds_entangled_advantage(fam2):
    ch = channel_from_eigenvalues(2, [-1 / 3, -1 / 3, -1 / 3], fam2)
    probe = tensor_fidelity_probe(ch, 2, OracleConfig(restarts=256, seed=6))
    assert probe.regime == "open"
    assert probe.estimate >= probe.baseline - 1e-9
    # maximally entangled inputs reach 1/3 against the product baseline 1/9
    assert probe.estimate == pytest.approx(1 / 3, abs=1e-6)
    assert probe.excess == pytest.approx(2 / 9, abs=1e-6)


def test_tensor_probe_guard(fam5):
    with pytest.raises(TooLargeError):
        tensor_fidelity_probe(identity_channel(5, fam5), 3, OracleConfig(restarts=4, seed=1))


# ---------------------------------------------------------------------------
# inf-norm closed form: verified exact regime and its verified failure regime
# ---------------------------------------------------------------------------


def test_inf_norm_formula_exact_when_max_dominates(rng):
    # max(lambda) >= |min(lambda)|: search never beats the closed form
    from gpchannels import build_mub_family, max_output_inf_norm
    from gpchannels.metrics import inf_norm_formula_is_exact

    for d in (3, 5):
        fam = build_mub_family(d)
        seeds = mub_seed_states(fam)
        cfg = OracleConfig(restarts=seeds.shape[0] + 16, seed=31)
        checked = 0
        while checked < 6:
            ch = random_cptp_channel(d, rng, fam)
            if not inf_norm_formula_is_exact(ch):
                continue
            checked += 1
            v = maximize_output_inf_norm(superoperator_of(ch), cfg, seeds).value
            assert abs(v - max_output_inf_norm(ch)) <= 1e-9


def test_inf_norm_formula_beaten_outside_exact_regime(fam3):
    # pinned counterexample: two strongly negative eigenvalues let inputs
    # superposed across those bases exceed the single-basis closed form;
    # the search value is confirmed by direct evaluation of the best pair
    from gpchannels import apply_channel, max_output_inf_norm
    from gpchannels.metrics import inf_norm_formula_is_exact

    ch = channel_from_eigenvalues(3, [0.187, 0.153, -0.341, -0.419], fam3)
    assert not inf_norm_formula_is_exact(ch)
    closed = max_output_inf_norm(ch)
    seeds = mub_seed_states(fam3)
    cfg = OracleConfig(restarts=seeds.shape[0] + 40, seed=3, max_iters=2000)
    res = maximize_output_inf_norm(superoperator_of(ch), cfg, seeds)
    assert res.value >= closed - 1e-9  # the closed form stays a valid lower bound
    assert res.value - closed > 0.05   # and is decisively beaten here
    direct = np.real(
        res.dual_state.conj()
        @ apply_channel(ch, np.outer(res.state, res.state.conj()))
        @ res.dual_state
    )
    assert direct == pytest.approx(res.value, abs=1e-12)


def test_inf_norm_formula_always_attained_on_basis_projectors(rng):
    # the closed form is exactly the best over basis-projector pairs, so a
    # constructed pair must reach it regardless of regime
    from gpchannels import apply_channel, build_mub_family, max_output_inf_norm, spectrum_of

    for d in (2, 3, 5):
        fam = build_mub_family(d)
        for _ in range(10):
            ch = random_cptp_channel(d, rng, fam, alpha=0.7)
            lam = spectrum_of(ch).lambdas
            closed = max_output_inf_norm(ch)
            amax, amin = int(np.argmax(lam)), int(np.argmin(lam))
            pos = np.real(
                np.trace(fam.projector(amax, 0) @ apply_channel(ch, fam.projector(amax, 0)))
            )
            neg = np.real(
                np.trace(fam.projector(amin, 1) @ apply_channel(ch, fam.projector(amin, 0)))
            )
            assert max(pos, neg) == pytest.approx(closed, abs=1e-12)
