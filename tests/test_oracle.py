import re

import numpy as np
import pytest

from gpchannels import (
    OracleConfig,
    SpectrumGrid,
    TooLargeError,
    channel_from_eigenvalues,
    channel_from_probabilities,
    cptp_equivalence_scan,
    eigenrelation_residual,
    extremize_self_fidelity,
    fidelity_extremes,
    max_output_2norm,
    maximize_output_2norm,
    maximize_output_inf_norm,
    mub_seed_states,
    random_pure_state,
    spectral_figures,
    spectrum_of,
    superoperator_of,
    tensor_fidelity_probe,
    tensor_power,
)
from gpchannels.cli import nearest_basis_index
from gpchannels.oracle import VALUE_TOL, _checked_superop
from helpers import (
    apply_channel,
    depolarizing_channel,
    identity_channel,
    projector,
    random_cptp_channel,
    restrict_to_u_perp,
    unitary_coefficients,
)


def small_cfg(fam, extra=8, seed=7):
    return OracleConfig(restarts=fam.d * (fam.d + 1) + extra, seed=seed)


def test_random_pure_state_norm_and_determinism():
    rng = np.random.default_rng(123)
    psi = random_pure_state(5, rng, 7)
    assert psi.shape == (7, 5)
    assert np.all(np.abs(np.linalg.norm(psi, axis=1) - 1.0) <= 1e-12)
    again = random_pure_state(5, np.random.default_rng(123), 7)
    assert np.array_equal(psi, again)
    # the complex view of one normal block: real and imaginary parts interleaved
    z = np.random.default_rng(123).standard_normal((7, 5, 2))
    z = z[..., 0] + 1j * z[..., 1]
    assert np.array_equal(psi, z / np.linalg.norm(z, axis=1, keepdims=True))
    assert random_pure_state(5, rng, 0).shape == (0, 5)
    for count in (0, 3):
        with pytest.raises(ValueError):
            random_pure_state(1, rng, count)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)
    with pytest.raises(ValueError):
        OracleConfig(max_iters=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        OracleConfig(seed=-1)
    assert OracleConfig(seed=0).seed == 0


@pytest.mark.parametrize("restarts", [1, 2])
def test_dimension_one_refused_without_haar_starts(restarts, monkeypatch):
    # one seed state fills restarts=1, so no Haar start is drawn; C^1 is refused anyway
    cfg = OracleConfig(restarts=restarts)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        extremize_self_fidelity(np.eye(1), "max", cfg, seed_states=np.ones((1, 1)))
    # a 0x0 superoperator used to end in numpy's "zero-size array" error
    _forbid_haar_draws(monkeypatch)
    for search in _four_searches(np.zeros((0, 0)), cfg):
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            search()


def test_random_pure_state_haar_first_moment():
    dim = 3
    psi = random_pure_state(dim, np.random.default_rng(99), 100_000)
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
    # refused before the 285 MB complex copy of the superoperator is made
    import tracemalloc

    huge = np.broadcast_to(np.float32(0.0), (65**2, 65**2))  # no memory of its own
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            extremize_self_fidelity(huge, "max")
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


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


def _top_output_eigenvalue(superop, x):
    """Largest eigenvalue of the map with superoperator ``superop`` at |x><x|."""
    m = x.shape[0]
    out = superop @ np.outer(x, x.conj()).reshape(-1, order="F")
    return np.linalg.eigvalsh(out.reshape(m, m, order="F"))[-1]


def _amplitude_damping(gamma):
    """Kraus operators and column-stacking superoperator of qubit amplitude damping."""
    kraus = [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]]),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
    ]
    return kraus, sum(np.kron(k.conj(), k) for k in kraus)


def test_nu_inf_dual_step_uses_adjoint():
    # amplitude damping is not self-adjoint: the input half-step must take the
    # top eigenvector of Lambda^dagger[Q], or the pair drifts off its value
    kraus, s = _amplitude_damping(0.6)
    assert not np.allclose(s, s.conj().T)
    res = maximize_output_inf_norm(s, OracleConfig(restarts=16, seed=5))
    out = sum(k @ np.outer(res.state, res.state.conj()) @ k.conj().T for k in kraus)
    direct = np.real(res.dual_state.conj() @ out @ res.dual_state)
    assert direct == pytest.approx(res.value, abs=1e-12)
    # the optimum is degenerate (quartic) toward |0><0| here; the certificate still reaches it
    assert res.value >= 1 - 1e-9


def test_nu_inf_stopped_pair_is_exact_fixed_point(fam3, rng):
    # a restart that stops before max_iters passed an exact sweep: neither
    # top eigenvector gains more than VALUE_TOL over the reported value
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
        assert _top_output_eigenvalue(s, res.state) <= res.value + VALUE_TOL
        assert _top_output_eigenvalue(s.conj().T, res.dual_state) <= res.value + VALUE_TOL


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


def _assert_monotone_in_sweep_budget(run):
    # A run capped at k sweeps shows each restart's value after its first k
    # sweeps, so raising the cap never lowers it; only run k's reported
    # restart, resumed past its loose stop, may be ahead of the run capped at
    # k + 1.  run(max_iters) returns a list of (name, result, sign).
    full = run(500)
    longest = max(int(res.restart_iterations.max()) for _, res, _ in full)
    runs = [run(k) for k in range(1, longest + 1)]  # past its own longest, a search is the full run
    for now, later in zip(runs, runs[1:]):
        for (name, res, sign), (_, nxt, _) in zip(now, later):
            rise = sign * (nxt.restart_values - res.restart_values)
            assert np.all(np.delete(rise, res.best_restart) >= 0.0), (name, res.restart_iterations)
    for (name, last, _), (_, res, _) in zip(runs[-1], full):
        assert np.array_equal(last.restart_values, res.restart_values), name
        assert np.array_equal(last.restart_iterations, res.restart_iterations), name
        assert last.best_restart == res.best_restart, name


def test_nu_inf_ascent_monotone(fam3, rng):
    # Haar starts only, so every restart actually climbs
    s = superoperator_of(random_cptp_channel(3, rng, fam3))
    def run(max_iters):
        cfg = OracleConfig(restarts=16, seed=2, max_iters=max_iters)
        return [("inf", maximize_output_inf_norm(s, cfg), 1.0)]

    _assert_monotone_in_sweep_budget(run)


def test_power_ascent_histories_monotone(fam3, rng):
    # Haar starts only, so every restart actually climbs
    s = superoperator_of(random_cptp_channel(3, rng, fam3))
    _assert_monotone_in_sweep_budget(
        lambda max_iters: _searches(s, OracleConfig(restarts=16, seed=2, max_iters=max_iters))
    )


def test_returned_values_match_direct_evaluation(rng):
    # the winning restart's value is the objective at the returned state;
    # with the basis seeds that state attains the reported value itself
    from gpchannels import build_mub_family

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
                assert 0.0 <= sign * (res.value - own) <= VALUE_TOL
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


def test_seeded_fixed_points_stop_after_one_sweep(fam3, monkeypatch):
    # every basis vector is an exact fixed point of the ascent: its first
    # step moves less than STEP_TOL, which ends the restart at once; with no
    # bound the seeds climb, where the bound would certify them at their start
    from gpchannels import oracle

    monkeypatch.setattr(oracle, "_unital_bound", lambda *args, **kwargs: None)
    ch = channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3)
    seeds = mub_seed_states(fam3)
    for name, res, _ in _searches(superoperator_of(ch), small_cfg(fam3), seeds):
        assert np.all(res.restart_iterations[: res.n_seed_states] == 1), name
        assert res.best_restart < res.n_seed_states, name


def _drawn_haar_rows(search):
    """Run ``search``, which must climb, and return the one block of Haar rows it draws."""
    from gpchannels import oracle

    draw, blocks = oracle.random_pure_state, []

    def recorded(dim, rng, count):
        blocks.append(draw(dim, rng, count))
        return blocks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "random_pure_state", recorded)
        assert not search().certified
    assert len(blocks) == 1
    return blocks[0]


def _all_starts(cfg, seeds):
    """Every start of a qubit search that climbs: the seeds, then the Haar rows it draws.

    Amplitude damping is not unital, so no bound certifies its seeds.  Also
    returns the number of seeds.
    """
    from gpchannels.oracle import _start_states

    s = _amplitude_damping(0.3)[1]
    haar = _drawn_haar_rows(lambda: extremize_self_fidelity(s, "max", cfg, seeds))
    starts = np.concatenate([_start_states(2, cfg.restarts, seeds), haar])
    return starts, 0 if seeds is None else len(seeds)


def test_haar_starts_are_one_seeded_stream(fam2):
    # the Haar rows follow the seeded candidates: unit vectors, the same for
    # the same seed, a prefix of any larger budget, and unmoved by the seeds
    seeds = mub_seed_states(fam2)
    n = seeds.shape[0]
    starts, n_seeds = _all_starts(OracleConfig(restarts=12, seed=5), seeds)
    assert n_seeds == n and starts.shape == (12, 2)
    assert np.allclose(starts[:n], seeds, rtol=0, atol=1e-15)  # renormalized
    haar = starts[n:]
    assert np.all(np.abs(np.linalg.norm(haar, axis=1) - 1.0) <= 1e-12)
    again, _ = _all_starts(OracleConfig(restarts=12, seed=5), seeds)
    assert np.array_equal(again, starts)
    other, _ = _all_starts(OracleConfig(restarts=12, seed=6), seeds)
    assert not np.array_equal(other[n:], haar)
    more, _ = _all_starts(OracleConfig(restarts=40, seed=5), seeds)
    assert np.array_equal(more[:12], starts)
    unseeded, n_none = _all_starts(OracleConfig(restarts=12, seed=5), None)
    assert n_none == 0 and np.array_equal(unseeded[: 12 - n], haar)


def _four_searches(s, cfg, seeds=None):
    """The four searches of `analyze --oracle`, each as a thunk."""
    return [
        lambda: extremize_self_fidelity(s, "max", cfg, seeds),
        lambda: extremize_self_fidelity(s, "min", cfg, seeds),
        lambda: maximize_output_2norm(s, cfg, seeds),
        lambda: maximize_output_inf_norm(s, cfg, seeds),
    ]


def _forbid_haar_draws(monkeypatch):
    from gpchannels import oracle

    def no_draw(*args, **kwargs):
        raise AssertionError("the Haar starts were drawn")

    monkeypatch.setattr(oracle, "random_pure_state", no_draw)


def test_haar_starts_generated_once_and_read_only(fam2, monkeypatch):
    # each search draws its Haar starts in one call and never writes into them;
    # amplitude damping is not unital, so no search is certified by its seeds
    from gpchannels import oracle

    s = _amplitude_damping(0.3)[1]
    seeds = mub_seed_states(fam2)
    searches = _four_searches(s, OracleConfig(restarts=12, seed=5), seeds)
    expected = [search() for search in searches]
    draw = oracle.random_pure_state
    for search, want in zip(searches, expected):
        blocks = []

        def read_only_draw(dim, rng, count):
            block = draw(dim, rng, count)
            block.setflags(write=False)
            blocks.append((count, block, block.copy()))
            return block

        monkeypatch.setattr(oracle, "random_pure_state", read_only_draw)
        got = search()
        assert len(blocks) == 1
        count, block, before = blocks[0]
        assert count == 12 - seeds.shape[0]
        assert np.array_equal(block, before)
        assert got.value == want.value and np.array_equal(got.state, want.state)
        assert not got.certified and got.restarts == 12


def test_start_states_keyed_by_global_restart_index(fam2):
    # each Haar start depends only on (seed, its index in the stream), not on
    # how many restarts are drawn together or how many seed states precede it
    seeds = mub_seed_states(fam2)
    full, n_seeds = _all_starts(OracleConfig(restarts=12, seed=5), seeds)
    assert n_seeds == seeds.shape[0]
    for j in range(12 - n_seeds):
        alone = random_pure_state(2, np.random.default_rng(5), j + 1)[j]
        assert np.array_equal(full[n_seeds + j], alone)


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
    assert np.array_equal(r1.restart_iterations, r2.restart_iterations)
    assert r1.best_restart == r2.best_restart
    n1 = maximize_output_inf_norm(s, cfg, seeds)
    n2 = maximize_output_inf_norm(s, cfg, seeds)
    assert n1.value == n2.value
    assert np.array_equal(n1.state, n2.state)
    assert np.array_equal(n1.dual_state, n2.dual_state)


def test_returned_pair_respects_coefficient_bound(fam3, rng):
    # -1 <= sum_a sum_k x conj(y) <= d-1 for the optimal input/measurement pair
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


@pytest.fixture(scope="module", params=[2, 3, 5, 7])
def certificate_battery(request):
    """12 channels at one d: closed forms, the four searches, and the same searches
    with no bound (so every restart runs), at 256 restarts."""
    from gpchannels import build_mub_family, fidelity_report, oracle

    d = request.param
    fam = build_mub_family(d)
    rng = np.random.default_rng(400 + d)
    seeds, cfg = mub_seed_states(fam), OracleConfig(restarts=256, seed=2026)
    rows = []
    for j in range(12):
        ch = random_cptp_channel(d, rng, fam, alpha=(0.2, 0.5, 1.0, 3.0)[j % 4])
        searches = _four_searches(superoperator_of(ch), cfg, seeds)
        run = [search() for search in searches]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_unital_bound", lambda *args, **kwargs: None)
            full = [search() for search in searches]
        rows.append((fidelity_report(ch), run, full, superoperator_of(ch)))
    return rows


def test_certified_searches_match_the_full_search(certificate_battery):
    # a certified search ran only its seeds, and no restart of the full search beats its bound
    for fig, run, full, _ in certificate_battery:
        for sign, res, whole in zip((1.0, -1.0, 1.0, 1.0), run, full):
            assert whole.restarts == 256 and not whole.certified and whole.bound is None
            if res.certified:
                assert res.restarts == res.n_seed_states
                assert abs(res.value - whole.value) <= VALUE_TOL
                assert np.all(sign * whole.restart_values <= sign * res.bound + 1e-12)
            else:  # the Haar starts ran, as they do without a bound
                assert res.restarts == 256
                assert res.value == pytest.approx(whole.value, abs=1e-12)
                assert res.best_restart == whole.best_restart
        # f and nu2 always certify; nu_inf does wherever its closed form is exact
        assert all(res.certified for res in run[:3])
        assert run[3].certified or not fig.inf_exact


def test_bound_equals_the_closed_forms(certificate_battery):
    # read off S alone, the bound is the paper's f_max, f_min and nu2 (and nu_inf when exact)
    for fig, run, *_ in certificate_battery:
        for res, closed in zip(run, (fig.f_max, fig.f_min, fig.nu2)):
            assert res.bound == pytest.approx(float(closed), abs=1e-12)
        if fig.inf_exact:
            assert run[3].bound == pytest.approx(float(fig.nu_inf), abs=1e-12)


def _engine_scales(s):
    """The ||H||_2 that the bound's spectrum gives each search, and by an SVD."""
    from gpchannels.oracle import _unital_bound

    r, m = _checked_superop(s)
    hs = (0.5 * (r + r.T), -0.5 * (r + r.T), r @ r.T)
    got = [_unital_bound(r, h, m)[1] for h in hs] + [_unital_bound(r, hs[2], m, pair=True)[1]]
    return got, [np.linalg.norm(h, 2) for h in hs] + [np.linalg.norm(2.0 * r, 2)]


def test_bound_spectrum_gives_the_engine_scale(certificate_battery):
    # ||H||_2 of f, nu_2 and nu_inf (blocks 2 R^T, 2 R) come from the bound's eigvalsh and <u, H u>
    for *_, s in certificate_battery:
        got, svd = _engine_scales(s)
        assert np.allclose(got, svd, rtol=1e-12, atol=0.0)


def _unital_non_pauli_map(d, rng):
    """S of a mixture of two random unitary conjugations: unital and trace preserving."""
    def unitary():
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return np.linalg.qr(z)[0]

    return sum(p * np.kron(v.conj(), v) for p, v in zip((0.7, 0.3), (unitary(), unitary())))


def test_rank_two_restriction_matches_the_dense_one(rng):
    # the reflector applied as a rank-2 update gives the dense perp^T h perp, for any symmetric h
    from gpchannels.oracle import _on_u_perp

    for m in (2, 3, 5, 7):
        a = rng.standard_normal((m * m, m * m))
        h = a + a.T
        u = np.eye(m).reshape(-1) / np.sqrt(m)
        assert np.max(np.abs(_on_u_perp(h, u) - restrict_to_u_perp(h, m))) <= 1e-13
    s = _unital_non_pauli_map(3, rng)
    r, m = _checked_superop(s)
    u = np.eye(m).reshape(-1) / np.sqrt(m)
    for h in (0.5 * (r + r.T), r @ r.T):
        assert np.max(np.abs(_on_u_perp(h, u) - restrict_to_u_perp(h, m))) <= 1e-13
    got, svd = _engine_scales(s)
    assert np.allclose(got, svd, rtol=1e-12, atol=0.0)


def _start_certified_channel(d):
    """A channel whose four searches all certify at a basis vector's start value."""
    from gpchannels import build_mub_family

    fam = build_mub_family(d)
    return channel_from_eigenvalues(d, np.roll(np.linspace(0.2, -0.05, d + 1), 1), fam), fam


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_start_certified_searches_never_enter_the_engine(d, monkeypatch):
    from gpchannels import oracle

    def no_engine(*args, **kwargs):
        raise AssertionError("the ascent engine ran")

    monkeypatch.setattr(oracle, "_ascent", no_engine)
    ch, fam = _start_certified_channel(d)
    for search in _four_searches(superoperator_of(ch), OracleConfig(), mub_seed_states(fam)):
        res = search()
        assert res.certified and np.all(res.restart_iterations == 0)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_start_certified_inf_norm_lifts_no_pair(d, monkeypatch):
    # the seeds' start values are the top eigenvalues of their outputs; only the
    # reported seed's eigenvector is taken, and it attains the reported value
    from gpchannels import oracle

    def no_lift(*args, **kwargs):
        raise AssertionError("the seeds were lifted to pairs")

    monkeypatch.setattr(oracle, "_pair_starts", no_lift)
    ch, fam = _start_certified_channel(d)
    res = maximize_output_inf_norm(superoperator_of(ch), OracleConfig(), mub_seed_states(fam))
    assert res.certified and np.all(res.restart_iterations == 0)
    out = apply_channel(ch, np.outer(res.state, res.state.conj()))
    assert res.dual_state.conj() @ out @ res.dual_state == pytest.approx(res.value, abs=1e-12)
    assert np.linalg.norm(res.dual_state) == pytest.approx(1.0, abs=1e-15)


def test_positive_spectrum_certifies_its_minimum(fam3):
    # with every lambda > 0, -(R + R^T)/2 is negative on u^perp: the compression
    # (I - u u^T) H (I - u u^T) would add a 0 eigenvalue there and never certify
    ch = channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3)
    r, m = _checked_superop(superoperator_of(ch))
    h = -0.5 * (r + r.T)
    u = np.eye(m).reshape(-1) / np.sqrt(m)
    q = np.eye(m * m) - np.outer(u, u)
    assert np.linalg.eigvalsh(q @ h @ q)[-1] == pytest.approx(0.0, abs=1e-12)
    res = extremize_self_fidelity(superoperator_of(ch), "min", OracleConfig(),
                                  mub_seed_states(fam3))
    assert res.certified and res.restarts == res.n_seed_states
    assert res.value == pytest.approx(0.4, abs=1e-12)  # (1 + (d - 1) min lambda) / d
    assert res.bound == pytest.approx(0.4, abs=1e-12)


def test_non_unital_map_is_never_certified(fam2):
    # amplitude damping is trace preserving but not unital: no bound, every restart runs
    s = _amplitude_damping(0.3)[1]
    cfg = OracleConfig(restarts=24, seed=3)
    for search in _four_searches(s, cfg, mub_seed_states(fam2)):
        res = search()
        assert not res.certified and res.bound is None
        assert res.restarts == 24 and res.restart_values.shape == (24,)


def test_uncertified_search_keeps_its_haar_result(fam3):
    # an open-regime nu_inf above its closed form: the bound is loose, the Haar
    # starts run, and the result is the one found before the bound existed
    ch = channel_from_eigenvalues(3, [0.187, 0.153, -0.341, -0.419], fam3)
    cfg = OracleConfig(restarts=256, seed=2026)
    res = maximize_output_inf_norm(superoperator_of(ch), cfg, mub_seed_states(fam3))
    assert not res.certified and res.bound > res.value + 1e-3
    assert res.restarts == 256 and res.best_restart == 6
    assert res.value == pytest.approx(0.532864127471987, abs=1e-12)


def _pinned_open_channel(fam3):
    """The d=3 open-regime channel whose nu_inf search is never certified."""
    return channel_from_eigenvalues(3, [0.187, 0.153, -0.341, -0.419], fam3)


def _inf_norm_engine(s, cfg, seed_states):
    """What a climbing nu_inf search hands _ascent (ops, starts, scale), and its bound."""
    from gpchannels import oracle

    r, m = _checked_superop(s)
    seeds = oracle._start_states(m, cfg.restarts, seed_states)
    found = oracle._unital_bound(r, r @ r.T, m, pair=True)
    ops = 2.0 * np.stack([r.T, r])
    scale = oracle._norm2(ops[0]) if found is None else found[1]
    haar = _drawn_haar_rows(lambda: maximize_output_inf_norm(s, cfg, seed_states))
    starts = oracle._pair_starts(r, np.concatenate([seeds, haar]))
    return ops, starts, scale, None if found is None else found[0]


def _count_haar_draws(monkeypatch):
    """Patch the Haar draw to count its calls; returns the list of counts drawn."""
    from gpchannels import oracle

    draw, counts = oracle.random_pure_state, []

    def counted(dim, rng, count):
        counts.append(count)
        return draw(dim, rng, count)

    monkeypatch.setattr(oracle, "random_pure_state", counted)
    return counts


@pytest.mark.parametrize("case", ["pinned-d3", "amplitude-damping"])
def test_pair_ascent_keeps_both_blocks_balanced(case, fam2, fam3):
    # every step rescales the pair (a psi, b phi) to |a|^2 = |b|^2 = 1/2, where its value
    # 4|a|^2|b|^2 <phi, Lambda[psi psi^dagger] phi> is largest; the seeds and Haar rows climb
    # together, for the pinned channel (which its bound does not certify) and for amplitude
    # damping (no bound)
    from gpchannels import oracle

    if case == "pinned-d3":
        s, fam = superoperator_of(_pinned_open_channel(fam3)), fam3
    else:
        s, fam = _amplitude_damping(0.3)[1], fam2
    cfg = OracleConfig(restarts=64, seed=2026)
    ops, starts, scale, bound = _inf_norm_engine(s, cfg, mub_seed_states(fam))
    assert (bound is None) == (case == "amplitude-damping")
    assert not maximize_output_inf_norm(s, cfg, mub_seed_states(fam)).certified
    states, values, iters, settled = oracle._ascent(ops, starts, cfg.max_iters, scale)
    assert states.shape[1] == 64 and np.all(iters >= 1)
    norms = np.vecdot(states, states).real
    assert np.max(np.abs(norms - 0.5)) <= 1e-12


def test_haar_rows_join_the_seeds_climb(fam3, monkeypatch):
    # the one climb of seeds and Haar rows gives each restart the value it reaches climbing
    # alone: the seeds alone (no Haar budget), then the same Haar rows alone (no seeds); only
    # the restart each search reports is resumed past a loose stop, so those may differ
    s = superoperator_of(_pinned_open_channel(fam3))
    seeds = mub_seed_states(fam3)
    n = seeds.shape[0]
    draws = _count_haar_draws(monkeypatch)
    res = maximize_output_inf_norm(s, OracleConfig(restarts=256, seed=2026), seeds)
    assert draws == [256 - n]
    alone = maximize_output_inf_norm(s, OracleConfig(restarts=n, seed=2026), seeds)
    haar = maximize_output_inf_norm(s, OracleConfig(restarts=256 - n, seed=2026))
    assert not alone.certified and alone.restarts == n and haar.bound is None
    reference = np.concatenate([alone.restart_values, haar.restart_values])
    resumed = [res.best_restart, alone.best_restart, n + haar.best_restart]
    assert np.max(np.abs(np.delete(res.restart_values - reference, resumed))) <= 1e-12
    assert res.value == pytest.approx(0.532864127471987, abs=1e-12)


def test_seeds_that_certify_after_the_haar_rows_joined_drop_them(fam2, monkeypatch):
    # the qubit rotation by 0.7 about n = (1, 2, 2)/3, seeded first with a state whose Bloch
    # vector is orthogonal to n: a critical point of f (its minimum ring), which starts and
    # stops below the bound, so the Haar rows are drawn and climb with the seeds; the basis
    # seeds then climb onto the bound, and the Haar rows are dropped
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    v = np.cos(0.35) * np.eye(2) - 1j * np.sin(0.35) * np.einsum("i,ijk->jk", axis, paulis)
    bloch = np.array([2.0, -1.0, 0.0]) / np.sqrt(5.0)  # orthogonal to the axis
    ring = np.linalg.eigh(np.einsum("i,ijk->jk", bloch, paulis))[1][:, -1]
    seeds = np.vstack([ring, mub_seed_states(fam2)])
    s = np.kron(v.conj(), v)
    draws = _count_haar_draws(monkeypatch)
    res = extremize_self_fidelity(s, "max", OracleConfig(restarts=32, seed=3), seeds)
    assert draws == [32 - 7]
    assert res.certified and res.restarts == res.n_seed_states == 7
    assert res.restart_values[0] == pytest.approx((1.0 + np.cos(0.7)) / 2.0, abs=1e-12)
    assert res.restart_iterations[0] == 1
    alone = extremize_self_fidelity(s, "max", OracleConfig(restarts=7, seed=3), seeds)
    assert draws == [32 - 7]
    for name in ("value", "best_restart", "certified", "bound"):
        assert getattr(res, name) == getattr(alone, name), name
    for name in ("state", "restart_values", "restart_iterations"):
        assert np.array_equal(getattr(res, name), getattr(alone, name)), name


def test_open_search_climbs_fewer_sweeps(fam3):
    # the balanced pair and the one climb: climbing the seeds, then the Haar rows, with
    # unbalanced pairs took 6850 sweeps over these 256 restarts; the one climb takes 5583
    s = superoperator_of(_pinned_open_channel(fam3))
    res = maximize_output_inf_norm(s, OracleConfig(restarts=256, seed=2026), mub_seed_states(fam3))
    assert res.restart_iterations.sum() <= 0.85 * 6850


def test_climbing_search_draws_and_lifts_its_starts_once(fam3, monkeypatch):
    # a search its seeds do not certify at their start draws the Haar rows once and lifts
    # them with the seeds, all 256 restarts, in one call
    from gpchannels import oracle

    lift, lifted = oracle._pair_starts, []

    def counted(r, psi):
        lifted.append(psi.shape[0])
        return lift(r, psi)

    monkeypatch.setattr(oracle, "_pair_starts", counted)
    draws = _count_haar_draws(monkeypatch)
    seeds = mub_seed_states(fam3)
    s = superoperator_of(_pinned_open_channel(fam3))
    res = maximize_output_inf_norm(s, OracleConfig(restarts=256, seed=2026), seeds)
    assert lifted == [256] and draws == [256 - seeds.shape[0]]
    assert not res.certified and res.restarts == 256


def test_seeds_that_climb_several_sweeps_before_any_stops(fam3):
    # an open-regime channel with an all-negative spectrum (oracle_verify seed 1, block 37):
    # no seed stops before its ninth sweep, and no seed certifies after its climb
    p = [0.05395766581258914, 0.24435216031271514, 0.2709408666402997, 0.20807366567083893,
         0.222675641563557]
    ch = channel_from_probabilities(3, p, fam3)
    seeds = mub_seed_states(fam3)
    res = maximize_output_inf_norm(superoperator_of(ch), OracleConfig(restarts=256, seed=2026),
                                   seeds)
    assert np.all(spectrum_of(ch).lambdas < 0.0)
    assert np.min(res.restart_iterations[: seeds.shape[0]]) >= 9
    assert not res.certified and res.restarts == 256 and res.best_restart == 0
    assert res.value == pytest.approx(0.3752917673747591, abs=1e-12)


def test_open_regime_search_runs_no_svd(fam3, monkeypatch):
    # the map is unital, so the climbs take ||H||_2 from the bound's spectrum
    from gpchannels import oracle

    def no_norm(*args, **kwargs):
        raise AssertionError("||H||_2 was computed by an SVD")

    monkeypatch.setattr(oracle, "_norm2", no_norm)
    ch = channel_from_eigenvalues(3, [0.187, 0.153, -0.341, -0.419], fam3)
    cfg = OracleConfig(restarts=256, seed=2026)
    res = maximize_output_inf_norm(superoperator_of(ch), cfg, mub_seed_states(fam3))
    assert not res.certified and res.restarts == 256 and res.best_restart == 6
    assert res.value == pytest.approx(0.532864127471987, abs=1e-12)


def test_certified_searches_draw_no_haar_start(fam3, monkeypatch):
    # the seeds meet the bound, so the Haar rows (and their nu_inf eighs) never exist
    _forbid_haar_draws(monkeypatch)
    s = superoperator_of(channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3))
    for search in _four_searches(s, OracleConfig(), mub_seed_states(fam3)):
        assert search().certified


def test_bound_tried_whenever_the_search_has_seeds(fam2, monkeypatch):
    # with no seeds the bound is never computed; seeds that fill the budget still certify
    from gpchannels import oracle

    s = superoperator_of(identity_channel(2, fam2))
    seeds = mub_seed_states(fam2)
    for search in _four_searches(s, OracleConfig(restarts=seeds.shape[0]), seeds):
        res = search()
        assert res.certified and res.bound == pytest.approx(1.0, abs=1e-12)
        assert res.restarts == res.n_seed_states

    def no_bound(*args, **kwargs):
        raise AssertionError("the bound was computed")

    monkeypatch.setattr(oracle, "_unital_bound", no_bound)
    for search in _four_searches(s, OracleConfig(restarts=8)):
        res = search()
        assert not res.certified and res.bound is None and res.restarts == 8


def test_start_certified_search_climbs_nothing(fam3, monkeypatch):
    # the seeds start on the bound: no sweep runs, so neither ||H||_2 nor a Haar start is needed
    from gpchannels import oracle

    def no_norm(*args, **kwargs):
        raise AssertionError("||H||_2 was computed")

    _forbid_haar_draws(monkeypatch)
    monkeypatch.setattr(oracle, "_norm2", no_norm)
    s = superoperator_of(channel_from_eigenvalues(3, [0.4, 0.2, 0.1, 0.2], fam3))
    seeds = mub_seed_states(fam3)
    for search in _four_searches(s, OracleConfig(), seeds):
        res = search()
        assert res.certified and res.restarts == seeds.shape[0]
        assert np.all(res.restart_iterations == 0)
        assert res.best_restart < res.n_seed_states


def test_seeds_that_climb_onto_the_bound_certify(fam2, monkeypatch):
    # a qubit rotation by 0.7 about (1, 2, 2)/3: f_max = 1 on its eigenvectors, which no
    # basis vector is, so every seed climbs (two sweeps) before it meets the bound; the
    # Haar rows, drawn once because no seed starts on the bound, climb with them and are dropped
    draws = _count_haar_draws(monkeypatch)
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    v = np.cos(0.35) * np.eye(2) - 1j * np.sin(0.35) * np.einsum("i,ijk->jk", axis, paulis)
    res = extremize_self_fidelity(np.kron(v.conj(), v), "max", OracleConfig(restarts=32, seed=3),
                                  mub_seed_states(fam2))
    assert draws == [32 - 6]
    assert res.certified and res.restarts == res.n_seed_states == 6
    assert res.bound == pytest.approx(1.0, abs=1e-15) and res.bound < 1.0
    assert np.all(res.restart_iterations == 2)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def _perturbed_superoperators(ch, copies, seed=0):
    """S, then ``copies`` copies with 1e-16 Gaussian noise on its nonzero entries."""
    s = superoperator_of(ch)
    rng = np.random.default_rng(seed)
    out = [s]
    for _ in range(copies):
        t = s.copy()
        nonzero = t != 0
        t[nonzero] += 1e-16 * rng.standard_normal(np.count_nonzero(nonzero))
        out.append(t)
    return out


def test_certified_state_reads_no_roundoff():
    # a degenerate optimum certified at its start reports the earliest seed on the bound,
    # whatever the last bits of S: nu_inf of the rounded probs-d7 spectrum, whose optimum
    # is every vector of basis 5, and f_max of d=3 with lambda_1 = lambda_3 the largest
    from gpchannels import build_mub_family

    fam7, fam3 = build_mub_family(7), build_mub_family(3)
    ch7 = channel_from_eigenvalues(7, [0.110, -0.037, 0.006, 0.006, 0.099, 0.291, 0.034, 0.186],
                                   fam7)
    for s in _perturbed_superoperators(ch7, 5):
        res = maximize_output_inf_norm(s, OracleConfig(), mub_seed_states(fam7))
        assert res.certified and res.best_restart == 35
        assert nearest_basis_index(fam7, res.state)[:2] == (5, 0)
        assert nearest_basis_index(fam7, res.dual_state)[:2] == (5, 0)
    ch3 = channel_from_eigenvalues(3, [0.1, 0.4, 0.0, 0.4], fam3)
    for s in _perturbed_superoperators(ch3, 5):
        res = extremize_self_fidelity(s, "max", OracleConfig(), mub_seed_states(fam3))
        assert res.certified and res.best_restart == 3
        assert nearest_basis_index(fam3, res.state)[:2] == (1, 0)


def test_eigenrelation_residual_and_fault_injection(fam5, rng, monkeypatch):
    from gpchannels import Spectrum, oracle

    ch = random_cptp_channel(5, rng, fam5)
    assert eigenrelation_residual(ch) <= 1e-12
    assert eigenrelation_residual(identity_channel(5, fam5)) <= 1e-13
    lam = spectrum_of(ch).lambdas.copy()
    lam[2] += 0.01
    # corrupted eigenvalue on one axis: residual is 0.01 * ||U||_F = 0.01 * sqrt(d)
    monkeypatch.setattr(oracle, "spectrum_of", lambda _: Spectrum(5, lam))
    assert eigenrelation_residual(ch) == pytest.approx(0.01 * np.sqrt(5), rel=1e-9)


def test_eigenrelation_residual_reads_the_searched_superoperator(fam3, rng, monkeypatch):
    # the check runs on the matrix the searches receive, so a fault in it shows
    from gpchannels import oracle

    ch = random_cptp_channel(3, rng, fam3)
    build = oracle.superoperator_of

    def perturbed(c):
        s = build(c)
        s[4, 2] += 1e-6
        return s

    monkeypatch.setattr(oracle, "superoperator_of", perturbed)
    assert eigenrelation_residual(ch) >= 1e-7


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


def test_scan_guard_trips_before_drawing(monkeypatch):
    # 10^12 spectra would need terabytes: the size is refused before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("the scan grid was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(TooLargeError):
        cptp_equivalence_scan(2, SpectrumGrid(n_random=10**12))


def test_restart_guard_trips_before_drawing(fam2, monkeypatch):
    # 10^9 restarts would need tens of gigabytes: refused before any Haar start
    from gpchannels import oracle

    _forbid_haar_draws(monkeypatch)
    s = superoperator_of(identity_channel(2, fam2))
    seeds = mub_seed_states(fam2)
    huge = OracleConfig(restarts=10**9)
    searches = [
        lambda cfg: extremize_self_fidelity(s, "min", cfg, seeds),
        lambda cfg: maximize_output_2norm(s, cfg, seeds),
        lambda cfg: maximize_output_inf_norm(s, cfg, seeds),
        lambda cfg: tensor_fidelity_probe(identity_channel(2, fam2), 2, cfg),
    ]
    for search in searches:
        with pytest.raises(TooLargeError):
            search(huge)
    # the bound is restarts (or seeds, if more) times the squared state dimension
    monkeypatch.setattr(oracle, "MAX_START_ENTRIES", 4 * seeds.shape[0])
    with pytest.raises(TooLargeError):
        extremize_self_fidelity(s, "max", OracleConfig(restarts=seeds.shape[0] + 1), seeds)
    # a budget at the cap reaches the draw (with the seeds filling it, nothing is drawn)
    with pytest.raises(AssertionError, match="drawn"):
        extremize_self_fidelity(s, "max", OracleConfig(restarts=seeds.shape[0]))


def test_searches_refuse_non_finite_or_non_hp_superoperators(fam2, monkeypatch):
    # NaN used to end in an SVD LinAlgError and +-inf in an IndexError; a map
    # that is not Hermiticity-preserving has no real coordinates (X -> A X misses)
    _forbid_haar_draws(monkeypatch)
    s = superoperator_of(random_cptp_channel(2, np.random.default_rng(8), fam2))
    a = np.array([[1.0, 2.0j], [0.5, -1.0]])
    cases = []
    for value, match in ((np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite")):
        bad = s.copy()
        bad[1, 2] = value
        cases.append((bad, match))
    cases.append((np.kron(np.eye(2), a), "not Hermiticity-preserving"))
    cases.append((s[:, :3], r"superoperator must be square, got \(4, 3\)"))
    cases.append((np.eye(5), "superoperator side 5 is not a perfect square"))
    for bad, match in cases:
        for search in _four_searches(bad, OracleConfig(restarts=12, seed=1)):
            with pytest.raises(ValueError, match=match):
                search()


def test_searches_accept_amplitude_damping_and_tensor_powers(fam2):
    # Hermiticity-preserving maps that are not Pauli channels, or not on C^d
    ch = random_cptp_channel(2, np.random.default_rng(9), fam2)
    for s in (_amplitude_damping(0.3)[1], tensor_power(ch, 2)):
        for search in _four_searches(s, OracleConfig(restarts=8, seed=2)):
            assert np.isfinite(search().value)


@pytest.mark.parametrize("row", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]])
def test_bad_seed_state_refused_before_drawing(fam2, monkeypatch, row):
    # a zero or non-finite row used to warn in the normalization, then end in an IndexError
    _forbid_haar_draws(monkeypatch)
    s = superoperator_of(random_cptp_channel(2, np.random.default_rng(10), fam2))
    seeds = mub_seed_states(fam2)
    seeds[3] = row
    for search in _four_searches(s, OracleConfig(restarts=12, seed=1), seeds):
        with pytest.raises(ValueError, match="seed state 3 has norm"):
            search()


@pytest.mark.parametrize("shape", [(6, 2), (8,), (2, 3, 4), ()])
def test_seed_states_of_the_wrong_shape_refused_before_drawing(fam2, monkeypatch, shape):
    # the six C^2 family vectors used to be read as three starts of C^4
    s = tensor_power(random_cptp_channel(2, np.random.default_rng(11), fam2), 2)
    # one vector of C^4 is one seed
    one = extremize_self_fidelity(s, "max", OracleConfig(restarts=1), np.ones(4))
    assert one.n_seed_states == 1
    _forbid_haar_draws(monkeypatch)
    seeds = np.ones(shape) if shape != (6, 2) else mub_seed_states(fam2)
    for search in _four_searches(s, OracleConfig(restarts=1, seed=1), seeds):
        with pytest.raises(ValueError, match=f"seed states of shape {re.escape(str(shape))}"):
            search()


def _coordinates(x):
    """K(X) = Re X + Im X, the engine's real coordinates of Hermitian matrices."""
    return x.real + x.imag


def test_real_coordinates_are_an_isometry(rng):
    # <K(X), K(Y)> = Tr(XY) on Hermitian X, Y
    z = rng.standard_normal((2, 20, 5, 5)) + 1j * rng.standard_normal((2, 20, 5, 5))
    x, y = z + z.conj().swapaxes(-1, -2)
    lhs = np.sum(_coordinates(x) * _coordinates(y), axis=(-2, -1))
    rhs = np.trace(x @ y, axis1=-2, axis2=-1)
    assert np.allclose(lhs, rhs.real, rtol=0, atol=1e-12)
    assert np.all(np.abs(rhs.imag) <= 1e-12)


@pytest.mark.parametrize("case", ["d2", "d3", "d5", "d7", "amplitude-damping", "tensor-2x2"])
def test_real_coordinate_images_match_the_complex_route(case, rng):
    # R from _checked_superop, R^T and each map the searches build from R send
    # K(P) to K of the complex image, for random projectors P, and their
    # 2-norms, which scale the stop tolerances, are the complex maps' norms
    from gpchannels import build_mub_family

    if case == "amplitude-damping":
        superop = _amplitude_damping(0.4)[1]
    elif case == "tensor-2x2":
        superop = tensor_power(random_cptp_channel(2, rng, build_mub_family(2)), 2)
    else:
        d = int(case[1:])
        superop = superoperator_of(random_cptp_channel(d, rng, build_mub_family(d)))
    r, m = _checked_superop(superop)
    psi = random_pure_state(m, rng, 16)
    p = psi[:, :, None] * psi.conj()[:, None, :]
    s = superop.astype(complex)  # the complex reference, on column-stacked vectorizations

    def image(op):
        out = (op @ p.transpose(0, 2, 1).reshape(-1, m * m).T).T  # column-stacked images
        return out.reshape(-1, m, m).transpose(0, 2, 1)

    maps = {  # the inf-norm search runs on 2 R^T and 2 R, scaled by 2 ||R||_2
        "Lambda": (r, s),
        "Lambda^dagger": (r.T, s.conj().T),
        "self-fidelity H": (0.5 * (r + r.T), 0.5 * (s + s.conj().T)),
        "2-norm H": (r @ r.T, s.conj().T @ s),
    }
    for name, (real_op, op) in maps.items():
        real = (_coordinates(p).reshape(-1, m * m) @ real_op).reshape(-1, m, m)
        assert np.allclose(real, _coordinates(image(op)), rtol=0, atol=1e-13), name
        norm = np.linalg.norm(op, 2)
        assert abs(np.linalg.norm(real_op, 2) - norm) <= 1e-13 * norm, name


def test_tensor_probe_refuses_before_building(fam2, monkeypatch):
    # (2,6) seeds 46656 products of side 64, and (2,7) has state dimension 128:
    # both are refused before the tensor power or any product seed is built
    from gpchannels import oracle

    def no_build(*args, **kwargs):
        raise AssertionError("built before the guard")

    monkeypatch.setattr(oracle, "tensor_power", no_build)
    monkeypatch.setattr(oracle, "product_seed_states", no_build)
    ch = identity_channel(2, fam2)
    for n in (6, 7):
        with pytest.raises(TooLargeError):
            tensor_fidelity_probe(ch, n, OracleConfig(restarts=256))


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


def test_tensor_probe_open_regime_converges_to_singlet_value(fam2):
    # the singlet reaches (1 + sum lambda^2)/4 = 0.325; every restart stops on a rule
    ch = channel_from_eigenvalues(2, [-0.5, -0.2, -0.1], fam2)
    cfg = OracleConfig(restarts=2048)
    probe = tensor_fidelity_probe(ch, 2, cfg)
    assert probe.regime == "open"
    assert np.count_nonzero(probe.result.restart_iterations >= cfg.max_iters) == 0
    assert probe.estimate == pytest.approx(0.325, abs=1e-12)


def test_tensor_probe_guard(fam5):
    with pytest.raises(TooLargeError):
        tensor_fidelity_probe(identity_channel(5, fam5), 3, OracleConfig(restarts=4, seed=1))


# ---------------------------------------------------------------------------
# inf-norm closed form: verified exact regime and its verified failure regime
# ---------------------------------------------------------------------------


def test_inf_norm_formula_exact_when_max_dominates(rng):
    # max(lambda) >= |min(lambda)|: search never beats the closed form
    from gpchannels import build_mub_family, max_output_inf_norm

    for d in (3, 5):
        fam = build_mub_family(d)
        seeds = mub_seed_states(fam)
        cfg = OracleConfig(restarts=seeds.shape[0] + 16, seed=31)
        checked = 0
        while checked < 6:
            ch = random_cptp_channel(d, rng, fam)
            if not spectral_figures(spectrum_of(ch).lambdas).inf_exact:
                continue
            checked += 1
            v = maximize_output_inf_norm(superoperator_of(ch), cfg, seeds).value
            assert abs(v - max_output_inf_norm(ch)) <= 1e-9


@pytest.mark.parametrize("seed", range(1, 21))
def test_inf_norm_formula_beaten_outside_exact_regime(fam3, seed):
    # pinned counterexample: two strongly negative eigenvalues let inputs
    # superposed across those bases exceed the single-basis closed form;
    # the search value is confirmed by direct evaluation of the best pair
    from gpchannels import max_output_inf_norm

    ch = channel_from_eigenvalues(3, [0.187, 0.153, -0.341, -0.419], fam3)
    assert not spectral_figures(spectrum_of(ch).lambdas).inf_exact
    closed = max_output_inf_norm(ch)
    seeds = mub_seed_states(fam3)
    cfg = OracleConfig(restarts=seeds.shape[0] + 40, seed=seed, max_iters=2000)
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
    from gpchannels import build_mub_family, max_output_inf_norm, spectrum_of

    for d in (2, 3, 5):
        fam = build_mub_family(d)
        for _ in range(10):
            ch = random_cptp_channel(d, rng, fam, alpha=0.7)
            lam = spectrum_of(ch).lambdas
            closed = max_output_inf_norm(ch)
            amax, amin = int(np.argmax(lam)), int(np.argmin(lam))
            pos = np.real(
                np.trace(projector(fam, amax, 0) @ apply_channel(ch, projector(fam, amax, 0)))
            )
            neg = np.real(
                np.trace(projector(fam, amin, 1) @ apply_channel(ch, projector(fam, amin, 0)))
            )
            assert max(pos, neg) == pytest.approx(closed, abs=1e-12)
