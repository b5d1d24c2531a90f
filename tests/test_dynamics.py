import dataclasses
import json

import numpy as np
import pytest

from gpchannels import (
    DimensionMismatchError,
    InvalidTrajectoryError,
    MubFamily,
    MubValidationError,
    OutOfRangeError,
    UnsupportedDimensionError,
    build_mub_family,
    exponential_evolution,
    sampled_evolution,
    timeline_report,
    validate_trajectory,
)
from gpchannels.channel import fujiwara_algoet_check
from gpchannels.dynamics import (
    evolution_from_dict,
    generator_consistency_residual,
    generator_superoperator,
    timeline_csv_text,
)
from helpers import (
    _dephase,
    eigenvalue_trajectory,
    random_hermitian,
    timeline_csv_reference,
    unvec,
    vec,
)


def test_zero_rates_freeze_identity(fam2):
    spec = exponential_evolution(2, [0, 0, 0], fam2)
    for t in (0.0, 0.5, 7.0):
        assert np.allclose(eigenvalue_trajectory(spec, t).lambdas, 1.0)


def test_equal_rates_hand_value(fam2):
    spec = exponential_evolution(2, [1, 1, 1], fam2)
    lam = eigenvalue_trajectory(spec, np.log(2) / 2).lambdas
    assert np.allclose(lam, 0.5, atol=1e-14)


def test_single_rate_keeps_unit_axis_on_boundary(fam3):
    spec = exponential_evolution(3, [1, 0, 0, 0], fam3)
    for t in (0.3, 1.0, 4.0):
        lam = eigenvalue_trajectory(spec, t).lambdas
        assert lam[0] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(lam[1:], np.exp(-t), atol=1e-14)
        check = fujiwara_algoet_check(eigenvalue_trajectory(spec, t))
        assert check.passed
        assert check.upper_slack == pytest.approx(0.0, abs=1e-12)


def test_rates_must_be_nonnegative(fam2):
    with pytest.raises(InvalidTrajectoryError):
        exponential_evolution(2, [1, -0.1, 0], fam2)


@pytest.mark.parametrize("d", [-1, 0, 1, 4])
def test_unsupported_dimension_fails_before_sample_checks(d):
    # wrong-length rates and samples would be InvalidTrajectoryError; the family comes first
    with pytest.raises(UnsupportedDimensionError):
        exponential_evolution(d, [])
    with pytest.raises(UnsupportedDimensionError):
        sampled_evolution(d, [0.0], [[1.0]])


def test_family_dimension_must_match(fam2):
    # a d=3 spec over a d=2 family used to fail only later, inside numpy broadcasting
    with pytest.raises(DimensionMismatchError):
        exponential_evolution(3, [0.1, 0.2, 0.3, 0.4], fam2)
    with pytest.raises(DimensionMismatchError):
        sampled_evolution(3, [0.0], [[1.0] * 4], fam2)


def test_spec_is_frozen_and_reads_d_from_its_family(fam3):
    spec = exponential_evolution(3, [0.1, 0.2, 0.3, 0.4], fam3)
    assert [f.name for f in dataclasses.fields(spec)] == [
        "fam", "rates", "sample_times", "sample_lambdas"]
    assert spec.d == 3 and spec.fam is fam3
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.rates = np.zeros(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.fam = build_mub_family(2)


def test_exponential_semigroup_property(fam3, rng):
    spec = exponential_evolution(3, rng.uniform(0, 2, size=4), fam3)
    for _ in range(10):
        s, t = rng.uniform(0, 3, size=2)
        lhs = eigenvalue_trajectory(spec, s + t).lambdas
        rhs = eigenvalue_trajectory(spec, s).lambdas * eigenvalue_trajectory(spec, t).lambdas
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_exponential_lambdas_in_unit_interval_and_monotone(fam2, rng):
    spec = exponential_evolution(2, rng.uniform(0, 3, size=3), fam2)
    grid = np.linspace(0, 10, 200)
    lam = np.array([eigenvalue_trajectory(spec, t).lambdas for t in grid])
    assert np.all(lam > 0) and np.all(lam <= 1 + 1e-15)
    assert np.all(np.diff(lam, axis=0) <= 1e-15)


def test_validate_trajectory_exponential_clean(fam3, rng):
    spec = exponential_evolution(3, rng.uniform(0, 2, size=4), fam3)
    rep = validate_trajectory(spec, np.linspace(0, 10, 1000))
    assert rep.passed
    assert rep.first_violation_time is None


def test_validate_trajectory_flags_injected_negative(fam2):
    times = np.array([0.0, 1.0, 2.0, 3.0])
    lams = np.array([[1, 1, 1], [0.6, 0.5, 0.4], [0.3, -0.05, 0.2], [0.1, 0.05, 0.05]], float)
    spec = sampled_evolution(2, times, lams, fam2)
    rep = validate_trajectory(spec, times)
    assert not rep.passed
    assert rep.first_violation_time == pytest.approx(2.0)
    assert rep.first_violation_kind == "negative-eigenvalue"


def test_sampled_requires_identity_start(fam2):
    with pytest.raises(InvalidTrajectoryError):
        sampled_evolution(2, [0.0, 1.0], [[0.9, 1, 1], [0.5, 0.5, 0.5]], fam2)
    with pytest.raises(InvalidTrajectoryError):
        sampled_evolution(2, [0.5, 1.0], [[1, 1, 1], [0.5, 0.5, 0.5]], fam2)
    with pytest.raises(InvalidTrajectoryError):
        sampled_evolution(2, [0.0, 1.0, 1.0], np.ones((3, 3)), fam2)


def test_sampled_interpolates_linearly(fam2):
    spec = sampled_evolution(
        2, [0.0, 2.0], [[1, 1, 1], [0.5, 0.3, 0.1]], fam2
    )
    lam = eigenvalue_trajectory(spec, 1.0).lambdas
    assert np.allclose(lam, [0.75, 0.65, 0.55], atol=1e-14)
    with pytest.raises(OutOfRangeError):
        eigenvalue_trajectory(spec, 2.5)


def test_timeline_zero_rates_constant_ones(fam2):
    spec = exponential_evolution(2, [0, 0, 0], fam2)
    tl = timeline_report(spec, np.linspace(0, 5, 10))
    for col in (tl.f_min, tl.f_max, tl.nu2, tl.nu_inf):
        assert np.allclose(col, 1.0, atol=1e-14)
    assert np.all(tl.fmax_multiplicative)


def test_timeline_hand_value_at_half_life(fam2):
    spec = exponential_evolution(2, [1, 1, 1], fam2)
    t_half = np.log(2) / 2
    tl = timeline_report(spec, [0.0, t_half])
    assert tl.f_max[1] == pytest.approx(0.75, abs=1e-12)
    assert tl.nu_inf[1] == pytest.approx(0.75, abs=1e-12)


def test_timeline_unit_axis_keeps_fmax_one(fam3):
    spec = exponential_evolution(3, [1, 0, 0, 0], fam3)
    tl = timeline_report(spec, np.linspace(0, 5, 50))
    assert np.allclose(tl.f_max, 1.0, atol=1e-14)


def test_timeline_contract_flags_and_equality(fam3, rng):
    spec = exponential_evolution(3, rng.uniform(0, 2, size=4), fam3)
    tl = timeline_report(spec, np.linspace(0, 10, 200))
    assert np.all(tl.f_max == tl.nu_inf)
    assert np.all(tl.fmax_multiplicative)
    assert np.all(tl.nuinf_equals_fmax)
    assert np.all(np.diff(tl.f_max) <= 1e-15)


def test_timeline_matches_metrics_pointwise(fam3, rng):
    from gpchannels import (
        channel_from_eigenvalues,
        fidelity_extremes,
        max_output_2norm,
        max_output_inf_norm,
    )

    spec = exponential_evolution(3, rng.uniform(0, 2, size=4), fam3)
    grid = np.linspace(0, 4, 7)
    tl = timeline_report(spec, grid)
    for i, t in enumerate(grid):
        ch = channel_from_eigenvalues(3, eigenvalue_trajectory(spec, t).lambdas, fam3)
        ext = fidelity_extremes(ch)
        assert tl.f_min[i] == pytest.approx(ext.f_min, abs=1e-12)
        assert tl.f_max[i] == pytest.approx(ext.f_max, abs=1e-12)
        assert tl.nu2[i] == pytest.approx(max_output_2norm(ch), abs=1e-12)
        assert tl.nu_inf[i] == pytest.approx(max_output_inf_norm(ch), abs=1e-12)


def test_timeline_rejects_invalid_trajectory(fam2):
    times = np.array([0.0, 1.0, 2.0])
    lams = np.array([[1, 1, 1], [0.5, 0.5, 0.5], [0.4, -0.05, 0.3]], float)
    spec = sampled_evolution(2, times, lams, fam2)
    with pytest.raises(InvalidTrajectoryError, match="t=2"):
        timeline_report(spec, times)


def test_overflowing_interpolation_is_invalid_trajectory(fam2):
    # both samples are finite, but the line between them leaves the float range
    lams = [[1, 1, 1], [1e308, 1, 1], [-1e308, 1, 1]]
    spec = sampled_evolution(2, [0.0, 1e-300, 1.0], lams, fam2)
    grid = np.linspace(0.0, 0.5, 5)
    for check in (timeline_report, validate_trajectory):
        with pytest.raises(InvalidTrajectoryError, match="not finite at t=0.125"):
            check(spec, grid)


@pytest.mark.parametrize("d", [2, 3])
def test_generator_matrix_exponential_cross_check(d, rng):
    from gpchannels import build_mub_family

    fam = build_mub_family(d)
    spec = exponential_evolution(d, rng.uniform(0, 2, size=d + 1), fam)
    residual = generator_consistency_residual(spec, np.linspace(0.0, 3.0, 10))
    assert residual <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_generator_superoperator_matches_reference_dephasing(d, rng):
    # L[X] = sum_a gamma_a (Phi_a[X] - X), each Phi_a through the reference route
    fam = build_mub_family(d)
    rates = rng.uniform(0, 2, size=d + 1)
    gen = generator_superoperator(exponential_evolution(d, rates, fam))
    for _ in range(10):
        x = random_hermitian(d, rng)
        ref = sum(g * (_dephase(fam.bases[a], x) - x) for a, g in enumerate(rates))
        assert np.max(np.abs(unvec(gen @ vec(x), d) - ref)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_generator_cross_check_flags_perturbed_formula(d, rng, monkeypatch):
    from gpchannels import dynamics

    exact = dynamics._trajectory_grid

    def perturbed(spec, times):  # the last basis's eigenvalue off by a relative 1e-6
        return exact(spec, times) * np.r_[np.ones(d), 1 + 1e-6]

    spec = exponential_evolution(d, rng.uniform(0, 2, size=d + 1))
    monkeypatch.setattr(dynamics, "_trajectory_grid", perturbed)
    assert generator_consistency_residual(spec, np.linspace(0.0, 3.0, 10)) > 1e-8


def test_csv_shape_and_columns(fam2):
    spec = exponential_evolution(2, [1, 1, 1], fam2)
    text = timeline_csv_text(timeline_report(spec, np.linspace(0, 2, 5)))
    lines = text.strip().split("\n")
    assert lines[0] == (
        "t,lambda_1,lambda_2,lambda_3,f_min,f_max,nu2,nu_inf,"
        "fmax_multiplicative,fmin_multiplicative,nuinf_equals_fmax,nuinf_multiplicative"
    )
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == 1.0  # f_max at t=0


def _csv_trajectories(d, rng):
    """Exponential specs (random, all-zero and one zero rate) and one sampled spec."""
    rates = rng.uniform(0.0, 2.0, size=d + 1)
    one_zero = rates.copy()
    one_zero[1] = 0.0
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 4.0, size=5))])
    gam = rng.uniform(0.0, 2.0, size=d + 1)
    # samples of a valid exponential trajectory; linear interpolation stays CPTP
    samples = np.exp(-np.outer(knots, gam.sum() - gam))
    return [
        (exponential_evolution(d, rates), 5.0),
        (exponential_evolution(d, np.zeros(d + 1)), 1.0),
        (exponential_evolution(d, one_zero), 3.0),
        (sampled_evolution(d, knots, samples), float(knots[-1])),
    ]


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_timeline_csv_bytes_match_reference(d):
    rng = np.random.default_rng(1000 + d)
    for spec, t_max in _csv_trajectories(d, rng):
        for steps in (1, 255, 256, 257, 2000):  # around the block size, and one long grid
            tl = timeline_report(spec, np.linspace(0.0, t_max, steps))
            assert timeline_csv_text(tl) == timeline_csv_reference(tl)


def load_evolution_file(path):
    return evolution_from_dict(json.loads(path.read_text()))


def test_evolution_files(tmp_path, fam2):
    exp_path = tmp_path / "exp.json"
    exp_path.write_text(json.dumps({"d": 2, "rates": [1, 1, 1]}))
    spec = load_evolution_file(exp_path)
    assert spec.kind == "exponential"
    traj_path = tmp_path / "traj.json"
    traj_path.write_text(
        json.dumps(
            {
                "d": 2,
                "trajectory": [
                    {"t": 0.0, "lambdas": [1, 1, 1]},
                    {"t": 1.0, "lambdas": [0.5, 0.4, 0.3]},
                ],
            }
        )
    )
    spec2 = load_evolution_file(traj_path)
    assert spec2.kind == "sampled"
    assert np.allclose(eigenvalue_trajectory(spec2, 0.5).lambdas, [0.75, 0.7, 0.65])
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({"d": 2}))
    with pytest.raises(InvalidTrajectoryError):
        load_evolution_file(bad_path)


@pytest.mark.parametrize("payload", [{"d": 3, "rates": [1, 0, 2, 1]},
                                     {"d": 3, "trajectory": [{"t": 0, "lambdas": [1] * 4}]}])
def test_evolution_spec_is_built_over_the_family_passed(payload, fam3):
    # as channel_from_dict: the family a mub_file names comes in as fam
    named = {**payload, "mub_file": "fam3.json"}
    with pytest.raises(MubValidationError, match="no family was passed"):
        evolution_from_dict(named)
    other = MubFamily(d=3, bases=fam3.bases[:, ::-1])
    assert evolution_from_dict(named, other).fam is other
    assert evolution_from_dict(payload).fam is fam3
    with pytest.raises(DimensionMismatchError):
        evolution_from_dict(named, build_mub_family(2))
