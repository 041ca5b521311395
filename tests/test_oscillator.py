import math

import numpy as np
import numpy.testing as npt
import pytest

from fem_surrogate.errors import InvalidParams, UnboundedResonance
from fem_surrogate import oscillator as osc


def params(m=1.0, c=0.1, k=1.0, f0=1.0):
    return osc.OscillatorParams(m, c, k, f0)


def test_static_limit_is_f0_over_k():
    for m, c, k, f0 in [(1.0, 0.1, 1.0, 1.0), (2.5, 0.3, 40.0, 7.0)]:
        assert osc.amplitude(params(m, c, k, f0), 0.0) == pytest.approx(f0 / k, rel=1e-15)
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = params(rng.uniform(0.1, 10.0), rng.uniform(0.0, 5.0),
                   rng.uniform(0.1, 1e4), rng.uniform(0.0, 100.0))
        assert osc.amplitude(p, 0.0) == pytest.approx(
            p.force_amplitude / p.stiffness, rel=1e-14)


def test_resonance_collapses_to_f0_over_c_omega0():
    # drive exactly at w0 = 1 rad/s: A = F0 / (c * w0) = 10
    a = osc.amplitude(params(), 1.0 / (2.0 * math.pi))
    assert a == pytest.approx(10.0, rel=1e-12)


def test_amplitude_at_two_rad_per_second():
    # A = 1 / sqrt((1 - 4)^2 + (0.1 * 2)^2) = 1 / sqrt(9.04) ~ 0.33260
    # (checked against the time-integration oracle below)
    a = osc.amplitude(params(), 2.0 / (2.0 * math.pi))
    assert a == pytest.approx(1.0 / math.sqrt(9.04), rel=1e-12)
    assert a == pytest.approx(0.33260, abs=5e-6)


def test_oracle_confirms_closed_form_at_spec_points():
    p = params()
    f = 2.0 / (2.0 * math.pi)
    assert osc.steady_state_oracle(p, f, cycles=200) == pytest.approx(
        osc.amplitude(p, f), rel=1e-3)
    p2 = params(1.0, 0.5, 4.0, 2.0)
    f2 = 1.0 / (2.0 * math.pi)
    assert osc.steady_state_oracle(p2, f2) == pytest.approx(
        osc.amplitude(p2, f2), rel=1e-3)


def test_oracle_zero_forcing_returns_zero():
    assert osc.steady_state_oracle(params(f0=0.0), 0.5) == 0.0


def test_oracle_matches_closed_form_for_random_params():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.uniform(0.5, 3.0)
        k = rng.uniform(5.0, 60.0)
        zeta = rng.uniform(0.05, 0.3)
        c = 2.0 * zeta * math.sqrt(k * m)
        f0 = rng.uniform(0.5, 5.0)
        p = osc.OscillatorParams(m, c, k, f0)
        w0 = p.omega0
        f = rng.uniform(0.3, 2.0) * w0 / (2.0 * math.pi)
        # enough cycles for the transient to decay below 1e-4 of the response
        cycles = max(60, int(math.ceil(2.5 * (2.0 * math.pi * f / w0) / zeta)))
        a_num = osc.steady_state_oracle(p, f, cycles=cycles, steps_per_cycle=150)
        a_ref = osc.amplitude(p, f)
        assert abs(a_num - a_ref) / a_ref < 1e-3


def test_sweep_matches_pointwise_amplitude():
    p = params(1.0, 0.2, 986.96, 1.0)
    grid = osc.FrequencyGrid.uniform(0.1, 10.0, 25)
    amps = osc.sweep_oscillator(p, grid)
    assert amps.shape == (25, 1)
    for f, a in zip(grid.values, amps[:, 0]):
        assert a == osc.amplitude(p, float(f))


def test_sweep_single_point_static():
    p = params(2.0, 0.1, 8.0, 4.0)
    amps = osc.sweep_oscillator(p, osc.FrequencyGrid(np.array([0.0])))
    assert amps.shape == (1, 1)
    assert amps[0, 0] == pytest.approx(0.5, rel=1e-15)


def test_sweep_peak_lands_within_one_grid_step():
    p = osc.DEFAULT_PARAMS
    grid = osc.default_grid()
    amps = osc.sweep_oscillator(p, grid)[:, 0]
    step = grid.values[1] - grid.values[0]
    assert abs(grid.values[np.argmax(amps)] - osc.peak_frequency_hz(p)) <= step


def test_amplitude_has_unique_interior_maximum():
    p = params(1.0, 0.4, 9.0, 1.0)
    w_peak = 2.0 * math.pi * osc.peak_frequency_hz(p)
    expected = math.sqrt(p.omega0 ** 2 - p.damping ** 2 / (2.0 * p.mass ** 2))
    assert w_peak == pytest.approx(expected, rel=1e-15)
    f_peak = w_peak / (2.0 * math.pi)
    a_peak = osc.amplitude(p, f_peak)
    for off in (0.9, 0.95, 1.05, 1.1):
        assert osc.amplitude(p, off * f_peak) < a_peak


def test_amplitude_invariant_under_common_scaling():
    rng = np.random.default_rng(4)
    p = params(1.3, 0.2, 11.0, 2.0)
    for s in rng.uniform(0.1, 10.0, size=5):
        ps = osc.OscillatorParams(s * p.mass, s * p.damping, s * p.stiffness,
                                  s * p.force_amplitude)
        for f in (0.0, 0.2, 0.53, 1.0):
            npt.assert_allclose(osc.amplitude(ps, f), osc.amplitude(p, f), rtol=1e-12)


def test_undamped_resonance_raises():
    p = params(c=0.0)
    f_res = 1.0 / (2.0 * math.pi)
    with pytest.raises(UnboundedResonance):
        osc.amplitude(p, f_res)
    # off resonance the undamped formula is fine
    assert osc.amplitude(p, 2.0 * f_res) > 0.0


def test_sweep_annotates_offending_frequency():
    p = params(c=0.0)
    f_res = 1.0 / (2.0 * math.pi)
    grid = osc.FrequencyGrid(np.array([0.01, f_res]))
    with pytest.raises(UnboundedResonance, match="sweep failed at"):
        osc.sweep_oscillator(p, grid)


def test_invalid_params_rejected():
    with pytest.raises(InvalidParams):
        osc.OscillatorParams(0.0, 0.1, 1.0, 1.0)
    with pytest.raises(InvalidParams):
        osc.OscillatorParams(1.0, -0.1, 1.0, 1.0)
    with pytest.raises(InvalidParams):
        osc.OscillatorParams(1.0, 0.1, -1.0, 1.0)
    with pytest.raises(InvalidParams):
        osc.amplitude(params(), -1.0)


def test_oracle_preconditions():
    with pytest.raises(InvalidParams):
        osc.steady_state_oracle(params(c=0.0), 1.0)
    with pytest.raises(InvalidParams):
        osc.steady_state_oracle(params(), 1.0, cycles=10)
    with pytest.raises(InvalidParams):
        osc.steady_state_oracle(params(), 1.0, steps_per_cycle=50)


def test_grid_validation():
    with pytest.raises(InvalidParams):
        osc.FrequencyGrid(np.array([1.0, 1.0]))
    with pytest.raises(InvalidParams):
        osc.FrequencyGrid(np.array([-1.0, 1.0]))
    with pytest.raises(InvalidParams):
        osc.FrequencyGrid(np.array([0.0, np.inf]))
    grid = osc.FrequencyGrid.uniform(0.1, 10.0, 200)
    assert len(grid) == 200
    assert grid.values[0] == 0.1 and grid.values[-1] == 10.0
