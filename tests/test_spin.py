"""Rotating-field spin dynamics: frame identity, oracles, sweeps, CSV."""

import io
import math

import numpy as np
import pytest

from cl3 import (
    FieldConfig,
    Multivector,
    ProbabilityTrace,
    RampSweep,
    Signature,
    blade,
    down_probability,
    down_probability_projected,
    evolve_spinor,
    field_at,
    geometric_product,
    sweep_ramp,
    write_trace_csv,
)
from cl3.spin import _rotor
from conftest import max_err

CL30 = Signature.CL30
UP = Multivector.scalar(CL30, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(b0=1.0, b1=0.1, omega=1.0, sigma=0)
    with pytest.raises(ValueError):
        RampSweep(-2, 2, 500, 1, omega=1.0, omega1=0.05)
    with pytest.raises(ValueError):
        sweep_ramp(RampSweep(-2, 2, 500, 10, omega=1.0, omega1=0.05), sigma=2)


def test_field_vector():
    cfg = FieldConfig(b0=0.5, b1=0.2, omega=2.0, sigma=1)
    b = field_at(cfg, 0.0)
    assert b.c.tolist() == [0, 0.2, 0, 0.5, 0, 0, 0, 0]


def test_rotating_frame_makes_field_static(rng):
    for sigma in (-1, 1):
        cfg = FieldConfig(b0=0.7, b1=0.3, omega=1.3, sigma=sigma)
        want = np.zeros(8)
        want[1], want[3] = cfg.b1, cfg.b0
        for t in rng.uniform(0.0, 25.0, 20):
            rotor = _rotor(-0.5 * cfg.sigma * cfg.omega * t, 0.0)
            frame_field = rotor.reverse() * field_at(cfg, t) * rotor
            assert max_err(frame_field, want) <= 1e-12


def test_time_zero_is_identity():
    cfg = FieldConfig(b0=1.2, b1=0.3, omega=0.9, sigma=-1)
    assert max_err(evolve_spinor(cfg, 0.0, UP), UP) == 0.0
    assert down_probability(cfg, 0.0) == 0.0


def test_spinor_norm_preserved(rng):
    for _ in range(20):
        cfg = FieldConfig(
            b0=rng.uniform(-2, 2), b1=rng.uniform(0, 1),
            omega=rng.uniform(0.1, 3), sigma=int(rng.choice([-1, 1])),
        )
        t = rng.uniform(0, 50)
        psi = evolve_spinor(cfg, t, UP)
        norm = geometric_product(psi, psi.reverse())
        assert abs(norm.c[0] - 1.0) <= 1e-10
        assert np.abs(norm.c[1:]).max() <= 1e-10


def test_rejects_unnormalized_state():
    cfg = FieldConfig(b0=1.0, b1=0.1, omega=1.0, sigma=1)
    with pytest.raises(ValueError):
        evolve_spinor(cfg, 1.0, Multivector.scalar(CL30, 2.0))


def _rk4_evolve(cfg, t_end, dt=1e-3):
    i_mv = blade(CL30, "e123")

    def rhs(t, psi):
        return (i_mv * field_at(cfg, t) * psi) * (0.5 * cfg.gamma)

    psi = UP
    steps = round(t_end / dt)
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, psi)
        k2 = rhs(t + dt / 2, psi + k1 * (dt / 2))
        k3 = rhs(t + dt / 2, psi + k2 * (dt / 2))
        k4 = rhs(t + dt, psi + k3 * dt)
        psi = psi + (k1 + k2 * 2 + k3 * 2 + k4) * (dt / 6)
        t += dt
    return psi


@pytest.mark.parametrize(
    "cfg",
    [
        FieldConfig(b0=0.8, b1=0.25, omega=1.0, sigma=-1),
        FieldConfig(b0=-0.4, b1=0.6, omega=1.7, sigma=1, gamma=1.3),
    ],
)
def test_closed_form_matches_integrated_equation(cfg):
    t_end = 5.0
    assert max_err(evolve_spinor(cfg, t_end, UP), _rk4_evolve(cfg, t_end)) <= 1e-6


def test_resonant_rabi_oscillation():
    cfg = FieldConfig(b0=1.0, b1=0.05, omega=1.0, sigma=-1)  # sigma*w + w0 = 0
    for t in np.linspace(0.0, 500.0, 1001):
        assert abs(down_probability(cfg, t) - math.sin(0.05 * t / 2) ** 2) < 1e-10
    assert abs(down_probability(cfg, math.pi / 0.05) - 1.0) < 1e-12
    # Undriven at resonance the Rabi frequency alpha is 0, and so is p.
    assert down_probability(FieldConfig(b0=1.0, b1=0.0, omega=1.0, sigma=-1), 7.0) == 0.0


def test_off_resonance_amplitude():
    cfg = FieldConfig(b0=0.6, b1=0.1, omega=1.0, sigma=1)
    detune = cfg.sigma * cfg.omega + cfg.omega0
    alpha = math.hypot(detune, cfg.omega1)
    bound = cfg.omega1**2 / alpha**2
    t_peak = math.pi / alpha
    assert abs(down_probability(cfg, t_peak) - bound) < 1e-12
    for t in np.linspace(0.0, 200.0, 400):
        assert down_probability(cfg, t) <= bound + 1e-12


def test_projection_path_agrees(rng):
    for _ in range(15):
        cfg = FieldConfig(
            b0=rng.uniform(-2, 2), b1=rng.uniform(0, 0.8),
            omega=rng.uniform(0.2, 2), sigma=int(rng.choice([-1, 1])),
        )
        t = rng.uniform(0, 40)
        assert abs(down_probability(cfg, t) - down_probability_projected(cfg, t)) <= 1e-9


def test_sweep_zero_drive_is_flat():
    sweep = RampSweep(-2, 2, 500, 101, omega=1.0, omega1=0.0)
    trace = sweep_ramp(sweep, -1)
    assert trace.p_down.max() == 0.0


@pytest.mark.parametrize("sigma", [-1, 1])
def test_sweep_peak_sits_at_resonance(sigma):
    sweep = RampSweep(-2.0, 2.0, 500.0, 5001, omega=1.0, omega1=0.05)
    trace = sweep_ramp(sweep, sigma)
    k = int(np.argmax(trace.p_down))
    b0_res = -sigma * sweep.omega
    assert abs(trace.b0[k] - b0_res) <= 0.1
    # the resonance cluster dominates everything outside the window
    window = np.abs(trace.b0 - b0_res) <= 0.1
    assert trace.p_down[~window].max() < 0.5 * trace.p_down[k]


@pytest.mark.parametrize("sigma", [-1, 1])
def test_closed_sweep_is_the_rabi_law_at_every_sample(sigma):
    # The paper's ramp: each closed sample is down_probability at its own b0 and t.
    sweep = RampSweep(-2.0, 2.0, 500.0, 5000, omega=1.0, omega1=0.05)
    trace = sweep_ramp(sweep, sigma, "closed")
    want = [down_probability(FieldConfig(b, sweep.omega1, sweep.omega, sigma), t)
            for t, b in zip(trace.times.tolist(), trace.b0.tolist())]
    assert np.abs(trace.p_down - want).max() <= 1e-12


def test_sweep_peaks_mirror_between_senses():
    sweep = RampSweep(-2.0, 2.0, 500.0, 5001, omega=1.0, omega1=0.05)
    minus = sweep_ramp(sweep, -1)
    plus = sweep_ramp(sweep, 1)
    b_minus = minus.b0[int(np.argmax(minus.p_down))]
    b_plus = plus.b0[int(np.argmax(plus.p_down))]
    assert b_minus > 0.9 and b_plus < -0.9
    assert abs(b_minus + b_plus) <= 0.12


def test_sweep_peak_height_matches_local_phase():
    sweep = RampSweep(-2.0, 2.0, 500.0, 5001, omega=1.0, omega1=0.05)
    trace = sweep_ramp(sweep, -1)
    k = int(np.argmin(np.abs(trace.b0 - 1.0)))  # exact-resonance sample
    t_res = trace.times[k]
    assert abs(trace.p_down[k] - math.sin(sweep.omega1 * t_res / 2) ** 2) < 1e-10


def test_stepped_sweep_cross_check():
    sweep = RampSweep(-2.0, 2.0, 500.0, 2001, omega=1.0, omega1=0.05)
    trace = sweep_ramp(sweep, -1, method="stepped")
    k = int(np.argmax(trace.p_down))
    assert abs(trace.b0[k] - 1.0) <= 0.25
    assert trace.p_down.max() <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        sweep_ramp(sweep, -1, method="adiabatic")


@pytest.mark.parametrize("gamma", [1.0, 1.3])
@pytest.mark.parametrize("sigma", [-1, 1])
@pytest.mark.parametrize("resonant", [True, False])
def test_stepped_sweep_on_a_flat_ramp_is_the_rabi_law(sigma, gamma, resonant):
    # With b0 held fixed the field is constant in the rotating frame, so
    # every step is exact and the stepped trace is down_probability.
    omega, omega1 = 1.0, 0.3
    b0 = -sigma * omega / gamma if resonant else 0.4
    sweep = RampSweep(b0, b0, 40.0, 2001, omega=omega, omega1=omega1, gamma=gamma)
    trace = sweep_ramp(sweep, sigma, method="stepped")
    cfg = FieldConfig(b0, omega1 / gamma, omega, sigma, gamma)
    want = [down_probability(cfg, t) for t in trace.times.tolist()]
    assert np.abs(trace.p_down - want).max() <= 1e-12


def test_trace_validation():
    with pytest.raises(ValueError):
        ProbabilityTrace(np.zeros(3), np.zeros(3), np.array([0.0, 0.5, 1.5]))
    with pytest.raises(ValueError):
        ProbabilityTrace(np.zeros(3), np.zeros(2), np.zeros(3))


def test_csv_format_and_roundtrip():
    sweep = RampSweep(0.0, 1.0, 10.0, 5, omega=1.0, omega1=0.3)
    trace = sweep_ramp(sweep, 1)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == "t,b0,p_down"
    assert len(lines) == 7 and lines[-1] == ""
    assert "\r" not in text
    for line, t, b, p in zip(lines[1:6], trace.times, trace.b0, trace.p_down):
        ft, fb, fp = (float(v) for v in line.split(","))
        assert (ft, fb, fp) == (t, b, p)


def test_traces_share_the_ramp_grid():
    sweep = RampSweep(-2.0, 2.0, 500.0, 11, omega=1.0, omega1=0.05)
    stepped = sweep_ramp(sweep, -1, method="stepped")
    closed = sweep_ramp(sweep, -1, method="closed")
    assert stepped.times is closed.times is sweep.grid[0]
    assert stepped.b0 is closed.b0 is sweep.grid[1]
    assert not stepped.times.flags.writeable and not stepped.b0.flags.writeable
    assert stepped.times.tolist() == np.linspace(0.0, 500.0, 11).tolist()
