"""Spin-1/2 dynamics in a static plus rotating magnetic field, done in CL30.

A spinor is an even CL30 multivector evolving under dpsi/dt =
(gamma/2) e123 B(t) psi with B(t) = b0*e3 + b1*(e1 cos(wt) + sigma e2
sin(wt)).  Transforming to the frame rotating with the drive makes the
field constant, so the propagator is a product of two rotor exponentials,
both evaluated through the closed-form exponential.  The spin-down
probability follows a Rabi law peaked at the resonance sigma*w + w0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Multivector, Signature, blade, geometric_product, grade_select
from .exponential import exp

__all__ = [
    "FieldConfig",
    "RampSweep",
    "ProbabilityTrace",
    "field_at",
    "evolve_spinor",
    "down_probability",
    "down_probability_projected",
    "sweep_ramp",
    "write_trace_csv",
]

_SIG = Signature.CL30
_E13, _E12 = blade(_SIG, "e13"), blade(_SIG, "e12")


@dataclass(frozen=True)
class FieldConfig:
    """Static amplitude b0 along e3, amplitude b1 rotating in the e12 plane
    with angular frequency omega and sense sigma (+1 anticlockwise)."""

    b0: float
    b1: float
    omega: float
    sigma: int
    gamma: float = 1.0

    def __post_init__(self):
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be -1 or +1, got {self.sigma}")

    @property
    def omega0(self) -> float:
        return self.gamma * self.b0

    @property
    def omega1(self) -> float:
        return self.gamma * self.b1


def field_at(cfg: FieldConfig, t: float) -> Multivector:
    """Lab-frame field vector B(t)."""
    wt = cfg.omega * t
    b1 = cfg.b1
    return Multivector(_SIG, (0, b1 * math.cos(wt), cfg.sigma * b1 * math.sin(wt), cfg.b0, 0, 0, 0, 0))


def _rotor(e12: float, e23: float) -> Multivector:
    """The rotor exp(B) of the CL30 bivector B with these e12 and e23 coefficients."""
    return exp(Multivector(_SIG, (0.0, 0.0, 0.0, 0.0, e12, 0.0, e23, 0.0)))


def evolve_spinor(cfg: FieldConfig, t: float, psi0: Multivector) -> Multivector:
    """Spinor at time t from the closed-form rotating-frame solution.

    ``psi0`` must be unit-normalized (psi0 * reverse(psi0) = 1).  The
    alpha -> 0 resonance limit needs no special handling: the bivector
    exponential already degrades to 1 + B t/2 there.
    """
    norm = geometric_product(psi0, psi0.reverse())
    if abs(norm.t[0] - 1.0) > 1e-10 or max(map(abs, norm.t[1:])) > 1e-10:
        raise ValueError("psi0 is not unit-normalized")
    # S(t) = exp(-sigma e12 w t / 2) times the propagator exp((e23 w1 + e12 (w0 + sigma w)) t / 2).
    frame = _rotor(-0.5 * cfg.sigma * cfg.omega * t, 0.0)
    step = _rotor(0.5 * (cfg.omega0 + cfg.sigma * cfg.omega) * t, 0.5 * cfg.omega1 * t)
    return geometric_product(geometric_product(frame, step), psi0)


def down_probability(cfg: FieldConfig, t: float) -> float:
    """Probability of measuring spin-down at time t, starting from spin-up.

    Closed form (w1 * sin(t*sqrt((sigma w + w0)^2 + w1^2)/2))^2 / ((sigma w
    + w0)^2 + w1^2): a Rabi oscillation whose amplitude peaks at resonance.
    """
    w0, w1 = cfg.omega0, cfg.omega1
    alpha = math.hypot(cfg.sigma * cfg.omega + w0, w1)
    if alpha == 0.0:
        return 0.0
    return (w1 * math.sin(0.5 * alpha * t) / alpha) ** 2


def _project_down(psi: Multivector) -> float:
    """P = psi_down * reverse(psi_down) with psi_down read off by grade
    projection onto the down eigenstate e13."""
    s = grade_select(geometric_product(_E13, psi), 0).t[0]
    c = grade_select(geometric_product(geometric_product(_E13, psi), _E12), 0).t[0]
    return s * s + c * c


def down_probability_projected(cfg: FieldConfig, t: float) -> float:
    """Spin-down probability via spinor evolution and grade projection."""
    psi = evolve_spinor(cfg, t, Multivector.scalar(_SIG, 1.0))
    return _project_down(psi)


@dataclass(frozen=True)
class RampSweep:
    """Linear ramp of the static field over a time span at fixed drive."""

    b0_start: float
    b0_end: float
    duration: float
    samples: int
    omega: float
    omega1: float
    gamma: float = 1.0

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.samples}")

    @cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only sample times and static-field values, computed once and
        shared by every trace of this ramp."""
        times = np.linspace(0.0, self.duration, self.samples)
        b0 = np.linspace(self.b0_start, self.b0_end, self.samples)
        times.flags.writeable = False
        b0.flags.writeable = False
        return times, b0


@dataclass(frozen=True)
class ProbabilityTrace:
    times: np.ndarray
    b0: np.ndarray
    p_down: np.ndarray

    def __post_init__(self):
        for name in ("times", "b0", "p_down"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (len(self.times) == len(self.b0) == len(self.p_down)):
            raise ValueError("trace arrays must have equal length")
        if self.p_down.size and (
            self.p_down.min() < -1e-12 or self.p_down.max() > 1.0 + 1e-12
        ):
            raise ValueError("probabilities out of [0, 1]")


def sweep_ramp(sweep: RampSweep, sigma: int, method: str = "closed") -> ProbabilityTrace:
    """Spin-down trace along the ramp.

    ``closed`` evaluates the constant-field Rabi law at each sample's b0,
    with t from the ramp start: a resonance curve, not a solution of the
    ramp ODE (0.63–0.68 off it in p).  ``stepped`` holds b0 at the left end
    of each interval, a first-order solver of that ODE: 2.43e-3 off
    ``solve_ivp`` in p on the paper ramp.
    """
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be -1 or +1, got {sigma}")
    times, b0 = sweep.grid

    if method == "closed":
        detune = sigma * sweep.omega + sweep.gamma * b0
        alpha = np.hypot(detune, sweep.omega1)
        p = np.zeros_like(times)
        mask = alpha > 0.0
        p[mask] = (sweep.omega1 * np.sin(0.5 * alpha[mask] * times[mask]) / alpha[mask]) ** 2
        return ProbabilityTrace(times, b0, p)

    if method != "stepped":
        raise ValueError(f"method must be 'closed' or 'stepped', got {method!r}")

    w1 = sweep.omega1
    ts, p = times.tolist(), np.zeros_like(times)
    chi = Multivector.scalar(_SIG, 1.0)
    for k, b in enumerate(b0.tolist()):
        psi = geometric_product(_rotor(-0.5 * sigma * sweep.omega * ts[k], 0.0), chi)
        p[k] = min(_project_down(psi), 1.0)
        if k + 1 < sweep.samples:
            dt = ts[k + 1] - ts[k]
            e12 = 0.5 * (sweep.gamma * b + sigma * sweep.omega) * dt
            chi = geometric_product(_rotor(e12, 0.5 * w1 * dt), chi)
    return ProbabilityTrace(times, b0, p)


def write_trace_csv(trace: ProbabilityTrace, fileobj) -> None:
    """Write ``t,b0,p_down`` rows at full double precision, LF-terminated."""
    fileobj.write("t,b0,p_down\n")
    for t, b, p in zip(trace.times, trace.b0, trace.p_down):
        fileobj.write(f"{t:.17g},{b:.17g},{p:.17g}\n")
