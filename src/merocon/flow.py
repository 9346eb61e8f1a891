# Numerical integration of the geodesic field on the line-bundle total space
# over P^1, with chart switching, event detection, loop geometry and
# omega-limit classification.
#
# State per chart: (zeta, v) with dzeta/dt = X(zeta) v, dv/dt = -Y(zeta) v^2.
# A third component w accumulates int Y(zeta) v dt, so exp(w) v stays constant
# along exact trajectories (horizontal first integral); its drift is the main
# accuracy diagnostic.  The stepper is FSAL Dormand-Prince 5(4), six RHS
# evaluations per step.
#
# The omega tests read the samples as one numpy array of sphere points
# (_sphere_array, equal to ChartState.sphere bit for bit).  Before the
# crossing search, integrate asks a Gauss-Bonnet certificate (_cannot_cross)
# whether the geodesic can cross itself at all, and skips the search when it
# cannot.  Winding on P^1 has one primitive (_arg_steps): the arg increments
# of det(sigma, p) / det(sigma, q) on homogeneous sample coordinates, which
# both the certificate and a loop's enclosed poles (_enclosed_poles) sum.

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .fields import CHART_INF, CHART_ZERO, ConnectionData, ProjPoint, chordal, sphere
from .germs import APPARENT

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5);
# the field is autonomous, so the nodes c_i are not needed.  Row 7 of A is the
# 5th-order weight vector b (first same as last), and a72 = b2 = b7 = 0.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# embedded 4th-order weights; bh2 = 0
_BH1, _BH3, _BH4, _BH5, _BH6, _BH7 = (
    5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40
)

SWITCH_OUT = 1.5  # leave the chart beyond this |zeta|
STRIDE_REL = 0.02  # the step cap grows like this fraction of |t|
RETURN_RADIUS = 2e-3  # chordal closed-return capture
MAX_CROSSINGS = 4000  # candidate crossings refined per trajectory, earliest first
MIN_CROSSING_ANGLE = 0.02  # smallest |external angle| of a reported crossing
LOOP_CLOSURE_TOL = 5e-2  # chordal gap allowed between a loop's endpoints
CROSSING_ARG_MARGIN = 0.5  # radians the crossing certificate keeps below 2 pi

EV_POLE = "pole_approach"
EV_ESCAPE = "escape"
EV_BLOWUP = "blow_up_time"
EV_SWITCH = "chart_switch"
EV_CROSSING = "self_intersection"
EV_RETURN = "closed_return"

OMEGA_POLE = "pole"
OMEGA_CLOSED = "closed"
OMEGA_ACC_CLOSED = "accumulates_closed"
OMEGA_CYCLE = "cycle_candidate"
OMEGA_INFINITE = "infinitely_self_intersecting"
OMEGA_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ChartState:
    chart: str
    zeta: complex
    v: complex
    t: float

    def point(self) -> ProjPoint:
        return ProjPoint.make(self.chart, self.zeta)

    def sphere(self) -> tuple[float, float, float]:
        return sphere(self.chart, self.zeta)


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    t_max: float = 50.0
    escape_radius: float = 1e6
    pole_radius: float = 1e-3
    max_steps: int = 400_000
    record_stride: float = 0.05
    zeta_escape_radius: float = 4.0  # single-chart models only
    two_sided: bool = False
    classify: bool = True

    def __post_init__(self) -> None:
        for name in (
            "rel_tol",
            "abs_tol",
            "t_max",
            "escape_radius",
            "pole_radius",
            "record_stride",
            "zeta_escape_radius",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rel_tol < 1e-13:
            raise ValueError("rel_tol below 1e-13 is not honored by the scheme")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class Event:
    kind: str
    t: float
    direction: Optional[ProjPoint] = None
    t1: Optional[float] = None
    t2: Optional[float] = None
    point: Optional[ProjPoint] = None
    external_angle: Optional[float] = None
    enclosed: tuple[int, ...] = ()
    residue_sum: Optional[complex] = None
    angle_residual: Optional[float] = None
    multiplier: Optional[complex] = None
    simple: Optional[bool] = None
    resolved: bool = True


@dataclass
class Trajectory:
    """A sampled curve with its events and ω-limit class.

    ``diagnostics`` of a one-sided run holds ``stop`` (why integration
    ended), ``steps`` (loop passes: every attempted step, plus the final pass
    that finds t_max reached), ``accepted`` and ``rejected`` steps, and
    ``rhs_evals``, the evaluations of the geodesic field made by the stepper.
    A two-sided run holds ``forward_stop`` and ``backward_stop``.  ω
    classification adds its own keys.
    """

    samples: list[ChartState]
    events: list[Event]
    invariant_drift: float
    drifts: list[float] = field(default_factory=list)  # running max per sample
    omega_class: str = OMEGA_UNDETERMINED
    omega_direction: Optional[ProjPoint] = None
    diagnostics: dict = field(default_factory=dict)

    def sample_times(self) -> list[float]:
        return [s.t for s in self.samples]

    def terminal(self) -> ChartState:
        return self.samples[-1]


# ---------------------------------------------------------------------------
# lifting C^2 initial data
# ---------------------------------------------------------------------------

def lift_nu_polar(w: tuple[complex, complex], nu: int) -> ChartState:
    """nu-polar lift: chart by the larger coordinate, fiber value w_j^nu."""
    w1, w2 = complex(w[0]), complex(w[1])
    if w1 == 0 and w2 == 0:
        raise ValueError("cannot lift the origin")
    if abs(w2) <= abs(w1):
        return ChartState(CHART_ZERO, w2 / w1, w1**nu, 0.0)
    return ChartState(CHART_INF, w1 / w2, w2**nu, 0.0)


def chart_transition(state: ChartState, nu: int) -> ChartState:
    """Exact transition zeta -> 1/zeta, v -> zeta^nu v."""
    new_chart = CHART_INF if state.chart == CHART_ZERO else CHART_ZERO
    return ChartState(new_chart, 1.0 / state.zeta, state.zeta**nu * state.v, state.t)


def unlift(state: ChartState, nu: int) -> tuple[complex, complex]:
    """One nu-polar preimage of the state (principal root of the fiber)."""
    root = state.v ** (1.0 / nu) if nu > 1 else state.v
    if state.chart == CHART_ZERO:
        return (root, state.zeta * root)
    return (state.zeta * root, root)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def geodesic_rhs(state: ChartState, cd: ConnectionData) -> tuple[complex, complex]:
    x, y = cd.chart_polys(state.chart)
    return _rhs3(x, y, state.zeta, state.v)[:2]


def _rhs3(
    x: Sequence[complex], y: Sequence[complex], z: complex, v: complex
) -> tuple[complex, complex, complex]:
    xv = yv = 0j
    for a in reversed(x):
        xv = xv * z + a
    for a in reversed(y):
        yv = yv * z + a
    yvv = yv * v
    return (xv * v, -yvv * v, yvv)


def _dp_step(
    x: Sequence[complex],
    y: Sequence[complex],
    z: complex,
    v: complex,
    w: complex,
    h: float,
    k1: tuple[complex, complex, complex],
    abs_tol: float,
    rel_tol: float,
):
    """One Dormand-Prince 5(4) attempt from (z, v, w), given stage 1 at (z, v).

    Returns (z5, v5, w5, err, k7, evals).  k7 is the RHS at (z5, v5), handed
    on as the next step's stage 1, or None when it is not that value; evals
    counts the stages evaluated.  A stage that is not finite gives err = inf
    and no state.  Every sum runs left to right in the tableau's order,
    z + (h a_i1) k1 + (h a_i2) k2 + ..., which fixes its rounding.
    """
    # kz - kz == 0 holds iff both parts of kz are finite
    k1z, k1v, k1w = k1
    if not (k1z - k1z == 0 and k1v - k1v == 0):
        return None, None, None, math.inf, None, 0
    a1 = h * _A21
    k2z, k2v, k2w = _rhs3(x, y, z + a1 * k1z, v + a1 * k1v)
    if not (k2z - k2z == 0 and k2v - k2v == 0):
        return None, None, None, math.inf, None, 1
    a1, a2 = h * _A31, h * _A32
    k3z, k3v, k3w = _rhs3(x, y, z + a1 * k1z + a2 * k2z, v + a1 * k1v + a2 * k2v)
    if not (k3z - k3z == 0 and k3v - k3v == 0):
        return None, None, None, math.inf, None, 2
    a1, a2, a3 = h * _A41, h * _A42, h * _A43
    k4z, k4v, k4w = _rhs3(
        x, y, z + a1 * k1z + a2 * k2z + a3 * k3z, v + a1 * k1v + a2 * k2v + a3 * k3v
    )
    if not (k4z - k4z == 0 and k4v - k4v == 0):
        return None, None, None, math.inf, None, 3
    a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5z, k5v, k5w = _rhs3(
        x,
        y,
        z + a1 * k1z + a2 * k2z + a3 * k3z + a4 * k4z,
        v + a1 * k1v + a2 * k2v + a3 * k3v + a4 * k4v,
    )
    if not (k5z - k5z == 0 and k5v - k5v == 0):
        return None, None, None, math.inf, None, 4
    a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6z, k6v, k6w = _rhs3(
        x,
        y,
        z + a1 * k1z + a2 * k2z + a3 * k3z + a4 * k4z + a5 * k5z,
        v + a1 * k1v + a2 * k2v + a3 * k3v + a4 * k4v + a5 * k5v,
    )
    if not (k6z - k6z == 0 and k6v - k6v == 0):
        return None, None, None, math.inf, None, 5
    b1, b3, b4, b5, b6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    z5 = z + b1 * k1z + b3 * k3z + b4 * k4z + b5 * k5z + b6 * k6z
    v5 = v + b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v
    k7 = _rhs3(x, y, z5, v5)
    k7z, k7v, k7w = k7
    if not (k7z - k7z == 0 and k7v - k7v == 0):
        return None, None, None, math.inf, None, 6
    w5 = w + b1 * k1w + b3 * k3w + b4 * k4w + b5 * k5w + b6 * k6w
    # The zero weights b2 = b7 = 0 leave every value as it is, but adding
    # their (signed) zero terms can flip the sign of a zero part: there the
    # sum is taken with them, as the tableau states it.
    if not (z5.real and z5.imag and v5.real and v5.imag):
        z5 = z + b1 * k1z + 0.0 * k2z + b3 * k3z + b4 * k4z + b5 * k5z + b6 * k6z + 0.0 * k7z
        v5 = v + b1 * k1v + 0.0 * k2v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v + 0.0 * k7v
        k7 = None
    if not (w5.real and w5.imag):
        w5 = w + b1 * k1w + 0.0 * k2w + b3 * k3w + b4 * k4w + b5 * k5w + b6 * k6w + 0.0 * k7w
    a1, a3, a4, a5, a6, a7 = h * _BH1, h * _BH3, h * _BH4, h * _BH5, h * _BH6, h * _BH7
    z4 = z + a1 * k1z + a3 * k3z + a4 * k4z + a5 * k5z + a6 * k6z + a7 * k7z
    v4 = v + a1 * k1v + a3 * k3v + a4 * k4v + a5 * k5v + a6 * k6v + a7 * k7v
    sc_z = abs_tol + rel_tol * max(abs(z), abs(z5))
    sc_v = abs_tol + rel_tol * max(abs(v), abs(v5))
    err = math.sqrt(0.5 * ((abs(z5 - z4) / sc_z) ** 2 + (abs(v5 - v4) / sc_v) ** 2))
    return z5, v5, w5, err, k7, 6


# ---------------------------------------------------------------------------
# the integrator
# ---------------------------------------------------------------------------

def integrate(cd: ConnectionData, init: ChartState, cfg: IntegratorConfig) -> Trajectory:
    """Adaptive embedded RK5(4) integration of the geodesic field.

    Stops at t_max, pole approach (chordal distance below pole_radius with
    decreasing speed, non-apparent directions only), escape (|v| beyond the
    escape radius, or |zeta| beyond the model window for single-chart data,
    or a detected finite-time blow-up), a closed return, or the step budget.
    """
    if init.v == 0:
        raise ValueError("initial state lies on the zero section")
    if cfg.two_sided:
        if init.t != 0.0:
            raise ValueError("maximal (two-sided) integration anchors at t = 0")
        fwd = integrate(cd, init, replace(cfg, two_sided=False, classify=False))
        back_raw = integrate(
            cd.negated(), init, replace(cfg, two_sided=False, classify=False)
        )
        samples = [replace(s, t=-s.t) for s in back_raw.samples[::-1]]
        drifts = back_raw.drifts[::-1]
        events = [
            replace(
                e,
                t=-e.t,
                t1=None if e.t2 is None else -e.t2,
                t2=None if e.t1 is None else -e.t1,
            )
            for e in back_raw.events[::-1]
        ]
        samples.extend(fwd.samples[1:])
        drifts.extend(fwd.drifts[1:])
        events.extend(fwd.events)
        traj = Trajectory(
            samples,
            events,
            max(fwd.invariant_drift, back_raw.invariant_drift),
            drifts,
            diagnostics={"forward_stop": fwd.diagnostics.get("stop"),
                         "backward_stop": back_raw.diagnostics.get("stop")},
        )
        if cfg.classify:
            _classify_into(traj, cd, cfg)
        return traj

    pole_pts = [
        (*d.point.sphere(), d.point)
        for d in cd.directions
        if d.sing_class != APPARENT
    ]
    chart = init.chart
    if cd.single_chart and chart != CHART_ZERO:
        raise ValueError("model connections live in a single chart")
    single = cd.single_chart
    t_max, abs_tol, rel_tol = cfg.t_max, cfg.abs_tol, cfg.rel_tol
    pole_radius, escape_radius = cfg.pole_radius, cfg.escape_radius
    record_stride = cfg.record_stride
    sqrt = math.sqrt
    z, v, t = init.zeta, init.v, init.t
    w = 0j
    v_ref = v
    drift = 0.0
    drifts = [0.0]
    samples = [ChartState(chart, z, v, t)]
    events: list[Event] = []
    stop = None

    h = min(record_stride, 1e-3)
    prev_speed = None
    recent_v: deque[float] = deque([abs(v)], maxlen=10)
    sx0, sy0, sz0 = sphere(chart, z)
    px, py, pz = sx0, sy0, sz0
    excursion = 0.0
    returned_arm = False
    return_pending: Optional[int] = None

    x, y = cd.chart_polys(chart)
    # stage 1 at (z, v): each accepted step hands on its stage 7 (FSAL); a
    # chart switch, or a step that cannot hand it on, leaves a fresh evaluation
    k1 = _rhs3(x, y, z, v)
    steps = accepted = rejected = 0
    rhs_evals = 1
    while steps < cfg.max_steps:
        steps += 1
        if t + h > t_max:
            h = t_max - t
            if h <= 1e-15 * max(1.0, abs(t)):
                stop = "t_max"
                break
        z5, v5, w5, err, k7, evals = _dp_step(x, y, z, v, w, h, k1, abs_tol, rel_tol)
        rhs_evals += evals
        if err > 1.0:
            # rejected: shrink and maybe flag a finite-time blow-up
            rejected += 1
            h *= max(0.2, 0.9 * err**-0.2) if math.isfinite(err) else 0.2
            if h < 1e-14 * max(1.0, abs(t)):
                grew = len(recent_v) >= 10 and recent_v[-1] > 2.0 * recent_v[0]
                kind = EV_BLOWUP if grew else None
                if kind:
                    events.append(Event(kind=kind, t=t))
                    stop = "blow_up"
                else:
                    stop = "step_underflow"
                break
            continue
        accepted += 1
        t += h
        z, v, w, k1 = z5, v5, w5, k7
        h *= min(5.0, max(0.2, 0.9 * err**-0.2 if err > 0 else 5.0))
        cap = STRIDE_REL * abs(t)
        if cap < record_stride:
            cap = record_stride
        if cap < h:
            h = cap

        if v == 0:
            stop = "fiber_underflow"
            break
        recent_v.append(abs(v))
        # horizontal first integral: exp(w) v / v_ref == 1 per chart segment;
        # evaluated in log form so near-blow-up states cannot overflow
        dev = w + cmath.log(v / v_ref)
        if not -math.pi < dev.imag <= math.pi:
            dev = complex(dev.real, _wrap_angle(dev.imag))
        if abs(dev.real) < 30:
            d = abs(cmath.exp(dev) - 1.0)
            if d > drift:
                drift = d
        else:
            drift = math.inf
        drifts.append(drift)

        state = ChartState(chart, z, v, t)
        if not single and abs(z) > SWITCH_OUT:
            state = chart_transition(state, cd.nu)
            chart, z, v = state.chart, state.zeta, state.v
            x, y = cd.chart_polys(chart)
            w = 0j
            v_ref = v
            prev_speed = None
            k1 = None
            events.append(Event(kind=EV_SWITCH, t=t))
        samples.append(state)

        hx, hy, hz = sphere(chart, z)
        if abs(v) > escape_radius or (single and abs(z) > cfg.zeta_escape_radius):
            events.append(Event(kind=EV_ESCAPE, t=t))
            stop = "escape"
            break
        # pole approach: chordal proximity with decreasing speed |X(z) v|,
        # which is the first part of the next step's stage 1
        if k1 is None:
            k1 = _rhs3(x, y, z, v)
            rhs_evals += 1
        speed = abs(k1[0])
        hit = None
        for qx, qy, qz, pt in pole_pts:
            if 0.5 * sqrt((hx - qx) ** 2 + (hy - qy) ** 2 + (hz - qz) ** 2) < pole_radius:
                hit = pt
                break
        if hit is not None and (prev_speed is None or speed <= prev_speed * (1 + 1e-9)):
            events.append(Event(kind=EV_POLE, t=t, direction=hit))
            stop = "pole"
            break
        prev_speed = speed
        # closed-return watch; the capture radius follows the sample spacing,
        # and refinement waits until the approach is interior to the window
        ds = 0.5 * sqrt((hx - px) ** 2 + (hy - py) ** 2 + (hz - pz) ** 2)
        px, py, pz = hx, hy, hz
        capture = max(RETURN_RADIUS, 1.5 * ds)
        dist0 = 0.5 * sqrt((hx - sx0) ** 2 + (hy - sy0) ** 2 + (hz - sz0) ** 2)
        if dist0 > excursion:
            excursion = dist0
        if excursion > 8 * capture and dist0 > 4 * capture:
            returned_arm = True
        if returned_arm and dist0 < capture and len(samples) >= 3:
            returned_arm = False
            return_pending = 3
        if return_pending is not None:
            return_pending -= 1
            if return_pending <= 0:
                return_pending = None
                ev = _refine_return(samples, cd)
                if ev is not None:
                    events.append(ev)
                    stop = "closed_return"
                    break
    else:
        stop = "max_steps"

    diagnostics = {
        "stop": stop,
        "steps": steps,
        "accepted": accepted,
        "rejected": rejected,
        "rhs_evals": rhs_evals,
    }
    traj = Trajectory(samples, events, drift, drifts, diagnostics=diagnostics)
    if cfg.classify:
        _classify_into(traj, cd, cfg)
    return traj


def _hermite(
    s0: ChartState, s1: ChartState, cd: ConnectionData, t: float
) -> tuple[complex, complex]:
    """Cubic Hermite interpolation of (zeta, v) inside one chart segment."""
    h = s1.t - s0.t
    if h <= 0:
        return s0.zeta, s0.v
    u = (t - s0.t) / h
    x, y = cd.chart_polys(s0.chart)
    d0 = _rhs3(x, y, s0.zeta, s0.v)
    d1 = _rhs3(x, y, s1.zeta, s1.v)
    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u * u * (3 - 2 * u)
    h11 = u * u * (u - 1)
    z = h00 * s0.zeta + h10 * h * d0[0] + h01 * s1.zeta + h11 * h * d1[0]
    v = h00 * s0.v + h10 * h * d0[1] + h01 * s1.v + h11 * h * d1[1]
    return z, v


def _segment_state(
    samples: Sequence[ChartState], idx: int, cd: ConnectionData, t: float
) -> ChartState:
    s0, s1 = samples[idx], samples[idx + 1]
    if s0.chart != s1.chart:
        return s0 if abs(t - s0.t) <= abs(t - s1.t) else s1
    z, v = _hermite(s0, s1, cd, t)
    return ChartState(s0.chart, z, v, t)


def _tangent_in_chart(state: ChartState, cd: ConnectionData, chart: str) -> complex:
    d = _rhs3(*cd.chart_polys(state.chart), state.zeta, state.v)[0]
    if state.chart == chart:
        return d
    # dzeta' = d(1/zeta)/dt = -zeta'/zeta^2
    return -d / (state.zeta * state.zeta)


def _refine_return(samples: Sequence[ChartState], cd: ConnectionData) -> Optional[Event]:
    """Confirm a tangential return to the initial point and measure it."""
    first = samples[0]
    base = first.sphere()
    got = _closest_approach(samples, cd, base, max(0, len(samples) - 9), len(samples) - 1)
    if got is None:
        return None
    t_star, state, d_star = got
    if d_star > RETURN_RADIUS:
        return None
    chart = first.chart
    tan0 = _tangent_in_chart(first, cd, chart)
    tan1 = _tangent_in_chart(state, cd, chart)
    if tan0 == 0 or tan1 == 0:
        return None
    angle = _wrap_angle(cmath.phase(tan1 / tan0))
    if abs(angle) > 0.08:
        return None
    multiplier = tan1 / tan0
    return Event(
        kind=EV_RETURN,
        t=t_star,
        t1=first.t,
        t2=t_star,
        point=first.point(),
        multiplier=multiplier,
        external_angle=angle,
    )


def _wrap_angle(a: float) -> float:
    while a <= -math.pi:
        a += 2 * math.pi
    while a > math.pi:
        a -= 2 * math.pi
    return a


def _closest_approach(
    samples: Sequence[ChartState],
    cd: ConnectionData,
    base: tuple[float, float, float],
    lo: int,
    hi: int,
) -> Optional[tuple[float, ChartState, float]]:
    """Golden-section closest approach to a sphere point over segments."""

    def dist(idx: int, t: float) -> float:
        s0, s1 = samples[idx], samples[idx + 1]
        return chordal(sphere(s0.chart, _hermite(s0, s1, cd, t)[0]), base)

    best = None
    best_d = math.inf
    for idx in range(lo, min(hi, len(samples) - 1)):
        s0, s1 = samples[idx], samples[idx + 1]
        if s0.chart != s1.chart:
            continue
        for frac in range(21):
            t = s0.t + (s1.t - s0.t) * frac / 20
            d = dist(idx, t)
            if d < best_d:
                best_d = d
                best = (idx, t)
    if best is None:
        return None
    idx, t_star = best
    s0, s1 = samples[idx], samples[idx + 1]
    span = (s1.t - s0.t) / 20
    a, b = max(s0.t, t_star - span), min(s1.t, t_star + span)
    gr = (math.sqrt(5) - 1) / 2
    c1 = b - gr * (b - a)
    c2 = a + gr * (b - a)
    f1, f2 = dist(idx, c1), dist(idx, c2)
    for _ in range(80):
        if b - a < 1e-14 * max(1.0, abs(b)):
            break
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = dist(idx, c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = dist(idx, c2)
    t_star = 0.5 * (a + b)
    return t_star, _segment_state(samples, idx, cd, t_star), dist(idx, t_star)


# ---------------------------------------------------------------------------
# self-intersection detection
# ---------------------------------------------------------------------------

def detect_self_intersections(traj: Trajectory, cd: ConnectionData) -> list[Event]:
    """Transversal crossings of the projected curve on P^1.

    Polyline search over the sphere embedding: candidate segment pairs come
    from a grid levelled by segment length (each segment sits in cells just
    larger than itself, so a spiral's tiny and long segments never share a
    bucket), followed by a local planar (gnomonic) crossing solve and tangents
    from the exact field at interpolated states.  The external angle is
    measured first; only crossings that pass MIN_CROSSING_ANGLE pay for the
    enclosed poles, found by winding numbers on homogeneous coordinates.  At
    most MAX_CROSSINGS candidates, the earliest first, are refined.

    Crossings with |external angle| below MIN_CROSSING_ANGLE are discarded:
    chords of a tightening spiral cross even when the curve does not, and
    genuinely tangential returns are the closed-return detector's business.
    """
    samples = traj.samples
    if len(samples) < 3:
        return []
    sphere = _sphere_array(samples)
    hom = _homogeneous(samples)
    # the chord solves run on Python floats, far faster than numpy scalars
    pts = sphere.tolist()
    times = [s.t for s in samples]
    raw: list[tuple[float, float, int, int]] = []
    for lo, hi in _reach_pairs(sphere, pts):
        got = _segment_crossing(pts, samples, lo, hi)
        if got is not None:
            raw.append((got[0], got[1], lo, hi))
    raw.sort()
    events: list[Event] = []
    for t1, t2, i, j in raw[:MAX_CROSSINGS]:
        gap = 1.5 * max(times[i + 1] - times[i], times[j + 1] - times[j])
        if any(abs(prev.t1 - t1) < gap and abs(prev.t2 - t2) < gap for prev in events):
            continue
        ev = _crossing_event(samples, times, sphere, hom, cd, t1, t2, MIN_CROSSING_ANGLE)
        if ev is not None:
            events.append(ev)
    _mark_simple(events)
    return events


# odd multipliers that hash a grid cell to one key; the hash is linear modulo
# 2^64 (unsigned, so it wraps instead of overflowing), so a neighbour's key is
# the cell's key plus one of 27 fixed offsets
_CELL_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 1], dtype=np.uint64)
_NEIGHBOUR_KEYS = (
    np.array(list(itertools.product((-1, 0, 1), repeat=3))).astype(np.uint64) @ _CELL_HASH
)


def _reach_pairs(p: np.ndarray, pts: list) -> list[tuple[int, int]]:
    """Segment pairs (i, j), j >= i + 2, with |m_i - m_j| <= (l_i + l_j) / 2.

    p holds the (n, 3) sphere points and pts the same points as Python lists.
    m and l are chord midpoints and lengths; two chords that cross pass this
    test.  Segment i is bucketed at the level L(i) with 2^L(i) > l_i, keyed
    by its midpoint's cell of side 2^L(i); each pair is looked up from its
    shorter segment among the cells at the longer one's level.
    """
    mids = 0.5 * (p[:-1] + p[1:])
    lengths = np.array([math.dist(a, b) for a, b in zip(pts, pts[1:])])
    n = len(lengths)
    # the factor keeps 2^L clear of l by more than rounding; the floor keeps
    # cell indices of degenerate segments inside int64
    levels = np.frexp(np.maximum(lengths, 1e-15) * (1 + 1e-12))[1]
    found: set[int] = set()  # lo * n + hi; a hash collision can find a pair twice
    for level in sorted(set(levels.tolist())):
        side = 2.0**level
        owners = np.flatnonzero(levels == level)
        queries = np.flatnonzero(levels <= level)
        # No pair is missed: if l_i <= l_j, a passing pair has
        # |m_i - m_j| <= l_j < 2^L(j), so m_j lies within one cell of m_i at
        # level L(j) >= L(i).  Owners at L(j) fill their 27 cells; queries
        # look up their own.  Hash collisions only add candidates.
        cell_key = np.floor(mids / side).astype(np.int64).astype(np.uint64) @ _CELL_HASH
        keys = (cell_key[owners, None] + _NEIGHBOUR_KEYS).ravel()
        order = np.argsort(keys)
        keys = keys[order]
        owner_of = np.repeat(owners, 27)[order]
        own = cell_key[queries]
        first = np.searchsorted(keys, own, "left")
        counts = np.searchsorted(keys, own, "right") - first
        total = int(counts.sum())
        if not total:
            continue
        i = np.repeat(queries, counts)
        j = owner_of[np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(total)]
        # a pair within one level is found from both ends; keep one
        take = ((levels[i] < level) | (i < j)) & (abs(i - j) >= 2)
        lo = np.minimum(i, j)[take]
        hi = np.maximum(i, j)[take]
        dist2 = 0.0
        for axis in mids.T:
            d = axis[lo] - axis[hi]
            dist2 = dist2 + d * d
        reach = 0.5 * lengths[lo] + 0.5 * lengths[hi]
        found.update((lo * n + hi)[~(dist2 > reach * reach)].tolist())
    return [divmod(c, n) for c in found]


def _gnomonic_cross(
    a0, a1, b0, b1, slack: float = 1e-9
) -> Optional[tuple[float, float]]:
    """Chord crossing parameters (s, u) in the tangent-plane projection."""
    mx = (a0[0] + a1[0] + b0[0] + b1[0]) / 4.0
    my = (a0[1] + a1[1] + b0[1] + b1[1]) / 4.0
    mz = (a0[2] + a1[2] + b0[2] + b1[2]) / 4.0
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if norm < 1e-9:
        return None
    u = (mx / norm, my / norm, mz / norm)
    pick = (1.0, 0.0, 0.0) if abs(u[0]) < 0.9 else (0.0, 1.0, 0.0)
    e1 = _cross(u, pick)
    n1 = math.sqrt(e1[0] * e1[0] + e1[1] * e1[1] + e1[2] * e1[2])
    e1 = (e1[0] / n1, e1[1] / n1, e1[2] / n1)
    e2 = _cross(u, e1)

    def gnomonic(p):
        d = p[0] * u[0] + p[1] * u[1] + p[2] * u[2]
        if d <= 1e-6:
            return None
        return (
            (p[0] * e1[0] + p[1] * e1[1] + p[2] * e1[2]) / d,
            (p[0] * e2[0] + p[1] * e2[1] + p[2] * e2[2]) / d,
        )

    q = [gnomonic(p) for p in (a0, a1, b0, b1)]
    if any(x is None for x in q):
        return None
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = q
    r1x, r1y = bx - ax, by - ay
    r2x, r2y = dx - cx, dy - cy
    det = r1x * r2y - r1y * r2x
    if abs(det) < 1e-14:
        return None
    sx, sy = cx - ax, cy - ay
    s = (sx * r2y - sy * r2x) / det
    w = (sx * r1y - sy * r1x) / det
    if not (-slack <= s <= 1 + slack and -slack <= w <= 1 + slack):
        return None
    return s, w


def _segment_crossing(
    pts: list,
    samples: Sequence[ChartState],
    i: int,
    j: int,
) -> Optional[tuple[float, float]]:
    got = _gnomonic_cross(pts[i], pts[i + 1], pts[j], pts[j + 1])
    if got is None:
        return None
    s, w = got
    t1 = samples[i].t + s * (samples[i + 1].t - samples[i].t)
    t2 = samples[j].t + w * (samples[j + 1].t - samples[j].t)
    if t2 < t1:
        t1, t2 = t2, t1
    return t1, t2


def _segment_of(times: list[float], t: float) -> int:
    idx = bisect.bisect_right(times, t) - 1
    return max(0, min(idx, len(times) - 2))


def _state_at(
    samples: Sequence[ChartState], times: list[float], cd: ConnectionData, t: float
) -> ChartState:
    """Interpolated state at t; the edge segments extrapolate outside the samples."""
    return _segment_state(samples, _segment_of(times, t), cd, t)


def _refine_crossing(
    samples: Sequence[ChartState],
    times: list[float],
    cd: ConnectionData,
    t1: float,
    t2: float,
) -> tuple[float, float]:
    """Sharpen a chord-level crossing on the interpolated curve.

    Each pass re-solves the crossing of short interpolated chords centered
    on the current parameters; the bracket shrinks geometrically, removing
    the O(h^2) sagitta error of the sample polyline.
    """
    k1 = _segment_of(times, t1)
    k2 = _segment_of(times, t2)
    span1 = samples[k1 + 1].t - samples[k1].t
    span2 = samples[k2 + 1].t - samples[k2].t
    for it in range(3):
        d1 = span1 / (2 * 4**it)
        d2 = span2 / (2 * 4**it)
        sa0 = _state_at(samples, times, cd, t1 - d1)
        sa1 = _state_at(samples, times, cd, t1 + d1)
        sb0 = _state_at(samples, times, cd, t2 - d2)
        sb1 = _state_at(samples, times, cd, t2 + d2)
        got = _gnomonic_cross(
            sa0.sphere(), sa1.sphere(), sb0.sphere(), sb1.sphere(), slack=0.6
        )
        if got is None:
            break
        s, w = got
        t1 = (t1 - d1) + s * 2 * d1
        t2 = (t2 - d2) + w * 2 * d2
    return t1, t2


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _crossing_event(
    samples: Sequence[ChartState],
    times: list[float],
    sphere: np.ndarray,
    hom: np.ndarray,
    cd: ConnectionData,
    t1: float,
    t2: float,
    min_angle: float,
) -> Optional[Event]:
    """The refined crossing, or None when its external angle is below min_angle."""
    t1, t2 = _refine_crossing(samples, times, cd, t1, t2)
    if t2 < t1:
        t1, t2 = t2, t1
    s1 = _state_at(samples, times, cd, t1)
    s2 = _state_at(samples, times, cd, t2)
    chart = s1.chart
    tan1 = _tangent_in_chart(s1, cd, chart)
    tan2 = _tangent_in_chart(s2, cd, chart)
    if tan1 == 0 or tan2 == 0:
        return None
    angle = _wrap_angle(cmath.phase(tan1 / tan2))
    if not abs(angle) >= min_angle:
        return None
    span = _span(times, t1, t2)
    enclosed, res_sum, orient, resolved = _enclosed_poles(sphere[span], hom[span], cd)
    residual = None
    if res_sum is not None and resolved:
        residual = _gauss_bonnet_residual(angle, res_sum, orient)
    return Event(
        kind=EV_CROSSING,
        t=t2,
        t1=t1,
        t2=t2,
        point=s1.point(),
        external_angle=angle,
        enclosed=enclosed,
        residue_sum=res_sum,
        angle_residual=residual,
        resolved=resolved,
    )


def _gauss_bonnet_residual(angle: float, res_sum: complex, orient: int) -> float:
    """|vertex angle - 2 pi (1 + Re sum Res)| of a loop, wrapped to [0, pi]."""
    # a negatively oriented loop satisfies the identity after reversal,
    # which flips the sign of the vertex angle
    eff = angle if orient >= 0 else -angle
    return abs(_wrap_angle(eff - 2 * math.pi * (1 + res_sum.real)))


def _span(times: list[float], t1: float, t2: float) -> slice:
    """The samples with t1 <= t <= t2 (times ascending)."""
    return slice(bisect.bisect_left(times, t1), bisect.bisect_right(times, t2))


def _chart_coords(samples: Sequence[ChartState]) -> tuple[np.ndarray, np.ndarray]:
    """The samples' coordinates, and a mask of those in the chart at infinity."""
    z = np.array([s.zeta for s in samples], dtype=complex)
    far = np.array([s.chart != CHART_ZERO for s in samples], dtype=bool)
    return z, far


def _sphere_array(samples: Sequence[ChartState]) -> np.ndarray:
    """(n, 3) unit-sphere images of the samples, equal to ChartState.sphere
    bit for bit: fields.sphere's expressions, evaluated in the same order.
    """
    z, far = _chart_coords(samples)
    re, im = z.real, z.imag
    out = np.empty((len(z), 3))
    with np.errstate(over="ignore", invalid="ignore"):
        n = re * re + im * im
        d = 1.0 + n
        out[:, 0] = 2 * re / d
        out[:, 1] = np.where(far, -2 * im, 2 * im) / d
        out[:, 2] = np.where(far, 1 - n, n - 1) / d
    return out


def _homogeneous(samples: Sequence[ChartState]) -> np.ndarray:
    """(n, 2) homogeneous sample coordinates: [1 : zeta] in chart 0, [zeta : 1] at infinity."""
    z, far = _chart_coords(samples)
    return np.stack([np.where(far, z, 1), np.where(far, 1, z)], axis=1)


def _det(hom: np.ndarray, p: tuple[complex, complex]) -> np.ndarray:
    """det(sigma, p) for each row sigma of hom."""
    return hom[:, 0] * p[1] - hom[:, 1] * p[0]


def _arg_steps(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Principal arg increments of a / b from one sample to the next; None
    when a ratio is not finite or is zero.

    With a = det(sigma, p) and b = det(sigma, q), a / b is sigma's image
    under the Moebius map that sends p to 0 and q to infinity.  Summed over
    a closed loop, the increments are 2 pi times its winding around p in the
    plane where q is infinity.
    """
    with np.errstate(all="ignore"):
        ratio = a / b
        if not (np.isfinite(ratio).all() and ratio.all()):
            return None
        return np.angle(ratio[1:] / ratio[:-1])


def _chordal_rows(p: np.ndarray, q) -> np.ndarray:
    """fields.chordal(row, q) for each row of p (or along the last axis), bit
    for bit: Python's x ** 2 is libm pow, which np.float_power calls and which
    can differ from x * x in the last bit.
    """
    sq = np.float_power(p - q, 2.0)
    return 0.5 * np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def _enclosed_poles(
    loop: np.ndarray, hom: np.ndarray, cd: ConnectionData
) -> tuple[tuple[int, ...], Optional[complex], int, bool]:
    """Winding numbers of a loop around the induced-connection poles.

    loop holds the loop's sphere points and hom their homogeneous
    coordinates.  Returns (enclosed indices, residue sum over them, loop
    orientation, resolved flag); orientation is +1 / -1 for a consistently
    wound simple loop and 0 when the windings are mixed or ill-conditioned.
    """
    if len(loop) < 3:
        return (), None, 0, False
    poles = [(k, d) for k, d in enumerate(cd.directions) if abs(d.induced_residue) > 1e-12]
    pole_pts = np.array([d.point.sphere() for _, d in poles]).reshape(-1, 3)
    x, y, z = _far_point(np.vstack([loop, pole_pts]))[0].tolist()
    # the far point as [1 - z : x + iy]; no candidate lies near the north pole
    hom = np.vstack([hom, hom[:1]])
    q = _det(hom, (1 - z, complex(x, y)))
    windings: list[tuple[int, int]] = []
    for k, d in poles:
        steps = _arg_steps(_det(hom, d.point.representative()), q)
        if steps is None:
            return (), None, 0, False
        w = float(steps.sum()) / (2 * math.pi)
        r = round(w)
        if not abs(w - r) < 0.25:
            return (), None, 0, False
        if r != 0:
            windings.append((k, r))
    if not windings:
        return (), 0j, 0, True
    signs = {1 if w > 0 else -1 for _, w in windings}
    if len(signs) > 1 or any(abs(w) > 1 for _, w in windings):
        total = sum(cd.directions[k].induced_residue * w for k, w in windings)
        return tuple(k for k, _ in windings), total, 0, False
    orient = signs.pop()
    enclosed = tuple(k for k, _ in windings)
    res_sum = sum(cd.directions[k].induced_residue for k in enclosed)
    return enclosed, res_sum, orient, True


def _fibonacci_sphere(n: int) -> np.ndarray:
    golden = (1 + math.sqrt(5)) / 2
    cands = []
    for k in range(n):
        zc = 1 - 2 * (k + 0.5) / n
        r = math.sqrt(max(0.0, 1 - zc * zc))
        phi = 2 * math.pi * k / golden
        cands.append((r * math.cos(phi), r * math.sin(phi), zc))
    return np.array(cands)


_FAR_CANDIDATES = _fibonacci_sphere(40)


def _far_point(avoid: np.ndarray) -> np.ndarray:
    """The candidate farthest from all (m, 3) sphere points (first on ties), as (1, 3)."""
    # on the unit sphere the nearest point is the one of largest dot product
    nearest = (_FAR_CANDIDATES @ avoid.T).max(axis=1)
    k = int(np.argmin(nearest))
    return _FAR_CANDIDATES[k : k + 1]


def _mark_simple(events: list[Event]) -> None:
    """A crossing is a simple loop when no other crossing nests inside it."""
    for idx, ev in enumerate(events):
        simple = True
        for other in events:
            if other is ev:
                continue
            if ev.t1 < other.t1 and other.t2 < ev.t2:
                simple = False
                break
        events[idx] = replace(ev, simple=simple)


# ---------------------------------------------------------------------------
# loop multiplier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopMultiplier:
    measured: complex
    predicted: complex
    deviation: float
    enclosed: tuple[int, ...]


def loop_multiplier(
    traj: Trajectory, t1: float, t2: float, cd: ConnectionData
) -> LoopMultiplier:
    """sigma'(t2)/sigma'(t1) for a loop, against exp(-2 pi i sum Res).

    Raises ValueError when t1 or t2 lies outside the sampled times.
    """
    samples = traj.samples
    times = traj.sample_times()
    if len(times) < 2 or not all(times[0] <= t <= times[-1] for t in (t1, t2)):
        raise ValueError("loop times must lie within the sampled times")
    s1 = _state_at(samples, times, cd, t1)
    s2 = _state_at(samples, times, cd, t2)
    if chordal(s1.sphere(), s2.sphere()) > LOOP_CLOSURE_TOL:
        raise ValueError("loop endpoints do not coincide within tolerance")
    chart = s1.chart
    m_measured = _tangent_in_chart(s2, cd, chart) / _tangent_in_chart(s1, cd, chart)
    loop = samples[_span(times, t1, t2)]
    enclosed, res_sum, orient, _ = _enclosed_poles(
        _sphere_array(loop), _homogeneous(loop), cd
    )
    if res_sum is None:
        predicted = complex("nan")
    else:
        sign = -1.0 if orient >= 0 else 1.0
        predicted = cmath.exp(sign * 2j * math.pi * res_sum)
    dev = abs(m_measured - predicted)
    return LoopMultiplier(m_measured, predicted, dev, enclosed)


# ---------------------------------------------------------------------------
# omega-limit classification
# ---------------------------------------------------------------------------

INTERSECTION_THRESHOLD = 25


def _classify_into(traj: Trajectory, cd: ConnectionData, cfg: IntegratorConfig) -> None:
    if _cannot_cross(traj.samples, cd):
        crossings = []
    else:
        crossings = detect_self_intersections(traj, cd)
    traj.events.extend(crossings)
    traj.events.sort(key=lambda e: e.t)
    omega, direction, extra = classify_omega_limit(traj, cd, cfg, crossings)
    traj.omega_class = omega
    traj.omega_direction = direction
    traj.diagnostics.update(extra)


def _cannot_cross(samples: Sequence[ChartState], cd: ConnectionData) -> bool:
    """True when the sampled geodesic has no transversal self-crossing.

    The loop of a first crossing is simple.  By Gauss-Bonnet its external
    angle is 2 pi (1 + Re sum Res) mod 2 pi over either disc it bounds, and
    a transversal crossing's angle lies in (-pi, pi) and is not 0; so each
    disc holds an induced pole whose residue has a non-integer real part.
    With two such poles p, q, arg((sigma - p) / (sigma - q)) changes by
    2 pi along the loop.  The curve is cleared when, for every pair, the
    unwrapped arg over the samples spans less than 2 pi minus
    CROSSING_ARG_MARGIN, counting twice the largest step between two
    samples for the loop's ends.  Only geodesics obey the identity: any
    other curve needs the full search.
    """
    res = [d.induced_residue for d in cd.directions]
    # a residue that is not finite counts too
    poles = [d.point.representative() for d, r in zip(cd.directions, res)
             if not r.real.is_integer()]
    if cd.single_chart:
        # the model's chart infinity carries the rest of the sum -2
        if not (-2 - sum(res)).real.is_integer():
            poles.append((0j, 1 + 0j))
    if len(poles) < 2 or len(samples) < 3:
        return True
    hom = _homogeneous(samples)
    limit = 2 * math.pi - CROSSING_ARG_MARGIN
    with np.errstate(all="ignore"):
        dets = [_det(hom, p) for p in poles]
    for a, b in itertools.combinations(dets, 2):
        step = _arg_steps(a, b)
        if step is None:
            return False
        arg = np.cumsum(step)
        span = max(float(arg.max()), 0.0) - min(float(arg.min()), 0.0)
        if not span + 2 * float(np.abs(step).max()) < limit:
            return False
    return True


def classify_omega_limit(
    traj: Trajectory,
    cd: ConnectionData,
    cfg: Optional[IntegratorConfig] = None,
    crossings: Optional[list[Event]] = None,
) -> tuple[str, Optional[ProjPoint], dict]:
    """Forward-limit classification from termination events and geometry."""
    if cfg is None:
        cfg = IntegratorConfig()
    if crossings is None:
        crossings = [e for e in traj.events if e.kind == EV_CROSSING]
    extra: dict = {}
    pole_ev = next((e for e in traj.events if e.kind == EV_POLE), None)
    t_end = traj.samples[-1].t
    if pole_ev is not None and pole_ev.t >= t_end - 1e-12:
        return OMEGA_POLE, pole_ev.direction, extra
    ret = next((e for e in traj.events if e.kind == EV_RETURN and e.t > 0), None)
    if ret is not None:
        mult = ret.multiplier
        extra["return_multiplier"] = mult
        return OMEGA_CLOSED, None, extra
    n_cross = len(crossings)
    extra["self_intersections"] = n_cross
    if n_cross >= INTERSECTION_THRESHOLD:
        span = t_end - traj.samples[0].t
        late = [e for e in crossings if e.t2 is not None and e.t2 > t_end - 0.25 * span]
        if late:
            simple = [e for e in crossings if e.simple]
            windows = [
                e.residue_sum.real
                for e in simple
                if e.residue_sum is not None and e.resolved
            ]
            extra["simple_loop_residue_sums"] = windows
            return OMEGA_INFINITE, None, extra
    pts = _sphere_array(traj.samples)
    acc = _accumulation_test(traj, cd, pts)
    if acc is not None:
        extra.update(acc)
        return OMEGA_ACC_CLOSED, None, extra
    shuttle = _cycle_heuristic(pts, cd, cfg)
    if shuttle:
        extra["shuttle_poles"] = shuttle
        return OMEGA_CYCLE, None, extra
    return OMEGA_UNDETERMINED, None, extra


def _accumulation_test(
    traj: Trajectory, cd: ConnectionData, pts: np.ndarray
) -> Optional[dict]:
    """Detect late-time convergence to the support of a closed loop.

    Uses a section through a late reference point: consecutive near-returns
    cut the tail into loops; the classification asks the loops to converge
    in Hausdorff distance while the return offsets shrink.  pts holds the
    samples' sphere points.
    """
    samples = traj.samples
    if traj.diagnostics.get("stop") not in ("t_max", "max_steps"):
        return None
    if len(samples) < 60:
        return None
    # index-based reference: adaptive steps sample slow spirals log-uniformly
    ref_idx = len(samples) // 2
    if ref_idx >= len(samples) - 10:
        return None
    ref = samples[ref_idx].sphere()
    hits = _near_returns(_chordal_rows(pts[ref_idx:], ref))
    if len(hits) < 2:
        return None
    # refine each near-return on the interpolant
    refined: list[tuple[float, ChartState, float]] = []
    for i in hits:
        h_idx = ref_idx + i
        got = _closest_approach(samples, cd, ref, max(ref_idx, h_idx - 3), h_idx + 3)
        if got is not None:
            refined.append(got)
    if len(refined) < 2:
        return None
    bounds_t = [samples[ref_idx].t] + [r[0] for r in refined]
    times = traj.sample_times()
    loops = [pts[_span(times, a, b)] for a, b in zip(bounds_t, bounds_t[1:])]
    loops = [lp for lp in loops if len(lp) >= 3]
    if len(loops) < 2:
        return None
    hd = [_hausdorff(loops[k + 1], loops[k]) for k in range(len(loops) - 1)]
    gaps = [r[2] for r in refined]
    converging = hd[-1] < 0.05 and (len(hd) == 1 or hd[-1] <= hd[0] + 1e-9)
    tightening = gaps[-1] < 0.05
    if not (converging and tightening):
        return None
    # Gauss-Bonnet residual between the last two refined section crossings
    (t_a, st_a, _), (t_b, st_b, _) = refined[-2], refined[-1]
    chart = st_a.chart
    tan0 = _tangent_in_chart(st_a, cd, chart)
    tan1 = _tangent_in_chart(st_b, cd, chart)
    residual = None
    if tan0 and tan1:
        angle = _wrap_angle(cmath.phase(tan1 / tan0))
        span = _span(times, t_a, t_b)
        enclosed, res_sum, orient, resolved = _enclosed_poles(
            pts[span], _homogeneous(samples[span]), cd
        )
        if res_sum is not None and resolved:
            residual = _gauss_bonnet_residual(angle, res_sum, orient)
    return {
        "late_loop_hausdorff": hd[-1],
        "late_loop_gap": gaps[-1],
        "late_loop_gb_residual": residual,
    }


def _near_returns(dists: np.ndarray) -> list[int]:
    """Sample-level local minima of a distance below 0.1, from index 5 on,
    each at least 5 samples after the one before.
    """
    here = dists[5:-1]
    minima = np.flatnonzero((here < dists[4:-2]) & (here <= dists[6:]) & (here < 0.1)) + 5
    hits: list[int] = []
    for i in minima.tolist():
        if not hits or i >= hits[-1] + 5:
            hits.append(i)
    return hits


_HAUSDORFF_ROWS = 64  # rows of a per distance block, which bounds its memory


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """max over the rows p of a of min over the rows q of b of chordal(p, q)."""
    worst = 0.0
    for lo in range(0, len(a), _HAUSDORFF_ROWS):
        block = _chordal_rows(a[lo : lo + _HAUSDORFF_ROWS, None, :], b[None, :, :])
        worst = max(worst, float(block.min(axis=1).max()))
    return worst


def _cycle_heuristic(
    pts: np.ndarray, cd: ConnectionData, cfg: IntegratorConfig
) -> list[int]:
    """Alternating visits to several pole neighborhoods.

    Every sample counts, the backward half of a two-sided run included; a
    sample visits the first direction within the radius.
    """
    radius = max(5 * cfg.pole_radius, 0.05)
    poles = [d.point.sphere() for d in cd.directions]
    if not poles:
        return []
    near = np.stack([_chordal_rows(pts, q) < radius for q in poles], axis=1)
    first = near.argmax(axis=1)[near.any(axis=1)]
    # a visit repeats a direction only after a visit to another
    change = np.ones(len(first), dtype=bool)
    change[1:] = first[1:] != first[:-1]
    visits = first[change].tolist()
    if len(set(visits)) >= 2 and len(visits) >= 4:
        return visits
    return []


# ---------------------------------------------------------------------------
# batch sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepItem:
    index: int
    trajectory: Optional[Trajectory]
    error: Optional[str]


def batch_sweep(
    cd: ConnectionData,
    inits: Sequence[ChartState],
    cfg: IntegratorConfig,
) -> list[SweepItem]:
    """Independent integrations, run in turn; output order matches input order.

    Per-item failures are carried in-band.
    """
    out = []
    for idx, init in enumerate(inits):
        try:
            out.append(SweepItem(idx, integrate(cd, init, cfg), None))
        except Exception as exc:  # noqa: BLE001 - carried in-band by contract
            out.append(SweepItem(idx, None, f"{type(exc).__name__}: {exc}"))
    return out
