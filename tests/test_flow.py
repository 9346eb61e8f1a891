import bisect
import cmath
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from merocon.algebra import poly_eval
from merocon.atlas import AtlasLabel, template_field
from merocon.fields import (
    CHART_INF,
    CHART_ZERO,
    HomogeneousField,
    ProjPoint,
    chart_polynomials,
    chordal,
    connection_data,
    model_connection,
    model_connection_apparent,
)
from merocon.flow import (
    ChartState,
    Event,
    IntegratorConfig,
    Trajectory,
    _cannot_cross,
    _chordal_rows,
    _FAR_CANDIDATES,
    _Curve,
    _cycle_heuristic,
    _det,
    _dp_step,
    _Enclosure,
    _hausdorff,
    _homogeneous,
    _mark_simple,
    _near_returns,
    _repeats,
    _rhs3,
    _span,
    _sphere_array,
    batch_sweep,
    chart_transition,
    classify_omega_limit,
    detect_self_intersections,
    geodesic_rhs,
    integrate,
    lift_nu_polar,
    loop_multiplier,
    unlift,
)

C2001 = HomogeneousField(1, (0, 0, 0), (0, 1, 0))
C100 = HomogeneousField(1, (0, 0, 0), (-1, 0, 0))
THREE_THIRDS = HomogeneousField(1, (-1 / 3, 2 / 3, 0), (0, 2 / 3, -1 / 3))


def spiral_field(gamma):
    return HomogeneousField(1, (1j * gamma, 0, 0), (0, 1 + 1j * gamma, 0))


def base_cfg(**kw):
    args = dict(rel_tol=1e-10, abs_tol=1e-13, t_max=5.0, record_stride=0.05)
    args.update(kw)
    return IntegratorConfig(**args)


def compare_states(lifted, s, nu=1):
    if lifted.chart != s.chart:
        lifted = chart_transition(lifted, nu)
    return max(
        abs(lifted.zeta - s.zeta) / (1 + abs(s.zeta)),
        abs(lifted.v - s.v) / (1 + abs(s.v)),
    )


class TestLift:
    def test_chart_zero(self):
        s = lift_nu_polar((1, 0), 1)
        assert s.chart == CHART_ZERO and s.zeta == 0 and s.v == 1

    def test_chart_inf_power(self):
        s = lift_nu_polar((1, 2), 2)
        assert s.chart == CHART_INF and s.zeta == 0.5 and s.v == 4

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            lift_nu_polar((0, 0), 1)

    def test_transition_consistency(self):
        for nu in (1, 2, 3):
            for eps in (0.01, 0.01j, -0.02 + 0.005j):
                w = (1, 1 + eps)
                s = lift_nu_polar(w, nu)
                other = chart_transition(s, nu)
                back = chart_transition(other, nu)
                assert abs(back.zeta - s.zeta) < 1e-12
                assert abs(back.v - s.v) < 1e-12 * (1 + abs(s.v))

    @given(st.sampled_from([CHART_ZERO, CHART_INF]), st.floats(-2, 2), st.floats(-2, 2))
    def test_one_sphere_map(self, chart, re, im):
        # directions and states share one stereographic map, to the bit
        z = complex(re, im)
        a = ProjPoint(chart, z).sphere()
        b = ChartState(chart, z, 1.0 + 0j, 0.0).sphere()
        assert [x.hex() for x in a] == [x.hex() for x in b]

    def test_projection_round_trip(self):
        # p(chi(w)) = [w]: the lifted point has the direction of w
        rng = random.Random(8)
        for _ in range(20):
            w = (
                complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                complex(rng.gauss(0, 1), rng.gauss(0, 1)),
            )
            if abs(w[0]) < 0.1 and abs(w[1]) < 0.1:
                continue
            s = lift_nu_polar(w, 2)
            ratio = w[1] / w[0] if s.chart == CHART_ZERO else w[0] / w[1]
            assert abs(s.zeta - ratio) < 1e-12 * (1 + abs(ratio))


class TestRhs:
    def finite_diff(self, curve, t, h=1e-6):
        return (curve(t + h) - curve(t - h)) / (2 * h)

    def test_rhs_matches_product_flow_oracle(self):
        # gamma(t) = (z0, w0 e^{z0 t}) lifted must satisfy the chart-0 system
        cd = connection_data(C2001)
        z0, w0 = 1.2 - 0.4j, 0.3 + 0.1j

        def zeta(t):
            return (w0 / z0) * cmath.exp(z0 * t)

        s = ChartState(CHART_ZERO, zeta(0.7), z0, 0.7)
        dz, dv = geodesic_rhs(s, cd)
        assert abs(dz - self.finite_diff(zeta, 0.7)) < 1e-6
        assert abs(dv) < 1e-14

    def test_rhs_matches_spiral_oracle(self):
        # the invariant-line field: v(t) = v0/(1 - i g v0 t), zeta = z0 exp(...)
        g = 0.8
        cd = connection_data(spiral_field(g))
        v0, zeta0 = 0.7 + 0.2j, 0.4 - 0.1j

        def v(t):
            return v0 / (1 - 1j * g * v0 * t)

        s = ChartState(CHART_ZERO, zeta0, v(0.3), 0.3)
        dz, dv = geodesic_rhs(s, cd)
        assert abs(dv - self.finite_diff(v, 0.3)) < 1e-6
        assert abs(dz - zeta0 * v(0.3)) < 1e-12

    def test_fuchsian_model_rhs(self):
        cd = model_connection(1, 0.25)
        s = ChartState(CHART_ZERO, 0.5 + 0.1j, 2.0 - 1.0j, 0.0)
        dz, dv = geodesic_rhs(s, cd)
        assert abs(dz - s.zeta * s.v) < 1e-14
        assert abs(dv + 0.25 * s.v * s.v) < 1e-14

    def test_zero_section_fixed(self):
        cd = model_connection(1, 0.25)
        dz, dv = geodesic_rhs(ChartState(CHART_ZERO, 0.3, 0.0, 0.0), cd)
        assert dz == 0 and dv == 0


class TestIntegrateOracles:
    def test_vertical_translation_flow(self):
        cd = connection_data(C100)
        z0, w0 = 0.9 + 0.1j, -0.2 + 0.5j
        traj = integrate(cd, lift_nu_polar((z0, w0), 1), base_cfg())
        for s in traj.samples:
            oracle = lift_nu_polar((z0, w0 - z0 * z0 * s.t), 1)
            assert compare_states(oracle, s) < 1e-6

    def test_exponential_fiber_flow(self):
        cd = connection_data(C2001)
        z0, w0 = 1.1 - 0.3j, 0.4 + 0.2j
        traj = integrate(cd, lift_nu_polar((z0, w0), 1), base_cfg())
        for s in traj.samples:
            oracle = lift_nu_polar((z0, w0 * cmath.exp(z0 * s.t)), 1)
            assert compare_states(oracle, s) < 1e-6

    def test_fuchsian_power_law(self):
        rho = 0.3 + 0.2j
        cd = model_connection(1, rho)
        z0, v0 = 0.8 + 0.1j, 0.5 - 0.3j
        c = rho * v0
        cfg = base_cfg(zeta_escape_radius=1e9)
        traj = integrate(cd, ChartState(CHART_ZERO, z0, v0, 0.0), cfg)
        assert traj.samples[-1].t == pytest.approx(5.0)
        for s in traj.samples:
            oz = z0 * cmath.exp(cmath.log(1 + c * s.t) / rho)
            ov = v0 / (1 + c * s.t)
            assert abs(oz - s.zeta) < 1e-6 * (1 + abs(oz))
            assert abs(ov - s.v) < 1e-6 * (1 + abs(ov))

    def test_conservation_drift(self):
        rng = random.Random(3)
        for _ in range(6):
            mu = rng.randint(1, 3)
            rho = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
            if abs(rho) < 0.2:
                rho += 0.4
            cd = model_connection(mu, rho)
            z0 = complex(rng.uniform(0.3, 1), rng.uniform(-0.5, 0.5))
            v0 = complex(rng.uniform(0.3, 1), rng.uniform(-0.5, 0.5))
            cfg = IntegratorConfig(
                rel_tol=1e-10, abs_tol=1e-13, t_max=10.0, record_stride=0.05,
                zeta_escape_radius=1e6,
            )
            traj = integrate(cd, ChartState(CHART_ZERO, z0, v0, 0.0), cfg)
            assert traj.invariant_drift <= 1e-8

    def test_zero_section_rejected(self):
        cd = model_connection(1, 0.5)
        with pytest.raises(ValueError):
            integrate(cd, ChartState(CHART_ZERO, 0.5, 0.0, 0.0), base_cfg())


class TestChartSwitching:
    def test_switch_continuity(self):
        # run crossing |zeta| = 1.5 agrees with the transition of a clean run
        cd = connection_data(C2001)
        init = lift_nu_polar((0.9, 0.8), 1)  # |zeta| grows through the switch
        cfg = base_cfg(t_max=2.0, record_stride=0.01)
        traj = integrate(cd, init, cfg)
        charts = {s.chart for s in traj.samples}
        assert charts == {CHART_ZERO, CHART_INF}
        z0, w0 = 0.9, 0.8
        for s in traj.samples:
            oracle = lift_nu_polar((z0, w0 * cmath.exp(z0 * s.t)), 1)
            assert compare_states(oracle, s) < 1e-8
        # the state lookup returns every sample at its own time, in both charts
        from merocon.flow import _state_at

        times = traj.sample_times()
        assert all(_state_at(traj.samples, times, cd, s.t) == s for s in traj.samples)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_transition_maps_lift_to_lift(self, nu):
        # the chart-0 lift [w1 : w2] -> (w2/w1, w1^nu) must go to the chart-inf
        # lift (w1/w2, w2^nu): v -> zeta^nu v, not zeta v, for every nu
        rng = random.Random(31 + nu)
        for _ in range(200):
            w1, w2 = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))
            got = chart_transition(ChartState(CHART_ZERO, w2 / w1, w1**nu, 0.0), nu)
            assert got.chart == CHART_INF
            assert abs(got.zeta - w1 / w2) <= 1e-12 * abs(w1 / w2)
            assert abs(got.v - w2**nu) <= 1e-12 * abs(w2**nu)

    def test_time_reversal_retrace(self):
        # running the sign-flipped field from the endpoint retraces the path
        cd = connection_data(THREE_THIRDS)
        init = lift_nu_polar((0.8 + 0.1j, 0.5 - 0.6j), 1)
        cfg = base_cfg(t_max=3.0, classify=False)
        fwd = integrate(cd, init, cfg)
        end = fwd.terminal()
        back = integrate(
            cd.negated(), ChartState(end.chart, end.zeta, end.v, 0.0), cfg
        )
        final = back.terminal()
        again = final if final.chart == init.chart else chart_transition(final, 1)
        assert abs(again.zeta - init.zeta) < 1e-9 * (1 + abs(init.zeta))
        assert abs(again.v - init.v) < 1e-9 * (1 + abs(init.v))


class TestEvents:
    def test_straight_patch_no_intersections(self):
        # order-1 apparent model with real fiber value: the image is a ray
        cd = model_connection_apparent(1)
        cfg = base_cfg(t_max=3.0, zeta_escape_radius=100.0)
        traj = integrate(cd, ChartState(CHART_ZERO, 0.2, 1.0, 0.0), cfg)
        assert not [e for e in traj.events if e.kind == "self_intersection"]
        args = {round((s.zeta / traj.samples[0].zeta).imag, 8) for s in traj.samples}
        assert args == {0.0}

    def test_two_crossings_then_escape(self):
        cd = model_connection(1, 0.1)
        cfg = IntegratorConfig(
            rel_tol=1e-10, abs_tol=1e-13, t_max=60.0, record_stride=0.02,
            two_sided=True, zeta_escape_radius=4.0,
        )
        traj = integrate(cd, ChartState(CHART_ZERO, 1.0, 1.0 + 1.0j, 0.0), cfg)
        cross = [e for e in traj.events if e.kind == "self_intersection"]
        esc = [e for e in traj.events if e.kind in ("escape", "blow_up_time")]
        assert len(cross) == 2
        assert esc and max(e.t for e in esc) > max(e.t2 for e in cross)
        # crossing endpoints coincide on the sphere and are time-ordered
        from merocon.flow import _state_at, chordal

        times = traj.sample_times()
        for e in cross:
            assert e.t1 < e.t2
            s1 = _state_at(traj.samples, times, cd, e.t1)
            s2 = _state_at(traj.samples, times, cd, e.t2)
            assert chordal(s1.sphere(), s2.sphere()) < 1e-5
        # first loop encloses the single pole; Gauss-Bonnet closes to ~1e-4
        simple = [e for e in cross if e.simple]
        assert simple and simple[0].enclosed == (0,)
        assert simple[0].angle_residual < 1e-2

    def test_pole_approach_event(self):
        cd = connection_data(HomogeneousField(1, (1, 0, 0), (0, 2, 0)))  # C210 rho=-1
        init = lift_nu_polar((0.7 + 0.4j, -0.3 + 0.9j), 1)
        cfg = IntegratorConfig(
            rel_tol=1e-9, abs_tol=1e-12, t_max=1e8, record_stride=1.0,
            pole_radius=1e-5, max_steps=100_000,
        )
        traj = integrate(cd, init, cfg)
        assert traj.omega_class == "pole"
        assert traj.omega_direction.chart == CHART_ZERO
        assert abs(traj.omega_direction.coord) < 1e-9
        assert abs(traj.terminal().v) < 1e-3 * abs(init.v)

    def test_periodic_return_multiplier_one(self):
        cd = connection_data(C2001)
        init = lift_nu_polar((1j, 0.7), 1)
        cfg = IntegratorConfig(
            rel_tol=1e-11, abs_tol=1e-14, t_max=20.0, record_stride=0.02
        )
        traj = integrate(cd, init, cfg)
        assert traj.omega_class == "closed"
        ret = [e for e in traj.events if e.kind == "closed_return"]
        assert ret and abs(ret[0].multiplier - 1) < 1e-6
        assert ret[0].t == pytest.approx(2 * math.pi, abs=1e-6)

    def test_closed_geodesic_multiplier(self):
        g = 0.3
        cd = connection_data(spiral_field(g))
        cfg = IntegratorConfig(
            rel_tol=1e-11, abs_tol=1e-14, t_max=40.0, record_stride=0.02
        )
        traj = integrate(cd, ChartState(CHART_ZERO, 0.5, 1j, 0.0), cfg)
        ret = [e for e in traj.events if e.kind == "closed_return"]
        assert traj.omega_class == "closed" and ret
        assert abs(abs(ret[0].multiplier) - math.exp(-2 * math.pi * g)) < 1e-4
        lm = loop_multiplier(traj, ret[0].t1, ret[0].t2, cd)
        assert lm.deviation < 1e-4
        with pytest.raises(ValueError, match="sampled times"):
            loop_multiplier(traj, ret[0].t1, traj.terminal().t + 0.5, cd)

    def test_loop_multiplier_needs_closed_endpoints(self):
        cd = connection_data(C2001)
        traj = integrate(cd, lift_nu_polar((1j, 0.7), 1), base_cfg(t_max=3.0))
        with pytest.raises(ValueError):
            loop_multiplier(traj, 0.0, 1.0, cd)

    def test_fuchsian_periodic_family(self):
        # rho = mu_y > 0: purely imaginary z0^mu_y v0 gives a periodic loop
        cd = model_connection(2, 1.0)
        z0 = 0.6
        v0 = 1j / z0
        cfg = IntegratorConfig(
            rel_tol=1e-11, abs_tol=1e-14, t_max=30.0, record_stride=0.02
        )
        traj = integrate(cd, ChartState(CHART_ZERO, z0, v0, 0.0), cfg)
        ret = [e for e in traj.events if e.kind == "closed_return"]
        assert traj.omega_class == "closed" and ret
        assert abs(ret[0].multiplier - 1) < 1e-6

    def test_accumulates_closed(self):
        cd = model_connection(1, 1j)
        cfg = IntegratorConfig(
            rel_tol=1e-10, abs_tol=1e-14, t_max=1e11, record_stride=0.05,
            zeta_escape_radius=50.0, max_steps=500_000,
        )
        traj = integrate(cd, ChartState(CHART_ZERO, (1 + 1j) / 2, 1.0, 0.0), cfg)
        assert traj.omega_class == "accumulates_closed"
        assert traj.diagnostics["late_loop_gb_residual"] < 1e-2

    def test_spiral_field_accumulates_circle(self):
        # genuine field (not a model): purely imaginary residue at [1:0];
        # off the closed-geodesic locus the projected curve accumulates a
        # circle while the fiber value decays to zero
        g = 0.5
        cd = connection_data(spiral_field(g))
        z0, v0 = 0.4 + 0j, 0.8 + 0.4j
        cfg = IntegratorConfig(
            rel_tol=1e-10, abs_tol=1e-14, t_max=1e9, record_stride=0.05,
            max_steps=400_000,
        )
        traj = integrate(cd, ChartState(CHART_ZERO, z0, v0, 0.0), cfg)
        assert traj.omega_class == "accumulates_closed"
        assert traj.diagnostics["late_loop_gb_residual"] < 1e-2
        # limit radius from the closed form zeta = z0 (1 - i g v0 t)^(i/g)
        expected = abs(z0) * math.exp(-cmath.phase(-1j * g * v0) / g)
        s = traj.terminal()
        zc = s.zeta if s.chart == CHART_ZERO else 1 / s.zeta
        assert abs(abs(zc) - expected) < 1e-3 * expected
        assert abs(s.v) < 1e-6

    def test_infinitely_self_intersecting(self):
        cd = connection_data(THREE_THIRDS)
        init = lift_nu_polar((1j, 1j - 1), 1)
        cfg = IntegratorConfig(
            rel_tol=1e-8, abs_tol=1e-11, t_max=120.0, record_stride=0.05,
            pole_radius=1e-9, max_steps=800_000,
        )
        traj = integrate(cd, init, cfg)
        assert traj.omega_class == "infinitely_self_intersecting"
        assert traj.diagnostics["self_intersections"] >= 25
        windows = traj.diagnostics["simple_loop_residue_sums"]
        assert windows
        for r in windows:
            assert -1.5 + 1e-2 < r < -0.5 - 1e-2
            assert abs(r + 1) > 1e-2


def reference_crossings(traj, cd):
    """detect_self_intersections with the reach test run on every pair.

    Enclosure runs for every crossing, and the angle filter afterwards.  The
    dedupe, the per-loop enclosure and the nesting mark are the O(n^2) and
    O(loop length) code the sorted passes and the winding table replaced.
    """
    from merocon.flow import (
        MAX_CROSSINGS,
        MIN_CROSSING_ANGLE,
        _crossing_event,
        _enclosing,
        _segment_crossing,
        _span,
    )

    samples = traj.samples
    hom = _homogeneous(samples)
    pts = [s.sphere() for s in samples]
    sphere = np.array(pts)
    times = [s.t for s in samples]
    mids = np.array(
        [[0.5 * (a + b) for a, b in zip(p, q)] for p, q in zip(pts, pts[1:])]
    )
    lengths = np.array([math.dist(p, q) for p, q in zip(pts, pts[1:])])
    raw = []
    for i in range(len(lengths) - 2):
        d = mids[i] - mids[i + 2 :]
        reach = 0.5 * lengths[i] + 0.5 * lengths[i + 2 :]
        near = ~(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] > reach * reach)
        for j in (np.flatnonzero(near) + i + 2).tolist():
            got = _segment_crossing(pts, samples, i, j)
            if got is not None:
                raw.append((got[0], got[1], i, j))
    raw.sort()
    events = []
    for t1, t2, i, j in raw[:MAX_CROSSINGS]:
        gap = 1.5 * max(times[i + 1] - times[i], times[j + 1] - times[j])
        if any(abs(e.t1 - t1) < gap and abs(e.t2 - t2) < gap for e in events):
            continue
        ev = _crossing_event(samples, times, cd, t1, t2, 0.0)
        if ev is not None:
            span = _span(times, ev.t1, ev.t2)
            ev = _enclosing(ev, ref_enclosed_poles(sphere[span], hom[span], cd))
            if abs(ev.external_angle) >= MIN_CROSSING_ANGLE:
                events.append(ev)
    ref_mark_simple(events)
    return events


# the code the winding table and the sorted passes replaced, kept as it was

def ref_arg_steps(a, b):
    with np.errstate(all="ignore"):
        ratio = a / b
        if not (np.isfinite(ratio).all() and ratio.all()):
            return None
        return np.angle(ratio[1:] / ratio[:-1])


def ref_far_point(avoid):
    nearest = (_FAR_CANDIDATES @ avoid.T).max(axis=1)
    k = int(np.argmin(nearest))
    return _FAR_CANDIDATES[k : k + 1]


def ref_enclosed_poles(loop, hom, cd):
    if len(loop) < 3:
        return (), None, 0, False
    poles = [(k, d) for k, d in enumerate(cd.directions) if abs(d.induced_residue) > 1e-12]
    pole_pts = np.array([d.point.sphere() for _, d in poles]).reshape(-1, 3)
    x, y, z = ref_far_point(np.vstack([loop, pole_pts]))[0].tolist()
    hom = np.vstack([hom, hom[:1]])
    q = _det(hom, (1 - z, complex(x, y)))
    windings = []
    for k, d in poles:
        steps = ref_arg_steps(_det(hom, d.point.representative()), q)
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


def ref_mark_simple(events):
    for idx, ev in enumerate(events):
        simple = True
        for other in events:
            if other is ev:
                continue
            if ev.t1 < other.t1 and other.t2 < ev.t2:
                simple = False
                break
        events[idx] = replace(ev, simple=simple)


def enclose(samples, cd):
    """The enclosure of one loop, from a table built on it."""
    curve = _Curve(samples)
    return _Enclosure(curve.sphere, curve.hom, cd).loops([slice(0, len(samples))])[0]


class TestCrossingSearch:
    def test_log_spiral_into_pole_matches_all_pairs(self):
        # a loopy start, then a log spiral into the pole at zeta = 0 whose
        # chord lengths fall by six decades: the grid's degenerate case
        cd = model_connection(1, -1 + 0.3j)
        samples = []
        for m in range(60 * 7 + 1):
            s = 2 * math.pi * m / 60
            e = cmath.exp(complex(-0.3, 1) * s)
            w = 1.2 * cmath.exp(complex(-0.5, -3) * s)
            z = e + w
            dz = complex(-0.3, 1) * e + complex(-0.5, -3) * w
            samples.append(ChartState(CHART_ZERO, z, dz / z, s))  # X(z) v = dz/ds
        traj = Trajectory(samples, [], 0.0)
        pts = [s.sphere() for s in samples]
        lengths = [math.dist(p, q) for p, q in zip(pts, pts[1:])]
        assert max(lengths) / min(lengths) > 1e5
        events = detect_self_intersections(traj, cd)
        assert len(events) >= 3
        assert any(e.enclosed for e in events)
        assert events == reference_crossings(traj, cd)

    def test_figure_three_matches_all_pairs(self):
        cd = connection_data(THREE_THIRDS)
        cfg = IntegratorConfig(
            rel_tol=1e-8, abs_tol=1e-11, t_max=120.0, record_stride=0.05,
            pole_radius=1e-9, max_steps=800_000, classify=False,
        )
        traj = integrate(cd, lift_nu_polar((1j, 1j - 1), 1), cfg)
        events = detect_self_intersections(traj, cd)
        assert len(events) >= 25
        assert events == reference_crossings(traj, cd)
        # every loop's enclosure is measured, and every simple loop obeys
        # Gauss-Bonnet
        assert not [e for e in events if e.enclosed == () and not e.resolved]
        for e in events:
            if e.simple:
                assert e.resolved and e.angle_residual <= 1e-2


class TestEnclosure:
    @pytest.mark.parametrize("radius", [1e-1, 1e-4, 1e-6, 1e-7, 1e-9])
    @pytest.mark.parametrize("orient", [1, -1])
    def test_small_circle_encloses_its_direction(self, radius, orient):
        # a circle in the direction's own chart; on the sphere, 1 - z cancels
        # near [0:1] and the circle's points crowd together near any pole
        cd = connection_data(THREE_THIRDS)
        turns = [cmath.exp(orient * 2j * math.pi * m / 64) for m in range(64)]
        for k, d in enumerate(cd.directions):
            samples = [
                ChartState(d.point.chart, d.point.coord + radius * u, 1.0 + 0j, float(m))
                for m, u in enumerate(turns)
            ]
            got = enclose(samples, cd)
            assert got == ((k,), d.induced_residue, orient, True)


# the oracles workload's configuration and its C210 template, whose two
# poles have residues of non-integer real part
ORACLE_CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, t_max=5.0, record_stride=0.05)
C210 = template_field(AtlasLabel("C210", rho=0.35 + 0.25j))


@st.composite
def random_geodesics(draw):
    """A random field of degree nu + 1, nu in 1..3, four starts and one t_max."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nu = draw(st.integers(1, 3))
    t_max = draw(st.sampled_from([5.0, 30.0, 100.0]))

    def gauss():
        return complex(rng.gauss(0, 1), rng.gauss(0, 1))

    while True:
        q1 = tuple(gauss() for _ in range(nu + 2))
        q2 = tuple(gauss() for _ in range(nu + 2))
        try:
            cd = connection_data(HomogeneousField(nu, q1, q2))
        except (ValueError, RuntimeError):  # dicritical, or roots not resolved
            continue
        break
    starts = [lift_nu_polar((gauss(), gauss()), nu) for _ in range(4)]
    return cd, starts, IntegratorConfig(t_max=t_max, max_steps=20_000, classify=False)


class TestCrossingCertificate:
    @given(random_geodesics())
    def test_cleared_geodesics_do_not_cross(self, case):
        cd, starts, cfg = case
        for init in starts:
            traj = integrate(cd, init, cfg)
            if _cannot_cross(_Curve(traj.samples), cd):
                assert detect_self_intersections(traj, cd) == []

    def test_figure_one_is_searched(self):
        # the model's two poles, 0 and its chart infinity, both count
        cd = model_connection(1, 0.1)
        cfg = IntegratorConfig(
            rel_tol=1e-10, abs_tol=1e-13, t_max=60.0, record_stride=0.02,
            two_sided=True, zeta_escape_radius=4.0, classify=False,
        )
        traj = integrate(cd, ChartState(CHART_ZERO, 1.0, 1.0 + 1.0j, 0.0), cfg)
        assert not _cannot_cross(_Curve(traj.samples), cd)
        assert len(detect_self_intersections(traj, cd)) == 2

    def test_c210_crossing_is_searched(self):
        # an oracles start (seed 3705) whose loop separates the two poles
        cd = connection_data(C210)
        w = (-0.7714245612088115 + 0.4124838927134462j, -0.11038487967975574 - 0.6565027968845698j)
        traj = integrate(cd, lift_nu_polar(w, 1), replace(ORACLE_CFG, classify=False))
        assert not _cannot_cross(_Curve(traj.samples), cd)
        (event,) = detect_self_intersections(traj, cd)
        assert abs(abs(event.external_angle) - 2 * math.pi * 0.35) < 1e-6
        # integrate runs the search on its own
        full = integrate(cd, lift_nu_polar(w, 1), ORACLE_CFG)
        assert [e for e in full.events if e.kind == "self_intersection"] == [event]

    @pytest.mark.parametrize("name", ["C100", "C2001", "C3100"])
    def test_integer_residue_templates_are_cleared(self, name):
        # fewer than two poles count, so not one sample is read
        cd = connection_data(template_field(AtlasLabel(name)))
        assert _cannot_cross(_Curve([None] * 10), cd)
        traj = integrate(cd, lift_nu_polar((0.6 + 0.3j, -0.4 + 0.5j), 1), ORACLE_CFG)
        assert not [e for e in traj.events if e.kind == "self_intersection"]

    def test_integer_residue_model_is_cleared(self):
        # figure two: Re rho = 0, so neither 0 nor the chart infinity counts
        assert _cannot_cross(_Curve([None] * 10), model_connection(1, 1j))

    def test_unresolved_ratio_runs_the_search(self):
        # a sample on a pole gives a zero ratio, which the certificate refuses
        cd = connection_data(C210)
        samples = [ChartState(CHART_ZERO, z, 1.0, float(k))
                   for k, z in enumerate([0.5, 0.25, 0j, 0.25j])]
        assert not _cannot_cross(_Curve(samples), cd)


class TestEnclosureTable:
    @given(random_geodesics(), st.integers(0, 2**32 - 1))
    def test_table_matches_per_loop(self, case, seed):
        # every crossing's loop, and random spans, on integrated geodesics
        cd, starts, cfg = case
        rng = random.Random(seed)
        for init in starts[:2]:
            traj = integrate(cd, init, cfg)
            curve = _Curve(traj.samples)
            times = traj.sample_times()
            n = len(times)
            spans = [slice(*sorted(rng.sample(range(n + 1), 2))) for _ in range(12)]
            spans += [_span(times, e.t1, e.t2) for e in detect_self_intersections(traj, cd)]
            want = [ref_enclosed_poles(curve.sphere[sp], curve.hom[sp], cd) for sp in spans]
            assert _Enclosure(curve.sphere, curve.hom, cd).loops(spans) == want

    @pytest.mark.parametrize("odd", ["pole", "zero", "infinity", "nan", "short", "coarse"])
    def test_synthetic_loops_match_per_loop(self, odd):
        # a circle around each direction of figure three, with one odd sample,
        # or with steps of 2 radians, where every step moves the winding
        cd = connection_data(THREE_THIRDS)
        turn = 2.0 if odd == "coarse" else 0.1
        for d in cd.directions:
            samples = [
                ChartState(d.point.chart, d.point.coord + 0.3 * cmath.exp(turn * 1j * m), 1.0, float(m))
                for m in range(63)
            ]
            odd_state = {
                "pole": ChartState(d.point.chart, d.point.coord, 1.0, 0.0),
                "zero": ChartState(CHART_ZERO, 0j, 1.0, 0.0),
                "infinity": ChartState(CHART_INF, 0j, 1.0, 0.0),
                "nan": ChartState(CHART_ZERO, complex("nan"), 1.0, 0.0),
            }.get(odd)
            if odd_state is not None:
                samples[40] = replace(odd_state, t=40.0)
            curve = _Curve(samples)
            table = _Enclosure(curve.sphere, curve.hom, cd)
            spans = [slice(lo, hi) for lo in (0, 20, 39, 40, 41) for hi in (41, 42, 43, 63)]
            if odd == "short":
                spans = [slice(0, 0), slice(5, 6), slice(5, 7), slice(62, 63)]
            want = [ref_enclosed_poles(curve.sphere[sp], curve.hom[sp], cd) for sp in spans]
            assert table.loops(spans) == want
            assert ref_enclosed_poles(curve.sphere, curve.hom, cd) == enclose(samples, cd)

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 4)),
                    max_size=60))
    def test_sorted_dedupe_matches_all_pairs(self, draws):
        # coarse times make ties; each candidate is kept unless it repeats one kept
        kept_ref, t1s, t2s = [], [], []
        for a, b, g in draws:
            t1, t2, gap = a / 4, (a + b) / 4, g / 8
            repeat = any(abs(k1 - t1) < gap and abs(k2 - t2) < gap for k1, k2 in kept_ref)
            assert _repeats(t1s, t2s, t1, t2, gap) == repeat
            if not repeat:
                kept_ref.append((t1, t2))
                at = bisect.bisect_right(t1s, t1)
                t1s.insert(at, t1)
                t2s.insert(at, t2)

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=40))
    def test_sorted_mark_matches_all_pairs(self, spans):
        # tied t1 and tied t2, equal loops, and loops in any order
        events = [Event(kind="self_intersection", t=b, t1=float(a), t2=float(a + b))
                  for a, b in spans]
        want = list(events)
        ref_mark_simple(want)
        _mark_simple(events)
        assert events == want


# ---------------------------------------------------------------------------
# slow references: the pure-Python omega tests, kept as they were before the
# numpy sphere array replaced them, to check the new ones bit for bit
# ---------------------------------------------------------------------------

def ref_hausdorff(a, b):
    worst = 0.0
    for p in a:
        best = min(chordal(p, q) for q in b)
        worst = max(worst, best)
    return worst


def ref_cycle_heuristic(traj, cd, cfg):
    radius = max(5 * cfg.pole_radius, 0.05)
    visits = []
    poles = [d.point.sphere() for d in cd.directions]
    for s in traj.samples:
        here = s.sphere()
        for k, sph in enumerate(poles):
            if chordal(here, sph) < radius:
                if not visits or visits[-1] != k:
                    visits.append(k)
                break
    distinct = sorted(set(visits))
    if len(distinct) >= 2 and len(visits) >= 4:
        return visits
    return []


def ref_near_returns(dists):
    hits = []
    i = 5
    while i < len(dists) - 1:
        if dists[i] < dists[i - 1] and dists[i] <= dists[i + 1] and dists[i] < 0.1:
            hits.append(i)
            i += 5
        else:
            i += 1
    return hits


# |zeta| from 1e-8 to 1e8 at any phase, and the axes with zeros of either sign
ZETA = st.one_of(
    st.builds(cmath.rect, st.floats(-8, 8).map(lambda e: 10.0**e), st.floats(-4, 4)),
    st.builds(complex, st.floats(-1e8, 1e8), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.sampled_from([0.0, -0.0]), st.floats(-1e8, 1e8)),
)
SAMPLE = st.builds(
    lambda chart, z: ChartState(chart, z, 1.0 + 0j, 0.0),
    st.sampled_from([CHART_ZERO, CHART_INF]),
    ZETA,
)


def random_samples(rng, n, cd=None, spread=1.0):
    """n samples at random charts and coordinates; with cd, about half of them
    near its directions, where the cycle heuristic looks.
    """
    out = []
    for k in range(n):
        z = complex(rng.gauss(0, spread), rng.gauss(0, spread))
        chart = rng.choice([CHART_ZERO, CHART_INF])
        if cd is not None and rng.random() < 0.5:
            d = rng.choice(cd.directions).point
            chart, z = d.chart, d.coord + 0.03 * z
        out.append(ChartState(chart, z, 1.0 + 0j, float(k)))
    return out


class TestSphereArrays:
    @given(st.lists(SAMPLE, min_size=1, max_size=30))
    def test_sphere_array_matches_sphere(self, samples):
        got = _sphere_array(samples)
        assert got.shape == (len(samples), 3)
        assert bits(*got.ravel().tolist()) == bits(*[x for s in samples for x in s.sphere()])

    @given(st.lists(SAMPLE, min_size=1, max_size=30), SAMPLE)
    def test_row_chordal_matches_chordal(self, samples, other):
        q = other.sphere()
        got = _chordal_rows(_sphere_array(samples), q)
        assert bits(*got.tolist()) == bits(*[chordal(s.sphere(), q) for s in samples])

    def test_row_chordal_is_libm_pow(self):
        # x * x differs from Python's x ** 2 in about 1 of 1000 draws
        rng = random.Random(17)
        samples = random_samples(rng, 20_000)
        q = (0.6, -0.48, 0.64)
        got = _chordal_rows(_sphere_array(samples), q).tolist()
        assert got == [chordal(s.sphere(), q) for s in samples]

    @given(st.integers(1, 200), st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_hausdorff_matches_reference(self, n_a, n_b, seed):
        rng = random.Random(seed)
        a = _sphere_array(random_samples(rng, n_a))
        b = _sphere_array(random_samples(rng, n_b, spread=0.3))
        want = ref_hausdorff(a.tolist(), b.tolist())
        assert bits(_hausdorff(a, b)) == bits(want)
        assert bits(_hausdorff(b, a)) == bits(ref_hausdorff(b.tolist(), a.tolist()))

    @given(st.integers(1, 3), st.integers(1, 150), st.sampled_from([1e-3, 0.02, 0.1]),
           st.integers(0, 2**32 - 1))
    def test_cycle_heuristic_matches_reference(self, nu, n, pole_radius, seed):
        rng = random.Random(seed)
        q1 = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(nu + 2))
        q2 = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(nu + 2))
        try:
            cd = connection_data(HomogeneousField(nu, q1, q2))
        except (ValueError, RuntimeError):
            assume(False)
        samples = random_samples(rng, n, cd)
        cfg = IntegratorConfig(pole_radius=pole_radius)
        want = ref_cycle_heuristic(Trajectory(samples, [], 0.0), cd, cfg)
        assert _cycle_heuristic(_sphere_array(samples), cd, cfg) == want

    @given(st.lists(st.integers(0, 12), min_size=0, max_size=120))
    def test_near_returns_matches_reference(self, levels):
        # coarse levels make ties, where < and <= part
        dists = [k / 60 for k in levels]
        assert _near_returns(np.array(dists)) == ref_near_returns(dists)


class TestOmegaEdges:
    def test_two_sided_figure_two_accumulates_closed(self):
        # the forward half of a maximal run is classified as the one-sided run
        cd = model_connection(1, 1j)
        cfg = IntegratorConfig(
            rel_tol=1e-10, abs_tol=1e-14, t_max=1e11, record_stride=0.05,
            zeta_escape_radius=50.0, max_steps=500_000,
        )
        init = ChartState(CHART_ZERO, (1 + 1j) / 2, 1.0, 0.0)
        one = integrate(cd, init, cfg)
        two = integrate(cd, init, replace(cfg, two_sided=True))
        assert two.samples[0].t < 0 < two.samples[-1].t
        assert one.omega_class == two.omega_class == "accumulates_closed"
        assert two.diagnostics["late_loop_gb_residual"] <= 1e-2
        # the forward half is the one-sided run, so its extras agree too
        for key in ("late_loop_hausdorff", "late_loop_gap", "late_loop_gb_residual"):
            assert two.diagnostics[key] == one.diagnostics[key]

    def test_unlift_inverts_lift(self):
        for nu in (1, 2, 3):
            w = (0.8 + 0.3j, -0.4 + 0.9j)
            back = unlift(lift_nu_polar(w, nu), nu)
            # recovery up to the nu-th root of unity on both components
            ratio = back[0] / w[0]
            assert abs(abs(ratio) - 1) < 1e-12
            assert abs(ratio**nu - 1) < 1e-10
            assert abs(back[1] / w[1] - ratio) < 1e-12

    def test_cycle_candidate_heuristic(self):
        # synthetic trajectory shuttling between the two pole neighborhoods
        cd = connection_data(HomogeneousField(1, (1, 0, 0), (0, 2, 0)))
        poles = [d.point for d in cd.directions]
        samples = []
        t = 0.0
        for _ in range(3):
            for p in poles:
                for k in range(3):
                    samples.append(
                        ChartState(p.chart, p.coord + 0.01 * (k + 1), 1.0, t)
                    )
                    t += 0.1
        traj = Trajectory(samples, [], 0.0)
        omega, _, extra = classify_omega_limit(traj, cd)
        assert omega == "cycle_candidate"
        assert extra["shuttle_poles"]


class TestSweep:
    def test_order_and_errors(self):
        cd = connection_data(C2001)
        inits = [
            lift_nu_polar((1.0, 0.5), 1),
            ChartState(CHART_ZERO, 0.2, 0.0, 0.0),  # zero section: must fail in-band
            lift_nu_polar((0.5, 0.25), 1),
        ]
        out = batch_sweep(cd, inits, base_cfg(t_max=1.0))
        assert [item.index for item in out] == [0, 1, 2]
        assert out[0].trajectory is not None and out[0].error is None
        assert out[1].trajectory is None and "zero section" in out[1].error
        assert out[2].trajectory is not None

    def test_deterministic(self):
        cd = connection_data(THREE_THIRDS)
        inits = [lift_nu_polar((0.9, 0.3 + 0.2j), 1)] * 2
        a = batch_sweep(cd, inits, base_cfg(t_max=1.0))
        b = batch_sweep(cd, inits, base_cfg(t_max=1.0))
        za = [s.zeta for s in a[0].trajectory.samples]
        zb = [s.zeta for s in b[1].trajectory.samples]
        assert za == zb


# ---------------------------------------------------------------------------
# slow reference: the generic Dormand-Prince 5(4) tableau loop, kept as it was
# before the straight-line FSAL step replaced it, to check that step bit for bit
# ---------------------------------------------------------------------------

REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
REF_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
REF_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def ref_rhs(x, y, z, v):
    xv = poly_eval(x, z)
    yv = poly_eval(y, z) if y else 0j
    yvv = yv * v
    return (xv * v, -yvv * v, yvv)


def ref_step(x, y, z, v, w, h, abs_tol, rel_tol):
    """(z5, v5, w5, err, RHS evaluations); err = inf when a stage is not finite."""
    k = []
    for i in range(7):
        zi, vi = z, v
        for j, aij in enumerate(REF_A[i]):
            if aij:
                zi += h * aij * k[j][0]
                vi += h * aij * k[j][1]
        ki = ref_rhs(x, y, zi, vi)
        if not all(math.isfinite(p) for c in ki[:2] for p in (c.real, c.imag)):
            return None, None, None, math.inf, i + 1
        k.append(ki)
    z5, v5, w5 = z, v, w
    z4, v4 = z, v
    for i in range(7):
        z5 += h * REF_B5[i] * k[i][0]
        v5 += h * REF_B5[i] * k[i][1]
        w5 += h * REF_B5[i] * k[i][2]
        z4 += h * REF_B4[i] * k[i][0]
        v4 += h * REF_B4[i] * k[i][1]
    sc_z = abs_tol + rel_tol * max(abs(z), abs(z5))
    sc_v = abs_tol + rel_tol * max(abs(v), abs(v5))
    err = math.sqrt(0.5 * ((abs(z5 - z4) / sc_z) ** 2 + (abs(v5 - v4) / sc_v) ** 2))
    return z5, v5, w5, err, 7


def bits(*values):
    # repr tells -0.0 from 0.0 and round-trips every finite double
    return repr(values)


def check_step(x, y, z, v, w, h, abs_tol=1e-12, rel_tol=1e-9):
    """The FSAL step agrees with the tableau loop; returns the reference result."""
    k1 = _rhs3(x, y, z, v)
    assert bits(*k1) == bits(*ref_rhs(x, y, z, v))
    try:
        want = ref_step(x, y, z, v, w, h, abs_tol, rel_tol)
    except OverflowError:
        # finite stages whose error ratio squares past the float range
        with pytest.raises(OverflowError):
            _dp_step(x, y, z, v, w, h, k1, abs_tol, rel_tol)
        return None
    z5, v5, w5, err, k7, evals = _dp_step(x, y, z, v, w, h, k1, abs_tol, rel_tol)
    assert bits(z5, v5, w5, err) == bits(*want[:4])
    # stage 1 is evaluated by the caller, so the step makes one call fewer
    assert evals == want[4] - 1
    if err == math.inf:
        assert k7 is None
    elif k7 is not None:
        # the hand-on is exactly the stage 1 the next step would evaluate
        assert bits(*k7) == bits(*ref_rhs(x, y, z5, v5))
    else:
        assert not (z5.real and z5.imag and v5.real and v5.imag)
    return want


FINITE = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
STATE = st.one_of(
    st.builds(complex, FINITE, FINITE),
    # a zero part of either sign: the real axis, the imaginary axis, the origin
    st.builds(complex, FINITE, st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.sampled_from([0.0, -0.0]), FINITE),
)


@st.composite
def field_charts(draw):
    """Chart polynomials (x, y) of a random field of degree nu + 1, nu in 1..3."""
    nu = draw(st.integers(1, 3))
    q1 = tuple(draw(st.builds(complex, FINITE, FINITE)) for _ in range(nu + 2))
    q2 = tuple(draw(st.builds(complex, FINITE, FINITE)) for _ in range(nu + 2))
    assume(max(map(abs, q1 + q2)) > 0)
    x0, y0, xinf, yinf = chart_polynomials(HomogeneousField(nu, q1, q2))
    return (x0, y0) if draw(st.booleans()) else (xinf, yinf)


class TestStepper:
    @given(field_charts(), STATE, STATE, STATE, st.floats(1e-6, 0.05))
    # the real axis of a real field: every imaginary part is a signed zero
    @example(((0j, 1 + 0j), (0.5 + 0j,)), 0.5 + 0j, 1 - 0j, -0j, 0.01)
    # the zero weights turn the imaginary part of z5 from -0.0 to 0.0 ...
    @example(
        (
            (complex(-0.0, -1.8596691805031753), complex(0.0, -0.7011150856125146),
             complex(-0.0, -0.8362130827165708)),
            (),
        ),
        complex(0.8833982274720256, -0.0), complex(0.0, -0.9370375592620122), 0j,
        1.7411472892197692,
    )
    # ... and the real part of w5 from -0.0 to 0.0
    @example(
        (
            (0.7051676286355328j, complex(-0.0, -0.3598754531763779),
             complex(-0.0, 1.9394087989621003), complex(0.0, -1.9341217982732948),
             0.7329759022928366j),
            (complex(-0.0, -0.7956627378752326),),
        ),
        complex(-0.0, -0.5851191616567779), complex(0.0, -0.8030982546564822),
        complex(-0.0, -0.0), 1.4029693641777805,
    )
    def test_step_matches_tableau_loop(self, xy, z, v, w, h):
        check_step(*xy, z, v, w, h)

    @given(field_charts(), STATE, STATE, st.integers(-8, 12))
    def test_step_matches_across_step_sizes(self, xy, z, v, e):
        # large steps leave the region of accuracy: rejections and overflows
        check_step(*xy, z, v, 0.5 - 0.25j, 10.0**e)

    def test_stage_overflow_is_rejected(self):
        # each stage in turn is the first that is not finite as h grows
        x, y = chart_polynomials(HomogeneousField(2, (1, -2j, 0.5, 1), (0.3, 1, 2j, -1)))[:2]
        first_bad = set()
        for e in range(-8, 1200):
            want = check_step(x, y, 0.4 + 0.2j, 0.9 - 0.3j, 0j, 10.0 ** (e / 4))
            if want is not None and want[3] == math.inf:
                first_bad.add(want[4])
        assert first_bad == {2, 3, 4, 5, 6, 7}
        # stage 1 itself not finite: every attempt from that state is rejected
        assert check_step(x, y, 1e120 + 0j, 1.0 + 0j, 0j, 1e-3)[3:] == (math.inf, 1)

    def test_step_counters(self):
        # nu = 2, X = i(zeta^2 - 1), Y = 0 in chart 0: a slow spiral round +-1
        # that crosses both switch radii on every turn
        cd = connection_data(HomogeneousField(2, (0, 0, 0, 0), (-1j, 0, 1j, 0)))
        traj = integrate(cd, ChartState(CHART_ZERO, 0.4 + 0.1j, 1 + 0.01j, 0.0),
                         IntegratorConfig(t_max=40.0, classify=False))
        d = traj.diagnostics
        switches = sum(e.kind == "chart_switch" for e in traj.events)
        assert switches >= 20 and d["rejected"] > 0
        # steps counts loop passes; a run that reaches t_max ends on a pass
        # that attempts no step
        assert d["accepted"] + d["rejected"] == d["steps"] - (d["stop"] == "t_max")
        assert d["accepted"] == len(traj.samples) - 1
        # six evaluations per attempt; fresh ones only at the start and after
        # each switch
        assert 6 * (d["accepted"] + d["rejected"]) + 1 <= d["rhs_evals"]
        assert d["rhs_evals"] <= 6 * d["steps"] + 1 + switches
        # the limit run: it stops on the budget, where steps are all attempts
        short = integrate(cd, ChartState(CHART_ZERO, 0.4 + 0.1j, 1 + 0.01j, 0.0),
                          IntegratorConfig(t_max=40.0, classify=False, max_steps=300))
        s = short.diagnostics
        assert s["stop"] == "max_steps"
        assert s["accepted"] + s["rejected"] == s["steps"] == 300
