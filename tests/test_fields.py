import random

import pytest

from merocon.algebra import RatFn
from merocon.fields import (
    ACCUMULATING_LEAVES,
    CHART_INF,
    CHART_ZERO,
    CLOSED_LEAVES,
    DicriticalFieldError,
    HomogeneousField,
    ProjPoint,
    SingularTimeError,
    characteristic_directions,
    characteristic_leaf_curve,
    connection_data,
    is_dicritical,
    leaf_closure_class,
    model_connection,
    monodromy_info,
)
from merocon.germs import APPARENT, FUCHSIAN


def three_fuchsian_field():
    # three Fuchsian directions with residue 1/3 each
    return HomogeneousField(1, (-1 / 3, 2 / 3, 0), (0, 2 / 3, -1 / 3))


def spiral_field(gamma):
    # nu=1 field with one Fuchsian direction of purely imaginary residue
    return HomogeneousField(1, (1j * gamma, 0, 0), (0, 1 + 1j * gamma, 0))


def two_direction_field(rho):
    # order-1 Fuchsian at [1:0] with residue rho, order-2 direction at [0:1]
    return HomogeneousField(1, (-rho, 0, 0), (0, 1 - rho, 0))


def find_dir(cd, chart, coord, tol=1e-7):
    for d in cd.directions:
        if d.point.chart == chart and abs(d.point.coord - coord) < tol:
            return d
    raise AssertionError(f"no direction at chart {chart}, coord {coord}: {cd.directions}")


class TestDicritical:
    def test_radial_multiple(self):
        q = HomogeneousField(1, (1, 0, 0), (0, 1, 0))
        assert is_dicritical(q)

    def test_one_direction_field(self):
        q = HomogeneousField(1, (0, 0, 0), (-1, 0, 0))
        assert not is_dicritical(q)

    def test_linear_times_radial(self):
        q = HomogeneousField(1, (1, 1, 0), (0, 1, 1))
        assert is_dicritical(q)

    def test_directions_refused(self):
        with pytest.raises(DicriticalFieldError):
            characteristic_directions(HomogeneousField(1, (1, 0, 0), (0, 1, 0)))


class TestCharacteristicDirections:
    def test_two_direction_orders(self):
        dirs = characteristic_directions(two_direction_field(2.0))
        as_set = {(p.chart, round(abs(p.coord), 9), m) for p, m in dirs}
        assert as_set == {(CHART_ZERO, 0.0, 1), (CHART_INF, 0.0, 2)}

    def test_three_simple_directions(self):
        dirs = characteristic_directions(three_fuchsian_field())
        assert sorted(m for _, m in dirs) == [1, 1, 1]
        coords = sorted(
            (p.chart, round(p.coord.real, 6), round(p.coord.imag, 6)) for p, _ in dirs
        )
        assert coords == [(CHART_ZERO, 0.0, 0.0), (CHART_ZERO, 1.0, 0.0), (CHART_INF, 0.0, 0.0)]

    def test_single_triple_direction(self):
        q = HomogeneousField(1, (0, 0, 0), (-1, 0, 0))
        dirs = characteristic_directions(q)
        assert len(dirs) == 1
        (p, m), = dirs
        assert p.chart == CHART_INF and p.coord == 0 and m == 3

    def test_multiplicities_sum(self):
        rng = random.Random(4)
        for _ in range(60):
            nu = rng.choice([1, 2, 3])
            q = random_field(rng, nu)
            dirs = characteristic_directions(q)
            assert sum(m for _, m in dirs) == nu + 2


class TestConnectionData:
    def test_three_fuchsian_residues(self):
        cd = connection_data(three_fuchsian_field())
        for d in cd.directions:
            assert d.sing_class == FUCHSIAN
            assert abs(d.residue - 1 / 3) < 1e-10
            assert abs(d.index + 1 / 3) < 1e-10
            assert abs(d.induced_residue + 2 / 3) < 1e-10

    def test_two_direction_residues(self):
        cd = connection_data(two_direction_field(2.0))
        d1 = find_dir(cd, CHART_ZERO, 0)
        d2 = find_dir(cd, CHART_INF, 0)
        assert abs(d1.residue - 2) < 1e-10
        assert abs(d2.residue + 1) < 1e-10

    def test_spiral_field_residues(self):
        cd = connection_data(spiral_field(1.0))
        d = find_dir(cd, CHART_ZERO, 0)
        assert abs(d.residue + 1j) < 1e-10
        assert abs(d.induced_residue - (-1 - 1j)) < 1e-10

    def test_residue_sums(self):
        rng = random.Random(17)
        for _ in range(120):
            nu = rng.choice([1, 2, 3])
            cd = connection_data(random_field(rng, nu))
            total = sum(d.residue for d in cd.directions)
            induced = sum(d.induced_residue for d in cd.directions)
            orders = sum(d.order for d in cd.directions)
            assert abs(total - nu) < 1e-8
            assert abs(induced + 2) < 1e-8
            assert orders == nu + 2

    def test_index_is_scaled_residue(self):
        rng = random.Random(29)
        for _ in range(20):
            nu = rng.choice([1, 2])
            cd = connection_data(random_field(rng, nu))
            for d in cd.directions:
                assert abs(d.index + d.residue / nu) < 1e-12

    def test_chart_consistency(self):
        # residues computed from either chart polynomial pair must agree
        from merocon.algebra import rational_residue

        rng = random.Random(101)
        for _ in range(40):
            nu = rng.choice([1, 2, 3])
            cd = connection_data(random_field(rng, nu))
            for d in cd.directions:
                z = d.point.coord
                if d.point.chart != CHART_ZERO or abs(z) < 1e-6:
                    continue
                other = 1.0 / z
                r_here = rational_residue(cd.y0, cd.x0, z)
                r_there = rational_residue(cd.yinf, cd.xinf, other)
                assert abs(r_here - r_there) < 1e-9 * (1 + abs(r_here))

    def test_conjugation_covariance(self):
        rng = random.Random(55)
        for _ in range(25):
            nu = rng.choice([1, 2])
            q = random_field(rng, nu)
            cd = connection_data(q)
            L = random_gl2(rng)
            q2 = q.conjugate(L)
            cd2 = connection_data(q2)
            # directions map forward under L; compare invariant multisets
            base = sorted(
                (d.order, d.sing_class, round(d.residue.real, 6), round(d.residue.imag, 6))
                for d in cd.directions
            )
            moved = sorted(
                (d.order, d.sing_class, round(d.residue.real, 6), round(d.residue.imag, 6))
                for d in cd2.directions
            )
            assert base == moved
            for d in cd.directions:
                v = d.point.representative()
                img = (
                    L[0][0] * v[0] + L[0][1] * v[1],
                    L[1][0] * v[0] + L[1][1] * v[1],
                )
                target = ProjPoint.from_vector(img)
                assert min(target.chordal(e.point) for e in cd2.directions) < 1e-6

    def test_apparent_direction_zero_residue(self):
        # field with an apparent point: one-nondegenerate three-direction case
        q = HomogeneousField(1, (1, -1, 0), (0, 0, 0))
        cd = connection_data(q)
        ap = [d for d in cd.directions if d.sing_class == APPARENT]
        assert len(ap) == 2
        for d in ap:
            assert d.residue == 0
            assert abs(d.induced_residue + d.order) < 1e-12

    def test_reduced_form_poles_are_nonapparent_directions(self):
        # the apparent zero of the denominator cancels in the reduced form
        q = HomogeneousField(1, (1, -1, 0), (0, 0, 0))
        cd = connection_data(q)
        poles0 = cd.eta0.poles()
        nonapparent0 = [
            d.point.coord
            for d in cd.directions
            if d.sing_class != APPARENT and d.point.chart == CHART_ZERO
        ]
        assert len(poles0) == len(nonapparent0) == 1
        assert abs(poles0[0][0] - nonapparent0[0]) < 1e-8

    def test_connection_forms_built_on_access(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("RatFn.make called while building connection data")

        monkeypatch.setattr(RatFn, "make", staticmethod(refuse))
        cd = connection_data(three_fuchsian_field())
        model = model_connection(1, 0.5)
        monkeypatch.undo()
        assert cd.eta0 == RatFn.make(cd.y0, cd.x0)
        assert cd.eta_inf == RatFn.make(cd.yinf, cd.xinf)
        assert model.eta_inf is None


class TestModelConnection:
    def test_fuchsian_model(self):
        cd = model_connection(1, 0.5)
        assert cd.single_chart
        d = cd.directions[0]
        assert d.sing_class == FUCHSIAN and abs(d.residue - 0.5) < 1e-14

    def test_zero_rho_rejected(self):
        with pytest.raises(ValueError):
            model_connection(1, 0.0)

    def test_resonant_model(self):
        cd = model_connection(3, 1.0, a=1.0, n=1)
        d = cd.directions[0]
        assert d.sing_class == FUCHSIAN
        assert d.report.resonant and d.report.resonance_degree == 1


class TestMonodromy:
    def test_three_fuchsian_real_and_cyclic(self):
        cd = connection_data(three_fuchsian_field())
        info = monodromy_info(cd)
        assert info.real_periods
        assert info.finite_cyclic and info.cyclic_order == 3
        assert leaf_closure_class(cd) == CLOSED_LEAVES

    def test_spiral_not_real(self):
        cd = connection_data(spiral_field(0.7))
        info = monodromy_info(cd)
        assert not info.real_periods
        assert leaf_closure_class(cd) == ACCUMULATING_LEAVES

    def test_half_residue_cyclic(self):
        cd = connection_data(two_direction_field(0.5))
        info = monodromy_info(cd)
        assert info.real_periods and info.finite_cyclic and info.cyclic_order == 2
        assert leaf_closure_class(cd) == CLOSED_LEAVES


class TestLeafCurve:
    def test_initial_condition(self):
        q = two_direction_field(1.5)
        p = ProjPoint(CHART_ZERO, 0j)
        z0 = 0.4 + 0.2j
        assert characteristic_leaf_curve(q, p, z0, 0.0) == z0

    def test_inverse_linear_flow(self):
        # field vanishing to (0, -w^2) on the [0:1] leaf: lam = -1, nu = 1
        q = HomogeneousField(1, (0, -1, 0), (-1, 0, -1))
        p = ProjPoint(CHART_INF, 0j)
        z0 = 0.3 - 0.1j
        for t in (0.2, 1.0, 4.0):
            got = characteristic_leaf_curve(q, p, z0, t)
            assert abs(got - z0 / (1 + z0 * t)) < 1e-12

    def test_decay_off_positive_ray(self):
        q = two_direction_field(1.5)
        p = ProjPoint(CHART_ZERO, 0j)
        lam = q((1, 0))[0]  # eigenvalue on the [1:0] leaf
        z0 = 0.5 + 0.5j
        assert (lam * z0).real < 0 or abs((lam * z0).imag) > 1e-12
        assert abs(characteristic_leaf_curve(q, p, z0, 1e5)) < 1e-2

    def test_blow_up_time(self):
        q = two_direction_field(-1.0)  # Q1 = z^2: lam = 1 on [1:0]
        p = ProjPoint(CHART_ZERO, 0j)
        with pytest.raises(SingularTimeError):
            characteristic_leaf_curve(q, p, 1.0 + 0j, 2.0)

    def test_degenerate_constant(self):
        q = two_direction_field(2.0)
        p = ProjPoint(CHART_INF, 0j)  # degenerate direction
        assert characteristic_leaf_curve(q, p, 0.7 + 0j, 3.0) == 0.7 + 0j


def random_field(rng, nu):
    while True:
        q1 = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(nu + 2)]
        q2 = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(nu + 2)]
        q = HomogeneousField(nu, tuple(q1), tuple(q2))
        if not is_dicritical(q):
            return q


def random_gl2(rng, max_cond=1e3):
    while True:
        m = [
            [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
            for _ in range(2)
        ]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        norm = max(abs(x) for row in m for x in row)
        if abs(det) > norm**2 / max_cond * 4:
            return m
