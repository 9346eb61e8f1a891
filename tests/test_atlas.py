import cmath
import random

import numpy as np
import pytest

from merocon.atlas import (
    LABELS,
    AtlasLabel,
    classify_quadratic,
    closed_form_oracle,
    dynamics_dossier,
    template_field,
)
from merocon.fields import (
    CHART_INF,
    CHART_ZERO,
    HomogeneousField,
    SingularTimeError,
    connection_data,
)
from merocon.flow import IntegratorConfig, chart_transition, integrate, lift_nu_polar


def rand_param(rng, avoid=()):
    while True:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) > 0.3 and all(abs(z - a) > 0.25 for a in avoid):
            return z


def rand_label(rng, name):
    if name in ("C210", "C211"):
        return AtlasLabel(name, rho=rand_param(rng))
    if name == "C3rho10":
        return AtlasLabel(name, rho=rand_param(rng, avoid=(1,)))
    if name == "C3rhotau1":
        while True:
            r, t = rand_param(rng), rand_param(rng)
            if abs(r + t - 1) > 0.3:
                return AtlasLabel(name, rho=r, tau=t)
    return AtlasLabel(name)


def rand_gl2(rng, max_cond=1e3):
    while True:
        m = np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
        )
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] / s[-1] < max_cond and s[-1] > 1e-3:
            return m


def conjugated(rng, label):
    T = template_field(label)
    L = rand_gl2(rng)
    return T.conjugate(((L[0, 0], L[0, 1]), (L[1, 0], L[1, 1])))


class TestTemplates:
    def test_label_constraints(self):
        with pytest.raises(ValueError):
            AtlasLabel("C210", rho=0)
        with pytest.raises(ValueError):
            AtlasLabel("C3rho10", rho=1)
        with pytest.raises(ValueError):
            AtlasLabel("C3rhotau1", rho=0.3, tau=0.7)
        with pytest.raises(ValueError):
            AtlasLabel("C100", rho=1.0)

    def test_known_coefficients(self):
        t = template_field(AtlasLabel("C100"))
        assert t.q1 == (0, 0, 0) and t.q2 == (-1, 0, 0)
        t = template_field(AtlasLabel("INF"))
        assert t.q1 == (1, 0, 0) and t.q2 == (0, 1, 0)
        r, ta = 0.4 + 0.1j, -0.7 + 0.2j
        t = template_field(AtlasLabel("C3rhotau1", rho=r, tau=ta))
        assert t.q1 == (-r, 1 - ta, 0) and t.q2 == (0, 1 - r, -ta)

    def test_three_fuchsian_residue_audit(self):
        rng = random.Random(21)
        for _ in range(20):
            lab = rand_label(rng, "C3rhotau1")
            cd = connection_data(template_field(lab))
            res = {}
            for d in cd.directions:
                key = (d.point.chart, round(abs(d.point.coord), 6))
                res[key] = d.residue
            assert abs(res[(CHART_ZERO, 0.0)] - lab.rho) < 1e-10
            assert abs(res[(CHART_ZERO, 1.0)] - (1 - lab.rho - lab.tau)) < 1e-10
            assert abs(res[(CHART_INF, 0.0)] - lab.tau) < 1e-10


class TestClassification:
    def test_round_trip_all_labels(self):
        rng = random.Random(99)
        for name in LABELS:
            for _ in range(10):
                lab = rand_label(rng, name)
                rep = classify_quadratic(conjugated(rng, lab))
                assert rep.label.name == name
                assert rep.residual <= 1e-8

    def test_predictions_survive_conjugation(self):
        # roundoff in a conjugated field must not carry a direction across a
        # boundary of the decision table (C2001's double direction has rho = mu_y)
        def predictions(field):
            return sorted(
                (d.prediction.regime, d.prediction.velocity_limit)
                for d in connection_data(field).directions
            )

        rng = random.Random(71)
        for name in LABELS:
            if name == "INF":
                continue
            for _ in range(50):
                lab = rand_label(rng, name)
                want = predictions(template_field(lab))
                assert predictions(conjugated(rng, lab)) == want, lab

    def test_two_direction_parameter_recovery(self):
        rng = random.Random(5)
        for name in ("C210", "C211"):
            for _ in range(15):
                lab = rand_label(rng, name)
                rep = classify_quadratic(conjugated(rng, lab))
                assert abs(rep.label.rho - lab.rho) < 1e-6

    def test_three_direction_parameters_canonical(self):
        # tie-break sorts residues lexicographically; recovery up to that
        rng = random.Random(6)
        for _ in range(15):
            lab = rand_label(rng, "C3rhotau1")
            rep = classify_quadratic(conjugated(rng, lab))
            expect = sorted(
                (lab.rho, 1 - lab.rho - lab.tau, lab.tau),
                key=lambda z: (round(z.real, 9), round(z.imag, 9)),
            )
            assert abs(rep.label.rho - expect[0]) < 1e-6
            assert abs(rep.label.tau - expect[2]) < 1e-6

    def test_conjugacy_matrix_is_valid(self):
        rng = random.Random(7)
        lab = AtlasLabel("C211", rho=2.0)
        q = conjugated(rng, lab)
        rep = classify_quadratic(q)
        L = rep.conjugacy
        moved = q.conjugate(L)
        target = template_field(rep.label)
        assert max(abs(a - b) for a, b in zip(moved.q1, target.q1)) < 1e-8
        assert max(abs(a - b) for a, b in zip(moved.q2, target.q2)) < 1e-8

    def test_known_c211_field(self):
        q = HomogeneousField(1, (-2, 1, 0), (0, -1, 1))
        rep = classify_quadratic(q)
        assert rep.label.name == "C211"
        assert abs(rep.label.rho - 2) < 1e-9

    def test_three_thirds_field(self):
        q = HomogeneousField(1, (-1 / 3, 2 / 3, 0), (0, 2 / 3, -1 / 3))
        rep = classify_quadratic(q)
        assert rep.label.name == "C3rhotau1"
        assert abs(rep.label.rho - 1 / 3) < 1e-9
        assert abs(rep.label.tau - 1 / 3) < 1e-9

    def test_radial_multiple_is_dicritical(self):
        q = HomogeneousField(1, (1, 1, 0), (0, 1, 1))
        rep = classify_quadratic(q)
        assert rep.label.name == "INF" and rep.residual < 1e-10

    def test_cubic_field_rejected(self):
        with pytest.raises(ValueError):
            classify_quadratic(HomogeneousField(2, (1, 0, 0, 0), (0, 0, 0, 1)))


class TestOracles:
    def test_initial_conditions(self):
        assert closed_form_oracle(AtlasLabel("C3100"), (1, 2), 0.0) == (1, 2)
        assert closed_form_oracle(AtlasLabel("C100"), (1 + 1j, 2), 0.0) == (1 + 1j, 2)

    def test_values(self):
        z0, w0 = 0.5 + 0.2j, -0.3 + 0.1j
        got = closed_form_oracle(AtlasLabel("C100"), (z0, w0), 2.0)
        assert got == (z0, w0 - z0 * z0 * 2.0)
        got = closed_form_oracle(AtlasLabel("C2001"), (z0, w0), 1.5)
        assert abs(got[1] - w0 * cmath.exp(1.5 * z0)) < 1e-14

    def test_unsupported_label(self):
        with pytest.raises(ValueError):
            closed_form_oracle(AtlasLabel("C111"), (1, 1), 1.0)

    def test_blow_up_detected(self):
        # C210 with rho z0 real negative blows up at t = -1/(rho z0)
        lab = AtlasLabel("C210", rho=-1.0)
        with pytest.raises(SingularTimeError):
            closed_form_oracle(lab, (1.0, 1.0), 1.0)

    @pytest.mark.parametrize(
        "name,params",
        [("C100", {}), ("C2001", {}), ("C3100", {}), ("C210", {"rho": 0.4 + 0.3j})],
    )
    def test_oracle_matches_integrator(self, name, params):
        rng = random.Random(hash(name) % 1000)
        lab = AtlasLabel(name, **params)
        field = template_field(lab)
        cd = connection_data(field)
        cfg = IntegratorConfig(
            rel_tol=1e-11, abs_tol=1e-14, t_max=3.0, record_stride=0.05
        )
        done = 0
        while done < 5:
            w = (
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            if abs(w[0]) < 0.2 or abs(w[1]) < 0.2 or abs(w[0] - w[1]) < 0.2:
                continue
            try:
                path = [closed_form_oracle(lab, w, 3.0 * k / 40) for k in range(41)]
            except SingularTimeError:
                continue
            if any(max(abs(a), abs(b)) > 50 or min(abs(a), abs(b)) < 1e-3 for a, b in path):
                continue
            done += 1
            traj = integrate(cd, lift_nu_polar(w, 1), cfg)
            for s in traj.samples:
                oracle = lift_nu_polar(closed_form_oracle(lab, w, s.t), 1)
                if oracle.chart != s.chart:
                    oracle = chart_transition(oracle, 1)
                assert abs(oracle.zeta - s.zeta) < 1e-6 * (1 + abs(s.zeta))
                assert abs(oracle.v - s.v) < 1e-6 * (1 + abs(s.v))


class TestDossier:
    def test_contents(self):
        q = HomogeneousField(1, (-1 / 3, 2 / 3, 0), (0, 2 / 3, -1 / 3))
        rep = classify_quadratic(q)
        dossier = dynamics_dossier(rep, q)
        assert dossier["label"]["name"] == "C3rhotau1"
        assert len(dossier["directions"]) == 3
        assert dossier["monodromy"]["finite_cyclic"]
        assert dossier["leaf_closure"] == "closed_leaves"
        # no subset of induced residues (-2/3 each) has real part -1
        assert dossier["closed_geodesic_subsets"] == []
        assert dossier["full_description_hypotheses"]["all_directions_order_one_fuchsian"]

    def test_periodic_subset_detected(self):
        # one apparent direction with induced residue -1 hosts periodic loops
        q = HomogeneousField(1, (0, 0, 0), (0, 1, 0))
        rep = classify_quadratic(q)
        dossier = dynamics_dossier(rep, q)
        assert dossier["periodic_geodesic_subsets"]
