import random
from dataclasses import replace

import pytest

from merocon.algebra import TruncSeries
from merocon.germs import (
    APPARENT,
    FUCHSIAN,
    IRREGULAR,
    REGIME_APPARENT,
    REGIME_ATTRACT,
    REGIME_CLOSED,
    REGIME_ESCAPE,
    REGIME_PERIODIC,
    REGIME_RESONANT,
    REGIME_UNDETERMINED,
    ResonanceOrderError,
    LocalGerm,
    VEL_CIRCLE,
    VEL_INF,
    VEL_ZERO,
    apparent_index,
    classify,
    germ_residue,
    normal_form_residuals,
    normalize_formal,
    predict_dynamics,
    transform_germ,
)

N = 16


def monomial_germ(mu_x, x_tail, mu_y, y_tail, n=N):
    hx = TruncSeries.from_coeffs(x_tail, n)
    hy = TruncSeries.from_coeffs(y_tail, n) if y_tail is not None else None
    return LocalGerm(mu_x, hx, mu_y if y_tail is not None else None, hy)


def from_polys(x, y, n=N):
    return LocalGerm.from_series(
        TruncSeries.from_coeffs(x, n),
        TruncSeries.from_coeffs(y, n) if y is not None else None,
    )


class TestClassify:
    def test_two_direction_irregular_germ(self):
        # X = -z^2, Y = -(1 + (1-rho) z) at the order-2 direction
        rho = 2.0 + 0j
        g = from_polys([0, 0, -1], [-1, -(1 - rho)])
        rep = classify(g)
        assert rep.sing_class == IRREGULAR
        assert rep.irregularity == 2
        assert abs(rep.rho - 1) < 1e-12
        assert abs(rep.resonant_index - (1 - rho)) < 1e-12

    def test_one_direction_irregular_germ(self):
        # X = z^3, Y = z(1 + z)
        g = from_polys([0, 0, 0, 1], [0, 1, 1])
        rep = classify(g)
        assert rep.sing_class == IRREGULAR
        assert rep.mu_x == 3
        assert rep.irregularity == 2
        assert abs(rep.resonant_index - 1) < 1e-12

    def test_fuchsian_normal_form_germ(self):
        rho = 0.7 - 0.2j
        g = from_polys([0, 1], [rho])
        rep = classify(g)
        assert rep.sing_class == FUCHSIAN
        assert not rep.resonant
        assert abs(rep.rho - rho) < 1e-12
        assert abs(rep.residue - rho) < 1e-12

    def test_apparent_germ(self):
        g = from_polys([0, 1], None)
        rep = classify(g)
        assert rep.sing_class == APPARENT
        assert rep.degenerate
        assert rep.residue == 0

    def test_resonance_detection(self):
        # mu_y = 0, rho = -2: resonance degree 2
        g = from_polys([0, 1], [-2])
        rep = classify(g)
        assert rep.resonant and rep.resonance_degree == 2

    def test_near_resonance_warning(self):
        g = from_polys([0, 1], [-2 + 1e-7])
        rep = classify(g)
        assert not rep.resonant and rep.near_resonance_warning

    def test_residue_matches_rho_in_fuchsian_case(self):
        g = from_polys([0, 0, 3, 1], [0, 2, 5])
        rep = classify(g)
        assert rep.sing_class == FUCHSIAN
        assert abs(rep.residue - rep.rho) < 1e-12


class TestNormalize:
    def test_normal_form_is_fixed_point(self):
        rho = 0.4 + 0.3j
        g = from_polys([0, 0, 1], [0, rho])
        gn, rep, (psi, xi) = normalize_formal(g, order=N)
        assert normal_form_residuals(gn, rep) < 1e-14
        assert max(abs(c) for c in psi.sub(TruncSeries.identity(psi.n)).c) < 1e-14
        assert max(abs(xi.c[0] - 1), max(abs(c) for c in xi.c[1:])) < 1e-14

    def test_quadratic_case_resonant_index(self):
        # X = z(1 - z)-type germ with rho = -1 resonates at degree 1 with index 1
        rho = -1.0 + 0j
        g = from_polys([0, 1], [rho, -1])
        gn, rep, _ = normalize_formal(g, order=N)
        assert rep.resonant and rep.resonance_degree == 1
        assert abs(rep.resonant_index - 1) < 1e-10

    def test_round_trip_random_fuchsian(self):
        rng = random.Random(42)
        for _ in range(40):
            mu_x = rng.randint(1, 3)
            rho = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(rho) < 0.2:
                rho += 0.5
            g0 = monomial_germ(mu_x, [1], mu_x - 1, [rho])
            psi, xi = random_change(rng)
            g1 = transform_germ(g0, psi, xi)
            gn, rep, _ = normalize_formal(g1, order=N)
            assert rep.sing_class == FUCHSIAN
            assert rep.mu_x == mu_x
            assert abs(rep.rho - rho) < 1e-8 * (1 + abs(rho))
            assert normal_form_residuals(gn, rep) < 1e-9

    def test_round_trip_resonant_keeps_index(self):
        rng = random.Random(77)
        for _ in range(20):
            mu_x = rng.randint(1, 3)
            mu_y = mu_x - 1
            n_res = rng.choice([n for n in range(1, 4) if n != mu_y])
            rho = complex(mu_y - n_res)
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = [0j] * 0 + [rho] + [0j] * (n_res - 1) + [rho * a]
            g0 = monomial_germ(mu_x, [1], mu_y, y)
            psi, xi = random_change(rng)
            g1 = transform_germ(g0, psi, xi)
            gn, rep, _ = normalize_formal(g1, order=N)
            assert rep.resonant and rep.resonance_degree == n_res
            assert abs(rep.resonant_index - a) < 1e-8 * (1 + abs(a))

    def test_irregular_index_matches_residue_formula(self):
        rng = random.Random(5)
        for _ in range(25):
            mu_y = rng.randint(0, 2)
            m = rng.randint(2, 3)
            mu_x = mu_y + m
            tail_x = [1] + [0.3 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
            tail_y = [complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))] + [
                0.3 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)
            ]
            g = monomial_germ(mu_x, tail_x, mu_y, tail_y)
            rep0 = classify(g)
            gn, rep, _ = normalize_formal(g, order=N)
            expected = germ_residue(g) / rep0.rho
            assert abs(rep.resonant_index - expected) < 1e-8 * (1 + abs(expected))

    def test_truncation_below_resonance_rejected(self):
        g = from_polys([0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, complex(-20)])
        with pytest.raises(ResonanceOrderError):
            normalize_formal(g, order=8)

    def test_apparent_rejected(self):
        g = from_polys([0, 1], None)
        with pytest.raises(ValueError):
            normalize_formal(g)


class TestCovariance:
    def test_classification_invariants_under_changes(self):
        rng = random.Random(303)
        for _ in range(30):
            kind = rng.choice(["fuchsian", "irregular"])
            mu_y = rng.randint(0, 2)
            m = 1 if kind == "fuchsian" else rng.randint(2, 3)
            mu_x = mu_y + m
            tails = lambda: [complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))] + [
                0.2 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)
            ]
            g = monomial_germ(mu_x, tails(), mu_y, tails())
            rep0 = classify(g)
            psi, xi = random_change(rng)
            rep1 = classify(transform_germ(g, psi, xi))
            assert rep1.sing_class == rep0.sing_class
            assert rep1.mu_x == rep0.mu_x
            assert rep1.mu_y == rep0.mu_y
            assert abs(rep1.rho - rep0.rho) < 1e-8 * (1 + abs(rep0.rho))
            assert abs(rep1.residue - rep0.residue) < 1e-8 * (1 + abs(rep0.residue))

    def test_top_degree_does_not_depend_on_the_order(self):
        # polynomial germs and changes transformed at orders 16 and 24 agree
        # at every degree up to 16, the top one included
        rng = random.Random(404)
        for _ in range(50):
            mu_y = rng.randint(0, 2)
            mu_x = mu_y + rng.randint(1, 2)
            tail = lambda lead: [lead] + [
                0.3 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)
            ]
            tail_x, tail_y = tail(1.0), tail(complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)))
            psi, xi = random_change(rng)
            low, high = (
                transform_germ(
                    monomial_germ(mu_x, tail_x, mu_y, tail_y, n), psi.truncate(n), xi.truncate(n)
                )
                for n in (N, 24)
            )
            assert (low.mu_x, low.mu_y) == (high.mu_x, high.mu_y)
            for a, b in ((low.hx, high.hx), (low.hy, high.hy)):
                scale = max(abs(c) for c in b.c[: N + 1])
                assert max(abs(x - y) for x, y in zip(a.c, b.c)) <= 1e-13 * scale


class TestApparentIndex:
    def test_plain_square(self):
        g = from_polys([0, 0, 1], None)
        assert abs(apparent_index(g)) < 1e-14

    def test_reads_off_normal_form(self):
        a = 0.8 - 0.1j
        g = from_polys([0, 0, 1, a], None)
        assert abs(apparent_index(g) - a) < 1e-12

    def test_two_path_consistency(self):
        # X = z^2, Y = z^3: removing Y must not change the invariant
        g = from_polys([0, 0, 1], [0, 0, 0, 1])
        g_ref = from_polys([0, 0, 1], None)
        assert abs(apparent_index(g) - apparent_index(g_ref)) < 1e-10

    def test_order_one_has_no_invariant(self):
        assert apparent_index(from_polys([0, 1], None)) is None

    def test_non_apparent_rejected(self):
        with pytest.raises(ValueError):
            apparent_index(from_polys([0, 1], [1]))


class TestPredict:
    def case(self, mu_y, rho, resonant_index=None, sing_class=FUCHSIAN):
        from merocon.germs import SingularityReport

        resonant = resonant_index is not None
        return SingularityReport(
            sing_class=sing_class,
            degenerate=mu_y is not None and mu_y >= 1,
            mu_x=(mu_y or 0) + 1,
            mu_y=mu_y,
            rho=complex(rho),
            irregularity=None,
            residue=complex(rho),
            resonant=resonant,
            resonance_degree=1 if resonant else None,
            resonant_index=resonant_index,
            apparent_index=None,
        )

    def test_escape_for_small_positive_rho(self):
        pred = predict_dynamics(self.case(0, 0.1))
        assert pred.regime == REGIME_ESCAPE and pred.velocity_limit == VEL_INF

    def test_imaginary_rho_closed(self):
        assert predict_dynamics(self.case(0, 1j)).regime == REGIME_CLOSED

    def test_attract_velocity_split(self):
        assert predict_dynamics(self.case(1, -0.5)).velocity_limit == VEL_ZERO
        assert predict_dynamics(self.case(2, 1.0)).velocity_limit == VEL_INF
        assert predict_dynamics(self.case(2, 1 + 1j)).velocity_limit == VEL_CIRCLE

    def test_periodic_family(self):
        assert predict_dynamics(self.case(2, 2.0)).regime == REGIME_PERIODIC

    def test_apparent_mixed(self):
        rep = self.case(None, 0, sing_class=APPARENT)
        assert predict_dynamics(rep).regime == REGIME_APPARENT

    def test_resonant_with_index_unknown(self):
        assert predict_dynamics(self.case(1, 0.0, resonant_index=1.0)).regime == REGIME_RESONANT

    def test_resonant_with_zero_index_uses_table(self):
        assert predict_dynamics(self.case(1, 0.0, resonant_index=0.0)).regime == REGIME_ATTRACT

    def test_irregular_undetermined(self):
        rep = self.case(0, 1.0, sing_class=IRREGULAR)
        assert predict_dynamics(rep).regime == REGIME_UNDETERMINED

    def test_total_function(self):
        rep = self.case(0, 0.3)
        assert predict_dynamics(rep) == predict_dynamics(rep)


def random_change(rng, n=N):
    psi = TruncSeries.from_coeffs(
        [0j, 1 + 0j] + [0.1 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 0.5 ** k for k in range(4)],
        n,
    )
    xi0 = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
    xi = TruncSeries.from_coeffs(
        [xi0] + [0.1 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 0.5 ** k for k in range(4)],
        n,
    )
    return psi, xi


# ---------------------------------------------------------------------------
# the incremental normalizer against a full-germ reference
# ---------------------------------------------------------------------------


def reference_normalize(germ, order=N):
    """Slow reference: each degree step pushes the whole germ through
    ``transform_germ`` and composes the whole change."""
    n_res = classify(germ).resonance_degree
    work_n = max(germ.order, order + 1)
    g = LocalGerm(germ.mu_x, germ.hx.truncate(work_n), germ.mu_y, germ.hy.truncate(work_n))
    ident = TruncSeries.identity(work_n)
    gauge = TruncSeries.const(g.hx.c[0], work_n)
    g, total = transform_germ(g, ident, gauge), (ident, gauge)
    mu_x, mu_y, rho = g.mu_x, g.mu_y, g.hy.c[0]
    for n in range(1, order + 1):
        a_n, b_n = g.hx.c[n], g.hy.c[n]
        if n == n_res:
            c1, c2 = 0j, a_n
        else:
            r11, r21 = complex(mu_x - n - 1), mu_y * rho
            r22 = n + rho if mu_x - mu_y == 1 else rho
            det = r11 * r22 - r21
            c1, c2 = (a_n * r22 - b_n) / det, (r11 * b_n - a_n * r21) / det
        if c1 == 0 and c2 == 0:
            continue
        psi = TruncSeries.from_coeffs((0j,) * (n + 1) + (c1,), work_n).add(ident)
        xi = TruncSeries.from_coeffs((1.0 + 0j,) + (0j,) * (n - 1) + (c2,), work_n)
        g = transform_germ(g, psi, xi)
        total = (psi.compose(total[0]), xi.compose(total[0]).mul(total[1]))
    g = LocalGerm(g.mu_x, g.hx.truncate(order), g.mu_y, g.hy.truncate(order))
    index = None if n_res is None else g.hy.c[n_res] / g.hy.c[0]
    rep = replace(classify(g), resonant_index=index)
    return g, rep, (total[0].truncate(order), total[1].truncate(order))


def unit_tail(rng, lead):
    return [lead] + [0.25 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 0.5**j for j in range(4)]


def acceptance_09_mix(rng, count):
    """Non-resonant and resonant Fuchsian round trips and irregular germs in
    equal shares, with mu_x = 1, 2, 3 in turn."""
    for k in range(count):
        mu_x, kind = k // 3 % 3 + 1, k % 3
        mu_y = mu_x - 1
        if kind == 2:
            m, lead = rng.randint(2, 3), complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            yield monomial_germ(mu_y + m, unit_tail(rng, 1.0 + 0j), mu_y, unit_tail(rng, lead))
            continue
        if kind == 1:
            n_res = rng.choice([n for n in range(1, 4) if n != mu_y])
            rho = complex(mu_y - n_res)
            y = [rho] + [0j] * (n_res - 1) + [rho * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
        else:
            y = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) + 0.5 + 0.7j]
        yield transform_germ(monomial_germ(mu_x, [1], mu_y, y), *random_change(rng))


class TestIncrementalNormalizer:
    def test_matches_full_germ_reference(self):
        # the normalized coefficients are differences of terms as large as
        # the change's coefficients, which grow factorially for irregular
        # germs; they are compared relative to that size
        for germ in acceptance_09_mix(random.Random(909), 48):
            gn, rep, (psi, xi) = normalize_formal(germ, order=N)
            rn, rrep, (rpsi, rxi) = reference_normalize(germ, order=N)
            assert (rep.sing_class, rep.mu_x, rep.mu_y) == (rrep.sing_class, rrep.mu_x, rrep.mu_y)
            assert rep.resonance_degree == rrep.resonance_degree
            assert abs(rep.rho - rrep.rho) <= 1e-10 * abs(rrep.rho)
            if rrep.resonant_index is not None:
                assert abs(rep.resonant_index - rrep.resonant_index) <= 1e-10 * max(
                    1.0, abs(rrep.resonant_index)
                )
            scale = max(1.0, *(abs(c) for c in rpsi.c + rxi.c))
            for got, want in ((gn.hx, rn.hx), (gn.hy, rn.hy), (psi, rpsi), (xi, rxi)):
                assert max(abs(a - b) for a, b in zip(got.c, want.c)) <= 1e-10 * scale

    def test_transform_with_general_psi(self):
        # c1(psi) != 1 takes the Horner composition and the Newton reversion
        rng = random.Random(17)
        psi = TruncSeries.from_coeffs(
            [0j, 1.3 - 0.4j] + [0.2 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)],
            N,
        )
        xi = TruncSeries.from_coeffs([0.8 + 0.3j, 0.1j, -0.2, 0.05], N)
        g = monomial_germ(2, [1, 0.3, -0.2j], 1, [0.6 - 0.1j, 0.4])
        g1 = transform_germ(g, psi, xi)
        # X' o psi = psi' X / xi and Y' o psi = Y / xi - (xi' / xi^2) X, at a point
        z = 0.03 - 0.02j
        w = psi.eval(z)
        x, y = z**2 * g.hx.eval(z), z * g.hy.eval(z)
        xi_z, dxi_z = xi.eval(z), xi.deriv().eval(z)
        x1, y1 = w**g1.mu_x * g1.hx.eval(w), w**g1.mu_y * g1.hy.eval(w)
        assert abs(x1 - psi.deriv().eval(z) * x / xi_z) <= 1e-13
        assert abs(y1 - (y / xi_z - dxi_z / xi_z**2 * x)) <= 1e-13
        rep0, rep1 = classify(g), classify(g1)
        assert (rep1.sing_class, rep1.mu_x, rep1.mu_y) == (rep0.sing_class, rep0.mu_x, rep0.mu_y)
        assert abs(rep1.residue - rep0.residue) <= 1e-12
