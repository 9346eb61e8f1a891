import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from merocon.algebra import (
    RatFn,
    TruncSeries,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_roots,
    rational_residue,
    solve_linear_series_ode,
)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * (1 + abs(a) + abs(b))


def match_root_sets(found, expected, tol=1e-7):
    assert sorted(m for _, m in found) == sorted(m for _, m in expected)
    left = list(found)
    for r, m in expected:
        hit = [i for i, (s, k) in enumerate(left) if abs(s - r) < tol * (1 + abs(r)) and k == m]
        assert hit, f"missing root {r} mult {m} in {left}"
        left.pop(hit[0])


class TestPolyRoots:
    def test_two_simple_roots(self):
        match_root_sets(poly_roots([-1, 0, 1]), [(1, 1), (-1, 1)])

    def test_double_root_at_origin(self):
        match_root_sets(poly_roots([0, 0, 1]), [(0, 2)])

    def test_characteristic_poly_of_three_fuchsian_field(self):
        # zeta - zeta^2, factored by hand
        match_root_sets(poly_roots([0, 1, -1]), [(0, 1), (1, 1)])

    def test_triple_root_shifted(self):
        c = poly_from_roots([(0.5 + 0.5j, 3)])
        match_root_sets(poly_roots(c), [(0.5 + 0.5j, 3)], tol=1e-5)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([0, 0])

    def test_product_roots_are_union(self):
        rng = random.Random(7)
        for _ in range(60):
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            r1 = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1) for _ in range(d1)]
            r2 = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1) for _ in range(d2)]
            p = poly_from_roots(r1, 1.3 - 0.2j)
            q = poly_from_roots(r2, -0.4 + 1j)
            match_root_sets(poly_roots(poly_mul(p, q)), r1 + r2, tol=1e-5)

    @given(
        st.lists(
            st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.integers(1, 3)), min_size=1, max_size=5
        )
    )
    # a triple root next to a double root: once split into three simple roots
    @example([(1.5, -1.625, 3), (0.890625, -1.75, 2)])
    def test_planted_multiplicities(self, draws):
        # distinct roots at least 0.3 apart, multiplicity <= 3, degree <= 5
        planted: list[tuple[complex, int]] = []
        for re, im, m in draws:
            r = complex(re, im)
            if sum(k for _, k in planted) + m <= 5 and all(abs(r - q) >= 0.3 for q, _ in planted):
                planted.append((r, m))
        match_root_sets(poly_roots(poly_from_roots(planted, 0.7 - 1.1j)), planted, tol=1e-4)

    @pytest.mark.parametrize(
        "planted",
        [
            # closer than the triple-root radius 1e-3, farther than the double 3.2e-5
            [(0.5 + 0.2j - 6e-4, 1), (0.5 + 0.2j, 1), (0.5 + 0.2j + 6e-4, 1)],
            [(0.3 + 0.004j * k, 1) for k in range(5)],
            [(0.7, 2), (0.701, 1)],
            [(0.4 - 0.3j, 3), (0.402 - 0.3j, 1)],
        ],
        ids=["three-simple", "five-simple", "double-and-simple", "triple-and-simple"],
    )
    def test_close_roots_keep_their_multiplicities(self, planted):
        match_root_sets(poly_roots(poly_from_roots(planted, 0.7 - 1.1j)), planted, tol=1e-7)

    @pytest.mark.parametrize("h", [2.0**-9, 2.0**-11])
    def test_clustered_simple_roots_to_an_ulp(self, h):
        # dyadic roots give exact coefficients; float Newton alone stops
        # about eps/h^2 away from the middle root
        planted = [(0.5 + 0.25j + k * h, 1) for k in range(3)] + [(-0.75 + 0.5j, 1)]
        match_root_sets(poly_roots(poly_from_roots(planted)), planted, tol=1e-15)

    def test_residual_bound(self):
        rng = random.Random(3)
        for _ in range(40):
            c = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(rng.randint(2, 6))]
            c[-1] += 1.0
            scale = max(abs(x) for x in c)
            for r, _ in poly_roots(c):
                assert abs(poly_eval(c, r)) < 1e-7 * scale * max(1.0, abs(r)) ** (len(c) - 1)


class TestResidues:
    def test_simple_pole(self):
        rho = 0.3 - 1.1j
        assert close(rational_residue([rho], [0, 1], 0j), rho)

    def test_double_pole_no_residue(self):
        assert close(rational_residue([1], [0, 0, 1], 0j), 0)

    def test_three_fuchsian_connection_form(self):
        # (1/3 - (2/3) z) / (z (1 - z)); residue 1/3 at both poles
        num = [1 / 3, -2 / 3]
        den = [0, 1, -1]
        assert close(rational_residue(num, den, 0j), 1 / 3, 1e-12)
        assert close(rational_residue(num, den, 1 + 0j), 1 / 3, 1e-12)

    def test_regular_point_returns_zero(self):
        assert close(rational_residue([1, 1], [0, 1], 2 + 0j), 0)

    def test_removable_singularity(self):
        # (z-1)(z-2) / (z-1): no pole left at 1
        num = poly_from_roots([(1, 1), (2, 1)])
        den = poly_from_roots([(1, 1)])
        assert close(rational_residue(num, den, 1 + 0j), 0)

    def test_linearity(self):
        rng = random.Random(11)
        den = poly_from_roots([(0.5, 1), (-1j, 1), (2, 1)])
        for _ in range(30):
            f = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
            g = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
            a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            comb = [a * x + b * y for x, y in zip(f, g)]
            for p in (0.5, -1j, 2):
                lhs = rational_residue(comb, den, p)
                rhs = a * rational_residue(f, den, p) + b * rational_residue(g, den, p)
                assert close(lhs, rhs, 1e-10)

    def test_residues_sum_to_zero(self):
        # deg num <= deg den - 2 forces a vanishing total residue
        rng = random.Random(23)
        for _ in range(30):
            d = rng.randint(2, 5)
            roots = []
            while len(roots) < d:
                r = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if all(abs(r - s) > 0.2 for s, _ in roots):
                    roots.append((r, 1))
            den = poly_from_roots(roots)
            num = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d - 1)]
            total = sum(rational_residue(num, den, r) for r, _ in roots)
            assert abs(total) < 1e-8

    def test_higher_order_pole(self):
        # 1/(z^2 (z-1)) = -1/z - 1/z^2 + 1/(z-1)
        den = poly_mul([0, 0, 1], [-1, 1])
        assert close(rational_residue([1], den, 0j), -1, 1e-12)
        assert close(rational_residue([1], den, 1 + 0j), 1, 1e-12)


class TestRatFn:
    def test_reduction_cancels_common_roots(self):
        num = poly_from_roots([(1, 1), (3, 1)], 2.0)
        den = poly_from_roots([(1, 1), (-2, 1)])
        f = RatFn.make(num, den)
        assert len(f.poles()) == 1
        (p, m), = f.poles()
        assert close(p, -2, 1e-8) and m == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RatFn.make([1], [0])


class TestSeries:
    def test_recip_geometric(self):
        s = TruncSeries.from_coeffs([1, 1], 3)
        assert s.recip().c == (1, -1, 1, -1)

    def test_compose_square(self):
        outer = TruncSeries.from_coeffs([0, 0, 1], 3)
        inner = TruncSeries.from_coeffs([0, 1, 1], 3)
        assert outer.compose(inner).c == (0, 0, 1, 2)

    def test_mul_recip_is_one(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 12)
            c = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n + 1)]
            if abs(c[0]) < 0.1:
                c[0] += 1.0
            s = TruncSeries(n, tuple(c))
            r = s.recip()
            prod = s.mul(r)
            scale = max(abs(x) for x in r.c) * max(abs(x) for x in s.c)
            assert abs(prod.c[0] - 1) < 1e-12 * max(1.0, scale)
            assert all(abs(x) < 1e-12 * max(1.0, scale) for x in prod.c[1:])

    def test_recip_involution(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 10)
            c = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n + 1)]
            c[0] = c[0] + 2.0
            s = TruncSeries(n, tuple(c))
            back = s.recip().recip()
            assert all(abs(a - b) < 1e-10 for a, b in zip(back.c, s.c))

    def test_recip_requires_unit(self):
        with pytest.raises(ValueError):
            TruncSeries.from_coeffs([0, 1], 2).recip()

    def test_compose_requires_zero_constant(self):
        s = TruncSeries.from_coeffs([1, 1], 2)
        with pytest.raises(ValueError):
            s.compose(s)

    def test_reversion_round_trip(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 10)
            c = [0j, 1 + 0j] + [
                0.3 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n - 1)
            ]
            f = TruncSeries(n, tuple(c))
            g = f.reversion()
            ident = f.compose(g)
            assert abs(ident.c[1] - 1) < 1e-10
            assert all(abs(x) < 1e-9 for k, x in enumerate(ident.c) if k != 1)

    def test_linear_ode_exponential(self):
        w = TruncSeries.from_coeffs([1], 8)
        y = solve_linear_series_ode(w)
        for k in range(9):
            assert close(y.c[k], 1 / math.factorial(k), 1e-12)

    def test_mul_matches_pointwise(self):
        a = TruncSeries.from_coeffs([1, 2, 3], 4)
        b = TruncSeries.from_coeffs([2, 0, -1], 4)
        prod = a.mul(b)
        z = 0.05 + 0.02j
        assert close(prod.eval(z), a.eval(z) * b.eval(z), 1e-6)


# ---------------------------------------------------------------------------
# slow references for the series kernel: plain truncated products, one Horner
# pass per composition and a fixed-point reversion that gains one degree per
# pass of composition
# ---------------------------------------------------------------------------


def ref_mul(a, b):
    n = min(len(a), len(b)) - 1
    out = [0j] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_recip(c):
    out = [1 / c[0]]
    for k in range(1, len(c)):
        out.append(-out[0] * sum(c[j] * out[k - j] for j in range(1, k + 1)))
    return out


def ref_compose(f, g):
    n = min(len(f), len(g)) - 1
    acc = [f[n]] + [0j] * n
    for k in range(n - 1, -1, -1):
        acc = ref_mul(acc, g[: n + 1])
        acc[0] += f[k]
    return acc


def ref_reversion(f):
    # f(g) = z  <=>  g = (z - (f - c1 z)(g)) / c1
    n = len(f) - 1
    g = [0j, 1 / f[1]] + [0j] * (n - 1)
    tail = [0j, 0j] + list(f[2:])
    for _ in range(n):
        t = ref_compose(tail, g)
        g = [(float(k == 1) - x) / f[1] for k, x in enumerate(t)]
    return g


def magnitudes(c):
    return [abs(x) for x in c]


def size(c):
    return max(abs(x) for x in c)


def assert_close(got, want, scale, tol=1e-12):
    """Coefficientwise agreement relative to the size of the summed terms."""
    assert len(got) == len(want)
    err = max(abs(a - b) for a, b in zip(got, want))
    assert err <= tol * max(scale, 1.0), (err, scale)


DISK = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
ORDER = st.integers(min_value=0, max_value=24)


@st.composite
def coeffs(draw, n, first=None, decay=0.7):
    """n + 1 coefficients in the unit disk, shrinking by ``decay`` per degree."""
    out = [draw(DISK) * decay**k for k in range(n + 1)]
    if first is not None:
        out[: len(first)] = first
    return out


@st.composite
def annulus(draw, lo=0.5):
    z = draw(DISK)
    assume(abs(z) >= lo)
    return z


class TestSeriesProperties:
    @given(st.data(), ORDER)
    def test_mul_matches_reference(self, data, n):
        a, b = data.draw(coeffs(n)), data.draw(coeffs(n))
        got = TruncSeries(n, tuple(a)).mul(TruncSeries(n, tuple(b))).c
        assert_close(got, ref_mul(a, b), size(ref_mul(magnitudes(a), magnitudes(b))))

    @given(st.data(), ORDER, annulus())
    def test_recip_matches_reference(self, data, n, c0):
        c = data.draw(coeffs(n, first=[c0]))
        want = ref_recip(c)
        assert_close(TruncSeries(n, tuple(c)).recip().c, want, size(want))

    def check_compose(self, f, g):
        n = len(f) - 1
        got = TruncSeries(n, tuple(f)).compose(TruncSeries(n, tuple(g))).c
        assert_close(got, ref_compose(f, g), size(ref_compose(magnitudes(f), magnitudes(g))))

    @given(st.data(), st.integers(min_value=2, max_value=24))
    def test_compose_near_identity_inner(self, data, n):
        p = data.draw(st.integers(min_value=2, max_value=n))
        g = data.draw(coeffs(n, first=[0j, 1.0 + 0j] + [0j] * (p - 2)))
        self.check_compose(data.draw(coeffs(n)), g)

    @given(st.data(), st.integers(min_value=1, max_value=24))
    def test_compose_sparse_outer(self, data, n):
        degrees = data.draw(st.sets(st.integers(0, n), min_size=1, max_size=2))
        f = [data.draw(DISK) if k in degrees else 0j for k in range(n + 1)]
        self.check_compose(f, data.draw(coeffs(n, first=[0j])))

    @given(st.data(), st.integers(min_value=1, max_value=24))
    def test_compose_general_inner(self, data, n):
        g = data.draw(coeffs(n, first=[0j]))
        assume(g[1] != 1)
        self.check_compose(data.draw(coeffs(n)), g)

    @given(st.data(), st.integers(min_value=1, max_value=24), annulus())
    def test_reversion_matches_reference(self, data, n, c1):
        f = data.draw(coeffs(n, first=[0j, c1]))
        self.check_reversion(f)

    @given(st.data(), st.integers(min_value=2, max_value=24), annulus(), DISK)
    def test_reversion_of_binomial(self, data, n, b, a):
        m = data.draw(st.integers(min_value=2, max_value=n))
        f = [0j] * (n + 1)
        f[1], f[m] = b, a
        self.check_reversion(f)

    def check_reversion(self, f):
        n = len(f) - 1
        s = TruncSeries(n, tuple(f))
        g = s.reversion()
        want = ref_reversion(f)
        assert_close(g.c, want, size(want))
        # f(g) = z, measured against the terms of |f|(|g|)
        ident = [0j, 1.0 + 0j] + [0j] * (n - 1)
        scale = size(ref_compose(magnitudes(f), magnitudes(g.c)))
        assert_close(s.compose(g).c, ident, scale)

    @given(ORDER)
    def test_boundary_validation(self, n):
        with pytest.raises(ValueError):
            TruncSeries(n, (0j,) * (n + 2))
        with pytest.raises(ValueError):
            TruncSeries(n, (0j,) * n)
        s = TruncSeries(n, tuple(range(n + 1)))
        assert all(type(x) is complex for x in s.c)
        assert s.c == tuple(complex(k) for k in range(n + 1))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries(-1, ())
