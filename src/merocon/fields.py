# Homogeneous vector fields on C^2 and their induced connection data on the
# projective line.
#
# A degree-(nu+1) field Q = (Q1, Q2) determines, in the two standard blow-up
# charts, the polynomial pair (X, Y) with
#
#   chart 0   (zeta = w2/w1):  X0 = Q2(1,z) - z Q1(1,z),   Y0 = -nu Q1(1,z)
#   chart inf (zeta = w1/w2):  Xinf = Q1(z,1) - z Q2(z,1), Yinf = -nu Q2(z,1)
#
# The geodesic field reads X v d/dzeta - Y v^2 d/dv, the connection form is
# (Y/X) dzeta, and the characteristic directions are the projective roots of
# w1 Q2 - w2 Q1.

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .algebra import (
    DEFAULT_TOL,
    Coeffs,
    RatFn,
    RootFindingError,
    TruncSeries,
    poly_eval,
    poly_mul,
    poly_roots,
    poly_shift,
    poly_trim,
)
from .germs import (
    APPARENT,
    FUCHSIAN,
    DynamicsPrediction,
    LocalGerm,
    SingularityReport,
    apparent_index,
    classify,
    normalize_formal,
    predict_dynamics,
)

CHART_ZERO = "0"
CHART_INF = "inf"


class DicriticalFieldError(ValueError):
    """Raised when an operation needs a non-dicritical field."""


class SingularTimeError(ValueError):
    """Closed-form evaluation requested at or past a blow-up time."""


@dataclass(frozen=True)
class HomogeneousField:
    """Homogeneous polynomial field (Q1, Q2) of degree nu+1 on C^2.

    q1[k] and q2[k] are the coefficients of z^(nu+1-k) w^k.
    """

    nu: int
    q1: Coeffs
    q2: Coeffs

    def __post_init__(self) -> None:
        if self.nu < 1:
            raise ValueError("field degree nu+1 must be at least 2")
        want = self.nu + 2
        if len(self.q1) != want or len(self.q2) != want:
            raise ValueError(f"need {want} coefficients per component")
        object.__setattr__(self, "q1", tuple(complex(x) for x in self.q1))
        object.__setattr__(self, "q2", tuple(complex(x) for x in self.q2))
        if self.scale == 0.0:
            raise ValueError("field must not be identically zero")

    @property
    def scale(self) -> float:
        return max(max(abs(c) for c in self.q1), max(abs(c) for c in self.q2))

    def __call__(self, w: tuple[complex, complex]) -> tuple[complex, complex]:
        z, ww = w
        powers = [1.0 + 0j]
        for _ in range(self.nu + 1):
            powers.append(powers[-1] * ww)
        zp = [1.0 + 0j]
        for _ in range(self.nu + 1):
            zp.append(zp[-1] * z)
        q1 = sum(c * zp[self.nu + 1 - k] * powers[k] for k, c in enumerate(self.q1))
        q2 = sum(c * zp[self.nu + 1 - k] * powers[k] for k, c in enumerate(self.q2))
        return q1, q2

    def conjugate(self, L: Sequence[Sequence[complex]]) -> "HomogeneousField":
        """Pushforward L*Q with (L*Q)(w) = L Q(L^{-1} w)."""
        (a, b), (c, d) = L
        det = a * d - b * c
        if det == 0:
            raise ValueError("conjugating matrix must be invertible")
        ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
        # rows of Q o L^{-1} in the monomial basis
        comp1 = _substitute_linear(self.q1, ia, ib, ic, id_)
        comp2 = _substitute_linear(self.q2, ia, ib, ic, id_)
        new1 = tuple(a * x + b * y for x, y in zip(comp1, comp2))
        new2 = tuple(c * x + d * y for x, y in zip(comp1, comp2))
        return HomogeneousField(self.nu, new1, new2)


def _substitute_linear(
    coeffs: Coeffs, a: complex, b: complex, c: complex, d: complex
) -> Coeffs:
    """Coefficients of P(a z + b w, c z + d w) for homogeneous P."""
    deg = len(coeffs) - 1
    # powers[i][j] = coefficients of (az+bw)^i (cz+dw)^(deg-i) ... built iteratively
    first = [(1.0 + 0j,)]
    second = [(1.0 + 0j,)]
    for _ in range(deg):
        first.append(poly_mul(first[-1], (a, b)))
        second.append(poly_mul(second[-1], (c, d)))
    out = [0j] * (deg + 1)
    for k, coef in enumerate(coeffs):
        if coef == 0:
            continue
        term = poly_mul(first[deg - k], second[k])
        for j, t in enumerate(term):
            out[j] += coef * t
    return tuple(out)


# ---------------------------------------------------------------------------
# points of the projective line
# ---------------------------------------------------------------------------

def sphere(chart: str, z: complex) -> tuple[float, float, float]:
    """Unit-sphere image of the point with coordinate z in the given chart."""
    n = z.real * z.real + z.imag * z.imag
    d = 1.0 + n
    if chart == CHART_ZERO:
        return (2 * z.real / d, 2 * z.imag / d, (n - 1) / d)
    return (2 * z.real / d, -2 * z.imag / d, (1 - n) / d)


def chordal(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """Chordal distance on P^1: half the distance between unit-sphere images."""
    return 0.5 * math.sqrt(
        (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
    )


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^1 stored in the chart where its coordinate has |.| <= 1."""

    chart: str
    coord: complex

    def __post_init__(self) -> None:
        if self.chart not in (CHART_ZERO, CHART_INF):
            raise ValueError("chart must be '0' or 'inf'")

    @staticmethod
    def make(chart: str, coord: complex) -> "ProjPoint":
        if abs(coord) > 1.0:
            chart = CHART_INF if chart == CHART_ZERO else CHART_ZERO
            coord = 1.0 / coord
        return ProjPoint(chart, complex(coord))

    @staticmethod
    def from_vector(w: tuple[complex, complex]) -> "ProjPoint":
        w1, w2 = w
        if w1 == 0 and w2 == 0:
            raise ValueError("the origin has no direction")
        if abs(w2) <= abs(w1):
            return ProjPoint(CHART_ZERO, w2 / w1)
        return ProjPoint(CHART_INF, w1 / w2)

    def representative(self) -> tuple[complex, complex]:
        if self.chart == CHART_ZERO:
            return (1.0 + 0j, self.coord)
        return (self.coord, 1.0 + 0j)

    def coord_in(self, chart: str) -> complex:
        """Coordinate in the requested chart (may be infinite)."""
        if chart == self.chart:
            return self.coord
        if self.coord == 0:
            return complex(math.inf)
        return 1.0 / self.coord

    def sphere(self) -> tuple[float, float, float]:
        return sphere(self.chart, self.coord)

    def chordal(self, other: "ProjPoint") -> float:
        return chordal(self.sphere(), other.sphere())


# ---------------------------------------------------------------------------
# connection data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharDirection:
    point: ProjPoint
    order: int
    degenerate: bool
    residue: complex
    induced_residue: complex
    index: complex
    report: SingularityReport
    prediction: DynamicsPrediction

    @property
    def sing_class(self) -> str:
        return self.report.sing_class

    @property
    def irregularity(self) -> Optional[int]:
        return self.report.irregularity


@dataclass(frozen=True)
class ConnectionData:
    """Chart polynomials of the geodesic field plus per-direction data."""

    nu: int
    x0: Coeffs
    y0: Coeffs
    xinf: Optional[Coeffs]
    yinf: Optional[Coeffs]
    directions: tuple[CharDirection, ...]
    single_chart: bool = False

    @property
    def eta0(self) -> RatFn:
        """Reduced connection form Y0/X0 in chart 0, computed on access."""
        return RatFn.make(self.y0, self.x0)

    @property
    def eta_inf(self) -> Optional[RatFn]:
        """Reduced Yinf/Xinf in chart inf; None for single-chart models."""
        if self.single_chart:
            return None
        return RatFn.make(self.yinf, self.xinf)

    def chart_polys(self, chart: str) -> tuple[Coeffs, Coeffs]:
        if chart == CHART_ZERO or self.single_chart:
            return self.x0, self.y0
        return self.xinf, self.yinf

    def negated(self) -> "ConnectionData":
        neg = lambda c: tuple(-x for x in c) if c is not None else None
        return replace(
            self,
            x0=neg(self.x0),
            y0=neg(self.y0),
            xinf=neg(self.xinf),
            yinf=neg(self.yinf),
        )


def cross_poly(field: HomogeneousField) -> Coeffs:
    """Coefficients of w1 Q2 - w2 Q1 (ascending in the chart-0 variable)."""
    n = field.nu + 2
    out = [0j] * (n + 1)
    for k, c in enumerate(field.q2):
        out[k] += c
    for k, c in enumerate(field.q1):
        out[k + 1] -= c
    return tuple(out)


def is_dicritical(field: HomogeneousField) -> bool:
    return max(abs(c) for c in cross_poly(field)) <= DEFAULT_TOL * field.scale


def chart_polynomials(field: HomogeneousField) -> tuple[Coeffs, Coeffs, Coeffs, Coeffs]:
    """(x0, y0, xinf, yinf) for the two standard charts."""
    r = cross_poly(field)
    x0 = r
    y0 = tuple(-field.nu * c for c in field.q1)
    xinf = tuple(-c for c in reversed(r))
    yinf = tuple(-field.nu * c for c in reversed(field.q2))
    return x0, y0, xinf, yinf


def characteristic_directions(field: HomogeneousField) -> list[tuple[ProjPoint, int]]:
    """Projective roots of w1 Q2 - w2 Q1 with multiplicities (sum nu+2).

    Roots are taken from whichever chart holds them inside the unit disc,
    where the root problem is well scaled (a multiple root far out in one
    chart is tame near the origin in the other); each root is polished to
    machine precision with a multiplicity-aware Newton step, and the
    overlap band near |coord| = 1 is deduplicated by chordal proximity.
    """
    if is_dicritical(field):
        raise DicriticalFieldError("every direction of a dicritical field is characteristic")
    x0, _, xinf, _ = chart_polynomials(field)
    band = 1.0 + 1e-6
    found: list[tuple[ProjPoint, int, str]] = []
    for chart, poly in ((CHART_ZERO, x0), (CHART_INF, xinf)):
        trimmed = poly_trim(poly, rel=1e-12)
        if len(trimmed) <= 1:
            continue
        for root, mult in poly_roots(trimmed):
            if abs(root) > band:
                continue
            coord = _polish_mult(trimmed, root, mult)
            found.append((ProjPoint.make(chart, coord), mult, chart))
    out: list[tuple[ProjPoint, int]] = []
    for point, mult, chart in found:
        dup = False
        for other, other_mult in out:
            if point.chordal(other) < 1e-8:
                if other_mult != mult:
                    raise RootFindingError(
                        "inconsistent multiplicities across chart root sets"
                    )
                dup = True
                break
        if not dup:
            out.append((point, mult))
    total = sum(m for _, m in out)
    if total != field.nu + 2:
        raise RootFindingError(
            f"characteristic directions count {total}, expected {field.nu + 2}"
        )
    return out


def _polish_mult(c: Coeffs, z: complex, m: int, iters: int = 12) -> complex:
    """Newton polish aware of multiplicity.

    An m-fold root of the polynomial is a simple root of its (m-1)-st
    derivative, so Newton there reaches machine precision where the
    clustered approximations are only eps^(1/m)-accurate.
    """
    work = list(c)
    for _ in range(m - 1):
        work = [k * work[k] for k in range(1, len(work))]
    dp = tuple(k * work[k] for k in range(1, len(work)))
    for _ in range(iters):
        p = poly_eval(work, z)
        q = poly_eval(dp, z)
        if q == 0:
            break
        step = p / q
        if abs(step) > 0.1 * (1 + abs(z)):
            break
        z = z - step
        if abs(step) < 1e-16 * (1 + abs(z)):
            break
    return z


def _germ_at(x: Coeffs, y: Coeffs, p: complex, order_hint: int, n: int = 24) -> LocalGerm:
    xs = TruncSeries.from_coeffs(poly_shift(x, p), n)
    ys_c = poly_shift(y, p)
    y_scale = max((abs(c) for c in y), default=0.0)
    ys = None
    if y_scale > 0 and max(abs(c) for c in ys_c) > DEFAULT_TOL * y_scale:
        ys = TruncSeries.from_coeffs(ys_c, n)
    germ = LocalGerm.from_series(xs, ys)
    if germ.mu_x != order_hint:
        # trust the root multiplicity; rebuild the unit with that order
        hx = TruncSeries.from_coeffs(xs.c[order_hint:], n)
        if hx.c[0] == 0:
            raise ValueError("inconsistent vanishing order at characteristic direction")
        germ = LocalGerm(order_hint, hx, germ.mu_y, germ.hy)
    return germ


def connection_data(field: HomogeneousField) -> ConnectionData:
    """Connection, residues, indices and classified germs for a field."""
    x0, y0, xinf, yinf = chart_polynomials(field)
    dirs = characteristic_directions(field)
    out: list[CharDirection] = []
    for point, mult in dirs:
        x, y = (x0, y0) if point.chart == CHART_ZERO else (xinf, yinf)
        germ = _germ_at(x, y, point.coord, mult)
        report = classify(germ)
        if report.sing_class == FUCHSIAN and report.resonant:
            _, norm_rep, _ = normalize_formal(germ)
            report = norm_rep
        elif report.sing_class == APPARENT and germ.mu_x > 1:
            report = replace(report, apparent_index=apparent_index(germ))
        residue = 0j if report.sing_class == APPARENT else report.residue
        induced = residue - mult
        index = -residue / field.nu
        out.append(
            CharDirection(
                point=point,
                order=mult,
                degenerate=report.degenerate,
                residue=residue,
                induced_residue=induced,
                index=index,
                report=report,
                prediction=predict_dynamics(report),
            )
        )
    return ConnectionData(
        nu=field.nu,
        x0=x0,
        y0=y0,
        xinf=xinf,
        yinf=yinf,
        directions=tuple(out),
    )


def model_connection(
    mu_x: int, rho: complex, a: complex = 0j, n: Optional[int] = None, nu: int = 1
) -> ConnectionData:
    """Single-chart normal-form model X = z^mu_x, Y = rho z^(mu_x-1)(1+a z^n)."""
    if mu_x < 1:
        raise ValueError("order must be >= 1")
    if rho == 0:
        raise ValueError("a vanishing residue gives an apparent model; not a pole")
    x = (0j,) * mu_x + (1.0 + 0j,)
    y_list = [0j] * (mu_x - 1) + [complex(rho)]
    if a != 0:
        if n is None or n < 1:
            raise ValueError("a resonant term needs a positive degree")
        y_list += [0j] * (n - 1) + [complex(rho) * complex(a)]
    y = tuple(y_list)
    return _model_from_polys(x, y, nu)


def model_connection_apparent(mu_x: int, a: complex = 0j, nu: int = 1) -> ConnectionData:
    """Single-chart apparent model X = z^mu_x (1 + a z^(mu_x-1)), Y = 0."""
    if mu_x < 1:
        raise ValueError("order must be >= 1")
    x_list = [0j] * mu_x + [1.0 + 0j]
    if a != 0 and mu_x > 1:
        x_list += [0j] * (mu_x - 2) + [complex(a)]
    return _model_from_polys(tuple(x_list), (), nu)


def _model_from_polys(x: Coeffs, y: Coeffs, nu: int) -> ConnectionData:
    mu_x = next(k for k, c in enumerate(x) if c != 0)
    germ = _germ_at(x, y, 0j, mu_x)
    report = classify(germ)
    residue = report.residue
    point = ProjPoint(CHART_ZERO, 0j)
    direction = CharDirection(
        point=point,
        order=mu_x,
        degenerate=report.degenerate,
        residue=residue,
        induced_residue=residue - mu_x,
        index=-residue / nu,
        report=report,
        prediction=predict_dynamics(report),
    )
    return ConnectionData(
        nu=nu,
        x0=x,
        y0=y,
        xinf=None,
        yinf=None,
        directions=(direction,),
        single_chart=True,
    )


# ---------------------------------------------------------------------------
# monodromy and leaf closure
# ---------------------------------------------------------------------------

CLOSED_LEAVES = "closed_leaves"
DENSE_LEAVES = "dense_in_metric_leaf"
ACCUMULATING_LEAVES = "accumulates_origin_and_infinity"

# largest order searched for a finite cyclic monodromy group
MAX_CYCLIC_ORDER = 64


@dataclass(frozen=True)
class MonodromyInfo:
    real_periods: bool
    finite_cyclic: bool
    cyclic_order: Optional[int]

    @property
    def leaf_closure(self) -> str:
        if not self.real_periods:
            return ACCUMULATING_LEAVES
        return CLOSED_LEAVES if self.finite_cyclic else DENSE_LEAVES


def monodromy_info(cd: ConnectionData) -> MonodromyInfo:
    indices = [d.index for d in cd.directions]
    real_periods = all(abs(i.imag) <= 1e2 * DEFAULT_TOL * (1 + abs(i)) for i in indices)
    finite_cyclic = False
    cyclic_order = None
    if real_periods:
        values = [cd.nu * i.real for i in indices]
        for ell in range(1, MAX_CYCLIC_ORDER + 1):
            if all(abs(ell * v - round(ell * v)) <= 1e-7 * max(1, ell) for v in values):
                finite_cyclic = True
                cyclic_order = ell
                break
    return MonodromyInfo(real_periods, finite_cyclic, cyclic_order)


def leaf_closure_class(cd: ConnectionData) -> str:
    return monodromy_info(cd).leaf_closure


# ---------------------------------------------------------------------------
# characteristic-leaf dynamics
# ---------------------------------------------------------------------------

def characteristic_leaf_curve(
    field: HomogeneousField, direction: ProjPoint, zeta0: complex, t: float
) -> complex:
    """Scale factor of the integral curve through zeta0 * v inside a leaf.

    For a non-degenerate characteristic direction with eigenvalue lam the
    curve is zeta0 / (1 - lam zeta0^nu nu t)^(1/nu), root branch fixed by the
    value at t = 0; degenerate directions give the constant curve.
    """
    v = direction.representative()
    qv = field(v)
    vnorm = math.hypot(abs(v[0]), abs(v[1]))
    if max(abs(qv[0]), abs(qv[1])) <= DEFAULT_TOL * field.scale * vnorm ** (field.nu + 1):
        return complex(zeta0)
    lam = qv[0] / v[0] if abs(v[0]) >= abs(v[1]) else qv[1] / v[1]
    nu = field.nu
    c = lam * zeta0**nu * nu
    if c.real > 0 and abs(c.imag) <= 1e-14 * abs(c):
        t_star = 1.0 / c.real
        if t >= t_star:
            raise SingularTimeError(f"curve blows up at t = {t_star}")
    w = 1.0 - c * t
    return zeta0 * cmath.exp(-cmath.log(w) / nu)
