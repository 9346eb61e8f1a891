# Local germs of the geodesic field at a singular point and their
# classification.  A germ is the pair (X, Y) of one-variable series with
# X = z^mu_x * hx, Y = z^mu_y * hy (or Y identically zero), encoding the
# field X v d/dz - Y v^2 d/dv in a chart trivializing the line bundle.

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .algebra import TruncSeries, _inverse_power, solve_linear_series_ode, vanishing_order

APPARENT = "apparent"
FUCHSIAN = "fuchsian"
IRREGULAR = "irregular"

NEAR_RESONANCE_BAND = 1e-6
RESONANCE_TOL = 1e-9


class ResonanceOrderError(ValueError):
    """Truncation order too small to reach the resonant degree."""


@dataclass(frozen=True)
class LocalGerm:
    """Germ data: X = z^mu_x hx (hx(0) != 0), Y = z^mu_y hy or Y = 0."""

    mu_x: int
    hx: TruncSeries
    mu_y: Optional[int]
    hy: Optional[TruncSeries]

    def __post_init__(self) -> None:
        if self.mu_x < 1:
            raise ValueError("vanishing order of X must be >= 1")
        if self.hx.c[0] == 0:
            raise ValueError("hx must have a nonzero leading coefficient")
        if (self.mu_y is None) != (self.hy is None):
            raise ValueError("mu_y and hy must be both set or both omitted")
        if self.hy is not None:
            if self.mu_y < 0:
                raise ValueError("vanishing order of Y must be >= 0")
            if self.hy.c[0] == 0:
                raise ValueError("hy must have a nonzero leading coefficient")

    @property
    def order(self) -> int:
        return self.hx.n

    @staticmethod
    def from_series(x: TruncSeries, y: Optional[TruncSeries]) -> "LocalGerm":
        """Build a germ from raw X, Y series, detecting vanishing orders."""
        mu_x = vanishing_order(x.c)
        if not 0 < mu_x < len(x.c):
            raise ValueError("X must vanish at the singular point but not identically")
        hx = TruncSeries.from_coeffs(x.c[mu_x:], x.n)
        if y is None or (mu_y := vanishing_order(y.c)) == len(y.c):
            return LocalGerm(mu_x, hx, None, None)
        return LocalGerm(mu_x, hx, mu_y, TruncSeries.from_coeffs(y.c[mu_y:], y.n))


def _split_order_abs(s: TruncSeries, cut: float) -> tuple[Optional[int], Optional[TruncSeries]]:
    mu = next((k for k, c in enumerate(s.c) if abs(c) > cut), None)
    if mu is None:
        return None, None
    return mu, TruncSeries.from_coeffs(s.c[mu:], s.n)


@dataclass(frozen=True)
class SingularityReport:
    sing_class: str
    degenerate: bool
    mu_x: int
    mu_y: Optional[int]
    rho: complex
    irregularity: Optional[int]
    residue: complex
    resonant: bool
    resonance_degree: Optional[int]
    resonant_index: Optional[complex]
    apparent_index: Optional[complex]
    near_resonance_warning: bool = False
    mu_y_chart_dependent: bool = False


def germ_residue(germ: LocalGerm) -> complex:
    """Residue at 0 of the connection form (Y/X) dz."""
    if germ.hy is None or germ.mu_y >= germ.mu_x:
        return 0j
    return germ.hy.mul(germ.hx.recip()).c[germ.mu_x - germ.mu_y - 1]


def _resonance_data(mu_y: int, rho: complex) -> tuple[bool, Optional[int], bool]:
    """Fuchsian resonance test: mu_y - rho a positive integer."""
    r = round(rho.real)
    gap = abs(rho - r)
    n = mu_y - r
    if n >= 1 and gap <= RESONANCE_TOL * max(1.0, abs(rho)):
        return True, n, False
    warn = n >= 1 and gap <= NEAR_RESONANCE_BAND * max(1.0, abs(rho))
    return False, None, warn


def classify(germ: LocalGerm) -> SingularityReport:
    """Classify a germ as apparent / Fuchsian / irregular.

    Classes by comparison of vanishing orders: apparent when mu_x <= mu_y
    (or Y = 0), Fuchsian when mu_x = mu_y + 1, irregular beyond that with
    irregularity m = mu_x - mu_y.  The ratio rho = hy(0)/hx(0) equals the
    connection residue in the Fuchsian case; irregular germs always carry
    the invariant ratio residue/rho as their resonant index.
    """
    mu_x, mu_y = germ.mu_x, germ.mu_y
    rho = 0j if germ.hy is None else germ.hy.c[0] / germ.hx.c[0]
    base = dict(
        degenerate=germ.hy is None or mu_y >= 1, mu_x=mu_x, mu_y=mu_y, rho=rho, apparent_index=None
    )
    if germ.hy is None or mu_x <= mu_y:
        return SingularityReport(
            APPARENT, irregularity=None, residue=0j, resonant=False, resonance_degree=None,
            resonant_index=None, mu_y_chart_dependent=True, **base,
        )
    residue = germ_residue(germ)
    m = mu_x - mu_y
    if m == 1:
        resonant, n, warn = _resonance_data(mu_y, rho)
        return SingularityReport(
            FUCHSIAN, irregularity=None, residue=residue, resonant=resonant, resonance_degree=n,
            resonant_index=None, near_resonance_warning=warn, **base,
        )
    return SingularityReport(
        IRREGULAR, irregularity=m, residue=residue, resonant=True, resonance_degree=m - 1,
        resonant_index=residue / rho, **base,
    )


# ---------------------------------------------------------------------------
# coordinate / gauge changes  (z, v) -> (psi(z), xi(z) v)
# ---------------------------------------------------------------------------

def transform_germ(germ: LocalGerm, psi: TruncSeries, xi: TruncSeries) -> LocalGerm:
    """Push a germ through the change (z, v) -> (psi(z), xi(z) v).

    The components transform as X' o psi = psi' X / xi and
    Y' o psi = Y / xi - (xi'/xi^2) X.
    """
    if psi.c[0] != 0 or psi.c[1] == 0:
        raise ValueError("psi must fix the origin with nonzero derivative")
    if xi.c[0] == 0:
        raise ValueError("xi must be a unit")
    n = germ.order
    # psi_inv = z * pi_unit; pi_unit to degree n needs psi_inv to degree n + 1
    psi_inv = psi.truncate(n + 1).reversion()
    pi_unit = TruncSeries._raw(n, psi_inv.c[1:])
    psi, xi, psi_inv = psi.truncate(n), xi.truncate(n), psi_inv.truncate(n)
    xi_rec = xi.recip()
    dpsi = psi.deriv().truncate(n)
    a = dpsi.mul(germ.hx).mul(xi_rec)
    hx_new = pi_unit.pow_int(germ.mu_x).mul(a.compose(psi_inv))
    dxi = xi.deriv().truncate(n)
    if germ.hy is None:
        # Y' = -(xi'/xi^2) X, order >= mu_x
        t = dxi.mul(xi_rec).mul(xi_rec).mul(germ.hx).scale(-1)
        mu, unit = _split_order_abs(t, 1e-13 * max(abs(c) for c in germ.hx.c))
        if mu is None:
            return LocalGerm(germ.mu_x, hx_new, None, None)
        total = germ.mu_x + mu
        hy_new = pi_unit.pow_int(total).mul(unit.compose(psi_inv))
        return LocalGerm(germ.mu_x, hx_new, total, hy_new)
    mu_base = min(germ.mu_y, germ.mu_x)
    # combined series at base order mu_base:
    #   z^(mu_y - mu_base) hy/xi - z^(mu_x - mu_base) (xi'/xi^2) hx
    term1 = _spread(germ.hy.mul(xi_rec), n, at=germ.mu_y - mu_base)
    term2 = _spread(dxi.mul(xi_rec).mul(xi_rec).mul(germ.hx), n, at=germ.mu_x - mu_base)
    comb = term1.sub(term2)
    if germ.mu_y < germ.mu_x:
        # leading coefficient b0/xi(0) cannot cancel: order is preserved
        mu_extra, unit = 0, comb
    else:
        ref = max(max(abs(c) for c in term1.c), max(abs(c) for c in term2.c), 1e-300)
        mu_extra, unit = _split_order_abs(comb, 1e-13 * ref)
        if mu_extra is None:
            return LocalGerm(germ.mu_x, hx_new, None, None)
    mu_y_new = mu_base + mu_extra
    hy_new = pi_unit.pow_int(mu_y_new).mul(unit.compose(psi_inv))
    return LocalGerm(germ.mu_x, hx_new, mu_y_new, hy_new)


def _spread(f: TruncSeries, n: int, step: int = 1, at: int = 0) -> TruncSeries:
    """z^at f(z^step), truncated at degree n; f has a coefficient for every slot."""
    out = [0j] * (n + 1)
    out[at::step] = f.c[: len(out[at::step])]
    return TruncSeries._raw(n, out)


def _eliminate(
    hx: TruncSeries, hy: TruncSeries, mu_x: int, m: int, n: int, c1: complex, c2: complex
) -> tuple[TruncSeries, TruncSeries]:
    """``transform_germ`` for the step change (z + c1 z^(n+1), 1 + c2 z^n).

    With u = z s(z^n) the inverse of z + c1 z^(n+1), t = z^n and
    mu_y = mu_x - m, the components become
      hx' = hx(u) s^mu_x (1 + (n+1) c1 t s^n) / xi(u),
      hy' = hy(u) s^mu_y / xi(u) - n c2 z^(n+m-1) hx(u) s^(n-1+mu_x) / xi(u)^2,
    where xi(u) = 1 + c2 t s^n.  The powers of s have closed forms and every
    factor but hx(u), hy(u) is a series in t with N/n terms, formed in t and
    spread out; degrees below n do not move.
    """
    big_n = hx.n
    k = big_n // n

    def power(r: int) -> TruncSeries:
        return TruncSeries._raw(k, _inverse_power(c1, n, r, k))

    rec = TruncSeries._raw(k, (1.0 + 0j,) + _spread(power(n).scale(c2), k, at=1).c[1:]).recip()
    fy = power(mu_x - m).mul(rec)
    fx = power(mu_x).add(_spread(power(mu_x + n), k, at=1).scale((n + 1) * c1)).mul(rec)
    fz = power(n - 1 + mu_x).mul(rec).mul(rec).scale(n * c2)
    u = _spread(power(1), big_n, n, at=1)
    hx_u, hy_u = hx.compose(u), hy.compose(u)
    hx_new = _spread(fx, big_n, n).mul(hx_u)
    hy_new = _spread(fy, big_n, n).mul(hy_u).sub(_spread(fz, big_n, n, n + m - 1).mul(hx_u))
    return hx_new, hy_new


# ---------------------------------------------------------------------------
# formal normalization (restricted Poincare-Dulac scheme)
# ---------------------------------------------------------------------------

def normalize_formal(
    germ: LocalGerm, order: Optional[int] = None
) -> tuple[LocalGerm, SingularityReport, tuple[TruncSeries, TruncSeries]]:
    """Bring a Fuchsian or irregular germ to formal normal form.

    Degree-by-degree elimination with changes (z, v) -> (z + c1 z^(n+1),
    (1 + c2 z^n) v): away from the resonant degree the 2x2 linear system for
    (c1, c2) kills the degree-n coefficients of both components; at the
    resonant degree only the X coefficient can be killed and the surviving
    Y coefficient is the resonant index.  Step n moves only degrees >= n of
    the germ and of the composite change.  Returns the normalized germ, its
    report (resonant index filled in) and the composite change.

    Irregular germs are normalized formally only: the transform coefficients
    can grow factorially with the degree, so the high-order tail of the
    returned data is meaningful as a formal object but not as a convergent
    one.  The resonant index is read off at the (low) resonant degree and is
    unaffected by that growth.
    """
    rep = classify(germ)
    if rep.sing_class == APPARENT:
        raise ValueError("normalization scheme applies to Fuchsian or irregular germs")
    n_res = rep.resonance_degree
    if order is None:
        order = max(16, 2 * n_res + 2 if n_res else 0)
    if n_res is not None and order < n_res:
        raise ResonanceOrderError(
            f"truncation order {order} is below the resonant degree {n_res}"
        )
    # the degree-n change introduces z^(n+1); keep one spare degree
    work_n = max(germ.order, order + 1)
    mu_x, mu_y = germ.mu_x, germ.mu_y
    m = mu_x - mu_y
    # leading-coefficient gauge: constant xi = a0 makes hx(0) = 1, rho = hy(0)
    a0 = germ.hx.c[0]
    hx, hy = (h.truncate(work_n).scale(1.0 / a0) for h in (germ.hx, germ.hy))
    psi, xi, rho = TruncSeries.identity(work_n), TruncSeries.const(a0, work_n), hy.c[0]
    for n in range(1, order + 1):
        a_n, b_n = hx.c[n], hy.c[n]
        if n == n_res:
            c1, c2 = 0j, a_n
        else:
            # rows: (mu_x - n - 1) c1 + c2 = a_n ;  mu_y rho c1 + r22 c2 = b_n,
            # with r22 = n + rho in the Fuchsian class and rho beyond it
            r11, r21, r22 = complex(mu_x - n - 1), mu_y * rho, (n if m == 1 else 0) + rho
            det = r11 * r22 - r21
            c1, c2 = (a_n * r22 - b_n) / det, (r11 * b_n - a_n * r21) / det
        if c1 == 0 and c2 == 0:
            continue
        hx, hy = _eliminate(hx, hy, mu_x, m, n, c1, c2)
        # (psi, xi) <- (psi + c1 psi^(n+1), xi + c2 psi^n xi), psi = z p
        p = TruncSeries._raw(work_n - n, psi.c[1: work_n - n + 2])
        p_n = p.pow_int(n)
        psi = psi.add(_spread(p_n.mul(p).scale(c1), work_n, at=n + 1))
        xi = xi.add(_spread(p_n.mul(xi).scale(c2), work_n, at=n))
    g = LocalGerm(mu_x, hx.truncate(order), mu_y, hy.truncate(order))
    res_index = None if n_res is None else g.hy.c[n_res] / g.hy.c[0]
    final = replace(classify(g), resonant_index=res_index)
    return g, final, (psi.truncate(order), xi.truncate(order))


def normal_form_residuals(germ: LocalGerm, report: SingularityReport) -> float:
    """Largest coefficient outside the normal-form support, relative scale."""
    worst = 0.0
    for k, c in enumerate(germ.hx.c):
        if k > 0:
            worst = max(worst, abs(c))
    keep = {0}
    if report.resonance_degree is not None:
        keep.add(report.resonance_degree)
    if germ.hy is not None:
        for k, c in enumerate(germ.hy.c):
            if k not in keep:
                worst = max(worst, abs(c))
    scale = max(abs(germ.hx.c[0]), abs(germ.hy.c[0]) if germ.hy is not None else 0.0)
    return worst / scale


# ---------------------------------------------------------------------------
# apparent singularities
# ---------------------------------------------------------------------------

def apparent_index(germ: LocalGerm) -> Optional[complex]:
    """Invariant of an apparent germ of order > 1 (None when order is 1).

    First removes Y by the gauge xi solving xi' = z^(mu_y - mu_x) hy/hx xi,
    then reads the invariant off the residue of dz/X for the reduced X.
    """
    rep = classify(germ)
    if rep.sing_class != APPARENT:
        raise ValueError("apparent index is defined for apparent germs only")
    mu = germ.mu_x
    if mu == 1:
        return None
    g = germ
    if g.hy is not None:
        w = _spread(g.hy.mul(g.hx.recip()), g.order, at=g.mu_y - g.mu_x)
        xi = solve_linear_series_ode(w)
        g = transform_germ(g, TruncSeries.identity(g.order), xi)
        if g.hy is not None:
            scale = max(abs(c) for c in g.hy.c)
            ref = max(abs(c) for c in g.hx.c)
            if scale > 1e-8 * ref:
                raise ValueError("gauge reduction failed to remove the Y component")
    # X = z^mu hx: residue of dz/X is the z^(mu-1) coefficient of 1/hx
    rec = g.hx.recip()
    return -rec.c[mu - 1]


# ---------------------------------------------------------------------------
# local dynamics prediction
# ---------------------------------------------------------------------------

REGIME_ATTRACT = "generic_attract_to_pole"
REGIME_ESCAPE = "generic_escape"
REGIME_CLOSED = "closed_or_accumulating_closed"
REGIME_PERIODIC = "periodic_family"
REGIME_APPARENT = "mixed_apparent"
REGIME_RESONANT = "resonant_unknown"
REGIME_UNDETERMINED = "undetermined"

VEL_ZERO = "to_zero"
VEL_INF = "to_infinity"
VEL_CIRCLE = "bounded_circle"
VEL_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class DynamicsPrediction:
    regime: str
    velocity_limit: str


def predict_dynamics(report: SingularityReport) -> DynamicsPrediction:
    """Local geodesic behavior implied by a singularity report.

    Pure decision table over (class, mu_y, rho, resonant index); resonant
    Fuchsian germs with surviving index are reported as unknown rather than
    extrapolated, and irregular germs fall outside the classified cases.
    The boundaries Re rho = mu_y, rho = mu_y and mu_y Re rho = |rho|^2 are
    decided at RESONANCE_TOL max(1, |rho|), so roundoff does not pick a regime.
    """
    if report.sing_class == APPARENT:
        return DynamicsPrediction(REGIME_APPARENT, VEL_UNDETERMINED)
    if report.sing_class == IRREGULAR:
        return DynamicsPrediction(REGIME_UNDETERMINED, VEL_UNDETERMINED)
    rho = report.rho
    mu_y = report.mu_y
    if report.resonant:
        a = report.resonant_index
        # a unknown counts as potentially nonzero: never extrapolated
        if a is None or abs(a) > 1e-12:
            return DynamicsPrediction(REGIME_RESONANT, VEL_UNDETERMINED)
    tol = RESONANCE_TOL * max(1.0, abs(rho))
    if rho.real < mu_y - tol:
        gap = mu_y * rho.real - (rho.real**2 + rho.imag**2)
        if gap < -tol:
            return DynamicsPrediction(REGIME_ATTRACT, VEL_ZERO)
        if gap > tol:
            return DynamicsPrediction(REGIME_ATTRACT, VEL_INF)
        return DynamicsPrediction(REGIME_ATTRACT, VEL_CIRCLE)
    if rho.real > mu_y + tol:
        return DynamicsPrediction(REGIME_ESCAPE, VEL_INF)
    if abs(rho - mu_y) > tol:
        return DynamicsPrediction(REGIME_CLOSED, VEL_UNDETERMINED)
    return DynamicsPrediction(REGIME_PERIODIC, VEL_UNDETERMINED)
