# Local germs of the geodesic field at a singular point and their
# classification.  A germ is the pair (X, Y) of one-variable series with
# X = z^mu_x * hx, Y = z^mu_y * hy (or Y identically zero), encoding the
# field X v d/dz - Y v^2 d/dv in a chart trivializing the line bundle.

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .algebra import DEFAULT_TOL, TruncSeries, solve_linear_series_ode

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
        mu_x, hx = _split_order_abs(x, DEFAULT_TOL * max(abs(c) for c in x.c))
        if mu_x is None or mu_x < 1:
            raise ValueError("X must vanish at the singular point but not identically")
        if y is None:
            return LocalGerm(mu_x, hx, None, None)
        mu_y, hy = _split_order_abs(y, DEFAULT_TOL * max(abs(c) for c in y.c))
        if mu_y is None:
            return LocalGerm(mu_x, hx, None, None)
        return LocalGerm(mu_x, hx, mu_y, hy)


def _split_order_abs(
    s: TruncSeries, cut: float
) -> tuple[Optional[int], Optional[TruncSeries]]:
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
    m = germ.mu_x - germ.mu_y
    quot = germ.hy.mul(germ.hx.recip())
    return quot.c[m - 1]


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
    mu_x = germ.mu_x
    if germ.hy is None:
        return SingularityReport(
            sing_class=APPARENT,
            degenerate=True,
            mu_x=mu_x,
            mu_y=None,
            rho=0j,
            irregularity=None,
            residue=0j,
            resonant=False,
            resonance_degree=None,
            resonant_index=None,
            apparent_index=None,
            mu_y_chart_dependent=True,
        )
    mu_y = germ.mu_y
    rho = germ.hy.c[0] / germ.hx.c[0]
    degenerate = mu_y >= 1
    if mu_x <= mu_y:
        return SingularityReport(
            sing_class=APPARENT,
            degenerate=degenerate,
            mu_x=mu_x,
            mu_y=mu_y,
            rho=rho,
            irregularity=None,
            residue=0j,
            resonant=False,
            resonance_degree=None,
            resonant_index=None,
            apparent_index=None,
            mu_y_chart_dependent=True,
        )
    residue = germ_residue(germ)
    if mu_x == mu_y + 1:
        resonant, n, warn = _resonance_data(mu_y, rho)
        return SingularityReport(
            sing_class=FUCHSIAN,
            degenerate=degenerate,
            mu_x=mu_x,
            mu_y=mu_y,
            rho=rho,
            irregularity=None,
            residue=residue,
            resonant=resonant,
            resonance_degree=n,
            resonant_index=None,
            apparent_index=None,
            near_resonance_warning=warn,
        )
    m = mu_x - mu_y
    return SingularityReport(
        sing_class=IRREGULAR,
        degenerate=degenerate,
        mu_x=mu_x,
        mu_y=mu_y,
        rho=rho,
        irregularity=m,
        residue=residue,
        resonant=True,
        resonance_degree=m - 1,
        resonant_index=residue / rho,
        apparent_index=None,
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
    psi = psi.truncate(n)
    xi = xi.truncate(n)
    psi_inv = psi.reversion()
    # unit factor of psi_inv: psi_inv = z * pi_unit
    pi_unit = TruncSeries.from_coeffs(psi_inv.c[1:], n)
    xi_rec = xi.recip()
    dpsi = TruncSeries.from_coeffs(psi.deriv().c, n)
    a = dpsi.mul(germ.hx).mul(xi_rec)
    hx_new = pi_unit.pow_int(germ.mu_x).mul(a.compose(psi_inv))
    dxi = TruncSeries.from_coeffs(xi.deriv().c, n)
    if germ.hy is None:
        # Y' = -(xi'/xi^2) X, order >= mu_x
        t = dxi.mul(xi_rec).mul(xi_rec).mul(germ.hx).scale(-1)
        ref = max(abs(c) for c in germ.hx.c)
        mu, unit = _split_order_abs(t, 1e-13 * ref)
        if mu is None:
            return LocalGerm(germ.mu_x, hx_new, None, None)
        total = germ.mu_x + mu
        hy_new = pi_unit.pow_int(total).mul(unit.compose(psi_inv))
        return LocalGerm(germ.mu_x, hx_new, total, hy_new)
    mu_base = min(germ.mu_y, germ.mu_x)
    # combined series at base order mu_base:
    #   z^(mu_y - mu_base) hy/xi - z^(mu_x - mu_base) (xi'/xi^2) hx
    term1 = _shift_up(germ.hy.mul(xi_rec), germ.mu_y - mu_base, n)
    term2 = _shift_up(dxi.mul(xi_rec).mul(xi_rec).mul(germ.hx), germ.mu_x - mu_base, n)
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


def _shift_up(s: TruncSeries, k: int, n: int) -> TruncSeries:
    return TruncSeries.from_coeffs((0j,) * k + s.c, n)


def _compose_changes(
    first: tuple[TruncSeries, TruncSeries], second: tuple[TruncSeries, TruncSeries]
) -> tuple[TruncSeries, TruncSeries]:
    """Composite of (psi1, xi1) followed by (psi2, xi2)."""
    psi1, xi1 = first
    psi2, xi2 = second
    return psi2.compose(psi1), xi2.compose(psi1).mul(xi1)


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
    Y coefficient is the resonant index.  Returns the normalized germ, its
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
    g = LocalGerm(
        germ.mu_x,
        germ.hx.truncate(work_n),
        germ.mu_y,
        germ.hy.truncate(work_n) if germ.hy is not None else None,
    )
    ident = TruncSeries.identity(work_n)
    # leading-coefficient gauge: constant xi = a0 makes hx(0) = 1, rho = hy(0)
    a0 = g.hx.c[0]
    total = (ident, TruncSeries.const(a0, work_n))
    g = transform_germ(g, ident, TruncSeries.const(a0, work_n))
    mu_x, mu_y = g.mu_x, g.mu_y
    m = mu_x - mu_y
    rho = g.hy.c[0]
    for n in range(1, order + 1):
        a_n = g.hx.c[n] if n <= g.hx.n else 0j
        b_n = g.hy.c[n] if n <= g.hy.n else 0j
        if n == n_res:
            c1, c2 = 0j, a_n
        else:
            # rows: (mu_x - n - 1) c1 + c2 = a_n ;  second row per eq. class
            r11, r12 = complex(mu_x - n - 1), 1.0 + 0j
            if m == 1:
                r21, r22 = mu_y * rho, n + rho
            else:
                r21, r22 = mu_y * rho, rho
            det = r11 * r22 - r12 * r21
            c1 = (a_n * r22 - r12 * b_n) / det
            c2 = (r11 * b_n - a_n * r21) / det
        if c1 == 0 and c2 == 0:
            continue
        psi = TruncSeries.from_coeffs((0j,) * (n + 1) + (c1,), work_n)
        psi = psi.add(ident)
        xi = TruncSeries.from_coeffs((1.0 + 0j,) + (0j,) * (n - 1) + (c2,), work_n)
        g = transform_germ(g, psi, xi)
        total = _compose_changes(total, (psi, xi))
    g = LocalGerm(
        g.mu_x,
        g.hx.truncate(order),
        g.mu_y,
        g.hy.truncate(order) if g.hy is not None else None,
    )
    total = (total[0].truncate(order), total[1].truncate(order))
    res_index = None
    if n_res is not None:
        res_index = g.hy.c[n_res] / g.hy.c[0]
    final = replace(classify(g), resonant_index=res_index)
    return g, final, total


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
        w = _shift_up(g.hy.mul(g.hx.recip()), g.mu_y - g.mu_x, g.order)
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
    if rho.real < mu_y:
        gap = mu_y * rho.real - (rho.real**2 + rho.imag**2)
        if gap < 0:
            return DynamicsPrediction(REGIME_ATTRACT, VEL_ZERO)
        if gap > 0:
            return DynamicsPrediction(REGIME_ATTRACT, VEL_INF)
        return DynamicsPrediction(REGIME_ATTRACT, VEL_CIRCLE)
    if rho.real > mu_y:
        return DynamicsPrediction(REGIME_ESCAPE, VEL_INF)
    if rho != mu_y:
        return DynamicsPrediction(REGIME_CLOSED, VEL_UNDETERMINED)
    return DynamicsPrediction(REGIME_PERIODIC, VEL_UNDETERMINED)
