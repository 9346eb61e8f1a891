# Classification of quadratic homogeneous fields on C^2 into the eleven
# linear-conjugacy normal forms, with conjugating matrices, closed-form
# trajectory oracles and a per-field dynamics dossier.
#
# Normal forms (templates; the two parametric three-direction families carry
# residues rho at [1:0] and tau at [0:1]):
#
#   INF        (z^2, z w)                          dicritical
#   C100       (0, -z^2)
#   C110       (-z^2, -(z^2 + z w))
#   C111       (-z w, -(z^2 + w^2))
#   C2001      (0, z w)
#   C2011      (z w, z w + w^2)
#   C210(rho)  (-rho z^2, (1 - rho) z w)           rho != 0
#   C211(rho)  (-rho z^2 + z w, (1 - rho) z w + w^2)   rho != 0
#   C3100      (z^2 - z w, 0)
#   C3rho10    (rho(-z^2 + z w), (1 - rho)(z w - w^2))  rho != 0, 1
#   C3rhotau1  (-rho z^2 + (1 - tau) z w, (1 - rho) z w - tau w^2)
#              rho, tau != 0, rho + tau != 1

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .fields import (
    CharDirection,
    ConnectionData,
    HomogeneousField,
    SingularTimeError,
    connection_data,
    is_dicritical,
    monodromy_info,
)
from .germs import FUCHSIAN, IRREGULAR

LABELS = (
    "INF",
    "C100",
    "C110",
    "C111",
    "C2001",
    "C2011",
    "C210",
    "C211",
    "C3100",
    "C3rho10",
    "C3rhotau1",
)

PARAMETRIC = {"C210": 1, "C211": 1, "C3rho10": 1, "C3rhotau1": 2}

# largest relative coefficient residual at which a field matches its template
MATCH_TOL = 1e-6


class AtlasClassificationError(ValueError):
    """Input could not be matched to a normal form within tolerance."""


@dataclass(frozen=True)
class AtlasLabel:
    name: str
    rho: Optional[complex] = None
    tau: Optional[complex] = None

    def __post_init__(self) -> None:
        if self.name not in LABELS:
            raise ValueError(f"unknown normal-form label {self.name!r}")
        want = PARAMETRIC.get(self.name, 0)
        have = (self.rho is not None) + (self.tau is not None)
        if want != have:
            raise ValueError(f"label {self.name} takes {want} parameter(s)")
        if self.name in ("C210", "C211") and self.rho == 0:
            raise ValueError(f"{self.name} needs rho != 0")
        if self.name == "C3rho10" and self.rho in (0, 1):
            raise ValueError("C3rho10 needs rho outside {0, 1}")
        if self.name == "C3rhotau1":
            if self.rho == 0 or self.tau == 0 or self.rho + self.tau == 1:
                raise ValueError("C3rhotau1 needs rho, tau != 0 and rho + tau != 1")


@dataclass(frozen=True)
class AtlasReport:
    label: AtlasLabel
    conjugacy: tuple[tuple[complex, complex], tuple[complex, complex]]
    residual: float


def template_field(label: AtlasLabel) -> HomogeneousField:
    """Exact coefficients of the named normal form."""
    r, t = label.rho, label.tau
    name = label.name
    if name == "INF":
        coeffs = ((1, 0, 0), (0, 1, 0))
    elif name == "C100":
        coeffs = ((0, 0, 0), (-1, 0, 0))
    elif name == "C110":
        coeffs = ((-1, 0, 0), (-1, -1, 0))
    elif name == "C111":
        coeffs = ((0, -1, 0), (-1, 0, -1))
    elif name == "C2001":
        coeffs = ((0, 0, 0), (0, 1, 0))
    elif name == "C2011":
        coeffs = ((0, 1, 0), (0, 1, 1))
    elif name == "C210":
        coeffs = ((-r, 0, 0), (0, 1 - r, 0))
    elif name == "C211":
        coeffs = ((-r, 1, 0), (0, 1 - r, 1))
    elif name == "C3100":
        coeffs = ((1, -1, 0), (0, 0, 0))
    elif name == "C3rho10":
        coeffs = ((-r, r, 0), (0, 1 - r, -(1 - r)))
    else:
        coeffs = ((-r, 1 - t, 0), (0, 1 - r, -t))
    return HomogeneousField(1, coeffs[0], coeffs[1])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _rep(d: CharDirection) -> np.ndarray:
    v = d.point.representative()
    return np.array([v[0], v[1]], dtype=complex)


def _lex_key(z: complex) -> tuple[float, float]:
    return (round(z.real, 9), round(z.imag, 9))


def _conj_field(field: HomogeneousField, L: np.ndarray) -> HomogeneousField:
    return field.conjugate(((L[0, 0], L[0, 1]), (L[1, 0], L[1, 1])))


def _residual(field: HomogeneousField, target: HomogeneousField) -> float:
    num = max(
        max(abs(a - b) for a, b in zip(field.q1, target.q1)),
        max(abs(a - b) for a, b in zip(field.q2, target.q2)),
    )
    return num / max(target.scale, 1.0)


def classify_quadratic(
    field: HomogeneousField, cd: Optional[ConnectionData] = None
) -> AtlasReport:
    """Match a quadratic field to its normal form and conjugating map.

    The decision tree follows invariant data only (direction count, orders,
    degeneracy, singularity class, residues); the conjugacy is built from
    the direction frame and the leftover diagonal/triangular freedom is
    fixed against the template coefficients.  ``cd`` is the field's
    connection data when the caller already holds it.
    """
    if field.nu != 1:
        raise ValueError("the atlas covers quadratic fields (nu = 1) only")
    if is_dicritical(field):
        return _classify_dicritical(field)
    if cd is None:
        cd = connection_data(field)
    dirs = sorted(cd.directions, key=lambda d: d.order)
    count = len(dirs)
    if count == 3:
        return _classify_three(field, dirs)
    if count == 2:
        return _classify_two(field, dirs)
    if count == 1:
        return _classify_one(field, dirs[0])
    raise AtlasClassificationError(f"unexpected direction count {count}")


def _finish(field: HomogeneousField, label: AtlasLabel, L: np.ndarray) -> AtlasReport:
    target = template_field(label)
    L = _refine_conjugacy(field, target, L)
    got = _conj_field(field, L)
    res = _residual(got, target)
    if res > MATCH_TOL:
        raise AtlasClassificationError(
            f"residual {res:.3e} against {label.name} exceeds {MATCH_TOL:.1e}"
        )
    conj = ((L[0, 0], L[0, 1]), (L[1, 0], L[1, 1]))
    return AtlasReport(label, conj, res)


def _refine_conjugacy(
    field: HomogeneousField, target: HomogeneousField, L: np.ndarray, iters: int = 3
) -> np.ndarray:
    """Newton polish of the conjugating matrix against the template.

    The coefficient map is holomorphic in the entries of L, so a complex
    finite-difference Jacobian is exact to first order; least squares
    absorbs the stabilizer directions.  Ill-conditioned frames (directions
    crushed together by the conjugation) improve by several digits.
    """

    def fvec(M: np.ndarray) -> np.ndarray:
        got = _conj_field(field, M)
        return np.array(
            [a - b for a, b in zip(got.q1 + got.q2, target.q1 + target.q2)],
            dtype=complex,
        )

    best = L
    best_res = float(np.max(np.abs(fvec(L))))
    cur = L
    for _ in range(iters):
        f0 = fvec(cur)
        if float(np.max(np.abs(f0))) < 1e-14:
            break
        h = 1e-7 * max(1.0, float(np.max(np.abs(cur))))
        cols = []
        for i in range(2):
            for j in range(2):
                step = cur.copy()
                step[i, j] += h
                cols.append((fvec(step) - f0) / h)
        J = np.column_stack(cols)
        delta, *_ = np.linalg.lstsq(J, -f0, rcond=None)
        cand = cur + delta.reshape(2, 2)
        if abs(np.linalg.det(cand)) < 1e-300:
            break
        res = float(np.max(np.abs(fvec(cand))))
        if res >= best_res:
            break
        cur = cand
        best, best_res = cand, res
    return best


def _classify_dicritical(field: HomogeneousField) -> AtlasReport:
    # Q = ell(z, w) * radial; send ker ell-complement so that ell o L^{-1} = z
    cands = [
        (field.q1[0], field.q1[1]),
        (field.q2[1], field.q2[2]),
    ]
    ell = max(cands, key=lambda p: abs(p[0]) + abs(p[1]))
    l1, l2 = ell
    # second row: any independent vector
    if abs(l1) >= abs(l2):
        L = np.array([[l1, l2], [0.0, 1.0]], dtype=complex)
    else:
        L = np.array([[l1, l2], [1.0, 0.0]], dtype=complex)
    return _finish(field, AtlasLabel("INF"), L)


def _classify_three(field: HomogeneousField, dirs: list[CharDirection]) -> AtlasReport:
    n = sum(not d.degenerate for d in dirs)
    if n == 0:
        raise AtlasClassificationError("three-direction field with no invariant line")
    label_name = ("C3100", "C3rho10", "C3rhotau1")[n - 1]
    last: Optional[AtlasClassificationError] = None
    for d_10, d_11, d_01 in itertools.permutations(
        sorted(dirs, key=lambda d: _lex_key(d.residue))
    ):
        # the templates' [1:0] is non-degenerate, and their [1:1] is
        # degenerate whenever some direction is
        if d_10.degenerate or (n < 3 and not d_11.degenerate):
            continue
        L0 = np.linalg.inv(np.column_stack([_rep(d_10), _rep(d_01)]))
        alpha, beta = L0 @ _rep(d_11)
        if alpha == 0 or beta == 0:
            continue
        L1 = np.diag([1 / alpha, 1 / beta]) @ L0
        if label_name == "C3100":
            label = AtlasLabel("C3100")
        elif label_name == "C3rho10":
            label = AtlasLabel("C3rho10", rho=_clean(d_10.residue))
        else:
            label = AtlasLabel(
                "C3rhotau1", rho=_clean(d_10.residue), tau=_clean(d_01.residue)
            )
        # remaining scalar freedom: L -> s L rescales the field by 1/s
        got = _conj_field(field, L1)
        target = template_field(label)
        s = _scale_match(got, target)
        if s is None:
            continue
        try:
            return _finish(field, label, s * L1)
        except AtlasClassificationError as exc:
            last = exc
    raise last or AtlasClassificationError("no admissible direction ordering")


def _scale_match(
    got: HomogeneousField, target: HomogeneousField
) -> Optional[complex]:
    pairs = list(zip(got.q1 + got.q2, target.q1 + target.q2))
    ref = max(pairs, key=lambda p: abs(p[1]))
    if abs(ref[1]) < 1e-12 or abs(ref[0]) < 1e-14:
        return None
    # (sL) * Q = (1/s) (L * Q): choose s so coefficients match exactly
    return ref[0] / ref[1]


def _classify_two(field: HomogeneousField, dirs: list[CharDirection]) -> AtlasReport:
    d1, d2 = dirs  # sorted by order: (1, 2)
    if d1.order != 1 or d2.order != 2:
        raise AtlasClassificationError(
            f"two-direction field with orders {(d1.order, d2.order)}"
        )
    L1 = np.linalg.inv(np.column_stack([_rep(d1), _rep(d2)]))
    got = _conj_field(field, L1)
    a = got.q1[0]
    b = got.q1[1]
    c = got.q2[1]
    dd = got.q2[2]
    if d1.degenerate and d2.degenerate:
        label = AtlasLabel("C2001")
        if abs(c) < 1e-12:
            raise AtlasClassificationError("degenerate pair without mixed term")
        D = np.diag([c, 1.0])
    elif d1.degenerate and not d2.degenerate:
        label = AtlasLabel("C2011")
        if abs(b) < 1e-12 or abs(c) < 1e-12:
            raise AtlasClassificationError("missing template coefficients for C2011")
        D = np.diag([c, b])
    elif not d1.degenerate and d2.degenerate:
        rho = _clean(d1.residue)
        label = AtlasLabel("C210", rho=rho)
        d1_scale = -a / rho if abs(rho) >= abs(1 - rho) else c / (1 - rho)
        D = np.diag([d1_scale, 1.0])
    else:
        rho = _clean(d1.residue)
        label = AtlasLabel("C211", rho=rho)
        if abs(b) < 1e-12:
            raise AtlasClassificationError("missing template coefficients for C211")
        d1_scale = -a / rho if abs(rho) >= abs(1 - rho) else c / (1 - rho)
        D = np.diag([d1_scale, b])
    return _finish(field, label, D @ L1)


def _classify_one(field: HomogeneousField, d: CharDirection) -> AtlasReport:
    u = _rep(d)
    p = np.array([-np.conj(u[1]), np.conj(u[0])], dtype=complex)
    B = np.column_stack([p, u])
    L1 = np.linalg.inv(B)
    got = _conj_field(field, L1)
    a1, b1 = got.q1[0], got.q1[1]
    a2 = got.q2[0]
    if abs(a2) < 1e-12:
        raise AtlasClassificationError("single-direction field with vanishing cross term")
    if d.degenerate and d.sing_class == FUCHSIAN:
        # (0, a2 z^2): diag(alpha, 1) with alpha^2 = -a2
        alpha = cmath.sqrt(-a2)
        L2 = np.diag([alpha, 1.0])
        label = AtlasLabel("C100")
    elif d.degenerate and d.sing_class == IRREGULAR and d.irregularity == 2:
        alpha = -a1
        delta = -(a1 * a1) / a2
        L2 = np.diag([alpha, delta])
        label = AtlasLabel("C110")
    elif (not d.degenerate) and d.sing_class == IRREGULAR and d.irregularity == 3:
        gamma = -a1
        delta = -b1
        alpha = cmath.sqrt(a2 * b1)
        L2 = np.array([[alpha, 0.0], [gamma, delta]], dtype=complex)
        label = AtlasLabel("C111")
    else:
        raise AtlasClassificationError(
            f"single direction with unexpected germ: degenerate={d.degenerate}, "
            f"class={d.sing_class}, irregularity={d.irregularity}"
        )
    return _finish(field, label, L2 @ L1)


def _clean(z: complex) -> complex:
    if abs(z.imag) < 1e-10 * max(1.0, abs(z.real)):
        z = complex(z.real, 0.0)
    return z


# ---------------------------------------------------------------------------
# closed-form trajectory oracles
# ---------------------------------------------------------------------------

def closed_form_oracle(
    label: AtlasLabel, init: tuple[complex, complex], t: float
) -> tuple[complex, complex]:
    """Exact integral curve of the template field at time t.

    C100:  (z0, w0 - z0^2 t)
    C2001: (z0, w0 e^{z0 t})
    C3100: (z0 w0 / (z0 - (z0 - w0) e^{w0 t}), w0)
    C210:  (z0 / (1 + rho z0 t), w0 (1 + rho z0 t)^{(1-rho)/rho})
    """
    z0, w0 = complex(init[0]), complex(init[1])
    if label.name == "C100":
        return (z0, w0 - z0 * z0 * t)
    if label.name == "C2001":
        return (z0, w0 * cmath.exp(z0 * t))
    if label.name == "C3100":
        den = z0 - (z0 - w0) * cmath.exp(w0 * t)
        if abs(den) < 1e-12 * max(abs(z0), abs(w0), 1e-30):
            raise SingularTimeError("trajectory blows up at this time")
        return (z0 * w0 / den, w0)
    if label.name == "C210":
        rho = label.rho
        u = 1 + rho * z0 * t
        if abs(u) < 1e-12:
            raise SingularTimeError("trajectory blows up at this time")
        lg = cmath.log(u)
        return (z0 / u, w0 * cmath.exp((1 - rho) / rho * lg))
    raise ValueError(f"no closed form stored for label {label.name}")


# ---------------------------------------------------------------------------
# dossier
# ---------------------------------------------------------------------------

def dynamics_dossier(
    report: AtlasReport, field: HomogeneousField, cd: Optional[ConnectionData] = None
) -> dict:
    """Classification summary: per-direction reports, monodromy, global notes."""
    if cd is None:
        cd = connection_data(field)
    info = monodromy_info(cd)
    dirs = []
    for d in cd.directions:
        dirs.append(
            {
                "chart": d.point.chart,
                "coord": d.point.coord,
                "order": d.order,
                "degenerate": d.degenerate,
                "class": d.sing_class,
                "residue": d.residue,
                "induced_residue": d.induced_residue,
                "index": d.index,
                "irregularity": d.irregularity,
                "resonant": d.report.resonant,
                "resonant_index": d.report.resonant_index,
                "apparent_index": d.report.apparent_index,
                "prediction": {
                    "regime": d.prediction.regime,
                    "velocity_limit": d.prediction.velocity_limit,
                },
            }
        )
    # subsets of poles whose induced residues sum to real part -1 host
    # closed/periodic geodesic candidates
    closed_subsets = []
    periodic_subsets = []
    n = len(cd.directions)
    for mask in range(1, 1 << n):
        chosen = [k for k in range(n) if mask >> k & 1]
        total = sum(cd.directions[k].induced_residue for k in chosen)
        if abs(total.real + 1) < 1e-9:
            closed_subsets.append(chosen)
            if abs(total + 1) < 1e-9:
                periodic_subsets.append(chosen)
    hyp_all_order_one_fuchsian = all(
        (not d.degenerate) and d.sing_class == FUCHSIAN and d.order == 1
        for d in cd.directions
    )
    hyp_no_closed = not closed_subsets
    basin_dirs = [
        k
        for k, d in enumerate(cd.directions)
        if d.sing_class == FUCHSIAN and d.residue.real < 0
    ]
    return {
        "label": {
            "name": report.label.name,
            "rho": report.label.rho,
            "tau": report.label.tau,
        },
        "residual": report.residual,
        "directions": dirs,
        "monodromy": asdict(info),
        "leaf_closure": info.leaf_closure,
        "closed_geodesic_subsets": closed_subsets,
        "periodic_geodesic_subsets": periodic_subsets,
        "full_description_hypotheses": {
            "all_directions_order_one_fuchsian": hyp_all_order_one_fuchsian,
            "no_residue_subset_at_minus_one": hyp_no_closed,
            "satisfied": hyp_all_order_one_fuchsian and hyp_no_closed,
        },
        "attracting_directions": basin_dirs,
    }
