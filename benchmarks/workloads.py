"""The five benchmark workloads: seeded inputs, the timed call, the checks.

Every workload produces its inputs in rounds from one ``random.Random(seed)``
stream.  A round is a list of units; a unit is what one timed call into
merocon processes (one field file, one germ, one ``batch_sweep`` batch, one
portrait) and holds one or more items.  The timed call goes through module
attributes (``mflow.batch_sweep``, ``mcli.main``) so that a traced run sees
the wrappers installed on those attributes.

``check`` runs outside the timed region and returns, per item, ``None`` or
the reason the item failed.  ``digest`` reduces an output to values that a
traced replay must reproduce exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import merocon.cli as mcli
import merocon.fields as mfields
import merocon.flow as mflow
import merocon.germs as mgerms
from merocon.algebra import TruncSeries
from merocon.atlas import LABELS, AtlasLabel, closed_form_oracle, template_field
from merocon.fields import CHART_ZERO, HomogeneousField, SingularTimeError, is_dicritical
from merocon.flow import ChartState, IntegratorConfig, chart_transition, lift_nu_polar
from merocon.germs import FUCHSIAN, LocalGerm, germ_residue, normal_form_residuals


@dataclass
class Unit:
    """Inputs of one timed call: ``items`` are checked one by one."""

    items: list
    payload: object = None


class Workload:
    """Seeded rounds of units; the first round is generated during set-up."""

    name = ""
    # untraced seconds one round takes on the reference machine (2-core Xeon);
    # the traced run covers a fixed number of rounds derived from it, so its
    # counts depend only on the seed and --seconds, never on the speed
    round_s = 1.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self._pending: list[Unit] | None = None

    def prepare(self) -> None:
        """Build the fixed inputs (connection data, directories)."""

    def make_round(self) -> list[Unit]:
        raise NotImplementedError

    def next_round(self) -> list[Unit]:
        if self._pending is not None:
            units, self._pending = self._pending, None
            return units
        return self.make_round()

    def warm_up(self) -> None:
        """Generate the first round and run one item of it once."""
        self._pending = self.make_round()
        self.run(self.warm_up_unit(self._pending))

    def warm_up_unit(self, first_round: list[Unit]) -> Unit:
        return first_round[0]

    def run(self, unit: Unit):
        raise NotImplementedError

    def check(self, unit: Unit, result) -> list:
        raise NotImplementedError

    def digest(self, unit: Unit, result) -> list:
        raise NotImplementedError


def _digest_text(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _trajectory_digest(traj) -> str:
    """Everything the ω-limit and event layers decide, to the last bit."""
    return _digest_text(
        traj.omega_class,
        traj.omega_direction,
        [(e.kind, e.t, e.t1, e.t2, e.enclosed, e.simple) for e in traj.events],
        len(traj.samples),
        traj.terminal(),
    )


# ---------------------------------------------------------------------------
# classify: field files through the CLI
# ---------------------------------------------------------------------------


def random_field(rng: random.Random, nu: int) -> HomogeneousField:
    """Generic field of degree nu+1 (the acceptance-02 generator)."""
    while True:
        q1 = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(nu + 2))
        q2 = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(nu + 2))
        q = HomogeneousField(nu, q1, q2)
        if not is_dicritical(q):
            return q


def random_label(rng: random.Random, name: str) -> AtlasLabel:
    """Template parameters away from the degenerate strata (acceptance 10)."""

    def param(avoid=()):
        while True:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) > 0.3 and all(abs(z - a) > 0.25 for a in avoid):
                return z

    if name in ("C210", "C211"):
        return AtlasLabel(name, rho=param())
    if name == "C3rho10":
        return AtlasLabel(name, rho=param(avoid=(1,)))
    if name == "C3rhotau1":
        while True:
            r, t = param(), param()
            if abs(r + t - 1) > 0.3:
                return AtlasLabel(name, rho=r, tau=t)
    return AtlasLabel(name)


def random_gl2(rng: random.Random, max_cond: float = 1e3):
    """Well-conditioned random conjugating matrix (acceptance 10)."""
    while True:
        m = np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
        )
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] / s[-1] < max_cond and s[-1] > 1e-3:
            return ((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1]))


def _label_order_key(z: complex):
    return (round(z.real, 9), round(z.imag, 9))


def expected_parameters(label: AtlasLabel) -> tuple:
    """(rho, tau) the atlas reports for a template label (acceptance 10)."""
    if label.name == "C3rho10":
        return (min((label.rho, 1 - label.rho), key=_label_order_key), None)
    if label.name == "C3rhotau1":
        ordered = sorted(
            (label.rho, 1 - label.rho - label.tau, label.tau), key=_label_order_key
        )
        return (ordered[0], ordered[2])
    return (label.rho, label.tau)


def check_classify_report(rc: int, text: str, nu: int, label) -> str | None:
    """Residue identities and order sum from the emitted JSON; label round trip."""
    if rc != 0:
        return f"exit code {rc}"
    report = json.loads(text)
    if label is not None and label.name == "INF":
        return None if report.get("dicritical") is True else "INF template not dicritical"
    if report.get("dicritical"):
        return "unexpected dicritical report"
    sums = report["residue_sums"]
    res = complex(*sums["connection"])
    induced = complex(*sums["induced"])
    if abs(res - nu) > 1e-8:
        return f"|sum Res - nu| = {abs(res - nu):.2e}"
    if abs(induced + 2) > 1e-8:
        return f"|sum Res_induced + 2| = {abs(induced + 2):.2e}"
    if sums["orders"] != nu + 2:
        return f"order sum {sums['orders']} != {nu + 2}"
    if label is None:
        return None
    atlas = report.get("atlas", {})
    got = atlas.get("label", {})
    if got.get("name") != label.name:
        return f"atlas label {got.get('name') or atlas.get('error')} != {label.name}"
    if atlas["residual"] > 1e-8:
        return f"atlas residual {atlas['residual']:.2e}"
    for key, want in zip(("rho", "tau"), expected_parameters(label)):
        if want is not None and abs(complex(*got[key]) - want) > 1e-6:
            return f"atlas {key} off by {abs(complex(*got[key]) - want):.2e}"
    return None


class Classify(Workload):
    """``merocon classify <file>`` in-process, stdout captured in memory."""

    name = "classify"
    round_s = 0.12
    GENERIC_PER_ROUND = 11  # plus one conjugated template per atlas label

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def make_round(self) -> list[Unit]:
        rng = self.rng
        specs = [(random_field(rng, rng.choice([1, 2, 3])), None)
                 for _ in range(self.GENERIC_PER_ROUND)]
        for name in LABELS:
            label = random_label(rng, name)
            specs.append((template_field(label).conjugate(random_gl2(rng)), label))
        rng.shuffle(specs)
        units = []
        for field, label in specs:
            path = self.workdir / f"field_{self.count:06d}.json"
            self.count += 1
            path.write_text(json.dumps(mcli.field_to_json(field)))
            units.append(Unit([(field.nu, label)], str(path)))
        return units

    def run(self, unit: Unit):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mcli.main(["classify", unit.payload])
        return rc, out.getvalue()

    def check(self, unit: Unit, result) -> list:
        rc, text = result
        nu, label = unit.items[0]
        return [check_classify_report(rc, text, nu, label)]

    def digest(self, unit: Unit, result) -> list:
        rc, text = result
        return [(rc, hashlib.sha256(text.encode()).hexdigest())]


# ---------------------------------------------------------------------------
# normal_forms: formal normalization of Fuchsian and irregular germs
# ---------------------------------------------------------------------------


def _random_unit_tail(rng, lead=1.0 + 0j, n=4, scale=0.25):
    return [lead] + [
        scale * complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 0.5**k for k in range(n)
    ]


def _random_change(rng, n=16):
    psi = TruncSeries.from_coeffs(
        [0j, 1.0 + 0j]
        + [0.1 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 0.5**k for k in range(4)],
        n,
    )
    xi = TruncSeries.from_coeffs(
        [complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))]
        + [0.1 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 0.5**k for k in range(4)],
        n,
    )
    return psi, xi


@dataclass(frozen=True)
class GermCase:
    """A germ to normalize and the invariants it must come back with."""

    germ: LocalGerm
    kind: str  # "fuchsian" or "irregular"
    mu_x: int
    rho: complex | None = None
    index: complex | None = None  # resonant index, when one is defined


def check_normal_form(case: GermCase, result) -> str | None:
    """The acceptance-09 bounds on residual, rho and resonant index."""
    gn, rep, _ = result
    if case.kind == "fuchsian":
        if rep.sing_class != FUCHSIAN or rep.mu_x != case.mu_x:
            return f"class {rep.sing_class} order {rep.mu_x}"
        rho_err = abs(rep.rho - case.rho) / (1 + abs(case.rho))
        if rho_err > 1e-9:
            return f"rho error {rho_err:.2e}"
        residual = normal_form_residuals(gn, rep)
        if residual > 1e-9:
            return f"normal-form residual {residual:.2e}"
    if case.index is not None:
        if rep.resonant_index is None:
            return "no resonant index"
        err = abs(rep.resonant_index - case.index) / (1 + abs(case.index))
        if err > 1e-8:
            return f"resonant index error {err:.2e}"
    return None


class NormalForms(Workload):
    """``normalize_formal(germ, order=16)`` on acceptance-09 germs."""

    name = "normal_forms"
    round_s = 0.4

    def _fuchsian(self, mu_x: int, resonant: bool) -> GermCase:
        rng = self.rng
        mu_y = mu_x - 1
        if resonant:
            n_res = rng.choice([n for n in range(1, 4) if n != mu_y])
            rho = complex(mu_y - n_res)
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = [rho] + [0j] * (n_res - 1) + [rho * a]
        else:
            rho = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(rho) < 0.2 or abs(rho.imag) < 1e-3:
                rho += 0.5 + 0.7j
            a = None
            y = [rho]
        g0 = LocalGerm(
            mu_x, TruncSeries.from_coeffs([1], 16), mu_y, TruncSeries.from_coeffs(y, 16)
        )
        psi, xi = _random_change(rng)
        return GermCase(mgerms.transform_germ(g0, psi, xi), "fuchsian", mu_x, rho, a)

    def _irregular(self, mu_y: int) -> GermCase:
        rng = self.rng
        m = rng.randint(2, 3)
        lead = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        g = LocalGerm(
            mu_y + m,
            TruncSeries.from_coeffs(_random_unit_tail(rng), 16),
            mu_y,
            TruncSeries.from_coeffs(_random_unit_tail(rng, lead=lead), 16),
        )
        index = germ_residue(g) / mgerms.classify(g).rho
        return GermCase(g, "irregular", mu_y + m, index=index)

    def make_round(self) -> list[Unit]:
        # the acceptance-09 mix (non-resonant and resonant Fuchsian round
        # trips and irregular germs in equal shares, orders 1 to 3 equally
        # likely), with each order drawn once per round, so that the mix of
        # costs does not change from seed to seed
        cases = []
        for mu_x in (1, 2, 3):
            cases.append(self._fuchsian(mu_x, resonant=False))
            cases.append(self._fuchsian(mu_x, resonant=True))
            cases.append(self._irregular(mu_y=mu_x - 1))
        return [Unit([c]) for c in cases]

    def run(self, unit: Unit):
        return mgerms.normalize_formal(unit.items[0].germ, order=16)

    def check(self, unit: Unit, result) -> list:
        return [check_normal_form(unit.items[0], result)]

    def digest(self, unit: Unit, result) -> list:
        gn, rep, (psi, xi) = result
        hy = gn.hy.c if gn.hy is not None else None
        return [_digest_text(gn.hx.c, hy, rep, psi.c, xi.c)]


# ---------------------------------------------------------------------------
# trajectories through batch_sweep
# ---------------------------------------------------------------------------


def _oracle_error(label: AtlasLabel, w, traj) -> float:
    """Worst relative deviation of the samples from the closed form."""
    worst = 0.0
    for s in traj.samples:
        lifted = lift_nu_polar(closed_form_oracle(label, w, s.t), 1)
        if lifted.chart != s.chart:
            lifted = chart_transition(lifted, 1)
        worst = max(
            worst,
            abs(lifted.zeta - s.zeta) / (1 + abs(s.zeta)),
            abs(lifted.v - s.v) / (1 + abs(s.v)),
        )
    return worst


def check_oracle(label: AtlasLabel, w, item) -> str | None:
    if item.trajectory is None:
        return item.error
    err = _oracle_error(label, w, item.trajectory)
    return None if err <= 1e-6 else f"oracle error {err:.2e}"


class _Sweep(Workload):
    """Shared pieces of the two ``batch_sweep`` workloads."""

    def warm_up_unit(self, first_round: list[Unit]) -> Unit:
        unit = first_round[0]
        cd, inits = unit.payload
        return Unit(unit.items[:1], (cd, inits[:1]))

    def run(self, unit: Unit):
        cd, inits = unit.payload
        return mflow.batch_sweep(cd, inits, self.cfg)

    def digest(self, unit: Unit, result) -> list:
        return [
            _trajectory_digest(item.trajectory) if item.trajectory else item.error
            for item in result
        ]


class Oracles(_Sweep):
    """Short trajectories of four templates against their closed forms."""

    name = "oracles"
    round_s = 0.2
    BATCH = 8  # starts per template per round; one batch_sweep each
    TEMPLATES = (
        AtlasLabel("C100"),
        AtlasLabel("C2001"),
        AtlasLabel("C3100"),
        AtlasLabel("C210", rho=0.35 + 0.25j),
    )

    def prepare(self) -> None:
        self.cds = [mfields.connection_data(template_field(lab)) for lab in self.TEMPLATES]
        self.cfg = IntegratorConfig(
            rel_tol=1e-10, abs_tol=1e-13, t_max=5.0, record_stride=0.05
        )

    def _start(self, label: AtlasLabel):
        """A start whose closed form stays in a well-scaled window (acceptance 03)."""
        rng = self.rng
        while True:
            w = (
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            if min(abs(w[0]), abs(w[1]), abs(w[0] - w[1])) < 0.15:
                continue
            try:
                path = [closed_form_oracle(label, w, 5 * k / 60) for k in range(61)]
            except SingularTimeError:
                continue
            if any(max(abs(a), abs(b)) > 40 or min(abs(a), abs(b)) < 5e-3 for a, b in path):
                continue
            return w

    def make_round(self) -> list[Unit]:
        units = []
        for label, cd in zip(self.TEMPLATES, self.cds):
            ws = [self._start(label) for _ in range(self.BATCH)]
            units.append(Unit([(label, w) for w in ws], (cd, [lift_nu_polar(w, 1) for w in ws])))
        return units

    def check(self, unit: Unit, result) -> list:
        return [check_oracle(label, w, item) for (label, w), item in zip(unit.items, result)]


BASIN_RHO = -1.0 + 0.3j


def check_basin(init: ChartState, item) -> str | None:
    """Acceptance 11: the curve ends at the attracting pole [1:0]."""
    traj = item.trajectory
    if traj is None:
        return item.error
    d = traj.omega_direction
    if traj.omega_class != "pole" or d is None:
        return f"omega {traj.omega_class}"
    if d.chart != CHART_ZERO or abs(d.coord) >= 1e-9:
        return f"limit direction {d.chart}:{d.coord}"
    if abs(traj.terminal().v) >= 1e-3 * abs(init.v):
        return "fiber did not collapse"
    return None


class Basin(_Sweep):
    """Acceptance-11 starts spiralling into the pole of the ρ = −1+0.3i field."""

    name = "basin"
    round_s = 0.4
    BATCH = 2

    def prepare(self) -> None:
        rho = BASIN_RHO
        self.cd = mfields.connection_data(HomogeneousField(1, (-rho, 0, 0), (0, 1 - rho, 0)))
        self.cfg = IntegratorConfig(
            rel_tol=1e-9, abs_tol=1e-12, t_max=1e8, record_stride=1.0,
            pole_radius=1e-5, max_steps=100_000,
        )

    def make_round(self) -> list[Unit]:
        rng = self.rng
        inits = []
        while len(inits) < self.BATCH:
            z0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            w0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if abs(z0) < 0.1 or abs(w0) < 0.1:
                continue
            # near the invariant line z = 0 through the other direction [0:1]
            # a curve lingers and may not enter the pole radius by t_max;
            # acceptance 11 tolerates 5% of such starts, here every item
            # must pass, so they are not drawn
            if abs(z0) < 0.15 * abs(w0):
                continue
            inits.append(lift_nu_polar((z0, w0), 1))
        return [Unit(list(inits), (self.cd, inits))]

    def check(self, unit: Unit, result) -> list:
        return [check_basin(init, item) for init, item in zip(unit.items, result)]


# ---------------------------------------------------------------------------
# portraits: the paper's figures and the loop multiplier
# ---------------------------------------------------------------------------

THREE_THIRDS = HomogeneousField(1, (-1 / 3, 2 / 3, 0), (0, 2 / 3, -1 / 3))
LOOP_GAMMA = 0.3


def _crossings(traj) -> list:
    return [e for e in traj.events if e.kind == "self_intersection"]


def check_figure_one(traj, _lm) -> str | None:
    cross = _crossings(traj)
    esc = [e for e in traj.events if e.kind in ("escape", "blow_up_time")]
    if len(cross) != 2:
        return f"{len(cross)} self-intersections, expected 2"
    if not esc or max(e.t for e in esc) <= max(e.t2 for e in cross):
        return "no escape after the crossings"
    return None


def check_figure_two(traj, _lm) -> str | None:
    gb = traj.diagnostics.get("late_loop_gb_residual")
    if traj.omega_class != "accumulates_closed":
        return f"omega {traj.omega_class}"
    if gb is None or gb > 1e-2:
        return f"late-loop Gauss-Bonnet residual {gb}"
    return None


def check_figure_three(traj, _lm, t_max: float = 120.0) -> str | None:
    cross = _crossings(traj)
    simple = [e for e in cross if e.simple and e.resolved]
    if traj.omega_class != "infinitely_self_intersecting":
        return f"omega {traj.omega_class}"
    if len(cross) < 25 or not any(e.t2 > 0.75 * t_max for e in cross):
        return f"{len(cross)} crossings, none late"
    if not simple:
        return "no simple resolved loop"
    for e in simple:
        r = e.residue_sum.real
        if not ((-1.5 + 1e-2 < r < -1 - 1e-2) or (-1 + 1e-2 < r < -0.5 - 1e-2)):
            return f"simple loop residue sum {r} outside the windows"
        if e.angle_residual is None or e.angle_residual > 2 * math.pi * 1e-2:
            return f"angle residual {e.angle_residual}"
    return None


def check_loop_multiplier(_traj, lm) -> str | None:
    if lm is None:
        return "no closed return"
    err = abs(abs(lm.measured) - math.exp(-2 * math.pi * LOOP_GAMMA))
    return None if err <= 1e-4 else f"multiplier modulus error {err:.2e}"


def check_periodic(traj, _lm) -> str | None:
    ret = [e for e in traj.events if e.kind == "closed_return"]
    if traj.omega_class != "closed" or not ret:
        return f"omega {traj.omega_class}"
    err = abs(ret[0].multiplier - 1)
    return None if err <= 1e-6 else f"return multiplier error {err:.2e}"


@dataclass(frozen=True)
class Portrait:
    name: str
    cd: object
    init: ChartState
    cfg: IntegratorConfig
    check: object
    multiplier: bool = False


class Portraits(Workload):
    """Acceptance 05, 06, 07, 08 and 12: a few long curves, one per figure."""

    name = "portraits"
    round_s = 6.5

    def prepare(self) -> None:
        g = LOOP_GAMMA
        self.portraits = (
            Portrait(
                "figure_one",
                mfields.model_connection(1, 0.1),
                ChartState(CHART_ZERO, 1.0, 1.0 + 1.0j, 0.0),
                IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, t_max=60.0,
                                 record_stride=0.02, two_sided=True, zeta_escape_radius=4.0),
                check_figure_one,
            ),
            Portrait(
                "figure_two",
                mfields.model_connection(1, 1j),
                ChartState(CHART_ZERO, (1 + 1j) / 2, 1.0, 0.0),
                IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, t_max=1e11, record_stride=0.05,
                                 zeta_escape_radius=50.0, max_steps=500_000),
                check_figure_two,
            ),
            Portrait(
                "figure_three",
                mfields.connection_data(THREE_THIRDS),
                lift_nu_polar((1j, 1j - 1), 1),
                IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11, t_max=120.0, record_stride=0.05,
                                 pole_radius=1e-9, max_steps=800_000),
                check_figure_three,
            ),
            Portrait(
                "loop_multiplier",
                mfields.connection_data(HomogeneousField(1, (1j * g, 0, 0), (0, 1 + 1j * g, 0))),
                ChartState(CHART_ZERO, 0.5, 1j, 0.0),
                IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14, t_max=40.0, record_stride=0.02),
                check_loop_multiplier,
                multiplier=True,
            ),
            Portrait(
                "periodic_family",
                mfields.connection_data(HomogeneousField(1, (0, 0, 0), (0, 1, 0))),
                lift_nu_polar((0.8j, 0.5), 1),
                IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14, t_max=20.0, record_stride=0.02),
                check_periodic,
            ),
        )

    def warm_up_unit(self, first_round: list[Unit]) -> Unit:
        return Unit([self.portraits[-1]])  # the cheapest portrait

    def make_round(self) -> list[Unit]:
        # the configurations are the paper's; the seed only orders them
        order = list(self.portraits)
        self.rng.shuffle(order)
        return [Unit([p]) for p in order]

    def run(self, unit: Unit):
        p = unit.items[0]
        traj = mflow.integrate(p.cd, p.init, p.cfg)
        lm = None
        if p.multiplier:
            ret = [e for e in traj.events if e.kind == "closed_return"]
            if ret:
                lm = mflow.loop_multiplier(traj, ret[0].t1, ret[0].t2, p.cd)
        return traj, lm

    def check(self, unit: Unit, result) -> list:
        return [unit.items[0].check(*result)]

    def digest(self, unit: Unit, result) -> list:
        traj, lm = result
        return [(_trajectory_digest(traj), None if lm is None else lm.measured)]


WORKLOADS = {
    cls.name: cls for cls in (Classify, NormalForms, Oracles, Basin, Portraits)
}
