# Command-line frontend: field-file parsing, report emission, trajectory
# CSV/SVG output and the invariant checker.
#
# Verbs: classify, simulate, sweep, atlas, check.  Exit codes: 0 success,
# 1 classification/integration failure, 2 input error.

from __future__ import annotations

import argparse
import json
import math
import os
import random as _random
import sys
import tempfile
from dataclasses import asdict
from typing import Optional, Sequence

from .algebra import poly_eval, rational_residue
from .atlas import (
    AtlasClassificationError,
    classify_quadratic,
    dynamics_dossier,
)
from .fields import (
    CHART_ZERO,
    ConnectionData,
    DicriticalFieldError,
    HomogeneousField,
    ProjPoint,
    connection_data,
    is_dicritical,
    model_connection,
    model_connection_apparent,
    monodromy_info,
)
from .germs import APPARENT
from .flow import (
    ChartState,
    Event,
    IntegratorConfig,
    Trajectory,
    batch_sweep,
    integrate,
    lift_nu_polar,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

SVG_SIZE = 640  # side of the square `simulate --svg` plot, in pixels


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# value formatting / parsing
# ---------------------------------------------------------------------------

def fmt(x: float) -> str:
    return f"{x:.17g}"


def cpair(z: complex) -> list[float]:
    return [z.real, z.imag]


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise InputError(f"cannot parse complex number from {text!r}") from exc


def _is_pair(item) -> bool:
    """True for a JSON [re, im] pair of numbers."""
    return (
        isinstance(item, list)
        and len(item) == 2
        and all(isinstance(v, (int, float)) for v in item)
    )


def _split_values(text: str, form: str) -> list[str]:
    """Split a comma-separated flag value that must look like `form`."""
    parts = text.split(",")
    if len(parts) != form.count(",") + 1:
        raise InputError(f"expected {form}, got {text!r}")
    return parts


def atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".merocon-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# field specification files
# ---------------------------------------------------------------------------

def parse_field_file(path: str) -> HomogeneousField:
    """JSON schema: degree (nu+1), Q1 and Q2 as [re, im] pairs of length
    nu+2 in the monomial order z^(nu+1), z^nu w, ..., w^(nu+1)."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read field file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: expected a JSON object")
    try:
        degree = int(raw["degree"])
    except (KeyError, TypeError, ValueError):
        raise InputError(f"{path}: field 'degree' must be an integer")
    nu = degree - 1
    if nu < 1:
        raise InputError(f"{path}: degree must be at least 2")
    comps = []
    for name in ("Q1", "Q2"):
        if name not in raw:
            raise InputError(f"{path}: missing component {name}")
        rows = raw[name]
        if not isinstance(rows, list) or len(rows) != nu + 2:
            raise InputError(
                f"{path}: {name} must list {nu + 2} coefficients for degree {degree}"
            )
        coeffs = []
        for k, item in enumerate(rows):
            if not _is_pair(item):
                raise InputError(f"{path}: {name}[{k}] must be a [re, im] pair")
            coeffs.append(complex(item[0], item[1]))
        comps.append(tuple(coeffs))
    if all(c == 0 for c in comps[0]) and all(c == 0 for c in comps[1]):
        raise InputError(f"{path}: field must have a nonzero coefficient")
    return HomogeneousField(nu, comps[0], comps[1])


def field_to_json(field: HomogeneousField) -> dict:
    return {
        "degree": field.nu + 1,
        "Q1": [cpair(c) for c in field.q1],
        "Q2": [cpair(c) for c in field.q2],
    }


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def point_json(p: ProjPoint) -> dict:
    return {"chart": p.chart, "coord": cpair(p.coord)}


def direction_json(d) -> dict:
    rep = d.report
    return {
        "point": point_json(d.point),
        "order": d.order,
        "degenerate": d.degenerate,
        "residue": cpair(d.residue),
        "induced_residue": cpair(d.induced_residue),
        "index": cpair(d.index),
        "sing_class": d.sing_class,
        "irregularity": rep.irregularity,
        "mu_y": rep.mu_y,
        "rho": cpair(rep.rho),
        "resonant": rep.resonant,
        "resonance_degree": rep.resonance_degree,
        "resonant_index": None if rep.resonant_index is None else cpair(rep.resonant_index),
        "apparent_index": None if rep.apparent_index is None else cpair(rep.apparent_index),
        "near_resonance_warning": rep.near_resonance_warning,
        "mu_y_chart_dependent": rep.mu_y_chart_dependent,
        "prediction": {
            "regime": d.prediction.regime,
            "velocity_limit": d.prediction.velocity_limit,
        },
    }


def ratfn_json(f) -> Optional[dict]:
    if f is None:
        return None
    return {"num": [cpair(c) for c in f.num], "den": [cpair(c) for c in f.den]}


def build_report(field: HomogeneousField) -> dict:
    report: dict = {"field": field_to_json(field), "nu": field.nu}
    if is_dicritical(field):
        report["dicritical"] = True
        # the field is ell(z, w) * radial; leaf dynamics is one-dimensional
        ell = [
            cpair(field.q1[0]),
            cpair(field.q1[1]),
        ]
        report["leaf_dynamics"] = {
            "scalar_factor": ell,
            "note": (
                "every line through the origin is invariant; on a "
                "non-degenerate leaf the flow is the one-dimensional "
                "power-law flow with the leaf eigenvalue"
            ),
        }
        return report
    report["dicritical"] = False
    cd = connection_data(field)
    info = monodromy_info(cd)
    report["connection"] = {
        "x0": [cpair(c) for c in cd.x0],
        "y0": [cpair(c) for c in cd.y0],
        "x_inf": [cpair(c) for c in cd.xinf],
        "y_inf": [cpair(c) for c in cd.yinf],
        "eta0": ratfn_json(cd.eta0),
        "eta_inf": ratfn_json(cd.eta_inf),
    }
    report["directions"] = [direction_json(d) for d in cd.directions]
    report["residue_sums"] = {
        "connection": cpair(sum(d.residue for d in cd.directions)),
        "induced": cpair(sum(d.induced_residue for d in cd.directions)),
        "orders": sum(d.order for d in cd.directions),
    }
    report["monodromy"] = asdict(info)
    report["leaf_closure"] = info.leaf_closure
    if field.nu == 1:
        try:
            atlas_rep = classify_quadratic(field, cd)
            dossier = dynamics_dossier(atlas_rep, field, cd)
            report["atlas"] = _jsonify(dossier)
            report["atlas"]["conjugacy"] = [
                [cpair(atlas_rep.conjugacy[0][0]), cpair(atlas_rep.conjugacy[0][1])],
                [cpair(atlas_rep.conjugacy[1][0]), cpair(atlas_rep.conjugacy[1][1])],
            ]
        except AtlasClassificationError as exc:
            report["atlas"] = {"error": str(exc)}
    return report


def _jsonify(obj):
    if isinstance(obj, complex):
        return cpair(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# trajectory CSV / SVG
# ---------------------------------------------------------------------------

CSV_HEADER = "t,chart,zeta_re,zeta_im,v_re,v_im,h_drift"


def trajectory_csv(traj: Trajectory) -> str:
    lines = [CSV_HEADER]
    drifts = traj.drifts if len(traj.drifts) == len(traj.samples) else None
    for k, s in enumerate(traj.samples):
        lines.append(
            ",".join(
                (
                    fmt(s.t),
                    s.chart if s.chart != CHART_ZERO else "0",
                    fmt(s.zeta.real),
                    fmt(s.zeta.imag),
                    fmt(s.v.real),
                    fmt(s.v.imag),
                    fmt(drifts[k] if drifts else traj.invariant_drift),
                )
            )
        )
    for e in sorted(traj.events, key=lambda e: e.t):
        lines.append(event_comment(e))
    lines.append(f"# OMEGA {traj.omega_class}")
    return "\n".join(lines) + "\n"


def event_comment(e: Event) -> str:
    parts = [f"# EVENT {e.kind} t={fmt(e.t)}"]
    if e.t1 is not None:
        parts.append(f"t1={fmt(e.t1)}")
    if e.t2 is not None:
        parts.append(f"t2={fmt(e.t2)}")
    if e.direction is not None:
        parts.append(f"chart={e.direction.chart}")
        parts.append(f"coord={fmt(e.direction.coord.real)}{e.direction.coord.imag:+.17g}i")
    if e.external_angle is not None:
        parts.append(f"angle={fmt(e.external_angle)}")
    if e.enclosed:
        parts.append("enclosed=" + ";".join(str(k) for k in e.enclosed))
    if e.residue_sum is not None:
        parts.append(f"res_re={fmt(e.residue_sum.real)}")
    if e.angle_residual is not None:
        parts.append(f"gb_residual={fmt(e.angle_residual)}")
    if e.multiplier is not None:
        parts.append(
            f"multiplier={fmt(e.multiplier.real)}{e.multiplier.imag:+.17g}i"
        )
    return " ".join(parts)


def parse_trajectory_csv(text: str) -> list[dict]:
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        t, chart, zr, zi, vr, vi, hd = line.split(",")
        rows.append(
            {
                "t": float(t),
                "chart": chart,
                "zeta": complex(float(zr), float(zi)),
                "v": complex(float(vr), float(vi)),
                "h_drift": float(hd),
            }
        )
    return rows


def trajectory_svg(traj: Trajectory, cd: ConnectionData) -> str:
    """Deterministic static plot of the projected curve in chart-0 coords."""
    clip = 10.0
    pts: list[tuple[float, float]] = []
    for s in traj.samples:
        z = s.zeta if s.chart == CHART_ZERO else (
            complex(math.inf) if s.zeta == 0 else 1.0 / s.zeta
        )
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            pts.append(None)
            continue
        if abs(z) > clip:
            pts.append(None)
        else:
            pts.append((z.real, z.imag))
    good = [p for p in pts if p is not None]
    if not good:
        good = [(0.0, 0.0)]
    xs = [p[0] for p in good]
    ys = [p[1] for p in good]
    poles = []
    for d in cd.directions:
        z = d.point.coord_in(CHART_ZERO)
        if math.isfinite(z.real) and abs(z) <= clip:
            poles.append((z.real, z.imag))
            xs.append(z.real)
            ys.append(z.imag)
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-6) * 1.1
    cx, cy = 0.5 * (lo_x + hi_x), 0.5 * (lo_y + hi_y)

    def to_px(p):
        return (
            (p[0] - cx) / span * SVG_SIZE + SVG_SIZE / 2,
            -(p[1] - cy) / span * SVG_SIZE + SVG_SIZE / 2,
        )

    chunks: list[list[tuple[float, float]]] = [[]]
    for p in pts:
        if p is None:
            if chunks[-1]:
                chunks.append([])
        else:
            chunks[-1].append(to_px(p))
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for chunk in chunks:
        if len(chunk) < 2:
            continue
        path = " ".join(f"{x:.3f},{y:.3f}" for x, y in chunk)
        body.append(
            f'<polyline points="{path}" fill="none" stroke="#1f4e9c" stroke-width="1"/>'
        )
    for p in poles:
        x, y = to_px(p)
        body.append(
            f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4" fill="none" stroke="#c22" stroke-width="1.5"/>'
        )
    for e in traj.events:
        if e.kind == "self_intersection" and e.point is not None:
            z = e.point.coord_in(CHART_ZERO)
            if math.isfinite(z.real) and abs(z) <= clip:
                x, y = to_px((z.real, z.imag))
                body.append(
                    f'<path d="M {x - 4:.3f} {y - 4:.3f} L {x + 4:.3f} {y + 4:.3f} '
                    f'M {x - 4:.3f} {y + 4:.3f} L {x + 4:.3f} {y - 4:.3f}" '
                    f'stroke="#080" stroke-width="1.2"/>'
                )
    body.append("</svg>")
    return "\n".join(body) + "\n"


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------

def run_checks(
    field: HomogeneousField,
    cd: Optional[ConnectionData] = None,
    seed: Optional[int] = None,
) -> list[tuple[str, bool, str]]:
    """Invariant table for a field: residue sums, chart consistency,
    quadrature cross-check, and a Gauss-Bonnet probe trajectory."""
    results: list[tuple[str, bool, str]] = []
    if cd is None:
        cd = connection_data(field)
    nu = field.nu
    total = sum(d.residue for d in cd.directions)
    induced = sum(d.induced_residue for d in cd.directions)
    orders = sum(d.order for d in cd.directions)
    results.append(
        ("residue_sum_connection", abs(total - nu) < 1e-8, f"sum={total:+.3e} target={nu}")
    )
    results.append(
        ("residue_sum_induced", abs(induced + 2) < 1e-8, f"sum={induced:+.3e} target=-2")
    )
    results.append(("order_sum", orders == nu + 2, f"sum={orders} target={nu + 2}"))
    # chart consistency at directions visible in both charts
    ok = True
    detail = []
    for d in cd.directions:
        z = d.point.coord
        if d.point.chart != CHART_ZERO or abs(z) < 1e-6:
            continue
        r0 = rational_residue(cd.y0, cd.x0, z)
        ri = rational_residue(cd.yinf, cd.xinf, 1.0 / z)
        gap = abs(r0 - ri)
        detail.append(f"{gap:.2e}")
        ok = ok and gap < 1e-9 * (1 + abs(r0))
    results.append(("chart_consistency", ok, " ".join(detail) or "no shared directions"))
    # independent quadrature oracle for each residue
    ok = True
    detail = []
    for d in cd.directions:
        got = _contour_residue(cd, d)
        if got is None:
            continue
        gap = abs(got - d.residue)
        detail.append(f"{gap:.2e}")
        ok = ok and gap < 1e-6 * (1 + abs(d.residue))
    results.append(("residue_quadrature", ok, " ".join(detail)))
    # Gauss-Bonnet probe: seeded trajectory, residual at resolved loops
    cfg = IntegratorConfig(
        rel_tol=1e-9, abs_tol=1e-12, t_max=40.0, record_stride=0.02,
        pole_radius=1e-6, max_steps=200_000,
    )
    if seed is None:
        probe = (0.83 + 0.31j, -0.42 + 0.57j)
    else:
        rng = _random.Random(seed)
        probe = (
            complex(rng.uniform(0.3, 1.0), rng.uniform(-0.8, 0.8)),
            complex(rng.uniform(-1.0, -0.3), rng.uniform(-0.8, 0.8)),
        )
    try:
        traj = integrate(cd, lift_nu_polar(probe, nu), cfg)
        loops = [
            e
            for e in traj.events
            if e.kind == "self_intersection"
            and e.simple
            and e.resolved
            and e.angle_residual is not None
        ]
        if loops:
            worst = max(e.angle_residual for e in loops)
            results.append(
                ("gauss_bonnet_probe", worst <= 1e-2, f"loops={len(loops)} worst={worst:.2e}")
            )
        else:
            results.append(("gauss_bonnet_probe", True, "no simple loops on probe"))
    except Exception as exc:  # pragma: no cover - probe must not mask checks
        results.append(("gauss_bonnet_probe", False, f"probe failed: {exc}"))
    return results


def _contour_residue(cd: ConnectionData, d, n: int = 512) -> Optional[complex]:
    """Trapezoid contour integral of the connection form around a direction."""
    if d.sing_class == APPARENT:
        return 0j
    x, y = cd.chart_polys(d.point.chart)
    center = d.point.coord
    others = [
        e.point.coord_in(d.point.chart)
        for e in cd.directions
        if e is not d
    ]
    gaps = [abs(center - z) for z in others if math.isfinite(z.real)]
    radius = 0.25 * min(gaps) if gaps else 0.25
    radius = min(radius, 0.25)
    if radius < 1e-8:
        return None
    total = 0j
    for k in range(n):
        ang = 2 * math.pi * k / n
        z = center + radius * complex(math.cos(ang), math.sin(ang))
        dz = radius * complex(-math.sin(ang), math.cos(ang)) * (2 * math.pi / n)
        total += poly_eval(y, z) / poly_eval(x, z) * dz
    return total / (2j * math.pi)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

CONFIG_DEFAULTS = {
    "tol": 1e-9,
    "tmax": 50.0,
    "escape": None,
    "pole_radius": 1e-3,
    "stride": 0.02,
    "bidirectional": None,
}


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(CONFIG_DEFAULTS)
    if unknown:
        raise InputError(f"{path}: unknown config keys {sorted(unknown)}")
    return raw


def _integrator_config(args, single_chart: bool) -> IntegratorConfig:
    # precedence: explicit flag > config file > built-in default
    file_cfg = _load_config(getattr(args, "config", None))

    def setting(name):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        if name in file_cfg:
            return file_cfg[name]
        return CONFIG_DEFAULTS[name]

    tol = float(setting("tol"))
    kw = dict(
        rel_tol=tol,
        abs_tol=tol * 1e-3,
        t_max=float(setting("tmax")),
        record_stride=float(setting("stride")),
        pole_radius=float(setting("pole_radius")),
    )
    escape = setting("escape")
    if escape is not None:
        kw["escape_radius"] = float(escape)
        kw["zeta_escape_radius"] = float(escape)
    # models reproduce the maximal-curve figures unless told otherwise
    two_sided = setting("bidirectional")
    if two_sided is None:
        two_sided = single_chart
    kw["two_sided"] = bool(two_sided)
    return IntegratorConfig(**kw)


def cmd_classify(args) -> int:
    field = parse_field_file(args.field)
    report = build_report(field)
    text = json.dumps(report, indent=2)
    if args.out:
        atomic_write(args.out, text + "\n")
    else:
        print(text)
    return EXIT_OK


def _resolve_connection(args) -> tuple[ConnectionData, bool]:
    if args.model is not None:
        vals = args.model
        mu = int(vals[0])
        rho = parse_complex(vals[1])
        a = parse_complex(vals[2]) if len(vals) > 2 else 0j
        n = int(vals[3]) if len(vals) > 3 else None
        return model_connection(mu, rho, a, n), True
    if args.apparent_model is not None:
        vals = args.apparent_model
        mu = int(vals[0])
        a = parse_complex(vals[1]) if len(vals) > 1 else 0j
        return model_connection_apparent(mu, a), True
    if args.field is None:
        raise InputError("need a field file, --model, or --apparent-model")
    field = parse_field_file(args.field)
    if is_dicritical(field):
        raise InputError("dicritical fields have no geodesic flow to integrate")
    return connection_data(field), False


def _resolve_initial(args, cd: ConnectionData) -> ChartState:
    if args.state is not None:
        chart, z, v = _split_values(args.state, "chart,zeta,v")
        chart = chart.strip()
        if chart not in ("0", "inf"):
            raise InputError("state chart must be 0 or inf")
        return ChartState(chart, parse_complex(z), parse_complex(v), 0.0)
    if args.frm is not None:
        z, w = _split_values(args.frm, "z,w")
        return lift_nu_polar((parse_complex(z), parse_complex(w)), cd.nu)
    raise InputError("need --from z,w or --state chart,zeta,v")


def cmd_simulate(args) -> int:
    cd, single = _resolve_connection(args)
    init = _resolve_initial(args, cd)
    cfg = _integrator_config(args, single)
    traj = integrate(cd, init, cfg)
    csv = trajectory_csv(traj)
    if args.out:
        atomic_write(args.out, csv)
    else:
        sys.stdout.write(csv)
    if args.svg:
        atomic_write(args.svg, trajectory_svg(traj, cd))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cd, single = _resolve_connection(args)
    try:
        with open(args.inits) as handle:
            entries = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read initial conditions: {exc}") from exc
    if not isinstance(entries, list):
        raise InputError("initial conditions must be a JSON list")
    prepared: list[tuple[int, Optional[ChartState], Optional[str]]] = []
    for k, item in enumerate(entries):
        if not isinstance(item, list) or len(item) != 2 or not all(map(_is_pair, item)):
            raise InputError(f"initial condition {k} must be [[re,im],[re,im]]")
        w = (complex(item[0][0], item[0][1]), complex(item[1][0], item[1][1]))
        try:
            prepared.append((k, lift_nu_polar(w, cd.nu), None))
        except ValueError as exc:
            prepared.append((k, None, f"{type(exc).__name__}: {exc}"))
    cfg = _integrator_config(args, single)
    runnable = [(k, st) for k, st, err in prepared if st is not None]
    items = batch_sweep(cd, [st for _, st in runnable], cfg)
    by_index = {runnable[item.index][0]: item for item in items}
    os.makedirs(args.out_dir, exist_ok=True)
    summary = []
    for k, st, err in prepared:
        if err is not None:
            summary.append({"index": k, "error": err})
            continue
        item = by_index[k]
        if item.trajectory is None:
            summary.append({"index": k, "error": item.error})
            continue
        name = f"traj_{k:04d}.csv"
        atomic_write(os.path.join(args.out_dir, name), trajectory_csv(item.trajectory))
        summary.append(
            {
                "index": k,
                "file": name,
                "omega": item.trajectory.omega_class,
                "events": len(item.trajectory.events),
            }
        )
    print(json.dumps(summary, indent=2))
    return EXIT_OK if all("error" not in s for s in summary) else EXIT_FAIL


def cmd_atlas(args) -> int:
    field = parse_field_file(args.field)
    if field.nu != 1:
        raise InputError("the atlas covers quadratic fields only")
    # built once for both calls; a dicritical field has none, and the
    # dossier reports that with the error connection_data raises
    cd = None if is_dicritical(field) else connection_data(field)
    try:
        rep = classify_quadratic(field, cd)
    except AtlasClassificationError as exc:
        print(json.dumps({"error": str(exc)}, indent=2))
        return EXIT_FAIL
    dossier = _jsonify(dynamics_dossier(rep, field, cd))
    print(json.dumps(dossier, indent=2))
    return EXIT_OK


def cmd_check(args) -> int:
    field = parse_field_file(args.field)
    if is_dicritical(field):
        print("dicritical field: connection invariants do not apply")
        return EXIT_OK
    results = run_checks(field, seed=args.seed)
    width = max(len(name) for name, _, _ in results)
    ok_all = True
    for name, ok, detail in results:
        ok_all = ok_all and ok
        print(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}  {detail}")
    return EXIT_OK if ok_all else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merocon",
        description=(
            "Homogeneous vector fields on C^2 through the geodesic flow of "
            "meromorphic connections on the projective line"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="connection data, singularities, monodromy")
    p.add_argument("field", help="field specification JSON file")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=cmd_classify)

    def sim_flags(p):
        p.add_argument("field", nargs="?", help="field specification JSON file")
        p.add_argument(
            "--model",
            nargs="+",
            metavar=("MU RHO", "A N"),
            help="normal-form model: order, residue, optional index and degree",
        )
        p.add_argument(
            "--apparent-model",
            nargs="+",
            dest="apparent_model",
            metavar=("MU", "A"),
            help="apparent model: order and optional invariant",
        )
        p.add_argument("--config", help="JSON file with default tolerance settings")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--tmax", type=float, default=None)
        p.add_argument("--escape", type=float, default=None)
        p.add_argument("--pole-radius", dest="pole_radius", type=float, default=None)
        p.add_argument("--stride", type=float, default=None)
        p.add_argument(
            "--bidirectional",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="integrate the maximal curve (default for models)",
        )

    p = sub.add_parser("simulate", help="integrate one geodesic, emit CSV")
    sim_flags(p)
    p.add_argument("--from", dest="frm", help="initial point z,w in C^2")
    p.add_argument("--state", help="initial chart state chart,zeta,v")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--svg", help="also write a plot to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="integrate a batch of initial conditions")
    sim_flags(p)
    p.add_argument("--inits", required=True, help="JSON list of [[re,im],[re,im]] points")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("atlas", help="quadratic normal-form classification")
    p.add_argument("field")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("check", help="invariant table for a field")
    p.add_argument("field")
    p.add_argument("--seed", type=int, default=None, help="seed for the probe trajectory")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DicriticalFieldError, AtlasClassificationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
