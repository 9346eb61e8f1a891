import inspect

import merocon

# The public names of the package.  Removing one is a contract change: edit
# this list in the same change and record the removal in CHANGES.md.
PUBLIC_NAMES = [
    "AtlasClassificationError",
    "AtlasLabel",
    "AtlasReport",
    "CharDirection",
    "ChartState",
    "ConnectionData",
    "DicriticalFieldError",
    "DynamicsPrediction",
    "Event",
    "HomogeneousField",
    "IntegratorConfig",
    "LocalGerm",
    "MonodromyInfo",
    "ProjPoint",
    "RatFn",
    "RootFindingError",
    "SingularTimeError",
    "SingularityReport",
    "Trajectory",
    "TruncSeries",
    "apparent_index",
    "batch_sweep",
    "characteristic_directions",
    "characteristic_leaf_curve",
    "classify",
    "classify_omega_limit",
    "classify_quadratic",
    "closed_form_oracle",
    "connection_data",
    "detect_self_intersections",
    "dynamics_dossier",
    "geodesic_rhs",
    "integrate",
    "is_dicritical",
    "leaf_closure_class",
    "lift_nu_polar",
    "loop_multiplier",
    "model_connection",
    "model_connection_apparent",
    "monodromy_info",
    "normalize_formal",
    "poly_roots",
    "predict_dynamics",
    "template_field",
    "unlift",
]


def test_public_names_are_pinned():
    assert sorted(merocon.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    missing = [name for name in merocon.__all__ if not hasattr(merocon, name)]
    assert missing == []


# The parameter names of every public callable but the exception classes, and
# of the public methods of public classes (a dataclass's parameters are its
# fields).  Each tolerance and tuning constant is fixed in the module that uses
# it, so a new parameter here is a contract change: edit this table in the same
# change and record it in CHANGES.md.
PUBLIC_SIGNATURES = {
    "AtlasLabel": "name rho tau",
    "AtlasReport": "label conjugacy residual",
    "CharDirection": (
        "point order degenerate residue induced_residue index report prediction"
    ),
    "ChartState": "chart zeta v t",
    "ChartState.point": "self",
    "ChartState.sphere": "self",
    "ConnectionData": "nu x0 y0 xinf yinf directions single_chart",
    "ConnectionData.chart_polys": "self chart",
    "ConnectionData.negated": "self",
    "DynamicsPrediction": "regime velocity_limit",
    "Event": (
        "kind t direction t1 t2 point external_angle enclosed residue_sum "
        "angle_residual multiplier simple resolved"
    ),
    "HomogeneousField": "nu q1 q2",
    "HomogeneousField.conjugate": "self L",
    "IntegratorConfig": (
        "rel_tol abs_tol t_max escape_radius pole_radius max_steps "
        "record_stride zeta_escape_radius two_sided classify"
    ),
    "LocalGerm": "mu_x hx mu_y hy",
    "LocalGerm.from_series": "x y",
    "MonodromyInfo": "real_periods finite_cyclic cyclic_order",
    "ProjPoint": "chart coord",
    "ProjPoint.make": "chart coord",
    "ProjPoint.from_vector": "w",
    "ProjPoint.representative": "self",
    "ProjPoint.coord_in": "self chart",
    "ProjPoint.sphere": "self",
    "ProjPoint.chordal": "self other",
    "RatFn": "num den",
    "RatFn.make": "num den",
    "RatFn.residue": "self p",
    "RatFn.poles": "self",
    "SingularityReport": (
        "sing_class degenerate mu_x mu_y rho irregularity residue resonant "
        "resonance_degree resonant_index apparent_index near_resonance_warning "
        "mu_y_chart_dependent"
    ),
    "Trajectory": (
        "samples events invariant_drift drifts omega_class omega_direction "
        "diagnostics"
    ),
    "Trajectory.sample_times": "self",
    "Trajectory.terminal": "self",
    "TruncSeries": "n c",
    "TruncSeries.from_coeffs": "c n",
    "TruncSeries.const": "value n",
    "TruncSeries.identity": "n",
    "TruncSeries.truncate": "self n",
    "TruncSeries.add": "self other",
    "TruncSeries.sub": "self other",
    "TruncSeries.scale": "self s",
    "TruncSeries.mul": "self other",
    "TruncSeries.recip": "self",
    "TruncSeries.compose": "self inner",
    "TruncSeries.deriv": "self",
    "TruncSeries.pow_int": "self p",
    "TruncSeries.reversion": "self",
    "TruncSeries.eval": "self z",
    "apparent_index": "germ",
    "batch_sweep": "cd inits cfg",
    "characteristic_directions": "field",
    "characteristic_leaf_curve": "field direction zeta0 t",
    "classify": "germ",
    "classify_omega_limit": "traj cd cfg crossings",
    "classify_quadratic": "field cd",
    "closed_form_oracle": "label init t",
    "connection_data": "field",
    "detect_self_intersections": "traj cd",
    "dynamics_dossier": "report field cd",
    "geodesic_rhs": "state cd",
    "integrate": "cd init cfg",
    "is_dicritical": "field",
    "leaf_closure_class": "cd",
    "lift_nu_polar": "w nu",
    "loop_multiplier": "traj t1 t2 cd",
    "model_connection": "mu_x rho a n nu",
    "model_connection_apparent": "mu_x a nu",
    "monodromy_info": "cd",
    "normalize_formal": "germ order",
    "poly_roots": "c",
    "predict_dynamics": "report",
    "template_field": "label",
    "unlift": "state nu",
}


def public_signatures() -> dict:
    out = {}
    for name in merocon.__all__:
        obj = getattr(merocon, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        out[name] = " ".join(inspect.signature(obj).parameters)
        if isinstance(obj, type):
            for attr, raw in vars(obj).items():
                method = getattr(obj, attr)
                if attr.startswith("_") or isinstance(raw, property) or not callable(method):
                    continue
                out[f"{name}.{attr}"] = " ".join(inspect.signature(method).parameters)
    return out


def test_public_signatures_are_pinned():
    assert public_signatures() == PUBLIC_SIGNATURES
