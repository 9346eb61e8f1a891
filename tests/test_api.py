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
