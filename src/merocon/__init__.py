"""Homogeneous vector fields on C^2 via meromorphic connections on P^1.

A homogeneous field Q of degree nu+1 induces a meromorphic connection on a
line bundle over the projective line whose geodesic flow carries the real
integral curves of Q.  The package computes the connection, residues and
indices, classifies singular directions (with formal normal forms),
integrates the geodesic flow with event detection, verifies the global
residue and angle identities, and classifies quadratic fields into their
eleven linear-conjugacy normal forms.
"""

from .algebra import RatFn, RootFindingError, TruncSeries, poly_roots
from .atlas import (
    AtlasClassificationError,
    AtlasLabel,
    AtlasReport,
    classify_quadratic,
    closed_form_oracle,
    dynamics_dossier,
    template_field,
)
from .fields import (
    CharDirection,
    ConnectionData,
    DicriticalFieldError,
    HomogeneousField,
    MonodromyInfo,
    ProjPoint,
    SingularTimeError,
    characteristic_directions,
    characteristic_leaf_curve,
    connection_data,
    is_dicritical,
    leaf_closure_class,
    model_connection,
    model_connection_apparent,
    monodromy_info,
)
from .flow import (
    ChartState,
    Event,
    IntegratorConfig,
    Trajectory,
    batch_sweep,
    classify_omega_limit,
    detect_self_intersections,
    geodesic_rhs,
    integrate,
    lift_nu_polar,
    loop_multiplier,
    unlift,
)
from .germs import (
    DynamicsPrediction,
    LocalGerm,
    SingularityReport,
    apparent_index,
    classify,
    normalize_formal,
    predict_dynamics,
)

__all__ = [
    "AtlasClassificationError",
    "AtlasLabel",
    "AtlasReport",
    "ChartState",
    "CharDirection",
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
