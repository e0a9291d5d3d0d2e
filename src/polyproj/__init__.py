"""Expected f-vectors of random projections of regular polytopes.

Library layout:
  families   vertices, face counts, canonical faces of the three series
  angles     internal/external angles: exact branches, external angles by
             quadrature, internal angles by the shifted Steck integral
             (beta(Q_0, Q_2) alone by Gaussian Monte Carlo)
  expected   projection formula, Gaussian models, intrinsic volumes,
             Poissonization, monotonicity tables
  hull       simulation side: sampled hulls and zonotopes with exact f-vectors
  report     fixed-schema report rows, CSV/JSON
  cli        the `polyproj` command
"""

from .angles import (
    QUADRATURE_RTOL,
    Cone,
    MCConfig,
    NormalConeData,
    PositiveHullData,
    clear_angle_memo,
    complement_basis,
    cone_angle,
    external_angle,
    internal_angle,
    internal_cone,
    normal_cone,
    orthonormal_basis,
)
from .errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidFaceError,
    InvalidPairError,
    NumericError,
    PolyprojError,
    SimulationAbortError,
    TruncationError,
)
from .expected import (
    Estimate,
    GAUSSIAN_MODELS,
    MonotonicityRow,
    PoissonizedExpectation,
    expected_f_cube_closed_form,
    expected_f_model,
    expected_f_projection,
    expected_f_zonotope,
    intrinsic_volume,
    monotonicity_table,
    poissonized_expected,
    poissonized_series,
    t_functional_expected,
)
from .families import (
    MODEL_TABLE,
    CanonicalFace,
    Family,
    Model,
    ambient_dim,
    barycenter,
    canonical_face,
    face_count,
    vertices,
)
from .hull import (
    FVectorSample,
    MODELS,
    SimConfig,
    SimulationResult,
    hull_f_vector,
    random_orthonormal_frame,
    sample_gaussian,
    simulate_expected_f,
    symmetrize,
    zonotope_f_vector,
)
from .report import COLUMNS, ReportRow, from_csv, render, to_csv, to_json

__version__ = "0.1.0"
