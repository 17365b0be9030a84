"""Exact SYZ mirror-curve computations for toric Calabi-Yau threefolds.

Truncated formal power series over exact rationals, toric lattice
combinatorics, the quantum-corrected mirror curve uv = W, mirror maps
in both directions, Aganagic-Vafa brane mirror coordinates, and disc
invariants via multiple-cover inversion.
"""

from .errors import (
    BranchError,
    FixedPointDivergence,
    FrameEscape,
    FrameMismatch,
    InputError,
    MathDomainError,
    NonUnitSeries,
    SyzMirrorError,
    TruncationExceeded,
    ValidationError,
)
from .fps import (
    Frame,
    TruncatedSeries,
    boundary_derivative,
    exp_series,
    fixed_point_system,
    inverse,
    log_series,
    pow_int,
    substitute,
)
from .invariants import (
    InvariantTable,
    cover_sum,
    disc_potential,
    extract_open_gw,
    integrality_check,
    multiple_cover_inversion,
    verify_potential,
)
from .lattice import (
    AVGeometry,
    BraneSpec,
    ToricCYData,
    ValidationReport,
    av_geometry,
    charge_basis,
    closed_frame,
    dual_exponents,
    effective_charge_basis,
    gross_discriminant,
    validate_brane,
    validate_cy,
)
from .mirror import (
    BraneEquation,
    BraneFrame,
    BraneMirrorSeries,
    MirrorCurve,
    MirrorMapData,
    NaiveComparison,
    a_series,
    av_mirror_brane,
    brane_frame,
    build_curve,
    compare_naive,
    curve_in_brane_frame,
    evaluate_curve,
    fiber_open_gw,
    inverse_mirror_map,
    mirror_map,
    naive_brane,
    open_series,
    solve_curve_root,
)

__version__ = "0.1.0"
