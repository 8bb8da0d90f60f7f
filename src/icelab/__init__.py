"""icelab: a laboratory for rotated-word hierarchies and rank-one structure.

The package builds symbolic words by cut-rotate-stack stages, studies the
resulting iceberg geometry and finite dynamics, measures correlation decay
and far-half simplicity diagnostics, evaluates Riesz-product spectra and
polynomial flatness, and certifies local rank through rectangle sweeps.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import ConfigurationError, ResourceRefusal
from .words import (
    Alphabet,
    BINARY,
    BINARY_SPACER,
    DNA,
    Schedule,
    Stage,
    Word,
    build_word,
    load_schedule,
    morse_schedule,
    random_schedule,
    rank_one_schedule,
    rotate,
    save_schedule,
    schedule_from_json,
    schedule_hash,
    schedule_to_json,
    tower,
    word_from_text,
)
from .iceberg import (
    BodyReport,
    Iceberg,
    JumpMatrix,
    body_lower_bound_counts,
    body_report,
    from_stage,
    jump_matrix,
    jump_uniformity_deviation,
    uniformity_deviation,
)
from .dynamics import (
    ProjectionChain,
    SPACER_MARK,
    StepResult,
    jump_positions,
    orbit_coding,
    project,
    project_all,
    project_positions,
    regular_indices,
    step,
    symbols_range,
)
from .correlation import (
    CorrelationSeries,
    DecayProfile,
    LevelFunction,
    SimplicityReport,
    StageDecay,
    correlation_at_lags,
    cyclic_correlation,
    decay_profile,
    lift,
    recursion_rhs,
    severed_copy_imbalance,
    signed_levels,
    simplicity_diagnostic,
)
from .spectral import (
    CircleGrid,
    FlatnessMetrics,
    FrequencySet,
    LineGrid,
    PolynomialGrid,
    RieszProduct,
    check_riesz_stages,
    direct_word_spectrum,
    eval_polynomial,
    exp_frequency_set,
    flatness_metrics,
    merit_factor,
    riesz_partial_product,
    stage_frequencies,
)
from .rank import (
    RectangleCertificate,
    best_subtower_rectangle,
    beta_morse,
    brute_force_rectangle,
    multiplicity_bound,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "ResourceRefusal",
    # words
    "Alphabet", "Word", "Stage", "Schedule",
    "BINARY", "BINARY_SPACER", "DNA",
    "word_from_text", "rotate", "build_word", "tower",
    "morse_schedule", "random_schedule", "rank_one_schedule",
    "schedule_to_json", "schedule_from_json", "schedule_hash",
    "save_schedule", "load_schedule",
    # iceberg
    "Iceberg", "JumpMatrix", "BodyReport",
    "from_stage", "uniformity_deviation",
    "jump_matrix", "jump_uniformity_deviation",
    "body_lower_bound_counts", "body_report",
    # dynamics
    "SPACER_MARK", "ProjectionChain", "StepResult",
    "project_positions", "project", "project_all", "step",
    "jump_positions", "regular_indices", "orbit_coding", "symbols_range",
    # correlation
    "LevelFunction", "CorrelationSeries", "StageDecay", "DecayProfile",
    "SimplicityReport",
    "lift", "cyclic_correlation", "correlation_at_lags", "recursion_rhs",
    "decay_profile", "signed_levels", "simplicity_diagnostic", "severed_copy_imbalance",
    # spectral
    "CircleGrid", "LineGrid", "FrequencySet", "PolynomialGrid", "RieszProduct",
    "FlatnessMetrics",
    "stage_frequencies", "exp_frequency_set", "eval_polynomial",
    "check_riesz_stages", "riesz_partial_product", "direct_word_spectrum", "flatness_metrics",
    "merit_factor",
    # rank
    "RectangleCertificate", "best_subtower_rectangle", "brute_force_rectangle",
    "beta_morse", "multiplicity_bound",
]
