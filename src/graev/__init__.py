"""Exact Graev metrics on free groups over finitely supported Baire-space
points, scale-based norm bounds with certificates, and verification suites
for the structural facts the construction rests on."""

from .errors import ResourceLimitError
from .freegroup import (
    IDENTITY,
    IDENTITY_WORD,
    Letter,
    Point,
    Rat,
    ReducedWord,
    Word,
    WordSyntaxError,
    format_rat,
    format_word,
    invert,
    is_reduced,
    letter_distance,
    multiply,
    neg,
    parse_word,
    pos,
    reduce_word,
    word,
)
from .graevmetric import (
    NormResult,
    graev_bidistance,
    graev_distance,
    graev_norm_bruteforce,
    graev_norm_dp,
)
from .matching import (
    DEFAULT_MATCH_CAP,
    Match,
    apply_match,
    count_matches,
    enumerate_matches,
    enumeration_cap,
    is_match,
    rho,
)
from .reports import CheckCase, VerificationReport
from .scales import (
    BoundedNorm,
    Scale,
    TRIVIAL_SCALE,
    check_scale_axioms,
    conjugation_witness,
    load_scale_file,
    norm_bounds,
    norm_theta,
    norm_theta_min,
    scale_distance_bounds,
    weighted_scale,
)
from .tower import (
    check_discreteness,
    check_extension_conditions,
    check_lipschitz,
    check_lipschitz_distance,
    check_lipschitz_witness,
    project_letter,
    project_point,
    project_word,
    separating_level,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
