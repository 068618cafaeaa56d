"""Symbolic dynamics at desk scale: languages, entropy, extender sets, and
measures of maximal entropy for one-dimensional subshifts, with strip
approximations for the plane."""

from .errors import (
    EmptySubshiftError,
    InvalidPositionError,
    InvalidWordError,
    NumericalError,
    ReduciblePresentationError,
    ReplacementBrokenError,
    ResourceLimitError,
    SpecFormatError,
    SymshiftError,
)
from .words import (
    BINARY,
    Alphabet,
    affix_flags,
    format_word,
    occurrences,
    parse_word,
    replace_seq,
    respects_transition_bounded,
    respects_transition_exact,
    self_overlaps,
    transition_oracle,
)
from .subshifts import (
    FullShift,
    SftShift,
    SGapSet,
    SGapShift,
    build_automaton,
    count_words,
    entropy,
    enumerate_words,
    is_i_hereditary_bounded,
    member,
    sgap_lambda,
    spec_from_dict,
    specification_distance_holds,
)
from .extender import (
    EQUAL,
    INCOMPARABLE,
    PROPER_SUBSET,
    PROPER_SUPERSET,
    extender_compare,
    extender_descriptor,
)
from .mme import (
    MeasureCertificate,
    mu_parry,
    parry,
    sgap_mu,
    sgap_mu1,
    sgap_mu_oracle,
)
from .grid2d import (
    Grid2dSpec,
    Pattern2D,
    check_gtheorem,
    f_sparse_check,
    hard_square,
    occurrences_2d,
    replace_sparse,
    replaceability_windowed,
    strip_mme_mu,
)
from .verify import VerificationReport, run_all

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
