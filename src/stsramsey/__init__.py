"""Steiner triple systems: constructions, exact Ramsey-type parameters with
certificates, explicit colorings, and seeded random processes."""

from .core import (
    BadK,
    BadM,
    BadOrder,
    BudgetExhausted,
    ComponentSet,
    DuplicateTriple,
    EdgeColoring,
    EmptyClass,
    HoleCertificate,
    InvalidHole,
    MalformedCertificate,
    MissingLabels,
    MonochromaticTriple,
    PairMulticovered,
    PairUncovered,
    RainbowTriple,
    RestartsExhausted,
    StsError,
    Triple,
    TripleSystem,
    VertexOutOfRange,
    build_system,
    is_steiner,
    largest_mono_component,
    mono_components,
    validate_steiner,
    verify_hole,
)
from .constructions import (
    bose,
    fano,
    infer_labels,
    s9,
    skolem,
)
from .search import (
    BudgetSpent,
    ParamResult,
    SearchBudget,
    alpha_star,
    independence_number,
    mc_exact,
)
from .colorings import (
    Bicoloring,
    BoundsRecord,
    CdrTerm,
    CheckResult,
    DecompositionResult,
    bicoloring_search,
    bicoloring_to_bound,
    bose_coloring,
    cdr_sequence,
    closed_form_bounds,
    decompose_3coloring,
    hole_coloring,
    skolem_coloring,
    verify_bicoloring,
    verify_decomposition,
    verify_z2_range,
)
from .randomized import (
    ExperimentRow,
    ProcessOutcome,
    binomial_3graph,
    derive_seed,
    experiment_discrepancy,
    linearize,
    random_sts,
    triangle_removal,
)

__version__ = "0.1.0"
