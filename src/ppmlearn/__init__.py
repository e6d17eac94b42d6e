"""Differentially private halfspace learning from mixed private/public
samples: public-data halfspace families, exponential-mechanism selection
over intersection hypotheses, exact DP auditing, bound calculators, and a
seeded experiment harness."""

from .bounds import (
    BoundReport,
    agnostic_sample_bound,
    compression_bound,
    mechanism_utility_bound,
    realizable_sample_bound,
)
from .data import (
    CsvFormatError,
    GeneratorSpec,
    generate,
    generate_holdout,
    read_csv,
    write_csv,
)
from .geometry import (
    AffineSubspace,
    DimensionMismatch,
    Halfspace,
    HellyWitness,
    affine_span,
    helly_witness,
    hull_facet_halfspaces,
    region_feasible,
    supporting_hyperplanes,
)
from .erm import erm_halfspace
from .learner import (
    EMPTY_REGION,
    BudgetExceededError,
    HalfspaceFamily,
    IntersectionHypothesis,
    LearnResult,
    all_mistake_counts,
    best_in_class,
    class_cardinality,
    construct_halfspace_family,
    default_pool_cap,
    hypothesis_error,
    learn_half,
    predict_many,
    unrank_hypothesis,
)
from .mechanism import MechanismDistribution, mechanism_distribution
from .model import (
    EmptySampleError,
    ErrorCount,
    LabeledSample,
    PPMDataset,
    empirical_error,
    partition,
)
from .privacy import (
    DPAuditReport,
    IllegalNeighborError,
    replace_entry,
    verify_dp,
)
from .experiments import (
    SweepConfig,
    SweepSummary,
    TrialRecord,
    format_summary,
    read_records_csv,
    run_sweep,
    summarize,
    write_records_csv,
)

__version__ = "0.1.0"
