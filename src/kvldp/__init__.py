"""Locally differentially private key-value data collection and analysis."""

from .core import (
    CapacityError,
    DiscretizedState,
    DomainError,
    IllConditionedError,
    PrivacyBudget,
    RandomSource,
    flip_keep_probability,
)
from .mechanisms import (
    Mechanism,
    Report,
    report_size_bits,
    theoretical_bound,
)
from .conditional import (
    AggregateVector,
    Condition,
    conditional_frequency,
    conditional_mean,
    frequency_count,
    frequency_index_set,
    mean_index_sets,
)
from .datagen import (
    Dataset,
    GroundTruth,
    gen_regime,
    gen_synthetic,
    ingest_ratings,
    load_dataset,
    save_dataset,
    true_conditional,
    true_stats,
)
from .harness import (
    ExperimentConfig,
    MetricRow,
    default_value_study,
    emit,
    run_conditional,
    run_single,
    run_sweep,
    summarize,
)

__version__ = "0.1.0"
