"""Sunflower machinery for k-uniform set families.

Detection and certification (sunflowers, spread), extremal transversal
constructions, exact and Monte Carlo hit probabilities, randomized
sunflower extraction, and exhaustive small sunflower numbers.
"""

__version__ = "0.1.0"

from .constructions import (
    BlockPartition,
    block_product_family,
    erdos_rado_family,
    exact_block_hit_probability,
    in_tightness_regime,
)
from .extraction import (
    ExtractionParams,
    ExtractionTrace,
    LinkCase,
    SpreadCase,
    brute_force_sunflower,
    extract_sunflower,
    generalized_disjoint_search,
    r_threshold,
)
from .families import (
    SetFamily,
    Sunflower,
    family_from_dict,
    family_to_dict,
    find_disjoint_sets,
    is_sunflower,
    link,
    load_family,
    save_family,
)
from .probability import (
    HitEstimate,
    PartitionStats,
    check_chernoff_tail,
    check_fixed_size_decomposition,
    check_partition_mean_identity,
    exact_hit_probability,
    hit_threshold_sweep,
    mc_block_hit_probability,
    mc_hit_probability,
    partition_experiment,
)
from .rng import DEFAULT_SEED
from .spread import SpreadReport, SpreadViolation, spread_witness, spreadness, superset_count
from .sunvalues import (
    SunValue,
    contains_sunflower,
    erdos_rado_upper_bound,
    max_sunflower_free,
    sun_value,
    verify_sunflower_free,
)
