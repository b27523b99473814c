"""Deterministic simulator and analysis library for energy-efficient
cluster-based routing in wireless sensor networks."""

from .bat import BatParams, BatSwarm, optimize_thresholds
from .config import ConfigError, NetworkConfig, load_network_config
from .experiments import (
    ExperimentSpec,
    analytic_energy_grid,
    grid_argmin,
    load_experiment_spec,
    run_experiment,
    simulated_energy_grid,
    summarize_lifetime,
)
from .fcm import fuzzy_c_means
from .network import Protocol
from .otsu import (
    AngleHistogram,
    ObjectiveWeights,
    ThresholdSet,
    build_histogram,
    evaluate_threshold_sets,
    exhaustive_best_threshold,
    materialize_clusters,
)
from .radio import (
    RadioParams,
    aggregation_energy,
    distance_threshold,
    rx_energy,
    tx_energy,
)
from .selection import ElectionTerms, Grouping, SelectionWeights, distance_to_ring, \
    select_cluster_heads
from .simulation import (
    LifetimeSummary,
    RoundMetrics,
    Simulation,
    deploy,
    run_simulation,
)
from .theory import (
    AreaSpec,
    expected_sq_member_distance,
    feasible_ch_band,
    free_space_radius_limit,
    optimal_ch_distance,
    optimal_cluster_count,
    optimal_plan,
    predicted_round_energy,
    sector_coverage_violations,
    wedge_sq_distance_mc,
)

__version__ = "0.1.0"
