"""Continuous-measurement atomic magnetometry toolkit.

Simulates conditional spin trajectories under continuous QND
observation, runs the matching Kalman filter and a line-fit baseline
over the measurement records, and checks the resulting field
sensitivity against closed-form covariance predictions, including the
1/J scaling regime.
"""

__version__ = "0.1.0"

from .core import (
    INFINITE,
    PhysicalParams,
    TimeGrid,
    gamma_from_cycles,
    larmor_frequency,
    make_grid,
    t2_bound,
    validate_params,
)
from .dynamics import (
    TrajectoryRecord,
    conditional_variance,
    lowpass_filter,
    reconstruct_noise,
    simulate_trajectory,
)
from .estimators import (
    RiccatiSolution,
    ThresholdCurve,
    detection_threshold_asymptotic,
    kalman_schedule,
    riccati_analytic,
    riccati_integrate,
    shotnoise_limit,
)
from .montecarlo import (
    EnsembleSpec,
    EnsembleStats,
    run_ensemble,
    scaling_study,
)
from .rng import SeedSpec, substream
from .sme_oracle import (
    SpinOperators,
    build_spin_operators,
    coherent_spin_state_x,
    compare_to_gaussian,
    oracle_moments,
    sme_step,
)
