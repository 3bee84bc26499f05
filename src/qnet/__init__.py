"""Discrete-event and fluid-model analysis of multiclass queueing networks
with threshold-based ingress discarding."""

from .distributions import DistributionSpec, RenewalStream, make_streams
from .network import (
    SWITCH,
    NetworkSpec,
    ValidationReport,
    build_network,
    offered_load,
    switch_example_spec,
    tandem_spec,
    validate,
)
from .des import SimTrace, Simulation, run, scaled_trajectory
from .fluid import (
    FluidState,
    FluidTrajectory,
    RateVector,
    departure_rates_at,
    integrate,
    solve_rates,
)
from .absorption import (
    EquilibriumSet,
    SamplePlan,
    SamplePoint,
    distance,
    switch_equilibrium_set,
    switch_tilde_set,
    tandem_point_set,
    tandem_tilde_set,
    tandem_wedge_set,
    verify_C1,
    verify_C2,
)
from .experiments import (
    ExperimentPlan,
    RateTable,
    compare_to_fluid,
    run_sweep,
)

__version__ = "0.1.0"
