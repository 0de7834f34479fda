"""Capacity planning for cellular networks that mix static base stations
with a relocatable fleet of mobile ones.

The toolkit answers two questions in sequence: how many stations per km^2
each region needs in each time slot to hold a per-bit delay target
(stochastic-geometry model plus a utilization fixed point), and what split
between permanent stations and a shared mobile fleet covers that demand at
minimum cost (a small LP). Savings are reported against an all-static
build. See the ``cli`` module or ``mbsplan --help`` for the command-line
surface.
"""

# Set before the submodule imports: pipeline reads it at import time.
__version__ = "0.1.0"

from .scenario import (RadioParams, Region, Scenario, ScenarioError, SchemaError,
                       ValidationError, default_config, default_scenario, load_scenario,
                       slot_midpoints_h, user_density_matrix)
from .qosmodel import (FixedPointDiverged, NonFinite, QosEvaluation, capacity,
                       delay_given_utilization, evaluate_qos, mc_delay_oracle,
                       mean_interference, overlap_area)
from .dimensioning import (BISECTION_REL_TOL, DEFAULT_DENSITY_CAP_PER_M2,
                           InfeasibleDemand, demand_matrix)
from .allocation import (TIE_BREAK_EPSILON, CostModel, DeploymentPlan, SavingsReport,
                         Violation, optimal_plan, peak_aggregate_demand, savings,
                         verify_plan)
from .pipeline import (SweepResult, ValidationCheck, ValidationReport, run_pipeline,
                       sweep_cost_ratio, sweep_density_ratio, validate, write_sweep_csv)

__all__ = [
    "__version__",
    # scenario
    "RadioParams", "Region", "Scenario", "ScenarioError", "SchemaError",
    "ValidationError", "default_config", "default_scenario", "load_scenario",
    "slot_midpoints_h", "user_density_matrix",
    # qos model
    "FixedPointDiverged", "NonFinite", "QosEvaluation", "capacity",
    "delay_given_utilization", "evaluate_qos", "mc_delay_oracle", "mean_interference",
    "overlap_area",
    # dimensioning
    "BISECTION_REL_TOL", "DEFAULT_DENSITY_CAP_PER_M2", "InfeasibleDemand",
    "demand_matrix",
    # allocation
    "TIE_BREAK_EPSILON", "CostModel", "DeploymentPlan", "SavingsReport",
    "Violation", "optimal_plan", "peak_aggregate_demand", "savings", "verify_plan",
    # pipeline / cli
    "SweepResult", "ValidationCheck", "ValidationReport", "run_pipeline",
    "sweep_cost_ratio", "sweep_density_ratio", "validate", "write_sweep_csv",
]
