"""Day-ahead hourly pricing for thermostatic demand response.

The package models consumers whose HVAC load responds to hourly retail
prices, derives the population's affine demand curve in closed form, and
builds on it: surplus/profit trade-off pricing, benchmark tariffs,
renewable-aware pricing, consumer battery arbitrage, and a Monte Carlo
simulator that validates the analytics.  See the README for the CLI.
"""

__version__ = "0.1.0"

from .demand import (
    HOURS_PER_DAY,
    AffineDemandModel,
    Population,
    aggregate,
    build_consumer_model,
    population_model,
)
from .errors import (
    ConfigError,
    DahpError,
    DataError,
    IndefiniteMatrixError,
    InfeasibleConstraintError,
    NonConvergenceError,
    NumericalError,
)
from .pricing import (
    Trace,
    WholesaleCost,
    benchmark_trace,
    expected_cs,
    expected_rp,
    optimal_price,
    pareto_front,
    profit_upper_bound,
)
from .renewable import (
    BenefitSplit,
    RenewableModel,
    benefit_split,
    expected_rp_renewable,
    optimal_price_renewable,
)
from .renewable import uniform_shortfall_expectation
from .simulate import (
    simulate_population_day,
    simulate_population_days,
    substream,
)
from .storage import (
    ArbitragePlan,
    BatteryParams,
    StoragePricingResult,
    arbitrage,
    optimize_price_with_storage,
)

__all__ = [
    "HOURS_PER_DAY",
    "__version__",
    # demand
    "AffineDemandModel",
    "Population",
    "aggregate",
    "build_consumer_model",
    "population_model",
    # pricing
    "Trace",
    "WholesaleCost",
    "benchmark_trace",
    "expected_cs",
    "expected_rp",
    "optimal_price",
    "pareto_front",
    "profit_upper_bound",
    # renewable
    "BenefitSplit",
    "RenewableModel",
    "benefit_split",
    "expected_rp_renewable",
    "optimal_price_renewable",
    "uniform_shortfall_expectation",
    # simulation
    "simulate_population_day",
    "simulate_population_days",
    "substream",
    # storage
    "ArbitragePlan",
    "BatteryParams",
    "StoragePricingResult",
    "arbitrage",
    "optimize_price_with_storage",
    # errors
    "ConfigError",
    "DahpError",
    "DataError",
    "IndefiniteMatrixError",
    "InfeasibleConstraintError",
    "NonConvergenceError",
    "NumericalError",
]
