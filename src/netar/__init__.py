"""Time series on dynamic networks: simulation, estimation, forecasting."""

from .netdyn import (
    AdjacencySeries,
    FlipNetwork,
    MarkovEdgeNetwork,
    NeighborhoodFn,
    apply_neighborhood_fn,
    generate_density_matched_markov,
)
from .model import (
    InnovationSpec,
    LnarSpec,
    NarSpec,
    build_companion,
    check_stationarity_lnar,
    check_stationarity_nar,
    ma_infinity_coeffs,
    simulate_gnlp_truncated,
    simulate_lnar,
    simulate_nar,
)
from .moments import AcfEstimate, closed_form_flip_acf, mc_autocov, sample_acf
from .estimate import (
    ComponentFit,
    EstimationError,
    ModelFit,
    fit_component_ls,
    fit_lnar,
    fit_nar,
    fit_var,
    select_order_bic,
)
from .forecast import (
    ForecastSet,
    HoldLast,
    Known,
    PerEdgeMarkov,
    difference,
    forecast_h,
    forecast_network,
    integrate,
)
from .depmeas import CouplingRun, estimate_delta_network, estimate_delta_x

__version__ = "0.1.0"
