"""pinnet: pinning-controllability analysis of coupled oscillator networks.

Capabilities: graph Laplacian spectra and incidence factorizations, bordered
(arrow) matrix eigenvalue bounds, closed-form pinning certificates and gain
thresholds, budgeted pinned-node selection, and RK4 simulation of the error
dynamics with an empirical Lyapunov-decay check.
"""

from .bounds import (
    ArrowMatrix,
    BoundKind,
    BoundReport,
    assemble_arrow,
    lili_lower_max,
    lili_term,
    lili_upper_max,
    mathias_lower,
    smallest_nonzero_lower,
    weyl_lower,
)
from .criteria import (
    CriterionReport,
    PinnedSystemSpec,
    evaluate,
    iterative_bound,
    kappa_threshold,
    pinned_operator,
    rhs_threshold,
    sigma_lambda_min_gt0,
)
from .dynamics import (
    DecayReport,
    LinearDynamics,
    NodeDynamics,
    ScalarSaturatedDynamics,
    SimConfig,
    Trajectory,
    check_decay,
    simulate,
    trajectory_summary,
    write_trajectory_csv,
)
from .errors import (
    CombinatorialGuardError,
    DegenerateGapError,
    GraphParseError,
    NoNonzeroEigenvalueError,
    NotPSDError,
    NumericalError,
    PinnetError,
    PreconditionError,
    ThresholdUndefinedError,
    ValidationError,
)
from .graphs import (
    Graph,
    IncidenceMatrix,
    complete_graph,
    connected_components,
    cycle_graph,
    degrees,
    disjoint_union,
    erdos_renyi,
    incidence,
    is_connected,
    laplacian,
    parse_edge_list,
    path_graph,
    star_graph,
    to_edge_list,
)
from .selection import (
    DEGREE,
    EXHAUSTIVE,
    GREEDY,
    SelectionResult,
    degree_select,
    evaluate_pinning,
    exhaustive_select,
    greedy_select,
)
from .spectral import (
    Spectrum,
    SymMatrix,
    as_sym_matrix,
    default_rank_tol,
    eig_sym,
    eig_values,
    lambda_max,
    lambda_min,
    lambda_min_gt0,
    spectral_norm,
)

__version__ = "0.1.0"
