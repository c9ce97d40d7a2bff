"""Exact v-numbers of binomial edge ideals of small graphs."""

__version__ = "0.1.0"

from .errors import (
    DEFAULT_LIMITS,
    GraphFormatError,
    Limits,
    NoTransversalError,
    PreconditionError,
    ResourceLimitError,
    VnumError,
)
from .graphs import (
    CutRecord,
    Graph,
    complete_graph,
    connected_components,
    enumerate_min_cuts,
    format_graph,
    gamma_c,
    gamma_c_pair,
    induced_subgraph,
    is_connected_dominating,
    is_minimal_kcut,
    parse_graph,
    path_graph,
)
from .poly import (
    MonomialOrder,
    Polynomial,
    edge_binomial,
    poly_from_text,
    poly_to_text,
    x_poly,
    y_poly,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    is_groebner_basis,
    normal_form,
    s_polynomial,
)
from .idealops import (
    NoNewElementError,
    colon_ideal,
    colon_poly,
    initial_ideal,
    intersect,
    min_new_degree,
)
from .matroids import (
    RankTwoMatroid,
    Transversal,
    TransversalFamily,
    delta_family,
    matroid_of_cut,
    min_transversal_weight,
    small_dependent_diff,
)
from .edgeideals import (
    PrimeResult,
    VNumberReport,
    admissible_path_basis,
    check_colon_equals_prime,
    edge_ideal_gens,
    oracle_vnumber_at_prime,
    prime_component,
    vnumber,
    vnumber_at_prime,
)
from .cycles import (
    CycleReport,
    IntervalDecomposition,
    SigmaCertificate,
    cut_polynomial,
    cycle_graph,
    cycle_transversal_ideal,
    global_bounds,
    intervals,
    localized_bounds,
    s_consistent_permutation,
    verify_cycle,
)
