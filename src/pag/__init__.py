"""Exact-arithmetic analysis of power allocation games on relation graphs.

Countries split exact rational power across reserve, friend support, and
offense against adversaries; a country survives when its total support is
at least its total threat.  The package evaluates allocations, verifies
Nash equilibria under lexicographic survival preferences, constructs the
equilibria the theory guarantees, checks environment-level survival
conditions, and cross-validates everything on small instances with an
exhaustive grid oracle.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    CoverReport,
    Domination,
    Protectorate,
    SurvivalVerdict,
    TopologyError,
    adversary_bipartition,
    balancing_exists,
    bipartite_safe_necessary,
    bipartite_safe_sufficient,
    check_clique_defense,
    check_group_balance,
    domination,
    dp_cover,
    is_complete_adversary_graph,
    protectorate,
)
from .constructors import (
    ConditionNotMet,
    ConstructionFailed,
    InfeasiblePower,
    PreconditionViolated,
    balancing_equilibrium,
    bipartite_safe_equilibrium,
    pairwise_annihilation,
    sole_survivor_equilibrium,
    symmetric_row_sum_matrix,
)
from .equilibrium import (
    Deviation,
    NashResult,
    best_deviation,
    is_nash,
)
from .model import (
    Environment,
    Matrix,
    State,
    ValidationError,
    make_environment,
    matrix_from_entries,
    replace_row,
    sigma_tau,
    state_vector,
    to_fraction,
    validate_allocation,
    validate_environment,
)
from .oracle import (
    EmptyAtlas,
    EnumerationTooLarge,
    EquilibriumAtlas,
    EquilibriumClass,
    GridSpec,
    SurvivalPossibility,
    candidate_count,
    find_equilibria,
    survival_possibility,
)

# Every name imported above, but not the submodules the imports bind.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
