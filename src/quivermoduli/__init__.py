"""Exact-arithmetic toolkit for quiver stability on the projective line.

Submodules: rational projective geometry (projline), wall-and-chamber
decompositions of the normalized weight polytopes with the vertex
projection and the enumeration cap (chambers), exact linear programming
(lp), point configurations and their stability (configs),
stable pointed trees and chains with their chart coordinates (curves),
seeded generators (generate), the verification suites (verify), JSON
serialization (serialize), and the command line (cli).
"""

from .chambers import (
    Chamber,
    HassettPolytope,
    PnWall,
    PnWeight,
    QnWall,
    QnWeight,
    StabPolytope,
    chamber_adjacency,
    chart_weight_pn,
    chart_weight_qn,
    classify_weight,
    cover_check,
    enumerate_chambers,
    enumerate_walls,
    interiors_intersect,
    polytope_contains,
    project_weight_to_pn,
    stability_polytope,
)
from .configs import (
    CoincidencePartition,
    GluedFiber,
    PnConfig,
    QnConfig,
    Verdict,
    brute_force_semistable,
    check_limit_equations,
    coincidence_partition,
    glue_fiber,
    is_semistable,
    map_config_qn2_pn,
    normalize_chart_pn,
    normalize_chart_qn,
    theta_polytope,
)
from .curves import (
    Chain,
    LimitFamily,
    PointedTree,
    TreeEdge,
    contract_gamma,
    contract_to_chart,
    is_a_stable,
    is_gk_stable,
    is_lm_stable,
    lm_moduli_coordinates,
    moduli_coordinates,
    reconstruct_tree,
    tree_isomorphic,
    verify_functor_conditions,
)
from .projline import (
    INF_POINT,
    Moebius,
    ONE_POINT,
    ProjPoint,
    ZERO_POINT,
    affine,
    cross_ratio,
    cross_ratio_invariant,
    moebius_from_triple,
    pp_eq,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
