"""primchaos: exact constructive topology for primitive chaos.

Cantor sets built inside Peano continuum models, decomposition (quotient)
topologies computed exactly on finite spaces, constrained continuous
surjections from the Cantor set onto continua, and witness/certificate
computations for concrete primitive-chaos systems — all over exact rational
arithmetic.
"""

from .chaos import (
    ChaosSystem,
    PeriodicOrbit,
    WitnessResult,
    dense_orbit_word,
    make_system,
    periodic_point,
    realize_witness,
    sensitivity_check,
    transitivity_check,
    verify_dense_orbit,
    word_enclosure,
)
from .embedding import (
    PeanoModel,
    RefinementTree,
    build_refinement,
    check_stage_invariants,
    evaluate_address,
    make_model,
    subdivide,
    tree_document,
)
from .errors import (
    ConstructionError,
    DegenerateInputError,
    InputError,
)
from .fintop import (
    FiniteMap,
    FiniteTopSpace,
    Partition,
    decomposition_topology,
    discrete_space,
    fiber_partition,
    finite_map,
    is_continuous,
    is_hausdorff,
    is_homeomorphism,
    is_topology,
    named_space,
    partition,
    space,
    verify_lemma7,
    verify_prop5,
)
from .geometry import (
    Box,
    Point,
    Region,
    binary_word,
    cylinder,
    diameter,
    distance,
    eval_ternary_address,
    rat,
    region,
)
from .report import CheckItem, CheckReport
from .surject import (
    CantorMap,
    ClopenBlock,
    WaypointMap,
    binary_expansion_map,
    block_surjection,
    clopen_partition,
    evaluate_map,
    evaluate_waypoint,
    evaluate_waypoint_exact,
    hilbert_enclosure,
    interleave_map,
    verify_block_surjection,
    verify_cover_map,
    verify_curve,
    verify_waypoint_surjection,
    waypoint_map,
    waypoint_surjection,
)

__version__ = "0.1.0"
