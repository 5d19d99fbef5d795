"""Chip-firing and rotor-routing games on directed multigraphs.

Decides reachability, recurrence, linear equivalence and halting,
with exact arbitrary-precision integer linear algebra over the
graph Laplacian (one walk over the strongly connected components,
sources first: O(n + runs) on single vertices, and one fraction-free
Bareiss elimination per other component, updating only the rows each
pivot reaches, O(|C|^2) on a cycle and O(|C|^3) under dense fill, on
numbers of at most twice the bit length of its Hadamard bound) and
run-length-encoded ribbon structures whose routing arithmetic is
polynomial in bit length.  Every decision procedure has an independent
brute-force oracle; the sweeps compare them wholesale.
"""

from .errors import BudgetExceededError, InstanceFormatError
from .multigraph import (
    DirectedMultigraph,
    SccDecomposition,
    is_strongly_connected,
    scc_decompose,
)
from .intlinalg import (
    PeriodBasis,
    is_reduced,
    nonneg_reduced_solution,
    period_basis,
    primitive_period_vector,
    reduce_vector,
)
from .chipfiring import (
    BoundedChipResult,
    ChipGameTrace,
    ChipReachVerdict,
    HaltingVerdict,
    bounded_chip_game,
    fire,
    halts,
    is_legal_fire,
    is_recurrent,
    is_recurrent_via_reach,
    lin_equiv,
    reach_chip,
    validate_legal_firing_sequence,
    verify_nonhalting_certificate,
)
from .rotorrouting import (
    BoundedRotorResult,
    ChipRotorConfig,
    RibbonStructure,
    RotorGameTrace,
    RotorReachVerdict,
    bounded_rotor_game,
    default_ribbon,
    is_legal_route,
    odometer_equals_bound,
    pi_r,
    reach_rotor,
    reachability_sets,
    route,
    route_many,
    unconstrained_reach,
    validate_legal_routing_sequence,
)
from .instancefile import Instance, parse_instance, serialize_instance
from .generators import gen_graph, gen_instance, random_ribbon

__all__ = [
    "BudgetExceededError",
    "InstanceFormatError",
    "DirectedMultigraph",
    "SccDecomposition",
    "is_strongly_connected",
    "scc_decompose",
    "PeriodBasis",
    "is_reduced",
    "nonneg_reduced_solution",
    "period_basis",
    "primitive_period_vector",
    "reduce_vector",
    "BoundedChipResult",
    "ChipGameTrace",
    "ChipReachVerdict",
    "HaltingVerdict",
    "bounded_chip_game",
    "fire",
    "halts",
    "is_legal_fire",
    "is_recurrent",
    "is_recurrent_via_reach",
    "lin_equiv",
    "reach_chip",
    "validate_legal_firing_sequence",
    "verify_nonhalting_certificate",
    "BoundedRotorResult",
    "ChipRotorConfig",
    "RibbonStructure",
    "RotorGameTrace",
    "RotorReachVerdict",
    "bounded_rotor_game",
    "default_ribbon",
    "is_legal_route",
    "odometer_equals_bound",
    "pi_r",
    "reach_rotor",
    "reachability_sets",
    "route",
    "route_many",
    "unconstrained_reach",
    "validate_legal_routing_sequence",
    "Instance",
    "parse_instance",
    "serialize_instance",
    "gen_graph",
    "gen_instance",
    "random_ribbon",
]
