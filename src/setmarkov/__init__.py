"""Markov processes indexed by finite set semilattices: construction,
simulation and executable consistency checks."""

__version__ = "0.1.0"

from .grid import CellMeasure, GroundGrid, measure_of
from .lattice import (
    ConsistentOrdering,
    DiscreteFlow,
    IndexedSet,
    LeftNeighbourhoods,
    Semilattice,
    close_under_intersection,
    default_ordering,
    embed_chain,
    enumerate_consistent_orderings,
    extremal_representation,
    flow_from_ordering,
    left_neighbourhoods,
    ordering_free_left_neighbourhood,
)
from .distributions import (
    BetaSegment,
    FinitePmf,
    NormalLaw,
    PointMass,
    binomial_pmf,
    tv_distance,
)
from .kernels import (
    CompoundPoissonKernel,
    DirichletKernel,
    EmpiricalKernel,
    GaussianIncrementKernel,
    PoissonIncrementKernel,
    ck_defect,
    compose_kernels,
    kernel_eval,
)
from .construction import (
    FddSpec,
    JointLaw,
    MixtureSpec,
    ProcessSample,
    evaluate_on_algebra,
    exact_fdd,
    joint_over_increments,
    sample_fdd,
    sample_increments,
)
