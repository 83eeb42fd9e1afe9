"""Controllability analysis and steering for bilinear formation control.

Agents move by weighted attraction along the edges of a directed graph;
the package decides when such a system is controllable, produces explicit
certificates, and plans controls. Submodules:

- digraph: graphs, strong component structure, transitive closure
- liealg: exact integer Lie algebra of zero row-sum matrices
- configspace: configurations, rank strata, charts, simplices
- larc: the rank condition at a configuration and witness bases
- dynamics: flows, simulation, steering, waypoint tracking
- cli: the formctl command line front end

The names imported below are the package's public API.
"""

from . import errors
from .configspace import (
    RANK_TOL,
    Configuration,
    ControllableSetMembership,
    StratumChart,
    configuration_rank,
    extend_simplex_with_point,
    find_nondegenerate_simplex,
    in_controllable_set,
    load_configuration,
    local_chart,
    sample_configuration,
)
from .digraph import (
    Digraph,
    ScdReport,
    StructuralKind,
    StructuralVerdict,
    coarse_scd,
    load_graph,
    structural_verdict,
    transitive_closure,
)
from .dynamics import (
    ControlSchedule,
    GraphSchedule,
    SteerOptions,
    SteerResult,
    TrackOptions,
    TrackResult,
    Trajectory,
    flow_constant,
    simulate,
    steer,
    track_path,
)
from .larc import (
    LarcReport,
    WitnessBasis,
    WitnessVector,
    construct_witness_basis,
    larc_passes,
    lie_algebra_at,
)
from .liealg import (
    EdgeGenerator,
    LieBasis,
    ZeroRowSumMatrix,
    bracket,
    edge_generators,
    lie_closure,
    span_contains,
    span_equal,
)
