"""qglab: spectral laboratory for quantum graphs.

Compute eigenvalues and eigenfunctions of ``-alpha d^2/dx^2 + V`` on finite
metric graphs with Kirchhoff vertex conditions, and test the spectral
inequalities (quadratic sum rules, moment quotients, Riesz-mean and
counting bounds) whose validity depends on the graph's topology.
"""

from .graphs import (
    DIRICHLET,
    NEUMANN,
    ZERO,
    Edge,
    GraphFormatError,
    InvalidGraphError,
    MetricGraph,
    PoschlTeller,
    Sampled,
    SquareWell,
    TopologyClass,
    Zero,
    classify_topology,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
    scale_graph,
    validate,
)
from .fem import (
    AssembledSystem,
    Mesh,
    Spectrum,
    assemble,
    build_mesh,
    solve_graph,
    solve_spectrum,
)

__version__ = "0.1.0"
