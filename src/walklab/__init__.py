"""walklab: exact periodicity analysis of Grover walks on regular graphs
and feasible-spectrum enumeration for bipartite regular periodic graphs.

All arithmetic is exact (arbitrary-precision integers and rationals);
no floating point participates in any decision.
"""

from .exact import (
    Poly,
    QuadraticNumber,
    Spectrum,
    Unresolved,
    charpoly,
    cyclotomic,
    extract_spectrum,
    is_quadratic_algebraic_integer,
    min_poly_2cos,
    squarefree_part,
)
from .feasibility import (
    FeasibleRow,
    ThetaClass,
    all_rows,
    classify_four_eigenvalue,
    enumerate_rows,
    multiplicities,
    n_bounds,
    read_tables_csv,
    render_tables,
)
from .graphs import (
    Graph,
    GraphError,
    PartiteSplit,
    bipartite_double,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    count_quadrangles,
    cycle,
    hamming,
    hypercube,
    is_bipartite,
    is_connected,
    kronecker_product,
    line_graph,
    petersen,
    regularity,
    tensor_allones,
)
from .graphio import (
    from_edge_list,
    from_graph6,
    load,
    load_path,
    save_path,
    to_edge_list,
    to_graph6,
)
from .walk import (
    NotConnectedError,
    NotPeriodic,
    NotRegularError,
    Periodic,
    PeriodicityVerdict,
    QuadrangleReport,
    decide_periodic,
    eigenvalue_gate,
    hoffman_check,
    quadrangle_report,
    walk_regularity_check,
)

__version__ = "0.1.0"
