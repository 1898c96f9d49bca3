"""Efficient (j,k)-dominating functions on regular graphs.

A function f: V -> {0..j} is efficiently (j,k)-dominating when every
closed neighborhood sums to exactly k.  The package verifies such
functions, decides existence through the eigenvalue -1 of the adjacency
matrix, constructs them on Hamming graphs H(q,d) from Hamming codes and
coset covers, and searches small graphs exhaustively.  All arithmetic is
exact; floating point appears only in modular matrix products whose sums
stay below 2^53, where it is exact.
"""

from .domination import (
    DominatingFunction,
    VerificationReport,
    complement_dual,
    divisibility_feasible,
    two_cell_partition_check,
    value_bound_holds,
    verify_dominating,
    verify_efficient,
)
from .fields import GF
from .graphs import (
    DEFAULT_SIZE_CAP,
    Graph,
    SizeCapExceeded,
    cayley_graph,
    closed_neighborhood_sum,
    complete,
    complete_bipartite,
    cycle,
    folded_cube,
    hamming_graph,
    vertex_rank,
    vertex_tuple,
)
from .hamming import (
    AuditFailure,
    BasisAudit,
    CodeSubspace,
    FeasibilityProfile,
    InfeasibleK,
    LabelPlan,
    MCoverPlan,
    basis_audit,
    build_plan,
    construct_function,
    feasibility,
    hamming_code,
    verify_plan,
)
from .partitions import (
    CoverCertificate,
    canonical_cells,
    cells_from_labels,
    characteristic_matrix,
    charpoly_divides_graph,
    dominatable_eigen_check,
    function_from_dominatable,
    is_dominatable,
    lift,
    push,
    translate_cover,
    verify_cover,
    verify_kcover,
)
from .search import (
    NodeLimitExceeded,
    SearchConfig,
    SearchOutcome,
    enumerate_efficient,
    exists_efficient,
    k_spectrum,
)
from .spectral import MinusOneReport, function_from_eigenvector, minus_one_multiplicity

__version__ = "0.1.0"
