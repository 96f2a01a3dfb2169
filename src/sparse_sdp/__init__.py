"""Sparse semidefinite programming via decoupled primal-dual potential
reduction over partial primal matrices with max-determinant completions."""

from .chordal import CliqueSequence, maximal_cliques, rip_order, verify_peo
from .completion import (CompletionFactors, banded_pattern, completion_factors,
                         completion_inverse, completion_vectors,
                         logdet_completion, logdet_completion_banded,
                         reconstruct_dense)
from .errors import (InfeasibleStart, IterationLimit, NoDecrease, NotChordal,
                     NotCompletable, NotPositiveDefinite, RipFailure,
                     SdpaParseError, SparseSdpError, TooManyEdges)
from .logdet import hess_vec, sparse_inverse
from .maxcut import (CutResult, Graph, cut_value, hyperplane_rounding,
                     initial_point, maxcut_sdp, random_graph, read_graph,
                     solve_maxcut, write_graph)
from .problem import SdpProblem
from .sdpa import read_sdpa, write_sdpa
from .solver import (CgResult, Direction, IterateState, SolverConfig,
                     SolverReport, conjugate_gradient, dual_direction,
                     potential_minimize, primal_direction, solve)
from .sparsemat import (CholeskyFactor, EliminationOrdering, SparseSymMatrix,
                        SparseSymPattern, cholesky_factorize, inner_product,
                        min_degree_ordering, symbolic_factorize)

__version__ = "0.1.0"
