"""Spectral clustering via biased phase estimation, at statevector level.

The package pairs a quantum pipeline (phase estimation with a biased phase
register, amplitude amplification, similarity readout) with the classical
spectral clustering oracle it is validated against.
"""

from .classical import (
    ClusterAssignment,
    IndicatorVector,
    eigengap_select,
    indicators_from_labels,
    kmeans,
    projector_target,
    spectral_cluster,
    trace_objective,
)
from .encoding import (
    EvolutionOperator,
    HouseholderSum,
    gate_count_estimate,
    gram_matrix,
    householder_decompose,
    make_evolution,
    points_gram,
)
from .errors import ConvergenceError, DegenerateTargetError, PhaseResolutionError
from .graph import (
    SimilarityGraph,
    build_epsilon_graph,
    build_full_graph,
    build_knn_graph,
    connected_components,
    degree_matrix,
    laplacian,
    load_points_csv,
    normalized_laplacian,
)
from .numerics import hermitian_eig, matrix_1norm, proj_reflection
from .qpea import (
    PeaConfig,
    Trajectory,
    amplify,
    amplify_many,
    bias_reflection,
    bias_vector,
    marking_vector,
    phase_estimation,
    stagnation_kappa,
    success_probability,
)
from .readout import (
    SimilarityReport,
    cluster_quantum,
    direct_similarity,
    householder_similarity,
    rank_indicators,
    register_similarity,
    x_sum_exponential,
)
from .registers import RegisterState

__version__ = "0.1.0"
