"""Regularized matrix-factorization embeddings and their cosine-similarity
pathologies: closed-form solvers, the diagonal rescaling gauge, similarity
audits on simulated clustered data, and remedies."""

__version__ = "0.1.0"

from .errors import ConfigError, ZeroRowError, ZeroVarianceError
from .matrix_core import (BinaryRows, Spectrum, SvdFactors, cosine_of_rows,
                          normalize_rows, spectrum, svd)
from .mf_solvers import (EmbeddingPair, gradient_descent_oracle,
                         objective1_loss, objective2_loss, predicted_scores,
                         solve_objective1, solve_objective2)
from .rescale import (DiagonalScaling, RotationMatrix, apply_rotation,
                      apply_scaling, named_scaling, random_rotation)
from .similarity import (SimilarityMatrix, item_item, ranking_equal,
                         user_item, user_user)
from .synthgen import (GroundTruth, InteractionSample, SimConfig,
                       ground_truth_similarity, sample_ground_truth,
                       sample_interactions, user_item_probabilities)
from .analysis import (AuditReport, ClusterContrast, PlanEntry,
                       audit_full_rank, cluster_contrast,
                       compare_configurations)
from .remedies import (backprojected_item_cosine, backprojected_user_cosine,
                       standardize)
