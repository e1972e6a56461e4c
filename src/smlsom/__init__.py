"""Model-based clustering with automatic cluster-count selection.

A probabilistic self-organizing map (maximum-likelihood winner selection,
method-of-moments stochastic updates) combined with dynamic map shrinking:
KL-divergence link cutting and MDL-scored node deletion. Includes an
overlap-controlled Gaussian-mixture data generator and ARI/NMI metrics.
"""

from .core import (
    Assignment,
    Dataset,
    MapGraph,
    Schedule,
    lattice_graph,
    schedule_alphas,
    schedule_radii,
)
from .datagen import STRUCTURES, MixtureSpec, calibrate_overlap, overlap_mc, random_mixture, sample_mixture
from .driver import (
    CycleRecord,
    FitConfig,
    FitResult,
    default_radius,
    init_params,
    pca_init,
    smlsom_fit,
    smlsom_fit_restarts,
)
from .errors import CalibrationError, DataError, SingularModelError, SmlsomError
from .gaussian import (
    GaussianFamily,
    GaussParams,
    gauss_batch,
    gauss_df,
    gauss_loglik_rows,
)
from .io import (
    load_faithful,
    load_model,
    read_dataset,
    save_model,
    write_dataset,
)
from .metrics import ari, nmi
from .mlsom import classify, loglik_matrix, mlsom_train
from .multinomial import (
    MultinomialFamily,
    MultinomParams,
    multinom_batch,
    multinom_df,
)
from .structure import MdlScore, cut_weak_links, kl_estimate, mdl_score, try_delete_node

__version__ = "0.1.0"
