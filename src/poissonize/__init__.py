"""Learning Gaussian mixtures by Poissonizing them into noisy ICA.

The package turns mixture samples into an underdetermined ICA instance
(Poisson repetition counts, lifted coordinates, variance-balancing noise),
estimates flattened higher-order cumulant tensors in one streaming pass,
and reads the mixture means and weights off a simultaneous
diagonalization.  Companion experiment modules measure smoothed
Khatri-Rao conditioning and construct close mixture pairs that certify
the problem's conditioning is information-theoretically necessary.

The package level exports only the names of the README quick start and the
acceptance battery; everything else is imported from its module.
"""

from .cumulants import analytic_ica_cumulant, empirical_cumulant
from .distributions import (
    GmmParams,
    SeededRng,
    empirical_poisson_tv,
    truncated_poisson_tv,
)
from .gmm_learner import derive_bounds, learn_means, recover_weights
from .ica import align_columns, recover_from_cumulants
from .lowdim_hardness import (
    build_close_pair,
    embed_as_ica,
    equispaced_interleaved,
    pigeonhole_pair,
    random_points,
)
from .poissonization import poisson_split, sample_approx_ica_batch
from .smoothed_analysis import FAMILIES, run_smoothed, rv_check
from .tensor_linalg import khatri_rao_power, sigma_min

__version__ = "0.1.0"
