"""Learning Gaussian mixtures by Poissonizing them into noisy ICA.

The package turns mixture samples into an underdetermined ICA instance
(Poisson repetition counts, lifted coordinates, variance-balancing noise),
estimates flattened higher-order cumulant tensors in one streaming pass,
and reads the mixture means and weights off a simultaneous
diagonalization.  Companion experiment modules measure smoothed
Khatri-Rao conditioning and construct close mixture pairs that certify
the problem's conditioning is information-theoretically necessary.
"""

from .cumulants import (
    FlatCumulant,
    MomentAccumulator,
    analytic_ica_cumulant,
    assemble_flat_cumulant,
    empirical_cumulant,
    joint_cumulant,
    raw_moments_to_cumulants,
)
from .distributions import (
    GmmParams,
    SeededRng,
    certified_tail_threshold,
    empirical_poisson_tv,
    gmm_pdf,
    poisson_moment,
    poisson_pmf,
    poisson_tail_threshold,
    sample_gmm,
    stirling2,
    truncated_poisson_tv,
)
from .gmm_learner import (
    FeasibilityError,
    LearnReport,
    MeanBounds,
    derive_bounds,
    evaluate_recovery,
    learn_means,
    learn_means_oracle,
    lifted_conditioning,
    recover_weights,
)
from .ica import (
    DegenerateModelError,
    IcaEstimate,
    IllConditionedError,
    align_columns,
    estimate_cumulant_pair,
    recover_from_cumulants,
)
from .lowdim_hardness import (
    DegeneratePairError,
    KernelConditioningError,
    MixturePair,
    PointSet,
    SignedMixture,
    build_close_pair,
    compute_fill,
    embed_as_ica,
    equispaced_interleaved,
    interpolate,
    kernel,
    l1_distance,
    pair_from_json,
    pair_to_json,
    pigeonhole_pair,
    random_points,
    target_f,
)
from .poissonization import (
    IcaModel,
    MixtureSource,
    ReductionParams,
    SubroutineFailure,
    build_lifted_model,
    compute_reduction_params,
    poisson_split,
    sample_approx_ica_batch,
    tv_gap,
)
from .smoothed_analysis import (
    FAMILIES,
    SmoothedTrial,
    anticoncentration_estimate,
    base_matrix,
    run_smoothed,
    rv_check,
    smoothed_trial,
)
from .records import (
    TrialRecord,
    format_value,
    write_records,
    write_summary,
)
from .tensor_linalg import (
    khatri_rao,
    khatri_rao_power,
    multilinear_kr_square,
    pseudo_inverse,
    rank1_deflatten,
    sigma_min,
)

__version__ = "0.1.0"
