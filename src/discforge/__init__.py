"""Online discrepancy balancing via a rank-r Gaussian fixed-point walk,
evaluators for combinatorial, vector, spherical, and Gaussian discrepancy,
and rounding-failure experiments for planted correlation couplings."""

from . import errors
from .chilaw import ChiLaw, RatioCheck, chi_cdf, chi_density, ratio_condition_holds, sigma_star
from .evals import (
    McEstimate,
    coupling_from_signing,
    coupling_from_units,
    discG_mc,
    disc_bruteforce,
    discs_objective,
    online_discG,
    random_signing_baseline,
    triangle_rank2,
    vdisc_objective,
    vdisc_objective_units,
)
from .instances import unit_columns
from .kernel import advance_chain_batch, kernel_step, kernel_step_batch, slice_sample
from .linalg import (
    check_correlation,
    psd_cholesky,
    read_matrix,
    top_eigvec,
    write_matrix,
)
from .report import ExperimentReport
from .rng import RngHandle
from .rounding import (
    PlantedInstance,
    gw_round,
    half_ones,
    make_planted,
    pca_round,
    rounding_experiment,
    shift_orbit_index,
)
from .stats import KsResult, cov_test, ks_test
from .walk import (
    WalkConfig,
    WalkRun,
    WalkState,
    banaszczyk_rank,
    gram_of_stream,
    komlos_rank,
    stream_of_grams,
    walk_init,
    walk_run,
    walk_step,
)

__version__ = "0.1.0"
