"""One-shot lossy source coding under average distortion.

Exact computation of the random-coding distortion, the converse equality
through code priors, hypothesis-testing and channel-minimization forms of
the underlying quantile functional, excess-distortion specializations, and
convex optimization of the coding prior, all cross-checked against brute
force and Monte Carlo.

Modules:

- ``model``: problem data types, validation, JSON ingestion, and the
  sorted-level table of each row of d that every level consumer reads.
- ``pairwise``: per-letter distortion profiles and the acceptance matrix.
- ``dtilde``: the piecewise-linear quantile functional, inverse, channel.
- ``random_coding``: exact codebook averages and achievability bounds.
- ``converse``: code equality, prior optimization, sandwich, product priors.
- ``variational``: Neyman-Pearson and max-divergence forms.
- ``excess``: indicator-distortion specialization and reference comparisons.
- ``montecarlo``: the seeded random-code simulator.
- ``cli``: command-line adapters (``oneshotrd --help``).
"""

from .converse import (
    PriorOptResult,
    code_distortion,
    code_prior,
    converse_equality_check,
    dhat_sandwich,
    dtilde_subgradient,
    optimal_encoder,
    optimize_prior,
)
from .dtilde import (
    PiecewiseLinear,
    build_dtilde1,
    dtilde,
    dtilde1,
    dtilde1_for_prior,
    dtilde_for_prior,
    dtilde_inverse,
    rtilde,
    test_channel,
)
from .excess import (
    bound_gap_comparison,
    excess_dtilde,
    excess_problem,
    excess_rate,
    lemma4_check,
    m_functional,
)
from .model import (
    Channel,
    Code,
    EqualityCheckError,
    InvariantViolation,
    Problem,
    ProblemFormatError,
    load_problem,
    save_problem,
    validate,
)
from .montecarlo import (
    MCEstimate,
    simulate_random_code,
)
from .pairwise import (
    DistortionProfile,
    profile,
)
from .random_coding import (
    RandomCodingResult,
    achievability_bound,
    exact_expected_distortion,
    f_inverse,
    f_of,
    g_of,
    rate_for_distortion,
)
from .variational import (
    NPTest,
    WeightedMeasure,
    d_inf,
    distortion_measure,
    inf_form_value,
    info_spectrum_check,
    np_beta,
    sup_form_value,
    witness_qx,
)

__version__ = "0.1.0"
