"""Spectral analysis and statistics of nearest-neighbor quantum Markov
chains and open quantum walks."""

from .quantum_core import (
    Density,
    KrausMap,
    check_tp_column,
    compact_form,
    compact_unvec,
    compact_vec,
    conj_rep,
    superop_of,
    unvec,
    vec,
)
from .chain_model import (
    LatticeState,
    QmcModel,
    Topology,
    TruncatedOperator,
    build_model,
    evolve,
    half_line,
    line,
    load_density_matrix,
    load_model,
    model_to_dict,
    resolvent_block,
    segment,
    site_prob,
    site_prob_series,
    truncate,
)
from .polynomials import PolyFamily
from .spectral import (
    ConvergenceError,
    CornerStieltjes,
    DiscreteWeight,
    HomogeneousStieltjes,
    SiteStieltjes,
    SpectralError,
    StieltjesEvaluator,
    Symmetrizer,
    TruncatedStieltjes,
    WeightPoint,
    double_root_weight,
    find_symmetrizer,
    finite_spectrum_weights,
    residue_probe,
    stieltjes_folded,
)
from .statistics import (
    Classification,
    PassageResult,
    classify_recurrence,
    first_passage_gf,
    first_passage_poly,
    jump_at_one,
    km_block,
    km_probability,
    positive_recurrent,
    reach_analysis,
)
from .folding import (
    FoldedModel,
    FoldedTransformEvaluator,
    classify_recurrence_on_line,
    fold_model,
    folded_discrete_weight,
    half_line_evaluators,
    km_on_line,
    minus_model,
    plus_model,
    unfold_block,
)
from .nonsymmetric import (
    SemiOrthogonalSystem,
    classify_recurrence_homogeneous,
    km_row0,
    km_row0_probability,
    nonsym_finite_weights,
    semiorth_residual,
)
from .trajectories import (
    OccupationEstimate,
    TrajectoryConfig,
    estimate_site_prob,
    sample_trajectory,
)

__version__ = "0.1.0"
