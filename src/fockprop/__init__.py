"""Truncated bosonic Fock spaces, symbol calculi, and sliced propagators."""

__version__ = "0.1.0"

from .symbols import (
    PolySymbol,
    PhaseGrid,
    variable,
    conj_variable,
    gross_laplacian,
    wick_from_antinormal,
    antinormal_from_wick,
    restrict_symbol,
    truncate_modes,
    infimum_estimate,
    random_symbol,
    to_term_list,
    from_term_list,
    symbol_digest,
)
from .fock import (
    FockBasis,
    enumerate_basis,
    OperatorMatrix,
    CoherentVector,
    annihilator,
    creator,
    ccr_defect,
    gamma_diag,
    gamma_of,
    dgamma,
    coherent_vector,
    coherent_overlap,
    coherent_tail_bound,
)
from .quantize import (
    QuadratureRule,
    gauss_hermite_rule,
    wick_quantize,
    wick_symbol_deviation,
    antiwick_quantize_poly,
    antiwick_quantize_function,
)
from .propagate import (
    SliceSchedule,
    ConvergenceRecord,
    ExactPropagator,
    oracle_elements,
    chernoff_step,
    chernoff_propagator,
    coherent_matrix_element,
    feynman_convergence_table,
    halving_ratios,
)
from .galerkin import (
    Flag,
    RateFit,
    fit_rate,
    reduce_hamiltonian,
    galerkin_sweeps,
    schrodinger_evolve,
)
