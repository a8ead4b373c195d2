"""Search-success simulation for multi-qudit registers and the entanglement
measure derived from the maximal product overlap.

The package simulates amplitude-amplification search from arbitrary initial
states, maximizes the squared overlap between a state and the set of
product states (via alternating single-site optimization, with an exact
bipartite closed form and an exhaustive grid search as independent
references), and exposes the measures sqrt(1 - P_max) and 2 - 2 sqrt(P_max)
built on that quantity, including the linear extension to density matrices
and its documented failure to be an entanglement monotone.
"""

__version__ = "0.1.0"

from .errors import (
    BadSplit,
    BadSubset,
    DimensionMismatch,
    GroverianError,
    InvalidDensity,
    NonFiniteResult,
    NotNormalized,
    OutOfRange,
    TooLarge,
    WrongShape,
    ZeroVector,
)
from .families import bell, ghz, maximally_mixed, w_state
from .fileio import (
    FileFormatError,
    canonical_json,
    load_density,
    load_state,
    save_density,
    save_state,
)
from .grover import (
    GroverRun,
    OracleSpec,
    diffusion,
    diffusion_layer,
    grover_iterate,
    iteration_bound,
    optimal_iterations,
    oracle_phase,
    pmax_simulated,
    run_grover,
)
from .measures import (
    MeasureReport,
    binary_entropy,
    bures_distance,
    entropy_check,
    groverian,
    groverian_bipartite,
    groverian_mixed,
    groverian_product_mixed,
    majorizes,
)
from .product_opt import (
    OptimizerConfig,
    PmaxResult,
    pmax_bipartite,
    pmax_grid_oracle,
    pmax_mixed,
    pmax_overlap,
    pmax_overlap_many,
)
from .statevector import (
    DensityMatrix,
    LocalUnitaryLayer,
    ProductState,
    SchmidtDecomposition,
    StateVector,
    SystemShape,
    apply_local,
    basis_state,
    fourier_gate,
    haar_unitary,
    inner,
    product_to_state,
    random_local_layer,
    random_product,
    random_state,
    reduced_density,
    schmidt,
    schmidt_reconstruction_error,
    uniform_state,
)
