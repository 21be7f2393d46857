"""A numerical laboratory for symmetric matrices under QR-type dynamics:
discrete steps, their interpolating isospectral flows, the exponential-chain
particle system behind the tridiagonal case, spectrum-plus-weights
coordinates for Jacobi matrices, and the map onto the spectral polytope."""

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    DomainViolation,
    InvalidFormat,
    MatSliceError,
    NotIrreducible,
    NotJacobi,
    NotTridiagonal,
    ReconstructionFailure,
    SingularMatrix,
    TooLarge,
)
from .linalg import (
    SpectralDecomposition,
    SpectralFunction,
    apply_function,
    as_symmetric,
    commutator,
    eigensystem,
    frobenius,
    function_values,
    offdiag_norm,
    qr_factor,
    skew_part,
    spectral_decompose,
    symmetrize,
    upper_part,
)
from .slices import (
    Trajectory,
    as_time_grid,
    fractional_step,
    functional_step,
    is_irreducible,
    iterate_qr,
    qr_step,
    slice_point,
    weighted_conjugate,
)
from .jacobi import (
    MoserCoordinates,
    is_jacobi,
    is_tridiagonal,
    moser_coordinates,
    moser_reconstruct,
)
from .toda import (
    ClusterPartition,
    ConvergenceReport,
    FlowConfig,
    ParticleTrajectory,
    TodaState,
    convergence_diagnostics,
    detect_clusters,
    flaschka,
    flow_factorized,
    flow_factorized_trajectory,
    flow_integrated,
    hamiltonian,
    interpolating_field,
    inverse_flaschka,
    particle_field,
    particle_flow,
    time_grid,
    toda_field,
)
from .polytope import (
    VertexSet,
    accessible_vertices,
    bfr_map,
    hull_member,
    majorization_member,
    permutohedron_vertices,
    project_sum_zero,
    spectral_polytope,
    sum_zero_basis,
)
from .generate import (
    default_rng,
    descending_spectrum,
    random_invertible_symmetric,
    random_jacobi,
    random_orthogonal,
    random_symmetric,
    random_with_spectrum,
)

__version__ = "0.1.0"
