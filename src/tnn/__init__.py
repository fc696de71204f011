"""Certified computations around the tensor spectral and nuclear norms:
rank-one structure, mode-subspace projections, certified norm sandwiches,
decomposability checks, nuclear-norm subdifferential membership, and
tensor robust PCA dual certificates.
"""

from .errors import (
    CertificateInfeasibleError,
    ConvergenceError,
    DimensionError,
    IndexRangeError,
    LookupError_,
    ParameterError,
    PreconditionError,
    TnnError,
)
from .tensor_core import (
    DenseTensor,
    NuclearDecomposition,
    RankOneAtom,
    asarray,
    decomposition_sum,
    holder_norm,
    inner,
    mode_dematricize,
    mode_matricize,
    mode_product,
    multilinear_contract,
    outer_atom,
    read_tensor_file,
    write_tensor_file,
)
from .subspace import (
    EntrySupport,
    ModeFamily,
    ModeSubspace,
    Selector,
    basic,
    basic_split,
    complement,
    direct_sum,
    family_from_tensor,
    format_selector,
    lower_u,
    operator_norm_chain,
    order_ge2_sum,
    parse_selector,
    project,
    support_project,
    upper_u,
)
from .norms import (
    NuclearSandwich,
    SpectralResult,
    duality_gap_check,
    nuclear_sandwich,
    restricted_norm_check,
    spectral_certified_upper,
    spectral_enclosure,
    spectral_flattening_upper,
    spectral_hopm,
)
from .decomp import (
    DecompReport,
    check_nuclear_decomp,
    check_nuclear_lower_bound,
    check_spectral_decomp,
    check_weak_decomp,
    sample_pair,
    sample_weak_pair,
    weak_decomposability_constant,
)
from .subdiff import (
    SPHERE_PROGRAMS,
    SphereProgram,
    SubgradientReport,
    TauEstimate,
    build_inclusion_member,
    find_z_witness,
    gallery,
    is_subgradient,
    probe_tau,
    solve_sphere_program,
    sphere_program,
    z_membership,
)
from .rpca import (
    CertificateReport,
    DualCertificate,
    GolfingState,
    IncoherenceProfile,
    RpcaInstance,
    certify,
    concentration_trial,
    default_batches,
    default_lambda,
    generate_instance,
    golfing_certificate,
    incoherence_profile,
    neumann_certificate,
    solve_matrix_rpca,
)

__version__ = "1.0.0"
